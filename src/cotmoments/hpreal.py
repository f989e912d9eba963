"""Precision-parameterized real arithmetic and the analytic constants the
identities need: pi, log 2, and the eta/zeta values at integer arguments.

Values are mpmath floats.  Every function here takes the target precision P
in decimal digits, computes with >= 10 guard digits inside an `mp.workdps`
scope, and returns a value accurate to a few ulps at P digits.
Composite computations elsewhere in the package follow the same pattern, so
precision effectively propagates as the minimum of the operand precisions.

eta(s) is summed with the Chebyshev-weighted acceleration for alternating
series with totally monotone terms: with d_n = ((3+sqrt 8)^n + (3+sqrt 8)^-n)/2
the weighted partial sum satisfies

    |eta(s) - S_n| <= (2 / (3 + sqrt 8)^n) * eta(s)   (rate ~ 5.83^-n),

so n = ceil((P+8) * ln 10 / ln(3 + sqrt 8)) + 3 terms give ~P+8 digits.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Tuple

import mpmath
from mpmath import mp, mpf

from .exact import bernoulli

__all__ = [
    "GUARD_DIGITS",
    "MIN_DIGITS",
    "pi",
    "log2",
    "eta",
    "zeta",
    "zeta_even_closed",
    "to_digits",
]

GUARD_DIGITS = 10
MIN_DIGITS = 10

_ACCEL_RATE = math.log(3 + math.sqrt(8))  # ~1.7627

_eta_cache: Dict[Tuple[int, int], mpf] = {}
_eta_lock = threading.Lock()


def _require_digits(P: int) -> None:
    if P < MIN_DIGITS:
        raise ValueError(f"precision must be >= {MIN_DIGITS} digits, got {P}")


def pi(P: int) -> mpf:
    """pi to P digits."""
    _require_digits(P)
    with mp.workdps(P + GUARD_DIGITS):
        return +mp.pi


def log2(P: int) -> mpf:
    """log 2 to P digits."""
    _require_digits(P)
    with mp.workdps(P + GUARD_DIGITS):
        return +mp.ln2


def eta(s: int, P: int) -> mpf:
    """Alternating zeta eta(s) = sum (-1)^(n+1) / n^s to ~P digits, s >= 1.

    eta(1) = log 2 falls out of the same accelerated sum.  The term count is
    chosen from P by the documented error bound (see module docstring).
    """
    if s < 1:
        raise ValueError(f"eta: need s >= 1, got {s}")
    _require_digits(P)
    key = (s, P)
    with _eta_lock:
        hit = _eta_cache.get(key)
    if hit is not None:
        return hit
    n = int(math.ceil((P + 8) * math.log(10) / _ACCEL_RATE)) + 3
    with mp.workdps(P + GUARD_DIGITS):
        d = (3 + 2 * mp.sqrt(2)) ** n
        d = (d + 1 / d) / 2
        b = mpf(-1)
        c = -d
        acc = mpf(0)
        for k in range(n):
            c = b - c
            acc += c / mpf(k + 1) ** s
            b *= mpf(2 * (k + n)) * (k - n) / ((2 * k + 1) * (k + 1))
        value = +(acc / d)
    with _eta_lock:
        _eta_cache[key] = value
    return value


def zeta(s: int, P: int) -> mpf:
    """zeta(s) for integer s >= 2, via zeta(s) = eta(s) / (1 - 2^(1-s))."""
    if s < 2:
        raise ValueError(f"zeta: need s >= 2, got {s}")
    _require_digits(P)
    with mp.workdps(P + GUARD_DIGITS):
        return +(eta(s, P + 5) / (1 - mpf(2) ** (1 - s)))


def zeta_even_closed(s: int, P: int) -> mpf:
    """zeta(s) for even s >= 2 from the Bernoulli closed form.

    zeta(2l) = (2 pi)^(2l) |B_2l| / (2 (2l)!) — an independent cross-check of
    the eta-based route.
    """
    if s < 2 or s % 2:
        raise ValueError(f"zeta_even_closed: need even s >= 2, got {s}")
    _require_digits(P)
    l = s // 2
    b = abs(bernoulli(2 * l))
    with mp.workdps(P + GUARD_DIGITS):
        num = (2 * mp.pi) ** (2 * l) * mpf(b.numerator)
        return +(num / (2 * mp.factorial(2 * l) * b.denominator))


def to_digits(x, P: int) -> str:
    """Decimal string with P significant digits (deterministic formatting)."""
    return mpmath.nstr(x, P, strip_zeros=False)
