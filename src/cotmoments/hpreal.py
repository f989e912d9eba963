"""Precision-parameterized real arithmetic and the analytic constants the
identities need: pi, log 2, and the eta/zeta values at integer arguments.

Values are mpmath floats.  Every function here takes the target precision P
in decimal digits, computes with >= 10 guard digits, and returns a value
accurate to a few ulps at P digits.

mpmath's working precision is process-global, so the package has one rule:
every computation at a precision runs inside ``_working(P)``, which refuses
P < MIN_DIGITS, then holds a single re-entrant module lock while it sets the
precision.  Scopes nest (a moment route calls eta), and the package's caches
are read and filled only inside a scope, so the lock guards them too.  The
costly results share one store, ``_values``, under tagged keys, in forms
that ``marshal`` can write: eta and the moment, kernel and consequence
integrals as ``_mpf_`` tuples (``_value``), the series sweeps as (depth,
integers) (``_paired_sweep``).  Calls from several threads at any mix of
precisions return the values of a serial run; the work itself is
serialised.  The tolerance rules live here too, and read the caller's
precision under the same lock.

Work that can run on a second core goes through one helper,
``_from_child(work)``: the function ``work`` runs in a child made by
``os.fork``, and its value, a tuple, comes back through a pipe as one
record of ``marshal`` pieces, or not at all.  No child outlives the block
that made it: on leaving it the parent closes the pipe, kills the child if
it still runs and reaps it (only a parent killed outright leaves its child
to finish and exit on the broken pipe).  It forks only while the calling
thread is the process's only thread.  When no value comes back (the child
failed, or there is no ``os.fork``, or it failed, or other threads run)
the caller does that work itself, so every value is the same either way.
A traced run sees only the parent's spans: what the child records is lost
with it.  It has two users:

* the tanh-sinh engine (``quadrature._tanh_sinh``) evaluates the second
  half of a costly level's node pairs in the child (building them there
  first if the node table lacks the level, and sending back the cot
  values that it adds to the table's cot column), and sums every
  contribution here, in the serial order.
* ``_in_halves(works)`` runs the back half of a list of independent works
  that fill the store in the child and the front half here, and the store
  entries that the child added come back exactly.  The consequences and
  routes suites fill their integrals through it, and ``_paired_sweep``
  sweeps the odd/even sibling of the asked-for kind through it.

The two series routes share no maths, but they share this layer's
plumbing: the value record ``Evaluation`` that every route returns, the
block length of their fixed-point sweeps, and ``_paired_sweep``.

eta(s) is summed with the Chebyshev-weighted acceleration for alternating
series with totally monotone terms (Cohen, Rodriguez Villegas, Zagier,
Exp. Math. 9 (2000), algorithm 1): with d_n = ((3+sqrt 8)^n + (3+sqrt 8)^-n)/2
the weighted partial sum satisfies

    |eta(s) - S_n| <= (2 / (3 + sqrt 8)^n) * eta(s)   (rate ~ 5.83^-n),

so n = ceil((P+8) * ln 10 / ln(3 + sqrt 8)) + 3 terms give ~P+10 digits.
The sum runs in integers: d_n and the weights are integers, and only the
divisions by (k+1)^s are floored, in fixed point (see ``eta``).
"""

from __future__ import annotations

import marshal
import math
import os
import threading
from contextlib import contextmanager
from functools import partial
from itertools import islice
from typing import Callable, Dict, Iterator, NamedTuple, Optional, Sequence

import mpmath
from mpmath import mp, mpf

from .exact import bernoulli

__all__ = [
    "Evaluation",
    "GUARD_DIGITS",
    "MIN_DIGITS",
    "pi",
    "log2",
    "eta",
    "zeta",
    "zeta_even_closed",
    "to_digits",
    "fixed_point_bits",
    "default_tolerance",
]

GUARD_DIGITS = 10
MIN_DIGITS = 10
_DEFAULT_DIGITS = 50  # the library's and the CLI's default precision
_DEFAULT_N = 100000    # the library's and the CLI's default truncation N
_SWEEP_BLOCK_BITS = 1 << 17  # a sweep block holds _SWEEP_BLOCK_BITS // fbits values of j

_ACCEL_RATE = math.log(3 + math.sqrt(8))  # ~1.7627

# the finished results, in forms that marshal can write: an _mpf_ tuple
# under ("eta", s, P), ("moment", m, P, tol._mpf_), ("kernel", kind,
# z._mpf_, P) or ("consequence", i, P, tol._mpf_); a sweep's (depth,
# integers) under ("cfn" | "sums" | "tails", kind, N, fbits)
_values: Dict[tuple, tuple] = {}

_PRECISION_LOCK = threading.RLock()


class Evaluation(NamedTuple):
    """One computed value: a moment by a route, or a series family's value.

    name is the route (``cfn-series``) or the family (``S_odd``), and index
    its m, k or l.  truncation is the cutoff N of a truncated sum, None
    otherwise.  error_bound is the value's own accuracy claim; it is None
    only for a closed form, whose error is a few ulps at the precision
    asked for."""

    name: str
    index: int
    value: mpf
    truncation: Optional[int] = None
    error_bound: Optional[mpf] = None


def _value(key: tuple, compute: Callable[[], mpf]) -> mpf:
    """The stored value under key, or compute()'s, which is stored as its
    ``_mpf_`` tuple; one that raises stores nothing.  Callers hold the
    precision scope."""
    hit = _values.get(key)
    if hit is None:
        hit = _values[key] = compute()._mpf_
    return mp.make_mpf(hit)


def _integer(n) -> bool:
    """Whether n is an int and not a bool: the one test of an integer
    argument (m, s), so that True is refused as 2.0 is, not taken as 1."""
    return isinstance(n, int) and not isinstance(n, bool)


def _require_digits(P: int) -> None:
    if P < MIN_DIGITS:
        raise ValueError(f"precision must be >= {MIN_DIGITS} digits, got {P}")


@contextmanager
def _working(P: int, guard: int = GUARD_DIGITS) -> Iterator[None]:
    """The one precision scope: P + guard digits, under the package lock.
    It refuses P < MIN_DIGITS before it takes the lock."""
    _require_digits(P)
    with _PRECISION_LOCK, mp.workdps(P + guard):
        yield


def default_tolerance(P: int) -> mpf:
    """The package-wide default target accuracy for P digits: 10^-(P-10).
    It is the quadrature's tol when the caller gives none, and the allowance
    of the suites' checks that carry no bound of their own.  It is computed
    at the caller's precision, under the package lock, so another thread's
    precision scope cannot change that precision midway; it enters no scope
    of its own."""
    with _PRECISION_LOCK:
        return mpf(10) ** (-(P - 10))


def _closed_form_tolerance(P: int) -> mpf:
    """The allowance 10^-(P-8) for a value that a closed form gives to a few
    ulps: the eta closed-form route's bound in ``cotmoments moments`` and the
    R/A rebuilds of the closed-forms suite.  At the caller's precision,
    under the package lock, like ``default_tolerance``."""
    with _PRECISION_LOCK:
        return mpf(10) ** (-(P - 8))


def _zeta_even_tolerance(P: int) -> mpf:
    """The allowance 10^(5-P) between the eta-based zeta(2l) and its
    Bernoulli closed form in the closed-forms suite.  At the caller's
    precision, under the package lock, like ``default_tolerance``."""
    with _PRECISION_LOCK:
        return mpf(10) ** (5 - P)


def _tolerance(P: int, tol) -> mpf:
    """A caller's tol as an mpf at the caller's precision, or the default for
    P when tol is None.  It refuses a tol that is not positive and finite."""
    if tol is None:
        return default_tolerance(P)
    value = mpf(tol)
    if not (mp.isfinite(value) and value > 0):
        raise ValueError(f"tol must be positive and finite, got tol={tol!r}")
    return value


def pi(P: int) -> mpf:
    """pi to P digits."""
    with _working(P):
        return +mp.pi


def log2(P: int) -> mpf:
    """log 2 to P digits."""
    with _working(P):
        return +mp.ln2


def eta(s: int, P: int) -> mpf:
    """Alternating zeta eta(s) = sum (-1)^(n+1) / n^s to ~P digits, s >= 1.

    eta(1) = log 2 falls out of the same accelerated sum.  The term count is
    chosen from P by the documented error bound (see module docstring).

    The CVZ quantities are integers.  d = T_n(3) is the integer a_n of
    (3 + sqrt 8)^n = a_n + b_n sqrt 8, since (3 + sqrt 8)^-n = a_n - b_n sqrt 8.
    The weights b_0 = -1, b_(k+1) = b_k 2(k+n)(k-n) / ((2k+1)(k+1)) are
    b_k = (-1)^(k+1) 4^k n/(n+k) C(n+k, 2k), the coefficients of the integer
    polynomial -T_n(1 - 2x), so every division of that recurrence is exact.  So are
    c_k = b_k - c_(k-1), c_(-1) = -d.  Only the terms c_k / (k+1)^s are
    rounded: each is floored to a multiple of 2^-fb, which loses less than
    n 2^-fb in all.  Then S_n = sum_k c_k/(k+1)^s / d is off by less than
    n / (2^fb d) <= 2n / (2^fb (3 + sqrt 8)^n), as d >= (3 + sqrt 8)^n / 2.
    With fb = bitlength(n) + 5, 2^fb > 32 n, so this rounding allowance is
    below 1/(16 (3 + sqrt 8)^n): less than 1/22 of the CVZ bound
    2 eta(s) / (3 + sqrt 8)^n, as eta(s) >= log 2.  The quotient by d is
    rounded once to the working precision.  A term whose (k+1)^s exceeds
    2^bitlength(c) floors to 0 or -1 without the power, so the cost stays
    bounded however large s is.
    """
    if not _integer(s):
        # (k+1)^s would be a float, good to ~15 digits whatever P is
        raise ValueError(f"eta: need an integer s, got s={s!r}")
    if s < 1:
        raise ValueError(f"eta: need s >= 1, got {s}")
    with _working(P):
        return _value(("eta", s, P), partial(_eta_sum, s, P))


def _eta_sum(s: int, P: int) -> mpf:
    n = int(math.ceil((P + 8) * math.log(10) / _ACCEL_RATE)) + 3
    fb = n.bit_length() + 5
    d, e = 1, 0                    # (3 + sqrt 8)^k = d + e sqrt 8
    for _ in range(n):
        d, e = 3 * d + 8 * e, d + 3 * e
    b = -1
    c = -d << fb                   # c_(k-1) 2^fb
    acc = 0
    for k in range(n):
        c = (b << fb) - c
        if ((k + 1).bit_length() - 1) * s < c.bit_length():
            acc += c // (k + 1) ** s
        elif c < 0:  # (k + 1)^s > |c|, so the floor is -1 (0 for c >= 0)
            acc -= 1
        b = b * 2 * (k + n) * (k - n) // ((2 * k + 1) * (k + 1))
    return mp.fdiv(acc, d << fb)


def zeta(s: int, P: int) -> mpf:
    """zeta(s) for integer s >= 2, via zeta(s) = eta(s) / (1 - 2^(1-s))."""
    if not _integer(s):
        raise ValueError(f"zeta: need an integer s, got s={s!r}")
    if s < 2:
        raise ValueError(f"zeta: need s >= 2, got {s}")
    with _working(P):
        return +(eta(s, P + 5) / (1 - mpf(2) ** (1 - s)))


def zeta_even_closed(s: int, P: int) -> mpf:
    """zeta(s) for even s >= 2 from the Bernoulli closed form.

    zeta(2l) = (2 pi)^(2l) |B_2l| / (2 (2l)!) — an independent cross-check of
    the eta-based route.
    """
    if not _integer(s):
        raise ValueError(f"zeta_even_closed: need an integer s, got s={s!r}")
    if s < 2 or s % 2:
        raise ValueError(f"zeta_even_closed: need even s >= 2, got {s}")
    l = s // 2
    b = abs(bernoulli(2 * l))
    with _working(P):
        num = (2 * mp.pi) ** (2 * l) * mpf(b.numerator)
        return +(num / (2 * mp.factorial(2 * l) * b.denominator))


def to_digits(x, P: int) -> str:
    """Decimal string with P significant digits (deterministic formatting)."""
    return mpmath.nstr(x, P, strip_zeros=False)


def fixed_point_bits(P: int) -> int:
    """Fractional bits for the integer fixed-point sweeps at P digits."""
    return max(140, int(P * 3.322) + 40)


@contextmanager
def _from_child(work: Callable[[], object]) -> Iterator[Callable[[], object]]:
    """A function ``fetch`` that returns the value of ``work()``, a tuple,
    which runs in a child made by ``os.fork``, at the same time as the
    caller's block; or None, and then the caller does that work itself.

    The child sends the tuple as one record, its item count and then each
    item as a length-prefixed ``marshal`` piece (ints, strings, lists,
    tuples, dicts), and ends with ``os._exit``.  ``fetch()`` waits for that
    record, and reads and parses one piece at a time, so beside the values
    it holds the bytes of one piece only.  It returns None when the record
    is missing or cut short: when the child raised, was killed or returned
    a value ``marshal`` cannot write.  It also returns None without
    ``os.fork``, when the pipe or the fork fails, and when another thread
    runs: it forks only while the caller's thread is the only one, since
    the child would keep only that thread, and any lock another thread held
    would stay held there (from Python 3.12 on, ``os.fork`` warns of
    this).  On leaving the block the caller closes the pipe, kills the
    child (SIGKILL) if it is still running and reaps it, however the block
    ends: with the value fetched, not fetched, or by an exception.
    """
    pid = None
    if hasattr(os, "fork") and threading.active_count() == 1:
        try:
            r, w = os.pipe()
        except OSError:
            pass
        else:
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
    if pid is None:
        yield lambda: None
        return
    if pid == 0:  # the child: send the value and leave, whatever happens
        status = 1
        try:
            os.close(r)
            items = work()
            with open(w, "wb") as out:
                out.write(len(items).to_bytes(8, "little"))
                for item in items:
                    piece = marshal.dumps(item)
                    out.write(len(piece).to_bytes(8, "little"))
                    out.write(piece)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    reader = open(r, "rb")

    def read(size):
        data = reader.read(size)
        if len(data) < size:
            raise EOFError("the record is cut short")
        return data

    def fetch():
        # read a whole piece, then parse it: marshal.load on the pipe's
        # file object makes one readinto call per 15-bit digit of every int
        try:
            count = int.from_bytes(read(8), "little")
            return tuple(marshal.loads(read(int.from_bytes(read(8), "little")))
                         for _ in range(count))
        except (EOFError, ValueError):
            return None

    try:
        yield fetch
    finally:
        reader.close()
        os.kill(pid, 9)  # SIGKILL; a child that has exited is not affected
        os.waitpid(pid, 0)


def _in_halves(works: Sequence[Callable[[], object]]) -> None:
    """Run works, independent calls that each fill the store: the back
    half, works[len(works) // 2:], in a child (``_from_child``) while this
    process runs the front half.  The child's record holds, as one piece,
    the entries it added, past the store's length at the fork (a deeper
    sweep that replaces an entry keeps its dict position, so only keys new
    at the fork are sent; ``_paired_sweep`` forks only when both its keys
    are missing).  They join this store unless it has the key.  With no
    record (no fork, or the child failed) nothing joins, and a read of a
    back-half value computes it here on its miss.  So the store holds a
    serial run's values, and a front-half work that raises raises here.  Callers hold the
    precision scope, read their values through the store, and order works
    so that the two halves cost about the same."""
    half = len(works) // 2

    def child():
        start = len(_values)
        for work in works[half:]:
            work()
        return (dict(islice(_values.items(), start, None)),)

    with _from_child(child) as fetch:
        for work in works[:half]:
            work()
        (added,) = fetch() or ({},)
    for key, value in added.items():
        _values.setdefault(key, value)


def _paired_sweep(tag: str, sweep: Callable[..., object], kind, depth: int,
                  N: int, fbits: int, floors: dict) -> object:
    """sweep(kind, d, N, fbits) for some d >= depth, kept in the store as
    (d, result) under (tag, kind, N, fbits): the series routes' sweep cache.

    floors has two keys, kind and its odd/even sibling, and the suites ask
    for both at the same (N, fbits), each up to its floor depth.  So a miss
    at depth <= floors[kind], with the sibling's entry missing, sweeps kind
    to its floor here and the sibling to its own floor in a forked child
    (``_in_halves``); if that child fails, or there is no fork, the sibling
    stays unstored and is swept here when it is asked for.  Every other
    miss sweeps kind alone, to max(depth, floors[kind]).  A sweep's integers at a depth do not depend on how deep
    it ran, or where.  The sweeps are plain integer code, which takes no
    lock.  Callers hold the precision scope, whose lock guards the store."""
    key = (tag, kind, N, fbits)
    hit = _values.get(key)
    if hit is not None and hit[0] >= depth:
        return hit[1]

    def fill(kind, depth):
        _values[tag, kind, N, fbits] = (depth, sweep(kind, depth, N, fbits))

    floor = floors[kind]
    sibling = next(other for other in floors if other != kind)
    if depth > floor or (tag, sibling, N, fbits) in _values:
        fill(kind, max(depth, floor))
    else:
        _in_halves([partial(fill, kind, floor), partial(fill, sibling, floors[sibling])])
    return _values[key][1]
