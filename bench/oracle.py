"""Reference values for the benchmark, computed without the package.

Nothing here imports ``cotmoments``: moments and constants come from
mpmath's own ``altzeta``/``zeta`` at P + 20 digits, kernels from ``mp.quad``
on a smooth substituted integrand, and the exact triangles from their
product generating polynomials.  A value passes when it lies within the
bound its producer claims.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from mpmath import mp, mpf

ORACLE_GUARD = 20


def closed_form_bound(P: int) -> mpf:
    """Bound claimed for values that carry none (closed forms, constants):
    a few ulps at P digits, taken generously as 10^-(P-8)."""
    return mpf(10) ** (8 - P)


def default_tolerance(P: int) -> mpf:
    """The package's documented default accuracy target, 10^-(P-10)."""
    return mpf(10) ** (10 - P)


class Oracle:
    """Caches references per key; one instance per benchmark run."""

    def __init__(self) -> None:
        self._moments: Dict[Tuple[int, int], mpf] = {}
        self._consts: Dict[Tuple[str, int, int], mpf] = {}
        self._kernels: Dict[Tuple[str, str, int], mpf] = {}
        self._columns: Dict[str, List[List[str]]] = {}
        self._digests: Dict[Tuple[str, int, int], str] = {}

    # -- constants and moments ---------------------------------------------

    def constant(self, name: str, s: int, P: int) -> mpf:
        key = (name, s, P)
        if key not in self._consts:
            with mp.workdps(P + ORACLE_GUARD):
                fn = mp.altzeta if name == "eta" else mp.zeta
                self._consts[key] = +fn(s)
        return self._consts[key]

    def moment(self, m: int, P: int) -> mpf:
        """C(m) = sum_l (-1)^l pi^(m-2l)/(m-2l)! eta(2l+1)
                  + [m even] (-1)^(m/2) zeta(m+1)."""
        key = (m, P)
        if key not in self._moments:
            with mp.workdps(P + ORACLE_GUARD):
                acc = mpf(0)
                for l in range(m // 2 + 1):
                    p = m - 2 * l
                    acc += ((-1) ** l * mp.pi ** p / mp.factorial(p)
                            * self.constant("eta", 2 * l + 1, P))
                if m % 2 == 0:
                    acc += (-1) ** (m // 2) * self.constant("zeta", m + 1, P)
                self._moments[key] = +acc
        return self._moments[key]

    def kernel(self, which: str, z: str, P: int) -> mpf:
        """K1(z) = (1/z) int_0^asin(z) t cot t dt  (y = sin t) and
        K0(z) = int_0^asin(sqrt z) 2 t^2 cot t dt  (y = sin^2 t)."""
        key = (which, z, P)
        if key not in self._kernels:
            with mp.workdps(P + ORACLE_GUARD):
                zz = mpf(z)
                if zz == 0:
                    value = mpf(1) if which == "k1" else mpf(0)
                elif which == "k1":
                    value = mp.quad(lambda t: t * mp.cot(t), [0, mp.asin(zz)]) / zz
                else:
                    value = mp.quad(lambda t: 2 * t * t * mp.cot(t),
                                    [0, mp.asin(mp.sqrt(zz))])
                self._kernels[key] = +value
        return self._kernels[key]

    # -- exact triangles -----------------------------------------------------

    def _column_table(self, kind: str, nmax: int) -> List[List[str]]:
        """columns[n][k] = str(kind(k, n)) for n <= nmax, k <= n, from

            sum_k t0(k,n) x^k = x prod_{i=1}^{n-1} (x + i^2)      (n >= 1)
            sum_k t1(k,n) x^k = prod_{i=0}^{n-1} (x + (i + 1/2)^2)

        and H0(k,n) = t0(k,n)/((n-1)!)^2, H1(k,n) = t1(k,n) 16^n /
        (4^k C(2n,n) (2n)!)."""
        have = self._columns.get(kind)
        if have is not None and len(have) > nmax:
            return have
        cols: List[List[str]] = []
        if kind in ("t0", "h0"):
            poly = [1]                         # column 0: t0(0,0) = 1
            for n in range(nmax + 1):
                if n == 1:
                    poly = [0, 1]
                elif n >= 2:
                    c = (n - 1) ** 2
                    poly = [c * poly[0]] + [poly[k - 1] + c * poly[k]
                                            for k in range(1, len(poly))] + [poly[-1]]
                d = 1 if kind == "t0" or n == 0 else math.factorial(n - 1) ** 2
                cols.append([str(Fraction(v, d)) for v in poly])
        else:
            poly = [1]                         # in y = 4x: prod (y + (2i+1)^2)
            for n in range(nmax + 1):
                if n:
                    c = (2 * n - 1) ** 2
                    poly = [c * poly[0]] + [poly[k - 1] + c * poly[k]
                                            for k in range(1, len(poly))] + [poly[-1]]
                if kind == "t1":
                    cols.append([str(Fraction(v * 4 ** k, 4 ** n)) for k, v in enumerate(poly)])
                else:
                    d = math.comb(2 * n, n) * math.factorial(2 * n)
                    cols.append([str(Fraction(v * 4 ** n, d)) for v in poly])
        self._columns[kind] = cols
        return cols

    def table_digest(self, kind: str, kmax: int, nmax: int) -> str:
        key = (kind, kmax, nmax)
        if key not in self._digests:
            cols = self._column_table(kind, nmax)
            self._digests[key] = table_digest(
                [cols[n][k] if k < len(cols[n]) else "0" for n in range(nmax + 1)]
                for k in range(kmax + 1))
        return self._digests[key]


def table_digest(rows) -> str:
    """sha256 of the table written as CSV with exact entries, one row per k.
    The benchmark's child computes the same digest from the package's table."""
    h = hashlib.sha256()
    for k, row in enumerate(rows):
        if k:
            h.update(b"\n")
        h.update(",".join(str(v) for v in row).encode())
    return h.hexdigest()


def gap_over_bound(value: str, reference: mpf, bound: Optional[str], P: int) -> float:
    """|value - reference| / bound, with the closed-form bound when none is
    claimed.  A pass is a ratio <= 1."""
    with mp.workdps(P + ORACLE_GUARD):
        b = closed_form_bound(P) if bound is None else mpf(bound)
        return float(abs(mpf(value) - reference) / b)
