"""Exact triangular tables of central factorial numbers (t0, t1) and the
recursive harmonic numbers of order two (H0, H1), plus their cross-identities.

Conventions (k indexes rows, n columns, both from 0):

* t0(k,n) = t0(k-1,n-1) + (n-1)^2  * t0(k,n-1), row 0 = (1, 0, 0, ...)
* t1(k,n) = t1(k-1,n-1) + (n-1/2)^2 * t1(k,n-1), row 0 = ((2n-1)!!)^2 / 4^n
* H0(0,0) = 1, H0(0,n) = 0 for n >= 1; H0(1,n) = 1 for n >= 1;
  H0(k,n) = sum_{i=k-1}^{n-1} H0(k-1,i) / i^2            (k >= 2)
* H1(0,n) = 1 for n >= 0;
  H1(k,n) = sum_{i=k-1}^{n-1} H1(k-1,i) / (2i+1)^2        (k >= 1)

Each odd/even pair is one recurrence with different integers, built by one
loop: t0/t1 by the square (n - 1 + shift/2)^2, shift 0 resp. 1, above their
row 0; H0/H1 by the root a i + c, (a, c) = (1, 0) resp. (2, 1), below their
seed rows.  H0 seeds rows 0 and 1, as its root is 0 at i = 0.

All entries below the diagonal (n < k) vanish; the diagonal is 1.  The two
families are tied together by the factorial relations

    t0(k,n) = (n-1)!^2 * H0(k,n)                       for n >= 1,
    t1(k,n) = 2^(2k) * C(2n,n) * (2n)!/2^(4n) * H1(k,n) for n >= 0,

and by the generating functions of [2*arcsin(z/2)]^m (even/odd m), both of
which `check_factorial_relation` / `check_generating_functions` verify with
exact rational arithmetic.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Dict, List, NamedTuple, Tuple

from .exact import RationalPowerSeries, double_factorial_odd, fps_arcsin
from .report import VerificationReport

__all__ = [
    "build_t0",
    "build_t1",
    "build_h0",
    "build_h1",
    "check_factorial_relation",
    "check_generating_functions",
    "check_reference_values",
    "table_to_csv",
    "table_to_json",
    "REFERENCE_VALUES",
]

Fr = Fraction


class _RationalTable(NamedTuple):
    """An exact triangle: t0/t1 (central factorial numbers) or h0/h1
    (recursive harmonic numbers), indexed table[k, n]: its __getitem__
    replaces the tuple's."""

    kind: str
    kmax: int
    nmax: int
    values: Tuple[Tuple[Fraction, ...], ...]

    def __getitem__(self, kn: Tuple[int, int]) -> Fraction:
        k, n = kn
        if not (0 <= k <= self.kmax and 0 <= n <= self.nmax):
            raise IndexError(f"{self.kind}[{k},{n}] outside table bounds")
        return self.values[k][n]

    def row(self, k: int) -> Tuple[Fraction, ...]:
        return self.values[k]


def _check_bounds(kmax: int, nmax: int) -> None:
    if kmax < 0 or nmax < 0:
        raise ValueError("table bounds must be non-negative")
    if kmax > nmax:
        raise ValueError(f"need kmax <= nmax, got kmax={kmax} nmax={nmax}")


def _build_t(kind: str, shift: int, row0: List[Fraction], kmax: int,
             nmax: int) -> _RationalTable:
    """t(k,n) = t(k-1,n-1) + (n - 1 + shift/2)^2 t(k,n-1) above row0."""
    rows = [row0]
    squares = [Fr(2 * n - 2 + shift, 2) ** 2 for n in range(nmax + 1)]
    for k in range(1, kmax + 1):
        prev = rows[k - 1]
        row = [Fr(0)] * (nmax + 1)
        for n in range(1, nmax + 1):
            row[n] = prev[n - 1] + squares[n] * row[n - 1]
        rows.append(row)
    return _RationalTable(kind, kmax, nmax, tuple(tuple(r) for r in rows))


def build_t0(kmax: int, nmax: int) -> _RationalTable:
    """Even central-factorial triangle t0, built densely by its recurrence."""
    _check_bounds(kmax, nmax)
    return _build_t("t0", 0, [Fr(1)] + [Fr(0)] * nmax, kmax, nmax)


def build_t1(kmax: int, nmax: int) -> _RationalTable:
    """Odd central-factorial triangle t1.

    The boundary row is t1(0,n) = ((2n-1)!!)^2 / 4^n (equal to 1 at n = 0),
    which the recurrence with t1(0,0) = 1 regenerates; the closed form is used
    so the boundary is an independent input, as the tables define it.
    """
    _check_bounds(kmax, nmax)
    row0 = [Fr(double_factorial_odd(n) ** 2, 4**n) for n in range(nmax + 1)]
    return _build_t("t1", 1, row0, kmax, nmax)


def _build_h(kind: str, a: int, c: int, seeds: List[List[Fraction]], kmax: int,
             nmax: int) -> _RationalTable:
    """H(k,n) = H(k,n-1) + H(k-1,n-1) / (a(n-1) + c)^2, accumulated left to
    right from n = k, for the rows below the seed rows."""
    rows = seeds[: kmax + 1]
    squares = [Fr((a * (n - 1) + c) ** 2) for n in range(nmax + 1)]
    for k in range(len(rows), kmax + 1):
        prev = rows[k - 1]
        row = [Fr(0)] * (nmax + 1)
        for n in range(k, nmax + 1):
            row[n] = row[n - 1] + prev[n - 1] / squares[n]
        rows.append(row)
    return _RationalTable(kind, kmax, nmax, tuple(tuple(r) for r in rows))


def build_h0(kmax: int, nmax: int) -> _RationalTable:
    """Even recursive harmonic triangle H0 (nested sums of 1/i^2)."""
    _check_bounds(kmax, nmax)
    # H0(1,n) = 1 is seeded: the recurrence would divide by 0^2 at i = 0
    seeds = [[Fr(1)] + [Fr(0)] * nmax, [Fr(0)] + [Fr(1)] * nmax]
    return _build_h("h0", 1, 0, seeds, kmax, nmax)


def build_h1(kmax: int, nmax: int) -> _RationalTable:
    """Odd recursive harmonic triangle H1 (nested sums of 1/(2i+1)^2)."""
    _check_bounds(kmax, nmax)
    return _build_h("h1", 2, 1, [[Fr(1)] * (nmax + 1)], kmax, nmax)


# ---------------------------------------------------------------------------
# cross-identity checks
# ---------------------------------------------------------------------------

_ANCHOR_FACT_T0 = "t0(k,n) = (n-1)!^2 * H0(k,n)"
_ANCHOR_FACT_T1 = "t1(k,n) = 2^(2k) * C(2n,n) * (2n)!/2^(4n) * H1(k,n)"
_ANCHOR_GF_EVEN = "(2k)! * [z^(2n)] (2*asin(z/2))^(2k) = t0(k,n) * (2k)!/(2n)!"
_ANCHOR_GF_ODD = "(2k+1)! * [z^(2n+1)] (2*asin(z/2))^(2k+1) = t1(k,n) * (2k+1)!/(2n+1)!"


def check_factorial_relation(kmax: int, nmax: int) -> VerificationReport:
    """Verify, by exact rational equality, the factorial relations tying the
    t-triangles to the H-triangles, for every (k, n) in range."""
    _check_bounds(kmax, nmax)
    t0 = build_t0(kmax, nmax)
    t1 = build_t1(kmax, nmax)
    h0 = build_h0(kmax, nmax)
    h1 = build_h1(kmax, nmax)
    rep = VerificationReport("factorial-relation", {"kmax": kmax, "nmax": nmax})
    for k in range(kmax + 1):
        for n in range(nmax + 1):
            if n >= 1:
                lhs = t0[k, n]
                rhs = Fr(math.factorial(n - 1) ** 2) * h0[k, n]
                rep.add_exact(f"t0-h0/k={k},n={n}", _ANCHOR_FACT_T0, lhs, rhs)
            lhs = t1[k, n]
            rhs = Fr(4**k * math.comb(2 * n, n) * math.factorial(2 * n), 16**n) * h1[k, n]
            rep.add_exact(f"t1-h1/k={k},n={n}", _ANCHOR_FACT_T1, lhs, rhs)
    return rep


def check_generating_functions(kmax: int, order: int) -> VerificationReport:
    """Verify the generating-function identities coefficient by coefficient.

    For each k <= kmax and each n with the power in range:

        [z^(2n)]   (2*asin(z/2))^(2k)   / (2k)!   == t0(k,n) / (2n)!
        [z^(2n+1)] (2*asin(z/2))^(2k+1) / (2k+1)! == t1(k,n) / (2n+1)!

    Exact rational equality throughout.
    """
    if order < 2 * kmax + 1:
        raise ValueError(f"need order >= 2*kmax+1, got kmax={kmax} order={order}")
    nmax = (order - 1) // 2  # so both powers 2n and 2n + 1 are <= order
    t0 = build_t0(kmax, nmax)
    t1 = build_t1(kmax, nmax)
    base = fps_arcsin(order)
    # the powers 1, base, base^2, ... one exact product each
    even_pow = RationalPowerSeries((Fr(1),) + (Fr(0),) * order, order)
    rep = VerificationReport("generating-functions", {"kmax": kmax, "order": order})
    for k in range(kmax + 1):
        even_fact = Fr(math.factorial(2 * k))
        odd_fact = Fr(math.factorial(2 * k + 1))
        odd_pow = even_pow * base
        for n in range(nmax + 1):
            lhs = even_pow.coefficient(2 * n) / even_fact
            rhs = t0[k, n] / Fr(math.factorial(2 * n))
            rep.add_exact(f"gf-even/k={k},n={n}", _ANCHOR_GF_EVEN, lhs, rhs)
            lhs = odd_pow.coefficient(2 * n + 1) / odd_fact
            rhs = t1[k, n] / Fr(math.factorial(2 * n + 1))
            rep.add_exact(f"gf-odd/k={k},n={n}", _ANCHOR_GF_ODD, lhs, rhs)
        even_pow = odd_pow * base
    return rep


# Known exact values of the four triangles (k rows, n columns), used by the
# `tables` verification suite; the acceptance tests freeze their own copies.
REFERENCE_VALUES: Dict[str, Tuple[Tuple[str, ...], ...]] = {
    "t0": (
        ("1", "0", "0", "0", "0", "0"),
        ("0", "1", "1", "4", "36", "576"),
        ("0", "0", "1", "5", "49", "820"),
        ("0", "0", "0", "1", "14", "273"),
        ("0", "0", "0", "0", "1", "30"),
        ("0", "0", "0", "0", "0", "1"),
    ),
    "t1": (
        ("1", "1/4", "9/16", "225/64", "11025/256", "893025/1024"),
        ("0", "1", "5/2", "259/16", "3229/16", "1057221/256"),
        ("0", "0", "1", "35/4", "987/8", "86405/32"),
        ("0", "0", "0", "1", "21", "4389/8"),
        ("0", "0", "0", "0", "1", "165/4"),
        ("0", "0", "0", "0", "0", "1"),
    ),
    "h0": (
        ("1", "0", "0", "0", "0", "0"),
        ("0", "1", "1", "1", "1", "1"),
        ("0", "0", "1", "5/4", "49/36", "205/144"),
        ("0", "0", "0", "1/4", "7/18", "91/192"),
    ),
    "h1": (
        ("1", "1", "1", "1", "1", "1"),
        ("0", "1", "10/9", "259/225", "12916/11025", "117469/99225"),
        ("0", "0", "1/9", "7/45", "94/525", "34562/178605"),
        ("0", "0", "0", "1/225", "4/525", "418/42525"),
    ),
}

_BUILDERS = {"t0": build_t0, "t1": build_t1, "h0": build_h0, "h1": build_h1}


def check_reference_values() -> VerificationReport:
    """Rebuild all four triangles and compare them entry-for-entry against the
    known exact values (t/n up to 5; H rows up to k = 3)."""
    rep = VerificationReport("reference-tables", {})
    for kind, ref in REFERENCE_VALUES.items():
        kmax = len(ref) - 1
        nmax = len(ref[0]) - 1
        table = _BUILDERS[kind](kmax, nmax)
        for k in range(kmax + 1):
            for n in range(nmax + 1):
                rep.add_exact(
                    f"table-{kind}/k={k},n={n}",
                    f"{kind}(k,n) recurrence vs known exact value",
                    table[k, n],
                    Fr(ref[k][n]),
                )
    return rep


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def table_to_csv(table: _RationalTable) -> str:
    """One CSV row per k; entries are exact ('p' or 'p/q')."""
    return "\n".join(",".join(str(v) for v in table.row(k)) for k in range(table.kmax + 1))


def table_to_json(table: _RationalTable) -> str:
    """JSON object with bounds and an array-of-arrays of exact strings."""
    payload = {
        "kind": table.kind,
        "kmax": table.kmax,
        "nmax": table.nmax,
        "values": [[str(v) for v in table.row(k)] for k in range(table.kmax + 1)],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
