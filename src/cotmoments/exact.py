"""Exact integer/rational building blocks: combinatorial numbers, integer
partitions, and truncated formal power series over the rationals.

Everything in this module is exact — no floating point anywhere; rationals are
`fractions.Fraction`, which keeps lowest terms and a positive denominator.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, List, NamedTuple, Sequence, Tuple

__all__ = [
    "Partition",
    "RationalPowerSeries",
    "bernoulli",
    "euler_zigzag",
    "partitions",
    "cycle_count",
    "double_factorial_odd",
    "fps_arcsin",
]

Fr = Fraction  # local binding, used heavily below


# ---------------------------------------------------------------------------
# combinatorial numbers
# ---------------------------------------------------------------------------

def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (convention B_1 = -1/2), by the defining recurrence.

    sum_{j=0}^{m} C(m+1, j) B_j = 0 for m >= 1, i.e.

        B_m = -1/(m+1) * sum_{j=0}^{m-1} C(m+1, j) B_j.

    The table is rebuilt on each call, which is cheap at the n <= 12 the
    identities use; only exact rationals are used.
    """
    if n < 0:
        raise ValueError(f"bernoulli: n must be non-negative, got {n}")
    table = [Fr(1)]
    for m in range(1, n + 1):
        acc = Fr(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * table[j]
        table.append(-acc / (m + 1))
    return table[n]


def euler_zigzag(n: int) -> Fraction:
    """Euler (secant) number E*_n = n! * [z^n] sec(z) for even n.

    Computed through the boustrophedon triangle in exact integers.  Odd n is
    rejected: the odd-index zigzag numbers are tangent numbers, which none of
    the identities here consume.
    """
    if n < 0 or n % 2:
        raise ValueError(f"euler_zigzag: n must be even and non-negative, got {n}")
    # Boustrophedon (Seidel) triangle: row[0] = 0 (m >= 1) and
    # row[k] = row[k-1] + prev[m-k]; the last entry of row m is the m-th
    # zigzag number (1, 1, 1, 2, 5, 16, 61, ...).
    row = [1]
    for m in range(1, n + 1):
        prev, row = row, [0] * (m + 1)
        for k in range(1, m + 1):
            row[k] = row[k - 1] + prev[m - k]
    return Fr(row[-1])


def double_factorial_odd(n: int) -> int:
    """(2n-1)!! = 1*3*5*...*(2n-1), with the empty-product value 1 at n = 0."""
    if n < 0:
        raise ValueError(f"double_factorial_odd: n must be non-negative, got {n}")
    out = 1
    for i in range(1, 2 * n, 2):
        out *= i
    return out


# ---------------------------------------------------------------------------
# integer partitions and cycle counts
# ---------------------------------------------------------------------------

class _PartitionFields(NamedTuple):
    multiplicities: Tuple[int, ...]


class Partition(_PartitionFields):
    """A partition of an integer k, stored as a multiplicity vector.

    ``multiplicities[l-1]`` is the number of parts equal to l, so the
    partitioned integer is sum(l * pi_l) and the length is sum(pi_l).
    """

    __slots__ = ()

    def __new__(cls, multiplicities: Tuple[int, ...]) -> "Partition":
        if any(m < 0 for m in multiplicities):
            raise ValueError("Partition: multiplicities must be non-negative")
        if multiplicities and multiplicities[-1] == 0:
            raise ValueError("Partition: trailing zero multiplicities not allowed")
        return super().__new__(cls, multiplicities)

    @classmethod
    def from_parts(cls, parts: Sequence[int]) -> "Partition":
        if any(p < 1 for p in parts):
            raise ValueError("Partition: parts must be positive")
        mult = [0] * (max(parts) if parts else 0)
        for p in parts:
            mult[p - 1] += 1
        return cls(tuple(mult))

    @property
    def total(self) -> int:
        """The partitioned integer k = sum(l * pi_l)."""
        return sum(l * m for l, m in enumerate(self.multiplicities, start=1))



def _descending_parts(remaining: int, maxpart: int) -> Iterator[List[int]]:
    if remaining == 0:
        yield []
        return
    for p in range(min(maxpart, remaining), 0, -1):
        for rest in _descending_parts(remaining - p, p):
            yield [p] + rest


def partitions(k: int) -> List[Partition]:
    """All partitions of k, in decreasing-part lexicographic order.

    For k = 4: [4], [3,1], [2,2], [2,1,1], [1,1,1,1].
    """
    if k < 1:
        raise ValueError(f"partitions: k must be positive, got {k}")
    return [Partition.from_parts(parts) for parts in _descending_parts(k, k)]


def cycle_count(p: Partition) -> Fraction:
    """Number of permutations of S_k with cycle type p.

    a(pi) = k! / prod_l (pi_l! * l^pi_l).  Always an exact positive integer
    (returned as a Fraction with denominator 1).
    """
    k = p.total
    denom = 1
    for l, m in enumerate(p.multiplicities, start=1):
        denom *= math.factorial(m) * l**m
    return Fr(math.factorial(k), denom)


# ---------------------------------------------------------------------------
# formal power series over the rationals
# ---------------------------------------------------------------------------

class _SeriesFields(NamedTuple):
    coefficients: Tuple[Fraction, ...]
    order: int


class RationalPowerSeries(_SeriesFields):
    """Truncated power series with exact rational coefficients.

    ``coefficients[i]`` is the coefficient of z^i, for 0 <= i <= order.
    Arithmetic is exact through the truncation order.
    """

    __slots__ = ()

    def __new__(cls, coefficients: Tuple[Fraction, ...], order: int) -> "RationalPowerSeries":
        if order < 0:
            raise ValueError("RationalPowerSeries: order must be non-negative")
        if len(coefficients) != order + 1:
            raise ValueError("RationalPowerSeries: need exactly order+1 coefficients")
        return super().__new__(cls, coefficients, order)

    def coefficient(self, i: int) -> Fraction:
        """Coefficient of z^i (0 beyond the truncation order)."""
        if i < 0:
            raise ValueError("coefficient index must be non-negative")
        return self.coefficients[i] if i <= self.order else Fr(0)

    def __mul__(self, other: "RationalPowerSeries") -> "RationalPowerSeries":
        order = min(self.order, other.order)
        a, b = self.coefficients, other.coefficients
        out = [Fr(0)] * (order + 1)
        for i, ai in enumerate(a[: order + 1]):
            if not ai:
                continue
            for j in range(order + 1 - i):
                bj = b[j]
                if bj:
                    out[i + j] += ai * bj
        return RationalPowerSeries(tuple(out), order)


def fps_arcsin(order: int) -> RationalPowerSeries:
    """Series of 2*arcsin(z/2) truncated at `order`.

    The coefficient of z^(2n+1) is C(2n, n) / (16^n * (2n+1)); even-index
    coefficients vanish.
    """
    if order < 1:
        raise ValueError(f"fps_arcsin: order must be >= 1, got {order}")
    coeffs = [Fr(0)] * (order + 1)
    n = 0
    while 2 * n + 1 <= order:
        coeffs[2 * n + 1] = Fr(math.comb(2 * n, n), 16**n * (2 * n + 1))
        n += 1
    return RationalPowerSeries(tuple(coeffs), order)
