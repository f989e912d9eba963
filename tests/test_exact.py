"""Exact-arithmetic layer: independent oracles for every table/constant.

Each generator here (Akiyama-Tanigawa, secant-series inversion, pentagonal
recurrence) is a genuinely different algorithm from the
one implemented in the package, so agreement is meaningful.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction as Fr

import pytest

from cotmoments.exact import (
    Partition,
    RationalPowerSeries,
    bernoulli,
    cycle_count,
    double_factorial_odd,
    euler_zigzag,
    fps_arcsin,
    partitions,
)


# ---------------------------------------------------------------------------
# Bernoulli numbers: Akiyama-Tanigawa oracle
# ---------------------------------------------------------------------------

def _bernoulli_akiyama_tanigawa(count):
    """First `count` Bernoulli numbers via the Akiyama-Tanigawa transform.

    The transform natively produces the B_1 = +1/2 convention; the defining
    recurrence used by the package gives B_1 = -1/2, so flip that one entry.
    """
    out = []
    a = []
    for m in range(count):
        a.append(Fr(1, m + 1))
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    if count > 1:
        out[1] = -out[1]
    return out


def test_bernoulli_matches_akiyama_tanigawa():
    want = _bernoulli_akiyama_tanigawa(25)
    for n, w in enumerate(want):
        assert bernoulli(n) == w


def test_bernoulli_known_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fr(-1, 2)
    assert bernoulli(2) == Fr(1, 6)
    assert bernoulli(4) == Fr(-1, 30)
    assert bernoulli(12) == Fr(-691, 2730)
    for n in range(3, 25, 2):
        assert bernoulli(n) == 0


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        bernoulli(-1)


# ---------------------------------------------------------------------------
# zigzag (secant) numbers: series-inversion oracle
# ---------------------------------------------------------------------------

def _series(coeffs, order=None):
    """A truncated series from its leading coefficients, zero-padded (or
    cut) to `order`, which defaults to the last given index."""
    cs = [Fr(c) for c in coeffs]
    order = len(cs) - 1 if order is None else order
    cs += [Fr(0)] * (order + 1 - len(cs))
    return RationalPowerSeries(tuple(cs[: order + 1]), order)


def _reciprocal(s):
    """Multiplicative inverse 1/S of a truncated series through its order,
    by the term-by-term inversion recurrence; needs a nonzero constant."""
    c0 = s.coefficients[0]
    if not c0:
        raise ValueError("reciprocal: constant term must be nonzero")
    out = [1 / c0] + [Fr(0)] * s.order
    for n in range(1, s.order + 1):
        acc = sum((s.coefficients[i] * out[n - i] for i in range(1, n + 1)), Fr(0))
        out[n] = -acc / c0
    return RationalPowerSeries(tuple(out), s.order)


def _secant_numbers_by_inversion(nmax):
    """E*_{2n} = (2n)! [x^{2n}] 1/cos(x), via exact series reciprocal."""
    order = 2 * nmax
    cos_coeffs = [Fr(0)] * (order + 1)
    for j in range(0, order + 1, 2):
        cos_coeffs[j] = Fr((-1) ** (j // 2), math.factorial(j))
    sec = _reciprocal(_series(cos_coeffs))
    return [sec.coefficient(2 * n) * math.factorial(2 * n) for n in range(nmax + 1)]


def test_euler_zigzag_matches_secant_inversion():
    want = _secant_numbers_by_inversion(10)
    for n, w in enumerate(want):
        assert euler_zigzag(2 * n) == w


def test_euler_zigzag_frozen_values():
    # 1, 1, 5, 61, 1385, 50521, 2702765, 199360981
    assert [int(euler_zigzag(2 * n)) for n in range(8)] == [
        1, 1, 5, 61, 1385, 50521, 2702765, 199360981]


def test_euler_zigzag_rejects_odd_index():
    with pytest.raises(ValueError):
        euler_zigzag(3)


# ---------------------------------------------------------------------------
# double factorial
# ---------------------------------------------------------------------------

def test_double_factorial_odd():
    assert [double_factorial_odd(n) for n in range(6)] == [1, 1, 3, 15, 105, 945]
    for n in range(1, 20):
        # (2n-1)!! = (2n)! / (2^n n!)
        assert double_factorial_odd(n) * 2**n * math.factorial(n) == math.factorial(2 * n)


# ---------------------------------------------------------------------------
# partitions: pentagonal-number recurrence oracle
# ---------------------------------------------------------------------------

def _partition_counts_pentagonal(kmax):
    """p(0..kmax) by Euler's pentagonal-number recurrence."""
    p = [1] + [0] * kmax
    for n in range(1, kmax + 1):
        total = 0
        j = 1
        while True:
            g1 = j * (3 * j - 1) // 2
            g2 = j * (3 * j + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if j % 2 == 0 else 1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            j += 1
        p[n] = total
    return p


def test_partition_counts_match_pentagonal_recurrence():
    counts = _partition_counts_pentagonal(30)
    for k in range(1, 31):
        assert len(partitions(k)) == counts[k]


def _parts(p):
    """A partition's parts in decreasing order, e.g. (2, 1, 1)."""
    return tuple(l for l in range(len(p.multiplicities), 0, -1)
                 for _ in range(p.multiplicities[l - 1]))


def test_partitions_order_and_contents():
    parts = [_parts(p) for p in partitions(4)]
    assert parts == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    for k in (1, 5, 9):
        seen = set()
        for p in partitions(k):
            assert p.total == k
            assert sum(p.multiplicities) == len(_parts(p))
            assert _parts(p) not in seen
            seen.add(_parts(p))


def test_partitions_rejects_nonpositive():
    with pytest.raises(ValueError):
        partitions(0)


def test_partition_multiplicity_invariants():
    with pytest.raises(ValueError):
        Partition((1, 0))  # trailing zero
    with pytest.raises(ValueError):
        Partition.from_parts([2, 0])
    p = Partition.from_parts([3, 1, 1])
    assert p.multiplicities == (2, 0, 1)
    assert p.total == 5 and sum(p.multiplicities) == 3


# ---------------------------------------------------------------------------
# cycle counts: sum over cycle types is k!
# ---------------------------------------------------------------------------

def test_cycle_counts_sum_to_factorial():
    for k in range(1, 13):
        total = sum(cycle_count(p) for p in partitions(k))
        assert total == math.factorial(k)


def test_cycle_counts_are_positive_integers():
    for k in range(1, 10):
        for p in partitions(k):
            c = cycle_count(p)
            assert c.denominator == 1 and c > 0


def test_cycle_count_k3_by_hand():
    by_parts = {_parts(p): int(cycle_count(p)) for p in partitions(3)}
    # one 3-cycle type (2 perms), transposition type (3), identity (1)
    assert by_parts == {(3,): 2, (2, 1): 3, (1, 1, 1): 1}


# ---------------------------------------------------------------------------
# rational power series
# ---------------------------------------------------------------------------

def _random_series(rng, order, nonzero_const=False):
    coeffs = [Fr(rng.randrange(-9, 10), rng.randrange(1, 10)) for _ in range(order + 1)]
    if nonzero_const and coeffs[0] == 0:
        coeffs[0] = Fr(1, 3)
    return _series(coeffs, order)


def test_fps_ring_properties_random():
    rng = random.Random(4201)
    for _ in range(40):
        order = rng.randrange(1, 12)
        a = _random_series(rng, order)
        b = _random_series(rng, order)
        c = _random_series(rng, order)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_fps_reciprocal_is_inverse():
    rng = random.Random(77)
    one = _series([1], 8)
    for _ in range(25):
        s = _random_series(rng, 8, nonzero_const=True)
        prod = s * _reciprocal(s)
        assert prod == _series([1], 8)
    assert _reciprocal(one) == one


def test_fps_reciprocal_rejects_zero_constant():
    s = _series([0, 1], 4)
    with pytest.raises(ValueError):
        _reciprocal(s)


def test_fps_coefficient_access():
    s = _series([1, 2], 5)
    assert s.coefficient(1) == 2
    assert s.coefficient(5) == 0
    assert s.coefficient(17) == 0  # beyond order
    with pytest.raises(ValueError):
        s.coefficient(-1)


def test_fps_arcsin_leading_coefficients():
    s = fps_arcsin(9)
    assert s.coefficient(0) == 0
    assert s.coefficient(1) == 1
    assert s.coefficient(2) == 0
    assert s.coefficient(3) == Fr(1, 24)       # C(2,1)/(16*3)
    assert s.coefficient(5) == Fr(3, 640)      # C(4,2)/(16^2*5)
    assert s.coefficient(7) == Fr(5, 7168)     # C(6,3)/(16^3*7)


def test_fps_arcsin_numeric_evaluation():
    """Evaluate the truncated series at z = 1/2 against 2*asin(1/4)."""
    s = fps_arcsin(25)
    z = 0.5
    val = sum(float(c) * z**i for i, c in enumerate(s.coefficients))
    assert abs(val - 2.0 * math.asin(z / 2)) < 1e-14
