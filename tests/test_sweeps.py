"""The fixed-point sweeps against their per-j reference loops.

``moments._cfn_sweep``, ``series._sums_sweep`` and ``series._tails_sweep``
must return the same integers as the loops in ``reference_sweeps``, at
every depth, and hold only a block of their columns at a time.  Every
value they return must also stay inside its fixed-point allowance, and the
cfn sums for small N inside theirs of the exact ``Fraction`` sums.
"""

from __future__ import annotations

import sys
import tracemalloc
from fractions import Fraction as Fr
from itertools import accumulate
from math import comb

import pytest

from cotmoments import hpreal, moments, series

from reference_cfn import _reference_h0, _reference_h1
from reference_sweeps import (_reference_cfn_sweep, _reference_sums_sweep,
                              _reference_tails_sweep)

_BLOCK_BITS = 1 << 17  # a sweep block holds _BLOCK_BITS // fbits values of j

_SWEEPS = [("cfn", 1), ("cfn", 0), ("S", "odd"), ("S", "even")]


def _grid_n(fbits):
    """Small N, one block length B and its neighbours, and several blocks."""
    B = _BLOCK_BITS // fbits
    return (1, 2, 3, B - 1, B, B + 1, 3 * B + 7)


@pytest.mark.parametrize("fbits", [140, 206, 1036])
@pytest.mark.parametrize("route,family", _SWEEPS)
def test_sweeps_match_the_per_j_references(route, family, fbits):
    for N in _grid_n(fbits):
        for depth in range(7):
            if route == "cfn":
                got = moments._cfn_sweep(family, depth, N, fbits)
                want = _reference_cfn_sweep(family, depth, N, fbits)
            else:  # the S family's forward sums and backward tails
                got = (series._sums_sweep(family, depth, N, fbits),
                       series._tails_sweep(family, depth, N, fbits))
                want = (_reference_sums_sweep(family, depth, N, fbits),
                        _reference_tails_sweep(family, depth, N, fbits))
            assert got == want, (route, family, depth, N, fbits)


def test_sweeps_share_the_block_rule_of_the_grid():
    # the grid above crosses block edges only while the rule is the same
    assert hpreal._SWEEP_BLOCK_BITS == _BLOCK_BITS


@pytest.mark.parametrize("route,family,depth",[("cfn", 1, 3), ("S", "odd", 2)])
def test_sweep_peak_memory_stays_below_one_column(route, family, depth):
    N, fbits = 50000, 206
    column = N * (sys.getsizeof(1 << fbits) + 8)  # one N-long list of fbits-bit ints
    sweep = moments._cfn_sweep if route == "cfn" else series._sums_sweep
    tracemalloc.start()
    try:
        sweep(family, depth, N, fbits)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < column // 4, (peak, column)


def _sweep_values(route, family, depth, N, fbits):
    """[(depth, value)] of one sweep: the cfn sums, the S sums, or every
    recorded suffix tail."""
    if route == "cfn":
        return list(enumerate(moments._cfn_sweep(family, depth, N, fbits)[0]))
    if route == "S":
        return list(enumerate(series._sums_sweep(family, depth, N, fbits)[0]))
    tails = series._tails_sweep(family, depth, N, fbits)
    return [pair for j in sorted(tails) for pair in enumerate(tails[j])]


# each value's fixed-point allowance in units of (N + 1) ulps: the cfn and S
# bounds add (depth + 3); the tails are held to the 2^d - 1 that
# series.r_truncated_nested proves, which is 0 for the exact T_0 = 1
_ALLOWANCE = {
    "cfn": lambda k: k + 3,
    "S": lambda l: l + 3,
    "T": lambda d: 2 ** d - 1,
}


def _assert_inside_allowance(route, family, depth, N, fbits):
    # the same sweep with 200 more bits, shifted down, stands for the exact
    # truncated values
    extra = 200
    got = _sweep_values(route, family, depth, N, fbits)
    fine = _sweep_values(route, family, depth, N, fbits + extra)
    assert len(got) == len(fine)
    for (d, value), (_, exact) in zip(got, fine):
        assert abs((exact >> extra) - value) <= _ALLOWANCE[route](d) * (N + 1), (d, value)


@pytest.mark.parametrize("fbits", [140, 1036])
@pytest.mark.parametrize("route,family", _SWEEPS + [("T", "odd"), ("T", "even")])
def test_sweeps_stay_inside_their_fixed_point_allowance(route, family, fbits):
    _assert_inside_allowance(route, family, 6, 20000, fbits)


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("parity", [1, 0])
def test_cfn_sweep_stays_inside_its_allowance_at_block_edges(parity, offset):
    # the cfn sweep floors its products once per block, so its error depends
    # on where the blocks end: N = B - 1, B, B + 1 for a block length B
    fbits = 206
    _assert_inside_allowance("cfn", parity, 6, _BLOCK_BITS // fbits + offset, fbits)


def _exact_cfn_sums(parity, kmax, nmax, fbits):
    """[[floor(2^fbits S_k(N)) for N in 0..nmax] for k in 0..kmax], where
    S_k(N) is the cfn series for m = 2k + parity truncated after j = N, in
    Fractions from the exact H-triangles."""
    rows = (_reference_h1 if parity else _reference_h0)(kmax, nmax)
    if parity:  # sum_{j>=0} C(2j,j)/4^j H1(k,j) / (2j+1)^2
        outer = [Fr(comb(2 * j, j), 4 ** j * (2 * j + 1) ** 2) for j in range(nmax + 1)]
    else:       # sum_{j>=1} 4^j/C(2j,j) H0(k,j) / (2 j^3)
        outer = [Fr(0)] + [Fr(4 ** j, comb(2 * j, j) * 2 * j ** 3) for j in range(1, nmax + 1)]
    return [[x.numerator * 2 ** fbits // x.denominator
             for x in accumulate(t * h for t, h in zip(outer, row))] for row in rows]


@pytest.mark.parametrize("fbits", [140, 1036])
@pytest.mark.parametrize("parity", [1, 0])
def test_cfn_sweep_stays_inside_its_allowance_of_the_exact_sums(parity, fbits):
    # against the Fraction sums, so whatever the floors of the sweep
    depth_max, nmax = 6, 40
    exact = _exact_cfn_sums(parity, depth_max, nmax, fbits)
    for N in range(1, nmax + 1):
        for depth in range(depth_max + 1):
            sums, _ = moments._cfn_sweep(parity, depth, N, fbits)
            for k, value in enumerate(sums):
                assert abs(exact[k][N] - value) <= _ALLOWANCE["cfn"](k) * (N + 1), (k, N, depth)
