"""The two fixed-point sweeps against their per-j reference loops.

``moments._cfn_sweep`` and ``series._sweep_family`` must return the same
integers as the loops in ``reference_sweeps``, at every depth, and hold
only a block of their columns at a time.
"""

from __future__ import annotations

import sys
import tracemalloc

import pytest

from cotmoments import moments, series

from reference_sweeps import _reference_cfn_sweep, _reference_sweep_family

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
            else:
                got = series._sweep_family(family, depth, N, fbits)
                want = _reference_sweep_family(family, depth, N, fbits)
            assert got == want, (route, family, depth, N, fbits)


def test_sweeps_share_the_block_rule_of_the_grid():
    # the grid above crosses block edges only while the rule is the same
    assert moments._CFN_BLOCK_BITS == series._SWEEP_BLOCK_BITS == _BLOCK_BITS


@pytest.mark.parametrize("route,family,depth",[("cfn", 1, 3), ("S", "odd", 2)])
def test_sweep_peak_memory_stays_below_one_column(route, family, depth):
    N, fbits = 50000, 206
    column = N * (sys.getsizeof(1 << fbits) + 8)  # one N-long list of fbits-bit ints
    sweep = moments._cfn_sweep if route == "cfn" else series._sweep_family
    tracemalloc.start()
    try:
        sweep(family, depth, N, fbits)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < column // 4, (peak, column)
