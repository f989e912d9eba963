"""Exact triangles: frozen values, closed boundary forms, brute-force
nested-sum oracles for the harmonic tables, and the two cross-table checks.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction as Fr
from itertools import combinations

import pytest

from cotmoments.cfn import (
    REFERENCE_VALUES,
    build_h0,
    build_h1,
    build_t0,
    build_t1,
    check_factorial_relation,
    check_generating_functions,
    check_reference_values,
    table_to_csv,
    table_to_json,
)
from cotmoments.exact import double_factorial_odd

from reference_cfn import _reference_h0, _reference_h1, _reference_t0, _reference_t1


# ---------------------------------------------------------------------------
# frozen values
# ---------------------------------------------------------------------------

def test_reference_tables_all_pass():
    rep = check_reference_values()
    assert rep.all_passed
    assert rep.pass_count == 36 + 36 + 24 + 24  # t0, t1 (6x6); h0, h1 (4x6)


def test_frozen_spot_values():
    t0 = build_t0(5, 5)
    t1 = build_t1(5, 5)
    h0 = build_h0(3, 5)
    h1 = build_h1(3, 5)
    assert t0[2, 5] == 820
    assert t0[1, 4] == 36
    assert t1[1, 3] == Fr(259, 16)
    assert t1[0, 5] == Fr(893025, 1024)
    assert h0[2, 3] == Fr(5, 4)
    assert h0[3, 3] == Fr(1, 4)
    assert h1[1, 5] == Fr(117469, 99225)
    assert h1[3, 3] == Fr(1, 225)


def test_vanishing_below_diagonal():
    t0 = build_t0(6, 8)
    t1 = build_t1(6, 8)
    for k in range(1, 7):
        for n in range(0, k):
            assert t0[k, n] == 0
            assert t1[k, n] == 0


# ---------------------------------------------------------------------------
# closed boundary forms
# ---------------------------------------------------------------------------

def test_t1_boundary_row_closed_form():
    """t1(0,n) = ((2n-1)!!)^2 / 4^n."""
    t1 = build_t1(0, 25)
    for n in range(26):
        assert t1[0, n] == Fr(double_factorial_odd(n) ** 2, 4**n)


def test_t0_first_row_is_squared_factorial():
    """t0(1,n) = ((n-1)!)^2 for n >= 1."""
    t0 = build_t0(1, 12)
    for n in range(1, 13):
        assert t0[1, n] == Fr(math.factorial(n - 1) ** 2)
    assert t0[0, 0] == 1 and t0[0, 1] == 0


def test_diagonal_is_one():
    t0 = build_t0(9, 9)
    t1 = build_t1(9, 9)
    for k in range(10):
        assert t0[k, k] == 1
        assert t1[k, k] == 1


# ---------------------------------------------------------------------------
# brute-force oracles for the harmonic tables
# ---------------------------------------------------------------------------

def _h1_brute(k: int, j: int) -> Fr:
    """Sum over strictly increasing chains 0 <= i_1 < ... < i_k < j of
    prod 1/(2i+1)^2; the empty chain (k = 0) contributes 1."""
    if k == 0:
        return Fr(1)
    total = Fr(0)
    for chain in combinations(range(j), k):
        term = Fr(1)
        for i in chain:
            term /= (2 * i + 1) ** 2
        total += term
    return total


def _h0_brute(k: int, j: int) -> Fr:
    """Integer-weight twin: chains 1 <= i_1 < ... < i_{k-1} < j of prod 1/i^2
    for k >= 1 (empty chain = 1 when j >= 1); H0(0,0) = 1 alone in row 0."""
    if k == 0:
        return Fr(1) if j == 0 else Fr(0)
    if j == 0:
        return Fr(0)
    if k == 1:
        return Fr(1)
    total = Fr(0)
    for chain in combinations(range(1, j), k - 1):
        term = Fr(1)
        for i in chain:
            term /= i**2
        total += term
    return total


def test_h1_matches_brute_force():
    h1 = build_h1(3, 8)
    for k in range(4):
        for j in range(9):
            assert h1[k, j] == _h1_brute(k, j), (k, j)


def test_h0_matches_brute_force():
    h0 = build_h0(3, 8)
    for k in range(4):
        for j in range(9):
            assert h0[k, j] == _h0_brute(k, j), (k, j)


@pytest.mark.parametrize("build,reference", [
    (build_t0, _reference_t0), (build_t1, _reference_t1),
    (build_h0, _reference_h0), (build_h1, _reference_h1)])
def test_builders_match_the_twin_loop_references(build, reference):
    # kmax = 0 and 1 stop inside H0's seed rows; nmax = kmax is the corner
    for kmax in range(13):
        for nmax in sorted({kmax, kmax + 1, 60}):
            table = build(kmax, nmax)
            rows = [list(table.row(k)) for k in range(kmax + 1)]
            assert rows == reference(kmax, nmax), (kmax, nmax)


# ---------------------------------------------------------------------------
# cross-table identities
# ---------------------------------------------------------------------------

def test_factorial_relation_wide():
    rep = check_factorial_relation(8, 16)
    assert rep.all_passed
    # t1 covers all 17 columns; the t0 relation divides by (n-1)!, so n >= 1
    assert rep.pass_count == 9 * 17 + 9 * 16


def test_factorial_relation_spot_values():
    """t1(1,2) = 4 C(4,2) 4!/16^2 * H1(1,2) worked by hand."""
    t1 = build_t1(1, 2)
    h1 = build_h1(1, 2)
    assert t1[1, 2] == Fr(4 * math.comb(4, 2) * math.factorial(4), 16**2) * h1[1, 2]
    t0 = build_t0(2, 3)
    h0 = build_h0(2, 3)
    assert t0[2, 3] == Fr(math.factorial(2) ** 2) * h0[2, 3]


def test_generating_function_identities():
    rep = check_generating_functions(4, 31)
    assert rep.all_passed
    # ids cover both parities up to n = 15
    ids = {c.id for c in rep.checks}
    assert "gf-even/k=4,n=15" in ids
    assert "gf-odd/k=4,n=15" in ids


def test_generating_functions_need_enough_order():
    with pytest.raises(ValueError):
        check_generating_functions(4, 6)


# ---------------------------------------------------------------------------
# serialization and bounds
# ---------------------------------------------------------------------------

def test_csv_row_format():
    t0 = build_t0(5, 5)
    lines = table_to_csv(t0).splitlines()
    assert lines[2] == "0,0,1,5,49,820"
    assert len(lines) == 6
    assert table_to_csv(build_t1(0, 0)) == "1"


def test_csv_rationals_as_fractions():
    h1 = build_h1(1, 5)
    lines = table_to_csv(h1).splitlines()
    assert lines[1].split(",")[5] == "117469/99225"


def test_json_roundtrip():
    t1 = build_t1(2, 4)
    payload = json.loads(table_to_json(t1))
    assert payload["kind"] == "t1"
    assert payload["kmax"] == 2 and payload["nmax"] == 4
    assert payload["values"][0][2] == "9/16"
    assert payload["values"][2][2] == "1"


def test_builders_reject_bad_bounds():
    for builder in (build_t0, build_t1, build_h0, build_h1):
        with pytest.raises(ValueError):
            builder(-1, 4)
        with pytest.raises(ValueError):
            builder(5, 4)  # kmax must not exceed nmax


def test_table_indexing_bounds():
    t0 = build_t0(3, 5)
    with pytest.raises(IndexError):
        t0[4, 0]
    with pytest.raises(IndexError):
        t0[0, 6]


def test_reference_value_strings_parse():
    for kind, rows in REFERENCE_VALUES.items():
        for row in rows:
            for cell in row:
                Fr(cell)  # every frozen entry is a valid exact rational
