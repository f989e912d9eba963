"""Tail-sum families, closed forms, and the kernels.

Closed forms are pinned against independently computed targets (mpmath
constants combined by hand); truncated sums must land inside their own
rigorous error bounds; the kernels must agree between their series and
integral evaluations.
"""

from __future__ import annotations

import os
import threading
from fractions import Fraction as Fr

import pytest
from mpmath import mp, mpf

from cotmoments import hpreal, series
from cotmoments.hpreal import _working, eta, fixed_point_bits, log2, pi
from cotmoments.moments import _suite_closed_forms
from cotmoments.series import (
    a0,
    a0_via_recurrence,
    a1,
    a1_via_recurrence,
    euler_binomial_vanishing,
    kernel_k0,
    kernel_k1,
    nested_tail_sums,
    r_even,
    r_odd,
    r_truncated_nested,
    r_via_partitions,
    s_even,
    s_odd,
)

from reference_kernels import _reference_k0, _reference_k1
from sweep_log import _log_sweeps


# ---------------------------------------------------------------------------
# closed forms: frozen low-order values
# ---------------------------------------------------------------------------

def test_r_odd_low_orders():
    with mp.workdps(60):
        p = pi(55)
        assert abs(r_odd(1, 50).value - p**2 / 8) < mpf(10) ** -45
        assert abs(r_odd(2, 50).value - 5 * p**4 / 384) < mpf(10) ** -45
        assert abs(r_odd(3, 50).value - 61 * p**6 / 46080) < mpf(10) ** -44


def test_r_even_low_orders():
    with mp.workdps(60):
        p = pi(55)
        assert abs(r_even(1, 50).value - p**2 / 6) < mpf(10) ** -45
        assert abs(r_even(2, 50).value - 7 * p**4 / 360) < mpf(10) ** -45
        assert abs(r_even(3, 50).value - 31 * p**6 / 15120) < mpf(10) ** -44


def test_r_rejects_bad_arguments():
    with pytest.raises(ValueError):
        r_odd(0, 30)
    with pytest.raises(ValueError):
        r_even(-1, 30)
    with pytest.raises(ValueError):
        r_via_partitions(1, "sideways", 30)


# ---------------------------------------------------------------------------
# partition-sum route
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,closed", [("odd", r_odd), ("even", r_even)])
def test_partition_route_matches_closed_form(kind, closed):
    with mp.workdps(60):
        for k in range(1, 7):
            gap = abs(closed(k, 50).value - r_via_partitions(k, kind, 50).value)
            assert gap < mpf(10) ** -40, (kind, k)


# ---------------------------------------------------------------------------
# a-coefficients: closed forms vs alternating recurrence
# ---------------------------------------------------------------------------

def test_a1_closed_form_values():
    with mp.workdps(50):
        p = pi(45)
        assert abs(a1(0, 40).value - 1) == 0
        assert abs(a1(1, 40).value - p**2 / 8) < mpf(10) ** -35
        assert abs(a1(2, 40).value - p**4 / 384) < mpf(10) ** -35


def test_a0_closed_form_values():
    with mp.workdps(50):
        p = pi(45)
        assert abs(a0(0, 40).value - 1) == 0
        assert abs(a0(1, 40).value - p**2 / 6) < mpf(10) ** -35
        assert abs(a0(2, 40).value - p**4 / 120) < mpf(10) ** -35


def test_a_recurrences_match_closed_forms():
    with mp.workdps(60):
        for k in range(0, 9):
            assert abs(a1(k, 50).value - a1_via_recurrence(k, 50).value) < mpf(10) ** -40
            assert abs(a0(k, 50).value - a0_via_recurrence(k, 50).value) < mpf(10) ** -40


def test_a0_one_against_brute_sum():
    """a0(1) = sum 1/n^2; brute float partial sum plus integral tail."""
    N = 100000
    brute = sum(1.0 / n**2 for n in range(1, N + 1)) + 1.0 / N
    assert abs(float(a0(1, 30).value) - brute) < 1e-9


def test_euler_binomial_vanishing_is_exact_zero():
    for k in range(1, 11):
        v = euler_binomial_vanishing(k)
        assert isinstance(v, int)
        assert v == 0
    with pytest.raises(ValueError):
        euler_binomial_vanishing(0)


# ---------------------------------------------------------------------------
# truncated nested sums with rigorous bounds
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,closed", [("odd", r_odd), ("even", r_even)])
def test_truncated_nested_within_bound(kind, closed):
    with mp.workdps(45):
        for k in (1, 2, 3):
            t = r_truncated_nested(k, kind, 35, N=2000)
            assert t.error_bound > 0
            gap = abs(t.value - closed(k, 35).value)
            assert gap <= t.error_bound, (kind, k)


def test_truncated_nested_bound_shrinks_with_n():
    with mp.workdps(40):
        loose = r_truncated_nested(2, "odd", 30, N=500)
        tight = r_truncated_nested(2, "odd", 30, N=5000)
        assert tight.error_bound < loose.error_bound
        # partial sums of positive terms increase toward the limit
        assert loose.value < tight.value < r_odd(2, 30).value


@pytest.mark.parametrize("kind,j0", [("odd", 0), ("even", 1)])
def test_truncated_nested_reads_the_sweep(kind, j0):
    for k in (1, 2, 3):
        table, _ = nested_tail_sums(kind, k, j0, 3000, 30)
        assert r_truncated_nested(k, kind, 30, N=3000).value == table[j0][k], k


def _exact_nested_sum(k, kind, N):
    """The k-fold weakly-increasing sum over j0 <= i <= N, as a Fraction."""
    a, c, j0 = (2, 1, 0) if kind == "odd" else (1, 0, 1)
    V = [Fr(1)] + [Fr(0)] * k
    for i in range(j0, N + 1):
        w = Fr(1, (a * i + c) ** 2)
        for d in range(1, k + 1):
            V[d] += w * V[d - 1]
    return V[k]


@pytest.mark.parametrize("kind,closed", [("odd", r_odd), ("even", r_even)])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_truncated_nested_small_n(kind, closed, N):
    P = 30
    for k in (1, 2, 3):
        t = r_truncated_nested(k, kind, P, N=N)
        exact = _exact_nested_sum(k, kind, N)
        with mp.workdps(80):
            # the sweep's allowance, plus the value's rounding to P + 10 digits
            slack = (2 ** (k + 2) * (N + 1) * mpf(2) ** -fixed_point_bits(P)
                     + t.value * mpf(10) ** -(P + 9))
            assert abs(t.value - mpf(exact.numerator) / exact.denominator) <= slack
            assert abs(t.value - closed(k, P).value) <= t.error_bound, (kind, k, N)


def _count_sweeps(monkeypatch, name):
    """Route series.<name> through a counter on an empty store; returns its calls."""
    calls = []
    sweep = getattr(series, name)

    def counted(*args):
        calls.append(args)
        return sweep(*args)

    monkeypatch.setattr(hpreal, "_values", {})
    monkeypatch.setattr(series, name, counted)
    return calls


def test_closed_forms_suite_costs_one_sweep_per_kind(monkeypatch):
    # its R values read the tails only: one tails sweep per kind, no sums
    tail_calls = _count_sweeps(monkeypatch, "_tails_sweep")
    sum_calls = _count_sweeps(monkeypatch, "_sums_sweep")
    _suite_closed_forms(30, 10000, None)
    assert len(tail_calls) == 2
    assert sum_calls == []


# ---------------------------------------------------------------------------
# S families
# ---------------------------------------------------------------------------

def _s_odd_targets(P):
    with mp.workdps(P + 10):
        p, l2 = pi(P + 5), log2(P + 5)
        return [p / 2 * l2, p**3 / 24 * l2 + p / 8 * eta(3, P + 5)]


def _s_even_targets(P):
    with mp.workdps(P + 10):
        p, l2 = pi(P + 5), log2(P + 5)
        return [
            p**2 / 2 * l2 - mpf(7) / 3 * eta(3, P + 5),
            p**4 / 24 * l2 + p**2 / 9 * eta(3, P + 5) - mpf(31) / 15 * eta(5, P + 5),
        ]


def test_s_odd_within_bounds():
    targets = _s_odd_targets(40)
    with mp.workdps(50):
        for l, target in enumerate(targets):
            v = s_odd(l, 40, N=20000)
            assert (v.name, v.index) == ("S_odd", l)
            assert abs(v.value - target) <= v.error_bound, l


def test_s_even_within_bounds():
    targets = _s_even_targets(40)
    with mp.workdps(50):
        for l, target in enumerate(targets):
            v = s_even(l, 40, N=20000)
            assert (v.name, v.index) == ("S_even", l)
            assert abs(v.value - target) <= v.error_bound, l


def test_s_bound_shrinks_with_n():
    with mp.workdps(40):
        loose = s_odd(1, 30, N=1000)
        tight = s_odd(1, 30, N=16000)
        assert tight.error_bound < loose.error_bound
        target = _s_odd_targets(30)[1]
        assert abs(tight.value - target) < abs(loose.value - target)


def test_s_values_deterministic_and_threadsafe():
    results = []

    def work():
        results.append(s_odd(1, 30, N=4000).value)

    threads = [threading.Thread(target=work) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(map(str, results))) == 1
    assert s_odd(1, 30, N=4000).value == results[0]


def test_mixed_precision_threads_return_serial_values():
    # mpmath's precision is process-global; the uncached kernel shows a
    # thread that computes under another thread's precision
    reference = {P: kernel_k1("0.5", P, method="series") for P in (15, 60)}
    wrong = []

    def work(P):
        for _ in range(30):
            value = kernel_k1("0.5", P, method="series")
            if value != reference[P]:
                wrong.append((P, value))

    threads = [threading.Thread(target=work, args=(P,)) for P in (15, 60, 15, 60)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert wrong == []


def test_rising_depths_cost_one_sweep(monkeypatch, tmp_path):
    # the miss at depth 0 sweeps odd to depth 2 here and even beside it, in
    # a child; depths 1 and 2 then hit
    calls = _log_sweeps(monkeypatch, series, "_sums_sweep", tmp_path / "sums")
    for l in range(3):
        s_odd(l, 30, N=4000)
    here, child = os.getpid(), calls()[-1][0]
    assert child != here
    assert calls() == [[here, "odd", 2], [child, "even", 2]]


def test_s_rejects_bad_arguments():
    with pytest.raises(ValueError):
        s_odd(-1, 30)
    with pytest.raises(ValueError):
        s_odd(0, 5)


# ---------------------------------------------------------------------------
# tail tables
# ---------------------------------------------------------------------------

def test_tail_sums_odd_structure():
    table, bounds = nested_tail_sums("odd", 2, 5, 20000, 30)
    assert set(table) == set(range(6))
    assert len(bounds) == 3
    with mp.workdps(40):
        # depth 0 tail is identically 1
        for j in range(6):
            assert table[j][0] == 1
        # depth 1 tail at j = 0 is the full sum pi^2/8
        assert abs(table[0][1] - pi(35) ** 2 / 8) <= bounds[1]
        # tails decrease in j
        assert table[0][1] > table[3][1] > table[5][1]


def test_tail_sums_even_structure():
    table, bounds = nested_tail_sums("even", 2, 5, 20000, 30)
    assert set(table) == set(range(1, 6))
    with mp.workdps(40):
        assert abs(table[1][1] - pi(35) ** 2 / 6) <= bounds[1]
        assert table[1][2] > table[4][2]


def test_tail_sums_validation():
    with pytest.raises(ValueError):
        nested_tail_sums("odd", 2, 30, 100000, 30)  # jmax too large
    with pytest.raises(ValueError):
        nested_tail_sums("odd", 2, 10, 5, 30)  # N must exceed jmax


@pytest.mark.parametrize("kind", ["odd", "even"])
def test_tail_sums_allowance_covers_the_proved_rounding(kind):
    # r_truncated_nested proves the swept T_d low by at most
    # (2^d - 1)(N+1) 2^-fbits; the allowance must still cover the larger
    # (2^(d+1) - 3), the constant of a step that floored twice
    P, N, dmax = 30, 50, 2
    _, bounds = nested_tail_sums(kind, dmax, 3, N, P)
    with mp.workdps(80):
        inner = pi(80) ** 2 / (8 if kind == "odd" else 6)
        w_tail = mpf(1) / ((4 if kind == "odd" else 1) * N)
        unit = (N + 1) * mpf(2) ** -fixed_point_bits(P)
        for d in range(1, dmax + 1):
            allowance = bounds[d] - d * inner ** (d - 1) * w_tail
            assert allowance >= (2 ** (d + 1) - 3) * unit, d


def test_fixed_point_bits_floor():
    assert fixed_point_bits(10) == 140
    assert fixed_point_bits(50) >= 50 * 3.32
    assert fixed_point_bits(100) > fixed_point_bits(50)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def test_kernel_values_at_endpoints():
    with mp.workdps(50):
        assert kernel_k1(mpf(0), 40) == 1
        assert kernel_k0(mpf(0), 40) == 0
        assert abs(kernel_k1(mpf(1), 40) - pi(45) / 2 * log2(45)) < mpf(10) ** -30
        # K0(1) equals the second cotangent moment
        target = pi(45) ** 2 / 2 * log2(45) - mpf(7) / 3 * eta(3, 45)
        assert abs(kernel_k0(mpf(1), 40) - target) < mpf(10) ** -30


@pytest.mark.parametrize("z", ["0.125", "0.25", "0.5", "0.75", "0.9"])
def test_kernel_series_integral_agreement(z):
    P = 35
    with mp.workdps(45):
        zz = mpf(z)
        assert abs(kernel_k1(zz, P, method="series")
                   - kernel_k1(zz, P, method="integral")) < mpf(10) ** -25
        assert abs(kernel_k0(zz, P, method="series")
                   - kernel_k0(zz, P, method="integral")) < mpf(10) ** -25


@pytest.mark.parametrize("z", ["1e-10", "1e-20"])
def test_kernel_k1_integral_meets_its_tolerance_at_a_tiny_z(z):
    # the integral is divided by z, so it must be held to tol z
    P = 30
    with mp.workdps(60):
        gap = abs(kernel_k1(z, P, method="integral") - kernel_k1(z, P, method="series"))
        assert gap <= mpf(10) ** -(P - 10)


@pytest.mark.parametrize("z", ["1e-10", "1e-20"])
def test_kernel_k0_integral_meets_its_tolerance_at_a_tiny_z(z):
    # K0(z) = z + O(z^2), so it must be held to tol z, like K1
    P = 30
    with mp.workdps(60):
        gap = abs(kernel_k0(z, P, method="integral") - kernel_k0(z, P, method="series"))
        assert gap <= mpf(10) ** -(P - 10) * mpf(z)


@pytest.mark.parametrize("P", [10, 40, 300])
def test_kernel_series_match_the_twin_loop_references(P):
    # at P = 10, z = 1e-16 ends K0's sum after its second term, the earliest
    for z in ("1e-16", "0.01", "0.25", "0.5", "0.75", "0.9"):
        with _working(P):
            k1 = +_reference_k1(mpf(z), P)
            k0 = +_reference_k0(mpf(z), P)
        assert kernel_k1(z, P, method="series")._mpf_ == k1._mpf_, z
        assert kernel_k0(z, P, method="series")._mpf_ == k0._mpf_, z


def test_kernel_auto_matches_explicit_methods():
    with mp.workdps(40):
        lo, hi = mpf("0.3"), mpf("0.95")
        assert kernel_k1(lo, 30) == kernel_k1(lo, 30, method="series")
        assert abs(kernel_k1(hi, 30) - kernel_k1(hi, 30, method="integral")) == 0


def test_kernel_k1_monotone_in_z():
    with mp.workdps(40):
        vals = [kernel_k1(mpf(z) / 10, 30) for z in range(0, 11)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_kernel_domain_errors():
    with pytest.raises(ValueError):
        kernel_k1(mpf("-0.1"), 30)
    with pytest.raises(ValueError):
        kernel_k0(mpf("1.5"), 30)
    with pytest.raises(ValueError):
        kernel_k1(mpf("0.95"), 30, method="series")  # series cap is 0.9
    with pytest.raises(ValueError):
        kernel_k0(mpf("0.5"), 30, method="sorcery")
