"""Tanh-sinh engine: analytic integrals, endpoint singularities, the moment
integrals against a float midpoint-rule oracle, and the failure paths.
"""

from __future__ import annotations

import ast
import math
import os
import pathlib
import signal
import subprocess
import sys
import threading
from functools import partial

import pytest
from mpmath import mp, mpf
from mpmath.libmp import round_nearest

import cotmoments
from cotmoments import hpreal, moments, quadrature, series
from cotmoments.hpreal import (_closed_form_tolerance, _working, _zeta_even_tolerance,
                               default_tolerance, eta, log2, pi)
from cotmoments.quadrature import (
    _WORK_GUARD,
    QuadratureError,
    QuadratureResult,
    _build_level,
    _level_size,
    _tanh_sinh,
    _truncation_range,
    integrate_1d,
    moment_quadrature,
)
from cotmoments.series import kernel_k0, kernel_k1

from reference_kernels import _reference_theta_kernels
from reference_quadrature import (
    _mpf_build_level,
    _reference_2d,
    _reference_abscissas,
    _reference_build_level,
    _reference_tanh_sinh,
)


def test_default_tolerance():
    with mp.workdps(60):
        assert default_tolerance(50) == mpf(10) ** -40
        assert default_tolerance(30) == mpf(10) ** -20


def test_closed_form_tolerances():
    with mp.workdps(60):
        assert _closed_form_tolerance(50) == mpf(10) ** -42
        assert _zeta_even_tolerance(50) == mpf(10) ** -45
    with mp.workdps(20):  # rounded at the caller's precision
        assert _closed_form_tolerance(30)._mpf_ == (mpf(10) ** -22)._mpf_
        assert _zeta_even_tolerance(30)._mpf_ == (mpf(10) ** -25)._mpf_


def test_default_tolerance_ignores_another_threads_scope():
    serial = default_tolerance(40)
    entered = threading.Event()
    release = threading.Event()
    seen = []

    def hold():
        with _working(200):
            entered.set()
            release.wait(10)

    def ask():
        seen.append(default_tolerance(40))

    holder = threading.Thread(target=hold)
    holder.start()
    try:
        assert entered.wait(10)
        asker = threading.Thread(target=ask)
        asker.start()
        # unlocked, the call finishes here, inside the other scope
        asker.join(0.3)
    finally:
        release.set()
    holder.join(10)
    asker.join(10)
    assert not holder.is_alive() and not asker.is_alive()
    assert seen == [serial]


# ---------------------------------------------------------------------------
# smooth integrands
# ---------------------------------------------------------------------------

def test_linear_integral():
    res = integrate_1d(lambda x, da, db: x, 0, 1, 30)
    with mp.workdps(40):
        assert abs(res.value - mpf(1) / 2) < mpf(10) ** -20
    assert isinstance(res, QuadratureResult)
    assert res.levels >= 2
    assert res.evaluations > 0


def test_an_integrand_may_return_an_int_or_a_float():
    # the engine sums _mpf_ tuples, and takes a plain number exactly, as
    # mpf arithmetic does
    one, half = mpf(1), mpf("0.5")
    assert (integrate_1d(lambda x, da, db: 1, 0, 2, 30)
            == integrate_1d(lambda x, da, db: one, 0, 2, 30))
    assert (integrate_1d(lambda x, da, db: 0.5, 0, 2, 30)
            == integrate_1d(lambda x, da, db: half, 0, 2, 30))


def test_cosine_integral_shifted_interval():
    res = integrate_1d(lambda x, da, db: mp.cos(x), 0, mp.pi / 2, 40)
    with mp.workdps(50):
        assert abs(res.value - 1) < mpf(10) ** -30


def test_high_power_peaked_at_the_endpoints():
    # integral_{-1}^1 x^200 dx = 2/201; the contributions near the centre are
    # all tiny, so the per-level tail cut must wait for the peak
    res = integrate_1d(lambda x, da, db: x ** 200, -1, 1, 30)
    with mp.workdps(40):
        assert abs(res.value - mpf(2) / 201) < mpf(10) ** -20


def test_gaussian_like_polynomial():
    # integral_0^1 (1 - x^2)^3 dx = 16/35
    res = integrate_1d(lambda x, da, db: (1 - x * x) ** 3, 0, 1, 35)
    with mp.workdps(45):
        assert abs(res.value - mpf(16) / 35) < mpf(10) ** -25


# ---------------------------------------------------------------------------
# endpoint singularities (the reason the engine exists)
# ---------------------------------------------------------------------------

def test_log_singularity_at_left_endpoint():
    # integral_0^1 -log x dx = 1; da is the exact distance to 0
    res = integrate_1d(lambda x, da, db: -mp.log(da), 0, 1, 40)
    with mp.workdps(50):
        assert abs(res.value - 1) < mpf(10) ** -30


def test_inverse_sqrt_singularity():
    # integral_0^1 x^(-1/2) dx = 2
    res = integrate_1d(lambda x, da, db: 1 / mp.sqrt(da), 0, 1, 40)
    with mp.workdps(50):
        assert abs(res.value - 2) < mpf(10) ** -30


def test_arcsine_weight_right_singularity():
    # integral_0^1 1/sqrt(1-x^2) dx = pi/2, with 1-x^2 = db*(1+x)
    res = integrate_1d(lambda x, da, db: 1 / mp.sqrt(db * (1 + x)), 0, 1, 40)
    with mp.workdps(50):
        assert abs(res.value - pi(45) / 2) < mpf(10) ** -30


def test_log_times_power():
    # integral_0^1 x^2 (-log x)^2 dx = 2/27
    res = integrate_1d(lambda x, da, db: da ** 2 * mp.log(da) ** 2, 0, 1, 40)
    with mp.workdps(50):
        assert abs(res.value - mpf(2) / 27) < mpf(10) ** -30


def test_log_weight_consequence_value():
    # integral_0^1 -log x / sqrt(1-x^2) dx = (pi/2) log 2
    def f(x, da, db):
        return -mp.log(da) / mp.sqrt(db * (1 + x))
    res = integrate_1d(f, 0, 1, 40)
    with mp.workdps(50):
        target = pi(45) / 2 * log2(45)
        assert abs(res.value - target) < mpf(10) ** -30


# ---------------------------------------------------------------------------
# moment integrals
# ---------------------------------------------------------------------------

def _midpoint_moment_oracle(m: int, steps: int) -> float:
    """Plain float midpoint rule for the m-th half-angle cotangent moment."""
    h = math.pi / steps
    total = 0.0
    for i in range(steps):
        x = (i + 0.5) * h
        total += x**m / (2 * math.factorial(m)) * (math.cos(x / 2) / math.sin(x / 2))
    return total * h


@pytest.mark.parametrize("m", [1, 2, 3])
def test_moment_against_float_midpoint_rule(m):
    oracle = _midpoint_moment_oracle(m, 4000)
    assert abs(float(moment_quadrature(m, 30)) - oracle) < 1e-6


def test_first_moment_closed_form():
    with mp.workdps(60):
        target = pi(55) * log2(55)
        assert abs(moment_quadrature(1, 50) - target) < mpf(10) ** -40


def test_second_moment_closed_form():
    with mp.workdps(60):
        target = pi(55) ** 2 / 2 * log2(55) - mpf(7) / 4 * (eta(3, 55) / (1 - mpf(2) ** -2))
        assert abs(moment_quadrature(2, 50) - target) < mpf(10) ** -40


def _arcsin_moment(m: int, P: int):
    """The m-th moment after v = 2 sin(x/2): the integral over [0, 2] of
    (2 asin(v/2))^m / (m! v).  Near v = 2 the arcsine is folded as
    pi - 4 asin(sqrt(db/4)) to keep full precision."""
    with mp.workdps(P + 15):
        fact = mp.factorial(m)

        def g(v, da, db):
            if v <= 1:
                theta = 2 * mp.asin(v / 2)
            else:
                theta = mp.pi - 4 * mp.asin(mp.sqrt(db / 4))
            return theta ** m / (fact * v)

        return integrate_1d(g, 0, 2, P).value


@pytest.mark.parametrize("m", [1, 2, 5, 8])
def test_cot_and_arcsin_forms_agree(m):
    """Two variable changes, disjoint node sets and special functions."""
    P = 35
    with mp.workdps(45):
        a = moment_quadrature(m, P)
        b = _arcsin_moment(m, P)
        assert abs(a - b) < 2 * default_tolerance(P)


@pytest.mark.parametrize("P", [150, 300])
@pytest.mark.parametrize("m", [1, 2, 9])
def test_moment_matches_the_eta_route_at_high_precision(m, P):
    value = moment_quadrature(m, P)
    closed = moments.c_eta_route(m, P).value
    with mp.workdps(P + 10):
        assert abs(value - closed) <= default_tolerance(P)


def test_moment_rejects_bad_arguments():
    with pytest.raises(ValueError):
        moment_quadrature(0, 30)
    with pytest.raises(ValueError):
        moment_quadrature(1, 5)
    # 2.5 would integrate x^2.5 cot(x/2), 2.0 would share the store key of
    # m = 2, and True that of m = 1
    for m in (2.5, 2.0, True):
        with pytest.raises(ValueError, match=rf"need an integer m >= 1, got m={m!r}"):
            moment_quadrature(m, 30)


@pytest.mark.parametrize("tol", [0, -1, "-1e-20", "inf", float("inf"), "nan"])
def test_integrals_refuse_a_tol_that_is_not_positive_and_finite(tol):
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        integrate_1d(lambda x, da, db: x, 0, 1, 30, tol)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        moment_quadrature(3, 30, tol)


# ---------------------------------------------------------------------------
# convergence diagnostics and failure paths
# ---------------------------------------------------------------------------

def test_deltas_shrink():
    res = integrate_1d(lambda x, da, db: mp.exp(x), 0, 1, 40)
    # deltas start at the first refinement, so one fewer than levels
    assert len(res.deltas) == res.levels - 1
    with mp.workdps(50):
        assert res.deltas[-1] <= default_tolerance(40)
        # geometric collapse once the rule sees the integrand
        assert res.deltas[-1] < res.deltas[1]


def test_error_estimate_is_conservative():
    res = integrate_1d(lambda x, da, db: mp.sin(x), 0, 1, 35)
    with mp.workdps(45):
        true = 1 - mp.cos(1)
        assert abs(res.value - true) <= res.error_estimate
        assert abs(res.value - true) <= default_tolerance(35)  # the contract


def test_level_cap_raises_with_context(monkeypatch):
    monkeypatch.setattr(quadrature, "_DEFAULT_LEVEL_CAP", 3)
    with pytest.raises(QuadratureError) as err:
        integrate_1d(lambda x, da, db: mp.exp(x), 0, 1, 40,
                     tol=mpf(10) ** -60)
    assert err.value.best is not None
    assert err.value.gap is not None
    assert err.value.levels == 4  # base level plus three refinements


def test_a_tol_below_the_working_resolution_raises():
    # the last level's delta rounded to exactly 0, and 0 <= tol reported the
    # tol as met: C(1) came back 3.77e-46 from pi log 2 with the bound
    # 1.0e-60, and C(2) 6.05e-46 from its value with the bound 1.0e-50
    for m, tol in ((1, "1e-60"), (2, "1e-50")):
        with pytest.raises(QuadratureError, match="that 45 working digits resolve") as err:
            moments.compute_moment(m, 30, "quad", tol=tol)
        assert err.value.best is not None and err.value.gap is not None
    # the rule already raised where the delta does not round to 0
    with pytest.raises(QuadratureError, match=r"no convergence to 1\.0e-60 .* 6\.13e-46"):
        integrate_1d(lambda x, da, db: x * x, 0, 1, 30, "1e-60")


def test_reversed_limits_raise():
    # over [1, 0] the endpoint distances would be negative and h*r < 0 would
    # keep the tail cut from firing: -log(da) came out as -1 + pi*i
    with pytest.raises(ValueError, match="need a <= b"):
        integrate_1d(lambda x, da, db: -mp.log(da), 1, 0, 30)
    with pytest.raises(ValueError, match="need a <= b"):
        integrate_1d(lambda x, da, db: x, 0, mp.nan, 30)
    # the finite substitution cannot map an infinite limit
    for a, b in ((0, mp.inf), (-mp.inf, 0)):
        with pytest.raises(ValueError, match="need a <= b, both finite"):
            integrate_1d(lambda x, da, db: mp.exp(-abs(x)), a, b, 30)
    assert integrate_1d(lambda x, da, db: x, 1, 1, 30).value == 0


def test_non_finite_integrand_raises():
    def bad(x, da, db):
        return mpf("nan")
    with pytest.raises(QuadratureError):
        integrate_1d(bad, 0, 1, 30)


def test_nan_from_one_pair_raises_at_its_level():
    # +inf at x_lo and -inf at x_hi of the first pair of level 1: the pair
    # sums to nan, which the level's finiteness check must still catch
    P = 30
    with _working(P, _WORK_GUARD):
        tmax_q4 = _truncation_range(P, default_tolerance(P))
        near = mp.make_mpf(_build_level(1, mpf(tmax_q4) / 4)[0][0]) / 2

    def f(x, da, db):
        if da == near:
            return mp.inf
        if db == near:
            return -mp.inf
        return mpf(1)

    with pytest.raises(QuadratureError, match="non-finite value at level 1"):
        integrate_1d(f, 0, 1, P)


def test_repeated_runs_are_deterministic():
    a = integrate_1d(lambda x, da, db: mp.sqrt(da), 0, 1, 30)
    b = integrate_1d(lambda x, da, db: mp.sqrt(da), 0, 1, 30)
    assert a.value == b.value
    assert a.evaluations == b.evaluations


# ---------------------------------------------------------------------------
# the node tables: one exponential per node against the sinh/cosh reference
# ---------------------------------------------------------------------------

def _mpf_pairs(nodes):
    """A level's (offset, weight) pairs of _mpf_ tuples as mpf pairs."""
    return [(mp.make_mpf(offset), mp.make_mpf(weight)) for offset, weight in nodes]


def _tmax(P):
    with _working(P, _WORK_GUARD):
        return mpf(_truncation_range(P, default_tolerance(P))) / 4


def test_node_counts_match_the_reference():
    # a level's node count depends only on tmax and the level, so a low
    # precision shows it for every level up to the cap; _level_size gives
    # it from the integers alone
    for P in (10, 30, 100, 300, 1000):
        tmax = _tmax(P)
        with mp.workdps(15):
            for level in range(13):
                expected = sum(1 for _ in _reference_abscissas(level, tmax))
                assert len(_build_level(level, tmax)) == expected, (P, level)
                assert _level_size(level, int(tmax * 4)) == expected, (P, level)


@pytest.mark.parametrize("P", [30, 100, 300])
def test_nodes_match_the_reference_within_a_few_ulps(P):
    # e = exp(-2u) turns a relative error in u into 2u times that in e, so
    # even a correctly rounded sinh t leaves (1 + 2u) ulps in the old
    # formulas; the reference runs 30 digits higher
    tmax = _tmax(P)
    with _working(P, _WORK_GUARD):
        prec = mp.prec
        for level in range(7):
            nodes = _mpf_pairs(_build_level(level, tmax))
            with mp.extradps(30):
                ts = list(_reference_abscissas(level, tmax))
                ref = _reference_build_level(level, tmax)
                assert len(nodes) == len(ref) == len(ts)
                for t, got, want in zip(ts, nodes, ref):
                    allowed = 4 * (1 + mp.pi * mp.sinh(t))
                    for g, w in zip(got, want):
                        ulp = mp.ldexp(1, mp.frexp(w)[1] - prec)
                        assert abs(g - w) <= allowed * ulp, (level, t)
            # each value carries the working precision, not the guard bits
            assert all((+g)._mpf_ == g._mpf_ for pair in nodes for g in pair)


@pytest.mark.parametrize("dps", [25, 45, 115, 315])
def test_nodes_equal_the_mpf_formulas_bit_for_bit(dps):
    # the libmp loop rounds each operation as mpf arithmetic does
    with mp.workdps(dps):
        for tmax_q4 in (12, 19, 26):
            tmax = mpf(tmax_q4) / 4
            for level in range(6):
                got = _build_level(level, tmax)
                want = [(o._mpf_, w._mpf_) for o, w in _mpf_build_level(level, tmax)]
                assert got == want, (tmax_q4, level)


def test_build_level_restores_the_precision():
    with mp.workdps(45):
        prec = mp.prec
        for level in (0, 1, 5):
            _build_level(level, mpf(4))
            assert mp.prec == prec


def _in_threads(work, precisions):
    """{i: work(P)} for the i-th of precisions, each in its own thread, all
    started at once and switching often."""
    results = {}

    def run(i, P):
        results[i] = work(P)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i, P))
                   for i, P in enumerate(precisions)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return results


def _recorded_forks(monkeypatch):
    """The name of the thread of every os.fork from now on; each still forks."""
    forks = []
    fork = os.fork

    def recorded():
        forks.append(threading.current_thread().name)
        return fork()

    monkeypatch.setattr(os, "fork", recorded)
    return forks


def _threads_at_mixed_precisions(monkeypatch, split_after):
    """Four threads at P = 30 and 120 on an empty node cache, with levels
    split after split_after seconds, give the results of serial runs that
    split no level, and fork no child."""
    def f(x, da, db):
        return mp.sqrt(da) * mp.log(1 + x)

    monkeypatch.setattr(quadrature, "_SPLIT_AFTER_S", _NEVER)
    serial = {P: integrate_1d(f, 0, 1, P) for P in (30, 120)}
    monkeypatch.setattr(quadrature, "_SPLIT_AFTER_S", split_after)
    monkeypatch.setattr(quadrature, "_NODE_CACHE", {})
    forks = _recorded_forks(monkeypatch) if hasattr(os, "fork") else []
    precisions = (30, 120, 30, 120)
    results = _in_threads(lambda P: integrate_1d(f, 0, 1, P), precisions)
    assert results == {i: serial[P] for i, P in enumerate(precisions)}
    assert len(quadrature._NODE_CACHE) == 2  # one table per precision
    assert forks == []


def test_mixed_precision_threads_build_the_nodes_they_would_alone(monkeypatch):
    _threads_at_mixed_precisions(monkeypatch, quadrature._SPLIT_AFTER_S)


def test_mixed_precision_threads_evaluate_forced_splits_here(monkeypatch):
    # a level splits only in a process of one thread, so with other threads
    # running each evaluates every node pair itself
    _threads_at_mixed_precisions(monkeypatch, _ALWAYS)


# ---------------------------------------------------------------------------
# the arctangent folds against the arcsine forms at 20 more digits
# ---------------------------------------------------------------------------

_EXTRA = 20


def _ulps(value, ref, prec):
    """|value - ref| in units of the last place of ref at prec bits."""
    return abs(value - ref) / mp.ldexp(1, mp.frexp(ref)[1] - prec)


def _asin_sqrt(w, dw):
    # asin sqrt w, folded through dw = 1 - w near 1
    return mp.pi / 2 - mp.asin(mp.sqrt(dw)) if w > 0.5 else mp.asin(mp.sqrt(w))


# distances to 1: x -> 0, both sides of the 1/2 switch and of 0.3, x -> 1
# and x = 1 itself
_FOLD_DISTANCES = ("0.9999999999999999999999", "0.7", "0.5000000001", "0.5",
                   "0.4999999999", "0.3000000001", "0.3", "0.2999999999",
                   "1e-6", "1e-40", "0")


@pytest.mark.parametrize("P", [30, 100])
def test_the_atan_folds_agree_with_the_asin_forms(P):
    theta_k1, theta_k0 = moments._theta_kernels(P)
    ref_k1, ref_k0 = _reference_theta_kernels(P + _EXTRA)
    worst = {}
    for text in _FOLD_DISTANCES:
        with _working(P, _WORK_GUARD):
            prec = mp.prec
            # a node x and its distance u to 1, as integrate_1d passes them
            x = 1 - mpf(text)
            u = 1 - x
            values = {"ci3": moments._ci3(x, x, u), "theta-k1": theta_k1(x, u),
                      "theta-k0": theta_k0(x, u)}
        with _working(P + _EXTRA, _WORK_GUARD):
            refs = {"ci3": _asin_sqrt(x, u) ** 2 / x, "theta-k1": ref_k1(x, u),
                    "theta-k0": ref_k0(x, u)}
            for name, value in values.items():
                worst[name, text] = float(_ulps(value, refs[name], prec))
    assert max(worst.values()) <= 4, {k: v for k, v in worst.items() if v > 4}


# ---------------------------------------------------------------------------
# the one cot integrand: the moment integrals are int_0^(pi/2) t^m cot t dt
# scaled by 2^m/m!, z K1(z) is int_0^asin z t cot t dt and K0(z) is 2
# int_0^asin sqrt z t^2 cot t dt
# ---------------------------------------------------------------------------

def _cot_moment_case(case, P):
    """(m, run, gap) of "moment-m", "k1-z" or "k0-z": run() hands
    integrate_1d that integral's t^m cot t, and gap() is pi/2 minus its true
    endpoint b_exact at the caller's precision, for z as ``series._kernel``
    holds it: 0, acos z or acos sqrt z."""
    kind, arg = case.split("-")
    if kind == "moment":
        m = int(arg)

        def run():
            with _working(P, _WORK_GUARD):
                return quadrature._moment_integral(m, P, default_tolerance(P))

        return m, run, lambda: mpf(0)
    with _working(P):
        z = mpf(arg)
    if kind == "k1":
        return 1, partial(series._kernel_integral_k1, z, P), lambda: mp.acos(z)
    return 2, partial(series._kernel_integral_k0, z, P), lambda: mp.acos(mp.sqrt(z))


def _pair_of(run, monkeypatch):
    """The pair function and the half-width r (an _mpf_) that run() hands
    to the engine, on an empty node cache."""
    seen = []

    def capture(pair, r, *args):
        seen.append((pair, r))
        return QuadratureResult(mpf(1), mpf(0), 0, 0)

    monkeypatch.setattr(quadrature, "_NODE_CACHE", {})
    monkeypatch.setattr(quadrature, "_tanh_sinh", capture)
    run()
    return seen[0]


def _node_values(pair, offset, monkeypatch):
    """The two node values, low node first, whose sum pair(offset) returns:
    the operands of the pair function's last mpf_add."""
    operands = []
    add = quadrature.mpf_add

    def recorded(x, y, *args):
        operands.append((x, y))
        return add(x, y, *args)

    monkeypatch.setattr(quadrature, "mpf_add", recorded)
    total = pair(offset)
    monkeypatch.setattr(quadrature, "mpf_add", add)
    low, high = operands[-1]
    assert add(low, high, mp.prec, round_nearest) == total
    return mp.make_mpf(low), mp.make_mpf(high)


@pytest.mark.parametrize("P", [30, 100])
@pytest.mark.parametrize("case", ["k0-0.3", "k0-1", "k1-0.3", "k1-1",
                                  "moment-1", "moment-12", "moment-40"])
def test_a_kernel_node_pair_is_within_a_few_ulps_of_cot(case, P, monkeypatch):
    # the moments' integrand is the kernels' at b = pi/2.  Both nodes of the
    # pair at distance v = r*offset from their own endpoints, as the engine
    # evaluates them: t = v near 0, then t = b - v near b, against
    # t^m cot(b_exact - v) = t^m tan(gap + v), which forms no difference;
    # the centre (offset 1) is one node.  K0's factor 2 is applied outside
    # the integrand
    m, run, gap = _cot_moment_case(case, P)
    pair, r = _pair_of(run, monkeypatch)
    worst = {}
    with _working(P, _WORK_GUARD):
        prec = mp.prec
        offsets = {"1e-40": mpf("2e-40"), "1e-6": mpf("2e-6"), "b/4": mpf(1) / 2,
                   "b/2 - ulp": 1 - mp.ldexp(1, 1 - prec), "b/2": mpf(1)}
        r = mp.make_mpf(r)
        b = 2 * r
        nodes = {}
        for name, offset in offsets.items():
            v = r * offset
            if offset == 1:
                nodes["near", name] = (v, v, mp.make_mpf(pair(offset._mpf_)))
                continue
            low, high = _node_values(pair, offset._mpf_, monkeypatch)
            nodes["near", name] = (v, v, low)
            nodes["far", name] = (b - v, v, high)
    with _working(P + _EXTRA, _WORK_GUARD):
        complement = gap()
        for (side, name), (t, v, value) in nodes.items():
            cot = mp.cot(t) if side == "near" else mp.tan(complement + v)
            ref = t ** m * cot
            worst[side, name] = float(_ulps(value, ref, prec))
    assert max(worst.values()) <= 4, worst


@pytest.mark.parametrize("case", ["k0-0.5", "k0-0.95", "k0-1", "k1-0.5", "k1-0.95", "k1-1",
                                  "moment-1", "moment-12", "moment-40"])
def test_a_kernel_integral_takes_one_cos_sin_per_node_pair(case, monkeypatch):
    # the moments' integrand is the kernels' at b = pi/2.  On an empty node
    # cache (a cold cot column at b = pi/2), one mpf_cos_sin per pair, as
    # the centre node is its own mirror image, and none for b, whose
    # cotangent the caller gives
    _, run, _ = _cot_moment_case(case, 30)
    calls = _counted_trig(monkeypatch)
    monkeypatch.setattr(quadrature, "_NODE_CACHE", {})
    [res] = _results(monkeypatch, _NEVER, run)
    assert calls == {"mpf_cos_sin": (res.evaluations + 1) // 2, "cos_sin": 0, "cot": 0,
                     "tan": 0}
    assert res.evaluations % 2 == 1


def _counted_trig(monkeypatch):
    """A dict that counts, from now on, this process's calls of the cot
    integrand's mpf_cos_sin and of mpmath's cos_sin, cot and tan."""
    calls = {"mpf_cos_sin": 0, "cos_sin": 0, "cot": 0, "tan": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(quadrature, "mpf_cos_sin",
                        counted("mpf_cos_sin", quadrature.mpf_cos_sin))
    for name in ("cos_sin", "cot", "tan"):
        monkeypatch.setattr(mp, name, counted(name, getattr(mp, name)))
    return calls


def _mp_quad_kernel(kind, z, P):
    """K1 or K0 at z by mpmath's own tanh-sinh rule on the cot form, at 2P
    digits."""
    with mp.workdps(2 * P):
        z = mpf(z)
        if kind == "k1":
            return mp.quad(lambda t: t * mp.cot(t), [0, mp.asin(z)]) / z
        return mp.quad(lambda t: 2 * t * t * mp.cot(t), [0, mp.asin(mp.sqrt(z))])


@pytest.mark.parametrize("P", [30, 100])
@pytest.mark.parametrize("z", ["0.95", "0.99"])
@pytest.mark.parametrize("kind", ["k0", "k1"])
def test_a_kernel_integral_near_1_keeps_p_plus_2_digits(kind, z, P):
    # an arcsine integrand's branch point at y = 1, just past z, would cost
    # the rule digits here.  Its tolerance is 10^-(P-10), and its tail cut
    # leaves about 10^-(P+2), so the bound is on significant digits
    kernel = {"k1": kernel_k1, "k0": kernel_k0}[kind]
    value = kernel(z, P, method="integral")
    ref = _mp_quad_kernel(kind, z, P)
    with mp.workdps(2 * P):
        assert abs(value - ref) <= mpf(10) ** -(P + 2) * ref


# ---------------------------------------------------------------------------
# the level split: a costly level's second half in a forked child
# ---------------------------------------------------------------------------

# the split threshold forced either way: every level L >= 1 split, or none
_ALWAYS, _NEVER = 0.0, math.inf

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork here")


def _assert_serial_tables():
    """Every node table in the cache holds, _mpf_ for _mpf_, the levels that
    _build_level builds whole."""
    assert quadrature._NODE_CACHE
    for (dps, tmax_q4), (table, _) in quadrature._NODE_CACHE.items():
        with mp.workdps(dps):
            tmax = mpf(tmax_q4) / 4
            assert table == [_build_level(level, tmax) for level in range(len(table))]


def _logged_builds(monkeypatch):
    """The (level, start, stop) of every _build_level call that this process
    makes from now on; a forked child's calls are not seen."""
    calls = []
    build = quadrature._build_level

    def logged(level, tmax, start=0, stop=None):
        calls.append((level, start, stop))
        return build(level, tmax, start, stop)

    monkeypatch.setattr(quadrature, "_build_level", logged)
    return calls


def _front_halves(table):
    """The _build_level calls of a table whose levels L >= 1 were all split
    while the table lacked them, with every back half built in a child."""
    return [(0, 0, None)] + [(level, 0, len(table[level]) // 2)
                             for level in range(1, len(table))]


def _consequence_integrals(P):
    k1, k0 = moments._theta_kernels(P)
    for integrand in (moments._ci1, partial(moments._ci2, k1),
                      moments._ci3, partial(moments._ci4, k0)):
        quadrature.integrate_1d(integrand, 0, 1, P)


_SPLIT_CASES = {
    "moment-1": lambda P: moment_quadrature(1, P),
    "moment-12": lambda P: moment_quadrature(12, P),
    "moment-40": lambda P: moment_quadrature(40, P),
    "k0-0.8": lambda P: kernel_k0("0.8", P),
    "k0-1": lambda P: kernel_k0(1, P),
    "k1-0.8": lambda P: kernel_k1("0.8", P),
    "k1-1": lambda P: kernel_k1(1, P),
    "consequences": _consequence_integrals,
}


def _stored(tag):
    """How many values the package's store holds under keys tagged tag."""
    return sum(key[0] == tag for key in hpreal._values)


def _recording(monkeypatch):
    """Empties the store of finished values, and returns a list that gets
    every QuadratureResult that the engine (which integrate_1d and the cot
    integrand both run) returns from then on, or the QuadratureError that it
    raises."""
    results = []

    def recorded(*args):
        try:
            results.append(_tanh_sinh(*args))
        except QuadratureError as err:
            results.append(err)
            raise
        return results[-1]

    monkeypatch.setattr(hpreal, "_values", {})
    monkeypatch.setattr(quadrature, "_tanh_sinh", recorded)
    return results


def _results(monkeypatch, split_after, run):
    """Every QuadratureResult that run() gets from integrate_1d, with the
    levels split after split_after seconds, from an empty value store."""
    monkeypatch.setattr(quadrature, "_SPLIT_AFTER_S", split_after)
    results = _recording(monkeypatch)
    run()
    return results


@pytest.mark.parametrize("P", [30, 100])
@pytest.mark.parametrize("case", sorted(_SPLIT_CASES))
def test_split_levels_give_the_serial_results(case, P, monkeypatch):
    # value, error_estimate, levels, evaluations and deltas, exactly
    run = partial(_SPLIT_CASES[case], P)
    serial = _results(monkeypatch, _NEVER, run)
    assert serial and all(res.levels >= 3 for res in serial)
    assert _results(monkeypatch, _ALWAYS, run) == serial


@pytest.mark.parametrize("case, P", [
    ("moment-12", 30), ("k1-0.8", 30), ("moment-12", 100), ("k1-0.8", 100),
    ("moment-12", 300),
])
def test_cold_split_levels_give_the_serial_results_and_tables(case, P, monkeypatch):
    # every level L >= 1 is split while the table lacks it, so it is built in
    # two halves; the result and each level are the serial ones, bit for bit
    run = partial(_SPLIT_CASES[case], P)
    serial = _results(monkeypatch, _NEVER, run)
    monkeypatch.setattr(quadrature, "_NODE_CACHE", {})
    assert _results(monkeypatch, _ALWAYS, run) == serial
    assert max(len(table) for table, _ in quadrature._NODE_CACHE.values()) >= serial[0].levels
    _assert_serial_tables()


@pytest.mark.parametrize("level", [0, 1, 5])
def test_a_level_built_in_pieces_equals_the_level_built_whole(level):
    # E and t step from index 0 over the skipped nodes, so each piece is bit
    # for bit its slice; at level 0 index 0 is the centre node
    with mp.workdps(45):
        tmax = mpf(19) / 4
        whole = _build_level(level, tmax)
        size = len(whole)
        assert size == _level_size(level, 19)
        for start, stop in [(0, 1), (0, size // 2), (size // 2, size), (size // 2, None),
                            (1, size), (size - 1, size + 5), (3, 3), (size, None)]:
            assert _build_level(level, tmax, start, stop) == whole[start:stop], \
                (start, stop)


@needs_fork
def test_a_cold_split_level_builds_its_back_half_in_the_child(monkeypatch):
    def f(x, da, db):
        return mp.sqrt(da) * mp.log(1 + x)

    monkeypatch.setattr(quadrature, "_SPLIT_AFTER_S", _NEVER)
    serial = integrate_1d(f, 0, 1, 30)
    monkeypatch.setattr(quadrature, "_NODE_CACHE", {})
    monkeypatch.setattr(quadrature, "_SPLIT_AFTER_S", _ALWAYS)
    calls = _logged_builds(monkeypatch)
    assert integrate_1d(f, 0, 1, 30) == serial
    ((table, _),) = quadrature._NODE_CACHE.values()
    assert len(table) == serial.levels
    assert calls == _front_halves(table)
    _assert_serial_tables()


def test_a_tail_cut_in_the_front_half_leaves_the_level_whole(monkeypatch):
    # exp(-1/(da db)) * weight * h r is below the cutoff 1e-24 once da < 1/60,
    # so from level 2 on the tail cut falls before the level's split half
    def f(x, da, db):
        return mp.exp(-1 / (da * db))

    monkeypatch.setattr(quadrature, "_SPLIT_AFTER_S", _NEVER)
    serial = integrate_1d(f, 0, 1, 30)
    monkeypatch.setattr(quadrature, "_NODE_CACHE", {})
    monkeypatch.setattr(quadrature, "_SPLIT_AFTER_S", _ALWAYS)
    calls = _logged_builds(monkeypatch)
    assert integrate_1d(f, 0, 1, 30) == serial
    ((table, _),) = quadrature._NODE_CACHE.values()
    assert len(table) == serial.levels > 3
    for nodes in table[2:]:
        assert all(mp.make_mpf(offset) / 2 < mpf(1) / 60
                   for offset, _ in nodes[len(nodes) // 2 - 2:])
    if hasattr(os, "fork"):
        # the back halves came from the children's records
        assert calls == _front_halves(table)
    _assert_serial_tables()


def test_a_failure_in_the_front_half_of_a_cold_split_level_leaves_it_out(monkeypatch):
    # a node in the front half of level 2, which this process evaluates
    P = 30
    with _working(P, _WORK_GUARD):
        tmax_q4 = _truncation_range(P, default_tolerance(P))
        nodes = _build_level(2, mpf(tmax_q4) / 4)
        near = mp.make_mpf(nodes[len(nodes) // 4][0]) / 2

    def bad(x, da, db):
        if da == near:
            raise ZeroDivisionError("bad node")
        return mp.sqrt(da)

    def good(x, da, db):
        return mp.sqrt(da)

    monkeypatch.setattr(quadrature, "_SPLIT_AFTER_S", _NEVER)
    with pytest.raises(ZeroDivisionError, match="bad node"):
        integrate_1d(bad, 0, 1, P)
    serial = integrate_1d(good, 0, 1, P)
    monkeypatch.setattr(quadrature, "_NODE_CACHE", {})
    monkeypatch.setattr(quadrature, "_SPLIT_AFTER_S", _ALWAYS)
    with pytest.raises(ZeroDivisionError, match="bad node"):
        integrate_1d(bad, 0, 1, P)
    ((table, _),) = quadrature._NODE_CACHE.values()
    assert len(table) == 2  # levels 0 and 1; level 2 joins only whole
    _assert_serial_tables()
    assert integrate_1d(good, 0, 1, P) == serial
    assert len(table) == serial.levels
    _assert_serial_tables()


def _evaluating_pids(monkeypatch, split_after, path):
    def f(x, da, db):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return mp.sqrt(da)

    monkeypatch.setattr(quadrature, "_SPLIT_AFTER_S", split_after)
    result = integrate_1d(f, 0, 1, 30)
    pids = set(path.read_text(encoding="utf-8").split())
    path.unlink()
    return result, pids


@needs_fork
def test_a_split_level_is_evaluated_in_two_processes(monkeypatch, tmp_path):
    serial, pids = _evaluating_pids(monkeypatch, _NEVER, tmp_path / "pids")
    assert pids == {str(os.getpid())}
    split, pids = _evaluating_pids(monkeypatch, _ALWAYS, tmp_path / "pids")
    assert len(pids) > 2  # a child per level L >= 1
    assert split == serial


def test_the_default_threshold_splits_only_costly_levels(monkeypatch):
    levels = []
    split = quadrature._level_contributions

    def logged(pair, table, column, level, tmax_q4, split_level, hr, cutoff):
        levels.append(split_level)
        return split(pair, table, column, level, tmax_q4, split_level, hr, cutoff)

    monkeypatch.setattr(quadrature, "_level_contributions", logged)
    integrate_1d(lambda x, da, db: x, 0, 1, 30)
    assert not any(levels)  # a cheap integral never forks


def _dies(how):
    if how == "raises":
        raise RuntimeError("the child failed")
    os.kill(os.getpid(), signal.SIGKILL)


def _with_cold_tables(*cases):
    """Each case on the node tables that its serial run leaves, and again,
    as case-cold-table, on an empty node cache."""
    return [pytest.param(case, cold, id=f"{case}-cold-table" if cold else case)
            for case in cases for cold in (False, True)]


@needs_fork
@pytest.mark.parametrize("how, cold", _with_cold_tables("raises", "killed"))
def test_a_child_that_fails_leaves_the_serial_result(how, cold, monkeypatch):
    # with a cold table the child's back half of the nodes is lost with it,
    # and this process builds that half itself
    parent = os.getpid()

    def f(x, da, db):
        if os.getpid() != parent:
            _dies(how)
        return mp.sqrt(da) * mp.log(1 + x)

    monkeypatch.setattr(quadrature, "_SPLIT_AFTER_S", _NEVER)
    serial = integrate_1d(f, 0, 1, 30)
    if cold:
        monkeypatch.setattr(quadrature, "_NODE_CACHE", {})
    monkeypatch.setattr(quadrature, "_SPLIT_AFTER_S", _ALWAYS)
    assert integrate_1d(f, 0, 1, 30) == serial
    _assert_serial_tables()


@pytest.mark.parametrize("bad", ["raises", "inf"])
def test_a_failure_in_the_childs_half_is_the_serial_failure(bad, monkeypatch):
    # a node in the second half of level 1, which the child evaluates
    P = 30
    with _working(P, _WORK_GUARD):
        tmax_q4 = _truncation_range(P, default_tolerance(P))
        nodes = _build_level(1, mpf(tmax_q4) / 4)
        near = mp.make_mpf(nodes[len(nodes) * 3 // 4][0]) / 2

    def f(x, da, db):
        if da == near:
            if bad == "raises":
                raise ZeroDivisionError(f"bad node in process {os.getpid() != parent}")
            return mp.inf
        return mpf(1)

    parent = os.getpid()
    failures = []
    for split_after in (_NEVER, _ALWAYS):
        monkeypatch.setattr(quadrature, "_SPLIT_AFTER_S", split_after)
        with pytest.raises((ZeroDivisionError, QuadratureError)) as err:
            integrate_1d(f, 0, 1, P)
        failures.append((type(err.value), str(err.value)))
    assert failures[1] == failures[0]
    assert failures[0] == ((ZeroDivisionError, "bad node in process False") if bad == "raises"
                           else (QuadratureError, "integrand returned a non-finite value at"
                                 " level 1 (endpoint distances are passed for a reason)"))


@needs_fork
def test_a_split_level_in_a_second_thread_makes_no_child(monkeypatch):
    def f(x, da, db):
        return mp.sqrt(da) * mp.log(1 + x)

    monkeypatch.setattr(quadrature, "_SPLIT_AFTER_S", _NEVER)
    serial = integrate_1d(f, 0, 1, 30)
    monkeypatch.setattr(quadrature, "_SPLIT_AFTER_S", _ALWAYS)
    forks = _recorded_forks(monkeypatch)
    assert integrate_1d(f, 0, 1, 30) == serial
    assert forks and set(forks) == {threading.current_thread().name}
    forks.clear()
    assert _in_threads(lambda P: integrate_1d(f, 0, 1, P), (30,)) == {0: serial}
    assert forks == []


def _fork_fails():
    raise OSError("fork: resource temporarily unavailable")


@pytest.mark.parametrize("no_fork, cold", _with_cold_tables("raises", "missing"))
def test_without_fork_a_split_level_runs_here(no_fork, cold, monkeypatch):
    pids = set()

    def f(x, da, db):
        pids.add(os.getpid())
        return mp.sqrt(da) * mp.log(1 + x)

    monkeypatch.setattr(quadrature, "_SPLIT_AFTER_S", _NEVER)
    serial = integrate_1d(f, 0, 1, 30)
    if no_fork == "raises":
        monkeypatch.setattr(os, "fork", _fork_fails)
    else:
        monkeypatch.delattr(os, "fork", raising=False)
    if cold:
        monkeypatch.setattr(quadrature, "_NODE_CACHE", {})
    monkeypatch.setattr(quadrature, "_SPLIT_AFTER_S", _ALWAYS)
    assert integrate_1d(f, 0, 1, 30) == serial
    assert pids == {os.getpid()}
    _assert_serial_tables()


# ---------------------------------------------------------------------------
# the cot column: the integrals over [0, pi/2] at one working precision take
# cot at the same nodes, and only the first computes it
# ---------------------------------------------------------------------------

def _assert_columns_hold_cot():
    """Every q in every cot column is cot(r*offset) of its own offset key,
    r = pi/4, at its table's precision, as the cot integrand computes it."""
    for (dps, _), (_, column) in quadrature._NODE_CACHE.items():
        with mp.workdps(dps):
            prec = mp.prec
            r = (mp.pi / 4)._mpf_
            for offset, q in column.items():
                v = quadrature.mpf_mul(r, offset, prec, round_nearest)
                c, s = quadrature.mpf_cos_sin(v, prec + quadrature._TRIG_GUARD_BITS,
                                              round_nearest)
                assert q == quadrature.mpf_div(c, s, prec, round_nearest)


def _cold_serial(monkeypatch, run):
    """run()'s engine results from an empty node cache, with no level split."""
    monkeypatch.setattr(quadrature, "_NODE_CACHE", {})
    return _results(monkeypatch, _NEVER, run)


@pytest.mark.parametrize("split_after", [_NEVER, _ALWAYS], ids=["serial", "split"])
@pytest.mark.parametrize("first, second, P", [
    ("moment-1", "moment-2", 30), ("moment-1", "k1-1", 30), ("moment-1", "k0-1", 30),
    ("k1-1", "moment-40", 30), ("moment-1", "moment-17", 100), ("k1-1", "k0-1", 100)])
def test_a_second_integral_over_half_pi_takes_no_cos_sin(first, second, P, split_after,
                                                         monkeypatch):
    # C(m), K1(1) and K0(1) all integrate t^m cot t over [0, pi/2].  The
    # first fills the cot column, at one mpf_cos_sin per pair evaluated
    # here; split levels build and evaluate their back halves in a child,
    # whose q's join the column from its record.  The second, run here
    # whole so that every cotangent it takes is counted, reads them all
    first_run, second_run = (_cot_moment_case(case, P)[1] for case in (first, second))
    expected = _cold_serial(monkeypatch, second_run)
    monkeypatch.setattr(quadrature, "_NODE_CACHE", {})
    calls = _counted_trig(monkeypatch)
    [res] = _results(monkeypatch, split_after, first_run)
    pairs = (res.evaluations + 1) // 2
    if split_after == _NEVER:
        assert calls["mpf_cos_sin"] == pairs
    elif hasattr(os, "fork"):
        assert 0 < calls["mpf_cos_sin"] < pairs  # the rest ran in the children
    calls["mpf_cos_sin"] = 0
    assert _results(monkeypatch, _NEVER, second_run) == expected
    assert calls == {"mpf_cos_sin": 0, "cos_sin": 0, "cot": 0, "tan": 0}
    _assert_columns_hold_cot()
    _assert_serial_tables()


@pytest.mark.parametrize("split_after", [_NEVER, _ALWAYS], ids=["serial", "split"])
def test_a_kernel_integral_below_z_1_neither_reads_nor_fills_the_column(split_after,
                                                                        monkeypatch):
    # at z < 1 the upper limit asin z (or asin sqrt z) is not pi/2, so the
    # far node's cotangent is not a function of the offset alone
    monkeypatch.setattr(quadrature, "_NODE_CACHE", {})
    _results(monkeypatch, split_after, _cot_moment_case("moment-1", 30)[1])
    ((key, (_, column)),) = quadrature._NODE_CACHE.items()
    filled = dict(column)
    assert filled
    calls = _counted_trig(monkeypatch)
    for case in ("k1-0.8", "k0-0.8", "k1-0.95"):
        run = _cot_moment_case(case, 30)[1]
        expected = _cold_serial(monkeypatch, run)
        monkeypatch.setattr(quadrature, "_NODE_CACHE", {key: ([], column)})
        calls["mpf_cos_sin"] = 0
        assert _results(monkeypatch, _NEVER, run) == expected
        assert calls["mpf_cos_sin"] == (expected[0].evaluations + 1) // 2
        assert column == filled and list(column) == list(filled)


@needs_fork
@pytest.mark.parametrize("how", ["raises", "killed"])
def test_a_child_that_fails_leaves_the_serial_column(how, monkeypatch):
    # the child dies at its first cotangent; this process evaluates the
    # back half itself, so the result, the tables and the column are those
    # of a serial run, and a later integral at the same precision takes no
    # cotangent that it would not take after the serial run
    parent = os.getpid()
    cos_sin = quadrature.mpf_cos_sin

    def dies_in_child(*args):
        if os.getpid() != parent:
            _dies(how)
        return cos_sin(*args)

    run, later = (_cot_moment_case(case, 30)[1] for case in ("moment-1", "moment-2"))
    serial = _cold_serial(monkeypatch, run)
    ((_, serial_column),) = quadrature._NODE_CACHE.values()
    monkeypatch.setattr(quadrature, "_NODE_CACHE", {})
    monkeypatch.setattr(quadrature, "mpf_cos_sin", dies_in_child)
    assert _results(monkeypatch, _ALWAYS, run) == serial
    ((_, column),) = quadrature._NODE_CACHE.values()
    assert column == serial_column
    _assert_columns_hold_cot()
    _assert_serial_tables()
    calls = _counted_trig(monkeypatch)
    _results(monkeypatch, _NEVER, later)
    assert calls["mpf_cos_sin"] == 0


def test_a_fresh_process_gives_the_bits_of_a_warm_column(monkeypatch):
    # C(17) and K0(1) at 40 digits read a column that C(1) filled here, and
    # are computed from cold tables in a new interpreter
    monkeypatch.setattr(quadrature, "_NODE_CACHE", {})
    monkeypatch.setattr(hpreal, "_values", {})
    moment_quadrature(1, 40)
    warm = [moment_quadrature(17, 40)._mpf_, kernel_k0(1, 40)._mpf_]
    code = ("from cotmoments.quadrature import moment_quadrature\n"
            "from cotmoments.series import kernel_k0\n"
            "print(repr([moment_quadrature(17, 40)._mpf_, kernel_k0(1, 40)._mpf_]))")
    src = str(pathlib.Path(cotmoments.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    fresh = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, timeout=120, check=True).stdout
    assert ast.literal_eval(fresh) == warm


# ---------------------------------------------------------------------------
# the finished values: a repeated moment or kernel integral is one lookup
# ---------------------------------------------------------------------------

_CACHED_CASES = {
    "moment-3": lambda P: moment_quadrature(3, P),
    "compute-moment-3": lambda P: moments.compute_moment(3, P, "quad").value,
    "k0-0.8": lambda P: kernel_k0("0.8", P),
    "k0-1": lambda P: kernel_k0(1, P),
    "k1-0.8": lambda P: kernel_k1("0.8", P),
    "k1-1": lambda P: kernel_k1(1, P),
}


@pytest.mark.parametrize("case", sorted(_CACHED_CASES))
def test_a_repeat_runs_the_rule_once_and_gives_the_cold_value(case, monkeypatch):
    run = partial(_CACHED_CASES[case], 30)
    results = _recording(monkeypatch)
    cold = run()
    assert run()._mpf_ == cold._mpf_
    assert len(results) == 1
    results = _recording(monkeypatch)  # empty caches: a second cold call
    assert run()._mpf_ == cold._mpf_
    assert len(results) == 1


def _rule_runs(results, call, *args, **kwargs):
    """How many times call(*args, **kwargs) ran the rule."""
    before = len(results)
    call(*args, **kwargs)
    return len(results) - before


def test_a_moment_misses_on_any_other_m_p_or_tol(monkeypatch):
    with _working(30, _WORK_GUARD):
        tol = mpf("1e-20")  # as the string parses at the working precision
    with mp.workdps(15):
        coarse = mpf("1e-20")  # 53 bits: another tolerance
    results = _recording(monkeypatch)
    assert _rule_runs(results, moment_quadrature, 3, 30) == 1
    # the default tolerance at P = 30 is 1e-20, the same mpf
    assert _rule_runs(results, moment_quadrature, 3, 30, "1e-20") == 0
    assert _rule_runs(results, moment_quadrature, 3, 30, tol=tol) == 0
    assert _rule_runs(results, moment_quadrature, 4, 30) == 1
    assert _rule_runs(results, moment_quadrature, 3, 31) == 1
    exact = mpf(2) ** -66  # the same tolerance at every precision
    assert _rule_runs(results, moment_quadrature, 3, 30, exact) == 1
    assert _rule_runs(results, moment_quadrature, 3, 31, exact) == 1
    assert _rule_runs(results, moment_quadrature, 3, 30, "1e-19") == 1
    assert _rule_runs(results, moment_quadrature, 3, 30, coarse) == 1
    assert _rule_runs(results, moments.compute_moment, 4, 30, "quad") == 0


def test_a_kernel_integral_misses_on_any_other_kind_z_or_p(monkeypatch):
    with _working(30):
        z = mpf("0.8")  # as the string parses at the working precision
    results = _recording(monkeypatch)
    assert _rule_runs(results, kernel_k1, "0.8", 30) == 1
    assert _rule_runs(results, kernel_k1, z, 30) == 0
    assert _rule_runs(results, kernel_k1, "0.8", 30, method="integral") == 0
    assert _rule_runs(results, kernel_k0, "0.8", 30) == 1
    assert _rule_runs(results, kernel_k1, 0.8, 30) == 1  # the float is not 0.8
    assert _rule_runs(results, kernel_k1, "0.8", 31) == 1
    # 7/8 is the same z at every precision
    assert _rule_runs(results, kernel_k1, "0.875", 30) == 1
    assert _rule_runs(results, kernel_k1, "0.875", 31) == 1
    # the series branch neither reads nor fills the cache
    assert _rule_runs(results, kernel_k1, "0.5", 30) == 0
    assert _stored("kernel") == 6


@pytest.mark.parametrize("case", sorted(_CACHED_CASES))
def test_a_failure_is_not_cached(case, monkeypatch):
    monkeypatch.setattr(quadrature, "_DEFAULT_LEVEL_CAP", 3)
    results = _recording(monkeypatch)
    for _ in range(2):
        with pytest.raises(QuadratureError):
            _CACHED_CASES[case](30)
    assert len(results) == 2
    assert all(isinstance(res, QuadratureError) for res in results)
    assert _stored("moment") == _stored("kernel") == 0


def test_threads_at_mixed_precisions_fill_the_caches_with_the_serial_values(monkeypatch):
    def values(P):
        return [moment_quadrature(3, P), kernel_k1("0.8", P), kernel_k0(1, P)]

    serial = {}
    for P in (30, 120):
        _recording(monkeypatch)
        serial[P] = values(P)
    results = _recording(monkeypatch)
    precisions = (30, 120, 30, 120)
    assert _in_threads(values, precisions) == {i: serial[P] for i, P in enumerate(precisions)}
    assert len(results) == 6  # each key once, whichever thread came first


# ---------------------------------------------------------------------------
# two dimensions: the iterated reference rule against known integrals
# ---------------------------------------------------------------------------

def test_2d_constant_and_separable():
    res = _reference_2d(lambda x0, da0, db0, x1, da1, db1: mpf(1), 25)
    with mp.workdps(35):
        assert abs(res.value - 1) < mpf(10) ** -14
    res = _reference_2d(
        lambda x0, da0, db0, x1, da1, db1: x0 * x1, 25)
    with mp.workdps(35):
        assert abs(res.value - mpf(1) / 4) < mpf(10) ** -14


@pytest.mark.parametrize("P", [25, 40])
def test_2d_central_binomial_identity(P):
    """Double integral over the unit square of 1/sqrt(1 - x0^2 x1^2), which
    expands to sum C(2j,j) 4^-j/(2j+1)^2 = (pi/2) log 2.  The corner factor
    is evaluated from the exact endpoint distances:
    1 - x0^2 x1^2 = db0 (1+x0) + x0^2 db1 (1+x1)."""
    def f(x0, da0, db0, x1, da1, db1):
        return 1 / mp.sqrt(db0 * (1 + x0) + x0 ** 2 * db1 * (1 + x1))
    res = _reference_2d(f, P)
    with mp.workdps(P + 10):
        target = pi(P + 5) / 2 * log2(P + 5)
        assert abs(res.value - target) < default_tolerance(P)


# ---------------------------------------------------------------------------
# the engine against the reference loop, exactly
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("f, a, b, P", [
    (lambda x, da, db: x ** 200, -1, 1, 30),
    (lambda x, da, db: -mp.log(da), 0, 1, 40),
    (lambda x, da, db: mp.sqrt(da), 0, 1, 30),
], ids=["x^200", "log-endpoint", "sqrt"])
def test_1d_matches_the_reference_loop(f, a, b, P):
    ref = _reference_tanh_sinh(lambda x, da, db, w: f(x, da, db), a, b, P)
    # value, error_estimate, levels, evaluations and deltas, exactly
    assert integrate_1d(f, a, b, P) == ref


def test_integrands_parse_no_decimal_strings():
    # an integrand runs once per node, and mpf("0.5") there costs several
    # microseconds per evaluation: such constants are built outside it
    package = pathlib.Path(cotmoments.__file__).parent
    inner_outer = ["x0", "da0", "db0", "x1", "da1", "db1"]
    found = []
    for name in ("moments.py", "quadrature.py", "series.py"):
        tree = ast.parse((package / name).read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            params = [arg.arg for arg in fn.args.args]
            if params[-2:] != ["da", "db"] and params != inner_outer:
                continue
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "id",
                                    getattr(node.func, "attr", None)) == "mpf"
                        and node.args
                        and isinstance(node.args[0], ast.Constant)
                        and isinstance(node.args[0].value, str)):
                    found.append(f"{name}:{node.lineno} {fn.name}")
    assert found == []
