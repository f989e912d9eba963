"""Tanh-sinh engine: analytic integrals, endpoint singularities, the moment
integrals against a float midpoint-rule oracle, and the failure paths.
"""

from __future__ import annotations

import ast
import math
import pathlib
import threading

import pytest
from mpmath import mp, mpf

import cotmoments
from cotmoments import quadrature
from cotmoments.hpreal import _working, eta, log2, pi
from cotmoments.quadrature import (
    _WORK_GUARD,
    QuadratureError,
    QuadratureResult,
    _node_levels,
    _truncation_range,
    default_tolerance,
    integrate_1d,
    integrate_2d_iterated,
    moment_quadrature,
)


def test_default_tolerance():
    with mp.workdps(60):
        assert default_tolerance(50) == mpf(10) ** -40
        assert default_tolerance(30) == mpf(10) ** -20


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


def test_moment_rejects_bad_arguments():
    with pytest.raises(ValueError):
        moment_quadrature(0, 30)
    with pytest.raises(ValueError):
        moment_quadrature(1, 5)


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


def test_inner_failure_names_its_outer_node(monkeypatch):
    # the first outer node is the midpoint x1 = 1/2, whose weight pi/2 keeps
    # the flat inner tolerance tol/50; one refinement cannot converge
    monkeypatch.setattr(quadrature, "_DEFAULT_LEVEL_CAP", 1)
    with pytest.raises(QuadratureError) as err:
        integrate_2d_iterated(
            lambda x0, da0, db0, x1, da1, db1: mp.exp(x0 * x1), 25)
    message = str(err.value)
    assert "x1 = 0.5" in message
    assert f"inner tol {mp.nstr(default_tolerance(25) / 50, 3)}" in message
    assert err.value.best is not None
    assert err.value.gap is not None
    assert err.value.levels == 2


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
        near = _node_levels(P + _WORK_GUARD, tmax_q4, 1)[1][0][0] / 2

    def f(x, da, db):
        if da == near:
            return mp.inf
        if db == near:
            return -mp.inf
        return mpf(1)

    with pytest.raises(QuadratureError, match="non-finite value at level 1"):
        integrate_1d(f, 0, 1, P)


def test_non_finite_inner_node_names_its_outer_node():
    # the first outer node is x1 = 1/2; its inner centre node is x0 = 1/2
    def f(x0, da0, db0, x1, da1, db1):
        return mp.inf if x0 == x1 == mpf(0.5) else x0 * x1

    with pytest.raises(QuadratureError) as err:
        integrate_2d_iterated(f, 25)
    message = str(err.value)
    assert message.startswith("inner integral at x1 = 0.5 ")
    assert "non-finite value at level 0" in message
    assert err.value.levels == 0


def test_repeated_runs_are_deterministic():
    a = integrate_1d(lambda x, da, db: mp.sqrt(da), 0, 1, 30)
    b = integrate_1d(lambda x, da, db: mp.sqrt(da), 0, 1, 30)
    assert a.value == b.value
    assert a.evaluations == b.evaluations


# ---------------------------------------------------------------------------
# two dimensions (iterated)
# ---------------------------------------------------------------------------

def test_2d_constant_and_separable():
    res = integrate_2d_iterated(lambda x0, da0, db0, x1, da1, db1: mpf(1), 25)
    with mp.workdps(35):
        assert abs(res.value - 1) < mpf(10) ** -14
    res = integrate_2d_iterated(
        lambda x0, da0, db0, x1, da1, db1: x0 * x1, 25)
    with mp.workdps(35):
        assert abs(res.value - mpf(1) / 4) < mpf(10) ** -14


@pytest.mark.parametrize("P", [10, 40, 300])
def test_inner_tolerance_budget_bound(P):
    # integrate_2d_iterated's docstring: from level 2 on, the outer nodes
    # give h * sum_i max(w_i, kappa) <= 3, against h * sum_i w_i ~ 2
    with _working(P, _WORK_GUARD):
        tmax_q4 = _truncation_range(P, default_tolerance(P))
        kappa = 1 / (mpf(tmax_q4) / 2 + 1)
        levels = _node_levels(P + _WORK_GUARD, tmax_q4, 5)
        # the midpoint is listed once; every other node stands for two
        weights = [levels[0][0][1]] + [w for _, w in levels[0][1:]] * 2
        for level in range(1, 6):
            weights += [w for _, w in levels[level]] * 2
            h = mpf(2) ** -level
            if level >= 2:
                assert abs(h * sum(weights) - 2) < mpf(10) ** -13
                assert h * sum(max(w, kappa) for w in weights) <= 3


@pytest.mark.parametrize("P", [25, 40])
def test_2d_central_binomial_identity(P):
    """Double integral over the unit square of 1/sqrt(1 - x0^2 x1^2), which
    expands to sum C(2j,j) 4^-j/(2j+1)^2 = (pi/2) log 2.  The corner factor
    is evaluated from the exact endpoint distances:
    1 - x0^2 x1^2 = db0 (1+x0) + x0^2 db1 (1+x1)."""
    def f(x0, da0, db0, x1, da1, db1):
        return 1 / mp.sqrt(db0 * (1 + x0) + x0 ** 2 * db1 * (1 + x1))
    res = integrate_2d_iterated(f, P)
    with mp.workdps(P + 10):
        target = pi(P + 5) / 2 * log2(P + 5)
        assert abs(res.value - target) < default_tolerance(P)


# ---------------------------------------------------------------------------
# reference: the level loop with its geometry derived per node
# ---------------------------------------------------------------------------

def _reference_tanh_sinh(f, a, b, P, tol=None, level_cap=12):
    """The level loop as it was before each level's geometry was derived
    once: offsets scaled, endpoint distances and h*r recomputed and
    finiteness tested per node.  f is called as f(x, da, db, w)."""
    with _working(P, _WORK_GUARD):
        a = mpf(a)
        b = mpf(b)
        tol = default_tolerance(P) if tol is None else mpf(tol)
        width = b - a
        r = width / 2
        tmax_q4 = _truncation_range(P, tol)
        cutoff = tol * mpf(10) ** -4
        s = mpf(0)
        deltas = []
        evaluations = 0
        for level in range(level_cap + 1):
            h = mpf(2) ** (-level)
            nodes = _node_levels(P + _WORK_GUARD, tmax_q4, level)[level]
            part = mpf(0)
            tiny_run = 0
            seen_large = False
            for offset, weight in nodes:
                if offset == 1:
                    contrib = weight * f(a + r, r, r, weight)
                    evaluations += 1
                else:
                    off = r * offset
                    f_lo = f(a + off, off, width - off, weight)
                    f_hi = f(b - off, width - off, off, weight)
                    contrib = weight * (f_lo + f_hi)
                    evaluations += 2
                if not mp.isfinite(contrib):
                    raise QuadratureError(f"non-finite at level {level}")
                part += contrib
                if abs(contrib) * h * r < cutoff:
                    tiny_run += 1
                    if tiny_run >= 2 and seen_large:
                        break
                else:
                    tiny_run = 0
                    seen_large = True
            s_new = (s / 2 + h * part) if level else part
            if level >= 1:
                deltas.append(abs(r * (s_new - s)))
            s = s_new
            if level >= 2 and deltas[-1] <= tol:
                return QuadratureResult(value=+(r * s),
                                        error_estimate=+(2 * deltas[-1]),
                                        levels=level + 1,
                                        evaluations=evaluations,
                                        deltas=tuple(deltas))
        raise QuadratureError(f"no convergence within {level_cap} levels")


def _reference_2d(f, P):
    """The iterated rule over the reference loop, with the same inner
    tolerance budget (tol/50)*max(1, kappa/w_i)."""
    with _working(P, _WORK_GUARD):
        tol = default_tolerance(P)
        kappa = 1 / (mpf(_truncation_range(P, tol)) / 2 + 1)
        inner_evaluations = 0

        def outer(x1, da1, db1, weight):
            nonlocal inner_evaluations
            res = _reference_tanh_sinh(
                lambda x0, da0, db0, w0: f(x0, da0, db0, x1, da1, db1),
                0, 1, P, tol / 50 * max(1, kappa / weight))
            inner_evaluations += res.evaluations
            return res.value

        res = _reference_tanh_sinh(outer, 0, 1, P, tol)
        return QuadratureResult(value=res.value,
                                error_estimate=res.error_estimate,
                                levels=res.levels,
                                evaluations=res.evaluations + inner_evaluations,
                                deltas=res.deltas)


@pytest.mark.parametrize("f, a, b, P", [
    (lambda x, da, db: x ** 200, -1, 1, 30),
    (lambda x, da, db: -mp.log(da), 0, 1, 40),
    (lambda x, da, db: mp.sqrt(da), 0, 1, 30),
], ids=["x^200", "log-endpoint", "sqrt"])
def test_1d_matches_the_reference_loop(f, a, b, P):
    ref = _reference_tanh_sinh(lambda x, da, db, w: f(x, da, db), a, b, P)
    # value, error_estimate, levels, evaluations and deltas, exactly
    assert integrate_1d(f, a, b, P) == ref


def test_2d_matches_the_reference_loop():
    def f(x0, da0, db0, x1, da1, db1):
        return 1 / mp.sqrt(db0 * (1 + x0) + x0 ** 2 * db1 * (1 + x1))
    assert integrate_2d_iterated(f, 25) == _reference_2d(f, 25)


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
