"""The four moment routes against each other and the identity suites.

Frozen digit strings were generated from mpmath primitives alone (pi, ln2,
zeta, altzeta combined per the closed form), so they are independent of the
package's own eta acceleration.
"""

from __future__ import annotations

import ast
import hashlib
import inspect
import json
import marshal
import os
import pathlib
import random
import sys
import threading
from functools import partial

import pytest
from mpmath import mp, mpf

import cotmoments
from cotmoments import hpreal, moments, quadrature, series
from cotmoments.hpreal import Evaluation, _working, default_tolerance, eta, to_digits
from cotmoments.moments import (
    ROUTES,
    SUITES,
    binomial_gf_identities,
    c_cfn_route,
    c_eta_route,
    c_nested_route,
    compute_moment,
    run_suite,
    verify_consequences,
    verify_h_integral_reduction,
)
from cotmoments.quadrature import integrate_1d

from reference_cfn import _reference_cfn
from reference_kernels import _reference_theta_kernels
from reference_quadrature import _reference_2d
from sweep_log import _log_sweeps

# 40-digit references, frozen from mpmath closed forms
_FROZEN = {
    1: "2.177586090303602130500688898237613947339",
    2: "1.316944651399268272974197794332010551811",
    3: "0.7497056913129243210582772490931003250123",
    4: "0.3733976045516061789340548770014268675265",
    5: "0.1627297278479049621776803950430603841928",
    6: "0.06270711150524399043329550290621204497822",
    7: "0.02160711147489084559084224733442931232055",
    8: "0.006725215515233118142186096392190899718285",
}


# ---------------------------------------------------------------------------
# closed-form route
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", sorted(_FROZEN))
def test_eta_route_frozen_digits(m):
    v = c_eta_route(m, 45)
    assert to_digits(v.value, 40) == _FROZEN[m]


@pytest.mark.parametrize("m", [30, 40])
@pytest.mark.parametrize("P", [30, 50])
def test_eta_route_keeps_digits_through_cancellation(m, P):
    # the terms reach about e^pi while C(40) is about 1.4e-31; the reference
    # sum cancels fewer than m digits, so 2P + m working digits leave 2P
    v = c_eta_route(m, P).value
    with mp.workdps(2 * P + m):
        ref = mpf(0)
        for l in range(m // 2 + 1):
            p = m - 2 * l
            ref += (-1) ** l * mp.pi ** p / mp.factorial(p) * mp.altzeta(2 * l + 1)
        if m % 2 == 0:
            ref += (-1) ** (m // 2) * mp.zeta(m + 1)
        assert abs(v - ref) <= mpf(10) ** -(P + 5) * ref


def test_eta_route_rejects_bad_m():
    with pytest.raises(ValueError):
        c_eta_route(0, 30)
    for m in (2.5, 2.0, True):
        with pytest.raises(ValueError, match=rf"need an integer m >= 1, got m={m!r}"):
            c_eta_route(m, 30)


@pytest.mark.parametrize("route", ROUTES)
def test_compute_moment_refuses_a_non_integer_m(route):
    # a float m would reach range() in the series routes and x^m in the
    # quadrature, and True was taken as m = 1
    for m in (2.5, 2.0, True):
        with pytest.raises(ValueError, match=rf"need an integer m >= 1, got m={m!r}"):
            compute_moment(m, 30, route)


# ---------------------------------------------------------------------------
# series routes against the closed form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", range(1, 7))
def test_cfn_route_within_bound(m):
    ref = c_eta_route(m, 40).value
    v = c_cfn_route(m, 40, N=20000)
    with mp.workdps(50):
        assert abs(v.value - ref) <= v.error_bound, m


@pytest.mark.parametrize("m,N", [(12, 12), (9, 20)])
def test_cfn_route_within_its_proved_bound_at_small_n(m, N):
    # a tail estimated from the last term missed here, by 1.618 and 1.074
    # times its bound; the proved tail leaves gaps of 0.52 and 0.79 of it
    ref = c_eta_route(m, 40).value
    v = c_cfn_route(m, 30, N=N)
    with mp.workdps(50):
        assert abs(v.value - ref) <= v.error_bound, (m, N)


@pytest.mark.parametrize("m", range(1, 7))
def test_nested_route_within_bound(m):
    ref = c_eta_route(m, 40).value
    v = c_nested_route(m, 40, N=20000)
    with mp.workdps(50):
        assert abs(v.value - ref) <= v.error_bound, m


@pytest.mark.parametrize("P", [90, 150, 300])
def test_series_routes_within_bound_at_high_precision(P):
    # the session-mixed workload's series keys above P = 60, where the
    # sweeps run at 338 to 1036 bits; each cfn gap is 0.9996 to 0.9998 of
    # its proved bound, which grows tight as N grows
    for route, fn, ms in (("cfn", c_cfn_route, (8, 9, 12)),
                          ("nested", c_nested_route, (7, 10, 11))):
        for m in ms:
            ref = c_eta_route(m, P + 10).value
            v = fn(m, P, N=20000)
            with mp.workdps(P + 10):
                assert abs(v.value - ref) <= v.error_bound, (route, m, P)


@pytest.mark.parametrize("route", ["cfn", "nested"])
def test_series_partial_sums_converge_monotonically(route):
    """All series terms are positive, so deeper truncations move upward."""
    fn = c_cfn_route if route == "cfn" else c_nested_route
    ref = c_eta_route(2, 35).value
    with mp.workdps(45):
        values = [fn(2, 35, N=n).value for n in (500, 2000, 8000)]
        assert values[0] < values[1] < values[2] < ref
        bounds = [fn(2, 35, N=n).error_bound for n in (500, 2000, 8000)]
        assert bounds[0] > bounds[1] > bounds[2]


def test_cfn_route_rejects_tiny_truncation():
    with pytest.raises(ValueError):
        c_cfn_route(6, 30, N=3)


def _count_cfn_sweeps(monkeypatch):
    """Empty the store and record the arguments of every cfn sweep."""
    calls = []
    sweep = moments._cfn_sweep

    def counted(*args):
        calls.append(args)
        return sweep(*args)

    monkeypatch.setattr(hpreal, "_values", {})
    monkeypatch.setattr(moments, "_cfn_sweep", counted)
    return calls


def test_cfn_route_matches_the_per_m_reference(monkeypatch):
    # P = 10 and P = 30 share fbits = 140, so they share cache entries;
    # N = 5000 at fbits = 140 spans several sweep blocks
    _count_cfn_sweeps(monkeypatch)
    grid = [(m, P, N) for m in range(1, 13) for P in (10, 30, 45) for N in (12, 1000)]
    grid += [(m, 30, 5000) for m in range(1, 13)]
    random.Random(9).shuffle(grid)
    for m, P, N in grid:
        v = c_cfn_route(m, P, N)
        assert (v.value, v.error_bound) == _reference_cfn(m, P, N), (m, P, N)


@pytest.mark.parametrize("shallow,deep", [(1, 11), (2, 12)])
def test_cfn_deeper_m_resweeps_a_shallow_entry(monkeypatch, shallow, deep):
    calls = _count_cfn_sweeps(monkeypatch)
    for m in (shallow, deep, shallow):
        v = c_cfn_route(m, 30, 1000)
        assert (v.value, v.error_bound) == _reference_cfn(m, 30, 1000), m
    # the first entry covers m <= 6 of its parity only (depth 2 odd, 3 even);
    # the deeper one then serves both
    assert [(parity, kmax) for parity, kmax, _, _ in calls] == [
        (shallow % 2, (6 - shallow % 2) // 2), (deep % 2, deep // 2)]


def test_routes_suite_runs_one_cfn_sweep_per_parity(monkeypatch, tmp_path):
    calls = _log_sweeps(monkeypatch, moments, "_cfn_sweep", tmp_path / "cfn")
    assert run_suite("routes", 30).all_passed
    assert [(parity, kmax) for _, parity, kmax in calls()] == [(1, 2), (0, 3)]
    # the even sweep ran beside the odd one, in a child
    assert len({pid for pid, _, _ in calls()}) == 2


def test_ascending_series_routes_sweep_once_per_parity_and_kind(monkeypatch, tmp_path):
    # the series routes for m = 1..6 in ascending order, one m at a time
    cfn_calls = _log_sweeps(monkeypatch, moments, "_cfn_sweep", tmp_path / "cfn")
    s_calls = _log_sweeps(monkeypatch, series, "_sums_sweep", tmp_path / "sums")
    for m in range(1, 7):
        c_cfn_route(m, 30, 2000)
        c_nested_route(m, 30, 2000)
    assert [(parity, kmax) for _, parity, kmax in cfn_calls()] == [(1, 2), (0, 3)]
    assert [(kind, lmax) for _, kind, lmax in s_calls()] == [("odd", 2), ("even", 2)]
    assert len({pid for pid, _, _ in cfn_calls()}) == 2
    assert len({pid for pid, _, _ in s_calls()}) == 2


def test_a_shallow_miss_fills_both_parities_and_kinds_with_the_serial_integers(monkeypatch):
    monkeypatch.setattr(hpreal, "_values", {})
    series.s_odd(0, 30, 2000)
    series.nested_tail_sums("odd", 2, 10, 2000, 30)
    c_cfn_route(1, 30, 2000)

    def entries(tag):
        return {key[1:]: entry for key, entry in hpreal._values.items() if key[0] == tag}

    for tag, sweep in (("sums", series._sums_sweep), ("tails", series._tails_sweep)):
        assert sorted(entries(tag)) == [("even", 2000, 140), ("odd", 2000, 140)]
        for (kind, N, fbits), (lmax, swept) in entries(tag).items():
            assert lmax == 2
            assert swept == sweep(kind, 2, N, fbits), kind
    assert sorted(entries("cfn")) == [(0, 2000, 140), (1, 2000, 140)]
    for (parity, N, fbits), (kmax, swept) in entries("cfn").items():
        assert kmax == (6 - parity) // 2
        assert swept == moments._cfn_sweep(parity, kmax, N, fbits), parity


def test_cfn_mixed_precision_threads_return_serial_values(monkeypatch):
    serial = {P: [c_cfn_route(m, P, 2000) for m in range(1, 7)] for P in (15, 60)}
    _count_cfn_sweeps(monkeypatch)
    precisions = (15, 60, 15, 60)
    results = {}

    def work(i, P):
        results[i] = [c_cfn_route(m, P, 2000) for m in range(1, 7)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i, P))
                   for i, P in enumerate(precisions)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == {i: serial[P] for i, P in enumerate(precisions)}


def test_cfn_sweep_shares_nothing_with_the_series_route():
    # no name that moments imports from the series layer, nor that module
    tree = ast.parse(pathlib.Path(moments.__file__).read_text(encoding="utf-8"))
    banned = {"series"}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "series":
            banned.update(alias.asname or alias.name for alias in node.names)
    assert len(banned) > 1
    scanned = {"_cfn_sweep", "c_cfn_route"}
    found, seen = [], set()
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef) and fn.name in scanned:
            seen.add(fn.name)
            for node in ast.walk(fn):
                name = getattr(node, "id", getattr(node, "attr", None))
                if name in banned:
                    found.append(f"{fn.name}:{node.lineno} {name}")
    assert seen == scanned
    assert found == []


# ---------------------------------------------------------------------------
# quadrature route and the dispatcher
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [1, 2, 5, 8])
def test_quadrature_route_agreement(m):
    ref = c_eta_route(m, 35).value
    v = compute_moment(m, 35, route="quadrature")
    with mp.workdps(45):
        assert abs(v.value - ref) < mpf(10) ** -22


def test_dispatcher_aliases():
    for alias, canonical in [("eta", "eta-closed-form"), ("quad", "quadrature"),
                             ("cfn", "cfn-series"), ("nested", "nested-series")]:
        v = compute_moment(1, 30, route=alias, N=1000)
        assert v.name == canonical
        assert canonical in ROUTES
    # full names are accepted too
    assert compute_moment(1, 30, route="cfn-series", N=1000).name == "cfn-series"


def test_dispatcher_rejects_unknown_route():
    with pytest.raises(ValueError):
        compute_moment(1, 30, route="telepathy")


# ---------------------------------------------------------------------------
# the one value record
# ---------------------------------------------------------------------------

# every public function that returns a value, as
# (call, name, index, truncation, whether the value is a closed form)
_RECORDS = {
    "r_odd": (partial(series.r_odd, 2, 30), "R_odd", 2, None, True),
    "r_even": (partial(series.r_even, 1, 30), "R_even", 1, None, True),
    "r_via_partitions": (partial(series.r_via_partitions, 3, "even", 30), "R_even", 3, None, True),
    "a1": (partial(series.a1, 2, 30), "A1", 2, None, True),
    "a0": (partial(series.a0, 2, 30), "A0", 2, None, True),
    "a1_via_recurrence": (partial(series.a1_via_recurrence, 3, 30), "A1", 3, None, True),
    "a0_via_recurrence": (partial(series.a0_via_recurrence, 3, 30), "A0", 3, None, True),
    "r_truncated_nested": (partial(series.r_truncated_nested, 2, "odd", 30, 500),
                           "R_odd", 2, 500, False),
    "s_odd": (partial(series.s_odd, 1, 30, 500), "S_odd", 1, 500, False),
    "s_even": (partial(series.s_even, 2, 30, 500), "S_even", 2, 500, False),
    "c_eta_route": (partial(c_eta_route, 3, 30), "eta-closed-form", 3, None, True),
    "c_cfn_route": (partial(c_cfn_route, 4, 30, 500), "cfn-series", 4, 500, False),
    "c_nested_route": (partial(c_nested_route, 5, 30, 500), "nested-series", 5, 500, False),
    **{f"compute_moment/{route}": (partial(compute_moment, 6, 30, route, 500), route, 6,
                                   500 if route.endswith("-series") else None,
                                   route == "eta-closed-form")
       for route in ROUTES},
}


@pytest.mark.parametrize("case", sorted(_RECORDS))
def test_every_value_is_one_record(case):
    call, name, index, truncation, closed = _RECORDS[case]
    v = call()
    assert type(v) is Evaluation
    assert (v.name, v.index, v.truncation) == (name, index, truncation)
    assert (v.error_bound is None) == closed
    assert isinstance(v.value, mpf)


def test_the_record_cases_cover_every_value_function_and_record_class():
    returns_a_value = {name for name in cotmoments.__all__
                       if inspect.isfunction(getattr(cotmoments, name))
                       and inspect.signature(getattr(cotmoments, name)).return_annotation
                       == "Evaluation"}
    assert returns_a_value == {case.split("/")[0] for case in _RECORDS}
    records = {obj for name, module in sys.modules.items() if name.startswith("cotmoments.")
               for obj in vars(module).values()
               if inspect.isclass(obj) and "error_bound" in inspect.get_annotations(obj)}
    assert records == {Evaluation}


# ---------------------------------------------------------------------------
# consequence identities
# ---------------------------------------------------------------------------

def test_consequences_all_pass():
    rep = verify_consequences(25, N=20000)
    assert rep.all_passed
    ids = {c.id for c in rep.checks}
    for i in (1, 2, 3, 4):
        assert f"consequence-{i}/nested-vs-closed" in ids
        assert f"consequence-{i}/quadrature-vs-closed" in ids
    assert "consequence-1/dimension-one" in ids
    for i in (2, 4):
        for z in ("0.25", "0.5", "0.75"):
            assert f"consequence-{i}/kernel/z={z}" in ids
    assert all(c.anchor for c in rep.checks)


def test_consequence_config_recorded():
    rep = verify_consequences(25, N=20000)
    assert rep.config["digits"] == 25
    assert rep.config["N"] == 20000


def _ci2_factory():
    # consequence 2 as the double integral
    # log(x0) log(x1) / (sqrt(1 - x0^2 x1^2) (1 - x1^2)); the x1 constants
    # are kept for the last x1 seen, and the x0 ones per x0
    last_x1 = log_ratio = q1 = None
    cache0 = {}

    def f(x0, da0, db0, x1, da1, db1):
        nonlocal last_x1, log_ratio, q1
        if x1 is not last_x1:
            q1 = db1 * (1 + x1)               # 1 - x1^2, exactly
            log_ratio = mp.log(x1) / q1
            last_x1 = x1
        pre0 = cache0.get(x0)
        if pre0 is None:
            pre0 = (mp.log(x0), db0 * (1 + x0), x0 * x0)
            cache0[x0] = pre0
        log0, lead, sq = pre0
        # 1 - x0^2 x1^2 = db0 (1 + x0) + x0^2 (1 - x1^2), exactly
        return log0 * log_ratio / mp.sqrt(lead + sq * q1)

    return f


def _ci4_factory():
    # consequence 4 as the double integral
    # asin^2(sqrt(x0 x1)) / (x0 x1) * log(x1)/(1 - x1)
    last_x1 = pre = None

    def f(x0, da0, db0, x1, da1, db1):
        nonlocal last_x1, pre
        if x1 is not last_x1:
            pre = mp.log(x1) / db1             # 1 - x1 = db1 exactly
            last_x1 = x1
        t = x0 * x1
        u = db0 + x0 * db1                     # 1 - x0 x1, exactly
        if t > moments._HALF:
            s = mp.pi / 2 - mp.asin(mp.sqrt(u))
        else:
            s = mp.asin(mp.sqrt(t))
        return s * s / t * pre

    return f


def _reduced(i, P):
    k1, k0 = moments._theta_kernels(P)
    f = partial(moments._ci2, k1) if i == 2 else partial(moments._ci4, k0)
    return integrate_1d(f, 0, 1, P)


@pytest.mark.parametrize("i,factory", [(2, _ci2_factory), (4, _ci4_factory)])
def test_2d_and_kernel_reduced_integrals_agree(i, factory):
    P = 30
    double = _reference_2d(factory(), P).value
    single = _reduced(i, P).value
    with mp.workdps(P + 10):
        assert abs(double - single) <= default_tolerance(P)


def test_consequences_use_no_2d_rule(monkeypatch):
    assert not hasattr(cotmoments, "integrate_2d_iterated")
    assert not hasattr(quadrature, "integrate_2d_iterated")
    evaluations = {}

    def counted(f, *args):
        res = integrate_1d(f, *args)
        name = getattr(getattr(f, "func", f), "__name__", "?")
        evaluations[name] = res.evaluations
        return res

    monkeypatch.setattr(moments, "integrate_1d", counted)
    monkeypatch.setattr(hpreal, "_values", {})  # the suite keeps its integrals
    # without os.fork every integral runs here, where the counts are kept
    monkeypatch.delattr(os, "fork", raising=False)
    rep = verify_consequences(30)
    assert rep.all_passed, [c.id for c in rep.failing()]
    # 131 each at P = 30; the 2-D rule took about 18,000 each
    assert 0 < evaluations["_ci2"] <= 300
    assert 0 < evaluations["_ci4"] <= 300


_THETA_SAMPLES = ("1e-9", "0.1", "0.5", "0.51", "0.9", "0.999999", "1")


@pytest.mark.parametrize("P", [30, 100, 300])
def test_theta_kernels_match_the_mpf_horner_reference(P):
    # both arcsine branches: z <= 1/2 takes asin z, z > 1/2 folds through 1 - z
    k1, k0 = moments._theta_kernels(P)
    r1, r0 = _reference_theta_kernels(P)
    with _working(P, quadrature._WORK_GUARD):
        tol = mpf(10) ** -(P + 10)
        for text in _THETA_SAMPLES:
            z = mpf(text)
            assert abs(k1(z, 1 - z) - r1(z, 1 - z)) <= tol, (text, "k1")
            assert abs(k0(z, 1 - z) - r0(z, 1 - z)) <= tol, (text, "k0")


def _constants_at(P):
    # eta from an empty cache, and the theta kernels at three samples
    values = [eta(s, P) for s in (1, 3, 5)]
    k1, k0 = moments._theta_kernels(P)
    with _working(P, quadrature._WORK_GUARD):
        for text in ("0.25", "0.75", "1"):
            z = mpf(text)
            values += [k1(z, 1 - z), k0(z, 1 - z)]
    return values


def test_fixed_point_constants_in_mixed_precision_threads_return_serial_values(monkeypatch):
    # both loops read their fixed-point bits from the precision of their scope
    monkeypatch.setattr(hpreal, "_values", {})
    serial = {P: _constants_at(P) for P in (15, 300)}
    monkeypatch.setattr(hpreal, "_values", {})
    precisions = (15, 300, 15, 300)
    results = {}

    def work(i, P):
        results[i] = _constants_at(P)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i, P))
                   for i, P in enumerate(precisions)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == {i: serial[P] for i, P in enumerate(precisions)}


_SERIES_NAMES = {"kernel_k0", "kernel_k1", "s_odd", "s_even", "nested_tail_sums"}


def test_reduced_integrands_share_nothing_with_the_series_route():
    # the theta-series kernels stand apart from the series layer's K1/K0,
    # or the kernel checks and the reduced integrals test it against itself
    tree = ast.parse(pathlib.Path(moments.__file__).read_text(encoding="utf-8"))
    scanned = {"_theta_kernels", "_ci2", "_ci4", "_log"}
    found, seen = [], set()
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef) and fn.name in scanned:
            seen.add(fn.name)
            for node in ast.walk(fn):
                name = getattr(node, "id", getattr(node, "attr", None))
                if name in _SERIES_NAMES:
                    found.append(f"{fn.name}:{node.lineno} {name}")
    assert seen == scanned
    assert found == []


# ---------------------------------------------------------------------------
# H-reduction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [0, 1, 2])
def test_h_reduction_rows(k):
    rep = verify_h_integral_reduction(k, 8, 20000, 30)
    assert rep.all_passed
    ids = {c.id for c in rep.checks}
    assert f"h1-reduction/k={k},j=1" in ids
    assert f"h0-reduction/k={k + 1},j=1" in ids


def test_h_reduction_validation():
    with pytest.raises(ValueError):
        verify_h_integral_reduction(4, 5, 10000, 30)
    with pytest.raises(ValueError):
        verify_h_integral_reduction(1, 0, 10000, 30)
    with pytest.raises(ValueError):
        verify_h_integral_reduction(1, 21, 10000, 30)


# ---------------------------------------------------------------------------
# generating-function identities at sampled points
# ---------------------------------------------------------------------------

def test_gf_identities_default_samples():
    rep = binomial_gf_identities(30)
    assert rep.all_passed
    ids = {c.id for c in rep.checks}
    assert "gf-sqrt/x=0.0" in ids
    assert "gf-arcsin2/x=0.9" in ids


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def test_suite_names_pinned():
    assert SUITES == ("all", "tables", "closed-forms", "consequences", "gf",
                      "routes", "h-reduction")


@pytest.mark.parametrize("name", [s for s in SUITES if s != "all"])
def test_each_suite_passes_at_modest_settings(name):
    rep = run_suite(name, P=25, N=8000)
    assert rep.all_passed, [c.id for c in rep.failing()]
    assert rep.pass_count > 0


def test_run_suite_all_merges_everything():
    rep = run_suite("all", P=20, N=4000)
    assert rep.all_passed
    ids = [c.id for c in rep.checks]
    assert len(ids) == len(set(ids))  # globally unique check ids
    prefixes = {i.split("/")[0].split("-")[0] for i in ids}
    assert {"table", "gf", "consequence", "route", "h1", "h0"} <= prefixes


_FROZEN_BODY = pathlib.Path(__file__).with_name("frozen_report_all_p30.json")


def test_run_suite_all_body_matches_the_frozen_copy():
    # A change that keeps every number keeps every byte of this body.  Refreeze
    # it only with a change that alters checks on purpose, and name them.
    body = run_suite("all", 30).to_json()
    frozen = _FROZEN_BODY.read_text(encoding="utf-8")
    new = {c["id"]: c for c in json.loads(body)["checks"]}
    old = {c["id"]: c for c in json.loads(frozen)["checks"]}
    changed = sorted(i for i in new.keys() | old.keys() if new.get(i) != old.get(i))
    assert body == frozen, f"check ids that differ: {changed}"


@pytest.mark.parametrize("P, digest", [
    (40, "207bd3ed34728bb6256f1eaa448bbcdf2e2366e44f7676f962397f927faa9180"),
    (100, "1ecc561308b131b37eb14f8f1dc16dd4819e14f135f62667093286eef51ac399"),
])
def test_run_suite_all_body_keeps_its_sha256(P, digest):
    # the frozen copy holds P = 30 byte for byte; a speed change that keeps
    # every number keeps these bodies too
    body = run_suite("all", P).to_json()
    assert hashlib.sha256(body.encode("utf-8")).hexdigest() == digest


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork here")
@pytest.mark.parametrize("suite", ["consequences", "routes", "all"])
def test_suite_body_is_the_same_with_and_without_fork(suite, monkeypatch):
    # with os.fork a child evaluates half of the suite's integrals
    # (hpreal._in_halves), and a sibling sweep; without it all runs here
    bodies, stores = [], []
    for fork in (True, False):
        monkeypatch.setattr(hpreal, "_values", {})
        if not fork:
            monkeypatch.delattr(os, "fork")
        bodies.append(run_suite(suite, 30).to_json())
        stores.append(hpreal._values)
    assert bodies[0] == bodies[1]
    # the store keeps the child's entries here too, sweeps included
    assert stores[0] == stores[1]
    integrals = {tag: sum(key[0] == tag for key in stores[0])
                 for tag in ("moment", "kernel", "consequence")}
    assert integrals == {"consequences": {"moment": 0, "kernel": 0, "consequence": 4},
                         "routes": {"moment": 8, "kernel": 8, "consequence": 0},
                         "all": {"moment": 8, "kernel": 8, "consequence": 4}}[suite]
    if suite == "all":
        # every entry is one that marshal writes, under one of seven tags
        assert marshal.loads(marshal.dumps(stores[0])) == stores[0]
        assert {key[0] for key in stores[0]} == {"eta", "moment", "kernel", "consequence",
                                                "cfn", "sums", "tails"}


def test_a_second_routes_suite_integrates_nothing(monkeypatch):
    # nor does a second consequences suite
    monkeypatch.setattr(hpreal, "_values", {})
    suites = ("routes", "consequences")
    first = [run_suite(suite, 30).to_json() for suite in suites]  # half of the integrals in a child
    calls = []
    engine = quadrature._tanh_sinh  # what integrate_1d and the cot integrand run

    def counted(*args):
        calls.append(args)
        return engine(*args)

    monkeypatch.setattr(quadrature, "_tanh_sinh", counted)
    monkeypatch.delattr(os, "fork")  # so every lookup of the second run is counted here
    assert [run_suite(suite, 30).to_json() for suite in suites] == first
    assert calls == []


@pytest.mark.parametrize("tol", [0, -1, "inf", "nan"])
def test_compute_moment_and_run_suite_refuse_a_bad_tol(tol):
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        compute_moment(3, 30, "quad", tol=tol)
    for suite in ("consequences", "routes"):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            run_suite(suite, 30, tol=tol)


@pytest.mark.parametrize("name", ["all", "h-reduction"])
def test_run_suite_refuses_an_n_too_small_for_h_reduction_before_any_suite(name, monkeypatch):
    # its tails run to j = 10, so N = 10 used to fail only after five suites
    monkeypatch.setattr(moments, "_SUITES", {})
    with pytest.raises(ValueError, match=r"needs N > 10"):
        run_suite(name, 30, 10)


def test_run_suite_rejects_unknown_name():
    with pytest.raises(ValueError):
        run_suite("everything-else")
