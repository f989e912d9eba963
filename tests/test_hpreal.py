"""High-precision constants against slow-but-sure rational oracles.

pi comes from Machin's formula and log 2 from 2*atanh(1/3), both evaluated in
exact Fraction arithmetic with explicit tail bounds, then compared as scaled
integers.  eta gets a brute-force alternating sum with one averaging step.
mpmath's own zeta/altzeta (different algorithms) serve as high-digit
cross-checks.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import marshal
import math
import os
import pathlib
import signal
import threading
import time
from contextlib import contextmanager
from fractions import Fraction as Fr
from functools import partial

import pytest
from mpmath import mp, mpf

import cotmoments
from cotmoments import hpreal, moments, quadrature, series
from cotmoments.hpreal import (
    _ACCEL_RATE,
    MIN_DIGITS,
    _from_child,
    _in_halves,
    _value,
    _working,
    eta,
    log2,
    pi,
    to_digits,
    zeta,
    zeta_even_closed,
)

# ---------------------------------------------------------------------------
# rational oracles
# ---------------------------------------------------------------------------


def _atan_rational(x: Fr, terms: int) -> Fr:
    """Leibniz series for atan; alternating, so |error| < next term."""
    acc = Fr(0)
    p = x
    for j in range(terms):
        acc += (-1) ** j * p / (2 * j + 1)
        p *= x * x
    return acc


def _atanh_rational(x: Fr, terms: int) -> Fr:
    acc = Fr(0)
    p = x
    for j in range(terms):
        acc += p / (2 * j + 1)
        p *= x * x
    return acc


def _scaled(value, digits: int) -> int:
    """Round value * 10^digits to an int (works for Fraction and mpf)."""
    if isinstance(value, Fr):
        return int(value * 10**digits + Fr(1, 2))
    with mp.workdps(digits + 20):
        return int(mp.nint(value * mpf(10) ** digits))


def test_pi_matches_machin_formula():
    # 16 atan(1/5) - 4 atan(1/239); 30 terms give error < 16*5^-61 ~ 4e-42
    oracle = 16 * _atan_rational(Fr(1, 5), 30) - 4 * _atan_rational(Fr(1, 239), 15)
    assert abs(_scaled(pi(40), 38) - _scaled(oracle, 38)) <= 1


def test_log2_matches_atanh_series():
    # log 2 = 2 atanh(1/3); 45 terms give error < 3^-91/(1-1/9) ~ 5e-44
    oracle = 2 * _atanh_rational(Fr(1, 3), 45)
    assert abs(_scaled(log2(40), 38) - _scaled(oracle, 38)) <= 1


def test_pi_digits_string():
    assert to_digits(pi(20), 20) == "3.1415926535897932385"


def test_log2_float_agreement():
    assert abs(float(log2(30)) - math.log(2.0)) < 1e-15


# ---------------------------------------------------------------------------
# eta: brute-force alternating oracle
# ---------------------------------------------------------------------------

def _eta_brute_averaged(s: int, N: int) -> float:
    """Partial sums S_N, S_{N+1} averaged once: error ~ s/2 * N^-(s+1)."""
    acc = 0.0
    for n in range(1, N + 1):
        acc += (-1) ** (n - 1) / n**s
    nxt = acc + (-1) ** N / (N + 1) ** s
    return 0.5 * (acc + nxt)


@pytest.mark.parametrize("s", [2, 3, 4, 5])
def test_eta_matches_brute_force(s):
    oracle = _eta_brute_averaged(s, 5000)
    assert abs(float(eta(s, 30)) - oracle) < 1e-10


def test_eta_one_is_log2():
    with mp.workdps(60):
        assert abs(eta(1, 50) - log2(50)) < mpf(10) ** -55


def test_eta_known_digits():
    # cross-checked against mpmath.altzeta (independent acceleration scheme)
    assert to_digits(eta(3, 30), 30) == "0.901542677369695714049803621134"
    with mp.workdps(45):
        for s in (2, 3, 5, 7, 11):
            assert abs(eta(s, 40) - mp.altzeta(s)) < mpf(10) ** -39


@pytest.mark.parametrize("P", [10, 30, 100, 300])
@pytest.mark.parametrize("s", [1, 2, 3, 17, 41])
def test_eta_matches_altzeta_at_twice_the_digits(s, P):
    v = eta(s, P)
    with mp.workdps(2 * P):
        ref = mp.altzeta(s)
        assert abs(v - ref) <= ref * mpf(10) ** -(P + 8)


def test_eta_weight_recurrence_divides_exactly():
    # eta's integer weights b_(k+1) = b_k 2(k+n)(k-n) / ((2k+1)(k+1)), for
    # the term count n of every precision up to 1000 digits
    terms = {math.ceil((P + 8) * math.log(10) / _ACCEL_RATE) + 3
             for P in range(MIN_DIGITS, 1001)}
    for n in sorted(terms):
        b = -1
        for k in range(n):
            b, rest = divmod(b * 2 * (k + n) * (k - n), (2 * k + 1) * (k + 1))
            assert rest == 0, (n, k)
        # b_n = (-1)^(n+1) 2^(2n-1), the leading coefficient of -T_n(1 - 2x)
        assert b == (-1) ** (n + 1) * 2 ** (2 * n - 1), n


def test_eta_approaches_one():
    v = eta(20, 30)
    assert 0.999999 < float(v) < 1.0


def test_eta_cost_stays_bounded_in_s():
    # a term whose (k+1)^s dwarfs the numerator floors without the power;
    # eta(10^9) is 1 - 2^(-10^9), so 1 to every digit asked for
    start = time.perf_counter()
    v = eta(10 ** 9, 30)
    assert time.perf_counter() - start < 5
    assert to_digits(v, 30) == "1." + "0" * 29
    assert abs(v - 1) <= mpf(10) ** -(30 + 8)


def test_eta_monotone_in_s():
    vals = [float(eta(s, 25)) for s in range(2, 12)]
    assert vals == sorted(vals)
    assert float(eta(1, 25)) < vals[0]  # log 2 below eta(2)


def test_eta_rejects_bad_arguments():
    with pytest.raises(ValueError):
        eta(0, 30)
    with pytest.raises(ValueError):
        eta(3, 5)  # precision floor is 10 digits


@pytest.mark.parametrize("fn, s", [(eta, 1.5), (eta, 3.0), (eta, True), (zeta, 2.5), (zeta, 3.0),
                                   (zeta, True)])
def test_eta_and_zeta_reject_a_non_integer_s(fn, s):
    # (k+1)^s would be a float, good to about 15 digits whatever P is,
    # eta(3.0, P) would share the cache key of eta(3, P), and eta(True, P)
    # returned log 2
    with pytest.raises(ValueError, match=rf"need an integer s, got s={s!r}"):
        fn(s, 30)


# ---------------------------------------------------------------------------
# zeta
# ---------------------------------------------------------------------------

def test_zeta_against_mpmath():
    with mp.workdps(45):
        for s in (2, 3, 4, 5, 7, 10):
            assert abs(zeta(s, 40) - mp.zeta(s)) < mpf(10) ** -38


def test_zeta_even_closed_form_agreement():
    """Two in-package routes: eta rescaling vs Bernoulli closed form."""
    with mp.workdps(55):
        for s in (2, 4, 6, 8, 10, 12):
            assert abs(zeta(s, 50) - zeta_even_closed(s, 50)) < mpf(10) ** -47


def test_zeta_two_known_value():
    with mp.workdps(40):
        assert abs(zeta(2, 35) - pi(35) ** 2 / 6) < mpf(10) ** -33


def test_zeta_rejects_s_below_two():
    with pytest.raises(ValueError):
        zeta(1, 30)
    with pytest.raises(ValueError):
        zeta_even_closed(3, 30)


def test_zeta_even_closed_rejects_a_float_s():
    # the Bernoulli table takes an integer index; 4.0 must not reach it, and
    # a bool is refused as a non-integer
    with pytest.raises(ValueError, match=r"zeta_even_closed: need an integer s, got s=4\.0"):
        zeta_even_closed(4.0, 30)
    with pytest.raises(ValueError, match=r"zeta_even_closed: need an integer s, got s=True"):
        zeta_even_closed(True, 30)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def test_to_digits_keeps_trailing_zeros():
    s = to_digits(mpf(2), 12)
    assert s.startswith("2.0000000000")


def test_values_are_cached():
    a = eta(3, 30)
    b = eta(3, 30)
    assert a == b
    assert pi(25) == pi(25)


def test_one_precision_scope_in_the_package():
    # mpmath's precision is process-global: only hpreal._working may set it,
    # under the package's single lock
    package = pathlib.Path(cotmoments.__file__).parent
    rlocks = 0
    for path in sorted(package.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        rlocks += text.count("RLock(")
        if path.name != "hpreal.py":
            assert "mp.workdps(" not in text, path.name
            assert "threading" not in text, path.name
            # the tolerance rules that take the lock live in hpreal too
            assert "_PRECISION_LOCK" not in text, path.name
    assert rlocks == 1


def _at(fn, *args):
    """fn(*args, P) as a function of P."""
    return lambda P: fn(*args, P)


# Every public function that takes P, with otherwise valid arguments: the
# constants, the quadrature, the series layer, the routes and the suites,
# with compute_moment once per route and run_suite once per suite.
_ENTRY_POINTS = {
    "pi": pi, "log2": log2, "eta": _at(eta, 3), "zeta": _at(zeta, 3),
    "zeta_even_closed": _at(zeta_even_closed, 4),
    "integrate_1d": lambda P: quadrature.integrate_1d(lambda x, da, db: x, 0, 1, P),
    "moment_quadrature": _at(quadrature.moment_quadrature, 2),
    "r_odd": _at(series.r_odd, 1), "r_even": _at(series.r_even, 1),
    "r_via_partitions": _at(series.r_via_partitions, 2, "odd"),
    "a1": _at(series.a1, 1), "a0": _at(series.a0, 1),
    "a1_via_recurrence": _at(series.a1_via_recurrence, 2),
    "a0_via_recurrence": _at(series.a0_via_recurrence, 2),
    "r_truncated_nested": lambda P: series.r_truncated_nested(1, "odd", P, 100),
    "s_odd": lambda P: series.s_odd(0, P, 100),
    "s_even": lambda P: series.s_even(0, P, 100),
    "nested_tail_sums": lambda P: series.nested_tail_sums("odd", 1, 2, 100, P),
    "kernel_k1": _at(series.kernel_k1, "0.5"),
    "kernel_k0": _at(series.kernel_k0, "0.5"),
    "c_eta_route": _at(moments.c_eta_route, 3),
    "c_cfn_route": lambda P: moments.c_cfn_route(3, P, 100),
    "c_nested_route": lambda P: moments.c_nested_route(3, P, 100),
    "verify_consequences": lambda P: moments.verify_consequences(P, 100),
    "verify_h_integral_reduction": lambda P: moments.verify_h_integral_reduction(1, 2, 100, P),
    "binomial_gf_identities": moments.binomial_gf_identities,
    **{f"compute_moment/{route}": lambda P, route=route: moments.compute_moment(3, P, route, 100)
       for route in moments.ROUTES},
    **{f"run_suite/{suite}": lambda P, suite=suite: moments.run_suite(suite, P, 100)
       for suite in moments.SUITES},
}


def test_entry_point_list_is_complete():
    # every public function that takes P, bar the two that enter no
    # precision scope: the tolerance rule and the formatter
    public = {name: getattr(cotmoments, name) for name in cotmoments.__all__}
    takes_p = {name for name, obj in public.items()
               if inspect.isfunction(obj) and "P" in inspect.signature(obj).parameters}
    covered = {name.split("/")[0] for name in _ENTRY_POINTS}
    assert takes_p - {"default_tolerance", "to_digits"} <= covered
    assert len(_ENTRY_POINTS) == 37


def test_every_layer_defines_the_names_in_its_all():
    # the span tracer in bench/spans.py wraps a layer's __all__ names only
    # where that layer defines them, so a re-exported function goes untraced
    spans = pathlib.Path(__file__).parents[1] / "bench" / "spans.py"
    layers = next(ast.literal_eval(node.value) for node in ast.parse(spans.read_text()).body
                  if isinstance(node, ast.Assign) and node.targets[0].id == "LAYERS")
    foreign = []
    for layer in layers:
        module = importlib.import_module(f"cotmoments.{layer}")
        for name in module.__all__:
            obj = getattr(module, name)
            if (inspect.isfunction(obj) or inspect.isclass(obj)) \
                    and obj.__module__ != module.__name__:
                foreign.append(f"{layer}.{name}")
    assert len(layers) == 8
    assert foreign == []


@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
def test_every_entry_point_refuses_too_few_digits(name):
    with pytest.raises(ValueError, match=r"^precision must be >= 10 digits, got 9$"):
        _ENTRY_POINTS[name](MIN_DIGITS - 1)


# ---------------------------------------------------------------------------
# _from_child: one value from a forked child
# ---------------------------------------------------------------------------

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork here")


@contextmanager
def _deadline(seconds):
    """Fail, instead of hanging, if the block takes longer than seconds."""
    def expired(signum, frame):
        raise AssertionError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _raise():
    raise RuntimeError("the sibling failed")


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_from_child_returns_the_serial_values():
    # a cfn pair and an S-sums pair (lists of ints) and an S-tails pair (a
    # dict of lists)
    for sweep, own, other in ((moments._cfn_sweep, (1, 2), (0, 3)),
                              (series._sums_sweep, ("odd", 2), ("even", 2)),
                              (series._tails_sweep, ("even", 2), ("odd", 2))):
        own, other = partial(sweep, *own, 3000, 140), partial(sweep, *other, 3000, 140)
        with _from_child(lambda: (other(),)) as fetch:
            pair = own(), fetch()
        assert pair == (own(), (other(),))


@needs_fork
@pytest.mark.parametrize("other", [_raise, lambda: os.kill(os.getpid(), signal.SIGKILL),
                                   lambda: (object(),)], ids=["raises", "killed", "unmarshallable"])
def test_a_failed_child_gives_none_and_keeps_the_parents_value(other):
    with _from_child(other) as fetch:
        pair = 41 + 1, fetch()
    assert pair == (42, None)


class _Longer(bytes):
    """A marshal piece whose length prefix promises twice its bytes."""

    def __len__(self):
        return 2 * bytes.__len__(self)


@needs_fork
def test_a_record_cut_short_gives_none(monkeypatch):
    # the record is cut inside a piece, between two pieces, or has a piece
    # that does not parse
    dumps = marshal.dumps
    for cut in ("mid-piece", "between-pieces", "unparsable-piece"):
        def cut_short(value):  # the child inherits this marshal.dumps
            whole = dumps(value)
            if cut == "mid-piece":
                return _Longer(whole)
            if cut == "unparsable-piece":
                return whole[: len(whole) // 2]
            if value == "x" * 100:
                # the first piece, larger than the file buffer, is in the pipe
                os.kill(os.getpid(), signal.SIGKILL)
            return whole

        monkeypatch.setattr(marshal, "dumps", cut_short)
        with _from_child(lambda: (1 << 100_000, "x" * 100, (2, 3))) as fetch:
            assert fetch() is None, cut


@needs_fork
def test_a_failed_sibling_sweep_stays_uncached(monkeypatch):
    sweep = moments._cfn_sweep

    def odd_only(parity, *args):
        if parity == 0:  # the sibling, in the child
            raise RuntimeError("the sibling failed")
        return sweep(parity, *args)

    monkeypatch.setattr(hpreal, "_values", {})
    expected = moments.c_cfn_route(1, 30, 2000)
    monkeypatch.setattr(hpreal, "_values", {})
    monkeypatch.setattr(moments, "_cfn_sweep", odd_only)
    assert moments.c_cfn_route(1, 30, 2000) == expected
    assert list(hpreal._values) == [("cfn", 1, 2000, 140)]


@needs_fork
@pytest.mark.parametrize("other", [lambda: (bytes(1 << 20),), lambda: time.sleep(600)],
                         ids=["larger-than-the-pipe", "never-ends"])
def test_own_raising_reraises_and_leaves_no_child(other):
    with _deadline(60):
        with pytest.raises(KeyError, match="own failed"):
            with _from_child(other):
                time.sleep(0.2)  # the child is now blocked on the full pipe, or asleep
                raise KeyError("own failed")
    _no_child_left()


@needs_fork
def test_from_child_reaps_a_child_left_unread():
    with _deadline(60):
        start = time.perf_counter()
        with _from_child(lambda: time.sleep(600)):
            pass
        assert time.perf_counter() - start < 30
    _no_child_left()


@needs_fork
def test_a_large_value_round_trips_intact():
    # about 400 KB, far more than a pipe holds; no two strings are equal, so
    # marshal writes each in full
    value = [[i, f"{i:08d}" * 16] for i in range(3000)]
    assert len(marshal.dumps(value)) > 400_000
    with _deadline(60):
        with _from_child(lambda: (value, os.getpid())) as fetch:
            got, pid = fetch()
    assert got == value
    assert pid != os.getpid()
    _no_child_left()


def _fork_fails():
    raise OSError("fork: resource temporarily unavailable")


@pytest.mark.parametrize("no_fork", ["raises", "missing"])
def test_without_fork_only_the_asked_for_sweep_runs_here(no_fork, monkeypatch):
    cfn_sweep, sums_sweep = moments._cfn_sweep, series._sums_sweep
    monkeypatch.setattr(hpreal, "_values", {})
    expected = moments.c_cfn_route(1, 30, 2000), series.s_even(0, 30, 2000)
    if no_fork == "raises":
        monkeypatch.setattr(os, "fork", _fork_fails)
    else:
        monkeypatch.delattr(os, "fork", raising=False)
    with _from_child(lambda: (42,)) as fetch:
        assert fetch() is None
    calls = []

    def counted(sweep, *args):
        calls.append((os.getpid(), *args[:2]))
        return sweep(*args)

    monkeypatch.setattr(hpreal, "_values", {})
    monkeypatch.setattr(moments, "_cfn_sweep", partial(counted, cfn_sweep))
    monkeypatch.setattr(series, "_sums_sweep", partial(counted, sums_sweep))
    assert (moments.c_cfn_route(1, 30, 2000), series.s_even(0, 30, 2000)) == expected
    assert calls == [(os.getpid(), 1, 2), (os.getpid(), "even", 2)]
    assert hpreal._values == {("cfn", 1, 2000, 140): (2, cfn_sweep(1, 2, 2000, 140)),
                              ("sums", "even", 2000, 140): (2, sums_sweep("even", 2, 2000, 140))}


def _reciprocal(k):
    # an mpf that no cache holds, at a precision no caller runs at
    with _working(37):
        return mpf(1) / k


def _pid():
    return mpf(os.getpid())


def _kept(key, compute):
    # compute()'s value, kept in the store under ("test", key)
    with _working(30):
        return _value(("test", key), compute)


def _stored_pid(key):
    # the pid of the process that first computes key, kept in the store
    return _kept(key, _pid)


def _stored(key):
    return mp.make_mpf(hpreal._values["test", key])


@needs_fork
def test_in_halves_returns_the_serial_values_in_order(monkeypatch):
    monkeypatch.setattr(hpreal, "_values", {})
    serial = [_reciprocal(k)._mpf_ for k in range(3, 10)]
    with _deadline(60):
        # the child takes 4 of 7
        assert _in_halves([partial(_kept, k, partial(_reciprocal, k)) for k in range(3, 10)]) is None
        _in_halves([partial(_stored_pid, "a"), partial(_stored_pid, "b"),
                    partial(_stored_pid, "c")])
    keys = [("test", k) for k in range(3, 10)]
    assert list(hpreal._values)[:7] == keys
    assert [hpreal._values[key] for key in keys] == serial
    assert _stored("a") == os.getpid()
    assert _stored("b") == _stored("c") != os.getpid()
    _no_child_left()


@needs_fork
def test_in_halves_evaluates_a_failed_childs_half_here(monkeypatch):
    parent = os.getpid()
    monkeypatch.setattr(hpreal, "_values", {})

    def here_only(k):
        if os.getpid() != parent:
            raise RuntimeError("the child failed")
        return _reciprocal(k)

    reads = [partial(_kept, k, partial(here_only, k)) for k in range(3, 7)]
    with _deadline(60):
        _in_halves(reads)
        assert list(hpreal._values) == [("test", 3), ("test", 4)]
        # the reads compute the failed child's half here
        assert [read()._mpf_ for read in reads] == [_reciprocal(k)._mpf_ for k in range(3, 7)]
        # a work that fails in both processes raises here, when it is read
        reads = [partial(_kept, "three", partial(_reciprocal, 3)), partial(_kept, "fails", _raise)]
        _in_halves(reads)
        with pytest.raises(RuntimeError, match="the sibling failed"):
            reads[1]()
    assert ("test", "fails") not in hpreal._values
    _no_child_left()


@needs_fork
def test_in_halves_merges_the_entries_that_the_child_added(monkeypatch):
    monkeypatch.setattr(hpreal, "_values", {})
    works = [partial(_stored_pid, "here"), partial(eta, 3, 30),
             partial(_stored_pid, "there"), partial(eta, 5, 30)]
    with _deadline(60):
        _in_halves(works)
    stored = hpreal._values
    assert list(stored) == [("test", "here"), ("eta", 3, 30), ("test", "there"), ("eta", 5, 30)]
    assert _stored("here") == os.getpid() != _stored("there")  # the child's own entry
    with _working(30):
        assert stored["eta", 5, 30] == hpreal._eta_sum(5, 30)._mpf_
    _no_child_left()


@needs_fork
def test_in_halves_sends_back_no_entry_that_the_child_only_read(monkeypatch):
    read = ("test", "read")
    monkeypatch.setattr(hpreal, "_values", {read: mpf(1)._mpf_})
    popped = []

    def unread():  # here, after the fork: the entry leaves this store only
        popped.append(hpreal._values.pop(read))

    def reads():
        return _value(read, partial(mpf, 3))

    with _deadline(60):
        _in_halves([unread, partial(_kept, "there", reads)])
    assert popped == [mpf(1)._mpf_]
    # the child read 1, stored it under a key of its own and sent only that
    assert hpreal._values == {("test", "there"): mpf(1)._mpf_}
    _no_child_left()


@needs_fork
@pytest.mark.parametrize("fails", ["raises", "killed"])
def test_a_failed_child_merges_nothing_and_its_half_is_stored_here(fails, monkeypatch):
    parent = os.getpid()
    monkeypatch.setattr(hpreal, "_values", {})

    def child_fails():
        if os.getpid() != parent:
            if fails == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("the child failed")
        return mpf(0)

    works = [partial(_stored_pid, "here"), partial(_stored_pid, "there"), child_fails]
    with _deadline(60):
        _in_halves(works)
    assert list(hpreal._values) == [("test", "here")]
    assert [work() for work in works] == [parent, parent, 0]
    assert hpreal._values == {("test", "here"): mpf(parent)._mpf_,
                              ("test", "there"): mpf(parent)._mpf_}
    _no_child_left()


def _fd_paths():
    """name -> a call that takes the fork helper down one of its paths."""
    def caller_raises():
        with pytest.raises(KeyError):
            with _from_child(lambda: 1):
                raise KeyError("own failed")

    def in_halves_failed_child():
        parent = os.getpid()

        def here_only():
            if os.getpid() != parent:
                raise RuntimeError("the child failed")
            return _reciprocal(5)

        _in_halves([partial(_reciprocal, 3), here_only])
        assert here_only() == _reciprocal(5)

    def level_split():
        assert quadrature.integrate_1d(lambda x, da, db: mp.cos(x), 0, 1, 30).levels > 2

    def fetched(work, want):
        def run():
            with _from_child(work) as fetch:
                assert fetch() == want
        return run

    return {
        "value": fetched(lambda: (42, [1 << 900]), (42, [1 << 900])),
        "child-raises": fetched(_raise, None),
        "child-killed": fetched(lambda: os.kill(os.getpid(), signal.SIGKILL), None),
        "caller-raises": caller_raises,
        "in-halves-failed-child": in_halves_failed_child,
        "level-split": level_split,
        "fork-raises": fetched(lambda: (42,), None),
    }


@needs_fork
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd here")
@pytest.mark.parametrize("path", list(_fd_paths()))
def test_the_fork_helper_leaves_no_descriptor_open(path, monkeypatch):
    # a raw os.pipe descriptor left open raises no ResourceWarning, so count
    # this process's descriptors around each path
    monkeypatch.setattr(quadrature, "_SPLIT_AFTER_S", 0.0)  # split every level
    if path == "fork-raises":
        monkeypatch.setattr(os, "fork", _fork_fails)
    run = _fd_paths()[path]
    run()  # the first run may open what stays open, such as a lazy import
    before = len(os.listdir("/proc/self/fd"))
    with _deadline(60):
        run()
    assert len(os.listdir("/proc/self/fd")) == before
    _no_child_left()


def test_in_halves_with_a_second_thread_runs_every_work_here(monkeypatch):
    def no_fork():
        raise AssertionError("forked while another thread runs")

    serial = [_reciprocal(k)._mpf_ for k in range(3, 7)]
    monkeypatch.setattr(hpreal, "_values", {})
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    reads = [partial(_kept, k, partial(_reciprocal, k)) for k in range(3, 7)]
    pids = [partial(_stored_pid, "a"), partial(_stored_pid, "b")]
    try:
        _in_halves(reads)
        _in_halves(pids)
        # no child: the back halves are left to the reads, which run here
        assert list(hpreal._values) == [("test", 3), ("test", 4), ("test", "a")]
        assert [read()._mpf_ for read in reads] == serial
        assert [pid() for pid in pids] == [os.getpid()] * 2
    finally:
        release.set()
        other.join()


@needs_fork
def test_in_halves_reraises_the_front_halfs_error_and_reaps_the_child():
    def fails():
        time.sleep(0.2)  # the child is now asleep
        raise KeyError("front failed")

    def sleeps():
        time.sleep(600)
        return mpf(1)

    with _deadline(60):
        with pytest.raises(KeyError, match="front failed"):
            _in_halves([fails, sleeps])
    _no_child_left()


def test_one_function_forks_pipes_kills_and_reaps():
    # the suite halves (and through them the sibling sweep) and the
    # quadrature level split share one process path, and the wire format
    # has one home
    package = pathlib.Path(cotmoments.__file__).parent
    process_calls = {"fork", "pipe", "kill", "waitpid", "_exit"}
    users, callers = set(), set()
    for path in sorted(package.glob("*.py")):
        # each top-level statement, so a function nested in one counts as it
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            where = f"{path.name}:{getattr(stmt, 'name', '<module>')}"
            for node in ast.walk(stmt):
                named = (node.attr if isinstance(node, ast.Attribute)
                         and getattr(node.value, "id", None) == "os"
                         else node.value if isinstance(node, ast.Constant) else None)
                if named in process_calls or getattr(node, "id", None) == "marshal":
                    users.add(where)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_from_child":
                    callers.add(where)
    assert users == {"hpreal.py:_from_child"}
    assert callers == {"hpreal.py:_in_halves", "quadrature.py:_level_contributions"}
