"""Doubly-exponential (tanh-sinh) quadrature with exact endpoint offsets.

The substitution x = c + r*tanh((pi/2)*sinh t) clusters nodes doubly
exponentially at both endpoints, which makes the rule spectrally accurate
for integrands with endpoint singularities of algebraic-logarithmic type —
exactly what the cotangent moments and their consequence identities need.

Integrands are called as ``f(x, da, db)`` where ``da`` and ``db`` are the
distances to the left and right endpoints.  These are computed *exactly*
(node offsets are generated as 1 - tanh(u) = 2e/(1+e) with e = exp(-2u),
never by subtracting x from the endpoint), so an integrand with a singular
factor at an endpoint can evaluate it stably, e.g. ``cot(da/2)`` for
cot(x/2) at 0, or ``mp.log(da)`` for log(x) at 0.

Each node costs one exponential.  With E = exp(t), u = (pi/2) sinh t is
(pi/4)(E - 1/E), and the weight (pi/2) cosh t / cosh^2 u is
(pi/4)(E + 1/E) * 4e/(1+e)^2, since cosh^2 u = (1+e)^2/(4e).  Within a
level t advances by a fixed step, so E is stepped by one multiplication,
30 bits above the working precision; ``_build_level`` bounds the error.

Levels halve the mesh in t; level L contributes the odd multiples of
2^-L.  The trapezoidal sums S_L then satisfy S_L = S_{L-1}/2 + h*(new),
and successive gaps |S_L - S_{L-1}| shrink roughly quadratically in the
exponent once the rule resolves the integrand.  A non-finite value is
caught by testing the level's sum, which any non-finite contribution
leaves non-finite, before the level is used.

The engine (``_tanh_sinh``) runs on ``_mpf_`` tuples with ``mpmath.libmp``:
its node tables, level loop, tail cut and split record.  Each operation is
the one that the ``mpf`` operators make, at the working precision with
round-nearest, so every value is bit for bit that of the same formulas in
``mpf``s, without their overhead per node.  It calls a pair function of a
node's offset, which returns f(a + near) + f(b - near) as an ``_mpf_``, low
node first, with near = r*offset the distance of both nodes from their own
endpoints; at the centre (offset 1) there is one node, and it returns that
node's value.  ``integrate_1d`` makes the pair function of an ``mpf``
integrand.

The node pairs of a level are independent, so a costly level runs on two
cores (Bailey and Borwein, "Highly parallel, high-precision numerical
integration", 2008).  When the level before took at least
``_SPLIT_AFTER_S``, the second half of the level's pairs is evaluated in a
child made by ``os.fork`` (``hpreal._from_child``), up to the child's own
tail cut, while this process evaluates the first half.  The child sends
its contributions back exactly, as a list of ``_mpf_`` tuples.  They are
still summed here, one at a time, in node order, by the serial loop with
its tail cut: the first half as it is evaluated, then the child's list,
then the pairs past its end, evaluated here.  The child's cut starts from
a fresh state, so it never comes before the serial cut when that falls in
its half, and the loop reaches past the list only when the child sent
none (it failed, or there is no fork).  So the same additions of the
same values happen in the same order: the value, the deltas, the levels
and the evaluation count (the pairs the loop used) are bit-for-bit those
of the serial rule, and an integrand that raises or returns a non-finite
value fails at the same node and level.  No child outlives its level.

At high precision a level's nodes cost about as much to build as to
evaluate, so a split level that the node table lacks is built in the same
two halves: the front half here, the back half in the child, which sends
its nodes in the record that carries its contributions.  ``_build_level``
steps to the back half's first node with one multiplication and one
addition per node, so each half is bit for bit the slice of the level
built whole.  The level joins the table only once it is whole: with no
record (the child failed, or there is no fork) this process builds the
back half itself, and when the tail cut falls in the front half it still
reads the record.  A level that is not split is built here before its
evaluation is timed, so building a table does not by itself make the next
level split.

The rule is one-dimensional; the consequence identities' double integrals
reach it already reduced to 1-D integrals of theta-series kernels
(moments.py).

The package's one cot integrand is ``_cot_moment``, int_0^b t^m cot t dt
for 0 < b <= pi/2: C(m) is 2^m/m! times it at b = pi/2, and the series
layer's kernel integrals are z K1(z) and K0(z)/2.  Its pair function takes
one cos_sin per node pair.  Every integral over [0, pi/2] at one working
precision takes cot at the same nodes, and only t^m depends on m; C(m),
K1(1) and K0(1) are such integrals.  So each node table keeps a cot
column beside its levels: the q = cot(near) of each node pair of an
integral over [0, pi/2], under the table's own offset tuple.  The first
such integral that reaches a node fills it, and every later one reads it;
a split level's child sends the q's that it computed in its record, and
they join the column here.  A q is the same value wherever and whenever it
is computed, so no result depends on what the column holds.  No check
compares two values that share the column: the quadrature route is
checked against the eta route, K1(1) against (pi/2) log 2 and K0(1)
against the eta route's C(2), and the nested route never calls the kernel
integrals.  At z < 1 a kernel integral's upper limit is not pi/2, and it
neither reads nor fills the column.

``moment_quadrature`` keeps its finished value in the package's one store
(``hpreal._value``) per (m, P, tol), with tol the mpf that the tolerance
rule makes of the caller's tol (or the default for P) at the working
precision.  So a repeated moment costs one lookup, and returns the value
of the first call.  A call that raises (``QuadratureError``,
``ValueError``) keeps nothing, so its repeat runs the rule again and
raises again.  The engine itself caches only its node tables and their
cot columns.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from functools import cache, partial
from itertools import islice
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from mpmath import mp, mpf
from mpmath.libmp import (finf, fnan, fninf, fone, ftwo, fzero, mpf_abs, mpf_add,
                          mpf_cos_sin, mpf_div, mpf_exp, mpf_ge, mpf_le, mpf_lt, mpf_mul,
                          mpf_pi, mpf_pos, mpf_pow_int, mpf_shift, mpf_sub, round_nearest)

from .hpreal import _from_child, _integer, _tolerance, _value, _working

__all__ = [
    "QuadratureResult",
    "QuadratureError",
    "integrate_1d",
    "moment_quadrature",
]

# extra working digits on top of the requested P
_WORK_GUARD = 15
# guard bits of the moment and kernel integrands' cos_sin, so that c/s and
# s/c round once at the working precision
_TRIG_GUARD_BITS = 10
# refinement levels are capped; hitting the cap raises QuadratureError
_DEFAULT_LEVEL_CAP = 12
# a level is split across two processes when the one before it took this
# long (perf_counter seconds): one fork round-trip costs about 2.5 ms on a
# 2-core Xeon host, and a level has about twice the nodes of the one before
_SPLIT_AFTER_S = 0.008

IntegrandFn = Callable[..., mpf]
# an _mpf_ tuple (sign, mantissa, exponent, bitcount)
Raw = tuple
# a node pair's (offset, weight)
Node = Tuple[Raw, Raw]
PairFn = Callable[[Raw], Raw]

_NON_FINITE = (finf, fninf, fnan)


class QuadratureResult(NamedTuple):
    value: mpf
    error_estimate: mpf
    levels: int
    evaluations: int
    deltas: Tuple[mpf, ...] = ()


class QuadratureError(Exception):
    """Raised when the level cap is reached before the tolerance is met, or
    when the tolerance is below what the working precision resolves."""

    def __init__(self, message: str, best: Optional[mpf] = None,
                 gap: Optional[mpf] = None, levels: int = 0):
        super().__init__(message)
        self.best = best
        self.gap = gap
        self.levels = levels


# ---------------------------------------------------------------------------
# node tables
#
# Cached per (working dps, truncation range) and built at that dps: callers
# hold the precision scope.  An entry is (levels, column).  levels[L] is the
# list of (offset, weight) pairs new at level L, as _mpf_ tuples, offset =
# 1 - tanh((pi/2) sinh t), one exponential each; ``_tanh_sinh`` appends each
# level, whole, when it first reaches it, and a split level is built in
# halves, one in a forked child.  column is the cot column of the integrals
# over [0, pi/2]: q = cot(near) under each node's offset tuple (see
# ``_cot_moment``).  The centre's offset is fone at every precision, so a
# column belongs to its table.
# ---------------------------------------------------------------------------

_NODE_CACHE: Dict[Tuple[int, int], Tuple[List[List[Node]], Dict[Raw, Raw]]] = {}


def _build_level(level: int, tmax: mpf, start: int = 0,
                 stop: Optional[int] = None) -> List[Node]:
    """The (offset, weight) pairs new at ``level`` with index in [start,
    stop) (to the last node, t <= tmax, if stop is None), as ``_mpf_``
    tuples at the working precision, at one exponential per node.  Index 0
    is the first node: t = 0, the centre, at level 0, and t = 2^-L at level
    L >= 1; ``_level_size`` counts a level's nodes.

    With E = exp(t), sinh t = (E - 1/E)/2 and cosh t = (E + 1/E)/2.  With
    e = exp(-2u), u = (pi/2) sinh t, and cosh^2 u = (1+e)^2/(4e):

        offset = 1 - tanh u = 2e/(1+e),
        weight = (pi/2) cosh t / cosh^2 u = (pi/2) cosh t * 4e/(1+e)^2.

    t advances by a fixed step d (1 at level 0, 2^(1-L) at level L >= 1), so
    E is stepped by multiplying with exp(d).  The level is computed 30 bits
    above the working precision, and each value is rounded once.  A level
    has at most tmax*2^(L-1) < 2^15 nodes (L <= 12, and tmax <= 7.5 at the
    default tolerance up to P = 1000), so the stepped E is within 2^-15
    working ulps, relative.  At small t, E - 1/E cancels and scales that by
    coth t < 1/t, but E has taken only about t/d steps there, and t >= d/2;
    so sinh t stays within 2^-15 ulps too.  e = exp(-2u) turns that into
    (1 + 2u)*2^-15 ulps, and offsets and weights are within
    1/2 + (1 + 2u)*2^-14 ulps of the exact values.

    E and t always step from index 0, also over the nodes before start,
    with the same multiplication and addition and no exponential.  So a
    node's E and t, and with them its offset and weight, are bit for bit
    the same whatever range it is built in, and a level built in pieces
    equals the level built whole.

    Each ``mpmath.libmp`` operation is rounded to nearest as ``mpf``
    arithmetic rounds it, so every value is bit for bit what the same
    formulas give in ``mpf``s.  The centre's offset is ``fone`` itself.
    """
    pairs: List[Node] = []
    stop = math.inf if stop is None else stop
    prec = mp.prec
    rnd = round_nearest
    if level == 0:
        # integer abscissas, starting at the center node t = 0 where the
        # offset is exactly 1 (x is the midpoint)
        if start == 0 < stop:
            pairs.append((fone, mpf_shift(mpf_pi(prec, rnd), -1)))
        index = 1
        t = step = mpf(1)
    else:
        index = 0
        step = mpf(2) ** (1 - level)
        t = step / 2
    wp = prec + 30
    half_pi = mpf_shift(mpf_pi(wp, rnd), -1)
    quarter_pi = mpf_shift(half_pi, -1)
    grow = mpf_exp(step._mpf_, wp, rnd)
    et = mpf_exp(t._mpf_, wp, rnd)
    t, step, tmax = t._mpf_, step._mpf_, tmax._mpf_
    for _ in range(index, start):
        et = mpf_mul(et, grow, wp, rnd)
        t = mpf_add(t, step, wp, rnd)
    index = max(index, start)
    while index < stop and mpf_le(t, tmax):
        inv = mpf_div(fone, et, wp, rnd)
        e = mpf_exp(mpf_mul(half_pi, mpf_sub(inv, et, wp, rnd), wp, rnd), wp, rnd)
        d = mpf_div(ftwo, mpf_add(fone, e, wp, rnd), wp, rnd)
        offset = mpf_mul(e, d, wp, rnd)
        weight = mpf_mul(quarter_pi, mpf_add(et, inv, wp, rnd), wp, rnd)
        weight = mpf_mul(mpf_mul(weight, offset, wp, rnd), d, wp, rnd)
        pairs.append((mpf_pos(offset, prec, rnd), mpf_pos(weight, prec, rnd)))
        et = mpf_mul(et, grow, wp, rnd)
        t = mpf_add(t, step, wp, rnd)
        index += 1
    return pairs


def _level_size(level: int, tmax_q4: int) -> int:
    """How many nodes level ``level`` has for tmax = tmax_q4/4, without
    building it: t = 0, 1, ..., floor(tmax) at level 0, and the odd
    multiples (2k+1)*2^-L <= tmax at level L >= 1."""
    if level == 0:
        return 1 + tmax_q4 // 4
    return ((tmax_q4 << level) - 4) // 8 + 1


def _truncation_range(P: int, tol: mpf) -> int:
    """Quantized t-range (in quarter steps) so node offsets and weights decay
    below both the tolerance and the working precision."""
    eps = min(tol * mpf(10) ** -6, mpf(10) ** (-(P + 10)))
    log_term = float(mp.log(2 / eps))
    tmax = math.asinh(log_term / math.pi)
    return int(math.ceil(tmax * 4))


# ---------------------------------------------------------------------------
# the 1-D engine
# ---------------------------------------------------------------------------

def _contributions(pair: PairFn, nodes):
    """Each node pair's weight * pair(offset), in node order."""
    prec = mp.prec
    for offset, weight in nodes:
        yield mpf_mul(weight, pair(offset), prec, round_nearest)


def _until_cut(contribs, hr: Raw, cutoff: Raw, seen_large: bool):
    """contribs up to the converged-tail cut: the second tiny one (|c|*hr
    below cutoff) in a row after a large one.  The cut waits for a large
    contribution, since an integrand peaked away from the centre starts
    with tiny ones; seen_large says whether one came before contribs."""
    prec = mp.prec
    tiny_run = 0
    for contrib in contribs:
        yield contrib
        if mpf_lt(mpf_mul(mpf_abs(contrib), hr, prec, round_nearest), cutoff):
            tiny_run += 1
            if tiny_run >= 2 and seen_large:
                return
        else:
            tiny_run = 0
            seen_large = True


@contextmanager
def _level_contributions(pair, levels, column, level, tmax_q4, split, hr, cutoff):
    """Level ``level``'s contributions in node order, from levels, the node
    table of tmax_q4 at the working precision; at level 0 they start after
    the centre node, which the caller evaluates.  Unless split is set, the
    level is in levels already.

    With split set, the pairs from half on are evaluated at the same time
    in a forked child (``hpreal._from_child``), up to its own tail cut; it
    sends them back exactly, as a list of ``_mpf_`` tuples.  The pairs
    before half are evaluated here, lazily, then the child's list is read,
    and the pairs it does not cover (all of them, if the child failed) are
    evaluated here.  The front half stays lazy to save memory (held as a
    list, it raised the session workload's peak RSS by about 250 KB), not
    for the tail cut.

    A split level that levels lacks is built in the same two halves: the
    front here, the back in the child, which sends its nodes in the same
    record.  With no record this process builds the back half itself.  The
    level joins levels only whole, once its contributions are done, so the
    child's record is read even when the tail cut comes before it; an
    integrand that raises leaves the level out.

    When column is given (an integral over [0, pi/2]), the record also
    holds the q's that the child added to its copy of the column for its
    half, in node order up to its cut, and None where it read one.  They
    join column here, under the offsets of levels, when the record is
    read."""
    nodes = levels[level] if level < len(levels) else None
    if not split:
        yield _contributions(pair, nodes[1:] if level == 0 else nodes)
        return
    cold = nodes is None
    size = _level_size(level, tmax_q4) if cold else len(nodes)
    half = size // 2

    def piece(start, stop):
        return _build_level(level, mpf(tmax_q4) / 4, start, stop) if cold else nodes[start:stop]

    def work():
        back = piece(half, size)
        known = len(column) if column is not None else 0
        sent = list(_until_cut(_contributions(pair, back), hr, cutoff, False))
        added = {} if column is None else dict(islice(column.items(), known, None))
        qs = [added.get(offset) for offset, _ in back[:len(sent)]] if added else None
        return sent, back if cold else None, qs

    with _from_child(work) as fetch:
        front = piece(0, half)

        @cache
        def record():
            # the child's contributions and the back half's nodes
            sent, built, qs = fetch() or ([], None, None)
            back = piece(half, size) if built is None else built
            for (offset, _), q in zip(back, qs or ()):
                if q is not None:
                    column.setdefault(offset, q)
            return sent, back

        def merged():
            yield from _contributions(pair, front)
            sent, back = record()
            yield from sent
            yield from _contributions(pair, back[len(sent):])

        yield merged()
        if cold and len(levels) == level:
            levels.append(front + record()[1])


def _tanh_sinh(pair: PairFn, r: Raw, tol: mpf, table,
               column: Optional[Dict[Raw, Raw]] = None) -> QuadratureResult:
    """The rule over an interval of half-width r (an ``_mpf_``) for the
    pair function pair (see the module docstring), to absolute accuracy
    ~tol, on table, the (tmax_q4, levels, column) of ``_node_table``.
    column is table's cot column when pair reads and fills it (an integral
    over [0, pi/2]), else None.  Callers hold the precision scope.  Raises
    QuadratureError if the capped refinements do not reach tol, or if tol
    is below what the working precision resolves of the value."""
    prec = mp.prec
    rnd = round_nearest
    make = mp.make_mpf
    tmax_q4, levels, _ = table
    # per-node contributions below this are treated as converged tail
    cutoff = (tol * mpf(10) ** -4)._mpf_
    s = fzero
    deltas: List[Raw] = []
    evaluations = 0
    level_cap = _DEFAULT_LEVEL_CAP
    took = 0.0
    for level in range(level_cap + 1):
        # h = 2^-level, so hr = h*r and h*part are exact, and |c|*hr rounds
        # exactly as (|c|*h)*r
        hr = mpf_shift(r, -level)
        # a costly level's second half runs in a child, on another core;
        # a level that the table lacks is built where it is evaluated
        split = level > 0 and took >= _SPLIT_AFTER_S
        if level == len(levels) and not split:
            levels.append(_build_level(level, mpf(tmax_q4) / 4))
        part = fzero
        seen_large = False
        if level == 0:
            # the centre node, t = 0 (offset 1), is its own mirror image;
            # a cut needs two tiny pairs after a large contribution, which
            # resets the run, so only its size counts
            offset, weight = levels[0][0]
            contrib = mpf_mul(weight, pair(offset), prec, rnd)
            evaluations += 1
            part = mpf_add(part, contrib, prec, rnd)
            seen_large = mpf_ge(mpf_mul(mpf_abs(contrib), hr, prec, rnd), cutoff)
        start = time.perf_counter()
        with _level_contributions(pair, levels, column, level, tmax_q4, split, hr,
                                  cutoff) as contribs:
            for contrib in _until_cut(contribs, hr, cutoff, seen_large):
                evaluations += 2
                part = mpf_add(part, contrib, prec, rnd)
        took = time.perf_counter() - start
        # a non-finite contribution leaves the level's sum non-finite
        # (inf + -inf is nan), so one test per level finds it
        if part in _NON_FINITE:
            raise QuadratureError(
                f"integrand returned a non-finite value at level {level}"
                " (endpoint distances are passed for a reason)",
                best=make(mpf_mul(r, s, prec, rnd)), levels=level)
        if level:
            s_new = mpf_add(mpf_shift(s, -1), mpf_shift(part, -level), prec, rnd)
            deltas.append(mpf_abs(mpf_mul(r, mpf_sub(s_new, s, prec, rnd), prec, rnd)))
            s = s_new
        else:
            s = part
        if level >= 2 and mpf_le(deltas[-1], tol._mpf_):
            value = make(mpf_mul(r, s, prec, rnd))
            # the last delta can round to 0 long before it reaches a tol
            # this small, so meeting it would say nothing
            resolved = mpf(10) ** (5 - mp.dps) * abs(value)
            if tol < resolved:
                raise QuadratureError(
                    f"tol {mp.nstr(tol, 3)} is below the {mp.nstr(resolved, 3)} that"
                    f" {mp.dps} working digits resolve of a value this size",
                    best=value, gap=make(deltas[-1]), levels=level + 1)
            # First-order estimate: the converged-tail cut leaves a
            # deficit comparable to the last refinement delta, so the
            # usual squared (Richardson) refinement would overstate the
            # accuracy; twice the last delta is what measurements support.
            return QuadratureResult(value=value, error_estimate=make(mpf_shift(deltas[-1], 1)),
                                    levels=level + 1,
                                    evaluations=evaluations,
                                    deltas=tuple(map(make, deltas)))
    gap = make(deltas[-1]) if deltas else None
    raise QuadratureError(
        f"no convergence to {mp.nstr(tol, 3)} within {level_cap} levels"
        f" (last gap {mp.nstr(gap, 3) if deltas else 'n/a'})",
        best=make(mpf_mul(r, s, prec, rnd)), gap=gap, levels=level_cap + 1)


def _node_table(P: int, tol: mpf):
    """(tmax_q4, levels, column): the truncation range for P and tol, and
    the node table's levels and cot column at the working precision, made
    empty on first use."""
    tmax_q4 = _truncation_range(P, tol)
    levels, column = _NODE_CACHE.setdefault((mp.dps, tmax_q4), ([], {}))
    return tmax_q4, levels, column


def _mpf_pair(f: IntegrandFn, a: mpf, b: mpf, r: mpf, width: mpf) -> PairFn:
    """The pair function of the integrand f(x, da, db) on [a, b]: x_lo =
    a + near and x_hi = b - near, with near = r*offset the distance of each
    from its own endpoint and far = width - near from the other.  An int or
    float value is taken exactly, as mpf arithmetic takes it."""
    make = mp.make_mpf
    prec = mp.prec
    r = r._mpf_

    def pair(offset):
        near = make(mpf_mul(r, offset, prec, round_nearest))
        far = width - near
        value = f(a + near, near, far)
        if offset != fone:
            value = value + f(b - near, far, near)
        return value._mpf_ if isinstance(value, mpf) else mpf(value)._mpf_

    return pair


def integrate_1d(f: IntegrandFn, a, b, P: int, tol=None) -> QuadratureResult:
    """Integrate ``f(x, da, db)``, which returns a real mpf (or an int or a
    float), over [a, b], a <= b, to absolute accuracy ~tol at P digits.  Raises QuadratureError if the
    capped refinements do not reach tol or tol is below what the working
    precision resolves of the value, and ValueError for reversed (or NaN)
    limits, whose endpoint distances would be negative, and for infinite
    ones, which the finite substitution cannot map.
    """
    with _working(P, _WORK_GUARD):
        a = mpf(a)
        b = mpf(b)
        if not (a <= b and mp.isfinite(a) and mp.isfinite(b)):
            raise ValueError(f"integrate_1d: need a <= b, both finite, got [{a}, {b}]")
        tol = _tolerance(P, tol)
        width = b - a
        r = width / 2
        return _tanh_sinh(_mpf_pair(f, a, b, r, width), r._mpf_, tol, _node_table(P, tol))


# ---------------------------------------------------------------------------
# the moment integrals
# ---------------------------------------------------------------------------

def moment_quadrature(m: int, P: int, tol=None) -> mpf:
    """The m-th cotangent moment by direct quadrature: with x = 2t, the
    integral over [0, pi] of x^m/(2 m!) * cot(x/2) is 2^m/m! times
    ``_cot_moment`` over [0, pi/2], whose cotangent there is exactly 0.
    The integral is held to tol divided by that scale, so C(m) is held to
    the absolute tol.  The value is stored per (m, P, tol); a failure is
    not.
    """
    if not _integer(m) or m < 1:
        raise ValueError(f"moment_quadrature: need an integer m >= 1, got m={m!r}")
    with _working(P, _WORK_GUARD):
        tol = _tolerance(P, tol)
        return _value(("moment", m, P, tol._mpf_), partial(_moment_integral, m, P, tol))


def _moment_integral(m: int, P: int, tol: mpf) -> mpf:
    scale = mpf(2) ** m / mp.factorial(m)
    return scale * _cot_moment(m, mp.pi / 2, mpf(0), P, tol / scale)


def _cot_moment(m: int, b: mpf, cot_b: mpf, P: int, tol: mpf) -> mpf:
    """int_0^b t^m cot t dt for 0 < b <= pi/2, to tol, at one cos_sin per
    node pair; cot_b is the cotangent of the true endpoint, which the mpf b
    may round.  Callers hold the precision scope.

    A pair's two nodes lie at the same exact distance v = r*offset from
    their own endpoints, r = b/2.  The near node t = v takes q = cot v = c/s
    from (c, s) = cos_sin(v), _TRIG_GUARD_BITS above the working precision;
    the far node t = b - v takes cot(b - v) = (cot_b q + 1)/(q - cot_b) from
    the same q, at the true endpoint and with no cos_sin of b.  The
    numerator adds two terms >= 0.  As v <= b/2, q >= cot(b/2) = cot_b +
    1/sin b >= 2 cot_b, so q - cot_b >= 1/sin b and >= q/2: the denominator
    loses at most one bit.  The pair function returns t^m q + (b - v)^m
    (cot_b q + 1)/(q - cot_b), each operation the libmp twin of the mpf
    one, and only t^m q at the centre.

    When b is pi/2 at the working precision, q depends only on the node's
    offset, and it comes from the node table's cot column: read there, or
    computed and filled in on a miss (see the module docstring).  Any other
    b computes q at every pair, so no value depends on the order of the
    calls or on the process that makes them.
    """
    prec = mp.prec
    rnd = round_nearest
    b = +b  # at the working precision, as integrate_1d would take it
    r = (b / 2)._mpf_
    b, cot_b = b._mpf_, cot_b._mpf_
    table = _node_table(P, tol)
    column = table[2] if b == (mp.pi / 2)._mpf_ else None

    def pair(offset):
        v = mpf_mul(r, offset, prec, rnd)
        q = None if column is None else column.get(offset)
        if q is None:
            c, s = mpf_cos_sin(v, prec + _TRIG_GUARD_BITS, rnd)
            q = mpf_div(c, s, prec, rnd)
            if column is not None:
                column[offset] = q
        low = mpf_mul(mpf_pow_int(v, m, prec, rnd), q, prec, rnd)
        if offset == fone:
            return low
        t = mpf_sub(b, v, prec, rnd)
        num = mpf_add(mpf_mul(cot_b, q, prec, rnd), fone, prec, rnd)
        high = mpf_div(mpf_mul(mpf_pow_int(t, m, prec, rnd), num, prec, rnd),
                       mpf_sub(q, cot_b, prec, rnd), prec, rnd)
        return mpf_add(low, high, prec, rnd)

    return _tanh_sinh(pair, r, tol, table, column).value
