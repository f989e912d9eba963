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
cot(x/2) at 0, or ``mp.log(da)`` for log(x) at 0.  A node pair's two
abscissas lie at the same distance from their own endpoints, and the rule
evaluates them one after the other, so an integrand may reuse a function
of that distance from the pair's first node for its mirror node.

Each node costs one exponential.  With E = exp(t), u = (pi/2) sinh t is
(pi/4)(E - 1/E), and the weight (pi/2) cosh t / cosh^2 u is
(pi/4)(E + 1/E) * 4e/(1+e)^2, since cosh^2 u = (1+e)^2/(4e).  Within a
level t advances by a fixed step, so E is stepped by one multiplication,
30 bits above the working precision; ``_build_level`` bounds the error.

Levels halve the mesh in t; level L contributes the odd multiples of
2^-L.  The trapezoidal sums S_L then satisfy S_L = S_{L-1}/2 + h*(new),
and successive gaps |S_L - S_{L-1}| shrink roughly quadratically in the
exponent once the rule resolves the integrand.  A level's geometry (each
node pair's abscissas, endpoint distances and weight) is derived once from
the node table, so the loop over its nodes does only the integrand's work;
a non-finite value is caught by testing the level's sum, which any
non-finite contribution leaves non-finite, before the level is used.

The node pairs of a level are independent, so a costly level runs on two
cores (Bailey and Borwein, "Highly parallel, high-precision numerical
integration", 2008).  When the level before took at least
``_SPLIT_AFTER_S``, the second half of the level's pairs is evaluated in a
child made by ``os.fork`` (``hpreal._from_child``), up to the child's own
tail cut, while this process evaluates the first half.  The child sends
its contributions back exactly, as one list of ``_mpf_`` tuples.  They are
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
its nodes (``_mpf_`` pairs) in the record that carries its contributions.
``_build_level`` steps to the back half's first node with one
multiplication and one addition per node, so each half is bit for bit the
slice of the level built whole.  The level joins the table only once it
is whole: with no record (the child failed, or there is no fork) this
process builds the back half itself, and when the tail cut falls in the
front half it still reads the record.  A level that is not split is built
here before its evaluation is timed, so building a table does not by
itself make the next level split.

The rule is one-dimensional; the consequence identities' double integrals
reach it already reduced to 1-D integrals of theta-series kernels
(moments.py).

``moment_quadrature`` keeps its finished value in the package's one store
(``hpreal._value``) per (m, P, tol), with tol the mpf that the tolerance
rule makes of the caller's tol (or the default for P) at the working
precision.  So a repeated moment costs one lookup, and returns the value
of the first call.  A call that raises (``QuadratureError``,
``ValueError``) keeps nothing, so its repeat runs the rule again and
raises again.  ``integrate_1d`` itself caches only its node tables.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from functools import cache, partial
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from mpmath import mp, mpf
from mpmath.libmp import (fone, ftwo, mpf_add, mpf_div, mpf_exp, mpf_le, mpf_mul, mpf_pi,
                          mpf_pos, mpf_shift, mpf_sub, round_nearest)

from .hpreal import _from_child, _tolerance, _value, _working

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


class QuadratureResult(NamedTuple):
    value: mpf
    error_estimate: mpf
    levels: int
    evaluations: int
    deltas: Tuple[mpf, ...] = ()


class QuadratureError(Exception):
    """Raised when the level cap is reached before the tolerance is met."""

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
# hold the precision scope.  Entry [L] is the list of (offset, weight) pairs
# new at level L, offset = 1 - tanh((pi/2) sinh t), one exponential each.
# ``integrate_1d`` appends each level, whole, when it first reaches it; a
# split level is built in halves, one in a forked child.
# ---------------------------------------------------------------------------

_NODE_CACHE: Dict[Tuple[int, int], List[List[Tuple[mpf, mpf]]]] = {}


def _build_level(level: int, tmax: mpf, start: int = 0,
                 stop: Optional[int] = None) -> List[Tuple[mpf, mpf]]:
    """The (offset, weight) pairs new at ``level`` with index in [start,
    stop) (to the last node, t <= tmax, if stop is None), at one exponential
    per node.  Index 0 is the first node: t = 0, the centre, at level 0, and
    t = 2^-L at level L >= 1; ``_level_size`` counts a level's nodes.

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

    The loop runs on ``_mpf_`` tuples with ``mpmath.libmp``, each operation
    rounded to nearest as ``mpf`` arithmetic rounds it, so every value is
    bit for bit what the same formulas give in ``mpf``s, at a fraction of
    their overhead.
    """
    pairs: List[Tuple[mpf, mpf]] = []
    stop = math.inf if stop is None else stop
    if level == 0:
        # integer abscissas, starting at the center node t = 0 where the
        # offset is exactly 1 (x is the midpoint)
        if start == 0 < stop:
            pairs.append((mpf(1), mp.pi / 2))
        index = 1
        t = step = mpf(1)
    else:
        index = 0
        step = mpf(2) ** (1 - level)
        t = step / 2
    prec = mp.prec
    wp = prec + 30
    make = mp.make_mpf
    rnd = round_nearest
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
        pairs.append((make(mpf_pos(offset, prec, rnd)), make(mpf_pos(weight, prec, rnd))))
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

def _contributions(f, nodes, a, b, r, width):
    """Each node pair's weight * (f(x_lo) + f(x_hi)) on [a, b], in node
    order: x_lo = a + near and x_hi = b - near, with near = r*offset the
    distance of each from its own endpoint and far = width - near from the
    other."""
    for offset, weight in nodes:
        near = r * offset
        far = width - near
        yield weight * (f(a + near, near, far) + f(b - near, far, near))


def _until_cut(contribs, hr, cutoff, seen_large):
    """contribs up to the converged-tail cut: the second tiny one (|c|*hr
    below cutoff) in a row after a large one.  The cut waits for a large
    contribution, since an integrand peaked away from the centre starts
    with tiny ones; seen_large says whether one came before contribs."""
    tiny_run = 0
    for contrib in contribs:
        yield contrib
        if abs(contrib) * hr < cutoff:
            tiny_run += 1
            if tiny_run >= 2 and seen_large:
                return
        else:
            tiny_run = 0
            seen_large = True


@contextmanager
def _level_contributions(f, table, level, tmax_q4, geometry, split, hr, cutoff):
    """Level ``level``'s contributions in node order, from table, the node
    table of tmax_q4 at the working precision; at level 0 they start after
    the centre node, which the caller evaluates.  Unless split is set, the
    level is in table already.

    With split set, the pairs from half on are evaluated at the same time
    in a forked child (``hpreal._from_child``), up to its own tail cut; it
    sends them back exactly, as one list of ``_mpf_`` tuples.  The pairs
    before half are evaluated here, lazily, then the child's list is read,
    and the pairs it does not cover (all of them, if the child failed) are
    evaluated here.  The front half stays lazy to save memory (held as a
    list, it raised the session workload's peak RSS by about 250 KB), not
    for the tail cut.

    A split level that table lacks is built in the same two halves: the
    front here, the back in the child, which sends its nodes as ``_mpf_``
    pairs in the same record.  With no record this process builds the back
    half itself.  The level joins table only whole, once its contributions
    are done, so the child's record is read even when the tail cut comes
    before it; an integrand that raises leaves the level out."""
    nodes = table[level] if level < len(table) else None
    if not split:
        yield _contributions(f, nodes[1:] if level == 0 else nodes, *geometry)
        return
    cold = nodes is None
    tmax = mpf(tmax_q4) / 4
    size = _level_size(level, tmax_q4) if cold else len(nodes)
    half = size // 2
    make = mp.make_mpf

    def piece(start, stop):
        return _build_level(level, tmax, start, stop) if cold else nodes[start:stop]

    def work():
        back = piece(half, size)
        sent = [contrib._mpf_ for contrib in
                _until_cut(_contributions(f, back, *geometry), hr, cutoff, False)]
        return sent, [(o._mpf_, w._mpf_) for o, w in back] if cold else None

    with _from_child(work) as fetch:
        front = piece(0, half)

        @cache
        def record():
            # the child's contributions and the back half's nodes
            sent, built = fetch() or ([], None)
            return sent, piece(half, size) if built is None else [
                (make(o), make(w)) for o, w in built]

        def merged():
            yield from _contributions(f, front, *geometry)
            sent, back = record()
            yield from map(make, sent)
            yield from _contributions(f, back[len(sent):], *geometry)

        yield merged()
        if cold and len(table) == level:
            table.append(front + record()[1])


def integrate_1d(f: IntegrandFn, a, b, P: int, tol=None) -> QuadratureResult:
    """Integrate ``f(x, da, db)`` over [a, b], a <= b, to absolute accuracy
    ~tol at P digits.  Raises QuadratureError if the capped refinements do
    not reach tol, and ValueError for reversed (or NaN) limits, whose
    endpoint distances would be negative.
    """
    dps = P + _WORK_GUARD
    with _working(P, _WORK_GUARD):
        a = mpf(a)
        b = mpf(b)
        if not a <= b:
            raise ValueError(f"integrate_1d: need a <= b, got [{a}, {b}]")
        tol = _tolerance(P, tol)
        width = b - a
        r = width / 2
        geometry = (a, b, r, width)
        tmax_q4 = _truncation_range(P, tol)
        table = _NODE_CACHE.setdefault((dps, tmax_q4), [])
        # per-node contributions below this are treated as converged tail
        cutoff = tol * mpf(10) ** -4

        s = mpf(0)
        deltas: List[mpf] = []
        evaluations = 0
        level_cap = _DEFAULT_LEVEL_CAP
        took = 0.0
        for level in range(level_cap + 1):
            h = mpf(2) ** (-level)
            # h is a power of two, so |c|*hr rounds exactly as (|c|*h)*r
            hr = h * r
            # a costly level's second half runs in a child, on another core;
            # a level that the table lacks is built where it is evaluated
            split = level > 0 and took >= _SPLIT_AFTER_S
            if level == len(table) and not split:
                table.append(_build_level(level, mpf(tmax_q4) / 4))
            part = mpf(0)
            seen_large = False
            if level == 0:
                # the centre node, t = 0 (offset 1), is its own mirror image;
                # a cut needs two tiny pairs after a large contribution, which
                # resets the run, so only its size counts
                weight = table[0][0][1]
                contrib = weight * f(a + r, r, r)
                evaluations += 1
                part += contrib
                seen_large = abs(contrib) * hr >= cutoff
            start = time.perf_counter()
            with _level_contributions(f, table, level, tmax_q4, geometry, split, hr,
                                      cutoff) as contribs:
                for contrib in _until_cut(contribs, hr, cutoff, seen_large):
                    evaluations += 2
                    part += contrib
            took = time.perf_counter() - start
            # a non-finite contribution leaves the level's sum non-finite
            # (inf + -inf is nan), so one test per level finds it
            if not mp.isfinite(part):
                raise QuadratureError(
                    f"integrand returned a non-finite value at level {level}"
                    " (endpoint distances are passed for a reason)",
                    best=r * s, levels=level)
            s_new = (s / 2 + h * part) if level else part
            if level >= 1:
                deltas.append(abs(r * (s_new - s)))
            s = s_new
            if level >= 2 and deltas[-1] <= tol:
                # First-order estimate: the converged-tail cut leaves a
                # deficit comparable to the last refinement delta, so the
                # usual squared (Richardson) refinement would overstate the
                # accuracy; twice the last delta is what measurements support.
                est = +(2 * deltas[-1])
                return QuadratureResult(value=+(r * s), error_estimate=est,
                                        levels=level + 1,
                                        evaluations=evaluations,
                                        deltas=tuple(deltas))
        raise QuadratureError(
            f"no convergence to {mp.nstr(tol, 3)} within {level_cap} levels"
            f" (last gap {mp.nstr(deltas[-1], 3) if deltas else 'n/a'})",
            best=+(r * s), gap=deltas[-1] if deltas else None,
            levels=level_cap + 1)


# ---------------------------------------------------------------------------
# the moment integrals
# ---------------------------------------------------------------------------

def moment_quadrature(m: int, P: int, tol=None) -> mpf:
    """The m-th cotangent moment by direct quadrature: the integral over
    [0, pi] of x^m/(2 m!) * cot(x/2).

    The half-angle cotangent comes from the exact distance v = min(da, db)
    to the nearer endpoint: cot(x/2) = cot(v/2) near 0 and tan(v/2) near
    pi, from one cos_sin(v/2), taken _TRIG_GUARD_BITS above the working
    precision.  A node pair's two abscissas share v, so its mirror node
    reuses the last (v, cos, sin): one cos_sin per pair.  Any other v
    recomputes them, so no value depends on the order of the calls or on
    the process that makes them.  The value is stored per (m, P, tol); a
    failure is not.
    """
    if m < 1:
        raise ValueError(f"moment_quadrature: need m >= 1, got {m}")
    with _working(P, _WORK_GUARD):
        tol = _tolerance(P, tol)
        return _value(("moment", m, P, tol._mpf_), partial(_moment_integral, m, P, tol))


def _moment_integral(m: int, P: int, tol: mpf) -> mpf:
    two_fact = 2 * mp.factorial(m)
    # (v, cos(v/2), sin(v/2)) of the last node: a pair's mirror node,
    # evaluated next, has the same v
    last = [None, None, None]

    def f(x, da, db):
        v = min(da, db)
        if v != last[0]:
            with mp.extraprec(_TRIG_GUARD_BITS):
                last[:] = v, *mp.cos_sin(v / 2)
        _, c, s = last
        return x ** m / two_fact * (c / s if da <= db else s / c)

    return integrate_1d(f, 0, mp.pi, P, tol).value
