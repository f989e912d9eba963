"""Reference tanh-sinh loops for the tests: the node table's levels built
from sinh and cosh, the 1-D level loop with its geometry derived per node,
and an iterated 2-D rule over it.

The node levels are what ``_build_level`` must reproduce to within a few
ulps, and ``_mpf_build_level`` is its own formulas in ``mpf`` arithmetic,
which it must reproduce bit for bit; the 1-D loop is what ``integrate_1d``
must reproduce exactly; the 2-D rule evaluates the consequence identities'
double integrals, against which the package's kernel-reduced 1-D integrals
are checked.
"""

from __future__ import annotations

from functools import lru_cache

from mpmath import mp, mpf

from cotmoments.hpreal import _working, default_tolerance
from cotmoments.quadrature import (
    _WORK_GUARD,
    QuadratureError,
    QuadratureResult,
    _build_level,
    _truncation_range,
)


def _reference_abscissas(level, tmax):
    """The t of each node new at ``level``: the centre t = 0 and the
    integers up to tmax at level 0, the odd multiples of 2^-level up to tmax
    after that."""
    if level == 0:
        yield mpf(0)
        t = mpf(1)
        while t <= tmax:
            yield t
            t += 1
    else:
        h = mpf(2) ** (-level)
        t = h
        while t <= tmax:
            yield t
            t += 2 * h


def _reference_build_level(level, tmax):
    """A level's (offset, weight) pairs at the working precision, from four
    exponentials per node: sinh t, exp(-2u), cosh t and cosh u."""
    pairs = []
    for t in _reference_abscissas(level, tmax):
        if t == 0:
            # the centre node: offset exactly 1 (x is the midpoint)
            pairs.append((mpf(1), mp.pi / 2))
            continue
        u = mp.pi / 2 * mp.sinh(t)
        e = mp.exp(-2 * u)
        offset = 2 * e / (1 + e)
        weight = (mp.pi / 2) * mp.cosh(t) / mp.cosh(u) ** 2
        pairs.append((offset, weight))
    return pairs


def _mpf_build_level(level, tmax):
    """``_build_level``'s formulas in ``mpf`` arithmetic: one exponential per
    node, 30 bits above the working precision, each value rounded once."""
    pairs = []
    if level == 0:
        pairs.append((mpf(1), mp.pi / 2))
        t = step = mpf(1)
    else:
        step = mpf(2) ** (1 - level)
        t = step / 2
    prec = mp.prec
    with mp.extraprec(30):
        one, two = mpf(1), mpf(2)
        half_pi = mp.pi / 2
        quarter_pi = half_pi / 2
        grow = mp.exp(step)
        et = mp.exp(t)
        while t <= tmax:
            inv = one / et
            e = mp.exp(half_pi * (inv - et))
            d = two / (one + e)
            offset = e * d
            weight = quarter_pi * (et + inv) * offset * d
            pairs.append((mpf(offset, prec=prec), mpf(weight, prec=prec)))
            et *= grow
            t += step
    return pairs


@lru_cache(maxsize=None)
def _reference_nodes(dps, tmax_q4, level):
    """Level ``level`` of the node table for tmax_q4 at dps digits, as mpf
    pairs, built once per argument tuple and kept here, apart from the
    engine's tables."""
    with mp.workdps(dps):
        return [(mp.make_mpf(offset), mp.make_mpf(weight))
                for offset, weight in _build_level(level, mpf(tmax_q4) / 4)]


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
            nodes = _reference_nodes(P + _WORK_GUARD, tmax_q4, level)
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
    """The iterated rule over the reference loop on the unit square, f called
    as f(x0, da0, db0, x1, da1, db1) with x0 inner.  Outer node i, of raw
    weight w_i, gets the inner tolerance (tol/50)*max(1, kappa/w_i), with
    kappa = 1/(2*tmax + 1)."""
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
