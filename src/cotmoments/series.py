"""The R, A and S series families and the central-binomial kernels K0/K1.

Three layers live here:

* closed forms — r_odd/r_even (zigzag / Bernoulli), a1/a0 (pure pi powers),
  and the alternating recurrences tying A to R;
* truncated evaluations with explicit tail bounds — the kernel-weighted
  suffix sums S_odd/S_even used by the nested moment route, and the
  weakly-nested sums behind R (``r_truncated_nested``), which are the
  suffix tails at the first index j0;
* the kernels K1(z) and K0(z), each computable by power series and by
  integral, which must agree wherever both converge.  The power series are
  the S families' outer terms against powers of z, one loop for both:
  K1(z) = sum_j b_odd(j) z^(2j) and K0(z) = sum_j b_even(j) z^j, so
  K1(1) = S_odd(0) and K0(1) = S_even(0).  The integrals are incomplete
  moments of cot, int_0^b g(t) cot t dt with b = asin z, g = t (divided by
  z) for K1 and b = asin sqrt z, g = 2 t^2 for K0, by tanh-sinh at one
  cos_sin per node pair (``_cot_moment``).  An integral's finished value is
  kept in the package's one store (``hpreal._value``) per (kind, z, P), with
  z the mpf that the working precision makes of the caller's z, so a repeat
  costs one lookup; the power series and a failed integral keep nothing.

The S families and their inner tails are evaluated in fixed-point integer
arithmetic: a value v is carried as the integer v * 2^fbits, floored.  The
inner suffix tails (truncated at N)

    T_d(j) = sum_{j <= i_1 <= i_2 <= ... <= i_d} prod 1/(2 i + 1)^2   (odd)
    T_d(j) = sum_{j <= i_1 <= i_2 <= ... <= i_d} prod 1/i^2           (even)

satisfy T_d(j) = T_d(j+1) + w(j) * T_{d-1}(j), so one backward sweep over
j = N..j0 updates all depths at once; it records the tails at the first
few j, which are all that ``r_truncated_nested`` and ``nested_tail_sums``
read.  The sums S_l = sum_j b(j) T_l(j), with outer weights b(j)
(central-binomial ratios over (2j+1)^2 resp. 2j^3), are summed the other way
round: over the tuples j <= i_1 <= ... <= i_l <= N, S_l is the running sum
B_l(N) of B_0(i) = sum_{j<=i} b(j), B_d(i) = B_d(i-1) + B_{d-1}(i) w(i).  So
one forward sweep streams b(j) by its term ratio and updates all depths at
once, with no tails and no per-depth dot product.  Both sweeps run over
blocks of j, each depth a C-level column pass, and return the same integers
as per-j loops.  Each is kept in the package's one store under ("sums" |
"tails", kind, N, fbits) by ``hpreal._paired_sweep``, with the floor depth
2 for both kinds, as the S values are asked for at depths 0, 1 and 2: a
miss at depth <= 2 sweeps both kinds to depth 2 at once, the other kind in
a forked child.  Every value here is an ``hpreal.Evaluation``.

A depth step times w = 1/q, q = (a i + c)^2, is the one exact floor x // q
by the small integer q, losing < 2^-fbits, so the fixed-point error grows
like (N + 1) * 2^-fbits — negligible against the series tails for
fbits >= 140.  ``r_truncated_nested`` proves the allowance 2^(d+2) (N + 1)
2^-fbits for a tail at depth d, and both it and ``nested_tail_sums`` add
that allowance, so their bounds are rigorous.  The S values add
(l + 3) (N + 1) 2^-fbits.  Their error measures below 0.17 of it at depths
0..6 (tests/test_sweeps.py), but the tails' proof gives the forward sums
only a constant geometric in l: unlike their proved outer tail, it is an
estimate.
"""

from __future__ import annotations

import math
from itertools import accumulate, count, repeat
from operator import floordiv, mul
from typing import Dict, List, NamedTuple, Tuple

from mpmath import mp, mpf

from .exact import bernoulli, cycle_count, euler_zigzag, partitions
from .hpreal import (_DEFAULT_N, _SWEEP_BLOCK_BITS, Evaluation, _paired_sweep, _value,
                     _working, default_tolerance, fixed_point_bits, zeta)
from .quadrature import _TRIG_GUARD_BITS, _WORK_GUARD, integrate_1d

__all__ = [
    "r_odd",
    "r_even",
    "r_via_partitions",
    "r_truncated_nested",
    "a1",
    "a0",
    "a1_via_recurrence",
    "a0_via_recurrence",
    "euler_binomial_vanishing",
    "s_odd",
    "s_even",
    "nested_tail_sums",
    "kernel_k1",
    "kernel_k0",
]


class _Family(NamedTuple):
    """The plain integers that tell the odd family from the even one."""

    j0: int        # first index
    a: int         # inner weight w(j) = 1/(a j + c)^2
    c: int
    e: int         # outer weight b(j) = ratio(j) / ((a j + c)^2 (e j + f)),
    f: int
    s: int         # with ratio(j) = C(2j,j)/4^j if s = 1, else 4^j/C(2j,j)
    pi2_div: int   # the full inner sum T_1(j0) is pi^2 / pi2_div
    tail_den: int  # sum_{i>N} w(i) < 1/(tail_den N)


_FAMILIES = {
    "odd": _Family(j0=0, a=2, c=1, e=0, f=1, s=1, pi2_div=8, tail_den=4),
    "even": _Family(j0=1, a=1, c=0, e=2, f=0, s=0, pi2_div=6, tail_den=1),
}


def _require_kind(kind: str) -> None:
    if kind not in _FAMILIES:
        raise ValueError(f"kind must be one of {tuple(_FAMILIES)}, got {kind!r}")


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def r_odd(k: int, P: int) -> Evaluation:
    """R_odd(k) = (pi/2)^(2k) * E*_2k / (2k)! with E* the even zigzag
    (secant) numbers: pi^2/8, 5 pi^4/384, 61 pi^6/46080, ..."""
    if k < 1:
        raise ValueError(f"r_odd: need k >= 1, got {k}")
    z = euler_zigzag(2 * k)
    with _working(P):
        value = +((mp.pi / 2) ** (2 * k) * int(z) / mp.factorial(2 * k))
    return Evaluation("R_odd", k, value)


def r_even(k: int, P: int) -> Evaluation:
    """R_even(k) = 2 (2^(2k-1) - 1) |B_2k| pi^(2k) / (2k)!:
    pi^2/6, 7 pi^4/360, 31 pi^6/15120, ..."""
    if k < 1:
        raise ValueError(f"r_even: need k >= 1, got {k}")
    b = abs(bernoulli(2 * k))
    with _working(P):
        scale = 2 * (2 ** (2 * k - 1) - 1)
        value = +(scale * mpf(b.numerator) * mp.pi ** (2 * k)
                  / (b.denominator * mp.factorial(2 * k)))
    return Evaluation("R_even", k, value)


def r_via_partitions(k: int, kind: str, P: int) -> Evaluation:
    """R(k) through the cycle-index expansion over partitions of k.

    R(k) = sum over partitions pi of k of  a(pi)/k! * prod_l p(2l)^(pi_l),
    where the power sums are p(2l) = (1 - 2^(-2l)) zeta(2l) for the odd
    family (odd reciprocal squares) and p(2l) = zeta(2l) for the even one.
    All coefficients are positive — no sign alternation enters here.
    """
    if k < 1:
        raise ValueError(f"r_via_partitions: need k >= 1, got {k}")
    _require_kind(kind)
    kfact = math.factorial(k)
    with _working(P):
        power_sums = {}
        for l in range(1, k + 1):
            zl = zeta(2 * l, P + 5)
            if _FAMILIES[kind].c:  # odd roots only: drop the even terms
                zl = (1 - mpf(2) ** (-2 * l)) * zl
            power_sums[l] = zl
        acc = mpf(0)
        for p in partitions(k):
            coeff = cycle_count(p) / kfact  # exact rational 1/prod(m_l! l^m_l)
            term = mpf(coeff.numerator) / coeff.denominator
            for l, m_l in enumerate(p.multiplicities, start=1):
                if m_l:
                    term *= power_sums[l] ** m_l
            acc += term
        value = +acc
    return Evaluation(f"R_{kind}", k, value)


def a1(k: int, P: int) -> Evaluation:
    """A1(k) = (pi/2)^(2k) / (2k)!, with A1(0) = 1."""
    if k < 0:
        raise ValueError(f"a1: need k >= 0, got {k}")
    with _working(P):
        value = +((mp.pi / 2) ** (2 * k) / mp.factorial(2 * k))
    return Evaluation("A1", k, value)


def a0(k: int, P: int) -> Evaluation:
    """A0(k) = pi^(2k) / (2k+1)!, with A0(0) = 1."""
    if k < 0:
        raise ValueError(f"a0: need k >= 0, got {k}")
    with _working(P):
        value = +(mp.pi ** (2 * k) / mp.factorial(2 * k + 1))
    return Evaluation("A0", k, value)


def _a_recurrence(k: int, P: int, r_closed, family: str) -> Evaluation:
    if k < 0:
        raise ValueError(f"a-recurrence: need k >= 0, got {k}")
    with _working(P):
        rs = [None] + [r_closed(l, P + 5).value for l in range(1, k + 1)]
        a_vals = [mpf(1)]
        for j in range(1, k + 1):
            acc = mpf(0)
            for l in range(1, j + 1):
                acc += (-1) ** (l + 1) * rs[l] * a_vals[j - l]
            a_vals.append(acc)
        value = +a_vals[k]
    return Evaluation(family, k, value)


def a1_via_recurrence(k: int, P: int) -> Evaluation:
    """A1(k) rebuilt from A1(k) = sum_{l=1..k} (-1)^(l+1) R_odd(l) A1(k-l)."""
    return _a_recurrence(k, P, r_odd, "A1")


def a0_via_recurrence(k: int, P: int) -> Evaluation:
    """A0(k) rebuilt from the same alternating recurrence with R_even."""
    return _a_recurrence(k, P, r_even, "A0")


def euler_binomial_vanishing(k: int) -> int:
    """The exact integer sum_{l=0..k} (-1)^(l+1) C(2k, 2l) E*_2l.

    Vanishes identically for every k >= 1 (the sec * cos = 1 convolution);
    callers assert the return value is 0.
    """
    if k < 1:
        raise ValueError(f"euler_binomial_vanishing: need k >= 1, got {k}")
    acc = 0
    for l in range(k + 1):
        acc += (-1) ** (l + 1) * math.comb(2 * k, 2 * l) * int(euler_zigzag(2 * l))
    return acc


# ---------------------------------------------------------------------------
# truncated weakly-nested prefix sums for R, with rigorous tail bounds
# ---------------------------------------------------------------------------

def r_truncated_nested(k: int, kind: str, P: int, N: int = 10000) -> Evaluation:
    """R(k) as the k-fold weakly-increasing nested sum over j0 <= i <= N.

    The value is the backward tails sweep's T_k(j0), and the prefix values
    V_d = T_d(j0), d < k, come from the same sweep.  The error bound
    is rigorous, rounding at the working precision aside.  Truncation: with
    w_tail >= sum_{i>N} w_i and U_0 = 1, U_d = V_d + U_{d-1} w_tail, the
    truncated sum misses at most U_{k-1} * w_tail (every dropped tuple has
    its largest index > N, and the remaining d-1 indices are bounded by the
    full sum U_{d-1}).

    Fixed point: let e = 2^-fbits.  Each of the N+1 steps adds the exact
    floor T_{d-1}(j) // q(j), q = 1/w, losing less than e, so by induction
    on d the swept T_d(j0) lies below the truncated sum by at most

        c_d (N+1) e,   c_1 = 1,   c_d = 2 c_{d-1} + 1 = 2^d - 1,

    as sum w < 2 carries the depth d-1 error.  Read from the sweep, the V_d
    make U_{k-1} * w_tail smaller by at most sum_{d<k} c_d (N+1) e, as
    w_tail <= 1; the allowance 2^(k+2) (N+1) e that the bound adds covers
    both.
    """
    if k < 1:
        raise ValueError(f"r_truncated_nested: need k >= 1, got {k}")
    _require_kind(kind)
    if N < 1:
        raise ValueError(f"r_truncated_nested: need N >= 1, got {N}")
    fbits = fixed_point_bits(P)
    with _working(P):
        tails = _paired_sweep("tails", _tails_sweep, kind, k, N, fbits, _S_FLOORS)
        unit, _, w_tail = _nested_family(kind, N, fbits)
        V = [v * unit for v in tails[_FAMILIES[kind].j0]]
        U = mpf(1)
        for d in range(1, k):
            U = V[d] + U * w_tail
        fp_err = 2 ** (k + 2) * (N + 1) * unit
        bound = +(U * w_tail + fp_err)
        value = V[k]
    return Evaluation(f"R_{kind}", k, value, N, bound)


# ---------------------------------------------------------------------------
# the S families: a forward sweep for the sums, a backward one for the tails
# ---------------------------------------------------------------------------

_TAIL_RECORD_MAX = 24  # suffix tails T_d(j) are kept for j up to here

# the S values are asked for at depths 0, 1 and 2, so a sweep covers depth 2;
# the two keys are the odd/even pair (``hpreal._paired_sweep``)
_S_FLOORS = {"odd": 2, "even": 2}


def _sums_sweep(kind: str, lmax: int, N: int, fbits: int) -> List[int]:
    """One forward fixed-point pass over j = j0..N for every depth l <= lmax.

    Returns sums: sums[l] is S_l truncated at N, times 2^fbits.  Over the
    tuples j <= i_1 <= ... <= i_l <= N, S_l is B_l(N), where

        B_0(i) = sum_{j <= i} b(j),   B_d(i) = B_d(i - 1) + B_{d-1}(i) w(i),

    so each depth is the running sum of the depth below it times w.  The
    pass runs over blocks of about 2^17 / fbits values of j, from j0 up.
    Within a block each column (roots, q = root^2 = 1/w, outer terms b, the
    B_d and their exact floors B // q) is one C-level map or accumulate,
    and a column's carry is its value at the block's last j; the deepest
    column is only summed.  Only ratio(j) runs as a per-j loop, because
    each of its floors feeds the next.  So every integer equals that of a
    per-j loop, and a block holds no more than a few columns of its own
    length.
    """
    fam = _FAMILIES[kind]
    j0, a, c, e, f, s = fam.j0, fam.a, fam.c, fam.e, fam.f, fam.s
    one = 1 << fbits
    sums = [0] * (lmax + 1)  # sums[d] = B_d(lo - 1), the sum just below the block
    ratio = one
    for j in range(1, j0 + 1):  # ratio(j0)
        ratio = ratio * (2 * j - s) // (2 * j - 1 + s)
    block = max(1, _SWEEP_BLOCK_BITS // fbits)
    for lo in range(j0, N + 1, block):
        hi = min(lo + block, N + 1)  # this block is lo <= j < hi
        ratios = []
        for num, den in zip(range(2 * lo + 2 - s, 2 * hi + 2 - s, 2),
                            range(2 * lo + 1 + s, 2 * hi + 1 + s, 2)):
            ratios.append(ratio)
            ratio = ratio * num // den  # ratio(j + 1)
        roots = range(a * lo + c, a * hi + c, a)
        q = list(map(mul, roots, roots))
        b = list(map(floordiv, ratios, map(mul, q, count(e * lo + f, e))))
        inc = b
        for d in range(lmax):
            col = list(accumulate(inc, initial=sums[d]))
            del col[0]
            sums[d] = col[-1]
            inc = map(floordiv, col, q)
        sums[lmax] += sum(inc)
    return sums


def _tails_sweep(kind: str, lmax: int, N: int, fbits: int) -> Dict[int, List[int]]:
    """One backward fixed-point pass of the suffix tails over j = N..j0.

    Returns {j: [T_0(j), ..., T_lmax(j)]} times 2^fbits for j up to
    _TAIL_RECORD_MAX.  T_d(j) = T_d(j + 1) + w(j) T_{d-1}(j) updates every
    depth at once.  The pass runs over blocks of about 2^17 / fbits values
    of j, from N down, each depth one C-level accumulate over the exact
    floors T_{d-1} // q of the depth below, q = root^2 = 1/w, and a tail's
    carry is its value at the block's last j.  So every integer equals that
    of a per-j loop.
    """
    fam = _FAMILIES[kind]
    a, c = fam.a, fam.c
    one = 1 << fbits
    carry = [0] * (lmax + 1)  # carry[d] = T_d(hi + 1), the tail just above the block
    tails: Dict[int, List[int]] = {}
    block = max(1, _SWEEP_BLOCK_BITS // fbits)
    for hi in range(N, fam.j0 - 1, -block):
        lo = max(hi - block + 1, fam.j0)  # this block is hi >= j >= lo
        roots = range(a * hi + c, a * lo + c - a, -a)
        q = list(map(mul, roots, roots))
        cols = []
        inc = map(floordiv, repeat(one), q)  # T_1 steps by 2^fbits // q
        for d in range(1, lmax + 1):
            col = list(accumulate(inc, initial=carry[d]))
            del col[0]
            carry[d] = col[-1]
            cols.append(col)
            inc = map(floordiv, col, q)
        for j in range(min(hi, _TAIL_RECORD_MAX), lo - 1, -1):
            tails[j] = [one] + [col[hi - j] for col in cols]
    return tails


def _nested_family(kind: str, N: int, fbits: int) -> Tuple[mpf, mpf, mpf]:
    """The constants that every read of a sweep needs: (unit, inner_full,
    w_tail).  The sweeps' integers are in units of unit = 2^-fbits;
    inner_full is the full inner sum T_1(j0), the largest inner tail; and
    w_tail bounds sum_{i>N} w(i).  The three are mpfs at the working
    precision, so callers hold the precision scope."""
    fam = _FAMILIES[kind]
    return mpf(2) ** -fbits, mp.pi ** 2 / fam.pi2_div, mpf(1) / (fam.tail_den * N)


def _s_value(kind: str, l: int, P: int, N: int) -> Evaluation:
    """S_kind(l) truncated at N, at P digits, with its tail bound."""
    if l < 0:
        raise ValueError(f"s_{kind}: need l >= 0, got {l}")
    if N < 1:
        raise ValueError(f"s_{kind}: need N >= 1, got {N}")
    fbits = fixed_point_bits(P)
    with _working(P):
        sums = _paired_sweep("sums", _sums_sweep, kind, l, N, fbits, _S_FLOORS)
        unit, inner_full, w_tail = _nested_family(kind, N, fbits)
        value = sums[l] * unit
        b_sum = sums[0] * unit                            # sum of b(j), j <= N
        # truncation of each inner tail: l slots, each missing <= w_tail of
        # an inner sum bounded by inner_full, weighted by sum of b
        inner_err = b_sum * l * inner_full ** (l - 1) * w_tail if l else mpf(0)
        # dropped outer terms j > N, proved: each inner tail is at most
        # inner_full^l, and Kazarinoff's Wallis bounds on C(2j,j)/4^j give
        # b(j) <= j^(-5/2)/(4 sqrt pi) (odd) or (sqrt(pi)/2)(j^(-5/2) +
        # j^(-7/2)/4) (even); sum_{j>N} j^-s <= N^(1-s)/(s-1)
        n32 = 1 / (N * mp.sqrt(N))                         # N^(-3/2)
        b_tail = (n32 / (6 * mp.sqrt(mp.pi)) if _FAMILIES[kind].s
                  else mp.sqrt(mp.pi) / 2 * (2 * n32 / 3 + n32 / (10 * N)))
        outer_err = b_tail * inner_full ** l
        # fixed-point rounding of the forward sums, (l + 3) (N + 1) 2^-fbits:
        # one floor per step and depth, measured to hold (see the module
        # docstring), not proved, so an estimate, unlike outer_err
        fp_err = (l + 3) * (N + 1) * unit
        bound = +(inner_err + outer_err + fp_err)
    return Evaluation(f"S_{kind}", l, value, N, bound)


def s_odd(l: int, P: int, N: int = _DEFAULT_N) -> Evaluation:
    """S_odd(l): central-binomial outer weights against the l-fold suffix
    tails of 1/(2i+1)^2.  S_odd(0) is the K1(1) series (= pi/2 log 2)."""
    return _s_value("odd", l, P, N)


def s_even(l: int, P: int, N: int = _DEFAULT_N) -> Evaluation:
    """S_even(l): inverse-central-binomial outer weights against the l-fold
    suffix tails of 1/i^2.  S_even(0) equals the second cotangent moment."""
    return _s_value("even", l, P, N)


def nested_tail_sums(kind: str, dmax: int, jmax: int, N: int, P: int):
    """Suffix tails T_d(j) for d <= dmax, j <= jmax, truncated at N.

    The tails come from the backward tails sweep, kept per (kind, N,
    fbits) with ``r_truncated_nested``'s; no S sum is computed for them.
    Returns (table, bounds): table[j][d] is the truncated T_d(j) as an mpf
    (j starts at 0 for the odd family, 1 for the even one), and bounds[d] is
    a rigorous bound valid for every j: the truncation d * U^(d-1) * w_tail,
    with U the full inner sum and w_tail the dropped single-index tail, plus
    the fixed-point allowance 2^(d+2) (N+1) 2^-fbits, which covers the
    (2^d - 1) (N+1) 2^-fbits proved in ``r_truncated_nested``.
    """
    _require_kind(kind)
    if dmax < 0 or jmax < 0:
        raise ValueError("nested_tail_sums: need dmax, jmax >= 0")
    if jmax > _TAIL_RECORD_MAX:
        raise ValueError(f"nested_tail_sums: jmax <= {_TAIL_RECORD_MAX}, got {jmax}")
    if N <= jmax:
        raise ValueError(f"nested_tail_sums: need N > jmax, got N={N}")
    fbits = fixed_point_bits(P)
    with _working(P):
        tails = _paired_sweep("tails", _tails_sweep, kind, dmax, N, fbits, _S_FLOORS)
        unit, inner_full, w_tail = _nested_family(kind, N, fbits)
        table = {j: [v * unit for v in tails[j][: dmax + 1]]
                 for j in range(_FAMILIES[kind].j0, jmax + 1)}
        bounds = [+(d * inner_full ** max(d - 1, 0) * w_tail + 2 ** (d + 2) * (N + 1) * unit)
                  for d in range(dmax + 1)]
    return table, bounds


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

_SERIES_Z_MAX = 0.9  # beyond this the power series converge too slowly

def _kernel_series(kind: str, z: mpf, P: int) -> mpf:
    """K(z) = sum_{j >= j0} b(j) z^(a j), with b(j) the S family's outer term:
    the power of z steps with the inner root a j + c, so K1 runs over z^(2j)
    and K0 over z^j."""
    fam = _FAMILIES[kind]
    j0, a, c, e, f, s = fam.j0, fam.a, fam.c, fam.e, fam.f, fam.s
    x = z ** a
    stop = mpf(10) ** (-(P + 5)) * (1 - x)
    term = mpf(1)         # ratio(j) x^j
    acc = mpf(0)
    j = 0
    while True:
        if j >= j0:
            contrib = term / ((a * j + c) ** 2 * (e * j + f))
            acc += contrib
            # the first term never ends the sum: a tiny z keeps K0's j = 2 term
            if j > j0 and contrib < stop:
                return acc
        j += 1
        term *= x * (2 * j - s) / (2 * j - 1 + s)


def _cot_moment(g, b: mpf, P: int, tol=None) -> mpf:
    """int_0^b g(t) cot t dt for 0 < b <= pi/2, to tol, at one cos_sin per
    node pair.

    A pair's two nodes lie at the same exact distance v = min(da, db) from
    their own endpoints.  The near node t = v takes cot v = c/s from
    (c, s) = cos_sin(v); the far node t = b - v takes

        cot(b - v) = (cos b c + sin b s) / (sin b c - cos b s)

    from the same (c, s), with cos b and sin b taken once.  The numerator
    adds two terms >= 0, and the denominator sin(b - v) >= sin(b/2) loses at
    most a bit, so neither cancels.  The mirror node, evaluated next, reuses
    the last (v, c, s); any other v recomputes them, so no value depends on
    the order of the calls or on the process that makes them.  b is the
    mpf of the working precision, and the rule integrates over that b;
    every cos_sin, b's included, is taken _TRIG_GUARD_BITS above it.
    """
    with _working(P, _WORK_GUARD), mp.extraprec(_TRIG_GUARD_BITS):
        cb, sb = mp.cos_sin(b)
    # (v, cos v, sin v) of the last node: a pair's mirror node, evaluated
    # next, has the same v
    last = [None, None, None]

    def f(t, da, db):
        v = min(da, db)
        if v != last[0]:
            with mp.extraprec(_TRIG_GUARD_BITS):
                last[:] = v, *mp.cos_sin(v)
        _, c, s = last
        if da <= db:
            return g(t) * c / s
        return g(t) * (cb * c + sb * s) / (sb * c - cb * s)

    return integrate_1d(f, 0, b, P, tol).value


# With y = sin t the kernels are incomplete moments of cot:
#
#     z K1(z) = int_0^asin z t cot t dt,   K0(z) = int_0^asin sqrt z 2 t^2 cot t dt.
#
# t cot t is analytic for |t| < pi, so nothing singular lies within pi/2 of
# [0, b]; asin(y)/y has a branch point at y = 1, just past z, which costs a
# double-exponential rule levels near z = 1.

def _kernel_integral_k1(z: mpf, P: int) -> mpf:
    # the integral is divided by z, so it is held to tol z
    with _working(P, _WORK_GUARD):
        b = mp.asin(z)
        tol = default_tolerance(P) * z
    return _cot_moment(lambda t: t, b, P, tol) / z


def _kernel_integral_k0(z: mpf, P: int) -> mpf:
    # K0(z) = z + O(z^2), so it is held to tol z, like K1
    with _working(P, _WORK_GUARD):
        b = mp.asin(mp.sqrt(z))
        tol = default_tolerance(P) * z
    return _cot_moment(lambda t: 2 * t * t, b, P, tol)


def _kernel(kind: str, z, P: int, method: str, integral_fn, at_zero: mpf) -> mpf:
    if method not in ("auto", "series", "integral"):
        raise ValueError(f"kernel: unknown method {method!r}")
    with _working(P):
        z = mpf(z)
        if not 0 <= z <= 1:
            raise ValueError(f"kernel: need 0 <= z <= 1, got {mp.nstr(z, 8)}")
        if z == 0:
            return +at_zero
        if method == "auto":
            method = "series" if z <= mpf("0.75") else "integral"
        if method == "series":
            if z > mpf(_SERIES_Z_MAX):
                raise ValueError(
                    f"kernel series: need z <= {_SERIES_Z_MAX} (got {mp.nstr(z, 8)});"
                    " use the integral method near 1")
            return +_kernel_series(kind, z, P)
        return _value(("kernel", kind, z._mpf_, P), lambda: +integral_fn(z, P))


def kernel_k1(z, P: int, method: str = "auto") -> mpf:
    """K1(z) = sum_j C(2j,j) (z/2)^(2j) / (2j+1)^2  =  (1/z) int_0^z asin(y)/y dy.

    K1(0) = 1, K1(1) = (pi/2) log 2.  Series for z <= 0.75, integral near 1,
    taken with y = sin t as (1/z) int_0^asin z t cot t dt, to 10^-(P-10) z
    before the division by z.
    """
    return _kernel("odd", z, P, method, _kernel_integral_k1, mpf(1))


def kernel_k0(z, P: int, method: str = "auto") -> mpf:
    """K0(z) = (1/2) sum_{j>=1} (4z)^j / (j^3 C(2j,j))  =  int_0^z asin^2(sqrt y)/y dy.

    K0(0) = 0; K0(1) equals the second cotangent moment.  Series for
    z <= 0.75, integral near 1, taken with y = sin^2 t as
    int_0^asin sqrt z 2 t^2 cot t dt, to 10^-(P-10) z.
    """
    return _kernel("even", z, P, method, _kernel_integral_k0, mpf(0))
