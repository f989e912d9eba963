"""Moments of the half-angle cotangent, and the verification suites.

C(m) is the normalized moment (1/m!) int_0^pi (x^m / 2) cot(x/2) dx.  Four
independent routes compute it:

* eta-closed-form — the finite linear combination of eta/zeta values at odd
  integers (exact modulo the constants' own precision);
* cfn-series — the central-binomial series whose coefficients are the exact
  H-triangles, summed in fixed-point integers by one stored, blocked sweep
  per parity; its bound is a proved tail plus an estimated fixed-point
  allowance;
* nested-series — pi-power combinations of the S_odd/S_even suffix-nested
  sums, each carrying a propagated tail bound;
* quadrature — direct tanh-sinh integration of the defining integral.

No route shares code with another past the constants layer, which is what
makes the cross-route agreement checks in `run_suite` meaningful.  That
layer (``hpreal``) holds the plumbing the routes do share: every route
returns an ``hpreal.Evaluation``, both series routes keep their odd/even
sweeps in the one store through ``hpreal._paired_sweep``, and the
consequences and routes suites fill it with their independent integrals,
half in a forked child, through ``hpreal._in_halves``, bit for bit.

The consequence identities 2 and 4 are double integrals over the unit
square, and their inner integral is one of the central-binomial kernels
K1, K0.  Those kernels are incomplete moments of cot (with y = sin t,
z K1(z) = int_0^asin z t cot t dt), so a Bernoulli power series in
theta = asin z gives them, with terms falling by 4x each.  The quadrature
evidence for both identities is therefore a 1-D tanh-sinh integral of the
kernel-reduced integrand, the kernel summed by Horner's rule in fixed-point
integers in x = (theta/pi)^2; the package has no 2-D rule.  The
theta-series expands the same incomplete moment that the quadrature's one
cot integrand (``quadrature._cot_moment``) evaluates for the series
layer's K1/K0 integrals, but shares no code with it, and the suite checks
the two against each other.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import accumulate, count, repeat
from operator import floordiv, mul
from typing import Callable, List, Optional

from mpmath import mp, mpf

from . import cfn
from .hpreal import (_DEFAULT_DIGITS, _DEFAULT_N, _SWEEP_BLOCK_BITS, GUARD_DIGITS, Evaluation,
                     _closed_form_tolerance, _in_halves, _integer, _paired_sweep,
                     _require_digits, _tolerance, _value, _working, _zeta_even_tolerance,
                     default_tolerance, eta, fixed_point_bits, zeta, zeta_even_closed)
from .quadrature import _WORK_GUARD, integrate_1d, moment_quadrature
from .report import VerificationReport
from .series import (
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

__all__ = [
    "ROUTES",
    "SUITES",
    "c_eta_route",
    "c_cfn_route",
    "c_nested_route",
    "compute_moment",
    "binomial_gf_identities",
    "verify_consequences",
    "verify_h_integral_reduction",
    "run_suite",
]

ROUTES = ("eta-closed-form", "cfn-series", "nested-series", "quadrature")


def _fmt(P: int) -> Callable[[object], str]:
    digits = max(P, 12)
    return lambda v: mp.nstr(mpf(v), digits)


# ---------------------------------------------------------------------------
# route 1: eta/zeta closed form
# ---------------------------------------------------------------------------

def c_eta_route(m: int, P: int) -> Evaluation:
    """C(m) = sum_{l=0}^{floor(m/2)} (-1)^l pi^(m-2l)/(m-2l)! eta(2l+1)
              + [m even] (-1)^(m/2) zeta(m+1).

    The single finite closed form; every other route is checked against it.

    The terms cancel: their absolute sum is at most e^pi + zeta(2), while
    C(m) >= pi^(m+2)/(4 (m+2)!) because cot(x/2) = tan((pi-x)/2) >= (pi-x)/2
    on [0, pi).  The sum runs with enough extra digits that P + 5 of them
    survive cancelling the digits of that ratio; the guard digits cover
    this up to m = 10, where no digits are added.
    """
    if not _integer(m) or m < 1:
        raise ValueError(f"c_eta_route: need an integer m >= 1, got m={m!r}")
    log10_floor = ((m + 2) * math.log10(math.pi) - math.log10(4)
                   - math.lgamma(m + 3) / math.log(10))
    cancelled = math.ceil(math.log10(math.exp(math.pi) + math.pi ** 2 / 6) - log10_floor)
    Q = P + max(0, cancelled + 5 - GUARD_DIGITS)
    with _working(P):
        with _working(Q):
            acc = mpf(0)
            for l in range(m // 2 + 1):
                p = m - 2 * l
                acc += (-1) ** l * mp.pi ** p / mp.factorial(p) * eta(2 * l + 1, Q + 5)
            if m % 2 == 0:
                acc += (-1) ** (m // 2) * zeta(m + 1, Q + 5)
        value = +acc
    return Evaluation("eta-closed-form", m, value)


# ---------------------------------------------------------------------------
# route 2: central-binomial series with exact H-triangle coefficients
# ---------------------------------------------------------------------------

# The integers that tell the parities apart, per parity (j0, a, c, e, f, s,
# r): the sum runs from j = j0; the H-row root a i + c steps the strict
# prefix H(k,j) = sum_{i<j} H(k-1,i) / (a i + c)^2; term j is
# ratio(j) H(k,j) / ((a j + c)^2 (e j + f)), with ratio(j) = C(2j,j)/4^j if
# s = 1, else 4^j/C(2j,j); for j >= j0, row r is H(r, j) = 1 and the rows
# below it are 0.  The route keeps its own table, apart from the series
# layer's families.
_CFN_ROWS = {
    1: (0, 2, 1, 0, 1, 1, 0),  # odd:  sum_{j>=0} ratio H1(k,j) / (2j+1)^2
    0: (1, 1, 0, 2, 0, 0, 1),  # even: sum_{j>=1} ratio H0(k,j) / (2 j^3)
}

# the routes suite asks for m <= 6, depth 2 odd and 3 even, so a sweep
# covers that; the two keys are the parity pair (``hpreal._paired_sweep``)
_CFN_FLOORS = {1: 2, 0: 3}


def _cfn_sweep(parity: int, kmax: int, N: int, fbits: int) -> List[int]:
    """One fixed-point pass over j <= N for every depth k <= kmax of one parity.

    Returns sums: sums[k] is the partial sum of the series for m = 2k +
    parity, times 2^fbits.

    Per block [lo, hi) of _SWEEP_BLOCK_BITS // fbits values of j, sum_j b_j
    H(k,j) = sum_{d <= k-r} H(k-d, lo) F_d, F_d the sum of b_j w(i_1)...
    w(i_d), w = 1/q, over lo <= i_d < ... < i_1 < j < hi: one backward pass,
    E_d(i) = E_d(i+1) + E_{d-1}(i+1) // q(i), one exact floor per step.  A
    block floors (kmax-r)(kmax-r+1)/2 products; the H-rows step forward only
    to the next block.  The integers depend on the block rule, not on kmax.
    """
    j0, a, c, e, f, s, r = _CFN_ROWS[parity]
    one = 1 << fbits
    sums = [0] * (kmax + 1)
    carry = [0] * (kmax + 1)          # carry[i] = H(i, lo), i > r: the row at the block start
    if r > kmax:                      # every row is 0
        return sums
    ratio = one
    for j in range(1, j0 + 1):        # ratio(j0)
        ratio = ratio * (2 * j - s) // (2 * j - 1 + s)
    block = max(1, _SWEEP_BLOCK_BITS // fbits)
    for lo in range(j0, N + 1, block):
        hi = min(lo + block, N + 1)   # this block is lo <= j < hi
        roots = range(a * lo + c, a * hi + c, a)
        q = list(map(mul, roots, roots))
        b = []
        for num, den, qv in zip(range(2 * lo + 2 - s, 2 * hi + 2 - s, 2),
                                range(2 * lo + 1 + s, 2 * hi + 1 + s, 2),
                                map(mul, q, count(e * lo + f, e))):
            b.append(ratio // qv)      # b_j
            ratio = ratio * num // den  # ratio(j + 1)
        F = [sum(b)]
        chain = accumulate(reversed(b))  # E_0(i), i = hi-1 down to lo
        back = q[-2::-1]                # q(i), i = hi-2 down to lo
        for d in range(r + 1, kmax + 1):
            inc = map(floordiv, chain, back)
            if d == kmax:               # the top depth needs only E_d(lo)
                F.append(sum(inc))
            else:
                chain = list(accumulate(inc, initial=0))
                F.append(chain[-1])
        for k in range(r, kmax + 1):
            sums[k] += F[k - r] + sum([(carry[k - d] * F[d]) >> fbits for d in range(k - r)])
        inc = map(floordiv, repeat(one), q)  # row r + 1 steps by 2^fbits // q
        for i in range(r + 1, kmax):
            col = list(accumulate(inc, initial=carry[i]))
            carry[i] = col.pop()
            inc = map(floordiv, col, q)
        if kmax > r:                    # the top row needs only its carry
            carry[kmax] += sum(inc)
    return sums


def c_cfn_route(m: int, P: int, N: int = _DEFAULT_N) -> Evaluation:
    """C(m) through the central-binomial series

        C(2k+1) = 2^(2k+1) sum_{j>=0} C(2j,j) 4^-j H1(k,j) / (2j+1)^2
        C(2k)   = (1/2)    sum_{j>=1} 4^j H0(k,j) / (j^3 C(2j,j))

    summed to N terms in fixed-point integers (the H-values are built by
    their strict-prefix recurrences in the same sweep, never as rationals).
    One sweep per (parity, N, fbits), stored by ``hpreal._paired_sweep``
    with the floors _CFN_FLOORS, serves every m of a parity.  The bound is
    the proved tail below plus the fixed-point allowance (k + 3) (N + 1)
    2^-fbits, an estimate that the sweep's floors measure below 0.29 of
    (tests/test_sweeps.py).

    The tail j > N.  H1(k, j) and H0(k, j) rise with j to the x^k and
    x^(k-1) coefficients of cosh(pi sqrt(x)/2) = prod (1 + x/(2i+1)^2) and
    sinh(pi sqrt x)/(pi sqrt x) = prod (1 + x/i^2): H1max = (pi/2)^(2k)/(2k)!
    and H0max = pi^(2k-2)/(2k-1)!.  With Kazarinoff's Wallis bounds
    1/sqrt(pi (j + 1/2)) < C(2j,j)/4^j <= 1/sqrt(pi (j + 1/4)), (2j+1)^2 >
    4 j^2 and sqrt(j + 1/2) <= sqrt(j) + 1/(4 sqrt j), term j is at most
    H1max j^(-5/2)/(4 sqrt pi) (odd) or (1/2) H0max sqrt(pi) (j^(-5/2) +
    j^(-7/2)/4) (even), and sum_{j>N} j^-s <= N^(1-s)/(s-1).  So the odd
    tail is at most H1max N^(-3/2)/(6 sqrt pi), times 2^(2k+1), and the even
    one (1/2) H0max sqrt(pi) ((2/3) N^(-3/2) + N^(-5/2)/10).
    """
    if not _integer(m) or m < 1:
        raise ValueError(f"c_cfn_route: need an integer m >= 1, got m={m!r}")
    if N < m:
        raise ValueError(f"c_cfn_route: need N >= m, got N={N}, m={m}")
    fbits = fixed_point_bits(P)
    k, parity = divmod(m, 2)          # m = 2k+1 or m = 2k
    with _working(P):
        total = _paired_sweep("cfn", _cfn_sweep, parity, k, N, fbits, _CFN_FLOORS)[k]
        unit = mpf(2) ** (-fbits)
        scale = mpf(2 ** (2 * k + 1) if parity else 1)
        value = +(total * unit * scale)
        n32 = 1 / (N * mp.sqrt(N))    # N^(-3/2)
        if parity:                    # H1max N^(-3/2) / (6 sqrt pi)
            tail = (mp.pi / 2) ** (2 * k) / mp.factorial(2 * k) * n32 / (6 * mp.sqrt(mp.pi))
        else:                         # (1/2) H0max sqrt(pi) ((2/3) N^(-3/2) + N^(-5/2)/10)
            tail = (mp.pi ** (2 * k - 2) / mp.factorial(2 * k - 1) * mp.sqrt(mp.pi) / 2
                    * (2 * n32 / 3 + n32 / (10 * N)))
        fp_err = (k + 3) * (N + 1) * unit
        bound = +((tail + fp_err) * scale)
    return Evaluation("cfn-series", m, value, N, bound)


# ---------------------------------------------------------------------------
# route 3: nested S-series combination
# ---------------------------------------------------------------------------

def c_nested_route(m: int, P: int, N: int = _DEFAULT_N) -> Evaluation:
    """C(m) as a pi-power combination of the S families:

        C(2k+1) = sum_{l=0}^{k} (-1)^l 2^(2l+1) pi^(2k-2l)/(2k-2l)!   S_odd(l)
        C(2k+2) = sum_{l=0}^{k} (-1)^l         pi^(2k-2l)/(2k-2l+1)! S_even(l)

    with the error bound propagated through the absolute weights.
    """
    if not _integer(m) or m < 1:
        raise ValueError(f"c_nested_route: need an integer m >= 1, got m={m!r}")
    k = (m - 1) // 2
    # 2^(2l+1) pi^(2k-2l)/(2k-2l)! = 2^(2k+1) A1(k-l); the even weight is A0(k-l)
    s_fn, a_fn, scale = (s_odd, a1, 2 ** (2 * k + 1)) if m % 2 else (s_even, a0, 1)
    sums = [s_fn(l, P, N) for l in range(k, -1, -1)]
    sums.reverse()  # index by l again
    with _working(P):
        acc = mpf(0)
        err = mpf(0)
        for l in range(k + 1):
            weight = scale * a_fn(k - l, P).value
            acc += (-1) ** l * weight * sums[l].value
            err += weight * sums[l].error_bound
        value = +acc
        bound = +err
    return Evaluation("nested-series", m, value, N, bound)


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

_ROUTE_ALIASES = {
    "eta": "eta-closed-form",
    "eta-closed-form": "eta-closed-form",
    "cfn": "cfn-series",
    "cfn-series": "cfn-series",
    "nested": "nested-series",
    "nested-series": "nested-series",
    "quad": "quadrature",
    "quadrature": "quadrature",
}


def compute_moment(m: int, P: int, route: str = "eta",
                   N: Optional[int] = None, tol=None) -> Evaluation:
    """One C(m) by the named route (aliases: eta, cfn, nested, quadrature)."""
    canonical = _ROUTE_ALIASES.get(route)
    if canonical is None:
        raise ValueError(f"unknown route {route!r}; pick from {ROUTES}")
    if canonical == "eta-closed-form":
        return c_eta_route(m, P)
    if canonical == "cfn-series":
        return c_cfn_route(m, P, N if N is not None else _DEFAULT_N)
    if canonical == "nested-series":
        return c_nested_route(m, P, N if N is not None else _DEFAULT_N)
    value = moment_quadrature(m, P, tol)
    with _working(P):
        bound = +_tolerance(P, tol)
    return Evaluation("quadrature", m, value, error_bound=bound)


# ---------------------------------------------------------------------------
# the four consequence identities
# ---------------------------------------------------------------------------

def _ci1(x, da, db):
    # -log(x) / sqrt(1 - x^2) on [0, 1]; 1 - x^2 = db (1 + x) exactly
    return -mp.log(x) / mp.sqrt(db * (1 + x))


_HALF = mpf(0.5)  # exact at any precision; built once, not per evaluation


def _ci3(x, da, db):
    # asin(sqrt x)^2 / x on [0, 1], with asin sqrt x = atan sqrt(x/db), one
    # square root; near 1 fold it through db as pi/2 - atan sqrt(db/x)
    if x > _HALF:
        s = mp.pi / 2 - mp.atan(mp.sqrt(db / x))
    else:
        s = mp.atan(mp.sqrt(x / db))
    return s * s / x


def _log(x, db):
    # log(x) on [0, 1]; near 1 fold it through db = 1 - x
    return mp.log1p(-db) if x > _HALF else mp.log(x)


def _theta_kernels(P: int):
    """K1 and K0 by Horner's rule on their theta-series in fixed-point
    integers, built once per P.

    Returns (k1, k0), each called as k(z, 1 - z) for 0 < z <= 1 inside the
    caller's precision scope.  With y = sin t the kernels are incomplete
    moments of cot:

        z K1(z) = int_0^theta t cot t dt,      theta = asin z,
        K0(z)   = int_0^theta 2 t^2 cot t dt,  theta = asin sqrt z.

    Since t cot t = sum_k a_k t^(2k), with a_k = (-1)^k B_2k 4^k/(2k)!, and
    a_k = -2 zeta(2k)/pi^(2k) for k >= 1, in x = (theta/pi)^2 <= 1/4

        z K1(z) = theta   sum_k c_k x^k,  c_k = a_k pi^(2k)/(2k+1),
        K0(z)   = theta^2 sum_k c_k x^k,  c_k = a_k pi^(2k)/(k+1),

    and |c_k| <= 2 zeta(2) for every k (c_0 = 1).

    Truncation after k = K.  |c_k x^k| <= 2 zeta(2) 4^(-k), so the dropped
    terms sum to at most 2 zeta(2) 4^(-K)/3 = (pi^2/9) 4^(-K).  The
    prefactors theta/z (as sin theta >= 2 theta/pi) and theta^2 are at most
    pi/2 and pi^2/4, so each truncated kernel is within
    (pi^4/36) 4^(-K) < 3 * 4^(-K) of the true one.  K is the least with
    3 * 4^(-K) <= 10^-(P + _WORK_GUARD), the working precision of the
    integrals.

    Fixed point.  With fb = 10 + the working bits and u = 2^-fb, each c_k
    is held as the integer C_k = round(c_k / u).  c_k is a product of about
    3k + 5 rounded factors (pi^(2k) inherits 2k times the error of pi),
    computed 20 + bitlength(K) bits above the working precision, so its
    relative error is below 4 * 2^-(fb + 10) and |C_k u - c_k| <= 0.52 u.
    x is held as X = floor(x / u), and the sum is evaluated at x' = X u,
    where 0 <= x' <= 1/4 up to the rounding of theta; moving x to x' is an
    input error of the same kind as theta's own.  Horner's rule runs
    acc_j = floor(acc_(j-1) X u) + C_j.  Against the exact Horner values
    p_j = p_(j-1) x' + c_j, the error e_j = acc_j u - p_j obeys
    |e_j| <= x' |e_(j-1)| + u + 0.52 u, the floor losing less than u.  So
    |e_j| <= 1.52 u / (1 - 1/4) < 2.1 u at every step, whatever K is.  Both
    sums fall with x (c_k < 0 for k >= 1), from 1 to log 2 (K1) and to
    4 C(2) / pi^2 > 0.53 (K0) at x = 1/4, so the fixed-point error is below
    4 u = 2^-(working bits + 8) relative.

    The Bernoulli numbers are mpmath's: the kernels share nothing with
    the series layer's K1/K0 power series, which the consequence checks
    compare against.
    """
    K = math.ceil((P + _WORK_GUARD + math.log10(3)) / math.log10(4))
    with _working(P, _WORK_GUARD):
        fb = mp.prec + 10
        half_pi = mp.pi / 2
        inv_pi2 = 1 / mp.pi ** 2
        with mp.extraprec(20 + K.bit_length()):
            a = [mp.bernoulli(2 * k) * (-4 * mp.pi ** 2) ** k / mp.factorial(2 * k)
                 for k in range(K + 1)]
            # highest degree first, for Horner's rule
            c1 = [int(mp.nint(mp.ldexp(a[k] / (2 * k + 1), fb))) for k in range(K, -1, -1)]
            c0 = [int(mp.nint(mp.ldexp(a[k] / (k + 1), fb))) for k in range(K, -1, -1)]

    def horner(coeffs, s):
        x = int(mp.ldexp(s * inv_pi2, fb))
        acc = 0
        for c in coeffs:
            acc = ((acc * x) >> fb) + c
        return mpf((acc, -fb))

    def k1(z, dz):
        # near 1, asin z = pi/2 - acos z = pi/2 - 2 asin sqrt(dz/2), and
        # asin sqrt(dz/2) = atan sqrt(dz/(2 - dz)) takes one square root
        if z > _HALF:
            theta = half_pi - 2 * mp.atan(mp.sqrt(dz / (2 - dz)))
        else:
            theta = mp.asin(z)
        return theta * horner(c1, theta * theta) / z

    def k0(z, dz):
        # asin sqrt z = atan sqrt(z/dz), folded through dz near 1 as _ci3
        # does, so z = 1 (dz = 0) divides by nothing
        if z > _HALF:
            theta = half_pi - mp.atan(mp.sqrt(dz / z))
        else:
            theta = mp.atan(mp.sqrt(z / dz))
        s = theta * theta
        return s * horner(c0, s)

    return k1, k0


def _ci2(k1, x, da, db):
    # -log(x) K1(x) / (1 - x^2) on [0, 1]; 1 - x^2 = db (1 + x) exactly
    return -_log(x, db) * k1(x, db) / (db * (1 + x))


def _ci4(k0, x, da, db):
    # K0(x) log(x) / (x (1 - x)) on [0, 1]; 1 - x = db exactly
    return k0(x, db) * _log(x, db) / (x * db)


_CONSEQUENCE_ANCHORS = {
    1: "int_0^1 -log(x)/sqrt(1-x^2) dx = (pi/2) log2 = S_odd(0)",
    2: "int int log(x0)log(x1)/(sqrt(1-x0^2 x1^2)(1-x1^2)) = -int_0^1 log(x) K1(x)/(1-x^2) dx = pi^3/24 log2 + pi/8 eta(3) = S_odd(1)",
    3: "int_0^1 asin^2(sqrt x)/x dx = pi^2/2 log2 - 7/3 eta(3) = S_even(0)",
    4: "int int asin^2(sqrt(x0 x1))/(x0 x1) * log(x1)/(1-x1) = int_0^1 K0(x) log(x)/(x(1-x)) dx = -pi^4/24 log2 - pi^2/9 eta(3) + 31/15 eta(5) = -S_even(1)",
}


def verify_consequences(P: int, N: int = _DEFAULT_N, tol=None) -> VerificationReport:
    """The four k = 0, 1 identities, each computed three independent ways:
    truncated nested series, 1-D tanh-sinh quadrature, and the closed form
    in the {pi, log2, eta(3), eta(5)} basis.

    Consequences 2 and 4 are double integrals whose inner integral is a
    kernel: int_0^1 log(x0)/sqrt(1 - x0^2 x1^2) dx0 = -K1(x1) (substitute
    u = x0 x1 and integrate by parts), and the inner integral of 4 is
    K0(x1)/x1.  Their quadrature evidence is the remaining 1-D integral,
    with the kernels summed by their theta-series (_theta_kernels); the
    consequence-{2,4}/kernel checks hold that series against the series
    layer's K1/K0 power series.

    The four 1-D integrals are independent, so they fill the package's
    store, under ("consequence", i, P, tol), from two processes
    (``hpreal._in_halves``): _ci2 and _ci3 here, _ci1 and _ci4 in a forked
    child, which sends its entries back exactly.  The checks read them from
    the store, so every value, and so the report, is bit-identical to a
    serial run's, and a repeat of the suite integrates nothing."""
    if N < 1:
        raise ValueError(f"verify_consequences: need N >= 1, got {N}")
    report = VerificationReport("consequences", config={"digits": P, "N": N})
    fmt = _fmt(P)
    with _working(P):
        tol_q = _tolerance(P, tol)
        report.config["tol"] = mp.nstr(tol_q, 5)
        lg2 = eta(1, P + 5)
        e3 = eta(3, P + 5)
        e5 = eta(5, P + 5)
        k1, k0 = _theta_kernels(P)
        # one row per identity: the closed form, the S function, its depth
        # and its sign, and the kernel-reduced 1-D integrand
        rows = (
            (mp.pi / 2 * lg2, s_odd, 0, 1, _ci1),
            (mp.pi ** 3 / 24 * lg2 + mp.pi / 8 * e3, s_odd, 1, 1, partial(_ci2, k1)),
            (mp.pi ** 2 / 2 * lg2 - mpf(7) / 3 * e3, s_even, 0, 1, _ci3),
            (-mp.pi ** 4 / 24 * lg2 - mp.pi ** 2 / 9 * e3 + mpf(31) / 15 * e5,
             s_even, 1, -1, partial(_ci4, k0)),
        )

        def quadrature_value(integrand):
            return integrate_1d(integrand, 0, 1, P, tol_q).value

        quads = [partial(_value, ("consequence", i, P, tol_q._mpf_),
                         partial(quadrature_value, row[4]))
                 for i, row in enumerate(rows, start=1)]
        # _ci2 and _ci3 here, _ci1 and _ci4 in a child: about the same cost
        _in_halves([quads[i] for i in (1, 2, 0, 3)])
        for i, (closed, s_fn, l, sign, _) in enumerate(rows, start=1):
            anchor = _CONSEQUENCE_ANCHORS[i]
            sv = s_fn(l, P, N)
            report.add_numeric(f"consequence-{i}/nested-vs-closed", anchor,
                               sign * sv.value, closed, tol=sv.error_bound, fmt=fmt)
            quad = quads[i - 1]()
            report.add_numeric(f"consequence-{i}/quadrature-vs-closed", anchor,
                               quad, closed, tol=tol_q, fmt=fmt)
            if i == 1:
                # the same first integral, doubled, is the first moment
                report.add_numeric("consequence-1/dimension-one",
                                   "-2 int_0^1 log(x)/sqrt(1-x^2) dx = C(1) = pi log2",
                                   2 * quad, c_eta_route(1, P).value, tol=2 * tol_q, fmt=fmt)

        tol10 = default_tolerance(P)
        for z in ("0.25", "0.5", "0.75"):
            x = mpf(z)
            for i, theta_kernel, kernel, anchor in (
                    (2, k1, kernel_k1, "z K1(z) = int_0^asin(z) t cot t dt by its theta-series"
                                       " matches the K1 power series"),
                    (4, k0, kernel_k0, "K0(z) = int_0^asin(sqrt z) 2t^2 cot t dt by its"
                                       " theta-series matches the K0 power series")):
                report.add_numeric(f"consequence-{i}/kernel/z={z}", anchor, theta_kernel(x, 1 - x),
                                   kernel(z, P, method="series"), tol=tol10, fmt=fmt)
    return report


# ---------------------------------------------------------------------------
# H-triangle reduction to pi-weighted nested tail sums
# ---------------------------------------------------------------------------

def verify_h_integral_reduction(k: int, jmax: int, N: int, P: int) -> VerificationReport:
    """Reproduce the exact H-triangle columns from truncated tail sums:

        H1(k, j)   = sum_{l=0}^{k} (pi/2)^(2l)/(2l)!  (-1)^(k-l) T_{k-l}(j)
        H0(k+1, j) = sum_{l=0}^{k} pi^(2l)/(2l+1)!    (-1)^(k-l) T_{k-l}(j)

    where T_d(j) are the d-fold weakly-increasing tail sums of 1/(2i+1)^2
    (odd side) or 1/i^2 (even side) starting at j.  Tolerances are the
    rigorous truncation bounds of the T values, pushed through the absolute
    weights."""
    if not 0 <= k <= 3:
        raise ValueError(f"verify_h_integral_reduction: need 0 <= k <= 3, got {k}")
    if not 1 <= jmax <= 20:
        raise ValueError(f"verify_h_integral_reduction: need 1 <= jmax <= 20, got {jmax}")
    report = VerificationReport("h-reduction",
                                config={"digits": P, "N": N, "k": k, "jmax": jmax})
    fmt = _fmt(P)
    with _working(P):
        w_odd = [a1(l, P).value for l in range(k + 1)]
        w_even = [a0(l, P).value for l in range(k + 1)]
        for kind, row, weights, table, anchor in (
                ("odd", k, w_odd, cfn.build_h1(k, jmax),
                 "H1(k,j) = sum_l (pi/2)^(2l)/(2l)! (-1)^(k-l) T_(k-l)(j), odd tails"),
                ("even", k + 1, w_even, cfn.build_h0(k + 1, jmax),
                 "H0(k+1,j) = sum_l pi^(2l)/(2l+1)! (-1)^(k-l) T_(k-l)(j), even tails")):
            tails, bounds = nested_tail_sums(kind, k, jmax, N, P)
            for j in range(1, jmax + 1):
                acc = mpf(0)
                bound = mpf(0)
                for l in range(k + 1):
                    acc += weights[l] * (-1) ** (k - l) * tails[j][k - l]
                    bound += weights[l] * bounds[k - l]
                exact = table[row, j]
                report.add_numeric(
                    f"{table.kind}-reduction/k={row},j={j}", anchor,
                    acc, mpf(exact.numerator) / exact.denominator,
                    tol=+bound, fmt=fmt)
    return report


# ---------------------------------------------------------------------------
# generating-function identities at sample points
# ---------------------------------------------------------------------------

def binomial_gf_identities(P: int) -> VerificationReport:
    """The two central-binomial generating functions, evaluated numerically:

        sum_j C(2j,j) (x/2)^(2j)        = 1/sqrt(1 - x^2)
        (1/2) sum_j (2x)^(2j)/(j^2 C(2j,j)) = asin^2(x)

    Each of x = 0, 0.25, 0.5, 0.75, 0.9 must match to 10^-(P-10)."""
    report = VerificationReport("gf-identities", config={"digits": P})
    fmt = _fmt(P)
    with _working(P):
        tol = default_tolerance(P)
        report.config["tol"] = mp.nstr(tol, 5)
        target = mpf(10) ** (-(P + 5))
        for sample in ("0", "0.25", "0.5", "0.75", "0.9"):
            x = mpf(sample)
            label = mp.nstr(x, 8)
            xx = x * x
            # identity 1: sum_j C(2j,j) (x/2)^(2j) = (1 - x^2)^(-1/2)
            term = mpf(1)
            acc = mpf(1)
            j = 0
            while term >= target * (1 - xx):
                j += 1
                term *= xx * (2 * j - 1) / (2 * j)
                acc += term
            report.add_numeric(f"gf-sqrt/x={label}",
                               "sum C(2j,j)(x/2)^(2j) = 1/sqrt(1-x^2)",
                               acc, 1 / mp.sqrt(1 - xx), tol=tol, fmt=fmt)
            # identity 2: (1/2) sum_{j>=1} (2x)^(2j)/(j^2 C(2j,j)) = asin(x)^2
            term = xx        # j = 1: (1/2)(2x)^2 / C(2,1) = x^2
            acc = +term
            j = 1
            while True:
                j += 1
                term *= 2 * xx * j / (2 * j - 1)
                contrib = term / (j * j)
                acc += contrib
                if contrib < target * (1 - xx):
                    break
            report.add_numeric(f"gf-arcsin2/x={label}",
                               "(1/2) sum (2x)^(2j)/(j^2 C(2j,j)) = asin(x)^2",
                               acc, mp.asin(x) ** 2, tol=tol, fmt=fmt)
    return report

# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _suite_tables(P: int, N: int, tol) -> VerificationReport:
    report = VerificationReport("tables")
    report.extend(cfn.check_reference_values(), prefix="reference")
    report.extend(cfn.check_factorial_relation(5, 10), prefix="factorial")
    return report


def _suite_closed_forms(P: int, N: int, tol) -> VerificationReport:
    report = VerificationReport("closed-forms", config={"digits": P})
    fmt = _fmt(P)
    with _working(P):
        tol8 = _closed_form_tolerance(P)
        report.config["tol"] = mp.nstr(tol8, 5)
        for k in range(1, 7):
            for kind, r_closed, anchor in (
                    ("odd", r_odd, "cycle-index sum over partitions = (pi/2)^(2k) E*_2k/(2k)!"),
                    ("even", r_even,
                     "cycle-index sum over partitions = 2(2^(2k-1)-1)|B_2k| pi^(2k)/(2k)!")):
                report.add_numeric(f"r-{kind}-partitions/k={k}", anchor,
                                   r_via_partitions(k, kind, P).value, r_closed(k, P).value,
                                   tol=tol8, fmt=fmt)
        for k in range(7):
            for name, rebuilt, closed, anchor in (
                    ("a1", a1_via_recurrence, a1,
                     "alternating R_odd recurrence rebuilds (pi/2)^(2k)/(2k)!"),
                    ("a0", a0_via_recurrence, a0,
                     "alternating R_even recurrence rebuilds pi^(2k)/(2k+1)!")):
                report.add_numeric(f"{name}-recurrence/k={k}", anchor,
                                   rebuilt(k, P).value, closed(k, P).value, tol=tol8, fmt=fmt)
        for k in range(1, 11):
            report.add_exact(
                f"euler-vanishing/k={k}",
                "sum_l (-1)^(l+1) C(2k,2l) E*_2l = 0",
                euler_binomial_vanishing(k), 0)
        # deepest first: one sweep per kind then serves every depth
        truncated = {(k, kind): r_truncated_nested(k, kind, P, 10000)
                     for k in (3, 2, 1) for kind in ("odd", "even")}
        for k in range(1, 4):
            for kind in ("odd", "even"):
                sv = truncated[k, kind]
                closed = (r_odd if kind == "odd" else r_even)(k, P).value
                report.add_numeric(
                    f"r-{kind}-truncated/k={k}",
                    "k-fold weakly-nested prefix sum within its rigorous tail bound",
                    sv.value, closed, tol=sv.error_bound, fmt=fmt)
        for l in range(1, 6):
            report.add_numeric(
                f"zeta-even-closed/l={l}",
                "eta-based zeta(2l) matches (2 pi)^(2l)|B_2l|/(2 (2l)!)",
                zeta(2 * l, P), zeta_even_closed(2 * l, P),
                tol=_zeta_even_tolerance(P), fmt=fmt)
    return report


def _suite_gf(P: int, N: int, tol) -> VerificationReport:
    report = VerificationReport("gf")
    report.extend(cfn.check_generating_functions(4, 31), prefix="coefficients")
    report.extend(binomial_gf_identities(P), prefix="samples")
    return report


def _suite_routes(P: int, N: int, tol) -> VerificationReport:
    """C(m) by quadrature (m = 1..8) and by the cfn and nested series
    (m = 1..6) against the eta route, and the K1/K0 power series against
    their integrals at z = 0.25, 0.5, 0.75 and their values at z = 1.

    The 8 moment integrals and the 8 kernel integrals are independent, so
    they fill the package's store from two processes (``hpreal._in_halves``):
    half here and half in a forked child, which sends its store entries
    back exactly.  The checks read all 16 from the store, so the report is
    bit-identical to a serial run's."""
    report = VerificationReport("routes", config={"digits": P, "N": N})
    fmt = _fmt(P)
    # the kernels' odd and even rows: the check name, the kernel and the
    # anchor of the check at z < 1
    kernels = (("k1", kernel_k1, "K1 power series matches (1/z) int_0^z asin(y)/y dy"),
               ("k0", kernel_k0, "K0 power series matches int_0^z asin^2(sqrt y)/y dy"))
    with _working(P):
        tol_q = _tolerance(P, tol)
        report.config["tol"] = mp.nstr(tol_q, 5)
        # the sixteen integrals, ordered so that this process's half (m = 1..4,
        # z = 0.25 and 0.5) and a child's (m = 5..8, z = 0.75 and 1) cost
        # about the same
        works = {}
        for ms, zs in (((1, 2, 3, 4), ("0.25", "0.5")), ((5, 6, 7, 8), ("0.75", 1))):
            for m in ms:
                works[m] = partial(moment_quadrature, m, P, tol)
            for z in zs:
                for name, kernel, _ in kernels:
                    works[name, z] = partial(kernel, z, P, method="integral")
        _in_halves(list(works.values()))
        value = {name: work() for name, work in works.items()}
        ref = {m: c_eta_route(m, P).value for m in range(1, 9)}
        for m in range(1, 9):
            report.add_numeric(
                f"route-quadrature/m={m}",
                "tanh-sinh moment integral matches the eta closed form",
                value[m], ref[m], tol=10 * tol_q, fmt=fmt)
        for m in range(1, 7):
            mv = c_cfn_route(m, P, N)
            report.add_numeric(
                f"route-cfn/m={m}",
                "central-binomial series within its own tail bound of the closed form",
                mv.value, ref[m], tol=mv.error_bound, fmt=fmt)
            mv = c_nested_route(m, P, N)
            report.add_numeric(
                f"route-nested/m={m}",
                "nested S-series combination within its propagated tail bound",
                mv.value, ref[m], tol=mv.error_bound, fmt=fmt)
        tol10 = default_tolerance(P)
        for z in ("0.25", "0.5", "0.75"):
            for name, kernel, anchor in kernels:
                report.add_numeric(f"kernel-{name}/z={z}", anchor, kernel(z, P, method="series"),
                                   value[name, z], tol=tol10, fmt=fmt)
        lg2 = eta(1, P + 5)
        report.add_numeric(
            "kernel-k1/z=1",
            "K1(1) = (pi/2) log 2 (the S_odd(0) series)",
            value["k1", 1], mp.pi / 2 * lg2, tol=tol10, fmt=fmt)
        report.add_numeric(
            "kernel-k0/z=1",
            "K0(1) equals the second moment C(2)",
            value["k0", 1], ref[2], tol=tol10, fmt=fmt)
    return report


_H_REDUCTION_JMAX = 10  # the h-reduction suite checks the columns j = 1..10


def _suite_h_reduction(P: int, N: int, tol) -> VerificationReport:
    return verify_h_integral_reduction(2, _H_REDUCTION_JMAX, N, P)


# every suite builder takes (P, N, tol); 'all' runs them in this order
_SUITES = {
    "tables": _suite_tables,
    "closed-forms": _suite_closed_forms,
    "consequences": verify_consequences,
    "gf": _suite_gf,
    "routes": _suite_routes,
    "h-reduction": _suite_h_reduction,
}

SUITES = ("all",) + tuple(_SUITES)


def _require_suite_n(name: str, N: int) -> None:
    """Refuse an N that suite name cannot take, before any of it runs: the
    h-reduction suite reads tails up to j = _H_REDUCTION_JMAX < N."""
    if name in ("all", "h-reduction") and N <= _H_REDUCTION_JMAX:
        raise ValueError(f"suite {name!r} needs N > {_H_REDUCTION_JMAX}"
                         f" (its h-reduction tails run to j = {_H_REDUCTION_JMAX}), got N={N}")


def run_suite(name: str, P: int = _DEFAULT_DIGITS, N: int = _DEFAULT_N,
              tol=None) -> VerificationReport:
    """Build and run one named verification suite; 'all' folds every suite
    into a single report (check ids are globally unique by construction)."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; pick from {SUITES}")
    _require_digits(P)
    _require_suite_n(name, N)
    if name != "all":
        return _SUITES[name](P, N, tol)
    report = VerificationReport("all", config={"digits": P, "N": N})
    for sub in _SUITES:
        report.extend(run_suite(sub, P, N, tol), prefix=sub)
    return report
