"""Per-j reference loops of the three fixed-point sweeps.

* ``_reference_cfn_sweep``: the central-binomial sweep of the cfn route,
  one j at a time, with the H-rows and the chain sums as lists updated in
  place;
  ``moments._cfn_sweep`` must return the same sums.
* ``_reference_sums_sweep``: the forward sums of the S families, one j at a
  time; ``series._sums_sweep`` must return the same sums.
* ``_reference_tails_sweep``: the backward suffix tails of the series layer,
  one j at a time; ``series._tails_sweep`` must return the same recorded
  tails.

Every depth step is one exact floor x // q, with q = root^2.  The S loops
floor no product; the cfn loop floors each block's products of an H-row
value at the block start and a backward chain sum, with the package's
block length.  So the package's blocked sweeps reproduce them integer for
integer.
"""

from __future__ import annotations

from typing import Dict, List

from cotmoments.series import _FAMILIES, _TAIL_RECORD_MAX

# The cfn route's parity table (j0, a, c, e, f, s, seed), with its seed rows
# written out as the values of the rows H(i, .) that stay fixed for j >= j0.
_CFN_ROWS = {
    1: (0, 2, 1, 0, 1, 1, (1,)),    # odd:  sum_{j>=0} ratio H1(k,j) / (2j+1)^2
    0: (1, 1, 0, 2, 0, 0, (0, 1)),  # even: sum_{j>=1} ratio H0(k,j) / (2 j^3)
}


def _reference_cfn_sweep(parity, kmax, N, fbits):
    """The sums of the cfn series for every depth k <= kmax, times 2^fbits.

    Per block [lo, hi) of (1 << 17) // fbits values of j: forward over j the
    H-rows step, H(i, j+1) = H(i, j) + H(i-1, j) // q(j); backward over j
    the chain sums step, F_d(i) = F_d(i+1) + F_{d-1}(i+1) // q(i), with
    F_0(i) = sum_{i <= j < hi} b_j; the block adds sum_d H(k-d, lo) F_d(lo)
    to sums[k], each product floored once."""
    j0, a, c, e, f, s, seed = _CFN_ROWS[parity]
    one = 1 << fbits
    block = (1 << 17) // fbits
    sums = [0] * (kmax + 1)
    h = ([one * x for x in seed] + [0] * kmax)[: kmax + 1]  # h[i] = H(i, j)
    fixed = len(seed) - 1             # rows up to here stay at their seed
    ratio = one
    for j in range(1, j0 + 1):        # ratio(j0)
        ratio = ratio * (2 * j - s) // (2 * j - 1 + s)
    for lo in range(j0, N + 1, block):
        start = list(h)               # H(i, lo)
        terms = []                    # (b_j, q(j)) for lo <= j < hi
        for j in range(lo, min(lo + block, N + 1)):
            if j > j0:
                ratio = ratio * (2 * j - s) // (2 * j - 1 + s)
            q = (a * j + c) ** 2      # root a j + c
            b = ratio // (q * (e * j + f))  # outer factor e j + f
            terms.append((b, q))
            for i in range(kmax, fixed, -1):
                h[i] += h[i - 1] // q
        chains = [0] * (kmax + 1)     # chains[d] = F_d(i)
        for b, q in reversed(terms):
            for d in range(kmax, 0, -1):
                chains[d] += chains[d - 1] // q
            chains[0] += b
        for k in range(kmax + 1):
            sums[k] += sum((start[k - d] * chains[d]) >> fbits for d in range(k + 1))
    return sums


def _reference_sums_sweep(kind, lmax, N, fbits):
    """The S family's sums for every depth l <= lmax, times 2^fbits.

    Forward over j: B_0 sums b(j) and B_d adds B_{d-1}(j) w(j), so B_l(N)
    sums b(j) w(i_1) ... w(i_l) over j <= i_1 <= ... <= i_l <= N."""
    fam = _FAMILIES[kind]
    a, e, s = fam.a, fam.e, fam.s
    one = 1 << fbits
    B = [0] * (lmax + 1)
    ratio = one
    for j in range(1, fam.j0 + 1):  # ratio(j0)
        ratio = ratio * (2 * j - s) // (2 * j - 1 + s)
    for j in range(fam.j0, N + 1):
        if j > fam.j0:
            ratio = ratio * (2 * j - s) // (2 * j - 1 + s)
        q = (a * j + fam.c) ** 2  # inner root a j + c
        bj = ratio // (q * (e * j + fam.f))  # outer factor e j + f
        B[0] += bj
        for d in range(1, lmax + 1):
            B[d] += B[d - 1] // q
    return B


def _reference_tails_sweep(kind, lmax, N, fbits):
    """The recorded suffix tails {j: [T_0(j)..T_lmax(j)]}, times 2^fbits.

    Backward over j: T_d(j) = T_d(j + 1) + w(j) T_{d-1}(j)."""
    fam = _FAMILIES[kind]
    one = 1 << fbits
    t = [one] + [0] * lmax
    tails: Dict[int, List[int]] = {}
    for j in range(N, fam.j0 - 1, -1):
        q = (fam.a * j + fam.c) ** 2
        for d in range(1, lmax + 1):
            t[d] += t[d - 1] // q
        if j <= _TAIL_RECORD_MAX:
            tails[j] = list(t)
    return tails
