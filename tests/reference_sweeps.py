"""Per-j reference loops of the three fixed-point sweeps.

* ``_reference_cfn_sweep``: the central-binomial sweep of the cfn route,
  one j at a time, with the H-rows as a list updated in place;
  ``moments._cfn_sweep`` must return the same ``(sums, lasts)``.
* ``_reference_sums_sweep``: the forward sums of the S families, one j at a
  time; ``series._sums_sweep`` must return the same ``(sums, b_last)``.
* ``_reference_tails_sweep``: the backward suffix tails of the series layer,
  one j at a time; ``series._tails_sweep`` must return the same recorded
  tails.

Every depth step is one exact floor x // q, with q = root^2, and every
outer product floors on its own, so the package's blocked sweeps reproduce
them integer for integer.
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
    """(sums, lasts) of the cfn series for every depth k <= kmax, times 2^fbits."""
    j0, a, c, e, f, s, seed = _CFN_ROWS[parity]
    one = 1 << fbits
    sums = [0] * (kmax + 1)
    h = ([one * x for x in seed] + [0] * kmax)[: kmax + 1]  # h[i] = H(i, j)
    fixed = len(seed) - 1             # rows up to here stay at their seed
    ratio = one
    for j in range(1, j0 + 1):        # ratio(j0)
        ratio = ratio * (2 * j - s) // (2 * j - 1 + s)
    u = a * j0 + c                    # root a j + c
    v = e * j0 + f                    # outer factor e j + f
    for j in range(j0, N + 1):
        if j > j0:                    # q = (a (j-1) + c)^2, from step j-1
            for i in range(kmax, fixed, -1):
                h[i] += h[i - 1] // q
            ratio = ratio * (2 * j - s) // (2 * j - 1 + s)
            u += a
            v += e
        q = u * u
        b = ratio // (q * v)
        for k in range(kmax + 1):
            sums[k] += (b * h[k]) >> fbits
    return sums, [(b * hk) >> fbits for hk in h]


def _reference_sums_sweep(kind, lmax, N, fbits):
    """The S family's sums for every depth l <= lmax and b(N), times 2^fbits.

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
    return B, bj


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
