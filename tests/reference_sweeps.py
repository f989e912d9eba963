"""Per-j reference loops of the two fixed-point sweeps.

* ``_reference_cfn_sweep``: the central-binomial sweep of the cfn route,
  one j at a time, with the H-rows as a list updated in place;
  ``moments._cfn_sweep`` must return the same ``(sums, lasts)``.
* ``_reference_sweep_family``: the backward S-family sweep of the series
  layer, one j at a time; ``series._sweep_family`` must return the same
  ``weighted_sums``, ``tails`` and ``b_last``.

Both loops floor every product on its own, so the package's blocked sweeps
reproduce them integer for integer.
"""

from __future__ import annotations

from typing import Dict, List

from cotmoments.series import _FAMILIES, _TAIL_RECORD_MAX, _FamilyData

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
        if j > j0:
            w = one // q              # q = (a (j-1) + c)^2, from step j-1
            for i in range(kmax, fixed, -1):
                h[i] += (h[i - 1] * w) >> fbits
            ratio = ratio * (2 * j - s) // (2 * j - 1 + s)
            u += a
            v += e
        q = u * u
        b = ratio // (q * v)
        for k in range(kmax + 1):
            sums[k] += (b * h[k]) >> fbits
    return sums, [(b * hk) >> fbits for hk in h]


def _reference_sweep_family(kind, lmax, N, fbits):
    """The S family's weighted sums, recorded suffix tails and b(N), times 2^fbits."""
    fam = _FAMILIES[kind]
    a, e, s = fam.a, fam.e, fam.s
    one = 1 << fbits
    t = [one] + [0] * lmax
    sums = [0] * (lmax + 1)
    tails: Dict[int, List[int]] = {}
    ratio = one
    for i in range(1, N + 1):
        ratio = ratio * (2 * i - s) // (2 * i - 1 + s)
    u = a * N + fam.c  # inner root a j + c
    v = e * N + fam.f  # outer factor e j + f
    b_last = ratio // (u * u * v)
    # the outer weights b(j) are streamed backwards by their term ratio
    for j in range(N, fam.j0 - 1, -1):
        q = u * u
        w = one // q
        for d in range(1, lmax + 1):
            t[d] += (t[d - 1] * w) >> fbits
        bj = ratio // (q * v)
        for d in range(lmax + 1):
            sums[d] += (bj * t[d]) >> fbits
        if j <= _TAIL_RECORD_MAX:
            tails[j] = list(t)
        ratio = ratio * (2 * j - 1 + s) // (2 * j - s)  # 0 after j = 0, unused
        u -= a
        v -= e
    return _FamilyData(lmax=lmax, weighted_sums=sums, tails=tails, b_last=b_last)
