"""Reference cfn-layer loops for the tests, each written once per parity.

* ``_reference_cfn``: one blocked fixed-point sweep per m, written apart
  from the package's shared sweep, with a branch per parity;
  ``c_cfn_route`` must reproduce its value and bound exactly.
* ``_reference_t0`` .. ``_reference_h1``: the four triangle recurrences as
  twin loops; ``cfn.build_*`` must reproduce their rows exactly.
"""

from __future__ import annotations

from fractions import Fraction as Fr

from mpmath import mpf

from cotmoments.exact import double_factorial_odd
from cotmoments.hpreal import _working, fixed_point_bits


def _reference_cfn(m, P, N):
    """(value, bound) of C(m) from a sweep that builds rows up to k only.

    Per block [lo, hi) of (1 << 17) // fbits values of j, the H-rows step
    forward and the chain sums F_d backward; the block adds the products
    H(k-d, lo) F_d, each floored once."""
    fbits = fixed_point_bits(P)
    one = 1 << fbits
    block = (1 << 17) // fbits
    k = m // 2                        # m = 2k+1 or m = 2k
    if m % 2:  # odd
        h = [one] + [0] * k           # h[i] = H1(i, j), strict prefix DP
        ratio = one                   # C(2j,j)/4^j
        j0 = 0                        # the sum's first j, and the last fixed row
    else:      # even
        h = [0, one] + [0] * (k - 1)  # h[i] = H0(i, j); H0(1, j) = 1 for j >= 1
        ratio = 2 * one               # 4^j / C(2j,j) at j = 1
        j0 = 1
    total = 0
    last = 0
    for lo in range(j0, N + 1, block):
        start = list(h)               # H(i, lo)
        terms = []                    # (b_j, q(j)), q(j) the step to H(., j+1)
        for j in range(lo, min(lo + block, N + 1)):
            if m % 2:
                if j:
                    ratio = ratio * (2 * j - 1) // (2 * j)
                q = (2 * j + 1) ** 2
                b = ratio // q
            else:
                if j > 1:
                    ratio = ratio * (2 * j) // (2 * j - 1)
                q = j * j
                b = ratio // (2 * j ** 3)  # the 1/2 is folded into 2 j^3
            last = (b * h[k]) >> fbits
            terms.append((b, q))
            for i in range(k, j0, -1):
                h[i] += h[i - 1] // q
        chains = [0] * (k + 1)        # chains[d] = F_d(i), F_0(i) = sum_{i <= j < hi} b_j
        for b, q in reversed(terms):
            for d in range(k, 0, -1):
                chains[d] += chains[d - 1] // q
            chains[0] += b
        total += sum((start[k - d] * chains[d]) >> fbits for d in range(k + 1))
    with _working(P):
        unit = mpf(2) ** (-fbits)
        scale = mpf(2 ** (2 * k + 1) if m % 2 else 1)
        value = +(total * unit * scale)
        tail = mpf("1.05") * (mpf(2) / 3) * N * (last * unit)
        fp_err = (k + 3) * (N + 1) * unit
        bound = +((tail + fp_err) * scale)
    return value, bound


def _reference_t0(kmax, nmax):
    rows = [[Fr(1)] + [Fr(0)] * nmax]
    for k in range(1, kmax + 1):
        prev = rows[k - 1]
        row = [Fr(0)] * (nmax + 1)
        for n in range(1, nmax + 1):
            row[n] = prev[n - 1] + (n - 1) ** 2 * row[n - 1]
        rows.append(row)
    return rows


def _reference_t1(kmax, nmax):
    rows = [[Fr(double_factorial_odd(n) ** 2, 4**n) for n in range(nmax + 1)]]
    for k in range(1, kmax + 1):
        prev = rows[k - 1]
        row = [Fr(0)] * (nmax + 1)
        for n in range(1, nmax + 1):
            row[n] = prev[n - 1] + Fr(2 * n - 1, 2) ** 2 * row[n - 1]
        rows.append(row)
    return rows


def _reference_h0(kmax, nmax):
    rows = [[Fr(1)] + [Fr(0)] * nmax]
    if kmax >= 1:
        rows.append([Fr(0)] + [Fr(1)] * nmax)  # H0(1,n) = 1 for n >= 1
    for k in range(2, kmax + 1):
        prev = rows[k - 1]
        row = [Fr(0)] * (nmax + 1)
        for n in range(k, nmax + 1):
            row[n] = row[n - 1] + prev[n - 1] / Fr((n - 1) ** 2)
        rows.append(row)
    return rows


def _reference_h1(kmax, nmax):
    rows = [[Fr(1)] * (nmax + 1)]  # H1(0,n) = 1
    for k in range(1, kmax + 1):
        prev = rows[k - 1]
        row = [Fr(0)] * (nmax + 1)
        for n in range(k, nmax + 1):
            row[n] = row[n - 1] + prev[n - 1] / Fr((2 * n - 1) ** 2)
        rows.append(row)
    return rows
