"""Reference cfn-layer loops for the tests, each written once per parity.

* ``_reference_cfn``: one fixed-point sweep per m, as ``c_cfn_route`` summed
  before its sweeps were shared across depths, with a branch per parity;
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
    """(value, bound) of C(m) from a sweep that builds rows up to k only."""
    fbits = fixed_point_bits(P)
    one = 1 << fbits
    total = 0
    last = 0
    if m % 2:  # odd: m = 2k+1
        k = (m - 1) // 2
        h = [one] + [0] * k          # h[i] = H1(i, j), strict prefix DP
        ratio = one                   # C(2j,j)/4^j
        for j in range(N + 1):
            if j:
                q = (2 * j - 1) ** 2
                for i in range(k, 0, -1):
                    h[i] += h[i - 1] // q
                ratio = ratio * (2 * j - 1) // (2 * j)
            last = ((ratio // (2 * j + 1) ** 2) * h[k]) >> fbits
            total += last
        scale_num, scale_den = 2 ** (2 * k + 1), 1
    else:      # even: m = 2k
        k = m // 2
        h = [0] * (k + 1)             # h[i] = H0(i, j); H0(1, j) = 1 for j >= 1
        ratio = one                   # 4^j / C(2j,j)
        for j in range(1, N + 1):
            ratio = ratio * (2 * j) // (2 * j - 1)
            if j == 1:
                h[1] = one
            else:
                q = (j - 1) ** 2
                for i in range(k, 1, -1):
                    h[i] += h[i - 1] // q
            last = ((ratio // (2 * j ** 3)) * h[k]) >> fbits
            total += last
        scale_num, scale_den = 1, 1   # the 1/2 is folded into 2 j^3
    with _working(P):
        unit = mpf(2) ** (-fbits)
        scale = mpf(scale_num) / scale_den
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
