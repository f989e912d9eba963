"""Reference K1/K0 power series for the tests, one loop per kernel, as
``series`` summed them before the two shared one loop over the S families.

Called inside the precision scope with z an mpf; ``kernel_k1`` and
``kernel_k0`` with method="series" must reproduce them bit for bit.
"""

from __future__ import annotations

from mpmath import mpf


def _reference_k1(z, P):
    # sum_j C(2j,j) (z/2)^(2j) / (2j+1)^2
    target = mpf(10) ** (-(P + 5))
    zz = z * z
    term = mpf(1)         # j = 0: C(0,0) (z/2)^0 / 1
    acc = mpf(1)
    j = 0
    while True:
        j += 1
        term *= zz * (2 * j - 1) / (2 * j)
        contrib = term / (2 * j + 1) ** 2
        acc += contrib
        if contrib < target * (1 - zz):
            return acc


def _reference_k0(z, P):
    # (1/2) sum_{j>=1} (4z)^j / (j^3 C(2j,j))
    target = mpf(10) ** (-(P + 5))
    term = +z             # j = 1: (1/2) * 4z / C(2,1), before the 1/j^3
    acc = +z              # j = 1 contribution
    j = 1
    while True:
        j += 1
        term *= z * (2 * j) / (2 * j - 1)
        contrib = term / j ** 3
        acc += contrib
        if contrib < target * (1 - z):
            return acc
