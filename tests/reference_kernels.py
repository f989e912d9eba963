"""Reference kernels for the tests.

``_reference_k1`` and ``_reference_k0`` are the K1/K0 power series, one loop
per kernel, as ``series`` summed them before the two shared one loop over
the S families.  Called inside the precision scope with z an mpf;
``kernel_k1`` and ``kernel_k0`` with method="series" must reproduce them bit
for bit.

``_reference_theta_kernels`` is the theta-series of
``moments._theta_kernels`` summed by Horner's rule in mpf arithmetic, in
theta^2, as the package summed it before its fixed-point loop.
"""

from __future__ import annotations

import math

from mpmath import mp, mpf

from cotmoments.hpreal import _working
from cotmoments.quadrature import _WORK_GUARD


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


def _reference_theta_kernels(P):
    # same degree K as _theta_kernels; call k(z, 1 - z) inside the scope
    K = math.ceil((P + _WORK_GUARD + math.log10(3)) / math.log10(4))
    with _working(P, _WORK_GUARD):
        a = [mp.bernoulli(2 * k) * (-4) ** k / mp.factorial(2 * k)
             for k in range(K + 1)]
        c1 = [a[k] / (2 * k + 1) for k in range(K, -1, -1)]
        c0 = [a[k] / (k + 1) for k in range(K, -1, -1)]
        half_pi = mp.pi / 2
    half = mpf(0.5)

    def horner(coeffs, s):
        acc = mpf(0)
        for c in coeffs:
            acc = acc * s + c
        return acc

    def k1(z, dz):
        if z > half:
            theta = half_pi - 2 * mp.asin(mp.sqrt(dz / 2))
        else:
            theta = mp.asin(z)
        return theta * horner(c1, theta * theta) / z

    def k0(z, dz):
        if z > half:
            theta = half_pi - mp.asin(mp.sqrt(dz))
        else:
            theta = mp.asin(mp.sqrt(z))
        s = theta * theta
        return s * horner(c0, s)

    return k1, k0
