"""High-precision constants against slow-but-sure rational oracles.

pi comes from Machin's formula and log 2 from 2*atanh(1/3), both evaluated in
exact Fraction arithmetic with explicit tail bounds, then compared as scaled
integers.  eta gets a brute-force alternating sum with one averaging step.
mpmath's own zeta/altzeta (different algorithms) serve as high-digit
cross-checks.
"""

from __future__ import annotations

import math
import pathlib
from fractions import Fraction as Fr

import pytest
from mpmath import mp, mpf

import cotmoments
from cotmoments.hpreal import (
    _ACCEL_RATE,
    MIN_DIGITS,
    eta,
    log2,
    pi,
    to_digits,
    zeta,
    zeta_even_closed,
)

# ---------------------------------------------------------------------------
# rational oracles
# ---------------------------------------------------------------------------


def _atan_rational(x: Fr, terms: int) -> Fr:
    """Leibniz series for atan; alternating, so |error| < next term."""
    acc = Fr(0)
    p = x
    for j in range(terms):
        acc += (-1) ** j * p / (2 * j + 1)
        p *= x * x
    return acc


def _atanh_rational(x: Fr, terms: int) -> Fr:
    acc = Fr(0)
    p = x
    for j in range(terms):
        acc += p / (2 * j + 1)
        p *= x * x
    return acc


def _scaled(value, digits: int) -> int:
    """Round value * 10^digits to an int (works for Fraction and mpf)."""
    if isinstance(value, Fr):
        return int(value * 10**digits + Fr(1, 2))
    with mp.workdps(digits + 20):
        return int(mp.nint(value * mpf(10) ** digits))


def test_pi_matches_machin_formula():
    # 16 atan(1/5) - 4 atan(1/239); 30 terms give error < 16*5^-61 ~ 4e-42
    oracle = 16 * _atan_rational(Fr(1, 5), 30) - 4 * _atan_rational(Fr(1, 239), 15)
    assert abs(_scaled(pi(40), 38) - _scaled(oracle, 38)) <= 1


def test_log2_matches_atanh_series():
    # log 2 = 2 atanh(1/3); 45 terms give error < 3^-91/(1-1/9) ~ 5e-44
    oracle = 2 * _atanh_rational(Fr(1, 3), 45)
    assert abs(_scaled(log2(40), 38) - _scaled(oracle, 38)) <= 1


def test_pi_digits_string():
    assert to_digits(pi(20), 20) == "3.1415926535897932385"


def test_log2_float_agreement():
    assert abs(float(log2(30)) - math.log(2.0)) < 1e-15


# ---------------------------------------------------------------------------
# eta: brute-force alternating oracle
# ---------------------------------------------------------------------------

def _eta_brute_averaged(s: int, N: int) -> float:
    """Partial sums S_N, S_{N+1} averaged once: error ~ s/2 * N^-(s+1)."""
    acc = 0.0
    for n in range(1, N + 1):
        acc += (-1) ** (n - 1) / n**s
    nxt = acc + (-1) ** N / (N + 1) ** s
    return 0.5 * (acc + nxt)


@pytest.mark.parametrize("s", [2, 3, 4, 5])
def test_eta_matches_brute_force(s):
    oracle = _eta_brute_averaged(s, 5000)
    assert abs(float(eta(s, 30)) - oracle) < 1e-10


def test_eta_one_is_log2():
    with mp.workdps(60):
        assert abs(eta(1, 50) - log2(50)) < mpf(10) ** -55


def test_eta_known_digits():
    # cross-checked against mpmath.altzeta (independent acceleration scheme)
    assert to_digits(eta(3, 30), 30) == "0.901542677369695714049803621134"
    with mp.workdps(45):
        for s in (2, 3, 5, 7, 11):
            assert abs(eta(s, 40) - mp.altzeta(s)) < mpf(10) ** -39


@pytest.mark.parametrize("P", [10, 30, 100, 300])
@pytest.mark.parametrize("s", [1, 2, 3, 17, 41])
def test_eta_matches_altzeta_at_twice_the_digits(s, P):
    v = eta(s, P)
    with mp.workdps(2 * P):
        ref = mp.altzeta(s)
        assert abs(v - ref) <= ref * mpf(10) ** -(P + 8)


def test_eta_weight_recurrence_divides_exactly():
    # eta's integer weights b_(k+1) = b_k 2(k+n)(k-n) / ((2k+1)(k+1)), for
    # the term count n of every precision up to 1000 digits
    terms = {math.ceil((P + 8) * math.log(10) / _ACCEL_RATE) + 3
             for P in range(MIN_DIGITS, 1001)}
    for n in sorted(terms):
        b = -1
        for k in range(n):
            b, rest = divmod(b * 2 * (k + n) * (k - n), (2 * k + 1) * (k + 1))
            assert rest == 0, (n, k)
        # b_n = (-1)^(n+1) 2^(2n-1), the leading coefficient of -T_n(1 - 2x)
        assert b == (-1) ** (n + 1) * 2 ** (2 * n - 1), n


def test_eta_approaches_one():
    v = eta(20, 30)
    assert 0.999999 < float(v) < 1.0


def test_eta_monotone_in_s():
    vals = [float(eta(s, 25)) for s in range(2, 12)]
    assert vals == sorted(vals)
    assert float(eta(1, 25)) < vals[0]  # log 2 below eta(2)


def test_eta_rejects_bad_arguments():
    with pytest.raises(ValueError):
        eta(0, 30)
    with pytest.raises(ValueError):
        eta(3, 5)  # precision floor is 10 digits


# ---------------------------------------------------------------------------
# zeta
# ---------------------------------------------------------------------------

def test_zeta_against_mpmath():
    with mp.workdps(45):
        for s in (2, 3, 4, 5, 7, 10):
            assert abs(zeta(s, 40) - mp.zeta(s)) < mpf(10) ** -38


def test_zeta_even_closed_form_agreement():
    """Two in-package routes: eta rescaling vs Bernoulli closed form."""
    with mp.workdps(55):
        for s in (2, 4, 6, 8, 10, 12):
            assert abs(zeta(s, 50) - zeta_even_closed(s, 50)) < mpf(10) ** -47


def test_zeta_two_known_value():
    with mp.workdps(40):
        assert abs(zeta(2, 35) - pi(35) ** 2 / 6) < mpf(10) ** -33


def test_zeta_rejects_s_below_two():
    with pytest.raises(ValueError):
        zeta(1, 30)
    with pytest.raises(ValueError):
        zeta_even_closed(3, 30)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def test_to_digits_keeps_trailing_zeros():
    s = to_digits(mpf(2), 12)
    assert s.startswith("2.0000000000")


def test_values_are_cached():
    a = eta(3, 30)
    b = eta(3, 30)
    assert a == b
    assert pi(25) == pi(25)


def test_one_precision_scope_in_the_package():
    # mpmath's precision is process-global: only hpreal._working may set it,
    # under the package's single lock
    package = pathlib.Path(cotmoments.__file__).parent
    rlocks = 0
    for path in sorted(package.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        rlocks += text.count("RLock(")
        if path.name != "hpreal.py":
            assert "mp.workdps(" not in text, path.name
            assert "threading" not in text, path.name
    assert rlocks == 1
