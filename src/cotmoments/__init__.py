"""Moments of the half-angle cotangent.

The quantity of interest is

    C(m) = (1/m!) * integral_0^pi (theta^m / 2) * cot(theta/2) dtheta

computed along four independent routes (eta/zeta closed form, central-binomial
series, nested tail series, tanh-sinh quadrature) together with the exact
rational triangles, closed forms, and consequence identities that tie the
routes together.
"""

from __future__ import annotations

from .cfn import (
    build_h0,
    build_h1,
    build_t0,
    build_t1,
    check_factorial_relation,
    check_generating_functions,
    table_to_csv,
    table_to_json,
)
from .exact import (
    Partition,
    RationalPowerSeries,
    bernoulli,
    cycle_count,
    euler_zigzag,
    partitions,
)
from .hpreal import Evaluation, default_tolerance, eta, log2, pi, to_digits, zeta
from .moments import (
    ROUTES,
    SUITES,
    binomial_gf_identities,
    c_cfn_route,
    c_eta_route,
    c_nested_route,
    compute_moment,
    run_suite,
    verify_consequences,
    verify_h_integral_reduction,
)
from .quadrature import (
    QuadratureError,
    QuadratureResult,
    integrate_1d,
    moment_quadrature,
)
from .report import CheckRecord, VerificationReport
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

__version__ = "0.1.0"

__all__ = [
    "CheckRecord",
    "Evaluation",
    "Partition",
    "QuadratureError",
    "QuadratureResult",
    "ROUTES",
    "RationalPowerSeries",
    "SUITES",
    "VerificationReport",
    "a0",
    "a0_via_recurrence",
    "a1",
    "a1_via_recurrence",
    "bernoulli",
    "binomial_gf_identities",
    "build_h0",
    "build_h1",
    "build_t0",
    "build_t1",
    "c_cfn_route",
    "c_eta_route",
    "c_nested_route",
    "check_factorial_relation",
    "check_generating_functions",
    "compute_moment",
    "cycle_count",
    "default_tolerance",
    "eta",
    "euler_binomial_vanishing",
    "euler_zigzag",
    "integrate_1d",
    "kernel_k0",
    "kernel_k1",
    "log2",
    "moment_quadrature",
    "nested_tail_sums",
    "partitions",
    "pi",
    "r_even",
    "r_odd",
    "r_truncated_nested",
    "r_via_partitions",
    "run_suite",
    "s_even",
    "s_odd",
    "table_to_csv",
    "table_to_json",
    "to_digits",
    "verify_consequences",
    "verify_h_integral_reduction",
    "zeta",
]
