"""zetalab: desk-scale numerical checks for prime-counting identities.

The package evaluates the classical counting functions (pi, the weighted
prime-power count J, Chebyshev psi), their smooth companions (li, lie,
real-axis zeta and zeta'), step-comb representations on the logarithmic
abscissa, and numerically bracketed Laplace transforms; a claim registry
compares each identity or bound against the corresponding closed form and
emits machine-readable verdicts.
"""

from .analytic import (
    EULER_GAMMA,
    ModelPair,
    R_of_s,
    harmonic_model,
    lie,
    li_pv,
    stirling_model,
    zeta_prime_real,
    zeta_real,
)
from .arith import j_value, pi_count, psi_value
from .comb import (
    ArithmeticKind,
    CombKind,
    StepComb,
    build_comb,
    r_integral,
    r_integral_model,
    r_value,
    r_value_ordinate,
    zeta1_count,
)
from .laplace import (
    TransformBracket,
    approx_kernel,
    er_closed,
    er_partial,
    laplace_comb,
    laplace_pair,
    laplace_quadrature,
)
from .sieve import SieveSegment, integer_kth_root, mobius
from .verify import (
    Claim,
    ClaimResult,
    ScanReport,
    emit_report,
    run_claim,
    scan_bound,
)

__version__ = "0.1.0"

__all__ = [
    "ArithmeticKind",
    "Claim",
    "ClaimResult",
    "CombKind",
    "EULER_GAMMA",
    "ModelPair",
    "R_of_s",
    "ScanReport",
    "SieveSegment",
    "StepComb",
    "TransformBracket",
    "approx_kernel",
    "build_comb",
    "emit_report",
    "er_closed",
    "er_partial",
    "harmonic_model",
    "integer_kth_root",
    "j_value",
    "laplace_comb",
    "laplace_pair",
    "laplace_quadrature",
    "li_pv",
    "lie",
    "mobius",
    "pi_count",
    "psi_value",
    "r_integral",
    "r_integral_model",
    "r_value",
    "r_value_ordinate",
    "run_claim",
    "scan_bound",
    "stirling_model",
    "zeta1_count",
    "zeta_prime_real",
    "zeta_real",
]
