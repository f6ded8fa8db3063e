"""Kantorovich-type metrics on measures and operator valued measures over
contractive interval IFS towers, with exact certificates at desk scale."""

from .metric_core import (
    FiniteMetricSpace,
    Lip1VertexSet,
    LipschitzFunction,
    audit_space,
    certify_lipschitz,
    lip1_vertices,
    lip_constant,
    validate_space,
)
from .transport import (
    ProbMeasure,
    TransportResult,
    kantorovich,
    kantorovich_dual_oracle,
)
from .ifs import (
    CylinderTower,
    IfsSystem,
    build_tower,
    contraction_ratio_scalar,
    dyadic_ifs,
    hutchinson_fixed,
    hutchinson_step,
    make_ifs,
    triadic_ifs,
)
from .cuntz import (
    branch_maps,
    build_cuntz_tower,
    cuntz_verify,
    cylinder_projection,
    multiplication_pvm,
)
from .ovm import (
    OperatorValuedMeasure,
    conjugate,
    diagonal_pvm,
    frame_pvm,
    integrate,
    polarize,
    representation_check,
    scalar_measure,
    validate_ovm,
)
from .rho import (
    RhoResult,
    metric_axiom_suite,
    rho_exact,
    rho_lower_grid,
    rho_lower_sphere,
    topology_bounds,
)
from .fixed_point import (
    PhiTrace,
    contraction_ratio_rho,
    phi_iterate,
    phi_step,
    relate_verify,
    verify_fixed_point,
)
from .rng import SplitMix64

__version__ = "0.1.0"

__all__ = [
    "FiniteMetricSpace",
    "Lip1VertexSet",
    "LipschitzFunction",
    "audit_space",
    "certify_lipschitz",
    "lip1_vertices",
    "lip_constant",
    "validate_space",
    "ProbMeasure",
    "TransportResult",
    "kantorovich",
    "kantorovich_dual_oracle",
    "CylinderTower",
    "IfsSystem",
    "build_tower",
    "contraction_ratio_scalar",
    "dyadic_ifs",
    "hutchinson_fixed",
    "hutchinson_step",
    "make_ifs",
    "triadic_ifs",
    "branch_maps",
    "build_cuntz_tower",
    "cuntz_verify",
    "cylinder_projection",
    "multiplication_pvm",
    "OperatorValuedMeasure",
    "conjugate",
    "diagonal_pvm",
    "frame_pvm",
    "integrate",
    "polarize",
    "representation_check",
    "scalar_measure",
    "validate_ovm",
    "RhoResult",
    "metric_axiom_suite",
    "rho_exact",
    "rho_lower_grid",
    "rho_lower_sphere",
    "topology_bounds",
    "PhiTrace",
    "contraction_ratio_rho",
    "phi_iterate",
    "phi_step",
    "relate_verify",
    "verify_fixed_point",
    "SplitMix64",
]
