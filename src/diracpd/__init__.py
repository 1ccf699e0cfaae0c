"""Bound states of the (1+1)-dimensional Dirac equation with
position-dependent mass and Fermi velocity.

The pipeline: profiles -> canonical map q(x) -> effective potential on the
q-grid -> Dirichlet eigensolver -> spinor reconstruction, with a closed-form
oracle module for the built-in models and a config-driven CLI on top.
"""

from .analytic import (
    AnalyticSpectrum,
    bound_spinor,
    hermite,
    hyp2f1_polynomial,
    numeric_normalization,
    published_normalization,
    s_parameter,
    spectrum_entry,
    spectrum_value,
)
from .eigensolver import (
    EigenPair,
    SpectrumResult,
    energies_from_lambda,
    expand_until_settled,
    solve_exact,
    solve_fixed,
    solve_self_consistent,
)
from .potential import (
    DiscrepancyReport,
    PotentialField,
    QGrid,
    approx_potential,
    constant_u_potential,
    exact_potential,
    potential_discrepancy_report,
)
from .profiles import (
    MassProfile,
    ModelSpec,
    VelocityProfile,
    builtin_model,
    detect_constant_u,
    interior_sample,
    product_u,
)
from .spinor import (
    ObservableSet,
    SpinorField,
    bic_family,
    dirac_residual,
    normalize,
    observables,
    reconstruct,
)
from .transform import TransformMap, build_transform

__all__ = [
    "AnalyticSpectrum",
    "DiscrepancyReport",
    "EigenPair",
    "MassProfile",
    "ModelSpec",
    "ObservableSet",
    "PotentialField",
    "QGrid",
    "SpectrumResult",
    "SpinorField",
    "TransformMap",
    "VelocityProfile",
    "approx_potential",
    "bic_family",
    "bound_spinor",
    "build_transform",
    "builtin_model",
    "constant_u_potential",
    "detect_constant_u",
    "dirac_residual",
    "energies_from_lambda",
    "exact_potential",
    "expand_until_settled",
    "hermite",
    "hyp2f1_polynomial",
    "interior_sample",
    "normalize",
    "numeric_normalization",
    "observables",
    "potential_discrepancy_report",
    "product_u",
    "published_normalization",
    "reconstruct",
    "s_parameter",
    "solve_exact",
    "solve_fixed",
    "solve_self_consistent",
    "spectrum_entry",
    "spectrum_value",
]

__version__ = "0.1.0"
