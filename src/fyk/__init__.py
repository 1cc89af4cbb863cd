"""Numerical toolkit for bubbles, their degenerate-elliptic extensions,
weighted moment integrals, boundary identities, and the associated
finite-volume solvers and coordinate-jet algebra."""

from .errors import DomainError, NumericError
from .specfun import (
    Constants,
    ProblemIndex,
    bessel_k,
    constants,
    gamma_fn,
    profile_phi,
    profile_phi_prime,
    profile_phi_pair,
    profile_what,
    profile_what_prime,
    sphere_area,
)
from .bubble import (
    BubbleParams,
    HalfSpacePoint,
    extension,
    jacobi_field,
    neumann_trace,
    radial_profiles,
    trace_bubble,
)
from .moments import (
    IntegralSet,
    MomentTable,
    closed_form_ratios,
    combined_integrals,
    combined_ratios,
    compute_integrals,
    compute_moments,
    verify_recurrences,
)
from .pohozaev import (
    BubbleExtensionField,
    CoefficientReport,
    PohozaevReport,
    PowerField,
    assemble_Fhat,
    coefficient,
    dimension_gate,
    pohozaev_P,
    pohozaev_Pprime,
)
from .solver import (
    SymmetricTensor,
    WeightedGrid,
    apply_operator,
    barrier_values,
    green_asymptotics,
    rayleigh_lambda1,
    solve_extension,
    solve_linearized,
)
from .geometry import (
    MetricJet,
    eikonal_characteristics,
    gauss_codazzi_scalar,
    inverse_metric_expansion,
    normalized_jet,
    sqrt_det_expansion,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
