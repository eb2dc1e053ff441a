"""Killing-Yano tensors on configuration and phase space.

Construction of the flat rank-(n-1) pair and the catalog two-forms,
residual-based verification (Killing-Yano equation, covariant constancy,
non-degeneracy), Killing tensors and their conserved quadratics, geodesic
and unified Hamiltonian flows, and the multipole identity suite.
"""

__version__ = "0.1.0"

from .dual import Jet
from .errors import (
    DomainError,
    ExprSyntaxError,
    KyanoError,
    SingularEvaluation,
    SingularMetric,
    SymplecticRejection,
)
from .expr import Expression, eval1, eval2, eval_value, parse_expression, unparse
from .fields import AntisymTensorField, levi_civita
from .geometry import (
    CurvatureValue,
    MetricSpec,
    christoffel_at,
    const_curvature3,
    const_curvature3_spherical,
    covariant_derivative_2form,
    curvature_at,
    custom,
    dual_metric,
    dump_manifold,
    flat,
    inverse_metric_at,
    load_manifold,
    metric_at,
    resolve_manifold,
    sample_points,
    taub_nut,
)
from .kysym import (
    KYReport,
    SymplecticForm,
    closedness_residual,
    constcurv_ky,
    constcurv_ky_field,
    covariant_constancy_residual,
    flat_ky_momentum_field,
    flat_ky_pair,
    flat_ky_position_field,
    killing_equation_residual,
    killing_from_ky,
    ky_residual,
    ky_solve_ansatz,
    nondegeneracy,
    reconstruct_momentum,
    reconstruct_position,
    symplectic_from_ky,
    taubnut_ky,
    taubnut_ky_field,
    verify_field,
)
from .dynamics import (
    PhaseFunction,
    PhasePoint,
    Trajectory,
    angular_momentum,
    conservation_monitor,
    free_hamiltonian,
    geodesic_integrate,
    killing_quadratic,
    nambu_bracket,
    poisson_bracket,
    unified_hamilton_flow,
    write_trajectory_csv,
)
from .multipole import (
    EXPECTED_VERDICTS,
    IdentityReport,
    MultipoleSet,
    evaluate_multipoles,
    identity_suite,
    reconstruct_ky_from_generators,
)
from .report import assemble_report
