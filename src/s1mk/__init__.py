"""Planar convex bodies from prescribed curvature-type measures.

Support functions are sampled on uniform circle grids; spectral calculus,
geometric measures, an inscribed-ellipse toolkit, and a damped Newton
continuation solver for the underlying Monge-Ampere type equation.
"""

from .body import (
    SupportFunction,
    area,
    boundary_xy,
    centroid,
    diameter,
    disk,
    ellipse_body,
    from_json,
    from_samples,
    minkowski_sum,
    p_sum,
    perimeter,
    radial,
    rho_at_normal,
    rotate,
    scale,
    to_json,
    translate,
)
from .errors import (
    DegenerateCurvatureWarning,
    EllipseSolveError,
    InvariantViolationError,
    NegativeSupportError,
    NonconvexError,
    OriginOnBoundaryError,
    ParameterRangeError,
    SingularDensityError,
    SingularJacobianError,
    StagnationError,
)
from .grid import (
    Grid,
    PeriodicSamples,
    diff,
    diff_matrix,
    integrate,
    resample,
    trig_eval,
)
from .harness import (
    ExperimentConfig,
    eccentric_battery,
    gen_f,
    holder_proxy,
    random_convex_body,
    random_initial_body,
    run_diameter,
    run_maxprinciple,
    run_sandwich,
    run_uniqueness,
    run_variational,
)
from .john import (
    Ellipse,
    SandwichReport,
    containment_report,
    ellipse_from_json,
    ellipse_to_json,
    john,
    sandwich_c2,
    sandwich_ratio,
)
from .measures import (
    MeasureDensity,
    ProblemParams,
    VariationalReport,
    check_aleksandrov,
    check_dual_variational,
    check_lp_variational,
    dual_volume,
    extrapolate_to_zero,
    lp_dual_density,
    lp_surface_density,
    surface_density,
)
from .solver import (
    LinearizedSpectrum,
    SolveReport,
    SolverConfig,
    jacobian,
    linearized_spectrum,
    report_to_dict,
    residual,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "SupportFunction", "area", "boundary_xy", "centroid", "diameter", "disk",
    "ellipse_body", "from_json", "from_samples", "minkowski_sum", "p_sum",
    "perimeter", "radial", "rho_at_normal", "rotate", "scale", "to_json",
    "translate",
    "DegenerateCurvatureWarning", "EllipseSolveError", "InvariantViolationError",
    "NegativeSupportError", "NonconvexError", "OriginOnBoundaryError",
    "ParameterRangeError", "SingularDensityError", "SingularJacobianError",
    "StagnationError",
    "Grid", "PeriodicSamples", "diff", "diff_matrix", "integrate", "resample",
    "trig_eval",
    "ExperimentConfig", "eccentric_battery", "gen_f", "holder_proxy",
    "random_convex_body", "random_initial_body", "run_diameter",
    "run_maxprinciple", "run_sandwich", "run_uniqueness", "run_variational",
    "Ellipse", "SandwichReport", "containment_report", "ellipse_from_json",
    "ellipse_to_json", "john", "sandwich_c2", "sandwich_ratio",
    "MeasureDensity", "ProblemParams", "VariationalReport", "check_aleksandrov",
    "check_dual_variational", "check_lp_variational", "dual_volume",
    "extrapolate_to_zero", "lp_dual_density", "lp_surface_density",
    "surface_density",
    "LinearizedSpectrum", "SolveReport", "SolverConfig", "jacobian",
    "linearized_spectrum", "report_to_dict", "residual", "solve",
    "__version__",
]
