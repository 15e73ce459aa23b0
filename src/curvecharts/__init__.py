"""Chart-based geometry of closed embedded curves modulo reparameterization.

Normal-bundle quotient charts over three ambient backends (euclidean
space, flat torus, unit sphere), parameterization-invariant functionals
with first and second variation, a chart re-centering critical-point
solver, and isometry-orbit analysis.  The solver's names resolve on first
use, so importing the package loads neither `solver` nor `scipy.linalg`.
"""

from .ambient import (
    AmbientSpace,
    Euclidean,
    FlatTorus,
    Sphere2,
)
from .charts import (
    Chart,
    NormalSection,
    chart_apply,
    chart_invert,
    full_chart_apply,
    make_chart,
    project_normal,
    reach_estimate,
    transition,
)
from .curve import (
    Embedding,
    Reparam,
    arclength_lift,
    curvature,
    derivative,
    image_distance,
    is_embedding,
    is_immersion,
    length,
    make_diffeo,
    quadrature_weights,
    reparam_compose,
    reparam_inverse,
    resample,
    separation,
    speeds,
)
from .errors import (
    ChartBreakdownError,
    CurveChartsError,
    CutLocusError,
    DegenerateFrameError,
    LineSearchFailedError,
    NonMonotoneError,
    NotEmbeddingError,
    OutsideDomainError,
    OutsideTubeError,
    ProjectionFailedError,
    SingularSystemError,
    UnsupportedAmbientError,
)
from .files import curve_from_dict, curve_to_dict, load_curve, save_curve
from .functionals import (
    Functional,
    evaluate,
    first_variation,
    grad_norm,
    gradient_in_chart,
    hessian_full,
    hessian_in_chart,
    is_critical,
    parse_functional,
    restriction_matrix,
    value_and_gradient,
)
from .symmetry import (
    Isometry,
    action_continuity_probe,
    apply_isometry,
    orbit_differential,
    orbit_rank,
    orbit_singular_values,
    standard_killing_basis,
)

__version__ = "0.1.0"

_SOLVER_NAMES = ("SolveOptions", "SolveTrace", "minimize", "newton_refine", "recenter", "spectrum")


def __getattr__(name: str):
    """A solver name, looked up on every access, so a name the benchmark tracer wraps on `solver` is seen."""
    if name in _SOLVER_NAMES:
        from . import solver
        return getattr(solver, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SOLVER_NAMES))
