"""Exception hierarchy shared across the package."""


class CurveChartsError(Exception):
    """Base class for all errors raised by curvecharts.

    When the error leaves `minimize` from inside its iteration loop,
    `trace` holds the iterations up to the failure; otherwise it is None.
    """

    trace = None


class CutLocusError(CurveChartsError):
    """Logarithm requested across (or too close to) the cut locus."""


class NotEmbeddingError(CurveChartsError):
    """Curve fails the immersion or self-separation test."""


class DegenerateFrameError(CurveChartsError):
    """Normal frame construction failed."""


class OutsideDomainError(CurveChartsError):
    """Section exceeds the chart validity radius."""


class OutsideTubeError(CurveChartsError):
    """Curve leaves the tubular neighborhood of the chart center."""


class ProjectionFailedError(CurveChartsError):
    """Fiber projection root-find did not converge."""


class NonMonotoneError(CurveChartsError):
    """Fiber assignment is not an orientation-preserving circle diffeomorphism."""


class UnsupportedAmbientError(CurveChartsError):
    """Functional term not defined on this ambient space."""


class LineSearchFailedError(CurveChartsError):
    """No Armijo step above the minimum step length."""


class ChartBreakdownError(CurveChartsError):
    """A solver chart could not be built, at the start of `minimize` or at
    a re-centering; `__cause__` is the error of the step that failed, such
    as a smoothed center that is not an embedding or a failed inversion."""


class SingularSystemError(CurveChartsError):
    """Newton system singular beyond kernel regularization."""
