"""Exception types shared across the package."""


class _SampleError(ValueError):
    """A body's samples break an invariant at angle ``theta``, where they read ``value``."""

    def __init__(self, message, theta=None, value=None):
        super().__init__(message)
        self.theta = theta
        self.value = value


class NegativeSupportError(_SampleError):
    """Support samples dipped below zero; bodies here must contain the origin."""


class NonconvexError(_SampleError):
    """Curvature density h'' + h fell below -tol_convex somewhere."""


class OriginOnBoundaryError(ValueError):
    """Radial quantities need the origin strictly inside the body."""


class SingularDensityError(ValueError):
    """Requested density is singular on this body (support or speed too small)."""


class ParameterRangeError(ValueError):
    """Exponent pair outside the range the operation supports."""


class InvariantViolationError(ValueError):
    """A bound that should hold on computed data was violated."""


class StagnationError(RuntimeError):
    """Damped Newton ran the damping below its floor without making progress."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []


class SingularJacobianError(RuntimeError):
    """Linearization numerically singular (condition estimate beyond 1e14)."""


class EllipseSolveError(RuntimeError):
    """Inscribed-ellipse program did not converge; carries the best iterate."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class DegenerateCurvatureWarning(UserWarning):
    """Curvature density nearly vanishes somewhere along the boundary."""
