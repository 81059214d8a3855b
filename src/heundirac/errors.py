"""Exception types shared across the package."""


class HeunDiracError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParams(HeunDiracError, ValueError):
    """Inputs violate a documented precondition or type invariant."""


class NoConvergence(HeunDiracError):
    """A series or iteration hit its term/iteration budget before converging."""


class OutsideDomain(HeunDiracError, ValueError):
    """Evaluation point outside the convergence domain of a non-terminating series."""


class DegenerateCase(HeunDiracError):
    """A formula degenerates at this parameter point (division by an exact zero)."""


class DegenerateGroundState(HeunDiracError):
    """The nodeless level makes a coefficient relation 0/0; use the dedicated path."""


class CalibrationFailure(HeunDiracError):
    """The first-order relation could not fix the relative scale of two components."""


class ZeroNorm(HeunDiracError):
    """Cannot normalize a solution whose norm integral is zero."""


class StepFailure(HeunDiracError):
    """The ODE integrator's local error control failed to proceed."""


class Overflow(HeunDiracError):
    """Integrated solution exceeded the magnitude cap (off-eigenvalue growth)."""


class NoBracket(HeunDiracError):
    """The supplied energy interval does not bracket a sign change."""


class MaxIterations(HeunDiracError):
    """Root refinement exceeded its iteration budget."""
