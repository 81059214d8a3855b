"""The two error families: the command-line exit code follows from the type."""


class HeunDiracError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParams(HeunDiracError):
    """The request has no answer: it breaks a documented precondition (exit 2)."""


class NoConvergence(HeunDiracError):
    """A solver stopped without an answer (exit 3)."""
