"""Exception types shared across the package."""


class SaginiError(ValueError):
    """Base class for validation failures raised by this package."""


class EmptyOrSingletonError(SaginiError):
    """Fewer than two observations: no interior Lorenz point exists."""


class NonFiniteValueError(SaginiError):
    """An observation is NaN or infinite, or the values' total is beyond
    the float64 range: it overflows, or cancels below it."""


class NonPositiveTotalError(SaginiError):
    """The values sum to zero or less, leaving cumulative shares undefined."""


class InvalidNError(SaginiError):
    """More values than the kernel's exact float64 coefficient rows and
    normalisers allow."""


class UnequalSpacingError(SaginiError):
    """Lorenz points do not sit on the uniform grid p_i = i/n."""


class BadEndpointError(SaginiError):
    """A Lorenz point set does not start at the origin or end at q = 1."""


class InvalidRanksError(SaginiError):
    """Transfer ranks are out of range or not recipient < donor."""


class RankViolationError(SaginiError):
    """A transfer would reorder the ascending sequence of values."""


class BadParamsError(SaginiError):
    """An experiment configuration is inconsistent or out of range."""


class ParseError(SaginiError):
    """Input text could not be parsed into numbers."""
