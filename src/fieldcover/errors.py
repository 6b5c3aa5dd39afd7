"""Exception types shared across the package."""


class DegenerateDataError(ValueError):
    """Raised when a dataset cannot support hyperparameter fitting
    (empty, or fewer than two distinct measurement locations)."""


class NumericalError(RuntimeError):
    """Raised when a linear-algebra step fails despite valid inputs,
    e.g. a Gram factorization loses positive definiteness."""


class VerificationError(RuntimeError):
    """Raised when a planner post-condition that is supposed to hold by
    construction fails an explicit re-check."""


class GridTooLargeError(ValueError):
    """Raised when a requested sampling grid exceeds the exact-solve budget."""


class GramTooLargeError(ValueError):
    """Raised before allocating a Gram matrix above the dense-solve byte cap."""
