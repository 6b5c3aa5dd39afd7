"""Exception types shared across the package, and its one size rule."""

# The byte budget of every array whose size the inputs set, counted before it is
# built: a Gram matrix (factored in place), a grid, a cover, the sweeps, a truth draw.
_MAX_GRAM_BYTES = 2 * 2**30


class DegenerateDataError(ValueError):
    """Raised when a dataset cannot support hyperparameter fitting
    (empty, or fewer than two distinct measurement locations)."""


class NumericalError(RuntimeError):
    """Raised when a linear-algebra step fails despite valid inputs,
    e.g. a Gram factorization loses positive definiteness."""


class VerificationError(RuntimeError):
    """Raised when a planner post-condition that is supposed to hold by
    construction fails an explicit re-check."""


class GramTooLargeError(ValueError):
    """Raised before allocating arrays above the byte cap, so the CLI exits 2."""


def check_dense_budget(nbytes: int, what: str) -> None:
    """Raise GramTooLargeError when ``what`` would allocate more than the cap.

    ``what`` names the computation, then the caller's remedy after a semicolon.
    """
    if nbytes > _MAX_GRAM_BYTES:
        cap = _MAX_GRAM_BYTES / 2**30
        raise GramTooLargeError(f"need {nbytes / 2**30:.2f} GiB, above the {cap:g} GiB cap, for {what}")
