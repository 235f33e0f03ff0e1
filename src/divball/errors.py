"""Exception types shared across the package.

Everything derives from ``DivballError`` (itself a ``ValueError``) so callers
can catch one base class; the CLI maps these onto exit codes.
"""


class DivballError(ValueError):
    """Base class for all validation and solver errors."""


class LengthMismatchError(DivballError):
    """Paired vectors (weights/values/labels) differ in length."""


class EmptySupportError(DivballError):
    """The outcome set is empty."""


class NegativeWeightError(DivballError):
    """A probability weight is negative."""


class SumNotOneError(DivballError):
    """Weights do not sum to 1 within tolerance."""


class NonFiniteError(DivballError):
    """An input contains NaN or an infinity."""


class ZeroMassForbiddenError(DivballError):
    """The chi-squared divergence needs a strictly positive center pmf."""


class NegativeDeltaError(DivballError):
    """A ball radius is negative or NaN."""


class TooLargeError(DivballError):
    """The brute-force grid would exceed the desk-scale enumeration cap."""


class EmptyFeasibleError(DivballError):
    """No grid point lies inside the requested ball."""


class UnreachableError(DivballError):
    """The requested threshold lies below the minimum of the objective."""
