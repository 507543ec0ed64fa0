"""Exception types raised by the numerical core."""

from __future__ import annotations


class RitzBoundsError(Exception):
    """Base class for all library-specific errors."""


class NotSymmetricError(RitzBoundsError, ValueError):
    """Input matrix is not symmetric within the admission tolerance."""


class NotPositiveDefiniteError(RitzBoundsError, ValueError):
    """A positive-definite matrix was required.

    Carries either the failing Cholesky pivot index or the offending
    eigenvalue, depending on how the violation was detected.
    """

    def __init__(self, message, pivot_index=None, eigenvalue=None):
        super().__init__(message)
        self.pivot_index = pivot_index
        self.eigenvalue = eigenvalue


class SingularOperatorError(RitzBoundsError, ValueError):
    """An operator that must be invertible is numerically singular."""

    def __init__(self, message, smallest_magnitude=None):
        super().__init__(message)
        self.smallest_magnitude = smallest_magnitude


class ConvergenceError(RitzBoundsError, RuntimeError):
    """A LAPACK eigenvalue or singular value routine did not converge."""


class HypothesisError(RitzBoundsError, ValueError):
    """A theorem hypothesis required by the requested bound fails."""


class MatrixParseError(RitzBoundsError, ValueError):
    """Malformed matrix text file; carries the 1-based line and column."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column
