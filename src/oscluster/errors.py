"""Structured errors raised by the toolkit.

Every class name doubles as the single-line diagnostic name printed by the
CLI (exit code 1), so names are stable API.
"""

from __future__ import annotations


class OscError(Exception):
    """Base class for all structured toolkit errors."""

    @property
    def name(self) -> str:
        return type(self).__name__


class NonFinite(OscError):
    """A NaN or infinity was found where finite values are required."""

    def __init__(self, row: int | None = None, col: int | None = None):
        self.row = row
        self.col = col
        if row is None:
            super().__init__("non-finite value in input")
        else:
            super().__init__(f"non-finite value at ({row}, {col})")


class TooSmall(OscError):
    """Matrix has fewer than 2 rows or 2 columns."""


class LabelLengthMismatch(OscError):
    """Label vector length differs from the number of samples."""


class MalformedRow(OscError):
    """A delimited-text row could not be parsed."""


class Unreadable(OscError):
    """An input file could not be opened or read (missing, a directory, ...)."""


class ConstantRow(OscError):
    """One or more sample rows have zero variance and cannot be standardized."""

    def __init__(self, indices):
        self.indices = tuple(int(i) for i in indices)
        super().__init__(f"constant rows at indices {list(self.indices)}")


class NotSymmetric(OscError):
    """Input matrix is not symmetric within tolerance."""

    def __init__(self, max_asymmetry: float):
        self.max_asymmetry = float(max_asymmetry)
        super().__init__(f"max asymmetry {self.max_asymmetry:.3e}")


class AllZero(OscError):
    """Eigenvalue vector sums to zero; no variance to apportion."""


class TooFewPoints(OscError):
    """Fewer points than requested clusters."""


class LengthMismatch(OscError):
    """Two label vectors have different lengths."""


class Empty(OscError):
    """Label vectors are empty."""


class TooFew(OscError):
    """Too few samples for the requested metric (pair counting needs n >= 2)."""


class LabelsRequired(OscError):
    """The operation needs ground-truth labels and the dataset has none."""


class NotEnoughCategories(OscError):
    """Dataset has fewer label categories than the subset protocol asks for."""


class InfeasibleDims(OscError):
    """Requested subspace dimensions do not fit in the ambient dimension."""
