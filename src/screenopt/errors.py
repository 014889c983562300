"""Exception hierarchy shared across the package."""

from __future__ import annotations


class ScreenOptError(Exception):
    """Base class for all package-specific errors."""


class CapacityError(ScreenOptError):
    """An enumeration would exceed its configured ceiling."""


class StructuralError(ScreenOptError):
    """A lookup hit a hole in a diagram (missing CPT row, unknown node)."""


class InfeasibleBudgetError(ScreenOptError):
    """Budget pruning removed every candidate strategy history."""


class OracleMismatchError(ScreenOptError):
    """A cross-check against the reference implementation failed."""


class ParameterError(ScreenOptError):
    """A parameter document failed validation.

    Carries the path of the offending field so callers can report it.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        self.reason = message
        super().__init__(f"{path}: {message}")
