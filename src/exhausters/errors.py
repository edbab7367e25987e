"""Shared exception types."""


class DimensionMismatchError(ValueError):
    """Operands disagree on the ambient dimension."""


class CapExceededError(RuntimeError):
    """A work cap was reached: the vertices of a family or simplex
    pivots."""


class SolverError(ArithmeticError):
    """The simplex solver returned a point that fails re-substitution into
    the system it solved."""


class ExhausterKindError(ValueError):
    """A family of the wrong kind (upper vs lower) was supplied."""
