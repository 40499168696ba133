"""Shared exception types.

The split matters for the CLI exit codes: hypothesis, domain, dimension and
convergence problems are user-input errors (exit 1); an exhausted budget
means the answer is out of reach at desk scale (exit 2).
"""


class MajorantError(Exception):
    """Base class for all package errors."""


class DimensionError(MajorantError, ValueError):
    """Shapes or lengths do not line up."""


class DomainError(MajorantError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class HypothesisError(MajorantError, ValueError):
    """A structural precondition of a construction fails for this input."""


class BudgetError(MajorantError, RuntimeError):
    """An enumeration or scan budget was exhausted before a decision."""


class ConvergenceError(MajorantError, ValueError):
    """Series input outside the open domain of convergence."""
