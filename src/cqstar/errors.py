"""Exception types shared across the package."""

from __future__ import annotations


class CqstarError(Exception):
    """Base class for all package errors."""


class VariableWithoutAtom(CqstarError):
    """A declared variable occurs in no atom of the query."""

    def __init__(self, variable: str):
        super().__init__(f"variable {variable!r} occurs in no atom")
        self.variable = variable


class UnknownVertex(CqstarError):
    """A vertex id does not belong to the hypergraph."""

    def __init__(self, vertex):
        super().__init__(f"unknown vertex {vertex!r}")
        self.vertex = vertex


class UnknownVariable(CqstarError):
    """A variable name does not belong to a relation schema."""


class IdMismatch(CqstarError):
    """A decomposition references an edge, vertex, or node id that does not exist."""


class DecompositionInvalid(CqstarError):
    """A decomposition failed verification where a valid one is required."""

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)


class WidthNotOne(CqstarError):
    """An operation requiring a join tree received a decomposition of width != 1."""


class NotHinge(CqstarError):
    """An operation requiring a hingetree decomposition received something else."""


class TooLarge(CqstarError):
    """Input exceeds the configured cutoff of a brute-force operation."""


class BudgetExceeded(CqstarError):
    """A bounded search ran out of its node or time budget."""


class UncoverableVertex(CqstarError):
    """A vertex that must be covered by an edge lies in no edge."""

    def __init__(self, vertex):
        super().__init__(f"vertex {vertex!r} lies in no edge and cannot be covered")
        self.vertex = vertex


class BindError(CqstarError):
    """A query does not fit the structure (missing predicate or arity clash)."""


class InvariantViolation(CqstarError):
    """An internal invariant failed; indicates a bug, not bad input."""
