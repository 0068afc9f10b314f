"""Exception types shared across the package, and the default guards and
limits whose refusals raise GuardExceededError.

They live here, beside the error they raise, so that the command parser can
print the guards without loading the engines that enforce them.
"""

from __future__ import annotations

# Work units of the j engine (branches x key length per expanded state), which
# partition enforces, and transition systems of the enumerator in checks.
DEFAULT_ENUMERATION_GUARD = 10**8
# Planned work of the contraction oracle; diagrams enforces it.
DEFAULT_CONTRACTION_GUARD = 10**7
# Work units of the Tutte frontier sweep (branches x (1 + frontier vertices)
# per state); planar enforces it.
DEFAULT_SUBSET_GUARD = 2**24
# Subsets 2^m of the subset walk that verify's bijection check runs; checks
# enforces it.
DEFAULT_SUBSET_WALK_GUARD = 2**24
# The largest diagram size d whose d! permutation and (2d-1)!! matching
# diagrams checks lists; no parameter or flag overrides them.
DEFAULT_PERMUTATION_LIMIT = 8
DEFAULT_MATCHING_LIMIT = 7


class GraphFormatError(ValueError):
    """Malformed graph file. Carries the 1-based line number of the offense."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class EmbeddingError(ValueError):
    """A rotation system whose face count violates the planar Euler relation."""


class NotEulerianError(ValueError):
    """Operation requires equal in/out degrees (directed) or even degrees (undirected)."""

    def __init__(self, message: str, report=None):
        self.report = report
        super().__init__(message)


class GuardExceededError(RuntimeError):
    """A computation was refused because its size bound exceeds the configured guard."""

    def __init__(self, message: str, required: int, limit: int):
        self.required = required
        self.limit = limit
        super().__init__(f"{message}: requires {required}, guard is {limit}")
