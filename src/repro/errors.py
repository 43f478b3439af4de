"""Exception hierarchy for the repro package.

Every error raised on purpose by this library derives from :class:`ReproError`
so callers can catch library failures with a single ``except`` clause while
letting genuine programming errors (``TypeError`` and friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class InvalidQueryError(ReproError):
    """A query is malformed: wrong arity, inverted bounds, or NaN bounds."""


class BatchTooLargeError(InvalidQueryError):
    """A server ``batch`` request carries more queries than allowed."""


class InvalidTableError(ReproError):
    """A table is malformed: ragged columns, empty schema, or bad dtypes."""


class InvalidParameterError(ReproError):
    """An index or workload parameter is outside its legal range."""


class IndexStateError(ReproError):
    """An operation was attempted in an illegal index state."""


class InvariantViolationError(IndexStateError):
    """One or more structural invariants of an index do not hold.

    Raised by :func:`repro.invariants.assert_invariants`; carries the full
    list of violations so a single failure reports everything that broke.
    """

    def __init__(self, index_name: str, problems) -> None:
        self.index_name = index_name
        self.problems = list(problems)
        listing = "; ".join(self.problems[:10])
        suffix = "" if len(self.problems) <= 10 else f" (+{len(self.problems) - 10} more)"
        super().__init__(
            f"{index_name}: {len(self.problems)} invariant violation(s): "
            f"{listing}{suffix}"
        )


class WorkloadError(ReproError):
    """A workload definition could not be generated or validated."""
