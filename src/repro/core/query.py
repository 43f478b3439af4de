"""Multidimensional range queries.

The paper assumes every query is a conjunctive selection with exactly one
range term per dimension attribute, using half-open semantics::

    low_0 < x_0 <= high_0  AND  ...  AND  low_{d-1} < x_{d-1} <= high_{d-1}

(see the running example ``6 < A <= 13 AND 5 < B <= 8`` in Section III-A).
:class:`RangeQuery` is an immutable value object holding the two bound
vectors.  A bound pair may also be "unbounded" on either side by using
``-inf`` / ``+inf``, which the scan kernels exploit by skipping the check.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

from ..errors import InvalidQueryError

__all__ = ["RangeQuery"]


class RangeQuery:
    """A conjunctive multidimensional range predicate.

    Parameters
    ----------
    lows, highs:
        Sequences of length ``d``.  Row ``x`` qualifies iff for every
        dimension ``j``: ``lows[j] < x[j] <= highs[j]``.
    label:
        Optional free-form tag used by workloads (e.g. query number or the
        column group of a shifting workload).
    """

    __slots__ = (
        "lows",
        "highs",
        "label",
        "lows_f",
        "highs_f",
        "finite_lows",
        "finite_highs",
    )

    def __init__(
        self,
        lows: Sequence[float],
        highs: Sequence[float],
        label: object = None,
    ) -> None:
        lows_arr = np.asarray(lows, dtype=np.float64)
        highs_arr = np.asarray(highs, dtype=np.float64)
        if lows_arr.ndim != 1 or highs_arr.ndim != 1:
            raise InvalidQueryError("query bounds must be one-dimensional")
        if lows_arr.shape != highs_arr.shape:
            raise InvalidQueryError(
                "lows and highs must have the same length, got "
                f"{lows_arr.shape[0]} and {highs_arr.shape[0]}"
            )
        if lows_arr.shape[0] == 0:
            raise InvalidQueryError("a query needs at least one dimension")
        if np.isnan(lows_arr).any() or np.isnan(highs_arr).any():
            raise InvalidQueryError("query bounds must not be NaN")
        if (lows_arr > highs_arr).any():
            bad = int(np.argmax(lows_arr > highs_arr))
            raise InvalidQueryError(
                f"inverted bounds on dimension {bad}: "
                f"low={lows_arr[bad]} > high={highs_arr[bad]}"
            )
        lows_arr.flags.writeable = False
        highs_arr.flags.writeable = False
        self.lows = lows_arr
        self.highs = highs_arr
        self.label = label
        # Cached Python-scalar views of the bounds.  The scan kernels read
        # per-dimension bounds on every piece of every query; pulling them
        # out of the arrays here (once per query) avoids a float()/isfinite
        # round-trip per piece per dimension on the hot path.
        self.lows_f = tuple(lows_arr.tolist())
        self.highs_f = tuple(highs_arr.tolist())
        self.finite_lows = tuple(bool(f) for f in np.isfinite(lows_arr))
        self.finite_highs = tuple(bool(f) for f in np.isfinite(highs_arr))

    @classmethod
    def full_domain(cls, n_dims: int) -> "RangeQuery":
        """The probe unbounded on every one of ``n_dims`` dimensions."""
        return cls(np.full(n_dims, -np.inf), np.full(n_dims, np.inf))

    @property
    def n_dims(self) -> int:
        """Number of dimensions the query constrains."""
        return int(self.lows.shape[0])

    @property
    def unbounded(self) -> bool:
        """True when no dimension carries a finite bound on either side."""
        return not any(self.finite_lows) and not any(self.finite_highs)

    def bound_pairs(self) -> Iterable[Tuple[int, float, float]]:
        """Yield ``(dimension, low, high)`` triples in schema order."""
        for dim in range(self.n_dims):
            yield dim, self.lows_f[dim], self.highs_f[dim]

    def adaptation_pairs(self) -> Iterable[Tuple[int, float]]:
        """Yield the pivot insertion order used by the Adaptive KD-Tree.

        Per Section III-A: first the lower bounds of all dimensions in
        schema order, then the upper bounds, e.g. for
        ``6 < A <= 13 AND 5 < B <= 8`` the order is
        ``(A, 6), (B, 5), (A, 13), (B, 8)``.  Infinite bounds are skipped;
        they can never act as useful pivots.
        """
        for dim in range(self.n_dims):
            if self.finite_lows[dim]:
                yield dim, self.lows_f[dim]
        for dim in range(self.n_dims):
            if self.finite_highs[dim]:
                yield dim, self.highs_f[dim]

    def is_empty(self) -> bool:
        """True when some dimension's range ``(low, high]`` is empty."""
        return bool((self.lows >= self.highs).any())

    def intersects_box(self, box_lows: np.ndarray, box_highs: np.ndarray) -> bool:
        """True when the query box intersects ``(box_lows, box_highs]``."""
        return bool(
            (self.lows < box_highs).all() and (self.highs > box_lows).all()
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RangeQuery):
            return NotImplemented
        return bool(
            np.array_equal(self.lows, other.lows)
            and np.array_equal(self.highs, other.highs)
        )

    def __hash__(self) -> int:
        return hash((self.lows.tobytes(), self.highs.tobytes()))

    def __repr__(self) -> str:
        terms = " AND ".join(
            f"{low:g} < x{dim} <= {high:g}" for dim, low, high in self.bound_pairs()
        )
        return f"RangeQuery({terms})"
