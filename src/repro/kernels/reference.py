"""The reference NumPy kernels and the backend interface.

:class:`ReferenceBackend` holds the original, straight-line
implementations of the two hot loops — the per-dimension candidate-list
scan of Section III-A ("option 2") and the mask-based stable partition.
They are deliberately simple: every other backend must produce
bit-identical scan positions, identical
:class:`~repro.core.metrics.QueryStats` counters, and the same partition
output, and this module is the yardstick those equivalences are measured
against (property suites, fuzzer oracle, micro-benchmarks).

:class:`KernelBackend` doubles as the interface definition and the home
of the shared incremental-partition primitives
(:meth:`~KernelBackend.chunk_misplaced` / :meth:`~KernelBackend.swap_rows`),
which :class:`repro.core.partition.IncrementalPartition` drives from its
backend-independent budget loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.metrics import QueryStats
    from ..core.query import RangeQuery

__all__ = ["KernelBackend", "ReferenceBackend", "build_mask"]


def build_mask(
    values: np.ndarray, low: float, high: float, need_low: bool, need_high: bool
) -> Optional[np.ndarray]:
    """Boolean mask for ``low < values <= high``, honouring skip flags.

    Returns ``None`` when neither bound needs checking, so callers can
    skip the dimension entirely.
    """
    check_low = need_low and np.isfinite(low)
    check_high = need_high and np.isfinite(high)
    if check_low and check_high:
        return (values > low) & (values <= high)
    if check_low:
        return values > low
    if check_high:
        return values <= high
    return None


class KernelBackend:
    """Interface every kernel backend implements.

    The two abstract kernels (:meth:`range_scan`,
    :meth:`stable_partition`) carry the full behavioural contract; the
    two incremental-partition primitives and the batch residual scan
    (:meth:`scan_windows`) have NumPy defaults that a backend may
    override (``native`` overrides :meth:`scan_windows`).  All index
    code reaches these methods only through the :mod:`repro.kernels`
    dispatch functions.
    """

    #: Registry name; doubles as the ``REPRO_KERNELS`` value.
    name = "?"

    def range_scan(
        self,
        columns: Sequence[np.ndarray],
        start: int,
        end: int,
        query: "RangeQuery",
        stats: "QueryStats",
        check_low: Optional[Sequence[bool]] = None,
        check_high: Optional[Sequence[bool]] = None,
    ) -> np.ndarray:
        """Candidate-list (option 2) scan of rows ``[start, end)``.

        ``check_low`` / ``check_high`` say, per dimension, whether that
        side of the predicate still needs testing (KD piece scans pass
        the sides the tree path already implies as ``False``).  Returns
        the qualifying positions as absolute ascending indices into the
        columns; ``stats.scanned`` is charged ``window`` for the first
        checked dimension and the candidate count for each later one.
        """
        raise NotImplementedError

    def stable_partition(
        self,
        arrays: Sequence[np.ndarray],
        start: int,
        end: int,
        key_index: int,
        pivot: float,
    ) -> int:
        """Partition rows ``[start, end)`` so keys ``<= pivot`` come
        first, stably (each side preserves relative order), moving all
        parallel arrays in lock-step.  Returns the split position."""
        raise NotImplementedError

    # -- incremental-partition primitives (chunk classify + swap) ---------

    def chunk_misplaced(
        self,
        keys: np.ndarray,
        left_base: int,
        n_left: int,
        right_base: int,
        hi: int,
        pivot: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Misplaced rows of one incremental-partition chunk.

        Returns ``(misplaced_left, misplaced_right)`` — ascending
        positions *relative to* ``left_base`` of rows ``> pivot`` within
        ``[left_base, left_base + n_left)``, and relative to
        ``right_base`` of rows ``<= pivot`` within ``[right_base, hi)``.
        """
        misplaced_left = np.flatnonzero(
            keys[left_base : left_base + n_left] > pivot
        )
        misplaced_right = np.flatnonzero(keys[right_base:hi] <= pivot)
        return misplaced_left, misplaced_right

    def swap_rows(
        self,
        arrays: Sequence[np.ndarray],
        left_rows: np.ndarray,
        right_rows: np.ndarray,
    ) -> None:
        """Exchange rows ``left_rows[i]`` and ``right_rows[i]`` across
        all parallel arrays."""
        for array in arrays:
            held = array[left_rows]  # fancy indexing materialises a copy,
            array[left_rows] = array[right_rows]  # so these writes are safe
            array[right_rows] = held

    # -- batch residual scan ----------------------------------------------

    def scan_windows(
        self, columns, rowids, starts, lens, eff_lo, eff_hi, zone_lo0, zone_hi0
    ) -> Tuple[List[np.ndarray], np.ndarray]:
        """Residual scan of ``n`` row windows for a converged batch.

        Window ``i`` covers rows ``starts[i] : starts[i] + lens[i]`` and
        is tested against its effective bounds ``eff_lo[:, i]`` /
        ``eff_hi[:, i]`` (arrays of shape ``(n_dims, n)``).  A side is
        checked only when its bound is finite, so a side the caller does
        not need checked holds ``±inf``; a dimension with neither side
        checked is skipped, exactly as :meth:`range_scan` skips it.
        ``zone_lo0`` / ``zone_hi0`` are each window's dim-0 zone bounds
        (NaN where a piece has none); they only steer the route.

        Returns ``(parts, scanned)``: each window's qualifying rowids
        (``rowids`` taken at the ascending positions) in window order,
        and each window's ``stats.scanned`` charge under the
        :meth:`range_scan` rules.

        This default is the routed NumPy scan.  Each window's dim-0
        survivors are estimated as its rows times the share of its dim-0
        zone the query keeps (all of it when dim 0 is unchecked; a NaN
        zone fails the test).  Windows estimated at
        :data:`KERNEL_MIN_SURVIVORS` or more run one :meth:`range_scan`
        call each; the rest share one vectorized pass
        (:func:`_vector_windows`).  Both routes return the same rows and
        charge the same counters.
        """
        n_pairs = len(starts)
        if n_pairs == 0:
            return [], np.empty(0, dtype=np.int64)
        dense = lens >= KERNEL_MIN_SURVIVORS
        if dense.any():
            # A missing zone (NaN) or a +inf low bound gives NaN, which
            # fails the test quietly: the estimate only steers the route.
            with np.errstate(invalid="ignore"):
                kept = np.minimum(eff_hi[0], zone_hi0) - np.maximum(
                    eff_lo[0], zone_lo0
                )
                dense &= lens * kept >= KERNEL_MIN_SURVIVORS * (
                    zone_hi0 - zone_lo0
                )
        if not dense.any():
            return _vector_windows(columns, rowids, starts, lens, eff_lo, eff_hi)
        parts: List[np.ndarray] = [_EMPTY_IDS] * n_pairs
        scanned = np.zeros(n_pairs, dtype=np.int64)
        sparse = np.flatnonzero(~dense)
        if sparse.size:
            sparse_parts, scanned[sparse] = _vector_windows(
                columns, rowids, starts[sparse], lens[sparse],
                eff_lo[:, sparse], eff_hi[:, sparse],
            )
            for position, part in zip(sparse.tolist(), sparse_parts):
                parts[position] = part
        charge = _Charge()
        picked = np.flatnonzero(dense)
        lows = eff_lo[:, picked].T
        highs = eff_hi[:, picked].T
        for position, start, length, low, high, finite_low, finite_high in zip(
            picked.tolist(),
            starts[picked].tolist(),
            lens[picked].tolist(),
            lows.tolist(),
            highs.tolist(),
            np.isfinite(lows).tolist(),
            np.isfinite(highs).tolist(),
        ):
            charge.scanned = 0
            positions = self.range_scan(
                columns,
                start,
                start + length,
                _WindowQuery(low, high, finite_low, finite_high),
                charge,
            )
            parts[position] = rowids.take(positions)
            scanned[position] = charge.scanned
        return parts, scanned

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


#: Estimated dim-0 survivors at which a residual window leaves the
#: shared vectorized pass of :meth:`KernelBackend.scan_windows` for a
#: ``range_scan`` call of its own.  The vectorized pass pays a search
#: and a gather per dim-0 survivor and per later dimension; a kernel
#: call pays ~15 us of fixed cost, then cheap full-window mask passes.
#: Measured per batch over the captured ``scan_windows`` inputs of B=64
#: uniform ``random`` windows on converged GPKD indexes (1e6 uniform
#: rows, best of 15, 2-vCPU x86 host, fused ``numpy`` backend).  "est"
#: is the median estimated survivors per window, "to kernel" the share
#: of windows at or above 400; times are ms with every window
#: vectorized, every window on the kernel, and routed by this constant:
#:
#:   d  threshold  selectivity  windows  est  to kernel  vector  kernel  routed
#:   3       1024         1e-7       72   72         0%    0.55    1.88    0.58
#:   3       1024         1e-5      116  305         0%    2.97    2.97    2.85
#:   3       1024         1e-4      174  450        55%    5.90    4.46    4.03
#:   3       1024         1e-3      397  710        78%   22.29   10.31    9.91
#:   3       1024         1e-2     1664  954        88%   89.75   26.12   28.19
#:   3       1024         1e-1     6631  966        93%  503.94   93.95   94.33
#:   2       1024         1e-4      105  309         0%    1.11    1.49    1.12
#:   2       1024         1e-3      262  483        55%    4.62    3.05    2.78
#:   2       1024         1e-2      795  757        68%   20.87    9.63    9.44
#:   2        256         1e-7       71    5         0%    0.11    0.77    0.11
#:   2        256         1e-2     1629  176         0%   10.79   14.46   11.14
#:   3        256         1e-1    17365  227         0%  246.94  171.11  241.39
#:
#: A threshold of 300 lost 1.38x to the better route (3-d, 1e-5) and
#: 600 lost 1.22x (2-d threshold 1024, 1e-1); 400 stays within noise of
#: the better route everywhere except the last row, where windows too
#: small for the kernel add up to a vectorized pass far larger than the
#: caches.
KERNEL_MIN_SURVIVORS = 400

_EMPTY_IDS = np.empty(0, dtype=np.int64)


class _WindowQuery:
    """The query view :meth:`KernelBackend.range_scan` reads, built from
    one window's effective bounds: a ``±inf`` side is exactly a side the
    kernel skips, so no check flags are needed."""

    __slots__ = ("lows_f", "highs_f", "finite_lows", "finite_highs", "n_dims")

    def __init__(self, lows, highs, finite_lows, finite_highs) -> None:
        self.lows_f = lows
        self.highs_f = highs
        self.finite_lows = finite_lows
        self.finite_highs = finite_highs
        self.n_dims = len(lows)


class _Charge:
    """Stand-in stats record: the kernels only charge ``scanned``."""

    __slots__ = ("scanned",)


def _vector_windows(
    columns, rowids, starts, lens, eff_lo, eff_hi
) -> Tuple[List[np.ndarray], np.ndarray]:
    """One vectorized pass over many windows: the sparse route of
    :meth:`KernelBackend.scan_windows`, returning the same
    ``(parts, scanned)``.

    The first dimension is evaluated across the full concatenated
    window; later dimensions only touch the surviving candidate list —
    the vector twin of the kernels' density switch.  ``scanned`` follows
    the kernel accounting rules: the full window for the first checked
    dimension, the pre-filter survivor count for each later checked one.

    ``x > low`` is evaluated as ``x >= nextafter(low, inf)``, which is
    the same test for every non-NaN ``x``; an unchecked low side then
    becomes ``x >= -inf``, which every non-NaN value passes (``-inf``
    included), and an unchecked high side ``x <= inf``.  NaN fails both,
    as it fails any checked side, and a dimension a window does not
    check at all passes every row of that window outright.
    """
    n_pairs = starts.size
    n_dims = eff_lo.shape[0]
    check_lo = np.isfinite(eff_lo)
    check_hi = np.isfinite(eff_hi)
    checked = check_lo | check_hi
    low_at = np.where(check_lo, np.nextafter(eff_lo, np.inf), -np.inf)
    high_at = np.where(check_hi, eff_hi, np.inf)
    cat_end = np.cumsum(lens)
    scanned = np.where(checked[0], lens, 0)
    column0 = columns[0]
    starts_list = starts.tolist()
    values = np.concatenate(
        [
            column0[start : start + length]
            for start, length in zip(starts_list, lens.tolist())
        ]
    )
    bounds0 = np.repeat(np.vstack((low_at[0], high_at[0])), lens, axis=1)
    keep = values >= bounds0[0]
    keep &= values <= bounds0[1]
    if not checked[0].all():
        keep |= np.repeat(~checked[0], lens)
    survivors_cat = np.flatnonzero(keep)
    cand_pair = np.searchsorted(cat_end, survivors_cat, side="right")
    # Concatenated index -> absolute row position, per surviving row.
    cand_pos = survivors_cat + (starts - cat_end + lens).take(cand_pair)
    for dim in range(1, n_dims):
        checked_dim = checked[dim]
        if not checked_dim.any():
            continue
        survivors = np.bincount(cand_pair, minlength=n_pairs)
        scanned += np.where(checked_dim, survivors, 0)
        values = columns[dim].take(cand_pos)
        keep = values >= low_at[dim].take(cand_pair)
        keep &= values <= high_at[dim].take(cand_pair)
        if not checked_dim.all():
            keep |= ~checked_dim.take(cand_pair)
        cand_pos = cand_pos[keep]
        cand_pair = cand_pair[keep]
    ids = rowids.take(cand_pos)
    bounds = np.zeros(n_pairs + 1, dtype=np.int64)
    np.cumsum(np.bincount(cand_pair, minlength=n_pairs), out=bounds[1:])
    bounds_list = bounds.tolist()
    return [
        ids[bounds_list[position] : bounds_list[position + 1]]
        for position in range(n_pairs)
    ], scanned


class ReferenceBackend(KernelBackend):
    """The original straight-line kernels (the trusted baseline)."""

    name = "reference"

    def range_scan(
        self,
        columns: Sequence[np.ndarray],
        start: int,
        end: int,
        query: "RangeQuery",
        stats: "QueryStats",
        check_low: Optional[Sequence[bool]] = None,
        check_high: Optional[Sequence[bool]] = None,
    ) -> np.ndarray:
        n_dims = query.n_dims
        if end <= start:
            return np.empty(0, dtype=np.int64)
        lows = query.lows_f
        highs = query.highs_f
        candidates: Optional[np.ndarray] = None
        for dim in range(n_dims):
            need_low = True if check_low is None else bool(check_low[dim])
            need_high = True if check_high is None else bool(check_high[dim])
            low = lows[dim]
            high = highs[dim]
            column = columns[dim]
            if candidates is None:
                mask = build_mask(column[start:end], low, high, need_low, need_high)
                if mask is None:
                    continue
                stats.scanned += end - start
                candidates = np.flatnonzero(mask)
            else:
                if candidates.size == 0:
                    return candidates
                mask = build_mask(
                    column[start + candidates], low, high, need_low, need_high
                )
                if mask is None:
                    continue
                stats.scanned += int(candidates.size)
                candidates = candidates[mask]
        if candidates is None:
            # No predicate needed checking: the whole piece qualifies.
            candidates = np.arange(end - start, dtype=np.int64)
        return start + candidates

    def stable_partition(
        self,
        arrays: Sequence[np.ndarray],
        start: int,
        end: int,
        key_index: int,
        pivot: float,
    ) -> int:
        if end <= start:
            return start
        mask = arrays[key_index][start:end] <= pivot
        n_left = int(np.count_nonzero(mask))
        split = start + n_left
        if n_left == 0 or n_left == end - start:
            return split  # already one-sided; nothing moves
        inverse = ~mask
        for array in arrays:
            window = array[start:end]
            left = window[mask]  # fancy indexing materialises copies,
            right = window[inverse]  # so the writes below are safe
            array[start:split] = left
            array[split:end] = right
        return split
