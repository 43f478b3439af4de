"""Common interface and shared machinery for all indexes.

Every technique in the paper — full scan, full KD-Trees, QUASII, SFC
cracking, and the three contributions — is exposed through the same tiny
interface: construct over a :class:`~repro.core.table.Table`, then call
:meth:`BaseIndex.query` per query.  Each call returns the qualifying
original row ids plus a full :class:`~repro.core.metrics.QueryStats`, so
the benchmark harness can treat all techniques uniformly.
"""

from __future__ import annotations

import sys
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import kernels
from ..errors import InvalidQueryError
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .kdtree import PieceMatch
from .metrics import QueryStats
from .query import RangeQuery
from .scan import range_scan
from .table import Table

__all__ = ["QueryResult", "IndexTable", "BaseIndex", "IndexDebugState"]


class QueryResult:
    """The answer to one query: original row ids plus measurements."""

    __slots__ = ("row_ids", "stats")

    def __init__(self, row_ids: np.ndarray, stats: QueryStats) -> None:
        self.row_ids = row_ids
        self.stats = stats
        stats.result_count = int(row_ids.size)

    @property
    def count(self) -> int:
        return int(self.row_ids.size)

    def sorted_ids(self) -> np.ndarray:
        """Row ids in ascending order (for answer comparison in tests)."""
        return np.sort(self.row_ids)

    def checksum(self) -> int:
        """Order-independent answer fingerprint."""
        return int(self.row_ids.sum(dtype=np.int64)) if self.count else 0

    def __repr__(self) -> str:
        return f"QueryResult({self.count} rows, {self.stats.seconds:.6f}s)"


class IndexTable:
    """The secondary index table: reorganisable copies of all columns plus
    a rowid column mapping positions back to the original table.

    With process workers enabled (:mod:`repro.parallel.procpool`), the
    two construction paths place the arrays in shared-memory segments
    instead of the process heap — behaviourally identical views, but
    shippable to pool workers by handle.  The segment's lifetime is tied
    to the ``IndexTable`` instance (hence ``__weakref__`` in the slots).
    """

    __slots__ = ("columns", "rowids", "__weakref__")

    def __init__(self, columns: List[np.ndarray], rowids: np.ndarray) -> None:
        self.columns = columns
        self.rowids = rowids

    @staticmethod
    def _shm_backed() -> bool:
        from ..parallel import procpool

        return procpool.get_process_workers() > 1 and not procpool.in_proc_worker()

    @classmethod
    def copy_of(cls, table: Table, stats: Optional[QueryStats] = None) -> "IndexTable":
        """Materialise the index table as a copy of the base table
        (the Adaptive KD-Tree initialization phase)."""
        if stats is not None:
            stats.copied += table.n_rows * (table.n_columns + 1)
        if cls._shm_backed():
            from ..parallel import shm as parallel_shm

            specs = [
                (table.n_rows, column.dtype) for column in table.columns()
            ]
            specs.append((table.n_rows, np.dtype(np.int64)))
            block = parallel_shm.empty_arrays(specs)
            for view, column in zip(block.arrays, table.columns()):
                view[:] = column
            rowids = block.arrays[-1]
            rowids[:] = np.arange(table.n_rows, dtype=np.int64)
            instance = cls(block.arrays[:-1], rowids)
            parallel_shm.adopt(instance, block)
            return instance
        columns = table.copy_columns()
        rowids = np.arange(table.n_rows, dtype=np.int64)
        return cls(columns, rowids)

    @classmethod
    def allocate(cls, n_rows: int, n_columns: int, dtype=np.float64) -> "IndexTable":
        """Uninitialised index table (the progressive creation phase fills
        it incrementally)."""
        if cls._shm_backed():
            from ..parallel import shm as parallel_shm

            specs = [(n_rows, np.dtype(dtype))] * n_columns
            specs.append((n_rows, np.dtype(np.int64)))
            block = parallel_shm.empty_arrays(specs)
            instance = cls(block.arrays[:-1], block.arrays[-1])
            parallel_shm.adopt(instance, block)
            return instance
        columns = [np.empty(n_rows, dtype=dtype) for _ in range(n_columns)]
        rowids = np.empty(n_rows, dtype=np.int64)
        return cls(columns, rowids)

    @property
    def n_rows(self) -> int:
        return int(self.rowids.shape[0])

    @property
    def all_arrays(self) -> List[np.ndarray]:
        """Columns plus rowids — the arrays partitioning must move together."""
        return self.columns + [self.rowids]

    def zone_shortcut(
        self, match: PieceMatch, query: RangeQuery, stats: QueryStats
    ) -> Optional[np.ndarray]:
        """Data-free zone-map shortcuts for one piece, or ``None``.

        When the piece carries a zone map: if the zone box misses the
        query box on any dimension the piece is skipped outright
        (``stats.pruned``, empty result), and if the zone box lies fully
        inside the query box every row qualifies and the whole rowid
        range is returned without scanning (``stats.contained``).  Both
        are pure-Python comparisons over the cached scalar bounds — no
        array is touched and ``stats.scanned`` stays untouched too.
        ``None`` means neither shortcut fired and the piece needs a real
        residual scan.
        """
        piece = match.piece
        zone_lo = piece.zone_lo
        if zone_lo is None:
            return None
        zone_hi = piece.zone_hi
        lows = query.lows_f
        highs = query.highs_f
        contained = True
        for dim in range(query.n_dims):
            low = lows[dim]
            high = highs[dim]
            zlo = zone_lo[dim]
            zhi = zone_hi[dim]
            if high < zlo or low >= zhi:
                # (low, high] cannot intersect [zlo, zhi]: x > low fails
                # everywhere when low >= zhi, x <= high when high < zlo.
                stats.pruned += 1
                return np.empty(0, dtype=np.int64)
            if contained and not (low < zlo and zhi <= high):
                contained = False
        if contained:
            stats.contained += 1
            # Copy: the slice is a view into the reorganisable rowid
            # column and later partitioning would corrupt it in place.
            return self.rowids[piece.start : piece.end].copy()
        return None

    def scan_piece(
        self, match: PieceMatch, query: RangeQuery, stats: QueryStats
    ) -> np.ndarray:
        """Scan one piece with the residual predicates and map positions to
        original row ids (Section III-A, "Piece Scan").

        Zone-map shortcuts (:meth:`zone_shortcut`) apply first; only
        pieces they cannot settle pay a kernel scan.
        """
        shortcut = self.zone_shortcut(match, query, stats)
        if shortcut is not None:
            return shortcut
        positions = range_scan(
            self.columns,
            match.piece.start,
            match.piece.end,
            query,
            stats,
            check_low=match.check_low,
            check_high=match.check_high,
        )
        return self.rowids[positions]

    def scan_pieces(
        self, matches: List[PieceMatch], query: RangeQuery, stats: QueryStats
    ) -> List[np.ndarray]:
        """Scan a whole candidate-piece list; one rowid array per match.

        The batch twin of :meth:`scan_piece` — and the parallel entry
        point: with workers configured (:mod:`repro.parallel`) the list
        is chunked across the shared pool, with results and stats merged
        in match order so the output is identical to the serial loop.
        """
        from ..parallel import executor as parallel_executor

        return parallel_executor.scan_pieces(self, matches, query, stats)


@dataclass
class IndexDebugState:
    """Snapshot of an index's internal structures for invariant checking.

    This is the debug-only introspection contract between the index
    backends and :mod:`repro.invariants`: it is built on demand by
    :meth:`BaseIndex.debug_state` and never touched on the query hot path.

    Attributes
    ----------
    index:
        The index the state was captured from.
    tree, index_table:
        The KD-Tree and reorganised column copies, when the backend has
        them materialised (``None`` otherwise — e.g. before the first
        query, or for non-KD backends).
    size_threshold:
        Convergence piece size, when the backend has one.
    filled_ranges:
        Row ranges of the index table that currently hold valid rows.
        ``None`` means "all of ``[0, n_rows)``"; the Progressive KD-Tree
        overrides this during its creation phase, where the middle of the
        index table is still uninitialised.
    open_pieces:
        The backend's own work-list of unconverged pieces, when it keeps
        one (PKD/GPKD refinement).
    phase:
        Lifecycle phase string for phase-aware checks.
    extras:
        Backend-specific scalars the checkers can cross-validate
        (e.g. PKD creation write cursors, AKD's open-piece counter).
    """

    index: "BaseIndex"
    tree: Optional[object] = None
    index_table: Optional["IndexTable"] = None
    size_threshold: Optional[int] = None
    filled_ranges: Optional[List[Tuple[int, int]]] = None
    open_pieces: Optional[list] = None
    phase: Optional[str] = None
    extras: Dict[str, object] = field(default_factory=dict)


class BaseIndex(ABC):
    """Abstract incremental multidimensional index.

    Subclasses implement :meth:`_execute`; :meth:`query` wraps it with
    validation, total timing, and convergence reporting.
    """

    #: Short name used in benchmark tables (paper abbreviations).
    name: str = "?"

    def __init__(self, table: Table) -> None:
        self.table = table
        self.n_rows = table.n_rows
        self.n_dims = table.n_columns
        self.queries_executed = 0
        # (registry generation, {short key -> instrument}); see
        # _observed_query — re-rendering ~10 registry keys per query
        # would dominate the metered cost of a converged lookup.
        self._metric_handles = None

    def query(self, query: RangeQuery) -> QueryResult:
        """Answer ``query``, doing whatever incremental indexing the
        technique prescribes as a side effect."""
        if query.n_dims != self.n_dims:
            raise InvalidQueryError(
                f"query has {query.n_dims} dimensions, index covers {self.n_dims}"
            )
        stats = QueryStats()
        if obs_trace.ENABLED or obs_metrics.ENABLED:
            # Observability slow path: spans + registry feeding.  The
            # split keeps the common case at exactly two global loads.
            return self._observed_query(query, stats)
        begin = time.perf_counter()
        # Snapshot the kernel backend for the whole query: a concurrent
        # kernels.use() (or a fuzzer backend sweep on another thread) can
        # then never mix backends mid-query, and pool workers know which
        # backend to instantiate for their morsels.
        with kernels.pinned():
            row_ids = self._execute(query, stats)
        stats.seconds = time.perf_counter() - begin
        stats.converged = self.converged
        self.queries_executed += 1
        return QueryResult(row_ids, stats)

    def query_batch(self, queries: Sequence[RangeQuery]) -> List[QueryResult]:
        """Answer ``queries`` in order; returns one result per query.

        Semantically equivalent to ``[self.query(q) for q in queries]``
        — same answers, same deterministic work counters per query — but
        amortised: while the index still adapts, queries drain one at a
        time (each may reorganise data, so adaptation order must match
        the sequential path exactly); once the backend reports it can
        batch (KD family, converged), the remaining queries share one
        tree descent pass (vectorized over the arena when present) and
        one residual scan.  Serially that scan is one call of
        :func:`repro.parallel.executor.scan_windows`: one compiled call
        under the ``native`` kernels, otherwise dense leaf windows
        through the fused kernel one by one and the sparse rest through
        one shared vectorized pass; with workers it is one morsel/proc
        fan-out for the whole batch.

        Per-query wall-clock ``seconds`` on the batched tail is the batch
        total divided evenly — the counters, not the clock, are the
        deterministic signal.
        """
        queries = list(queries)
        for query in queries:
            if query.n_dims != self.n_dims:
                raise InvalidQueryError(
                    f"query has {query.n_dims} dimensions, index covers "
                    f"{self.n_dims}"
                )
        results: List[QueryResult] = []
        position = 0
        total = len(queries)
        while position < total:
            # Observability wants one span/metric feed per query; the
            # sequential path provides that for free.
            if (
                obs_trace.ENABLED
                or obs_metrics.ENABLED
                or total - position == 1
                or not self._supports_batch()
            ):
                results.append(self.query(queries[position]))
                position += 1
                continue
            results.extend(self._query_batch_converged(queries[position:]))
            position = total
        return results

    def _supports_batch(self) -> bool:
        """Whether the batched tail of :meth:`query_batch` may run now.

        KD-family backends return True once converged (no query mutates
        state any more, so a shared descent cannot reorder adaptation);
        everything else inherits False and stays on the sequential path.
        """
        return False

    def _batch_prelude(
        self,
        query: RangeQuery,
        stats: QueryStats,
        matches,
        visited: int,
        touched: Optional[int] = None,
    ) -> None:
        """Replicate the sequential pre-scan stats of one converged query.

        ``matches``/``visited`` come from the shared descent; the default
        covers backends whose converged query is exactly lookup + scan.
        The arena pipeline passes ``matches=None`` plus the precomputed
        ``touched`` row total (the only thing backends read matches for);
        the object path leaves ``touched`` unset.
        """
        stats.lookup_nodes += visited

    def _batch_postlude(
        self, query: RangeQuery, stats: QueryStats, visited: int
    ) -> None:
        """Replicate the sequential post-scan bookkeeping (default: none)."""

    def _batch_postlude_many(self, queries, stats_list, visited) -> None:
        """Run the postlude for a whole arena batch (``visited`` is a
        per-query array); same contract as :meth:`_batch_prelude_many`."""
        for position, (query, stats) in enumerate(zip(queries, stats_list)):
            self._batch_postlude(query, stats, int(visited[position]))

    def _batch_prelude_many(
        self, queries, stats_list, visited, touched
    ) -> None:
        """Run the prelude for a whole arena batch (``visited``/``touched``
        are per-query arrays).  Backends whose prelude is pure arithmetic
        override this with a vectorized twin; the default defers to the
        scalar hook per query, in query order."""
        for position, (query, stats) in enumerate(zip(queries, stats_list)):
            self._batch_prelude(
                query,
                stats,
                None,
                int(visited[position]),
                touched=int(touched[position]),
            )

    def _query_batch_converged(
        self, queries: List[RangeQuery]
    ) -> List[QueryResult]:
        """The batched tail: shared descent, one residual scan for the
        whole batch, per-query stats replicated via the prelude/postlude
        hooks.

        With an arena present and a guaranteed-serial scan tier, the
        whole batch runs array-native (:meth:`_batch_arena_core`) — no
        :class:`PieceMatch` objects exist at any point.  Otherwise the
        object-graph path assembles per-query match jobs and hands them
        to the executor, which may fan them out.  Both produce the same
        answers and counters.
        """
        from ..parallel import executor as parallel_executor

        tree = self.tree
        index_table = self.index_table
        begin = time.perf_counter()
        with kernels.pinned():
            arena = getattr(tree, "arena", None)
            if arena is not None and parallel_executor.batch_scan_serial():
                stats_list, rows_per = self._batch_arena_core(
                    arena, index_table, queries, parallel_executor
                )
            else:
                stats_list, rows_per = self._batch_object_core(
                    tree, arena, index_table, queries, parallel_executor
                )
        share = (time.perf_counter() - begin) / len(queries)
        results: List[QueryResult] = []
        converged = self.converged
        for stats, row_ids in zip(stats_list, rows_per):
            stats.seconds = share
            stats.phase_seconds["scan"] += share
            stats.converged = converged
            self.queries_executed += 1
            results.append(QueryResult(row_ids, stats))
        return results

    def _batch_object_core(
        self, tree, arena, index_table, queries, parallel_executor
    ):
        """Converged batch over PieceMatch objects (parallel-capable)."""
        if arena is not None:
            descents = arena.search_batch(queries)
        else:
            descents = []
            for query in queries:
                probe = QueryStats()
                descents.append(
                    (tree.search(query, probe), probe.lookup_nodes)
                )
        stats_list = [QueryStats() for _ in queries]
        jobs = []
        for query, stats, (matches, visited) in zip(
            queries, stats_list, descents
        ):
            self._batch_prelude(query, stats, matches, visited)
            jobs.append((matches, query, stats))
        parts_per = parallel_executor.scan_match_sets(index_table, jobs)
        rows_per: List[np.ndarray] = []
        for query, stats, (matches, visited), parts in zip(
            queries, stats_list, descents, parts_per
        ):
            filled = [part for part in parts if part.size]
            if not filled:
                row_ids = np.empty(0, dtype=np.int64)
            elif len(filled) == 1:
                row_ids = filled[0]
            else:
                row_ids = np.concatenate(filled)
            self._batch_postlude(query, stats, visited)
            rows_per.append(row_ids)
        return stats_list, rows_per

    def _batch_arena_core(
        self, arena, index_table, queries, parallel_executor
    ):
        """Array-native converged batch: descent, zone shortcuts, check
        flags, and residual scans all computed over the arena snapshot.

        Bit-identical to :meth:`_batch_object_core` by construction —
        the zone tests replicate :meth:`IndexTable.zone_shortcut`, the
        check flags come from the same stored path bounds the scalar
        search compares against, and every residual window goes through
        one call of :func:`repro.parallel.executor.scan_windows` — the
        same batch scan the serial object path uses.  Result
        arrays may be views into shared buffers; a converged index never
        reorganises rows again, so they stay valid.
        """
        (
            leaf_query, leaf_node, visited, boundaries, lows2d, highs2d,
            snapshot,
        ) = arena.search_batch_raw(queries)
        los = snapshot["los"]
        his = snapshot["his"]
        n_queries = len(queries)
        n_leaves = int(leaf_node.size)
        sizes = his[leaf_node] - los[leaf_node]
        size_cum = np.zeros(n_leaves + 1, dtype=np.int64)
        np.cumsum(sizes, out=size_cum[1:])
        touched_per = size_cum[boundaries[1:]] - size_cum[boundaries[:-1]]
        stats_list = [QueryStats() for _ in queries]
        self._batch_prelude_many(queries, stats_list, visited, touched_per)

        # Zone shortcuts, vectorized: same interval tests as
        # IndexTable.zone_shortcut, evaluated for every leaf at once.
        query_lo = lows2d[leaf_query]
        query_hi = highs2d[leaf_query]
        has_zone = snapshot["has_zone"][leaf_node]
        zone_lo = snapshot["zone_lo2"][leaf_node]
        zone_hi = snapshot["zone_hi2"][leaf_node]
        pruned = has_zone & (
            (query_hi < zone_lo) | (query_lo >= zone_hi)
        ).any(axis=1)
        contained = (
            has_zone
            & ~pruned
            & ((query_lo < zone_lo) & (zone_hi <= query_hi)).all(axis=1)
        )
        for query_index in leaf_query[pruned]:
            stats_list[query_index].pruned += 1
        for query_index in leaf_query[contained]:
            stats_list[query_index].contained += 1

        # Residual scans: every window the zone shortcuts could not
        # settle goes through one batch scan call.
        parts: List[Optional[np.ndarray]] = [None] * n_leaves
        residual = np.flatnonzero(~(pruned | contained))
        if residual.size:
            res_node = leaf_node[residual]
            res_query = leaf_query[residual]
            res_lows = lows2d[res_query]
            res_highs = highs2d[res_query]
            # isfinite(lows) is exactly RangeQuery.finite_lows.
            need_low = (
                res_lows > snapshot["path_lo2"][res_node]
            ) & np.isfinite(res_lows)
            need_high = (
                res_highs < snapshot["path_hi2"][res_node]
            ) & np.isfinite(res_highs)
            res_zone = has_zone[residual]
            res_parts, scanned = parallel_executor.scan_windows(
                index_table.columns,
                index_table.rowids,
                los[res_node],
                sizes[residual],
                np.where(need_low, res_lows, -np.inf).T,
                np.where(need_high, res_highs, np.inf).T,
                np.where(res_zone, zone_lo[residual, 0], np.nan),
                np.where(res_zone, zone_hi[residual, 0], np.nan),
            )
            for leaf_index, query_index, part, charge in zip(
                residual.tolist(), res_query.tolist(), res_parts,
                scanned.tolist(),
            ):
                stats_list[query_index].scanned += charge
                parts[leaf_index] = part

        rowids = index_table.rowids
        rows_per: List[np.ndarray] = []
        bounds_list = boundaries.tolist()
        pruned_list = pruned.tolist()
        empty_ids = np.empty(0, dtype=np.int64)
        for position in range(n_queries):
            start = bounds_list[position]
            stop = bounds_list[position + 1]
            if stop - start == 1 and not pruned_list[start]:
                # Fast path: converged point lookups almost always reach
                # exactly one unpruned leaf.
                part = parts[start]
                if part is None:  # contained: the whole rowid range
                    node = leaf_node[start]
                    part = rowids[los[node] : his[node]]
                row_ids = part if part.size else empty_ids
            else:
                row_parts = []
                for leaf_index in range(start, stop):
                    if pruned_list[leaf_index]:
                        continue
                    part = parts[leaf_index]
                    if part is None:  # contained: the whole rowid range
                        node = leaf_node[leaf_index]
                        part = rowids[los[node] : his[node]]
                    if part.size:
                        row_parts.append(part)
                if not row_parts:
                    row_ids = empty_ids
                elif len(row_parts) == 1:
                    row_ids = row_parts[0]
                else:
                    row_ids = np.concatenate(row_parts)
            rows_per.append(row_ids)
        # All scan charges are final here, so the postludes (which read
        # the finished counters) run in query order exactly as the
        # sequential path interleaves them.
        self._batch_postlude_many(queries, stats_list, visited)
        return stats_list, rows_per

    def _observed_query(self, query: RangeQuery, stats: QueryStats) -> QueryResult:
        """The traced/metered twin of :meth:`query`'s hot path.

        Emits one ``query`` span (when tracing) carrying the index name,
        query number, result/convergence state, and — for tree-backed
        indexes — the structure gauges the convergence observatory plots
        (``node_count``, ``open_pieces``, ``max_leaf``).  Feeds the
        metrics registry (when metering) with per-index counters and a
        latency histogram.
        """
        tracer = obs_trace.TRACER if obs_trace.ENABLED else None
        span = None
        if tracer is not None:
            span = tracer.span(
                "query",
                stats=stats,
                index=self.name,
                query_number=self.queries_executed,
                n_dims=self.n_dims,
            )
            span.__enter__()
        begin = time.perf_counter()
        try:
            with kernels.pinned():  # same per-query snapshot as query()
                row_ids = self._execute(query, stats)
        except BaseException:
            stats.seconds = time.perf_counter() - begin
            stats.converged = self.converged
            if span is not None:
                self._annotate_span(span)
                span.__exit__(*sys.exc_info())
            raise
        stats.seconds = time.perf_counter() - begin
        stats.converged = self.converged
        if span is not None:
            self._annotate_span(span)
            span.attrs["result_count"] = int(row_ids.size)
            span.__exit__()
        if obs_metrics.ENABLED:
            registry = obs_metrics.REGISTRY
            handles = self._metric_handles
            if handles is None or handles[0] != registry.generation:
                # Instruments are created lazily (a counter only exists
                # once it has been fed) but the handles are cached, so
                # steady state pays dict gets, not registry-key renders
                # and registry locks.
                handles = (registry.generation, {})
                self._metric_handles = handles
            cache = handles[1]
            name = self.name

            def _counter(short: str, metric_name: str):
                metric = cache.get(short)
                if metric is None:
                    metric = cache[short] = registry.counter(
                        metric_name, index=name
                    )
                return metric

            def _gauge(short: str, metric_name: str):
                metric = cache.get(short)
                if metric is None:
                    metric = cache[short] = registry.gauge(
                        metric_name, index=name
                    )
                return metric

            _counter("queries", "index.queries").inc()
            _counter("rows_returned", "index.rows_returned").inc(
                int(row_ids.size)
            )
            for field_name in ("scanned", "copied", "swapped", "lookup_nodes",
                               "nodes_created"):
                value = getattr(stats, field_name)
                if value:
                    _counter(field_name, f"index.{field_name}").inc(value)
            if stats.pruned:
                _counter("pruned", "zone.pruned").inc(stats.pruned)
            if stats.contained:
                _counter("contained", "zone.contained").inc(stats.contained)
            _gauge("converged", "index.converged").set(
                1 if stats.converged else 0
            )
            _gauge("nodes", "index.nodes").set(self.node_count)
            open_pieces = self.open_piece_count
            if open_pieces is not None:
                _gauge("open_pieces", "index.open_pieces").set(open_pieces)
            remaining = self.convergence_rows_estimate
            if remaining is not None:
                _gauge("rows_to_converge", "index.rows_to_converge").set(
                    remaining
                )
            registry.histogram("query.seconds", index=name).observe(stats.seconds)
        self.queries_executed += 1
        return QueryResult(row_ids, stats)

    def _annotate_span(self, span) -> None:
        """Attach convergence-observatory gauges to a ``query`` span."""
        attrs = span.attrs
        attrs["converged"] = self.converged
        attrs["node_count"] = self.node_count
        open_pieces = self.open_piece_count
        if open_pieces is not None:
            attrs["open_pieces"] = open_pieces
        threshold = getattr(self, "size_threshold", None)
        if threshold is not None:
            attrs["size_threshold"] = threshold
        tree = getattr(self, "tree", None)
        if tree is not None:
            attrs["max_leaf"] = tree.max_leaf_size()
            attrs["leaf_count"] = tree.leaf_count

    @abstractmethod
    def _execute(self, query: RangeQuery, stats: QueryStats) -> np.ndarray:
        """Answer the query; return original row ids."""

    @property
    def converged(self) -> bool:
        """True once no future query will perform further indexing."""
        return False

    @property
    def node_count(self) -> int:
        """Number of index nodes currently materialised (Fig. 6d)."""
        return 0

    @property
    def open_piece_count(self) -> Optional[int]:
        """Pieces still above the convergence threshold, when tracked.

        ``None`` means the backend does not maintain this gauge (full
        scans, up-front builds) or cannot know it yet (PKD before its
        creation phase finishes).  Cheap — backends return a counter they
        already maintain, never a tree walk — so the observability layer
        may read it per query.
        """
        return None

    @property
    def convergence_rows_estimate(self) -> Optional[int]:
        """Cost-model estimate of indexing row visits left to convergence.

        ``None`` when the backend has no cost model or no piece-size
        bookkeeping (full scans, up-front builds, purely workload-driven
        refiners whose remaining work depends on future queries).  The
        progressive backends price their open-piece work lists through
        :meth:`CostModel.rows_to_converge`; the serve-layer exporter
        publishes this as the per-index convergence gauge.
        """
        return None

    # -- debug introspection (invariant checking; never on the hot path) ------

    def debug_state(self) -> IndexDebugState:
        """Expose internal structures to :mod:`repro.invariants`.

        The default implementation covers every KD-based backend via the
        conventional ``tree`` / ``index_table`` / ``size_threshold``
        attributes; backends with partial or non-KD state override it.
        """
        return IndexDebugState(
            index=self,
            tree=getattr(self, "tree", None),
            index_table=getattr(self, "index_table", None),
            size_threshold=getattr(self, "size_threshold", None),
        )

    def self_check(self) -> None:
        """Backend-specific structural self-check; raises on breach.

        Debug-only: called by the invariant checkers and the fuzzer, never
        by :meth:`query`.  Backends whose structure is not a KD-Tree
        (QUASII's hierarchy, the cracker columns) override this to verify
        their own organisation.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}(N={self.n_rows}, d={self.n_dims})"
