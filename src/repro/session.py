"""Exploration sessions: the user-facing front door.

The paper's motivating user is a data scientist poking at a fresh data set
with no DBA, no workload knowledge, and no patience for index tuning.
:class:`ExplorationSession` packages this repository accordingly:

* register tables once (numeric columns directly; string columns are
  dictionary-encoded transparently);
* issue range queries by column *name*, constraining any subset of
  columns — the session maintains one incremental index per queried
  column group, exactly like the paper's shifting-workload setup;
* the indexing technique is picked per the paper's conclusions
  (``technique="auto"``: Greedy Progressive for its constant per-query
  cost, the recommendation for interactive exploration) or forced
  explicitly;
* per-table statistics expose what the indexes have learned so far.

Example::

    session = ExplorationSession()
    session.register("taxi", {"lat": lat, "lon": lon, "fare": fare})
    result = session.query("taxi", lat=(40.7, 40.8), lon=(-74.02, -73.93))
    print(result.count, result.seconds)
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .baselines import FullScan, Quasii
from .core import (
    AdaptiveKDTree,
    BaseIndex,
    GreedyProgressiveKDTree,
    ProgressiveKDTree,
    RangeQuery,
)
from .core.dictionary import EncodedTable, encode_table
from .core.inspect import summarize_tree
from .errors import InvalidParameterError, InvalidQueryError, InvalidTableError
from .obs import metrics as obs_metrics
from .obs import trace as obs_trace

__all__ = ["ExplorationSession", "SessionResult", "resolve_group_query"]

#: technique name -> factory(table, session settings).
TECHNIQUES = {
    "adaptive": lambda table, s: AdaptiveKDTree(
        table, size_threshold=s.size_threshold, tau=s.tau
    ),
    "progressive": lambda table, s: ProgressiveKDTree(
        table, delta=s.delta, size_threshold=s.size_threshold, tau=s.tau
    ),
    "greedy": lambda table, s: GreedyProgressiveKDTree(
        table, delta=s.delta, size_threshold=s.size_threshold, tau=s.tau
    ),
    "quasii": lambda table, s: Quasii(table, size_threshold=s.size_threshold),
    "scan": lambda table, s: FullScan(table),
}


@dataclass
class SessionResult:
    """One query's answer plus the session-level bookkeeping."""

    row_ids: np.ndarray
    seconds: float
    columns: Tuple[str, ...]
    table_name: str
    _session: "ExplorationSession" = field(repr=False, default=None)

    @property
    def count(self) -> int:
        return int(self.row_ids.size)

    def fetch(self, column: str) -> np.ndarray:
        """Values of any registered column (decoded) for the result rows."""
        return self._session.fetch(self.table_name, column, self.row_ids)

    def rows(self, columns: Optional[Sequence[str]] = None) -> List[tuple]:
        """Materialise result rows (decoded) for the given columns
        (default: the queried columns)."""
        names = tuple(columns) if columns else self.columns
        arrays = [self.fetch(name) for name in names]
        return list(zip(*arrays)) if arrays else []


@dataclass
class _RegisteredTable:
    encoded: EncodedTable
    indexes: Dict[Tuple[str, ...], BaseIndex] = field(default_factory=dict)
    queries_run: int = 0


def resolve_group_query(
    encoded: EncodedTable, table_name: str, bounds: Dict[str, object]
) -> Tuple[Tuple[str, ...], List[int], RangeQuery]:
    """Turn keyword bounds into ``(group_key, positions, RangeQuery)``.

    The shared front-door parsing of this module and the serve layer
    (:mod:`repro.serve`): validates column names and ``(low, high)``
    pairs, canonicalises the queried column group (sorted), and encodes
    string bounds through the table's dictionaries.
    """
    if not bounds:
        raise InvalidQueryError("a query must constrain at least one column")
    names = encoded.table.names
    group: List[str] = []
    lows: List[object] = []
    highs: List[object] = []
    for column, bound in bounds.items():
        if column not in names:
            raise InvalidQueryError(
                f"table {table_name!r} has no column {column!r}"
            )
        try:
            low, high = bound
        except (TypeError, ValueError):
            raise InvalidQueryError(
                f"bound for {column!r} must be a (low, high) pair"
            ) from None
        group.append(column)
        lows.append(low)
        highs.append(high)
    group_key = tuple(sorted(group))
    order = [group.index(column) for column in group_key]
    positions = [names.index(column) for column in group_key]
    encoded_lows: List[float] = []
    encoded_highs: List[float] = []
    for position, i in zip(positions, order):
        dictionary = encoded.dictionaries[position]
        if dictionary is None:
            encoded_lows.append(float(lows[i]))
            encoded_highs.append(float(highs[i]))
        else:
            code_low, code_high = dictionary.translate_bounds(
                lows[i], highs[i]
            )
            encoded_lows.append(code_low)
            encoded_highs.append(code_high)
    return group_key, positions, RangeQuery(encoded_lows, encoded_highs)


class ExplorationSession:
    """A stateful exploration session over one or more tables.

    Parameters
    ----------
    technique:
        One of ``auto``, ``adaptive``, ``progressive``, ``greedy``,
        ``quasii``, ``scan``.  ``auto`` uses the Greedy Progressive
        KD-Tree — the paper's pick for interactive exploration ("we want
        to keep the impact on initial queries low and we want a constant
        query response time without performance spikes").
    size_threshold, delta, tau:
        Forwarded to the underlying indexes.
    kernels:
        Kernel backend for the scan/partition hot loops (``native``,
        ``numpy``, or ``reference``; see :mod:`repro.kernels`).  ``None``
        keeps whatever is active (the default, or ``REPRO_KERNELS``).
        Requesting ``native`` where it cannot be built falls back to the
        fused NumPy backend.  The dispatch is process-global, so
        the setting affects every session in the process.
    validate:
        Debug mode: after *every* query, run the full structural
        invariant suite (:mod:`repro.invariants`) on the index that
        answered it and raise on any breach.  Off by default — the flag
        adds per-query work proportional to the table size, so it is
        meant for tests, fuzzing, and bug hunts, never production
        traffic; when off, no invariant code runs at all.
    parallel:
        Worker count for the morsel-driven execution layer
        (:mod:`repro.parallel`): scans split into morsels and refinement
        fans out across disjoint pieces on a shared thread pool.  ``1``
        compiles to the serial path; ``None`` keeps whatever is active
        (the default, or ``REPRO_PARALLEL``).  Like the kernel
        selection, the setting is process-global.
    background_refine:
        Opt-in background maintenance: progressive indexes built by this
        session get a :class:`~repro.parallel.background.
        BackgroundRefiner` that keeps refining during think time between
        queries, quiescing before every query and invariant check.  Call
        :meth:`close` (or use the session as a context manager) to stop
        the workers.
    procs:
        Process-worker count for the GIL-free execution tier
        (:mod:`repro.parallel.procpool`): registered tables move their
        columns into shared memory, index tables allocate there too, and
        scans/refinement fan out across a persistent process pool.  ``1``
        disables the tier; ``None`` keeps whatever is active (the
        default, or ``REPRO_PROCS``).  Process-global, like ``parallel``.
    shards:
        Split every index this session builds into ``shards`` contiguous
        row-range shards with independent inner indexes
        (:class:`~repro.core.table_partitioning.ShardedIndex`): queries
        scatter-gather with zone-map shard pruning, refinement budgets
        split across unconverged shards.  ``1`` (default) builds
        unsharded indexes exactly as before.
    """

    def __init__(
        self,
        technique: str = "auto",
        size_threshold: int = 1024,
        delta: float = 0.2,
        tau: Optional[float] = None,
        kernels: Optional[str] = None,
        validate: bool = False,
        parallel: Optional[int] = None,
        background_refine: bool = False,
        procs: Optional[int] = None,
        shards: int = 1,
    ) -> None:
        resolved = "greedy" if technique == "auto" else technique
        if resolved not in TECHNIQUES:
            raise InvalidParameterError(
                f"unknown technique {technique!r}; options: "
                f"{['auto'] + sorted(TECHNIQUES)}"
            )
        self.technique = resolved
        self.size_threshold = size_threshold
        self.delta = delta
        self.tau = tau
        if kernels is not None:
            from . import kernels as kernel_registry

            kernels = kernel_registry.use(kernels)
        self.kernels = kernels
        self.validate = validate
        if parallel is not None:
            from .parallel import config as parallel_config

            parallel = parallel_config.set_workers(parallel)
        self.parallel = parallel
        if procs is not None:
            from .parallel import procpool

            procs = procpool.set_process_workers(procs)
        self.procs = procs
        shards = int(shards)
        if shards < 1:
            raise InvalidParameterError(
                f"shard count must be >= 1, got {shards}"
            )
        self.shards = shards
        self.background_refine = background_refine
        self._refiners: List[object] = []
        self._tables: Dict[str, _RegisteredTable] = {}

    # -- registration ---------------------------------------------------------

    def register(self, name: str, columns: Dict[str, Sequence]) -> None:
        """Register a table under ``name``; string columns are encoded."""
        if name in self._tables:
            raise InvalidTableError(f"table {name!r} already registered")
        encoded = encode_table(columns)
        from .parallel import procpool

        if procpool.get_process_workers() > 1:
            # Process workers scan by shm handle; move the columns into
            # shared memory before any index copies them.
            encoded.table.share()
        self._tables[name] = _RegisteredTable(encoded=encoded)

    @property
    def tables(self) -> List[str]:
        return sorted(self._tables)

    def _lookup(self, name: str) -> _RegisteredTable:
        try:
            return self._tables[name]
        except KeyError:
            raise InvalidTableError(
                f"no table named {name!r}; registered: {self.tables}"
            ) from None

    # -- querying ----------------------------------------------------------------

    def query(self, table_name: str, **bounds) -> SessionResult:
        """Range-query ``table_name``.

        Each keyword is a column name mapped to a ``(low, high)`` pair with
        the usual half-open semantics ``low < x <= high``; string columns
        take string bounds.  The queried column set selects (or creates)
        the incremental index for that group.
        """
        registered = self._lookup(table_name)
        group_key, positions, query = resolve_group_query(
            registered.encoded, table_name, bounds
        )
        index = self._index_for(registered, group_key, positions)
        refiner = getattr(index, "_background", None)
        # Quiesce the background refiner for the duration of the query
        # (and of the validation pass): the lock is the ownership handoff
        # of invariant I9.
        quiesce = refiner.paused() if refiner is not None else nullcontext()
        with quiesce:
            if obs_trace.ENABLED:
                with obs_trace.TRACER.span(
                    "session.query",
                    table=table_name,
                    columns=",".join(group_key),
                    technique=self.technique,
                ):
                    begin = time.perf_counter()
                    result = index.query(query)
                    elapsed = time.perf_counter() - begin
            else:
                begin = time.perf_counter()
                result = index.query(query)
                elapsed = time.perf_counter() - begin
            if self.validate:
                from .invariants import assert_invariants

                assert_invariants(index)
        if refiner is not None:
            refiner.poke()  # think time starts now — keep refining
        if obs_metrics.ENABLED:
            obs_metrics.REGISTRY.counter(
                "session.queries", table=table_name
            ).inc()
        registered.queries_run += 1
        return SessionResult(
            row_ids=result.row_ids,
            seconds=elapsed,
            columns=group_key,
            table_name=table_name,
            _session=self,
        )

    def _index_for(
        self,
        registered: _RegisteredTable,
        group_key: Tuple[str, ...],
        positions: List[int],
    ) -> BaseIndex:
        """The incremental index for one column group, created on first use."""
        index = registered.indexes.get(group_key)
        if index is None:
            projected = registered.encoded.table.project(positions)
            if self.shards > 1:
                from .core.table_partitioning import ShardedIndex

                index = ShardedIndex(
                    projected,
                    lambda table: TECHNIQUES[self.technique](table, self),
                    self.shards,
                )
            else:
                index = TECHNIQUES[self.technique](projected, self)
            registered.indexes[group_key] = index
            if self.background_refine and isinstance(index, ProgressiveKDTree):
                from .parallel.background import BackgroundRefiner

                index._background = BackgroundRefiner(index)
                self._refiners.append(index._background)
        return index

    def run_batch(
        self, table_name: str, bounds_list: Sequence[Dict[str, object]]
    ) -> List[SessionResult]:
        """Answer many queries against ``table_name`` in one call.

        ``bounds_list`` holds one bounds dict per query, each shaped like
        the keyword arguments of :meth:`query` (column name -> ``(low,
        high)``).  Queries are grouped by queried column set and each
        group runs through its index's :meth:`~repro.core.index_base.
        BaseIndex.query_batch` — so a converged KD index answers the
        whole group with one shared descent and one residual scan instead
        of per-query dispatches.  Results come back in submission order;
        within a column group the answers and work counters are exactly
        what the equivalent :meth:`query` loop would have produced.
        """
        registered = self._lookup(table_name)
        resolved = [
            resolve_group_query(registered.encoded, table_name, bounds)
            for bounds in bounds_list
        ]
        by_group: Dict[Tuple[str, ...], List[int]] = {}
        for slot, (group_key, _positions, _query) in enumerate(resolved):
            by_group.setdefault(group_key, []).append(slot)
        results: List[Optional[SessionResult]] = [None] * len(resolved)
        for group_key, slots in by_group.items():
            index = self._index_for(registered, group_key, resolved[slots[0]][1])
            refiner = getattr(index, "_background", None)
            quiesce = refiner.paused() if refiner is not None else nullcontext()
            queries = [resolved[slot][2] for slot in slots]
            with quiesce:
                begin = time.perf_counter()
                answers = index.query_batch(queries)
                elapsed = time.perf_counter() - begin
                if self.validate:
                    from .invariants import assert_invariants

                    assert_invariants(index)
            if refiner is not None:
                refiner.poke()
            if obs_metrics.ENABLED:
                obs_metrics.REGISTRY.counter(
                    "session.queries", table=table_name
                ).inc(len(slots))
            registered.queries_run += len(slots)
            share = elapsed / len(slots)
            for slot, answer in zip(slots, answers):
                results[slot] = SessionResult(
                    row_ids=answer.row_ids,
                    seconds=share,
                    columns=group_key,
                    table_name=table_name,
                    _session=self,
                )
        return results

    def fetch(self, table_name: str, column: str, row_ids: np.ndarray) -> np.ndarray:
        """Decoded values of ``column`` for the given original row ids."""
        registered = self._lookup(table_name)
        names = registered.encoded.table.names
        if column not in names:
            raise InvalidQueryError(
                f"table {table_name!r} has no column {column!r}"
            )
        position = names.index(column)
        values = registered.encoded.table.column(position)[row_ids]
        dictionary = registered.encoded.dictionaries[position]
        if dictionary is None:
            return values
        return dictionary.decode(values)

    # -- introspection ----------------------------------------------------------------

    def check(self, table_name: Optional[str] = None) -> Dict[str, List[str]]:
        """Run the structural invariant suite on every index built so far.

        Returns ``{"table/col,col": [problems...]}`` with an entry per
        column-group index (empty lists mean a clean bill of health).
        Restricted to one table when ``table_name`` is given.  This is the
        session-level entry point to :mod:`repro.invariants`: cheap enough
        to call between exploration bursts, exhaustive enough to catch a
        corrupted index before it silently mis-answers.
        """
        from .invariants import structural_errors

        names = [table_name] if table_name is not None else self.tables
        findings: Dict[str, List[str]] = {}
        for name in names:
            registered = self._lookup(name)
            for group_key, index in registered.indexes.items():
                refiner = getattr(index, "_background", None)
                quiesce = (
                    refiner.paused() if refiner is not None else nullcontext()
                )
                with quiesce:
                    findings[f"{name}/{','.join(group_key)}"] = (
                        structural_errors(index)
                    )
        return findings

    def stats(self, table_name: str) -> Dict[str, object]:
        """What the session has built for ``table_name`` so far."""
        registered = self._lookup(table_name)
        groups = {}
        for group_key, index in registered.indexes.items():
            entry: Dict[str, object] = {
                "technique": type(index).__name__,
                "nodes": index.node_count,
                "converged": index.converged,
            }
            tree = getattr(index, "tree", None)
            if tree is not None:
                entry["summary"] = str(summarize_tree(tree))
            groups[", ".join(group_key)] = entry
        return {
            "rows": registered.encoded.table.n_rows,
            "columns": registered.encoded.table.names,
            "queries_run": registered.queries_run,
            "column_groups": groups,
        }

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Stop any background refiners.  Idempotent; the session remains
        queryable afterwards (maintenance just no longer runs between
        queries)."""
        while self._refiners:
            self._refiners.pop().close()

    def __enter__(self) -> "ExplorationSession":
        return self

    def __exit__(self, exc_type=None, exc=None, tb=None) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        return (
            f"ExplorationSession(technique={self.technique!r}, "
            f"tables={self.tables})"
        )
