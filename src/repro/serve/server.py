"""The multi-session index server.

:class:`IndexServer` is the long-lived process the ROADMAP's "serve
heavy traffic" north star asks for: it multiplexes many concurrent
tenant sessions over shared registered tables.  Three layers:

* **request layer** — an asyncio TCP server speaking the
  newline-delimited JSON protocol of :mod:`.protocol`.  Control ops
  (hello/open/close/stats) run on the event loop; batch, invariant and
  registration ops, and every query that could block or build, are
  dispatched to a bounded thread pool so one slow scan never stalls the
  accept loop.  A query on a converged index whose lock is free at
  dispatch runs on the loop itself: it is a lookup plus a scan, cheaper
  than the hop to a pool thread.  Every query and batch passes
  :class:`~repro.serve.admission.AdmissionControl` first.
* **session layer** — a registry of :class:`TenantSession`\\ s.  Tables
  are registered once (columns or a deterministic
  :class:`~repro.serve.protocol.TableSpec`) and shared by reference;
  each session builds its own per-column-group incremental indexes over
  projections of the shared columns, exactly like
  :class:`~repro.session.ExplorationSession` does, each guarded by a
  per-index :class:`~repro.serve.locks.PieceSnapshotLock`.
* **maintenance layer** — one
  :class:`~repro.serve.scheduler.RefinementScheduler` owning all
  think-time refinement, allocating slices across tenants by
  model-priced fair share.

A telemetry plane rides on all three: each traced request becomes one
``serve.query`` span tree (queue wait -> admission -> lock wait -> scan,
plus the refinement slice the request funded), a Prometheus-format
exporter (:meth:`IndexServer.start_metrics_exporter` or the ``metrics``
op) publishes per-tenant latency histograms, scheduler-ledger counters
and per-index convergence gauges, and an :class:`~repro.obs.slo.
SLOEngine` holds every tenant to the cost model's interactivity budget
with a watchdog flagging starvation, stalls, and runaway lock waits.

Queries come in two modes.  ``adaptive`` (the default) is the paper's
query: it may refine the index and therefore takes the index's writer
lock.  ``snapshot`` is the serving-path read: it scans the current piece
set under the shared reader lock — concurrent with other readers, never
blocked by another tenant's refinement, and falling back to a read-only
full scan whenever the index has no safely scannable piece set (e.g.
PKD mid-creation).
"""

from __future__ import annotations

import asyncio
import ipaddress
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from .. import kernels
from ..core import BaseIndex, RangeQuery, ShardedIndex
from ..core.cost_model import CostModel, MachineProfile
from ..core.dictionary import EncodedTable, encode_table
from ..core.metrics import QueryStats
from ..core.progressive_kdtree import CREATION, ProgressiveKDTree
from ..core.scan import full_scan
from ..errors import (
    BatchTooLargeError,
    InvalidParameterError,
    InvalidQueryError,
    InvalidTableError,
    ReproError,
)
from ..invariants import structural_errors
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..obs.export import MetricsExporter, render_exposition
from ..obs.slo import SLOConfig, SLOEngine, Watchdog
from ..parallel import procpool, shm as parallel_shm
from ..session import TECHNIQUES, resolve_group_query
from .admission import AdmissionCaps, AdmissionControl, AdmissionError
from .locks import PieceSnapshotLock
from .protocol import (
    MAX_BATCH_QUERIES,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    TableSpec,
    answer_checksum,
    decode_frame,
    encode_frame,
    error_response,
    ok_response,
    sorted_answer,
)
from .scheduler import RefinementScheduler

__all__ = ["IndexServer", "ServerThread", "snapshot_scan", "TenantSession"]

# How long shutdown lets in-flight requests finish writing their
# responses before it aborts their connections.
DRAIN_GRACE_SECONDS = 30.0


def _index_key(session_id: str, table: str, group: Tuple[str, ...]) -> str:
    """Canonical per-session index key (scheduler registration, lock
    name, metric label).  Columns join with ``+`` — a comma would break
    the metrics registry's ``name{k=v,...}`` key rendering round-trip.
    """
    return f"{session_id}/{table}/{'+'.join(group)}"


def _checksum_and_ids(
    row_ids: np.ndarray, return_ids: bool
) -> Tuple[str, Optional[List[int]]]:
    """An answer's checksum, plus its sorted id list when the client
    asked for the ids — one sort either way."""
    if not return_ids:
        return answer_checksum(row_ids), None
    ordered, checksum = sorted_answer(row_ids)
    return checksum, ordered.tolist()


def _thread_kernels() -> kernels.pinned:
    """Pin kernel dispatch to a thread-private backend instance.

    The fused backend reuses scratch buffers between calls, so the
    process-global instance must never scan concurrently on two threads.
    Every executor thread (and the scheduler thread) therefore wraps its
    index work in this pin — the same discipline the morsel executor's
    pool workers follow.
    """
    return kernels.pinned(kernels.thread_instance(kernels.active_name()))


def snapshot_scan(
    index: BaseIndex,
    base_columns: List[np.ndarray],
    query: RangeQuery,
    stats: QueryStats,
) -> np.ndarray:
    """Read-only scan of ``index``'s current piece snapshot.

    Must be called under the index's reader lock: the tree search
    (:meth:`KDTree.search`) and the piece scans are pure reads, so any
    number of them can run concurrently, but the piece set and piece
    contents must not move underneath them.

    Falls back to a full scan of the immutable base columns whenever the
    index has no tree yet, or is a Progressive KD-Tree still in its
    creation phase (where part of the data lives only in half-filled
    index-table write regions and the only consistent read is the base
    table).  The fallback touches no index state at all, so it needs no
    lock.
    """
    state = index.debug_state()
    usable = (
        state.tree is not None
        and state.index_table is not None
        and not (
            isinstance(index, ProgressiveKDTree) and index.phase == CREATION
        )
    )
    if not usable:
        return full_scan(base_columns, query, stats)
    matches = state.tree.search(query, stats)
    chunks = state.index_table.scan_pieces(matches, query, stats)
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(chunks)


@dataclass
class _SharedTable:
    """One registered table: encoded columns plus its optional spec."""

    encoded: EncodedTable
    spec: Optional[TableSpec] = None
    queries_run: int = 0


@dataclass
class _SessionIndex:
    """One per-session column-group index and its snapshot lock."""

    index: BaseIndex
    lock: PieceSnapshotLock = field(default_factory=PieceSnapshotLock)
    # (registry generation, {mode/gauge key -> instrument}): cached by
    # execute_query so the per-request metered cost is dict gets, not
    # registry-key renders under the registry lock.
    metric_handles: Optional[tuple] = None


@dataclass
class _QueryPlan:
    """One ``query`` request resolved once, at dispatch.

    ``entry`` is None until the request's index exists (the executor
    creates it); ``held`` is set while the dispatcher holds ``entry``'s
    lock for ``mode`` on the request's behalf.
    """

    session: "TenantSession"
    shared: _SharedTable
    table_name: str
    group_key: Tuple[str, ...]
    positions: List[int]
    query: RangeQuery
    mode: str
    entry: Optional[_SessionIndex] = None
    held: bool = False


@dataclass
class _Settings:
    """The technique-parameter shim the ``TECHNIQUES`` factories expect."""

    size_threshold: int
    delta: float
    tau: Optional[float]


class TenantSession:
    """One tenant's exploration state inside the server."""

    def __init__(
        self,
        session_id: str,
        tenant: str,
        technique: str,
        settings: _Settings,
    ) -> None:
        self.session_id = session_id
        self.tenant = tenant
        self.technique = technique
        self.settings = settings
        self.indexes: Dict[Tuple[str, Tuple[str, ...]], _SessionIndex] = {}
        self.queries_run = 0
        self.opened_at = time.time()


class IndexServer:
    """The blocking core of the server plus its asyncio request layer.

    All state-changing methods are thread-safe: the asyncio layer calls
    them from executor threads, and tests may drive them directly
    without any sockets.
    """

    def __init__(
        self,
        technique: str = "greedy",
        size_threshold: int = 1024,
        delta: float = 0.2,
        tau: Optional[float] = None,
        caps: AdmissionCaps = AdmissionCaps(),
        executor_workers: int = 8,
        scheduler: Optional[RefinementScheduler] = None,
        slo_config: Optional[SLOConfig] = None,
        shards: int = 1,
    ) -> None:
        resolved = "greedy" if technique == "auto" else technique
        if resolved not in TECHNIQUES:
            raise InvalidParameterError(
                f"unknown technique {technique!r}; options: "
                f"{['auto'] + sorted(TECHNIQUES)}"
            )
        if int(shards) < 1:
            raise InvalidParameterError(
                f"shards must be a positive integer, got {shards!r}"
            )
        self.technique = resolved
        # Session indexes are built over this many range shards; the
        # scheduler then hands out per-shard refinement slices, and zone
        # maps prune whole shards before any piece scan runs.
        self.shards = int(shards)
        self.settings = _Settings(
            size_threshold=size_threshold, delta=delta, tau=tau
        )
        self.admission = AdmissionControl(caps)
        self.scheduler = scheduler or RefinementScheduler()
        self._executor_workers = int(executor_workers)
        self._lock = threading.RLock()
        self._tables: Dict[str, _SharedTable] = {}
        self._sessions: Dict[str, TenantSession] = {}
        self._session_counter = 0
        self._queries_total = 0
        self._started_at = time.time()
        self._executor = None  # created by the asyncio layer on demand
        self._metrics_exporter: Optional[MetricsExporter] = None
        # SLO plane: per-tenant objectives (cost-model interactivity
        # budgets, installed as indexes are created) plus the watchdog
        # probing scheduler/lock health once a second.
        self.slo = SLOEngine(slo_config)
        self._watchdog = Watchdog(self.slo, self._watchdog_probe)
        self._watchdog.start()

    # ------------------------------------------------------------- tables

    def register_table(
        self,
        name: str,
        columns: Optional[Dict[str, object]] = None,
        spec: Optional[TableSpec] = None,
    ) -> Dict[str, object]:
        """Register a shared table from raw columns or a deterministic spec.

        Re-registering the *same* spec under the same name is idempotent
        (every soak client races to register the shared table; the first
        one wins and the rest confirm), while conflicting definitions
        are rejected.
        """
        if (columns is None) == (spec is None):
            raise InvalidParameterError(
                "register_table needs exactly one of columns= or spec="
            )
        with self._lock:
            existing = self._tables.get(name)
            if existing is not None:
                if spec is not None and existing.spec == spec:
                    table = existing.encoded.table
                    return {
                        "table": name,
                        "rows": table.n_rows,
                        "columns": list(table.names),
                        "existing": True,
                    }
                raise InvalidTableError(
                    f"table {name!r} already registered with a different "
                    "definition"
                )
            if spec is not None:
                encoded = encode_table(spec.build_columns())
            else:
                encoded = encode_table(columns)
            if procpool.get_process_workers() > 1:
                # Same arming the session layer does at register():
                # columns move to shared memory so every index built on
                # this table can fan its scans out over the process pool.
                encoded.table.share()
            self._tables[name] = _SharedTable(encoded=encoded, spec=spec)
            table = encoded.table
            return {
                "table": name,
                "rows": table.n_rows,
                "columns": list(table.names),
                "existing": False,
            }

    def _table(self, name: str) -> _SharedTable:
        with self._lock:
            try:
                return self._tables[name]
            except KeyError:
                raise InvalidTableError(
                    f"no table named {name!r}; registered: "
                    f"{sorted(self._tables)}"
                ) from None

    # ------------------------------------------------------------ sessions

    def open_session(
        self,
        tenant: str,
        technique: Optional[str] = None,
        size_threshold: Optional[int] = None,
        delta: Optional[float] = None,
        tau: Optional[float] = None,
    ) -> str:
        """Open a session for ``tenant``; returns the session id."""
        if not tenant or not isinstance(tenant, str):
            raise InvalidParameterError(
                f"tenant must be a non-empty string, got {tenant!r}"
            )
        resolved = self.technique if technique is None else (
            "greedy" if technique == "auto" else technique
        )
        if resolved not in TECHNIQUES:
            raise InvalidParameterError(
                f"unknown technique {technique!r}; options: "
                f"{['auto'] + sorted(TECHNIQUES)}"
            )
        self.admission.admit_session(tenant)
        settings = _Settings(
            size_threshold=(
                self.settings.size_threshold
                if size_threshold is None
                else int(size_threshold)
            ),
            delta=self.settings.delta if delta is None else float(delta),
            tau=self.settings.tau if tau is None else float(tau),
        )
        with self._lock:
            self._session_counter += 1
            session_id = f"s{self._session_counter}"
            self._sessions[session_id] = TenantSession(
                session_id, tenant, resolved, settings
            )
        if obs_metrics.ENABLED:
            obs_metrics.REGISTRY.counter(
                "serve.sessions_opened", tenant=tenant
            ).inc()
        return session_id

    def close_session(self, session_id: str) -> None:
        with self._lock:
            session = self._sessions.pop(session_id, None)
        if session is None:
            raise InvalidParameterError(f"no session {session_id!r}")
        self.scheduler.unregister_tenant(
            session.tenant,
            keys={
                _index_key(session.session_id, table, group)
                for table, group in session.indexes
            },
        )
        self.admission.release_session(session.tenant)

    def _session(self, session_id: str) -> TenantSession:
        with self._lock:
            try:
                return self._sessions[session_id]
            except KeyError:
                raise InvalidParameterError(
                    f"no session {session_id!r} (closed or never opened)"
                ) from None

    # ------------------------------------------------------------- queries

    def _session_index(
        self,
        session: TenantSession,
        table_name: str,
        group_key: Tuple[str, ...],
        positions: List[int],
        shared: _SharedTable,
    ) -> _SessionIndex:
        key = (table_name, group_key)
        with self._lock:
            entry = session.indexes.get(key)
            if entry is None:
                projected = shared.encoded.table.project(positions)
                if self.shards > 1:
                    index = ShardedIndex(
                        projected,
                        lambda table: TECHNIQUES[session.technique](
                            table, session.settings
                        ),
                        self.shards,
                    )
                else:
                    index = TECHNIQUES[session.technique](
                        projected, session.settings
                    )
                index_key = _index_key(
                    session.session_id, table_name, group_key
                )
                entry = _SessionIndex(
                    index=index, lock=PieceSnapshotLock(name=index_key)
                )
                session.indexes[key] = entry
                self.scheduler.register(
                    session.tenant, index_key, index, entry.lock
                )
                # The tenant's latency objective is the cost model's
                # interactivity budget for this index — the per-query
                # time the greedy controller promises to hold.
                model = getattr(index, "cost_model", None) or CostModel(
                    MachineProfile.deterministic(),
                    projected.n_rows,
                    len(positions),
                )
                self.slo.set_objective(
                    session.tenant,
                    model.interactivity_budget_seconds(
                        delta=session.settings.delta,
                        tau=session.settings.tau,
                    ),
                )
            return entry

    def _plan_query(
        self,
        session_id: str,
        table_name: str,
        bounds: Dict[str, object],
        mode: str,
    ) -> _QueryPlan:
        """Resolve one query request without touching any index state:
        the plan's ``entry`` stays None until the index exists."""
        if mode not in ("adaptive", "snapshot"):
            raise InvalidQueryError(
                f"unknown query mode {mode!r}; options: adaptive, snapshot"
            )
        session = self._session(session_id)
        shared = self._table(table_name)
        parsed_bounds = {
            column: tuple(bound) if isinstance(bound, list) else bound
            for column, bound in bounds.items()
        }
        group_key, positions, query = resolve_group_query(
            shared.encoded, table_name, parsed_bounds
        )
        with self._lock:
            entry = session.indexes.get((table_name, group_key))
        return _QueryPlan(
            session, shared, table_name, group_key, positions, query, mode,
            entry,
        )

    def execute_query(
        self,
        session_id: str,
        table_name: str,
        bounds: Dict[str, object],
        mode: str = "adaptive",
        return_ids: bool = False,
        trace: Optional[str] = None,
        enqueued: Optional[float] = None,
        plan: Optional[_QueryPlan] = None,
    ) -> Dict[str, object]:
        """Run one query for a session.  Blocking: called on an executor
        thread, or on the event loop for a converged query whose lock
        the dispatcher already holds.

        ``trace`` is a client-chosen request id; when tracing is on it
        rides on the ``serve.query`` root span so a client request
        resolves to exactly one server-side span tree.  ``enqueued`` is
        the trace-time stamp (:meth:`Tracer.now`) taken on the event
        loop at dispatch — the root's ``serve.queue`` child records the
        wait from it.  ``plan`` is the request as the dispatcher already
        resolved it (``session_id``, ``table_name``, ``bounds`` and
        ``mode`` are then not parsed again); when ``plan.held`` is set
        the dispatcher holds the index lock for ``mode`` and this call
        releases it.
        """
        if plan is None:
            plan = self._plan_query(session_id, table_name, bounds, mode)
        session, shared, table_name, group_key, query, mode = (
            plan.session, plan.shared, plan.table_name, plan.group_key,
            plan.query, plan.mode,
        )
        entry = plan.entry or self._session_index(
            session, table_name, group_key, plan.positions, shared
        )
        if mode == "adaptive":
            acquire, release = entry.lock.acquire_write, entry.lock.release_write
            side = "write"
        else:
            acquire, release = entry.lock.acquire_read, entry.lock.release_read
            side = "read"
        held = plan.held
        index_key = _index_key(session.session_id, table_name, group_key)
        tracer = obs_trace.TRACER if obs_trace.ENABLED else None
        root = None
        root_id: Optional[int] = None
        begin = time.perf_counter()
        try:
            if tracer is not None:
                attrs: Dict[str, object] = {
                    "tenant": session.tenant,
                    "session": session.session_id,
                    "table": table_name,
                    "columns": ",".join(group_key),
                    "mode": mode,
                }
                if trace is not None:
                    attrs["trace"] = trace
                root = tracer.span("serve.query", **attrs)
                root.__enter__()
                root_id = root.span_id
                if enqueued is not None:
                    now = tracer.now()
                    tracer.record_span(
                        "serve.queue",
                        enqueued,
                        max(0.0, now - enqueued),
                        parent=root_id,
                    )
            admit_at = tracer.now() if tracer is not None else 0.0
            with self.admission.inflight(session.tenant):
                if tracer is not None:
                    tracer.record_span(
                        "serve.admission",
                        admit_at,
                        tracer.now() - admit_at,
                        parent=root_id,
                        tenant=session.tenant,
                    )
                scan_cm = (
                    tracer.span("serve.scan", mode=mode)
                    if tracer is not None
                    else nullcontext()
                )
                if mode == "snapshot":
                    stats = QueryStats()
                    base_columns = [
                        shared.encoded.table.column(position)
                        for position in plan.positions
                    ]
                lock_at = tracer.now() if tracer is not None else 0.0
                if not held:
                    acquire()
                held = False
                try:
                    if tracer is not None:
                        tracer.record_span(
                            "serve.lock",
                            lock_at,
                            tracer.now() - lock_at,
                            parent=root_id,
                            side=side,
                        )
                    with scan_cm, _thread_kernels():
                        if mode == "adaptive":
                            row_ids = entry.index.query(query).row_ids
                        else:
                            row_ids = snapshot_scan(
                                entry.index, base_columns, query, stats
                            )
                finally:
                    release()
        finally:
            if held:
                # Taken at dispatch, but admission refused the request.
                release()
            if root is not None:
                root.__exit__(None, None, None)
        elapsed = time.perf_counter() - begin
        self.slo.observe(session.tenant, elapsed)
        self.scheduler.poke(funding=root_id)
        with self._lock:
            session.queries_run += 1
            shared.queries_run += 1
            self._queries_total += 1
        if obs_metrics.ENABLED:
            registry = obs_metrics.REGISTRY
            handles = entry.metric_handles
            if handles is None or handles[0] != registry.generation:
                tenant = session.tenant
                handles = (
                    registry.generation,
                    {
                        "queries_adaptive": registry.counter(
                            "serve.queries", tenant=tenant, mode="adaptive"
                        ),
                        "queries_snapshot": registry.counter(
                            "serve.queries", tenant=tenant, mode="snapshot"
                        ),
                        "seconds_adaptive": registry.histogram(
                            "serve.query_seconds", tenant=tenant,
                            mode="adaptive"
                        ),
                        "seconds_snapshot": registry.histogram(
                            "serve.query_seconds", tenant=tenant,
                            mode="snapshot"
                        ),
                        "rows_to_converge": registry.gauge(
                            "serve.rows_to_converge", tenant=tenant,
                            index=index_key
                        ),
                        "open_pieces": registry.gauge(
                            "serve.open_pieces", tenant=tenant,
                            index=index_key
                        ),
                        "converged": registry.gauge(
                            "serve.index_converged", tenant=tenant,
                            index=index_key
                        ),
                    },
                )
                entry.metric_handles = handles
            instruments = handles[1]
            instruments[f"queries_{mode}"].inc()
            instruments[f"seconds_{mode}"].observe(elapsed)
            remaining = getattr(
                entry.index, "convergence_rows_estimate", None
            )
            if remaining is not None:
                instruments["rows_to_converge"].set(remaining)
            open_pieces = getattr(entry.index, "open_piece_count", None)
            if open_pieces is not None:
                instruments["open_pieces"].set(open_pieces)
            instruments["converged"].set(int(bool(entry.index.converged)))
        checksum, id_list = _checksum_and_ids(row_ids, return_ids)
        response: Dict[str, object] = {
            "count": int(row_ids.size),
            "checksum": checksum,
            "seconds": elapsed,
            "mode": mode,
            "columns": list(group_key),
        }
        if return_ids:
            response["row_ids"] = id_list
        return response

    def execute_batch(
        self,
        session_id: str,
        table_name: str,
        bounds_list: List[Dict[str, object]],
        return_ids: bool = False,
    ) -> Dict[str, object]:
        """Run many queries for a session in one blocking dispatch.

        Queries group by queried column set; each group holds its
        index's writer lock once and runs :meth:`~repro.core.index_base.
        BaseIndex.query_batch` — so a converged KD index answers the
        whole group with one shared (arena-vectorized) descent and one
        batch residual scan instead of per-request lock/dispatch round
        trips.  Batches always run in adaptive mode: while the index
        still adapts the batch drains sequentially inside
        ``query_batch``, with adaptation order identical to separate
        ``query`` requests.  More than :data:`~.protocol.
        MAX_BATCH_QUERIES` queries raise :class:`~repro.errors.
        BatchTooLargeError` before any lock is taken.
        """
        if not bounds_list:
            raise InvalidQueryError("a batch needs at least one query")
        if len(bounds_list) > MAX_BATCH_QUERIES:
            raise BatchTooLargeError(
                f"a batch holds at most {MAX_BATCH_QUERIES} queries, got "
                f"{len(bounds_list)}; split it"
            )
        session = self._session(session_id)
        shared = self._table(table_name)
        resolved = []
        for bounds in bounds_list:
            parsed = {
                column: tuple(bound) if isinstance(bound, list) else bound
                for column, bound in bounds.items()
            }
            resolved.append(
                resolve_group_query(shared.encoded, table_name, parsed)
            )
        by_group: Dict[Tuple[str, ...], List[int]] = {}
        for slot, (group_key, _positions, _query) in enumerate(resolved):
            by_group.setdefault(group_key, []).append(slot)
        payloads: List[Optional[Dict[str, object]]] = [None] * len(resolved)
        begin = time.perf_counter()
        with self.admission.inflight(session.tenant):
            for group_key, slots in by_group.items():
                entry = self._session_index(
                    session, table_name, group_key,
                    resolved[slots[0]][1], shared,
                )
                queries = [resolved[slot][2] for slot in slots]
                entry.lock.acquire_write()
                try:
                    with _thread_kernels():
                        answers = entry.index.query_batch(queries)
                finally:
                    entry.lock.release_write()
                for slot, answer in zip(slots, answers):
                    checksum, id_list = _checksum_and_ids(
                        answer.row_ids, return_ids
                    )
                    payload: Dict[str, object] = {
                        "count": answer.count,
                        "checksum": checksum,
                        "seconds": answer.stats.seconds,
                        "converged": bool(answer.stats.converged),
                        "columns": list(group_key),
                    }
                    if return_ids:
                        payload["row_ids"] = id_list
                    payloads[slot] = payload
        elapsed = time.perf_counter() - begin
        share = elapsed / len(resolved)
        for _ in resolved:
            # Per-query amortised latency: the honest signal for the
            # tenant's per-query interactivity objective.
            self.slo.observe(session.tenant, share)
        self.scheduler.poke()
        with self._lock:
            session.queries_run += len(resolved)
            shared.queries_run += len(resolved)
            self._queries_total += len(resolved)
        if obs_metrics.ENABLED:
            registry = obs_metrics.REGISTRY
            tenant = session.tenant
            registry.counter("serve.batches", tenant=tenant).inc()
            registry.counter(
                "serve.queries", tenant=tenant, mode="batch"
            ).inc(len(resolved))
            registry.histogram(
                "serve.batch_seconds", tenant=tenant
            ).observe(elapsed)
        return {
            "results": payloads,
            "batch": len(resolved),
            "seconds": elapsed,
        }

    # ----------------------------------------------------------- integrity

    def check(self, table_name: Optional[str] = None) -> Dict[str, List[str]]:
        """Run the I1-I9 invariant sweep over every session index.

        Each index is checked at rest: under its writer lock (excluding
        readers and its own refinement) with the scheduler's global
        pause held, so a mid-slice scheduler can never be misread as an
        ownership breach.
        """
        with self._lock:
            sessions = list(self._sessions.values())
        findings: Dict[str, List[str]] = {}
        with self.scheduler.paused():
            for session in sessions:
                for (table, group_key), entry in list(session.indexes.items()):
                    if table_name is not None and table != table_name:
                        continue
                    label = (
                        f"{session.tenant}/{session.session_id}/{table}/"
                        f"{','.join(group_key)}"
                    )
                    with entry.lock.write(), _thread_kernels():
                        findings[label] = structural_errors(entry.index)
        return findings

    # ----------------------------------------------------------- telemetry

    def _watchdog_probe(self) -> Dict[str, object]:
        """Serve-plane health snapshot for the SLO watchdog (see
        :class:`~repro.obs.slo.Watchdog` for the contract)."""
        with self._lock:
            locks = [
                entry.lock
                for session in self._sessions.values()
                for entry in session.indexes.values()
            ]
        max_wait = 0.0
        for lock in locks:
            max_wait = max(max_wait, lock.drain_max_wait())
        allocations = self.scheduler.allocations()
        unconverged = sum(
            int(bucket["indexes"]) - int(bucket["converged"])
            for bucket in allocations.values()
        )
        # Process-tier health rides on the same probe: pool liveness /
        # task-queue depth for the worker_stalled detector, shm residency
        # (plus whether residency is currently legitimate) for shm_leak.
        proc_health = procpool.publish_health()
        shm_snapshot = parallel_shm.telemetry_snapshot()
        # Residency is legitimate while the proc tier is armed (any owner
        # in this process may be staging columns) or a registered table
        # is still shm-backed from an earlier arming.
        shm_expected = (
            procpool.get_process_workers() > 1 or procpool.in_proc_worker()
        )
        if not shm_expected and shm_snapshot["segments"]:
            with self._lock:
                tables = [
                    shared.encoded.table for shared in self._tables.values()
                ]
            for table in tables:
                if parallel_shm.handles_of(table.columns()) is not None:
                    shm_expected = True
                    break
        return {
            "slices_run": self.scheduler.slices_run,
            "unconverged": unconverged,
            "allocations": {
                tenant: float(bucket["model_seconds"])
                for tenant, bucket in allocations.items()
            },
            "max_lock_wait": max_wait,
            "proc": proc_health,
            "shm_resident_bytes": shm_snapshot["resident_bytes"],
            "shm_expected": shm_expected,
        }

    def metrics_exposition(self) -> str:
        """Prometheus text exposition: the metrics registry plus the SLO
        plane (which is server-owned and always present)."""
        return render_exposition() + self.slo.exposition()

    def start_metrics_exporter(
        self, port: int = 0, host: str = "127.0.0.1"
    ) -> MetricsExporter:
        """Start the ``/metrics`` HTTP endpoint (and turn metric feeding
        on — an exporter without instruments would scrape empty)."""
        if self._metrics_exporter is None:
            obs_metrics.enable()
            self._metrics_exporter = MetricsExporter(
                port=port, host=host, extra=self.slo.exposition
            )
        return self._metrics_exporter

    # --------------------------------------------------------------- stats

    def stats(self) -> Dict[str, object]:
        with self._lock:
            tables = {
                name: {
                    "rows": shared.encoded.table.n_rows,
                    "columns": list(shared.encoded.table.names),
                    "queries_run": shared.queries_run,
                    "spec": (
                        shared.spec.to_payload() if shared.spec else None
                    ),
                }
                for name, shared in self._tables.items()
            }
            sessions = {
                session_id: {
                    "tenant": session.tenant,
                    "technique": session.technique,
                    "queries_run": session.queries_run,
                    "indexes": {
                        f"{table}/{','.join(group)}": {
                            "technique": type(entry.index).__name__,
                            "nodes": entry.index.node_count,
                            "converged": entry.index.converged,
                        }
                        for (table, group), entry in session.indexes.items()
                    },
                }
                for session_id, session in self._sessions.items()
            }
            queries_total = self._queries_total
        return {
            "protocol": PROTOCOL_VERSION,
            "technique": self.technique,
            "uptime_seconds": time.time() - self._started_at,
            "queries_total": queries_total,
            "tables": tables,
            "sessions": sessions,
            "admission": self.admission.snapshot(),
            "scheduler": {
                "slices_run": self.scheduler.slices_run,
                "allocations": self.scheduler.allocations(),
            },
            "slo": {
                "tenants": self.slo.snapshot(),
                "events": self.slo.event_counts(),
            },
        }

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Stop maintenance and drop all sessions.  Idempotent."""
        self._watchdog.stop()
        with self._lock:
            session_ids = list(self._sessions)
        for session_id in session_ids:
            try:
                self.close_session(session_id)
            except InvalidParameterError:
                pass
        self.scheduler.close()
        exporter, self._metrics_exporter = self._metrics_exporter, None
        if exporter is not None:
            exporter.close()

    # ------------------------------------------------------- request layer

    def _dispatch_blocking(self, request: Dict[str, object]) -> Dict[str, object]:
        """Ops that do real work — run on an executor thread."""
        op = request.get("op")
        if op == "batch":
            queries = request.get("queries") or []
            payload = self.execute_batch(
                session_id=str(request.get("session", "")),
                table_name=str(request.get("table", "")),
                bounds_list=[dict(bounds) for bounds in queries],
                return_ids=bool(request.get("return_ids", False)),
            )
            return ok_response(request, **payload)
        if op == "check":
            table = request.get("table")
            findings = self.check(None if table is None else str(table))
            problems = sum(len(v) for v in findings.values())
            return ok_response(
                request, findings=findings, problems=problems
            )
        if op == "register":
            spec_payload = request.get("spec")
            spec = (
                TableSpec.from_payload(dict(spec_payload, name=request["name"]))
                if spec_payload is not None
                else None
            )
            columns = request.get("columns")
            payload = self.register_table(
                str(request["name"]),
                columns=None if columns is None else dict(columns),
                spec=spec,
            )
            return ok_response(request, **payload)
        raise InvalidParameterError(f"unknown op {op!r}")

    def _dispatch_control(
        self, request: Dict[str, object]
    ) -> Optional[Dict[str, object]]:
        """Cheap control ops — handled inline on the event loop."""
        op = request.get("op")
        if op == "hello":
            with self._lock:
                tables = sorted(self._tables)
            return ok_response(
                request,
                protocol=PROTOCOL_VERSION,
                technique=self.technique,
                tables=tables,
            )
        if op == "open_session":
            session_id = self.open_session(
                tenant=str(request.get("tenant", "")),
                technique=request.get("technique"),
                size_threshold=request.get("size_threshold"),
                delta=request.get("delta"),
                tau=request.get("tau"),
            )
            return ok_response(request, session=session_id)
        if op == "close_session":
            self.close_session(str(request.get("session", "")))
            return ok_response(request, closed=True)
        if op == "stats":
            return ok_response(request, **self.stats())
        if op == "metrics":
            return ok_response(
                request,
                content_type="text/plain; version=0.0.4",
                exposition=self.metrics_exposition(),
            )
        if op == "slo":
            return ok_response(
                request,
                tenants=self.slo.snapshot(),
                events=self.slo.events(),
                counts=self.slo.event_counts(),
            )
        return None

    def _answer_query(
        self,
        request: Dict[str, object],
        plan: _QueryPlan,
        enqueued: Optional[float],
    ) -> Dict[str, object]:
        trace = request.get("trace")
        payload = self.execute_query(
            session_id=plan.session.session_id,
            table_name=plan.table_name,
            bounds=request.get("bounds") or {},
            mode=plan.mode,
            return_ids=bool(request.get("return_ids", False)),
            trace=None if trace is None else str(trace),
            enqueued=enqueued,
            plan=plan,
        )
        return ok_response(request, **payload)

    @staticmethod
    def _hold_if_converged(plan: _QueryPlan) -> bool:
        """Take ``plan``'s index lock for its mode without waiting, when
        the index is converged; False (and nothing taken) otherwise.

        A converged KD index (``_supports_batch``) answers every query
        with a lookup plus a scan, no query mutates it, so the query is
        cheaper than the executor hop that would carry it.  Whether the
        index exists, is converged, or the lock is free only decides
        which thread runs :meth:`execute_query`, never what it answers.
        """
        entry = plan.entry
        if entry is None or not entry.index._supports_batch():
            return False
        if plan.mode == "adaptive":
            plan.held = entry.lock.acquire_write(timeout=0)
        else:
            plan.held = entry.lock.acquire_read(blocking=False)
        return plan.held

    async def _handle_request(
        self, request: Dict[str, object], loop: asyncio.AbstractEventLoop
    ) -> Dict[str, object]:
        try:
            control = self._dispatch_control(request)
            if control is not None:
                return control
            if request.get("op") != "query":
                return await loop.run_in_executor(
                    self._executor, self._dispatch_blocking, request
                )
            # Stamp the dispatch time on the loop; execute_query turns
            # it into the request's queue-wait span.
            enqueued = obs_trace.TRACER.now() if obs_trace.ENABLED else None
            plan = self._plan_query(
                str(request.get("session", "")),
                str(request.get("table", "")),
                request.get("bounds") or {},
                str(request.get("mode", "adaptive")),
            )
            if self._hold_if_converged(plan):
                return self._answer_query(request, plan, enqueued)
            return await loop.run_in_executor(
                self._executor, self._answer_query, request, plan, enqueued
            )
        except AdmissionError as error:
            return error_response(
                request, error.reason, error.detail, retry=True
            )
        except ReproError as error:
            return error_response(request, type(error).__name__, str(error))
        except Exception as error:  # noqa: BLE001 - a server must not die
            return error_response(
                request, "internal", f"{type(error).__name__}: {error}"
            )

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        loop = asyncio.get_running_loop()
        task = asyncio.current_task()
        self._connections[task] = (reader, writer)
        try:
            while not self._shutdown_event.is_set():
                # Idle while parked on the next frame: shutdown ends the
                # input of idle handlers and lets busy ones answer first.
                self._idle_connections.add(task)
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as error:
                    line = error.partial  # EOF: a final unterminated frame
                except asyncio.LimitOverrunError:
                    if not await _discard_frame(reader):
                        break
                    line = None
                except ConnectionError:
                    break
                finally:
                    self._idle_connections.discard(task)
                if line is None:
                    response = error_response(
                        {}, "frame_too_large",
                        f"request frames are limited to {MAX_FRAME_BYTES} "
                        f"bytes; the frame was dropped",
                    )
                elif not line:
                    break
                elif not line.strip():
                    continue
                else:
                    try:
                        request = decode_frame(line)
                    except ValueError as error:
                        response = error_response(
                            {}, "protocol", f"malformed frame: {error}"
                        )
                    else:
                        if request.get("op") != "shutdown":
                            response = await self._handle_request(
                                request, loop
                            )
                        elif is_loopback_peer(
                            writer.get_extra_info("peername")
                        ):
                            writer.write(encode_frame(ok_response(request)))
                            await writer.drain()
                            self._shutdown_event.set()
                            break
                        else:
                            response = error_response(
                                request, "forbidden",
                                "shutdown is only accepted from a "
                                "loopback address",
                            )
                writer.write(encode_frame(response))
                try:
                    await writer.drain()
                except ConnectionError:
                    break
        finally:
            del self._connections[task]
            try:
                writer.close()
            except Exception:  # noqa: BLE001 - already torn down
                pass

    async def _drain_connections(self) -> None:
        """End every live connection once the listener is closed.

        Handlers parked on their next frame see end of input.  A handler
        mid-request writes its response, sees the shutdown flag and
        returns.  Connections still open after
        :data:`DRAIN_GRACE_SECONDS` (a client that stopped reading) are
        aborted.  No handler is cancelled: on Python 3.11 the stream
        protocol logs a cancelled handler as an error.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + DRAIN_GRACE_SECONDS
        while self._connections:
            for task in list(self._idle_connections):
                reader, writer = self._connections[task]
                writer.transport.pause_reading()
                reader.feed_eof()
            remaining: Optional[float] = deadline - loop.time()
            if remaining <= 0:
                for _reader, writer in self._connections.values():
                    writer.transport.abort()
                remaining = None
            await asyncio.wait(set(self._connections), timeout=remaining)

    async def serve(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        """Run the asyncio request layer until a ``shutdown`` op arrives.

        Shutdown stops accepting, answers the requests already in
        flight, closes every connection, and only then stops the
        executor and the server's maintenance threads.
        """
        from concurrent.futures import ThreadPoolExecutor

        self._executor = ThreadPoolExecutor(
            max_workers=self._executor_workers,
            thread_name_prefix="repro-serve",
        )
        self._shutdown_event = asyncio.Event()
        self._connections: Dict[
            asyncio.Task,
            Tuple[asyncio.StreamReader, asyncio.StreamWriter],
        ] = {}
        self._idle_connections: Set[asyncio.Task] = set()
        server = await asyncio.start_server(
            self._handle_connection, host=host, port=port,
            limit=MAX_FRAME_BYTES,
        )
        self.bound_address = server.sockets[0].getsockname()[:2]
        try:
            async with server:
                await self._shutdown_event.wait()
                server.close()
                await self._drain_connections()
        finally:
            self._executor.shutdown(wait=True)
            self.close()


def is_loopback_peer(peername: object) -> bool:
    """True when a socket's ``peername`` is a loopback address.

    Accepts the IPv4 ``(host, port)`` and IPv6 ``(host, port, flow,
    scope)`` forms (an IPv4-mapped IPv6 peer counts by its IPv4
    address); anything unparseable is not loopback.
    """
    if not isinstance(peername, tuple) or not peername:
        return False
    try:
        address = ipaddress.ip_address(str(peername[0]))
    except ValueError:
        return False
    mapped = getattr(address, "ipv4_mapped", None)
    return (mapped or address).is_loopback


async def _discard_frame(reader: asyncio.StreamReader) -> bool:
    """Drop input through the next newline after a frame overran the
    reader's limit; False when the peer closed first."""
    while True:
        try:
            await reader.readuntil(b"\n")
            return True
        except asyncio.LimitOverrunError as error:
            await reader.readexactly(error.consumed)
        except (asyncio.IncompleteReadError, ConnectionError):
            return False


class ServerThread:
    """Run an :class:`IndexServer` on a background event-loop thread.

    The in-process deployment used by tests and ``loadgen --spawn``:
    ``start()`` blocks until the socket is bound and exposes
    ``host``/``port``; ``stop()`` requests shutdown and joins.
    """

    def __init__(
        self,
        server: Optional[IndexServer] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.server = server or IndexServer()
        self._host = host
        self._port = port
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-loop", daemon=True
        )

    def _run(self) -> None:
        async def main() -> None:
            serve_task = asyncio.ensure_future(
                self.server.serve(self._host, self._port)
            )
            # serve() sets bound_address before awaiting shutdown; poll
            # with a tiny sleep until it appears, then signal readiness.
            while not hasattr(self.server, "bound_address"):
                if serve_task.done():
                    break
                await asyncio.sleep(0.001)
            if hasattr(self.server, "bound_address"):
                self.host, self.port = self.server.bound_address
            self._ready.set()
            await serve_task

        self._loop = asyncio.new_event_loop()
        try:
            asyncio.set_event_loop(self._loop)
            self._loop.run_until_complete(main())
        except BaseException as error:  # noqa: BLE001 - surfaced via join
            self._error = error
            self._ready.set()
        finally:
            self._loop.close()

    def start(self, timeout: float = 10.0) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout=timeout):
            raise RuntimeError("server thread did not become ready")
        if self._error is not None:
            raise RuntimeError(
                f"server thread failed to start: {self._error}"
            )
        return self

    def stop(self, timeout: float = 10.0) -> None:
        if self._loop is not None and self._thread.is_alive():
            def _request_shutdown() -> None:
                event = getattr(self.server, "_shutdown_event", None)
                if event is not None:
                    event.set()

            try:
                self._loop.call_soon_threadsafe(_request_shutdown)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, exc_type=None, exc=None, tb=None) -> bool:
        self.stop()
        return False
