"""Morsel-driven fan-out of scans and refinement over the shared pool.

Three entry points, mirroring the three kinds of physical work the
indexes perform:

:func:`scan_range`
    One contiguous row range (a full scan, or a creation-phase region
    scan) split into fixed-size morsels of :data:`~.config.MORSEL_ROWS`
    rows each.
:func:`scan_pieces`
    A per-query leaf/candidate list (:class:`~repro.core.kdtree.PieceMatch`
    objects) split into contiguous, size-balanced chunks of whole
    pieces.  Pieces are never split internally: by the time piece scans
    dominate, the tree has refined the data into many below-threshold
    pieces and whole-piece chunking already yields far more work units
    than workers.
:func:`advance_jobs`
    Disjoint, already-scheduled :class:`~repro.core.partition.
    IncrementalPartition` jobs advanced concurrently, each under an
    exclusive piece-ownership claim (invariant I9).

Determinism
-----------
Every fan-out is bit-identical to the serial path it replaces:

* *results* — each morsel/chunk produces the same positions the serial
  kernel would produce for that sub-range (row membership is a pointwise
  predicate), each part is ascending, and parts are concatenated in
  submission order, which is range order — so the concatenation equals
  the serial output array element for element;
* *stats* — workers accumulate into private ``QueryStats`` records that
  are merged into the caller's in submission order.  All merged fields
  are additive counters whose per-range charges do not depend on how the
  range was chunked (the fused backend's hybrid-scan accounting charges
  the full window for the first checked dimension and the pre-check
  candidate count for each later one — both additive over sub-ranges),
  so the totals match the serial numbers exactly;
* *timing-free* — no merged field derives from wall clock; worker
  ``seconds`` stay zero and the caller's own timer covers the fan-out.

Workers pin a thread-private instance of the caller's kernel backend
(snapshotted once per fan-out — the per-query pin of
:meth:`BaseIndex.query` makes that snapshot stable), because the fused
backend's scratch buffers must not be shared across threads.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import kernels
from ..obs import metrics as obs_metrics
from ..obs import procbridge
from ..obs import trace as obs_trace
from . import config, procpool, shm

__all__ = ["scan_range", "scan_pieces", "scan_match_sets", "advance_jobs"]


def _procs_eligible() -> int:
    """Process-worker count when the process tier may dispatch from this
    context (never from inside any worker, of either tier)."""
    procs = procpool.get_process_workers()
    if procs <= 1 or procpool.in_proc_worker() or config.in_worker():
        return 0
    return procs


def _morsel_ranges(start: int, end: int, morsel_rows: int) -> List[Tuple[int, int]]:
    """Split ``[start, end)`` into consecutive ``morsel_rows``-sized ranges."""
    return [
        (position, min(position + morsel_rows, end))
        for position in range(start, end, morsel_rows)
    ]


def _parent_span_id() -> Optional[int]:
    """The dispatching thread's current span id (worker spans parent
    under it explicitly; implicit nesting cannot cross threads)."""
    if obs_trace.ENABLED:
        span = obs_trace.TRACER.current_span
        if span is not None:
            return span.span_id
    return None


def _note_fanout(op: str, tasks: int, workers: int) -> None:
    if obs_metrics.ENABLED:
        registry = obs_metrics.REGISTRY
        registry.counter("parallel.fanouts", op=op).inc()
        registry.counter("parallel.tasks", op=op).inc(tasks)
        registry.gauge("parallel.workers").set(workers)
        # Pool utilisation: tasks per worker this fan-out — < 1 means
        # idle workers, >> 1 means good load-balancing slack.
        registry.histogram("parallel.tasks_per_worker", op=op).observe(
            tasks / workers
        )


def _concat(parts: Sequence[np.ndarray]) -> np.ndarray:
    filled = [part for part in parts if part.size]
    if not filled:
        return np.empty(0, dtype=np.int64)
    if len(filled) == 1:
        return filled[0]
    return np.concatenate(filled)


# ------------------------------------------------------------- range scans

def scan_range(
    columns: Sequence[np.ndarray],
    start: int,
    end: int,
    query,
    stats,
    check_low=None,
    check_high=None,
) -> np.ndarray:
    """Morsel-parallel option-2 scan of rows ``[start, end)``.

    Falls through to one serial kernel call unless parallelism is on,
    the window is worth splitting, and we are not already on a worker.
    """
    window = end - start
    workers = config.get_workers()
    procs = _procs_eligible()
    if procs and window > config.MORSEL_ROWS and window >= config.MIN_PARALLEL_ROWS:
        handles = shm.handles_of(columns)
        if handles is not None:
            return _scan_range_procs(
                handles, start, end, query, stats, check_low, check_high,
                procs,
            )
    if (
        workers <= 1
        or window <= config.MORSEL_ROWS
        or window < config.MIN_PARALLEL_ROWS
        or config.in_worker()
    ):
        return kernels.range_scan(
            columns, start, end, query, stats, check_low, check_high
        )
    ranges = _morsel_ranges(start, end, config.MORSEL_ROWS)
    backend_name = kernels.current_backend().name
    parent = _parent_span_id()
    _note_fanout("scan", len(ranges), workers)
    futures = [
        config.pool().submit(
            _scan_range_task,
            backend_name,
            parent,
            columns,
            morsel_start,
            morsel_end,
            query,
            check_low,
            check_high,
            type(stats),
        )
        for morsel_start, morsel_end in ranges
    ]
    parts: List[np.ndarray] = []
    for future in futures:
        positions, worker_stats = future.result()
        stats.merge(worker_stats)
        parts.append(positions)
    return _concat(parts)


def _scan_range_task(
    backend_name: str,
    parent: Optional[int],
    columns,
    start: int,
    end: int,
    query,
    check_low,
    check_high,
    stats_cls,
):
    config.enter_worker()
    try:
        worker_stats = stats_cls()
        backend = kernels.thread_instance(backend_name)
        with kernels.pinned(backend):
            if obs_trace.ENABLED:
                with obs_trace.TRACER.span(
                    "morsel",
                    stats=worker_stats,
                    parent=parent,
                    op="scan",
                    start=start,
                    rows=end - start,
                ):
                    positions = kernels.range_scan(
                        columns, start, end, query, worker_stats,
                        check_low, check_high,
                    )
            else:
                positions = kernels.range_scan(
                    columns, start, end, query, worker_stats,
                    check_low, check_high,
                )
        return positions, worker_stats
    finally:
        config.exit_worker()


def _scan_range_procs(
    handles, start, end, query, stats, check_low, check_high, procs
):
    """Morsel fan-out of one row range over the process pool.

    Same morsel geometry and submission-order merge as the thread path;
    only the transport differs (shm handles out, positions + private
    stats back), so the result is bit-identical to serial.
    """
    ranges = _morsel_ranges(start, end, config.MORSEL_ROWS)
    backend_name = kernels.current_backend().name
    parent = _parent_span_id()
    telemetry = procbridge.request()
    _note_fanout("proc_scan", len(ranges), procs)
    pool = procpool.proc_pool()
    procpool.note_submitted(len(ranges))
    futures = [
        pool.submit(
            procpool.scan_range_task,
            backend_name,
            handles,
            morsel_start,
            morsel_end,
            query,
            check_low,
            check_high,
            telemetry,
        )
        for morsel_start, morsel_end in ranges
    ]
    parts: List[np.ndarray] = []
    received = 0
    try:
        for future in futures:
            result = future.result()
            procpool.note_done()
            received += 1
            if telemetry is None:
                positions, worker_stats = result
            else:
                positions, worker_stats, payload = result
                procbridge.absorb(payload, parent, op="proc_scan")
            stats.merge(worker_stats)
            parts.append(positions)
    finally:
        if received != len(futures):  # failed fan-out: settle the ledger
            procpool.note_done(len(futures) - received)
        if obs_metrics.ENABLED:
            procpool.publish_health()
    return _concat(parts)


# ------------------------------------------------------------- piece scans

def scan_pieces(index_table, matches, query, stats) -> List[np.ndarray]:
    """Scan a candidate-piece list across the pool.

    Returns one rowid array per match, in match order — exactly the list
    the serial ``[scan_piece(m) for m in matches]`` loop builds, with
    identical stats totals (zone-map prune/containment shortcuts run
    inside :meth:`~repro.core.index_base.IndexTable.scan_piece` on the
    worker and merge back as additive counters).
    """
    workers = config.get_workers()
    procs = _procs_eligible()
    if (workers <= 1 and not procs) or len(matches) < 2 or config.in_worker():
        return [index_table.scan_piece(match, query, stats) for match in matches]
    total_rows = 0
    for match in matches:
        total_rows += match.piece.size
    if total_rows < config.MIN_PARALLEL_ROWS:
        return [index_table.scan_piece(match, query, stats) for match in matches]
    if procs:
        column_handles = shm.handles_of(index_table.columns)
        rowid_handle = shm.handle_of(index_table.rowids)
        if column_handles is not None and rowid_handle is not None:
            parts = _scan_pieces_procs(
                column_handles, rowid_handle, matches, total_rows, query,
                stats, procs,
            )
            if parts is not None:
                return parts
    if workers <= 1:
        return [index_table.scan_piece(match, query, stats) for match in matches]
    chunks = _chunk_matches(matches, total_rows, workers)
    if len(chunks) < 2:
        return [index_table.scan_piece(match, query, stats) for match in matches]
    backend_name = kernels.current_backend().name
    parent = _parent_span_id()
    _note_fanout("piece_scan", len(chunks), workers)
    futures = [
        config.pool().submit(
            _scan_pieces_task,
            backend_name,
            parent,
            index_table,
            chunk,
            query,
            type(stats),
        )
        for chunk in chunks
    ]
    parts: List[np.ndarray] = []
    for future in futures:
        chunk_parts, worker_stats = future.result()
        stats.merge(worker_stats)
        parts.extend(chunk_parts)
    return parts


def _chunk_matches(matches, total_rows: int, workers: int) -> List[list]:
    """Contiguous size-balanced chunks of whole matches.

    Targets ~4 chunks per worker so one slow chunk (a zone-contained
    run next to a dense one) cannot serialise the tail, while keeping
    per-chunk row volume high enough to amortise dispatch.  Determinism
    does not depend on the chunking — only merge order matters, and that
    is fixed — so this is pure scheduling policy.
    """
    target = max(1, total_rows // (workers * 4))
    chunks: List[list] = []
    current: list = []
    current_rows = 0
    for match in matches:
        current.append(match)
        current_rows += match.piece.size
        if current_rows >= target:
            chunks.append(current)
            current = []
            current_rows = 0
    if current:
        chunks.append(current)
    return chunks


def _scan_pieces_task(
    backend_name: str,
    parent: Optional[int],
    index_table,
    chunk,
    query,
    stats_cls,
):
    config.enter_worker()
    try:
        worker_stats = stats_cls()
        backend = kernels.thread_instance(backend_name)
        with kernels.pinned(backend):
            if obs_trace.ENABLED:
                rows = sum(match.piece.size for match in chunk)
                with obs_trace.TRACER.span(
                    "morsel",
                    stats=worker_stats,
                    parent=parent,
                    op="piece_scan",
                    pieces=len(chunk),
                    rows=rows,
                ):
                    parts = [
                        index_table.scan_piece(match, query, worker_stats)
                        for match in chunk
                    ]
            else:
                parts = [
                    index_table.scan_piece(match, query, worker_stats)
                    for match in chunk
                ]
        return parts, worker_stats
    finally:
        config.exit_worker()


def _scan_pieces_procs(
    column_handles, rowid_handle, matches, total_rows, query, stats, procs
):
    """Whole-piece chunk fan-out over the process pool.

    Pieces travel as flat specs (bounds + zone box + residual-check
    flags) and are rebuilt as shims around the attached shm arrays in
    the worker; parts and stats merge in match order, exactly like the
    thread path.
    """
    chunks = _chunk_matches(matches, total_rows, procs)
    if len(chunks) < 2:
        return None  # not worth a process hop; caller falls through
    backend_name = kernels.current_backend().name
    parent = _parent_span_id()
    telemetry = procbridge.request()
    _note_fanout("proc_piece_scan", len(chunks), procs)
    pool = procpool.proc_pool()
    procpool.note_submitted(len(chunks))
    futures = [
        pool.submit(
            procpool.scan_pieces_task,
            backend_name,
            column_handles,
            rowid_handle,
            [procpool.piece_spec(match) for match in chunk],
            query,
            telemetry,
        )
        for chunk in chunks
    ]
    parts: List[np.ndarray] = []
    received = 0
    try:
        for future in futures:
            result = future.result()
            procpool.note_done()
            received += 1
            if telemetry is None:
                chunk_parts, worker_stats = result
            else:
                chunk_parts, worker_stats, payload = result
                procbridge.absorb(payload, parent, op="proc_piece_scan")
            stats.merge(worker_stats)
            parts.extend(chunk_parts)
    finally:
        if received != len(futures):  # failed fan-out: settle the ledger
            procpool.note_done(len(futures) - received)
        if obs_metrics.ENABLED:
            procpool.publish_health()
    return parts


# ---------------------------------------------------- batched piece scans

def scan_match_sets(index_table, jobs) -> List[List[np.ndarray]]:
    """Scan many queries' candidate-piece lists in one shared fan-out.

    ``jobs`` is a sequence of ``(matches, query, stats)`` triples — one
    per query of a batch (:meth:`BaseIndex.query_batch
    <repro.core.index_base.BaseIndex.query_batch>`).  Returns one
    parts-list per job, in job order, with each parts-list identical to
    the serial ``[scan_piece(m) for m in matches]`` loop for that query
    and each job's stats receiving exactly its own query's additive
    charges.  The whole batch shares a single chunking/dispatch round —
    the point of batching: B queries pay one fan-out, not B.
    """
    workers = config.get_workers()
    procs = _procs_eligible()
    tagged: List[Tuple[int, object]] = []
    total_rows = 0
    for job_index, (matches, _query, _stats) in enumerate(jobs):
        for match in matches:
            tagged.append((job_index, match))
            total_rows += match.piece.size
    if (
        (workers <= 1 and not procs)
        or len(tagged) < 2
        or total_rows < config.MIN_PARALLEL_ROWS
        or config.in_worker()
    ):
        return _scan_match_sets_fused(index_table, jobs)
    queries = [query for _matches, query, _stats in jobs]
    if procs:
        column_handles = shm.handles_of(index_table.columns)
        rowid_handle = shm.handle_of(index_table.rowids)
        if column_handles is not None and rowid_handle is not None:
            parts = _scan_match_sets_procs(
                column_handles, rowid_handle, tagged, total_rows, jobs,
                queries, procs,
            )
            if parts is not None:
                return parts
    if workers <= 1:
        return _scan_match_sets_fused(index_table, jobs)
    chunks = _chunk_tagged(tagged, total_rows, workers)
    if len(chunks) < 2:
        return _scan_match_sets_fused(index_table, jobs)
    backend_name = kernels.current_backend().name
    stats_cls = type(jobs[0][2])
    _note_fanout("batch_scan", len(chunks), workers)
    futures = [
        config.pool().submit(
            _scan_match_sets_task,
            backend_name,
            index_table,
            chunk,
            queries,
            stats_cls,
        )
        for chunk in chunks
    ]
    parts_per_job: List[List[np.ndarray]] = [[] for _ in jobs]
    for future in futures:
        tagged_parts, per_job_stats = future.result()
        for job_index, part in tagged_parts:
            parts_per_job[job_index].append(part)
        for job_index, worker_stats in per_job_stats:
            jobs[job_index][2].merge(worker_stats)
    return parts_per_job


def batch_scan_serial() -> bool:
    """True when :func:`scan_match_sets` would take its serial fused path
    regardless of the job list — no workers, no process tier, or already
    inside a pool worker.  Lets converged batch callers skip the
    object-graph job assembly and run the array-native shortcut instead;
    when this is False the caller builds real matches and the fan-out
    logic decides per batch.
    """
    return (
        config.get_workers() <= 1 and not _procs_eligible()
    ) or config.in_worker()


def _scan_match_sets_fused(index_table, jobs) -> List[List[np.ndarray]]:
    """Serial batch scan: zone shortcuts per pair, then one residual
    scan (:func:`scan_windows`) over every pair they left.

    Bit-identical to ``index_table.scan_piece`` per (query, piece) pair
    — same parts, same per-query counter charges — but the residual
    pairs share one call, so sparse windows pay ~one set of vector
    operations for the whole batch instead of one kernel call each.
    """
    parts_per_job: List[List[np.ndarray]] = []
    pending: List[tuple] = []  # (match, query, stats, parts, slot)
    for matches, query, stats in jobs:
        parts: List[np.ndarray] = []
        for match in matches:
            shortcut = index_table.zone_shortcut(match, query, stats)
            if shortcut is None:
                pending.append((match, query, stats, parts, len(parts)))
                parts.append(_EMPTY_IDS)  # placeholder, filled below
            else:
                parts.append(shortcut)
        parts_per_job.append(parts)
    if pending:
        for part, (_m, _q, _s, parts, slot) in zip(
            _scan_pairs(index_table, pending), pending
        ):
            parts[slot] = part
    return parts_per_job


_EMPTY_IDS = np.empty(0, dtype=np.int64)


def _scan_pairs(index_table, pairs) -> List[np.ndarray]:
    """:func:`scan_windows` over many (query, piece) pairs.

    Translates each pair into a window with effective bounds: a residual
    bound the tree path already implies (check flag False) or an
    infinite query bound becomes ``±inf``, which every value passes —
    the same rows the per-pair scan's skip-the-dimension rule admits.
    Pieces without a zone map get a NaN dim-0 zone.
    """
    n_pairs = len(pairs)
    n_dims = pairs[0][1].n_dims
    pieces = [pair[0].piece for pair in pairs]
    starts = np.fromiter((piece.start for piece in pieces), np.int64, n_pairs)
    lens = np.fromiter((piece.size for piece in pieces), np.int64, n_pairs)
    zone0 = np.array(
        [
            (piece.zone_lo[0], piece.zone_hi[0])
            if piece.zone_lo is not None
            else (np.nan, np.nan)
            for piece in pieces
        ],
        dtype=np.float64,
    ).T

    all_checked = (True,) * n_dims
    check_low = np.array(
        [
            pair[0].check_low if pair[0].check_low is not None else all_checked
            for pair in pairs
        ],
        dtype=bool,
    )
    check_high = np.array(
        [
            pair[0].check_high
            if pair[0].check_high is not None
            else all_checked
            for pair in pairs
        ],
        dtype=bool,
    )
    lows2d = np.array([pair[1].lows_f for pair in pairs])
    highs2d = np.array([pair[1].highs_f for pair in pairs])
    need_low = check_low & np.array(
        [pair[1].finite_lows for pair in pairs], dtype=bool
    )
    need_high = check_high & np.array(
        [pair[1].finite_highs for pair in pairs], dtype=bool
    )
    parts, scanned = scan_windows(
        index_table.columns, index_table.rowids, starts, lens,
        np.where(need_low, lows2d, -np.inf).T,
        np.where(need_high, highs2d, np.inf).T,
        zone0[0], zone0[1],
    )
    for (_match, _query, stats, _parts, _slot), charge in zip(pairs, scanned):
        stats.scanned += int(charge)
    return parts


def scan_windows(
    columns, rowids, starts, lens, eff_lo, eff_hi, zone_lo0, zone_hi0
) -> Tuple[List[np.ndarray], np.ndarray]:
    """Residual scan of many row windows, shared by :func:`_scan_pairs`
    and the arena batch path: one call of the pinned kernel backend's
    :meth:`~repro.kernels.reference.KernelBackend.scan_windows` (the
    routed NumPy scan, or one compiled call under ``native``).

    Returns ``(parts, scanned)``: each window's qualifying rowids in
    window order, and each window's ``stats.scanned`` charge.
    """
    return kernels.scan_windows(
        columns, rowids, starts, lens, eff_lo, eff_hi, zone_lo0, zone_hi0
    )


def _chunk_tagged(tagged, total_rows: int, workers: int) -> List[list]:
    """Contiguous size-balanced chunks of tagged ``(job, match)`` items.

    Same geometry policy as :func:`_chunk_matches`; chunks may span job
    boundaries — the tags route every part and stat back to its query.
    """
    target = max(1, total_rows // (workers * 4))
    chunks: List[list] = []
    current: list = []
    current_rows = 0
    for item in tagged:
        current.append(item)
        current_rows += item[1].piece.size
        if current_rows >= target:
            chunks.append(current)
            current = []
            current_rows = 0
    if current:
        chunks.append(current)
    return chunks


def _scan_match_sets_task(
    backend_name: str,
    index_table,
    chunk,
    queries,
    stats_cls,
):
    # No trace span: query_batch falls back to sequential execution when
    # tracing or metrics are live, so batch fan-outs never run observed.
    config.enter_worker()
    try:
        per_job: dict = {}
        tagged_parts = []
        backend = kernels.thread_instance(backend_name)
        with kernels.pinned(backend):
            for job_index, match in chunk:
                worker_stats = per_job.get(job_index)
                if worker_stats is None:
                    worker_stats = per_job[job_index] = stats_cls()
                tagged_parts.append(
                    (
                        job_index,
                        index_table.scan_piece(
                            match, queries[job_index], worker_stats
                        ),
                    )
                )
        return tagged_parts, sorted(per_job.items())
    finally:
        config.exit_worker()


def _scan_match_sets_procs(
    column_handles, rowid_handle, tagged, total_rows, jobs, queries, procs
):
    """Batched piece-chunk fan-out over the process pool.

    Chunks carry ``(job, piece-spec)`` tags; workers return tagged parts
    plus per-job private stats, merged here in submission order — the
    same contract as :func:`_scan_pieces_procs`, widened to many queries
    per dispatch.  ``None`` when the batch is too small to be worth a
    process hop; the caller falls through to threads/serial.
    """
    chunks = _chunk_tagged(tagged, total_rows, procs)
    if len(chunks) < 2:
        return None
    backend_name = kernels.current_backend().name
    _note_fanout("proc_batch_scan", len(chunks), procs)
    pool = procpool.proc_pool()
    procpool.note_submitted(len(chunks))
    futures = [
        pool.submit(
            procpool.scan_match_sets_task,
            backend_name,
            column_handles,
            rowid_handle,
            [
                (job_index, procpool.piece_spec(match))
                for job_index, match in chunk
            ],
            queries,
        )
        for chunk in chunks
    ]
    parts_per_job: List[List[np.ndarray]] = [[] for _ in jobs]
    received = 0
    try:
        for future in futures:
            tagged_parts, per_job_stats = future.result()
            procpool.note_done()
            received += 1
            for job_index, part in tagged_parts:
                parts_per_job[job_index].append(part)
            for job_index, worker_stats in per_job_stats:
                jobs[job_index][2].merge(worker_stats)
    finally:
        if received != len(futures):  # failed fan-out: settle the ledger
            procpool.note_done(len(futures) - received)
        if obs_metrics.ENABLED:
            procpool.publish_health()
    return parts_per_job


# ----------------------------------------------------- refinement advances

def advance_jobs(pairs: Sequence[Tuple[object, int]]) -> List[int]:
    """Advance ``(piece, grant_rows)`` partition jobs, possibly in parallel.

    Every piece must carry a scheduled ``piece.job`` and the pieces must
    be disjoint leaf ranges (they are: KD-Tree leaves tile ``[0, N)``).
    Each worker claims exclusive ownership of its piece for the duration
    of the advance — invariant I9's checkable protocol.  Returns rows
    actually visited per pair, in pair order.

    The process tier only dispatches when the round's total granted rows
    reach :data:`~.config.MIN_PARALLEL_ROWS` — below that the fixed IPC
    cost dwarfs the partition work — otherwise threads/serial apply.
    """
    if not pairs:
        return []
    procs = _procs_eligible()
    if (
        len(pairs) == 1
        or (config.get_workers() <= 1 and not procs)
        or config.in_worker()
    ):
        return [piece.job.advance(grant) for piece, grant in pairs]
    if procs:
        granted = sum(
            min(grant, piece.job.remaining_rows) for piece, grant in pairs
        )
        if granted >= config.MIN_PARALLEL_ROWS:
            used = _advance_jobs_procs(pairs, procs)
            if used is not None:
                return used
    if config.get_workers() <= 1:
        return [piece.job.advance(grant) for piece, grant in pairs]
    backend_name = kernels.current_backend().name
    parent = _parent_span_id()
    _note_fanout("refine", len(pairs), config.get_workers())
    futures = []
    for position, (piece, grant) in enumerate(pairs):
        owner = f"refine-worker-{position}"
        config.claim_piece(piece, owner)
        futures.append(
            config.pool().submit(
                _advance_task, backend_name, parent, piece, grant, owner
            )
        )
    return [future.result() for future in futures]


def _advance_task(
    backend_name: str,
    parent: Optional[int],
    piece,
    grant: int,
    owner: str,
) -> int:
    config.enter_worker()
    try:
        backend = kernels.thread_instance(backend_name)
        with kernels.pinned(backend):
            if obs_trace.ENABLED:
                with obs_trace.TRACER.span(
                    "morsel",
                    parent=parent,
                    op="refine",
                    start=piece.start,
                    rows=min(grant, piece.job.remaining_rows),
                ):
                    return piece.job.advance(grant)
            return piece.job.advance(grant)
    finally:
        config.release_piece(piece, owner)
        config.exit_worker()


def _advance_jobs_procs(pairs, procs):
    """Refinement fan-out over the process pool.

    Each worker advances its job's Hoare partition directly in shared
    memory (the swaps are immediately visible here) and ships back only
    the pointer state ``(used, lo, hi, done)``, which is applied to the
    parent's job object — deterministic because each job's advance is a
    pure function of (arrays, pointers, grant), independent of the other
    jobs (the pieces are disjoint).  Returns ``None`` when any job's
    arrays are not shm-backed; the caller then uses threads/serial.
    """
    shipped = []
    for piece, grant in pairs:
        job = piece.job
        handles = shm.handles_of(job.arrays)
        if handles is None:
            return None
        shipped.append((piece, grant, job, handles))
    parent = _parent_span_id()
    telemetry = procbridge.request()
    _note_fanout("proc_refine", len(shipped), procs)
    pool = procpool.proc_pool()
    procpool.note_submitted(len(shipped))
    futures = []
    for position, (piece, grant, job, handles) in enumerate(shipped):
        owner = f"refine-proc-{position}"
        config.claim_piece(piece, owner)
        futures.append(
            (
                piece,
                job,
                owner,
                pool.submit(
                    procpool.advance_task,
                    kernels.current_backend().name,
                    handles,
                    job.start,
                    job.end,
                    job.key_index,
                    job.pivot,
                    job.lo,
                    job.hi,
                    grant,
                    telemetry,
                ),
            )
        )
    results = []
    received = 0
    try:
        for piece, job, owner, future in futures:
            try:
                result = future.result()
                procpool.note_done()
                received += 1
            finally:
                config.release_piece(piece, owner)
            if telemetry is None:
                used, lo, hi, done = result
            else:
                used, lo, hi, done, payload = result
                procbridge.absorb(payload, parent, op="proc_refine")
            job.lo = lo
            job.hi = hi
            job.done = done
            job._paused = not done
            results.append(used)
    finally:
        if received != len(futures):  # failed fan-out: settle the ledger
            procpool.note_done(len(futures) - received)
        if obs_metrics.ENABLED:
            procpool.publish_health()
    return results
