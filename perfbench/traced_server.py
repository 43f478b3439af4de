"""Traced-run bootstrap: ``python perfbench/traced_server.py --spans OUT -- ARGS``.

Wraps the public entry points of each server layer in spans recorded by
:class:`spans.SpanRecorder`, then runs ``repro.serve``'s ``main(ARGS)``
unchanged.  When ``main`` returns (the ``shutdown`` op), the spans are
written to ``OUT`` as one JSON document.  The program's own
``repro.obs`` tracing stays off, so every wrapped call takes the same
code path as in an untraced server.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time

from spans import SpanRecorder


def _frame_in(args, kwargs, result):
    return {"rid": result.get("id"), "op": result.get("op"), "bytes": len(args[0])}


def _frame_out(args, kwargs, result):
    return {"rid": args[0].get("id"), "bytes": len(result)}


def _query_in(args, kwargs, result):
    return {"rid": kwargs.get("trace")}


def _batch_in(args, kwargs, result):
    return {"n": len(kwargs["bounds_list"])}


def _stats_of(results):
    totals = {"n": 0, "scanned": 0, "copied": 0, "swapped": 0,
              "lookup_nodes": 0, "results": 0}
    for result in results:
        stats = result.stats
        totals["n"] += 1
        totals["scanned"] += stats.scanned
        totals["copied"] += stats.copied
        totals["swapped"] += stats.swapped
        totals["lookup_nodes"] += stats.lookup_nodes
        totals["results"] += stats.result_count
    return totals


def _index_query(args, kwargs, result):
    return _stats_of([result])


def _index_batch(args, kwargs, result):
    return _stats_of(result)


def _kernel_scan(args, kwargs, result):
    # (self, columns, start, end, query, stats, ...)
    return {"rows": int(args[3]) - int(args[2]), "columns": len(args[1])}


def install(recorder: SpanRecorder) -> str:
    """Wrap every traced layer entry point in place; returns the active
    kernel backend's name."""
    from repro import kernels
    from repro.core import arena, greedy_progressive, index_base, kdtree
    from repro.kernels import fused, reference
    from repro.parallel import executor
    from repro.serve import admission, locks, protocol, scheduler, server

    wrap = recorder.wrap

    # serve.protocol — server.py imported the helpers by name.
    decode = wrap("protocol.decode", protocol.decode_frame, _frame_in)
    encode = wrap("protocol.encode", protocol.encode_frame, _frame_out)
    checksum = wrap("protocol.checksum", protocol.answer_checksum)
    for module in (protocol, server):
        module.decode_frame = decode
        module.encode_frame = encode
        module.answer_checksum = checksum

    # serve.server request layer.
    cls = server.IndexServer
    cls.execute_query = wrap("serve.execute_query", cls.execute_query, _query_in)
    cls.execute_batch = wrap("serve.execute_batch", cls.execute_batch, _batch_in)

    # serve.admission: time to get an in-flight slot (or be refused).
    inflight = admission.AdmissionControl.inflight

    @contextlib.contextmanager
    def traced_inflight(self, tenant):
        manager = inflight(self, tenant)
        wrap("admission.inflight", manager.__enter__)()
        try:
            yield
        finally:
            manager.__exit__(None, None, None)

    admission.AdmissionControl.inflight = traced_inflight

    # serve.locks: acquisition waits as spans, write holds as intervals.
    lock_cls = locks.PieceSnapshotLock
    acquire_write = wrap("lock.acquire_write", lock_cls.acquire_write)
    release_write = lock_cls.release_write

    def traced_acquire_write(self, timeout=None):
        acquired = acquire_write(self, timeout)
        if acquired:
            recorder.hold_started(id(self), time.perf_counter())
        return acquired

    def traced_release_write(self):
        recorder.hold_ended(id(self))
        release_write(self)

    lock_cls.acquire_write = traced_acquire_write
    lock_cls.release_write = traced_release_write
    lock_cls.acquire_read = wrap("lock.acquire_read", lock_cls.acquire_read)

    # serve.scheduler: one span per refinement slice.
    sched = scheduler.RefinementScheduler
    sched._slice = wrap("scheduler.slice", sched._slice)

    # core.index_base / core.greedy_progressive / core.cost_model.
    base = index_base.BaseIndex
    base.query = wrap("index.query", base.query, _index_query)
    base.query_batch = wrap("index.query_batch", base.query_batch, _index_batch)
    greedy = greedy_progressive.GreedyProgressiveKDTree
    # The greedy controller's per-query pricing (scalar and batch form)
    # is where the cost model is consulted on the serving path.
    greedy._estimate_net_seconds = wrap(
        "cost_model.pricing", greedy._estimate_net_seconds
    )
    greedy._batch_prelude_many = wrap(
        "cost_model.pricing", greedy._batch_prelude_many
    )

    # core.arena / core.kdtree.
    arena_cls = arena.Arena
    arena_cls.search = wrap("arena.search", arena_cls.search)
    arena_cls.probe = wrap("arena.probe", arena_cls.probe)
    arena_cls.search_batch_raw = wrap("arena.search_batch", arena_cls.search_batch_raw)
    kdtree.KDTree.search = wrap("kdtree.search", kdtree.KDTree.search)

    # parallel.executor (callers look these up on the module).
    for name in ("scan_range", "scan_pieces", "scan_match_sets", "scan_windows"):
        setattr(executor, name, wrap(f"executor.{name}", getattr(executor, name)))

    # kernels: every method a backend class defines itself.
    partition_ops = ("stable_partition", "chunk_misplaced", "swap_rows")
    for backend in (reference.KernelBackend, reference.ReferenceBackend,
                    fused.FusedNumpyBackend):
        if "range_scan" in vars(backend):
            backend.range_scan = wrap("kernel.range_scan", backend.range_scan, _kernel_scan)
        for op in partition_ops:
            if op in vars(backend):
                setattr(backend, op, wrap("kernel.partition", getattr(backend, op)))
    return kernels.active_name()


def main() -> int:
    argv = sys.argv[1:]
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: traced_server.py --spans OUT -- SERVE_ARGS", file=sys.stderr)
        return 2
    out = argv[1]
    serve_args = argv[3:] if len(argv) > 2 and argv[2] == "--" else argv[2:]
    recorder = SpanRecorder()
    kernel_backend = install(recorder)
    from repro.serve.__main__ import main as serve_main

    try:
        return serve_main(serve_args)
    finally:
        tmp = out + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(
                {
                    "pid": os.getpid(),
                    "kernel_backend": kernel_backend,
                    "spans": recorder.spans,
                    "holds": recorder.holds,
                },
                handle,
            )
        os.replace(tmp, out)


if __name__ == "__main__":
    sys.exit(main())
