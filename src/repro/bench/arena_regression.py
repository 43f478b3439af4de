"""Flat-arena performance baseline: record once, compare in CI.

Two wall-clock claims ride on the arena (:mod:`repro.core.arena`), and
like :mod:`repro.bench.kernel_regression` they split into portable
ratios and machine-bound absolutes:

* **arena speedup** — converged per-query latency of the same GPKD
  index answered through the object tree vs through the flat arena,
  measured interleaved in the same run.  The ratio is portable: if the
  vectorized descent stops paying off, it drops everywhere.
* **batch speedup** — ``query_batch`` at ``B=64`` vs one-at-a-time
  ``query`` on the same converged arena-backed index, also interleaved.
  This is the amortisation claim of the batch execution model: one
  shared descent pass and one residual scan per batch.
* **dense batch speedup** — the same pair over wide (selectivity
  :data:`DENSE_SELECTIVITY`) windows on the threshold-1024 index, where
  residual scans dominate and the batch must route its dense leaf
  windows through the fused kernel to keep up with per-query dispatch.
* **refinement scaling** — wall nanoseconds per refined row when
  full-domain slices (the serve scheduler's probe) drive a fresh GPKD
  from the end of creation to convergence, at ``n`` and ``n / 8``
  rows.  Their ratio is portable: a piece pick that walks the tree
  makes the per-row cost grow with the leaf count, a constant-cost
  pick keeps it flat.

Absolute per-query latencies are recorded too, but only compared with a
deliberately generous slowdown ratio — a canary against order-of-
magnitude regressions, not a precise gate.

The baseline carries ``cpu_count`` at top level for provenance (the
same contract as the parallel baseline): ``record`` refuses to
overwrite a baseline recorded on a bigger machine unless forced.

Usage::

    python -m repro.bench.arena_regression record BENCH_arena.json
    python -m repro.bench.arena_regression compare BENCH_arena.json \
        --n 200000 --min-arena 1.2 --min-batch 2.0 --slowdown 10

``compare`` also holds ``refine_scaling`` under
:data:`CI_MAX_REFINE_SCALING`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .. import kernels
from ..core.arena import arena_default, set_arena_default
from ..core.greedy_progressive import GreedyProgressiveKDTree
from ..core.metrics import QueryStats
from ..core.query import RangeQuery
from ..core.table import Table
from ..serve.scheduler import SLICE_ROWS
from .kernel_regression import BaselineProvenanceError, PerfDrift

__all__ = [
    "arena_metrics",
    "record",
    "compare",
    "BATCH_SIZE",
    "LATENCY_THRESHOLD",
    "BATCH_THRESHOLD",
    "DENSE_SELECTIVITY",
    "CI_MAX_REFINE_SCALING",
]

#: Queries per ``query_batch`` call in the throughput measurement.
BATCH_SIZE = 64

#: Leaf-size threshold for the object-vs-arena latency pair.  1024 is
#: the repo-wide benchmarking default: scan and descent both carry
#: weight, so the ratio reflects the whole lookup path.
LATENCY_THRESHOLD = 1024

#: Leaf-size threshold for the batch-throughput pair.  Smaller leaves
#: make the tree deeper, which is where batching pays: the sequential
#: path descends node-by-node in Python per query while the batch path
#: shares one vectorized descent, and the narrower scan windows keep
#: both paths' scan cost small.
BATCH_THRESHOLD = 256


#: Per-query selectivity of the dense-batch pair (run on the
#: ``LATENCY_THRESHOLD`` index): wide enough that most residual leaf
#: windows keep hundreds of rows.
DENSE_SELECTIVITY = 1e-2

#: Ceiling ``compare`` holds ``refine_scaling`` to.  Generous: its small
#: ``n`` gives the ``n / 8`` run few leaves and a noisy millisecond
#: timing.  The full-scale gate lives in ``benchmarks/bench_arena.py``.
CI_MAX_REFINE_SCALING = 2.5


def _converged_index(
    columns: Sequence[np.ndarray], threshold: int, arena: bool
) -> GreedyProgressiveKDTree:
    """A GPKD index driven to convergence on a copy of ``columns``."""
    previous = arena_default()
    set_arena_default(arena)
    try:
        index = GreedyProgressiveKDTree(
            Table([column.copy() for column in columns]),
            delta=1.0,
            size_threshold=threshold,
        )
        # The KD-tree (and with it the arena mirror) is created lazily
        # on the first query, so the default must hold through
        # convergence, not just construction.
        rng = np.random.default_rng(11)
        n_dims = len(columns)
        while not index.converged:
            lows = rng.random(n_dims) * 95.0
            index.query(RangeQuery(lows, lows + 5.0))
    finally:
        set_arena_default(previous)
    return index


def _refine_ns_per_row(columns: Sequence[np.ndarray], threshold: int) -> float:
    """Wall ns per refined row of one convergence, creation excluded.

    Copies ``columns`` into a fresh GPKD, finishes creation with one
    narrow query (``delta=1``), then times scheduler-sized
    (``SLICE_ROWS``) full-domain ``_refine_step`` slices until the index
    converges — the serve scheduler's work, without its thread.  The
    cyclic GC is held off while timing, as in :func:`_interleaved_best`.
    """
    import gc

    n_dims = len(columns)
    probe = RangeQuery.full_domain(n_dims)
    index = GreedyProgressiveKDTree(
        Table([column.copy() for column in columns]),
        delta=1.0,
        size_threshold=threshold,
    )
    index.query(RangeQuery(np.zeros(n_dims), np.ones(n_dims)))
    stats = QueryStats()
    rows = 0
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        begin = time.perf_counter()
        while not index.converged:
            rows += index._refine_step(SLICE_ROWS, probe, stats)
        seconds = time.perf_counter() - begin
    finally:
        if gc_was_enabled:
            gc.enable()
    return seconds / max(rows, 1) * 1e9


def _narrow_queries(n_dims: int, count: int) -> List[RangeQuery]:
    """Narrow (0.05-wide) point-ish lookups over the [0, 100) domain."""
    rng = np.random.default_rng(23)
    return [
        RangeQuery(lows, lows + 0.05)
        for lows in (rng.random(n_dims) * 99.0 for _ in range(count))
    ]


def _dense_queries(n_dims: int, count: int) -> List[RangeQuery]:
    """Hypercubes covering :data:`DENSE_SELECTIVITY` of [0, 100)^d."""
    rng = np.random.default_rng(29)
    side = 100.0 * DENSE_SELECTIVITY ** (1.0 / n_dims)
    return [
        RangeQuery(lows, lows + side)
        for lows in (rng.random(n_dims) * (100.0 - side) for _ in range(count))
    ]


def _interleaved_best(
    thunks: Dict[str, Callable[[], None]], repeats: int
) -> Dict[str, float]:
    """Best-of-``repeats`` seconds per thunk, interleaved per repeat.

    Wall-clock drifts between fast and slow modes on shared machines;
    timing one thunk's whole block before the other would silently bias
    every ratio.  One untimed warm-up round pages everything in, and the
    cyclic GC is held off during the timed region — a collection landing
    inside one thunk but not the other would corrupt the ratio.
    """
    import gc

    for thunk in thunks.values():
        thunk()
    best = {name: float("inf") for name in thunks}
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(repeats):
            for name, thunk in thunks.items():
                begin = time.perf_counter()
                thunk()
                best[name] = min(best[name], time.perf_counter() - begin)
    finally:
        if gc_was_enabled:
            gc.enable()
    return best


def arena_metrics(
    n: int = 1_000_000,
    n_dims: int = 2,
    repeats: int = 9,
    queries: int = 256,
    batch: int = BATCH_SIZE,
) -> Dict[str, object]:
    """Measure both arena claims; returns the baseline document."""
    rng = np.random.default_rng(7)
    columns = [
        np.ascontiguousarray(rng.random(n) * 100.0) for _ in range(n_dims)
    ]
    workload = _narrow_queries(n_dims, queries)

    object_index = _converged_index(columns, LATENCY_THRESHOLD, arena=False)
    arena_index = _converged_index(columns, LATENCY_THRESHOLD, arena=True)

    def run_object() -> None:
        for query in workload:
            object_index.query(query)

    def run_arena() -> None:
        for query in workload:
            arena_index.query(query)

    latency = _interleaved_best(
        {"object": run_object, "arena": run_arena}, repeats
    )

    batch_index = _converged_index(columns, BATCH_THRESHOLD, arena=True)

    def run_sequential() -> None:
        for query in workload:
            batch_index.query(query)

    def run_batch() -> None:
        for start in range(0, len(workload), batch):
            batch_index.query_batch(workload[start : start + batch])

    throughput = _interleaved_best(
        {"sequential": run_sequential, "batch": run_batch}, repeats
    )

    dense_workload = _dense_queries(n_dims, queries)

    def run_dense_sequential() -> None:
        for query in dense_workload:
            arena_index.query(query)

    def run_dense_batch() -> None:
        for start in range(0, len(dense_workload), batch):
            arena_index.query_batch(dense_workload[start : start + batch])

    dense = _interleaved_best(
        {"sequential": run_dense_sequential, "batch": run_dense_batch},
        repeats,
    )

    # Best-of-repeats per size, the two sizes interleaved so a clock
    # drift cannot favour one side of the ratio.
    sizes = {"n": columns, "n/8": [column[: n // 8] for column in columns]}
    refine = {name: float("inf") for name in sizes}
    for _ in range(repeats):
        for name, sized in sizes.items():
            refine[name] = min(
                refine[name], _refine_ns_per_row(sized, LATENCY_THRESHOLD)
            )

    count = len(workload)
    return {
        # cpu_count rides at top level, not buried in meta — the same
        # provenance contract as the parallel baseline.
        "cpu_count": os.cpu_count(),
        "meta": {
            "n": n,
            "n_dims": n_dims,
            "repeats": repeats,
            "queries": queries,
            "batch": batch,
            "latency_threshold": LATENCY_THRESHOLD,
            "batch_threshold": BATCH_THRESHOLD,
            "dense_selectivity": DENSE_SELECTIVITY,
            "cpu_count": os.cpu_count(),
            # The batch rows run the active backend's window scan.
            "kernel_backend": kernels.active_name(),
        },
        "latency_us": {
            name: seconds / count * 1e6 for name, seconds in latency.items()
        },
        "arena_speedup": latency["object"] / latency["arena"],
        "batch_us": {
            name: seconds / count * 1e6
            for name, seconds in throughput.items()
        },
        "batch_speedup": throughput["sequential"] / throughput["batch"],
        "dense_batch_us": {
            name: seconds / count * 1e6 for name, seconds in dense.items()
        },
        "dense_batch_speedup": dense["sequential"] / dense["batch"],
        "refine_ns_per_row": refine,
        "refine_scaling": refine["n"] / refine["n/8"],
    }


def record(
    path: str,
    n: int = 1_000_000,
    n_dims: int = 2,
    repeats: int = 9,
    force: bool = False,
) -> Dict[str, object]:
    """Measure and persist the baseline; returns the document.

    Refuses to overwrite a baseline recorded on a machine with more
    CPUs unless ``force`` is set — same provenance rule as
    ``record-parallel`` (the absolute latencies would silently lose
    their context).
    """
    if not force and os.path.exists(path):
        try:
            with open(path) as handle:
                stored = json.load(handle)
        except (OSError, ValueError):
            stored = None
        if stored is not None:
            stored_cpus = stored.get(
                "cpu_count", stored.get("meta", {}).get("cpu_count")
            )
            current_cpus = os.cpu_count() or 1
            if stored_cpus is not None and current_cpus < stored_cpus:
                raise BaselineProvenanceError(
                    f"{path} was recorded on {stored_cpus} CPU(s); this "
                    f"machine has {current_cpus}. Overwriting would "
                    f"downgrade the baseline's provenance — re-record "
                    f"on a machine with >= {stored_cpus} CPUs, or pass "
                    f"--force to overwrite anyway."
                )
    doc = arena_metrics(n=n, n_dims=n_dims, repeats=repeats)
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
    return doc


def compare(
    path: str,
    n: int = 200_000,
    n_dims: int = 2,
    repeats: int = 9,
    min_arena: float = 1.2,
    min_batch: float = 2.0,
    slowdown: float = 10.0,
) -> PerfDrift:
    """Re-measure (typically at smaller ``n``) and diff the baseline.

    Enforces the portable ratios — arena speedup over the object path
    and ``query_batch`` speedup over sequential — against floors kept
    below the full-scale gates in ``benchmarks/bench_arena.py`` (CI
    machines are noisy and the compare ``n`` is smaller, which shrinks
    the descent share both claims feed on), and ``refine_scaling``
    against :data:`CI_MAX_REFINE_SCALING`.  Absolute per-query latency and
    per-row refinement cost are only graded against ``baseline *
    slowdown`` as an order-of-magnitude canary.
    """
    with open(path) as handle:
        stored = json.load(handle)
    current = arena_metrics(n=n, n_dims=n_dims, repeats=repeats)
    drift = PerfDrift(label="arena")

    arena_speedup = current["arena_speedup"]
    if arena_speedup < min_arena:
        drift.problems.append(
            f"arena converged lookup {arena_speedup:.2f}x over the object "
            f"tree is below the {min_arena:.2f}x floor"
        )
    else:
        drift.notes.append(f"arena lookup {arena_speedup:.2f}x over object")

    batch_speedup = current["batch_speedup"]
    if batch_speedup < min_batch:
        drift.problems.append(
            f"query_batch B={BATCH_SIZE} {batch_speedup:.2f}x over "
            f"sequential is below the {min_batch:.2f}x floor"
        )
    else:
        drift.notes.append(f"query_batch {batch_speedup:.2f}x over sequential")

    refine_scaling = current["refine_scaling"]
    if refine_scaling > CI_MAX_REFINE_SCALING:
        drift.problems.append(
            f"refinement ns/row at n is {refine_scaling:.2f}x its n/8 "
            f"value, above the {CI_MAX_REFINE_SCALING:.2f}x ceiling"
        )
    else:
        drift.notes.append(
            f"refinement ns/row scales {refine_scaling:.2f}x from n/8 to n"
        )

    for key, unit in (
        ("latency_us", "us/query"),
        ("batch_us", "us/query"),
        ("dense_batch_us", "us/query"),
        ("refine_ns_per_row", "ns/row"),
    ):
        for name, baseline in stored.get(key, {}).items():
            value = current[key].get(name)
            if value is None:
                continue
            if value > baseline * slowdown:
                drift.problems.append(
                    f"{key}/{name}: {value:.1f}{unit} vs baseline "
                    f"{baseline:.1f}{unit} (>{slowdown:g}x slower)"
                )
    return drift


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.arena_regression",
        description="Record or check the flat-arena perf baseline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="measure and write the baseline")
    rec.add_argument("path")
    rec.add_argument("--n", type=int, default=1_000_000)
    rec.add_argument("--n-dims", type=int, default=2)
    rec.add_argument("--repeats", type=int, default=9)
    rec.add_argument(
        "--force",
        action="store_true",
        help="overwrite the baseline even when it was recorded on a "
        "machine with more CPUs than this one",
    )
    cmp_ = sub.add_parser("compare", help="re-measure and diff the baseline")
    cmp_.add_argument("path")
    cmp_.add_argument("--n", type=int, default=200_000)
    cmp_.add_argument("--n-dims", type=int, default=2)
    cmp_.add_argument("--repeats", type=int, default=9)
    cmp_.add_argument("--min-arena", type=float, default=1.2)
    cmp_.add_argument("--min-batch", type=float, default=2.0)
    cmp_.add_argument("--slowdown", type=float, default=10.0)
    args = parser.parse_args(argv)
    if args.command == "record":
        try:
            doc = record(
                args.path, n=args.n, n_dims=args.n_dims,
                repeats=args.repeats, force=args.force,
            )
        except BaselineProvenanceError as error:
            print(f"record refused: {error}")
            return 1
        print(
            f"cpu_count: {doc['cpu_count']} (provenance for every "
            f"number below)"
        )
        print(f"arena lookup: {doc['arena_speedup']:.2f}x over object tree")
        print(
            f"query_batch B={doc['meta']['batch']}: "
            f"{doc['batch_speedup']:.2f}x over sequential"
        )
        print(
            f"dense query_batch: {doc['dense_batch_speedup']:.2f}x over "
            f"sequential"
        )
        print(
            f"refinement: {doc['refine_ns_per_row']['n']:.1f} ns/row at n, "
            f"{doc['refine_scaling']:.2f}x its n/8 value"
        )
        print(f"baseline written to {args.path}")
        return 0
    drift = compare(
        args.path,
        n=args.n,
        n_dims=args.n_dims,
        repeats=args.repeats,
        min_arena=args.min_arena,
        min_batch=args.min_batch,
        slowdown=args.slowdown,
    )
    print(drift)
    return 0 if drift.ok else 1


if __name__ == "__main__":
    sys.exit(main())
