"""Flat-arena benchmarks: converged lookup, batch throughput, refinement.

Four gates ride on the arena-era GPKD (:mod:`repro.core.arena`) at full
benchmarking scale (N=1e6):

* the arena-backed converged lookup must beat the object-tree lookup by
  >= 1.5x per query (vectorized descent + window scan vs node-by-node
  Python traversal), and
* ``query_batch`` at B=64 must beat one-at-a-time ``query`` by >= 3x on
  a converged arena-backed GPKD (one shared descent pass and one scan
  fan-out per batch), and
* over dense windows (selectivity 1e-2, threshold 1024) ``query_batch``
  must not lose to one-at-a-time ``query`` (>= 1.0x, a fixed floor):
  the batch routes dense leaf windows through the same fused kernel, and
* refining a fresh GPKD to convergence with full-domain slices must cost
  at most 1.5x as many ns per row at N as at N/8 (a fixed ceiling): the
  piece pick for a full-domain probe must not walk the tree.

Every ratio is measured interleaved best-of-N in the same process —
the machine drifts between fast and slow clock modes, and block timing
would bias the ratios.  ``REPRO_BENCH_ARENA_N`` scales the row count
down for smoke runs, and ``REPRO_BENCH_ARENA_MIN`` /
``REPRO_BENCH_BATCH_MIN`` relax the floors for noisy CI runners.
"""

import os

from _bench_utils import emit

from repro.bench.arena_regression import (
    BATCH_SIZE,
    BATCH_THRESHOLD,
    DENSE_SELECTIVITY,
    LATENCY_THRESHOLD,
    arena_metrics,
)
from repro.bench.report import format_table

N = int(os.environ.get("REPRO_BENCH_ARENA_N", "1000000"))
# Full-scale gates; the CI smoke lowers them via env (smaller N shrinks
# the descent share both ratios feed on, and CI machines are noisy).
MIN_ARENA_SPEEDUP = float(os.environ.get("REPRO_BENCH_ARENA_MIN", "1.5"))
MIN_BATCH_SPEEDUP = float(os.environ.get("REPRO_BENCH_BATCH_MIN", "3.0"))
# Batching dense windows must never be slower than sending the queries
# one by one; no override.
MIN_DENSE_BATCH_SPEEDUP = 1.0
# Per-row refinement cost may grow at most this much over an 8x larger
# table; no override.
MAX_REFINE_SCALING = 1.5


def test_arena_lookup_and_batch(benchmark, results_dir):
    doc = benchmark.pedantic(
        lambda: arena_metrics(n=N), rounds=1, iterations=1
    )
    latency_rows = [
        [name, doc["latency_us"][name]] for name in ("object", "arena")
    ]
    latency_rows.append(["speedup", doc["arena_speedup"]])
    batch_rows = [
        [name, doc["batch_us"][name]] for name in ("sequential", "batch")
    ]
    batch_rows.append(["speedup", doc["batch_speedup"]])
    dense_rows = [
        [name, doc["dense_batch_us"][name]] for name in ("sequential", "batch")
    ]
    dense_rows.append(["speedup", doc["dense_batch_speedup"]])
    refine_rows = [
        [f"{name} rows", ns] for name, ns in doc["refine_ns_per_row"].items()
    ]
    refine_rows.append(["n / (n/8)", doc["refine_scaling"]])
    text = (
        format_table(
            f"Converged GPKD lookup, N={N:,}, "
            f"threshold={LATENCY_THRESHOLD} (us/query)",
            ["path", "value"],
            latency_rows,
        )
        + "\n\n"
        + format_table(
            f"query_batch B={BATCH_SIZE}, N={N:,}, "
            f"threshold={BATCH_THRESHOLD} (us/query)",
            ["path", "value"],
            batch_rows,
        )
        + "\n\n"
        + format_table(
            f"query_batch B={BATCH_SIZE}, N={N:,}, "
            f"threshold={LATENCY_THRESHOLD}, "
            f"selectivity={DENSE_SELECTIVITY:g} (us/query)",
            ["path", "value"],
            dense_rows,
        )
        + "\n\n"
        + format_table(
            f"Full-domain refinement to convergence, N={N:,}, "
            f"threshold={LATENCY_THRESHOLD} (ns/row)",
            ["rows", "value"],
            refine_rows,
        )
    )
    emit(results_dir, "arena.txt", text)
    assert doc["arena_speedup"] >= MIN_ARENA_SPEEDUP, (
        f"arena lookup {doc['arena_speedup']:.2f}x over the object tree "
        f"is below the {MIN_ARENA_SPEEDUP}x gate"
    )
    assert doc["batch_speedup"] >= MIN_BATCH_SPEEDUP, (
        f"query_batch B={BATCH_SIZE} {doc['batch_speedup']:.2f}x over "
        f"sequential is below the {MIN_BATCH_SPEEDUP}x gate"
    )
    assert doc["dense_batch_speedup"] >= MIN_DENSE_BATCH_SPEEDUP, (
        f"dense query_batch B={BATCH_SIZE} {doc['dense_batch_speedup']:.2f}x "
        f"over sequential is below the {MIN_DENSE_BATCH_SPEEDUP}x gate"
    )
    assert doc["refine_scaling"] <= MAX_REFINE_SCALING, (
        f"refinement ns/row at N is {doc['refine_scaling']:.2f}x its N/8 "
        f"value, above the {MAX_REFINE_SCALING}x gate"
    )
