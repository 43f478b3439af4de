"""Served-index benchmark: ``python3 perfbench/run.py --workload NAME``.

Options: ``--workload cold|hot|batch --seed N --seconds S --trace 0|1``.
Run it from the root of a source checkout.  The runner starts the
default server (``python -m repro.serve``) as a child process, drives it
from this one process over at most two connections, and checks every
answer against the frozen ``reference`` kernel backend (answers are
computed before timing starts).  It prints a report, then as its last
line one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced run with ``--trace 1``.  It exits
non-zero on any wrong answer, failed request or invariant finding.
perfbench/README.md defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
WORKLOADS = ("cold", "hot", "batch")
SETUP_REPEATS = 3

#: Metrics of the final JSON line: the end-to-end figures that every
#: workload has and whose run-to-run spread stays within the 0.25 bound
#: (README.md gives the spreads measured for the others).
END_TO_END = {
    "setup_s": "s",
    "qps": "queries/s",
}

#: Per-layer metrics of the final JSON line of a traced run: the layer
#: times every workload exercises, plus counts.  Layers only some
#: workloads reach are in the report and the result file.
PER_LAYER = {
    "protocol.encode_us": "us",
    "protocol.decode_us": "us",
    "protocol.response_bytes": "bytes",
    "protocol.checksum_us": "us",
    "serve.gap_us": "us",
    "serve.hop_us": "us",
    "serve.execute_self_us": "us",
    "admission.wait_us": "us",
    "admission.rejected": "count",
    "lock.write_wait_us": "us",
    "lock.write_hold_us": "us",
    "lock.write_wait_max_ms": "ms",
    "scheduler.slices": "count",
    "scheduler.rows": "rows",
    "scheduler.skipped": "count",
    "index.scanned_per_result": "ratio",
    "index.copied_rows": "elem/query",
    "index.swapped_rows": "elem/query",
    "index.lookup_nodes": "nodes/query",
    "cost_model.pricing_us": "us",
    "kernel.rows_per_call": "rows",
    "kernel.bytes_per_call": "bytes",
    "loadgen.lag_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}

#: Units of the report-only figures.
REPORT_UNITS = {
    "first_query_ms": "ms", "converge_s": "s", "latency_p90_ms": "ms",
    "server_rss_mb": "MiB",
    "query_p50_ms": "ms", "query_p95_ms": "ms", "query_p99_ms": "ms",
    "batch_p50_ms": "ms", "batch_p90_ms": "ms", "over_limit_frac": "ratio",
    "failed_frac": "ratio",
    "lock.read_wait_us": "us", "scheduler.slice_us": "us",
    "index.query_us": "us", "index.batch_us": "us",
    "arena.search_us": "us", "arena.probe_us": "us",
    "arena.search_batch_us": "us", "kdtree.search_us": "us",
    "executor.scan_range_us": "us", "executor.scan_pieces_us": "us",
    "executor.scan_match_sets_us": "us", "executor.scan_windows_us": "us",
    "kernel.range_scan_us": "us", "kernel.partition_us": "us",
}
UNITS = {**END_TO_END, **PER_LAYER, **REPORT_UNITS}

#: The tail percentile each workload reports (at least ten samples lie
#: beyond it at the workload's sample counts).
TAIL = {"cold": 95.0, "hot": 99.0, "batch": 90.0}


def _prepare_imports() -> None:
    """Import the package under test from this checkout, in its default
    configuration."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"perfbench: no package source under {src}")
    from harness import STRIPPED_ENV

    for name in STRIPPED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, src)


def provenance(args) -> Dict[str, object]:
    import numpy

    import drivers
    from repro import kernels

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip()
    except OSError:
        commit = ""
    parameters = {
        "cold": {"rate_qps": drivers.COLD_RATE, "patterns": drivers.COLD_PATTERNS,
                 "selectivity": drivers.COLD_SELECTIVITY,
                 "limit_ms": drivers.COLD_LIMIT_S * 1e3, "connections": 2},
        "hot": {"connections": drivers.HOT_CONNECTIONS, "patterns": ("random", "skewed"),
                "selectivity": drivers.HOT_SELECTIVITY,
                "snapshot_fraction": drivers.HOT_SNAPSHOT_FRACTION,
                "pool_per_connection": 2 * drivers.HOT_POOL},
        "batch": {"connections": 1, "batch_size": drivers.BATCH_SIZE,
                  "selectivities": drivers.BATCH_SELECTIVITIES, "pattern": "random"},
    }[args.workload]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "cpu_count": os.cpu_count(),
        "git_commit": commit or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": kernels.active_name(),
        "table": f"bench:uniform:{drivers.TABLE_ROWS}:{drivers.TABLE_DIMS}:{args.seed}",
        "parameters": parameters,
        "setup_repeats": SETUP_REPEATS if not args.trace else 1,
    }


# ----------------------------------------------------------- one pass


class Segment:
    """One server's life: set-up, a timed phase, the check op, stop."""

    def __init__(self, plan, seconds: float, index: int, spans_path: Optional[str]):
        import drivers

        setup = drivers.set_up(
            ROOT, OUT_DIR, plan, spans_path, spans_path is not None, index
        )
        try:
            self.setup_s = setup.seconds
            self.warm = setup.warm
            self.phase = drivers.RUNNERS[plan.workload](setup, plan, seconds)
            # Every verified request, warm-up included, counts for failures.
            self.checked = setup.warm_requests + self.phase.requests
            check = setup.callers[0].control("check")
            self.findings = int(check["problems"])
            self.finding_text = {k: v for k, v in check["findings"].items() if v}
            stats = setup.callers[0].control("stats")
            self.rejections = sum(stats["admission"]["rejections"].values())
            self.converged = [
                index["converged"]
                for session in stats["sessions"].values()
                for index in session["indexes"].values()
            ]
            self.rss_mb = setup.server.peak_rss_mb()
        finally:
            drivers.tear_down(setup)

    def elapsed(self) -> float:
        ends = [r.timing.end for r in self.phase.requests if r.timing is not None]
        return max(ends + [self.phase.end]) - self.phase.begin


class Pass:
    """Several segments, each on a freshly started server, pooled.

    Spreading the timed phase over several server processes gives the
    set-up time its several samples and keeps one process's state from
    setting the level of the whole run."""

    def __init__(self, plan, seconds: float, segments: int, spans_path: Optional[str] = None):
        self.segments = [
            Segment(plan, seconds / segments, i, spans_path) for i in range(segments)
        ]
        self.requests = [r for seg in self.segments for r in seg.phase.requests]
        self.checked = [r for seg in self.segments for r in seg.checked]
        self.sessions = [s for seg in self.segments for s in seg.phase.sessions]
        self.findings = sum(seg.findings for seg in self.segments)

    def answered(self):
        return [r for r in self.requests if r.ok]

    def qps(self) -> float:
        elapsed = sum(seg.elapsed() for seg in self.segments)
        return sum(r.queries for r in self.answered()) / elapsed

    def attempted(self) -> int:
        return sum(r.queries for r in self.checked)

    def failed(self) -> int:
        from summary import failures

        return failures(self.checked) + self.findings


def end_to_end(workload: str, run: Pass) -> Tuple[Dict[str, float], Dict[str, int]]:
    """The workload's end-to-end figures, and their sample counts."""
    import drivers
    from summary import failed_frac, median, over_limit_frac, percentile

    answered = run.answered()
    latencies = [r.latency * 1e3 for r in answered]
    tail = percentile(latencies, TAIL[workload])
    p50 = median(latencies)
    if workload == "cold":
        sessions = [s for s in run.sessions if s.first is not None and s.first.ok]
        firsts = [s.first.latency * 1e3 for s in sessions]
        converges = [s.converge_s for s in sessions if s.converge_s is not None]
    else:
        warms = [seg.warm for seg in run.segments]
        firsts = [w.first.latency * 1e3 for w in warms]
        converges = [w.converge_s for w in warms]
    figures = {
        "setup_s": median([seg.setup_s for seg in run.segments]),
        "first_query_ms": median(firsts),
        "converge_s": median(converges),
        "latency_p90_ms": percentile(latencies, 90.0),
        "qps": run.qps(),
        "server_rss_mb": median([seg.rss_mb for seg in run.segments]),
        "failed_frac": failed_frac(run.checked, run.findings),
    }
    counts = {
        "setup_s": len(run.segments), "first_query_ms": len(firsts),
        "converge_s": len(converges), "latency_p90_ms": len(latencies),
        "qps": len(answered),
        "server_rss_mb": len(run.segments), "failed_frac": run.attempted(),
    }
    named = {"cold": ("query_p50_ms", "query_p95_ms"),
             "hot": ("query_p50_ms", "query_p99_ms"),
             "batch": ("batch_p50_ms", "batch_p90_ms")}[workload]
    figures[named[0]], figures[named[1]] = p50, tail
    counts[named[0]] = counts[named[1]] = len(latencies)
    if workload == "cold":
        figures["over_limit_frac"] = over_limit_frac(run.requests, drivers.COLD_LIMIT_S)
        counts["over_limit_frac"] = len(run.requests)
    return figures, counts


def program_counts(run: Pass) -> Dict[str, object]:
    """Counts the program reports without tracing."""
    from summary import median

    gaps = [
        (r.timing.latency - r.server_seconds) * 1e6
        for r in run.answered()
    ]
    lags = [r.lag * 1e3 for r in run.requests if r.timing is not None]
    ledger = {
        key: sum(seg.phase.ledger[key] for seg in run.segments)
        for key in ("slices", "rows", "skipped")
    }
    converged = [flag for seg in run.segments for flag in seg.converged]
    return {
        "serve.gap_us": median(gaps),
        "loadgen.lag_ms": median(lags),
        "scheduler.slices": ledger["slices"],
        "scheduler.rows": ledger["rows"],
        "scheduler.skipped": ledger["skipped"],
        "admission.rejected": sum(seg.rejections for seg in run.segments),
        "indexes_converged_at_end": f"{sum(converged)}/{len(converged)}",
    }


# -------------------------------------------------------------- report


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report(title: str, figures: Dict[str, object], counts: Dict[str, int]) -> None:
    print(f"== {title}")
    for name, value in figures.items():
        unit = UNITS.get(name, "")
        samples = f"  (n={counts[name]})" if name in counts else ""
        print(f"  {name:30s} {_fmt(value):>14s} {unit}{samples}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _prepare_imports()
    import drivers
    import summary

    os.makedirs(OUT_DIR, exist_ok=True)
    record = {"provenance": provenance(args)}
    print("provenance " + json.dumps(record["provenance"]))
    started = time.perf_counter()
    plan = drivers.build_plan(args.workload, args.seed)
    print(f"oracle answers computed in {time.perf_counter() - started:.2f} s (untimed)")

    if not args.trace:
        run = Pass(plan, args.seconds, SETUP_REPEATS, None)
        figures, counts = end_to_end(args.workload, run)
        report(f"{args.workload}: end-to-end (tracing off)", figures, counts)
        extra = program_counts(run)
        report(f"{args.workload}: program-reported counts", extra, {})
        metrics = {name: figures[name] for name in END_TO_END}
        units = END_TO_END
        runs = [run]
        record.update(end_to_end=figures, samples=counts, program=extra)
    else:
        # One server each: an untraced reference, then the traced run.
        untraced = Pass(plan, args.seconds, 1)
        base, _ = end_to_end(args.workload, untraced)
        spans_path = os.path.join(OUT_DIR, f"spans-{os.getpid()}.json")
        traced = Pass(plan, args.seconds, 1, spans_path)
        figures, counts = end_to_end(args.workload, traced)
        with open(spans_path) as handle:
            doc = json.load(handle)
        os.remove(spans_path)
        segment = traced.segments[0]
        window = (segment.phase.begin, segment.phase.begin + segment.elapsed())
        layers = summary.layer_metrics(doc, traced.requests, window)
        layers.update(program_counts(traced))
        if args.workload == "cold":  # open loop: the offered rate is fixed
            overhead = figures["query_p50_ms"] / base["query_p50_ms"] - 1.0
        else:
            overhead = 1.0 - figures["qps"] / base["qps"]
        layers["trace.overhead_frac"] = overhead
        report(f"{args.workload}: untraced reference", base, {})
        report(f"{args.workload}: traced run, end-to-end", figures, counts)
        report(f"{args.workload}: per-layer (traced run)", layers, {})
        metrics = {name: layers[name] for name in PER_LAYER}
        units = PER_LAYER
        runs = [untraced, traced]
        record.update(untraced=base, traced=figures, per_layer=layers)

    attempted = sum(r.attempted() for r in runs)
    failed = sum(r.failed() for r in runs)
    for run in runs:
        for request in run.checked:
            if not request.ok:
                print(f"FAILED {request.rid}: {request.error or f'{request.wrong} wrong answers'}")
        for seg in run.segments:
            if seg.findings:
                print(f"INVARIANT FINDINGS: {seg.finding_text}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    record["result"] = result
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as handle:
        json.dump(record, handle, indent=1, default=str)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
