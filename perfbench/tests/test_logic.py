"""Tests of the benchmark's own arithmetic (no server is started).

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import json
import os

import pytest

import run
from harness import Timing
from spans import SpanRecorder, covered_share, self_times, union_length
from summary import (
    Request,
    failed_frac,
    failures,
    layer_metrics,
    min_samples_for,
    over_limit_frac,
    percentile,
    verify,
)


def _request(kind="query", queries=1, due=0.0, open_loop=False, start=None,
             end=1.0, rid="r1"):
    start = due if start is None else start
    timing = Timing(start, start, end, end)
    return Request(rid, kind, queries, due, open_loop, timing)


# ---------------------------------------------------- tail percentiles


def test_tail_needs_ten_samples_beyond_it():
    assert min_samples_for(95) == 200
    assert min_samples_for(99) == 1000
    assert min_samples_for(90) == 100
    with pytest.raises(ValueError):
        percentile(list(range(199)), 95)
    values = list(range(1, 201))
    assert percentile(values, 95) == 190  # ten samples lie above it
    assert sum(v > percentile(values, 95) for v in values) == 10


def test_median_is_exempt_from_the_tail_rule():
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0


# ---------------------------------------------------------- self time


def test_self_time_subtracts_children_once_and_clips_them():
    spans = [
        (1, 0, "outer", 0.0, 10.0, "t", None),
        (2, 1, "a", 1.0, 4.0, "t", None),
        (3, 1, "b", 3.0, 6.0, "t", None),  # overlaps a: 1..6 counted once
        (4, 2, "leaf", 2.0, 3.0, "t", None),
        (5, 1, "late", 9.0, 12.0, "t", None),  # clipped to the parent's end
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)


def test_recorder_nests_spans_by_call_stack():
    recorder = SpanRecorder()
    inner = recorder.wrap("inner", lambda: 1)
    outer = recorder.wrap("outer", lambda: inner() + 1)
    assert outer() == 2
    by_name = {span[2]: span for span in recorder.spans}
    assert by_name["inner"][1] == by_name["outer"][0]
    assert by_name["outer"][1] == 0


def test_union_and_coverage():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert covered_share((0, 10), [(-5, 2), (8, 20)]) == pytest.approx(0.4)


# ----------------------------------------------------------- open loop


def test_open_loop_latency_counts_from_the_due_time():
    late = _request(due=1.0, open_loop=True, start=1.5, end=1.8)
    assert late.latency == pytest.approx(0.8)
    assert late.lag == pytest.approx(0.5)
    closed = _request(due=1.0, open_loop=False, start=1.5, end=1.8)
    assert closed.latency == pytest.approx(0.3)


def test_stall_charges_the_queries_queued_behind_it():
    # One query stalls 1 s; the next, due 50 ms later, can only be sent
    # when the stall ends and is charged the wait.
    stalled = _request(due=0.0, open_loop=True, start=0.0, end=1.0, rid="a")
    queued = _request(due=0.05, open_loop=True, start=1.0, end=1.001, rid="b")
    for request in (stalled, queued):
        request.ok = True
    assert queued.latency == pytest.approx(0.951)
    assert over_limit_frac([stalled, queued], 0.100) == 1.0


# ------------------------------------------------------------ failures


def test_wrong_answer_raises_failed_frac():
    good, bad = _request(rid="a"), _request(rid="b")
    verify(good, {"ok": True, "count": 3, "checksum": "x", "seconds": 0.1}, [(3, "x")])
    verify(bad, {"ok": True, "count": 3, "checksum": "y", "seconds": 0.1}, [(3, "x")])
    assert good.ok and not bad.ok and bad.wrong == 1
    assert failed_frac([good, bad]) == pytest.approx(0.5)


def test_error_frames_rejections_and_findings_count_as_failed():
    error = _request(kind="batch", queries=64, rid="a")
    verify(error, {"ok": False, "error": "internal", "detail": "boom"}, [(0, "")] * 64)
    rejected = _request(rid="b")
    verify(rejected, {"ok": False, "error": "admission", "detail": "", "retry": True}, [(0, "")])
    timeout = Request("c", "query", 1, 0.0, False)
    timeout.error = "transport: timed out"
    assert error.error.startswith("error") and rejected.error.startswith("rejected")
    requests = [error, rejected, timeout]
    assert failures(requests) == 66
    assert failed_frac(requests, findings=0) == pytest.approx(1.0)
    ok = _request(rid="d")
    verify(ok, {"ok": True, "count": 1, "checksum": "z", "seconds": 0.0}, [(1, "z")])
    assert failed_frac([ok], findings=2) == pytest.approx(2.0)
    assert over_limit_frac([rejected, ok], 10.0) == pytest.approx(0.5)


# -------------------------------------------------------- traced run


def test_layer_metrics_attribute_one_request():
    # Client 0..10 ms; server decode 1..2, execute 3..8 (index 4..7 with
    # a kernel call 5..6), encode 8.5..9; client framing 0..0.5, 9.5..10.
    ms = 1e-3
    doc = {
        "spans": [
            (1, 0, "protocol.decode", 1 * ms, 2 * ms, "loop", {"rid": "q", "op": "query", "bytes": 90}),
            (2, 0, "serve.execute_query", 3 * ms, 8 * ms, "repro-serve_0", {"rid": "q"}),
            (3, 2, "index.query", 4 * ms, 7 * ms, "repro-serve_0",
             {"n": 1, "scanned": 30, "copied": 0, "swapped": 0, "lookup_nodes": 5, "results": 10}),
            (4, 3, "kernel.range_scan", 5 * ms, 6 * ms, "repro-serve_0", {"rows": 100, "columns": 3}),
            (5, 0, "protocol.encode", 8.5 * ms, 9 * ms, "loop", {"rid": "q", "bytes": 120}),
        ],
        "holds": [],
    }
    request = Request("q", "query", 1, 0.0, False, Timing(0.0, 0.5 * ms, 9.5 * ms, 10 * ms))
    request.ok = True
    layers = layer_metrics(doc, [request], (0.0, 1.0))
    assert layers["serve.hop_us"] == pytest.approx(1000.0)
    assert layers["serve.execute_self_us"] == pytest.approx(2000.0)
    assert layers["index.query_us"] == pytest.approx(2000.0)
    assert layers["kernel.bytes_per_call"] == pytest.approx(2400.0)
    assert layers["index.scanned_per_result"] == pytest.approx(3.0)
    # Uncovered: 0.5..1 and 8..8.5 and 9..9.5 -> 1.5 of 10 ms.
    assert layers["trace.unattributed_frac"] == pytest.approx(0.15)


# ------------------------------------------------------------ contract


def test_benchmark_json_names_what_the_runner_prints():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
