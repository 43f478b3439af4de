"""Pure arithmetic of the benchmark: percentiles, request outcomes and
the per-layer figures derived from a traced run's spans."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from spans import covered_share, self_times

#: Tail samples a percentile needs beyond it before it may be reported.
TAIL_SAMPLES = 10


def min_samples_for(percentile: float) -> int:
    """Smallest sample count with at least ``TAIL_SAMPLES`` beyond the
    ``percentile``-th percentile (200 for p95, 1000 for p99)."""
    return math.ceil(TAIL_SAMPLES / (1.0 - percentile / 100.0) - 1e-9)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile; raises ``ValueError`` when fewer than
    ``TAIL_SAMPLES`` samples lie beyond it (the median is exempt)."""
    if not values:
        raise ValueError("no samples")
    n = len(values)
    if pct > 50.0 and n < min_samples_for(pct):
        raise ValueError(
            f"p{pct:g} needs {min_samples_for(pct)} samples, have {n}"
        )
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("no samples")
    return statistics.median(values)


@dataclass
class Request:
    """One timed request as the generator saw it."""

    rid: str
    kind: str  # "query" or "batch"
    queries: int  # queries answered by this request (64 for a batch)
    due: float  # when it was due (open loop) or could first be sent
    open_loop: bool
    timing: object = None  # harness.Timing; None if it never returned
    ok: bool = False
    wrong: int = 0  # answers that differ from the oracle
    error: Optional[str] = None  # error frame / rejection / timeout
    server_seconds: Optional[float] = None

    @property
    def latency(self) -> float:
        """Seconds to the decoded response: from the due time in an open
        loop, from the start of sending in a closed one."""
        begin = self.due if self.open_loop else self.timing.start
        return self.timing.end - begin

    @property
    def lag(self) -> float:
        """How late the generator started sending it."""
        return self.timing.start - self.due


def verify(request: Request, response: Dict[str, object], expected) -> None:
    """Mark ``request`` against the oracle's ``(count, checksum)`` list."""
    if not response.get("ok"):
        kind = "rejected" if response.get("retry") else "error"
        request.error = f"{kind}: {response.get('error')}: {response.get('detail')}"
        return
    answers = response["results"] if request.kind == "batch" else [response]
    if len(answers) != len(expected):
        request.error = f"{len(answers)} answers for {len(expected)} queries"
        return
    request.wrong = sum(
        int(answer["count"]) != count or answer["checksum"] != checksum
        for answer, (count, checksum) in zip(answers, expected)
    )
    request.server_seconds = float(response["seconds"])
    request.ok = request.wrong == 0


def failures(requests: Iterable[Request]) -> int:
    """Wrong answers + error frames + rejections + timeouts, in queries."""
    total = 0
    for request in requests:
        if request.error is not None:
            total += request.queries
        else:
            total += request.wrong
    return total


def failed_frac(requests: Sequence[Request], findings: int = 0) -> float:
    """Failures (plus invariant findings) per attempted query."""
    attempted = sum(r.queries for r in requests)
    return (failures(requests) + findings) / max(1, attempted)


def over_limit_frac(requests: Sequence[Request], limit_s: float) -> float:
    """Share of requests slower than ``limit_s`` from their due time; a
    failed request counts as over."""
    if not requests:
        raise ValueError("no requests")
    over = sum(
        (not r.ok) or r.timing is None or r.latency > limit_s for r in requests
    )
    return over / len(requests)


# --------------------------------------------------------- traced run


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _match_requests(spans, requests):
    """rid -> (decode span, execute span, encode span) for the timed
    requests.  Queries carry their rid into ``execute_query``; batches
    do not, so batch executions pair with batch decodes in arrival
    order (one connection sends batches, so the order is exact)."""
    decode, encode, execute = {}, {}, {}
    batch_decodes, batch_executes = [], []
    for span in spans:
        name, attrs = span[2], span[6] or {}
        if name == "protocol.decode":
            decode[attrs.get("rid")] = span
            if attrs.get("op") == "batch":
                batch_decodes.append(span)
        elif name == "protocol.encode":
            encode[attrs.get("rid")] = span
        elif name == "serve.execute_query":
            execute[attrs.get("rid")] = span
        elif name == "serve.execute_batch":
            batch_executes.append(span)
    batch_decodes.sort(key=lambda s: s[3])
    batch_executes.sort(key=lambda s: s[3])
    for dec, exe in zip(batch_decodes, batch_executes):
        execute[(dec[6] or {}).get("rid")] = exe
    matched = {}
    for request in requests:
        parts = (decode.get(request.rid), execute.get(request.rid), encode.get(request.rid))
        if all(parts):
            matched[request.rid] = parts
    return matched


def unattributed_frac(requests: Sequence[Request], matched) -> float:
    """Share of client latency (start of encode to end of decode) that no
    named span covers: client framing, server decode, executor hop,
    execution and server encode count as named."""
    total = uncovered = 0.0
    for request in requests:
        parts = matched.get(request.rid)
        if parts is None or request.timing is None:
            continue
        timing = request.timing
        dec, exe, enc = parts
        intervals = [
            (timing.start, timing.sent),
            (timing.received, timing.end),
            (dec[3], dec[4]),
            (dec[4], exe[3]),  # the executor hop
            (exe[3], exe[4]),
            (enc[3], enc[4]),
        ]
        window = (timing.start, timing.end)
        span = window[1] - window[0]
        total += span
        uncovered += span * (1.0 - covered_share(window, intervals))
    return uncovered / total if total else 0.0


def layer_metrics(
    doc: Dict[str, object],
    requests: Sequence[Request],
    window: Tuple[float, float],
) -> Dict[str, float]:
    """Per-layer figures of one traced timed phase (spans starting
    inside ``window``).  Times are means per call in microseconds unless
    the name says otherwise; a layer the phase never called reads 0."""
    all_spans = [tuple(span) for span in doc["spans"]]
    selfs = self_times(all_spans)
    low, high = window
    spans = [s for s in all_spans if low <= s[3] <= high]
    by_name: Dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span[2], []).append(span)

    def durations(name, threads=None):
        return [
            (s[4] - s[3]) * 1e6
            for s in by_name.get(name, ())
            if threads is None or s[5].startswith(threads)
        ]

    def self_us(*names):
        return _mean([selfs[s[0]] * 1e6 for n in names for s in by_name.get(n, ())])

    request_threads = "repro-serve_"  # the server's executor pool
    timed = [r for r in requests if r.timing is not None]
    n = max(1, len(timed))
    matched = _match_requests(all_spans, timed)
    hops = [(exe[3] - dec[4]) * 1e6 for dec, exe, _enc in matched.values()]
    write_waits = durations("lock.acquire_write", request_threads)
    holds = [
        (end - start) * 1e6
        for start, end, thread in doc["holds"]
        if low <= start <= high and thread.startswith(request_threads)
    ]
    index_spans = by_name.get("index.query", []) + by_name.get("index.query_batch", [])
    index_totals = {"n": 0, "scanned": 0, "copied": 0, "swapped": 0,
                    "lookup_nodes": 0, "results": 0}
    for span in index_spans:
        for key in index_totals:
            index_totals[key] += (span[6] or {}).get(key, 0)
    queries = max(1, index_totals["n"])
    kernels = by_name.get("kernel.range_scan", [])
    kernel_rows = [(s[6] or {}).get("rows", 0) for s in kernels]
    kernel_bytes = [
        (s[6] or {}).get("rows", 0) * (s[6] or {}).get("columns", 0) * 8
        for s in kernels
    ]
    client_encode = sum((r.timing.sent - r.timing.start) for r in timed) / n * 1e6
    client_decode = sum((r.timing.end - r.timing.received) for r in timed) / n * 1e6
    encodes = by_name.get("protocol.encode", [])
    return {
        "protocol.encode_us": _mean(durations("protocol.encode")) + client_encode,
        "protocol.decode_us": _mean(durations("protocol.decode")) + client_decode,
        "protocol.response_bytes": _mean([(s[6] or {}).get("bytes", 0) for s in encodes]),
        "protocol.checksum_us": _mean(durations("protocol.checksum")),
        "serve.hop_us": median(hops) if hops else 0.0,
        "serve.execute_self_us": self_us("serve.execute_query", "serve.execute_batch"),
        "admission.wait_us": _mean(durations("admission.inflight")),
        "lock.write_wait_us": _mean(write_waits),
        "lock.read_wait_us": _mean(durations("lock.acquire_read", request_threads)),
        "lock.write_hold_us": _mean(holds),
        "lock.write_wait_max_ms": max(write_waits) / 1e3 if write_waits else 0.0,
        "scheduler.slice_us": _mean(durations("scheduler.slice")),
        "index.query_us": self_us("index.query"),
        "index.batch_us": self_us("index.query_batch"),
        "index.scanned_per_result": index_totals["scanned"] / max(1, index_totals["results"]),
        "index.copied_rows": index_totals["copied"] / queries,
        "index.swapped_rows": index_totals["swapped"] / queries,
        "index.lookup_nodes": index_totals["lookup_nodes"] / queries,
        "cost_model.pricing_us": self_us("cost_model.pricing"),
        "arena.search_us": self_us("arena.search"),
        "arena.probe_us": self_us("arena.probe"),
        "arena.search_batch_us": self_us("arena.search_batch"),
        "kdtree.search_us": self_us("kdtree.search"),
        "executor.scan_range_us": self_us("executor.scan_range"),
        "executor.scan_pieces_us": self_us("executor.scan_pieces"),
        "executor.scan_match_sets_us": self_us("executor.scan_match_sets"),
        "executor.scan_windows_us": self_us("executor.scan_windows"),
        "kernel.range_scan_us": _mean(durations("kernel.range_scan")),
        "kernel.rows_per_call": _mean(kernel_rows),
        "kernel.bytes_per_call": _mean(kernel_bytes),
        "kernel.partition_us": _mean(durations("kernel.partition")),
        "trace.unattributed_frac": unattributed_frac(timed, matched),
    }
