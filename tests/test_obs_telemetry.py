"""The serving telemetry plane: exposition, SLOs, watchdog, traces, top.

Covers what PR 7 bolted onto the obs layer and the server:

* Prometheus text exposition — render/parse round trip, cumulative
  histogram buckets, the live HTTP exporter endpoint;
* the metrics registry under concurrent hammer (snapshots are never
  torn) and the reset-generation contract hot call sites cache by;
* contended-only lock wait histograms;
* the SLO engine (objectives, compliance, burn rate) and the watchdog's
  edge-triggered pathology events, driven by an injected clock;
* end-to-end request tracing over a real socket: one ``serve.query``
  root per request id, phase children, and the query->refinement
  funding link;
* the ``obs top`` dashboard renderer on synthetic scrapes.
"""

from __future__ import annotations

import threading
import urllib.error
import urllib.request

import pytest

import repro.obs as obs
from repro.obs import metrics as obs_metrics
from repro.obs.export import (
    CONTENT_TYPE,
    MetricsExporter,
    parse_exposition,
    render_exposition,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.sink import ListSink
from repro.obs.slo import SLOConfig, SLOEngine, Watchdog
from repro.obs.top import render_dashboard
from repro.serve import (
    IndexServer,
    PieceSnapshotLock,
    ServeClient,
    ServerThread,
    TableSpec,
)


@pytest.fixture(autouse=True)
def obs_off():
    """Every test starts and ends with observability fully off."""
    obs.disable()
    obs.REGISTRY.reset()
    yield
    obs.disable()
    obs.REGISTRY.reset()


def spans(records, name=None):
    found = [r for r in records if r["type"] == "span"]
    if name is not None:
        found = [r for r in found if r["name"] == name]
    return found


# ---------------------------------------------------------------- exposition


class TestExposition:
    def test_counter_gauge_histogram_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("serve.queries", tenant="t0", mode="adaptive").inc(7)
        registry.gauge("serve.open_pieces", index="t0/t/c0").set(12)
        histogram = registry.histogram("serve.query_seconds", tenant="t0")
        histogram.observe(0.0005)
        histogram.observe(0.02)
        histogram.observe(0.02)
        text = render_exposition(registry)
        scrape = parse_exposition(text)
        assert (
            scrape.get("repro_serve_queries", tenant="t0", mode="adaptive")
            == 7
        )
        assert scrape.get("repro_serve_open_pieces", index="t0/t/c0") == 12
        assert scrape.get("repro_serve_query_seconds_count", tenant="t0") == 3
        assert scrape.get(
            "repro_serve_query_seconds_sum", tenant="t0"
        ) == pytest.approx(0.0405)
        assert scrape.types["repro_serve_queries"] == "counter"
        assert scrape.types["repro_serve_query_seconds"] == "histogram"

    def test_histogram_buckets_are_cumulative_and_capped_by_inf(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        for value in (1e-7, 1e-7, 0.005, 50.0):  # two tiny, one mid, one huge
            histogram.observe(value)
        scrape = parse_exposition(render_exposition(registry))
        series = scrape.series("repro_h_bucket")
        by_bound = {dict(key)["le"]: count for key, count in series.items()}
        assert by_bound["1e-06"] == 2
        assert by_bound["0.01"] == 3  # cumulative: includes the tiny two
        assert by_bound["10"] == 3  # the 50s observation is beyond 10s
        assert by_bound["+Inf"] == 4  # always the total count
        values = [by_bound[k] for k in sorted(by_bound, key=lambda b: float("inf") if b == "+Inf" else float(b))]
        assert values == sorted(values), "buckets must be monotone"

    def test_unset_gauges_are_skipped(self):
        registry = MetricsRegistry()
        registry.gauge("maybe")  # never .set()
        registry.counter("real").inc()
        text = render_exposition(registry)
        assert "repro_maybe" not in text
        assert "repro_real 1" in text

    def test_names_and_labels_are_sanitised(self):
        registry = MetricsRegistry()
        registry.counter("index.zone-map.pruned", **{"index": 'a"b\\c'}).inc()
        text = render_exposition(registry)
        scrape = parse_exposition(text)  # must not raise
        assert scrape.get("repro_index_zone_map_pruned", index='a"b\\c') == 1

    def test_histogram_quantile_from_scrape(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", tenant="t")
        for _ in range(99):
            histogram.observe(0.0005)  # le=0.001 bucket
        histogram.observe(0.5)  # le=1.0 bucket
        scrape = parse_exposition(render_exposition(registry))
        assert scrape.histogram_quantile("repro_lat", 0.5, tenant="t") == 0.001
        assert scrape.histogram_quantile("repro_lat", 0.999, tenant="t") == 1.0
        assert scrape.histogram_quantile("repro_lat", 0.5, tenant="no") is None


class TestExporterEndpoint:
    def test_serves_registry_over_http(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(3)
        with MetricsExporter(port=0, registry=registry) as exporter:
            with urllib.request.urlopen(exporter.url, timeout=5) as response:
                assert response.headers["Content-Type"] == CONTENT_TYPE
                body = response.read().decode("utf-8")
        assert parse_exposition(body).get("repro_hits") == 3

    def test_extra_exposition_is_appended(self):
        registry = MetricsRegistry()
        with MetricsExporter(
            port=0, registry=registry, extra=lambda: "extra_family 42"
        ) as exporter:
            with urllib.request.urlopen(exporter.url, timeout=5) as response:
                body = response.read().decode("utf-8")
        assert parse_exposition(body).get("extra_family") == 42

    def test_unknown_path_is_404(self):
        with MetricsExporter(port=0, registry=MetricsRegistry()) as exporter:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    exporter.url.replace("/metrics", "/nope"), timeout=5
                )
            assert excinfo.value.code == 404


# ------------------------------------------------------- registry under fire


class TestRegistryHammer:
    def test_concurrent_feeds_and_scrapes_never_tear(self):
        """Executor threads hammer one histogram and one counter while a
        scrape loop renders; every observed histogram state must be
        internally consistent (bucket sum == count) and the final totals
        exact — the registry's documented thread-safety contract."""
        registry = MetricsRegistry()
        per_thread, n_threads = 2_000, 4
        start = threading.Barrier(n_threads + 1)
        errors = []

        def feeder(seed):
            histogram = registry.histogram("lat", tenant=f"t{seed % 2}")
            counter = registry.counter("hits")
            start.wait()
            for i in range(per_thread):
                histogram.observe((i % 7) * 1e-4)
                counter.inc()

        threads = [
            threading.Thread(target=feeder, args=(seed,))
            for seed in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        start.wait()
        for _ in range(50):  # scrape while they feed
            for key, metric in registry.items():
                if metric.kind == "histogram":
                    _, buckets, count, _ = metric.export_state()
                    if sum(buckets) != count:
                        errors.append((key, sum(buckets), count))
            render_exposition(registry)  # must not raise mid-churn
        for thread in threads:
            thread.join()
        assert not errors, f"torn histogram reads: {errors[:3]}"
        assert registry.counter("hits").snapshot() == per_thread * n_threads
        total = sum(
            metric.snapshot()["count"]
            for _, metric in registry.items()
            if metric.kind == "histogram"
        )
        assert total == per_thread * n_threads

    def test_reset_bumps_generation_for_handle_caches(self):
        """Hot call sites cache instrument handles keyed by the registry
        generation; reset() must invalidate them so a stale pre-reset
        handle (invisible to scrapes) is never fed again."""
        registry = MetricsRegistry()
        generation = registry.generation
        stale = registry.counter("c")
        registry.reset()
        assert registry.generation == generation + 1
        fresh = registry.counter("c")
        assert fresh is not stale
        stale.inc()  # feeding the stale handle must not reach the registry
        assert fresh.snapshot() == 0


# ------------------------------------------------------- lock wait histograms


class TestLockWaitMetrics:
    def test_uncontended_acquisitions_skip_the_wait_histogram(self):
        obs_metrics.enable()
        lock = PieceSnapshotLock(name="t/idx")
        with lock.read():
            pass
        with lock.write():
            pass
        keys = obs.REGISTRY.names()
        assert not any("read_wait" in key or "write_wait" in key for key in keys)
        # Holds are always recorded — they are the snapshot-duration story.
        assert "lock.read_hold_seconds{index=t/idx}" in keys
        assert "lock.write_hold_seconds{index=t/idx}" in keys

    def test_contended_wait_lands_in_the_histogram(self):
        obs_metrics.enable()
        lock = PieceSnapshotLock(name="t/idx")
        lock.acquire_read()
        acquired = threading.Event()

        def writer():
            lock.acquire_write()
            acquired.set()
            lock.release_write()

        thread = threading.Thread(target=writer)
        thread.start()
        import time as _time

        _time.sleep(0.05)  # let the writer block behind the reader
        lock.release_read()
        assert acquired.wait(timeout=5)
        thread.join(timeout=5)
        histogram = obs.REGISTRY.histogram(
            "lock.write_wait_seconds", index="t/idx"
        )
        assert histogram.count == 1
        assert histogram.maximum >= 0.04
        assert lock.drain_max_wait() >= 0.04

    def test_failed_tries_skip_the_wait_histograms(self):
        obs_metrics.enable()
        lock = PieceSnapshotLock(name="t/idx")
        with lock.write():
            assert lock.acquire_read(blocking=False) is False
        with lock.read():
            assert lock.acquire_write(timeout=0) is False
        keys = obs.REGISTRY.names()
        assert not any("read_wait" in key or "write_wait" in key for key in keys)
        assert lock.drain_max_wait() < 0.01

    def test_anonymous_locks_never_touch_the_registry(self):
        obs_metrics.enable()
        lock = PieceSnapshotLock()  # no name
        with lock.read():
            pass
        with lock.write():
            pass
        assert len(obs.REGISTRY) == 0


# ------------------------------------------------------------------ SLO plane


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestSLOEngine:
    def test_objective_is_floored_and_widens(self):
        engine = SLOEngine(SLOConfig(floor_seconds=0.05))
        assert engine.set_objective("t", 0.001) == 0.05  # floor wins
        assert engine.set_objective("t", 0.2) == 0.2  # loosest wins
        assert engine.set_objective("t", 0.1) == 0.2  # never tightens
        assert engine.objective("t") == 0.2
        assert engine.objective("unknown") is None

    def test_compliance_and_burn_rate(self):
        clock = FakeClock()
        engine = SLOEngine(
            SLOConfig(target_ratio=0.9, window_seconds=30.0), clock=clock
        )
        engine.set_objective("t", 0.1)
        for _ in range(8):
            assert engine.observe("t", 0.05) is True
        for _ in range(2):
            assert engine.observe("t", 0.5) is False
        state = engine.snapshot()["t"]
        assert state["total"] == 10 and state["good"] == 8
        assert state["compliance"] == pytest.approx(0.8)
        # Window miss rate 20% against a 10% error budget: burning 2x.
        assert state["burn_rate"] == pytest.approx(2.0)
        assert state["meeting_target"] is False
        # The misses age out of the window; lifetime compliance stays.
        clock.advance(31.0)
        state = engine.snapshot()["t"]
        assert state["window_total"] == 0
        assert state["burn_rate"] == 0.0
        assert state["compliance"] == pytest.approx(0.8)

    def test_exposition_renders_slo_families(self):
        engine = SLOEngine(SLOConfig(floor_seconds=0.05))
        engine.set_objective("t", 0.01)
        engine.observe("t", 0.01)
        engine.record_event("critical", "refinement_stalled", idle_seconds=12)
        scrape = parse_exposition(engine.exposition())
        assert scrape.get("repro_slo_objective_seconds", tenant="t") == 0.05
        assert scrape.get("repro_slo_requests_total", tenant="t") == 1
        assert scrape.get("repro_slo_compliance_ratio", tenant="t") == 1.0
        assert (
            scrape.get("repro_slo_watchdog_events_total", severity="critical")
            == 1
        )

    def test_events_are_bounded_and_counted(self):
        engine = SLOEngine(SLOConfig(max_events=4))
        for i in range(10):
            engine.record_event("warning", "slo_burn", n=i)
        assert len(engine.events()) == 4  # deque bound
        assert engine.event_counts()["warning"] == 10  # counts keep history
        assert engine.events()[-1]["details"]["n"] == 9


class TestWatchdog:
    def _watchdog(self, probes, clock, **config):
        engine = SLOEngine(
            SLOConfig(
                stall_seconds=10.0,
                starvation_seconds=10.0,
                lock_wait_critical_seconds=1.0,
                **config,
            ),
            clock=clock,
        )
        state = {"i": 0}

        def probe():
            i = min(state["i"], len(probes) - 1)
            state["i"] += 1
            return probes[i]

        return engine, Watchdog(engine, probe, clock=clock)

    def test_stalled_refinement_fires_once_and_rearms(self):
        clock = FakeClock()
        idle = {"slices_run": 5, "unconverged": 2, "allocations": {}, "max_lock_wait": 0.0}
        moved = {"slices_run": 6, "unconverged": 2, "allocations": {}, "max_lock_wait": 0.0}
        engine, watchdog = self._watchdog([idle, idle, idle, moved, idle, idle], clock)
        watchdog.check()  # baseline probe
        clock.advance(11.0)
        watchdog.check()  # 11s with no new slice and work owed: critical
        assert [e["kind"] for e in engine.events("critical")] == [
            "refinement_stalled"
        ]
        clock.advance(11.0)
        watchdog.check()  # still stalled: edge-triggered, no second event
        assert len(engine.events("critical")) == 1
        watchdog.check()  # slices moved: episode clears
        clock.advance(11.0)
        watchdog.check()
        clock.advance(11.0)
        watchdog.check()  # a fresh stall is a fresh event
        assert len(engine.events("critical")) == 2

    def test_starved_tenant_detected_while_scheduler_advances(self):
        clock = FakeClock()
        probes = [
            {"slices_run": i, "unconverged": 2,
             "allocations": {"fed": float(i), "starved": 1.0},
             "max_lock_wait": 0.0}
            for i in range(4)
        ]
        engine, watchdog = self._watchdog(probes, clock)
        watchdog.check()
        clock.advance(6.0)
        watchdog.check()
        assert engine.events("critical") == []  # not starved yet
        clock.advance(6.0)
        watchdog.check()  # 12s of frozen ledger while others advance
        kinds = [e["kind"] for e in engine.events("critical")]
        assert kinds == ["tenant_starved"]
        assert engine.events("critical")[0]["details"]["tenant"] == "starved"

    def test_runaway_lock_wait_is_critical(self):
        clock = FakeClock()
        probes = [
            {"slices_run": 1, "unconverged": 0, "allocations": {},
             "max_lock_wait": 2.5},
        ]
        engine, watchdog = self._watchdog(probes, clock)
        watchdog.check()
        (event,) = engine.events("critical")
        assert event["kind"] == "lock_wait_runaway"
        assert event["details"]["max_wait_seconds"] == 2.5

    def test_burn_spike_is_a_warning_not_a_critical(self):
        clock = FakeClock()
        probes = [{"slices_run": 0, "unconverged": 0, "allocations": {},
                   "max_lock_wait": 0.0}]
        engine, watchdog = self._watchdog(probes, clock, target_ratio=0.9)
        engine.set_objective("t", 0.1)
        for _ in range(10):
            engine.observe("t", 5.0)  # every request misses: burn 10x
        watchdog.check()
        assert engine.events("critical") == []
        (event,) = engine.events("warning")
        assert event["kind"] == "slo_burn_fast"
        assert event["details"]["tenant"] == "t"

    def test_probe_failure_is_survived_as_warning(self):
        clock = FakeClock()
        engine = SLOEngine(SLOConfig(), clock=clock)

        def bad_probe():
            raise RuntimeError("boom")

        watchdog = Watchdog(engine, bad_probe, clock=clock)
        with pytest.raises(RuntimeError):
            watchdog.check()  # check() itself propagates (tests want that)
        # ...but the thread loop wraps it: simulate one loop iteration.
        try:
            watchdog.check()
        except Exception as error:
            engine.record_event(
                "warning", "watchdog_probe_failed", error=repr(error)
            )
        assert engine.events("warning")[0]["kind"] == "watchdog_probe_failed"


# ----------------------------------------------- end-to-end request tracing


def _request_roots(records, request_id):
    return [
        record
        for record in spans(records, "serve.query")
        if record.get("attrs", {}).get("trace") == request_id
    ]


class TestTracePropagation:
    @pytest.mark.parametrize("mode", ["adaptive", "snapshot"])
    def test_socket_request_resolves_to_one_span_tree(self, mode):
        """A client-chosen request id sent over TCP must come back as
        exactly one ``serve.query`` root whose children cover the
        request lifecycle: queue -> admission -> lock -> scan."""
        sink = ListSink()
        obs.enable(sink=sink, metrics=True)
        spec = TableSpec("wire", "uniform", 4_000, 2, seed=3)
        with ServerThread(IndexServer(size_threshold=256)) as handle:
            with ServeClient(handle.host, handle.port) as client:
                client.register_spec(spec)
                session = client.open_session("tenant-x")
                bounds = {"c0": (10.0, 55.0), "c1": (10.0, 55.0)}
                client.query(session, "wire", bounds, mode=mode)  # warm/create
                client.query(
                    session, "wire", bounds, mode=mode, trace=f"req-{mode}"
                )
                client.shutdown()
        obs.disable()
        roots = _request_roots(sink.records, f"req-{mode}")
        assert len(roots) == 1, "one request id -> one serve.query root"
        root = roots[0]
        assert root["attrs"]["mode"] == mode
        assert root["attrs"]["tenant"] == "tenant-x"
        children = {
            record["name"]
            for record in spans(sink.records)
            if record.get("parent") == root["id"]
        }
        assert {"serve.queue", "serve.admission", "serve.lock"} <= children
        scans = [
            record
            for record in spans(sink.records, "serve.scan")
            if record.get("parent") == root["id"]
        ]
        assert len(scans) == 1
        lock_sides = {
            record["attrs"]["side"]
            for record in spans(sink.records, "serve.lock")
            if record.get("parent") == root["id"]
        }
        want_side = "read" if mode == "snapshot" else "write"
        assert lock_sides == {want_side}

    def test_refinement_slice_is_funded_by_the_poking_query(self):
        """The scheduler's next slice after a query must parent under
        that query's root span — the query->refinement trace link."""
        sink = ListSink()
        obs.enable(sink=sink, metrics=True)
        server = IndexServer(technique="greedy", size_threshold=256)
        try:
            spec = TableSpec("t", "uniform", 8_000, 2, seed=7)
            server.register_table("t", spec=spec)
            session = server.open_session("a")
            bounds = {"c0": (10.0, 30.0), "c1": (10.0, 30.0)}
            server.execute_query(session, "t", bounds, trace="funder")
            from repro.core.progressive_kdtree import CREATION

            entry = next(iter(server._sessions[session].indexes.values()))
            while entry.index.phase == CREATION:
                server.execute_query(session, "t", bounds, trace="funder-2")
            import time as _time

            deadline = _time.monotonic() + 30
            while (
                not spans(sink.records, "scheduler.slice")
                and _time.monotonic() < deadline
            ):
                server.scheduler.poke()
                _time.sleep(0.01)
        finally:
            server.close()
            obs.disable()
        slices = spans(sink.records, "scheduler.slice")
        assert slices, "scheduler never ran a traced slice"
        root_ids = {
            record["id"] for record in spans(sink.records, "serve.query")
        }
        funded = [s for s in slices if s.get("parent") in root_ids]
        assert funded, "no refinement slice parented under a query root"

    def test_metrics_op_serves_exposition_over_the_socket(self):
        obs_metrics.enable()
        spec = TableSpec("wire", "uniform", 2_000, 2, seed=3)
        with ServerThread(IndexServer(size_threshold=256)) as handle:
            with ServeClient(handle.host, handle.port) as client:
                client.register_spec(spec)
                session = client.open_session("t0")
                client.query(
                    session, "wire", {"c0": (10.0, 55.0), "c1": (10.0, 55.0)}
                )
                text = client.metrics()
                client.shutdown()
        scrape = parse_exposition(text)
        assert scrape.get("repro_serve_queries", tenant="t0", mode="adaptive") >= 1
        assert scrape.get("repro_slo_requests_total", tenant="t0") >= 1
        assert "repro_serve_query_seconds_bucket" in scrape.samples


# ------------------------------------------------------------- top dashboard


def _scrape_text(queries, seconds_count, compliance=1.0, burn=0.0):
    return "\n".join(
        [
            "# TYPE repro_serve_queries counter",
            f'repro_serve_queries{{mode="adaptive",tenant="t0"}} {queries}',
            "# TYPE repro_serve_query_seconds histogram",
            f'repro_serve_query_seconds_bucket{{le="0.001",mode="adaptive",tenant="t0"}} {seconds_count}',
            f'repro_serve_query_seconds_bucket{{le="+Inf",mode="adaptive",tenant="t0"}} {seconds_count}',
            f'repro_serve_query_seconds_sum{{mode="adaptive",tenant="t0"}} 0.01',
            f'repro_serve_query_seconds_count{{mode="adaptive",tenant="t0"}} {seconds_count}',
            "# TYPE repro_slo_objective_seconds gauge",
            'repro_slo_objective_seconds{tenant="t0"} 0.05',
            "# TYPE repro_slo_compliance_ratio gauge",
            f'repro_slo_compliance_ratio{{tenant="t0"}} {compliance}',
            "# TYPE repro_slo_burn_rate gauge",
            f'repro_slo_burn_rate{{tenant="t0"}} {burn}',
            "# TYPE repro_serve_rows_to_converge gauge",
            'repro_serve_rows_to_converge{index="t0/t/c0",tenant="t0"} 500',
            "# TYPE repro_serve_open_pieces gauge",
            'repro_serve_open_pieces{index="t0/t/c0",tenant="t0"} 4',
            "# TYPE repro_scheduler_slices counter",
            'repro_scheduler_slices{tenant="t0"} 12',
            "# TYPE repro_scheduler_rows counter",
            'repro_scheduler_rows{tenant="t0"} 24000',
            "# TYPE repro_scheduler_model_seconds counter",
            'repro_scheduler_model_seconds{tenant="t0"} 0.1234',
            "# TYPE repro_slo_watchdog_events_total counter",
            'repro_slo_watchdog_events_total{severity="warning"} 1',
            'repro_slo_watchdog_events_total{severity="critical"} 0',
        ]
    )


class TestTopDashboard:
    def test_frame_shows_tenants_convergence_ledger_watchdog(self):
        before = parse_exposition(_scrape_text(queries=100, seconds_count=100))
        after = parse_exposition(_scrape_text(queries=150, seconds_count=150))
        peaks = {}
        frame = render_dashboard(
            after, before, elapsed=5.0, color=False, peak_rows=peaks
        )
        assert "t0" in frame
        assert "10.0" in frame  # QPS: (150-100)/5s
        assert "50.0ms" in frame  # the SLO objective column
        assert "100.00%" in frame
        assert "OK" in frame
        assert "t0/t/c0" in frame and "500" in frame  # convergence row
        assert "REFINE-LEDGER" in frame and "24000" in frame
        assert "0 critical / 1 warning" in frame
        assert "\x1b[" not in frame  # color=False means no ANSI codes

    def test_burning_tenant_is_flagged(self):
        scrape = parse_exposition(
            _scrape_text(queries=10, seconds_count=10, compliance=0.5, burn=50.0)
        )
        frame = render_dashboard(scrape, color=False)
        assert "MISS" in frame

    def test_progress_bar_tracks_peak_rows(self):
        peaks = {}
        first = parse_exposition(_scrape_text(queries=1, seconds_count=1))
        render_dashboard(first, color=False, peak_rows=peaks)
        assert peaks["t0/t/c0"] == 500.0
        better = parse_exposition(
            _scrape_text(queries=2, seconds_count=2).replace(
                'rows_to_converge{index="t0/t/c0",tenant="t0"} 500',
                'rows_to_converge{index="t0/t/c0",tenant="t0"} 100',
            )
        )
        frame = render_dashboard(better, color=False, peak_rows=peaks)
        assert peaks["t0/t/c0"] == 500.0  # the denominator is sticky
        assert "80.0%" in frame

    def test_empty_scrape_renders_placeholder(self):
        frame = render_dashboard(parse_exposition(""), color=False)
        assert "(no traffic yet)" in frame
        assert frame.endswith("\n")
