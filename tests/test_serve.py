"""The multi-session index server (:mod:`repro.serve`).

Layer by layer: protocol framing and deterministic table specs, the
writer-preferring snapshot lock, admission caps, the cross-tenant
refinement scheduler, the blocking server core (queries checked against
the serial oracle), the concurrent-reader snapshot guarantee, and the
full socket round trip through :class:`ServerThread` + `ServeClient`.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import kernels
from repro.core.metrics import QueryStats
from repro.errors import BatchTooLargeError, InvalidTableError
from repro.serve import (
    AdmissionCaps,
    AdmissionControl,
    AdmissionError,
    AdmissionRejected,
    IndexServer,
    PieceSnapshotLock,
    RefinementScheduler,
    ServeClient,
    ServeClientError,
    ServerThread,
    TableSpec,
    answer_checksum,
)
from repro.serve import server as server_mod
from repro.serve.protocol import (
    MAX_BATCH_QUERIES,
    MAX_FRAME_BYTES,
    decode_frame,
    encode_frame,
    error_response,
    ok_response,
)


def oracle_answer(spec: TableSpec, bounds):
    """(count, checksum) ground truth via the reference kernel."""
    columns_by_name = spec.build_columns()
    group = sorted(bounds)
    columns = [np.asarray(columns_by_name[name], dtype=float) for name in group]
    from repro.core.query import RangeQuery

    query = RangeQuery(
        [bounds[name][0] for name in group],
        [bounds[name][1] for name in group],
    )
    positions = kernels.get_backend("reference").range_scan(
        columns, 0, int(columns[0].shape[0]), query, QueryStats()
    )
    return int(positions.size), answer_checksum(positions)


# ------------------------------------------------------------------ protocol


class TestProtocol:
    def test_frame_round_trip(self):
        payload = {"op": "query", "id": 3, "bounds": {"c0": [1.5, 2.5]}}
        assert decode_frame(encode_frame(payload)) == payload

    def test_frames_are_newline_terminated(self):
        assert encode_frame({"op": "hello"}).endswith(b"\n")

    def test_embedded_newlines_stay_inside_one_frame(self):
        payload = {"detail": "line one\nline two"}
        frame = encode_frame(payload)
        assert frame.count(b"\n") == 1  # only the terminator
        assert decode_frame(frame) == payload

    def test_ok_and_error_echo_request_id(self):
        request = {"op": "stats", "id": 41}
        assert ok_response(request)["id"] == 41
        error = error_response(request, "boom", "details", retry=True)
        assert error["id"] == 41
        assert error["retry"] is True
        assert error["ok"] is False

    def test_checksum_is_order_invariant(self):
        forward = np.arange(100, dtype=np.int64)
        shuffled = forward.copy()
        np.random.default_rng(0).shuffle(shuffled)
        assert answer_checksum(forward) == answer_checksum(shuffled)
        assert answer_checksum(forward) != answer_checksum(forward[:-1])


class TestTableSpec:
    def test_build_is_deterministic(self):
        a = TableSpec("t", "uniform", 500, 3, seed=9).build_columns()
        b = TableSpec("t", "uniform", 500, 3, seed=9).build_columns()
        assert list(a) == ["c0", "c1", "c2"]
        for name in a:
            assert np.array_equal(a[name], b[name])

    def test_seed_and_kind_change_the_data(self):
        base = TableSpec("t", "uniform", 300, 2, seed=0).build_columns()
        reseeded = TableSpec("t", "uniform", 300, 2, seed=1).build_columns()
        skewed = TableSpec("t", "skewed", 300, 2, seed=0).build_columns()
        assert not np.array_equal(base["c0"], reseeded["c0"])
        assert not np.array_equal(base["c0"], skewed["c0"])

    def test_parse_round_trip(self):
        spec = TableSpec.parse("taxi:duplicate:1000:4:5")
        assert spec == TableSpec("taxi", "duplicate", 1000, 4, seed=5)
        payload_copy = TableSpec.from_payload(spec.to_payload())
        assert payload_copy == spec

    def test_parse_rejects_garbage(self):
        with pytest.raises(Exception):
            TableSpec.parse("no-colons")
        with pytest.raises(Exception):
            TableSpec.parse("t:unknown_kind:100:2")


# -------------------------------------------------------------------- locks


class TestPieceSnapshotLock:
    def test_readers_share(self):
        lock = PieceSnapshotLock()
        with lock.read():
            with lock.read():
                assert lock.readers == 2
        assert lock.readers == 0

    def test_writer_excludes_readers(self):
        lock = PieceSnapshotLock()
        order = []
        with lock.write():
            reader = threading.Thread(
                target=lambda: (lock.acquire_read(), order.append("read"))
            )
            reader.start()
            time.sleep(0.05)
            order.append("write-held")
        reader.join(timeout=5)
        lock.release_read()
        assert order == ["write-held", "read"]

    def test_write_timeout_returns_false_while_reader_holds(self):
        lock = PieceSnapshotLock()
        with lock.read():
            begin = time.monotonic()
            assert lock.acquire_write(timeout=0.05) is False
            assert time.monotonic() - begin < 2.0
        # After the reader leaves, the writer side works again.
        assert lock.acquire_write(timeout=0.05) is True
        lock.release_write()

    def test_timed_out_writer_does_not_strand_readers(self):
        lock = PieceSnapshotLock()
        with lock.read():
            assert not lock.acquire_write(timeout=0.02)
            # Writer preference must be cleared: a new reader gets in
            # immediately instead of waiting behind a ghost writer.
            acquired = []
            reader = threading.Thread(
                target=lambda: (lock.acquire_read(), acquired.append(True))
            )
            reader.start()
            reader.join(timeout=5)
            assert acquired == [True]
            lock.release_read()
        lock.release_read()

    def test_writer_preference_blocks_new_readers(self):
        lock = PieceSnapshotLock()
        lock.acquire_read()
        states = {}

        def writer():
            lock.acquire_write()
            states["writer"] = time.monotonic()
            lock.release_write()

        def late_reader():
            lock.acquire_read()
            states["reader"] = time.monotonic()
            lock.release_read()

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        time.sleep(0.05)  # let the writer start waiting
        reader_thread = threading.Thread(target=late_reader)
        reader_thread.start()
        time.sleep(0.05)
        lock.release_read()  # first reader leaves; writer must win
        writer_thread.join(timeout=5)
        reader_thread.join(timeout=5)
        assert states["writer"] < states["reader"]

    def test_non_blocking_read_refuses_while_a_writer_holds(self):
        lock = PieceSnapshotLock()
        with lock.write():
            assert lock.acquire_read(blocking=False) is False
        assert lock.readers == 0
        assert lock.acquire_read(blocking=False) is True
        assert lock.acquire_read(blocking=False) is True  # readers share
        assert lock.readers == 2
        lock.release_read()
        lock.release_read()

    def test_non_blocking_read_yields_to_a_waiting_writer(self):
        lock = PieceSnapshotLock()
        lock.acquire_read()
        writer = threading.Thread(target=lock.acquire_write, daemon=True)
        writer.start()
        try:
            deadline = time.monotonic() + 5
            while not lock._writers_waiting and time.monotonic() < deadline:
                time.sleep(0.001)
            # Writer preference holds for a try, too.
            assert lock.acquire_read(blocking=False) is False
        finally:
            lock.release_read()
        writer.join(timeout=5)
        assert not writer.is_alive()
        assert lock.write_held
        lock.release_write()

    def test_failed_try_records_no_wait(self):
        lock = PieceSnapshotLock()
        lock.acquire_write()
        lock.drain_max_wait()
        assert lock.acquire_read(blocking=False) is False
        assert lock.acquire_write(timeout=0) is False
        assert lock.drain_max_wait() == 0.0
        lock.release_write()


# ---------------------------------------------------------------- admission


class TestAdmission:
    def test_session_caps_per_tenant_and_global(self):
        control = AdmissionControl(
            AdmissionCaps(max_sessions=3, max_sessions_per_tenant=2)
        )
        control.admit_session("a")
        control.admit_session("a")
        with pytest.raises(AdmissionError):
            control.admit_session("a")  # tenant cap
        control.admit_session("b")
        with pytest.raises(AdmissionError):
            control.admit_session("c")  # global cap
        control.release_session("a")
        control.admit_session("c")  # freed capacity is reusable

    def test_inflight_cap_and_release(self):
        control = AdmissionControl(
            AdmissionCaps(max_inflight=2, max_inflight_per_tenant=1)
        )
        with control.inflight("a"):
            with pytest.raises(AdmissionError):
                with control.inflight("a"):
                    pass
            with control.inflight("b"):
                pass
        with control.inflight("a"):  # released on exit
            pass

    def test_rejections_are_counted_by_tenant_and_reason(self):
        control = AdmissionControl(AdmissionCaps(max_sessions_per_tenant=0))
        with pytest.raises(AdmissionError):
            control.admit_session("a")
        snapshot = control.snapshot()
        assert sum(snapshot["rejections"].values()) == 1
        (key,) = snapshot["rejections"]
        assert key.startswith("a/")


# ---------------------------------------------------------------- scheduler


def _spec_server(technique="greedy", **kwargs):
    server = IndexServer(technique=technique, size_threshold=256, **kwargs)
    spec = TableSpec("t", "uniform", 8_000, 3, seed=7)
    server.register_table("t", spec=spec)
    return server, spec


class TestScheduler:
    def test_refines_registered_index_to_convergence(self):
        server, spec = _spec_server()
        try:
            session = server.open_session("a")
            bounds = {"c0": (10.0, 30.0), "c1": (10.0, 30.0), "c2": (10.0, 30.0)}
            server.execute_query(session, "t", bounds)  # creates the index
            entry = next(iter(server._sessions[session].indexes.values()))
            # The scheduler only owns *refinement*; creation advances with
            # queries (the paper's per-query budget).  Drive it there.
            from repro.core.progressive_kdtree import CREATION

            while entry.index.phase == CREATION:
                server.execute_query(session, "t", bounds)
            deadline = time.monotonic() + 30
            while not entry.index.converged and time.monotonic() < deadline:
                server.scheduler.poke()
                time.sleep(0.01)
            assert entry.index.converged, "scheduler never converged the index"
            allocations = server.scheduler.allocations()
            assert allocations["a"]["rows"] > 0
            assert allocations["a"]["converged"] == 1
            # Converged answers still match the oracle.
            response = server.execute_query(session, "t", bounds)
            want_count, want_checksum = oracle_answer(spec, bounds)
            assert response["count"] == want_count
            assert response["checksum"] == want_checksum
        finally:
            server.close()

    def test_fair_share_tracks_weights(self):
        scheduler = RefinementScheduler()
        try:
            from repro.core import GreedyProgressiveKDTree, Table

            rng = np.random.default_rng(0)
            indexes = []
            for tenant, weight in (("light", 1.0), ("heavy", 3.0)):
                table = Table.from_matrix(rng.random((20_000, 2)) * 100)
                index = GreedyProgressiveKDTree(
                    table, delta=0.2, size_threshold=64
                )
                # Queries drive the index through creation; the scheduler
                # only takes over once it reaches the refinement phase.
                from repro.core.progressive_kdtree import CREATION
                from repro.core.query import RangeQuery

                probe = RangeQuery([10.0, 10.0], [20.0, 20.0])
                while index.phase == CREATION:
                    index.query(probe)
                lock = PieceSnapshotLock()
                scheduler.register(tenant, f"{tenant}/idx", index, lock, weight)
                indexes.append(index)
            deadline = time.monotonic() + 30
            while (
                not all(index.converged for index in indexes)
                and time.monotonic() < deadline
            ):
                scheduler.poke()
                time.sleep(0.01)
            allocations = scheduler.allocations()
            assert allocations["light"]["rows"] > 0
            assert allocations["heavy"]["rows"] > 0
            # Both converged: total work is similar, but the ledger must
            # show the weighting was applied while both were refinable
            # (heavy's per-weight share never exceeds light's by much).
            assert allocations["heavy"]["model_seconds"] > 0
        finally:
            scheduler.close()

    def test_paused_blocks_slices(self):
        server, _ = _spec_server()
        try:
            session = server.open_session("a")
            server.execute_query(
                session, "t", {"c0": (10.0, 30.0), "c1": (10.0, 30.0)}
            )
            with server.scheduler.paused():
                before = server.scheduler.slices_run
                server.scheduler.poke()
                time.sleep(0.1)
                assert server.scheduler.slices_run == before
                assert server.scheduler.quiescent
        finally:
            server.close()

    def test_close_stops_the_thread(self):
        scheduler = RefinementScheduler()
        assert scheduler.alive
        scheduler.close()
        assert not scheduler.alive


# -------------------------------------------------------------- server core


class TestIndexServerCore:
    def test_register_is_idempotent_for_identical_spec(self):
        server, spec = _spec_server()
        try:
            again = server.register_table("t", spec=spec)
            assert again["existing"] is True
            with pytest.raises(InvalidTableError):
                server.register_table(
                    "t", spec=TableSpec("t", "uniform", 8_000, 3, seed=8)
                )
        finally:
            server.close()

    @pytest.mark.parametrize("mode", ["adaptive", "snapshot"])
    def test_answers_match_oracle(self, mode):
        server, spec = _spec_server()
        try:
            session = server.open_session("a")
            rng = np.random.default_rng(5)
            for _ in range(8):
                low = rng.uniform(0, 60, size=3)
                high = low + rng.uniform(5, 30, size=3)
                bounds = {
                    f"c{d}": (float(low[d]), float(high[d])) for d in range(3)
                }
                response = server.execute_query(session, "t", bounds, mode=mode)
                want_count, want_checksum = oracle_answer(spec, bounds)
                assert response["count"] == want_count
                assert response["checksum"] == want_checksum
        finally:
            server.close()

    def test_return_ids_round_trip(self):
        server, spec = _spec_server()
        try:
            session = server.open_session("a")
            bounds = {"c0": (10.0, 40.0)}
            response = server.execute_query(
                session, "t", bounds, return_ids=True
            )
            ids = np.asarray(response["row_ids"], dtype=np.int64)
            assert answer_checksum(ids) == response["checksum"]
            assert ids.size == response["count"]
        finally:
            server.close()

    def test_return_ids_sorts_each_answer_once(self, monkeypatch):
        from repro.serve import server as server_module

        sorts = []
        real = server_module.sorted_answer

        def counted(row_ids):
            sorts.append(len(row_ids))
            return real(row_ids)

        def refuse(row_ids):
            raise AssertionError("the id payload sorted the answer twice")

        monkeypatch.setattr(server_module, "sorted_answer", counted)
        monkeypatch.setattr(server_module, "answer_checksum", refuse)
        server, _ = _spec_server()
        try:
            session = server.open_session("a")
            bounds = [{"c0": (10.0, 40.0)}, {"c0": (50.0, 70.0)}]
            single = server.execute_query(
                session, "t", bounds[0], return_ids=True
            )
            batch = server.execute_batch(
                session, "t", bounds, return_ids=True
            )["results"]
            assert len(sorts) == 3
            for response in [single, *batch]:
                ids = np.asarray(response["row_ids"], dtype=np.int64)
                assert np.all(ids[1:] > ids[:-1])
                assert real(ids)[1] == response["checksum"]
                assert ids.size == response["count"]
            assert single["row_ids"] == batch[0]["row_ids"]
        finally:
            server.close()

    def test_column_subsets_get_separate_indexes(self):
        server, _ = _spec_server()
        try:
            session = server.open_session("a")
            server.execute_query(session, "t", {"c0": (0.0, 50.0)})
            server.execute_query(
                session, "t", {"c1": (0.0, 50.0), "c2": (0.0, 50.0)}
            )
            assert len(server._sessions[session].indexes) == 2
        finally:
            server.close()

    def test_check_is_clean_after_traffic(self):
        server, _ = _spec_server()
        try:
            session = server.open_session("a")
            for _ in range(5):
                server.execute_query(
                    session, "t", {"c0": (5.0, 60.0), "c1": (5.0, 60.0)}
                )
            findings = server.check()
            assert findings  # at least one index got checked
            assert all(not problems for problems in findings.values())
        finally:
            server.close()

    def test_close_session_unregisters_and_releases(self):
        server, _ = _spec_server(caps=AdmissionCaps(max_sessions_per_tenant=1))
        try:
            session = server.open_session("a")
            server.execute_query(session, "t", {"c0": (0.0, 50.0)})
            server.close_session(session)
            assert server.scheduler.allocations() == {}
            server.open_session("a")  # the cap slot was released
        finally:
            server.close()

    def test_batch_over_the_cap_is_refused_before_any_lock(self):
        server, _ = _spec_server()
        try:
            session = server.open_session("a")
            bounds_list = [{"c0": (0.0, 50.0)}] * (MAX_BATCH_QUERIES + 1)
            with pytest.raises(BatchTooLargeError):
                server.execute_batch(session, "t", bounds_list)
            # Refused before the session's index (and its lock) existed.
            assert server._sessions[session].indexes == {}
            assert server.stats()["queries_total"] == 0
            response = server.execute_batch(
                session, "t", bounds_list[:MAX_BATCH_QUERIES]
            )
            assert response["batch"] == MAX_BATCH_QUERIES
        finally:
            server.close()

    def test_stats_shape(self):
        server, _ = _spec_server()
        try:
            session = server.open_session("a")
            server.execute_query(session, "t", {"c0": (0.0, 50.0)})
            stats = server.stats()
            assert stats["queries_total"] == 1
            assert stats["tables"]["t"]["rows"] == 8_000
            assert stats["sessions"][session]["tenant"] == "a"
            assert "admission" in stats and "scheduler" in stats
        finally:
            server.close()


# ----------------------------------------- concurrent-reader snapshot reads


class TestSnapshotConcurrency:
    def test_reader_unblocked_while_other_tenant_refines(self):
        """A snapshot read on tenant A's index must complete, bit-identical
        to the serial oracle, while the scheduler is refining tenant B's
        index (cross-tenant isolation is structural: separate locks)."""
        server, spec = _spec_server()
        try:
            session_a = server.open_session("a")
            session_b = server.open_session("b")
            bounds = {"c0": (5.0, 70.0), "c1": (5.0, 70.0), "c2": (5.0, 70.0)}
            # Tenant A's index exists; B's index goes under heavy refinement.
            server.execute_query(session_a, "t", bounds)
            server.execute_query(session_b, "t", bounds)
            entry_b = next(iter(server._sessions[session_b].indexes.values()))
            # Hold B's writer lock on this thread, simulating a refinement
            # slice in flight on B.
            assert entry_b.lock.acquire_write(timeout=5)
            try:
                want_count, want_checksum = oracle_answer(spec, bounds)
                begin = time.monotonic()
                response = server.execute_query(
                    session_a, "t", bounds, mode="snapshot"
                )
                elapsed = time.monotonic() - begin
                assert response["count"] == want_count
                assert response["checksum"] == want_checksum
                assert elapsed < 5.0, (
                    "reader blocked behind another tenant's refinement"
                )
            finally:
                entry_b.lock.release_write()
        finally:
            server.close()

    def test_snapshot_reads_stay_consistent_during_refinement(self):
        """Snapshot reads racing the scheduler's refinement of the *same*
        index: every answer must still be bit-identical to the oracle —
        the reader always sees a complete piece set, never a half-moved
        one."""
        server = IndexServer(technique="greedy", size_threshold=128)
        spec = TableSpec("big", "uniform", 40_000, 3, seed=11)
        server.register_table("big", spec=spec)
        try:
            session = server.open_session("a")
            bounds = {"c0": (5.0, 70.0), "c1": (5.0, 70.0), "c2": (5.0, 70.0)}
            server.execute_query(session, "big", bounds)  # start refinement
            want_count, want_checksum = oracle_answer(spec, bounds)
            entry = next(iter(server._sessions[session].indexes.values()))
            mismatches = []
            for _ in range(50):
                server.scheduler.poke()
                response = server.execute_query(
                    session, "big", bounds, mode="snapshot"
                )
                if (
                    response["count"] != want_count
                    or response["checksum"] != want_checksum
                ):
                    mismatches.append(response["count"])
                if entry.index.converged:
                    break
            assert not mismatches, (
                f"snapshot reads diverged from the oracle during "
                f"refinement: counts {mismatches} != {want_count}"
            )
        finally:
            server.close()


# -------------------------------------------------------------- socket layer


class TestSocketRoundTrip:
    def test_full_protocol_over_tcp(self):
        spec = TableSpec("wire", "uniform", 5_000, 2, seed=3)
        with ServerThread(IndexServer(size_threshold=256)) as handle:
            with ServeClient(handle.host, handle.port) as client:
                hello = client.hello()
                assert hello["protocol"] >= 1
                registered = client.register_spec(spec)
                assert registered["rows"] == 5_000
                # Racing re-registration of the same spec is idempotent.
                assert client.register_spec(spec)["existing"] is True
                session = client.open_session("tenant-x")
                bounds = {"c0": (10.0, 55.0), "c1": (10.0, 55.0)}
                for mode in ("adaptive", "snapshot"):
                    response = client.query(session, "wire", bounds, mode=mode)
                    want_count, want_checksum = oracle_answer(spec, bounds)
                    assert response["count"] == want_count
                    assert response["checksum"] == want_checksum
                check = client.check()
                assert check["problems"] == 0
                stats = client.stats()
                assert stats["queries_total"] == 2
                client.close_session(session)
                client.shutdown()

    def test_admission_rejection_is_retryable_on_the_wire(self):
        server = IndexServer(caps=AdmissionCaps(max_sessions_per_tenant=1))
        with ServerThread(server) as handle:
            with ServeClient(handle.host, handle.port) as client:
                client.open_session("t")
                with pytest.raises(AdmissionRejected):
                    client.open_session("t")
                client.shutdown()

    def test_unknown_table_is_a_typed_error(self):
        with ServerThread(IndexServer()) as handle:
            with ServeClient(handle.host, handle.port) as client:
                session = client.open_session("t")
                with pytest.raises(ServeClientError) as excinfo:
                    client.query(session, "nope", {"c0": (0.0, 1.0)})
                assert not isinstance(excinfo.value, AdmissionRejected)
                client.shutdown()

    def test_server_survives_malformed_frames(self):
        with ServerThread(IndexServer()) as handle:
            with ServeClient(handle.host, handle.port) as client:
                client._sock.sendall(b"this is not json\n")
                response = decode_frame(client._file.readline())
                assert response["ok"] is False
                assert response["error"] == "protocol"
                # The connection still works afterwards.
                assert client.hello()["ok"] is True
                client.shutdown()

    def test_oversized_frame_is_a_typed_error_and_keeps_the_socket(self):
        with ServerThread(IndexServer()) as handle:
            with ServeClient(handle.host, handle.port) as client:
                padding = b"x" * MAX_FRAME_BYTES
                client._sock.sendall(
                    b'{"op":"hello","id":1,"pad":"' + padding + b'"}\n'
                )
                response = decode_frame(client._file.readline())
                assert response["ok"] is False
                assert response["error"] == "frame_too_large"
                # The rest of the oversized frame was discarded; the next
                # request on the same socket is answered normally.
                assert client.hello()["ok"] is True
                client.shutdown()

    @pytest.mark.parametrize(
        "peername, loopback",
        [
            (("127.0.0.1", 5000), True),
            (("127.8.9.10", 5000), True),
            (("::1", 5000, 0, 0), True),
            (("::ffff:127.0.0.1", 5000, 0, 0), True),
            (("10.0.0.7", 5000), False),
            (("192.168.1.20", 5000), False),
            (("2001:db8::1", 5000, 0, 0), False),
            (("::ffff:10.0.0.7", 5000, 0, 0), False),
            (("localhost", 5000), False),
            (None, False),
            ("", False),
        ],
    )
    def test_loopback_peer_predicate(self, peername, loopback):
        assert server_mod.is_loopback_peer(peername) is loopback

    def test_shutdown_from_a_remote_peer_is_forbidden(self, monkeypatch):
        # Every test socket is loopback; pretend this peer is not.
        monkeypatch.setattr(server_mod, "is_loopback_peer", lambda _: False)
        with ServerThread(IndexServer()) as handle:
            with ServeClient(handle.host, handle.port) as client:
                client._sock.sendall(encode_frame({"op": "shutdown", "id": 7}))
                response = decode_frame(client._file.readline())
                assert response["ok"] is False
                assert response["error"] == "forbidden"
                assert response["id"] == 7
                # The server is still up and the connection still works.
                assert client.hello()["ok"] is True
            assert handle._thread.is_alive()

    def test_batch_over_the_cap_is_a_typed_error_on_the_wire(self):
        spec = TableSpec("wire", "uniform", 2_000, 3, seed=3)
        with ServerThread(IndexServer(size_threshold=256)) as handle:
            with ServeClient(handle.host, handle.port) as client:
                client.register_spec(spec)
                session = client.open_session("t")
                bounds = {"c0": (1.5, 2.5), "c1": (1.5, 2.5), "c2": (1.5, 2.5)}
                with pytest.raises(ServeClientError) as excinfo:
                    client.batch(
                        session, "wire", [bounds] * (MAX_BATCH_QUERIES + 1)
                    )
                assert excinfo.value.error == "BatchTooLargeError"
                assert client.batch(session, "wire", [bounds])["batch"] == 1
                client.shutdown()

    def test_no_threads_leak_after_stop(self):
        before = {t.name for t in threading.enumerate()}
        with ServerThread(IndexServer()) as handle:
            with ServeClient(handle.host, handle.port) as client:
                client.hello()
        time.sleep(0.2)
        leaked = {
            t.name
            for t in threading.enumerate()
            if t.name not in before
            and ("repro-serve" in t.name or "scheduler" in t.name)
        }
        assert not leaked, f"server threads leaked: {leaked}"

    def test_shutdown_leaves_no_pending_connection_handler(self, caplog):
        import gc
        import logging

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            for via_op in (True, False):
                handle = ServerThread(IndexServer()).start()
                idle = ServeClient(handle.host, handle.port)
                idle.hello()
                with ServeClient(handle.host, handle.port) as client:
                    client.hello()
                    if via_op:
                        client.shutdown()
                    handle.stop()
                assert not handle._thread.is_alive()
                # The server ended the idle connection's input.
                assert idle._file.readline() == b""
                idle.close()
                gc.collect()
        destroyed = [
            record for record in caplog.records
            if "Task was destroyed but it is pending" in record.getMessage()
        ]
        assert not destroyed, destroyed[0].getMessage()

    def test_shutdown_answers_the_request_in_flight(self):
        spec = TableSpec("wire", "uniform", 4_000, 2, seed=3)
        bounds = {"c0": (10.0, 55.0), "c1": (10.0, 55.0)}
        server = IndexServer(size_threshold=256)
        handle = ServerThread(server).start()
        with ServeClient(handle.host, handle.port, timeout=15) as client:
            client.register_spec(spec)
            session = client.open_session("t")
            client.query(session, "wire", bounds)
            entry = next(iter(server._sessions[session].indexes.values()))
            assert entry.lock.acquire_write(timeout=5)
            try:
                client._sock.sendall(encode_frame({
                    "op": "query", "id": "in-flight", "session": session,
                    "table": "wire",
                    "bounds": {c: list(b) for c, b in bounds.items()},
                }))
                deadline = time.monotonic() + 5
                while (
                    not entry.lock._writers_waiting
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.001)
                assert entry.lock._writers_waiting, "query never dispatched"
                stopper = threading.Thread(target=handle.stop)
                stopper.start()
                time.sleep(0.1)  # shutdown is now draining
            finally:
                entry.lock.release_write()
            response = decode_frame(client._file.readline())
        stopper.join(timeout=10)
        assert not stopper.is_alive() and not handle._thread.is_alive()
        assert response["ok"] is True and response["id"] == "in-flight"
        assert (response["count"], response["checksum"]) == oracle_answer(
            spec, bounds
        )


# ----------------------------------------------- inline dispatch on the loop


WIRE_SPEC = TableSpec("wire", "uniform", 4_000, 2, seed=3)
WIRE_BOUNDS = [
    {"c0": (10.0, 55.0), "c1": (10.0, 55.0)},
    {"c0": (0.0, 20.0), "c1": (40.0, 90.0)},
    {"c0": (33.3, 33.9), "c1": (1.0, 99.0)},
]


class _InlineFixture:
    """A served session plus a record of which thread ran each
    ``execute_query`` (stamped as the call starts)."""

    def __init__(self, server: IndexServer) -> None:
        self.server = server
        self.threads: list = []
        original = server.execute_query

        def recorded(*args, **kwargs):
            self.threads.append(threading.current_thread().name)
            return original(*args, **kwargs)

        server.execute_query = recorded
        self.handle = ServerThread(server).start()
        self.loop_thread = self.handle._thread.name
        self.client = ServeClient(self.handle.host, self.handle.port)
        self.client.register_spec(WIRE_SPEC)
        self.session = self.client.open_session("t")

    def query(self, bounds, mode="adaptive", trace=None):
        response = self.client.query(
            self.session, "wire", bounds, mode=mode, trace=trace
        )
        assert (response["count"], response["checksum"]) == oracle_answer(
            WIRE_SPEC, bounds
        )
        return response

    def converge(self, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            indexes = self.client.stats()["sessions"][self.session]["indexes"]
            if indexes and all(i["converged"] for i in indexes.values()):
                return
            self.query(WIRE_BOUNDS[0])
            time.sleep(0.005)
        raise AssertionError("the session index never converged")

    def entry(self):
        return next(
            iter(self.server._sessions[self.session].indexes.values())
        )

    def close(self) -> None:
        self.client.close()
        self.handle.stop()


class TestInlineDispatch:
    @pytest.mark.parametrize("mode", ["adaptive", "snapshot"])
    def test_converged_query_runs_on_the_loop(self, mode):
        fixture = _InlineFixture(IndexServer(size_threshold=256))
        try:
            fixture.query(WIRE_BOUNDS[0], mode=mode)  # creates the index
            assert fixture.threads[0].startswith("repro-serve_")
            fixture.converge()
            fixture.threads.clear()
            for bounds in WIRE_BOUNDS:
                fixture.query(bounds, mode=mode)
            assert fixture.threads == [fixture.loop_thread] * len(WIRE_BOUNDS)
        finally:
            fixture.close()

    @pytest.mark.parametrize("mode", ["adaptive", "snapshot"])
    def test_held_lock_sends_the_query_to_the_executor(self, mode):
        fixture = _InlineFixture(IndexServer(size_threshold=256))
        try:
            fixture.query(WIRE_BOUNDS[0])
            fixture.converge()
            fixture.threads.clear()
            entry = fixture.entry()
            answers = []
            assert entry.lock.acquire_write(timeout=5)
            try:
                waiter = threading.Thread(
                    target=lambda: answers.append(
                        fixture.query(WIRE_BOUNDS[1], mode=mode)
                    )
                )
                waiter.start()
                deadline = time.monotonic() + 5
                while not fixture.threads and time.monotonic() < deadline:
                    time.sleep(0.001)
                assert fixture.threads, "the query never reached execute"
                # The query waits on the executor; the loop still answers.
                with ServeClient(
                    fixture.handle.host, fixture.handle.port
                ) as other:
                    assert other.stats()["ok"] is True
                assert not answers
            finally:
                entry.lock.release_write()
            waiter.join(timeout=10)
            assert not waiter.is_alive() and len(answers) == 1
            assert fixture.threads[0].startswith("repro-serve_")
            # Lock free again: the next query runs inline.
            fixture.query(WIRE_BOUNDS[2], mode=mode)
            assert fixture.threads[1:] == [fixture.loop_thread]
        finally:
            fixture.close()

    def test_one_root_span_per_request_with_tracing(self):
        from repro import obs
        from repro.obs.sink import ListSink

        sink = ListSink()
        obs.enable(sink=sink, metrics=True)
        try:
            fixture = _InlineFixture(IndexServer(size_threshold=256))
            try:
                fixture.query(WIRE_BOUNDS[0], trace="first")
                fixture.converge()
                for position, bounds in enumerate(WIRE_BOUNDS):
                    for mode in ("adaptive", "snapshot"):
                        fixture.query(
                            bounds, mode=mode, trace=f"{mode}-{position}"
                        )
                inline = fixture.threads.count(fixture.loop_thread)
                calls = len(fixture.threads)
            finally:
                fixture.close()
        finally:
            obs.disable()
            obs.REGISTRY.reset()
        assert inline >= 2 * len(WIRE_BOUNDS)
        roots = [
            record for record in sink.records
            if record["type"] == "span" and record["name"] == "serve.query"
        ]
        assert len(roots) == calls
        traces = [record["attrs"].get("trace") for record in roots]
        for trace in ["first"] + [
            f"{mode}-{position}"
            for position in range(len(WIRE_BOUNDS))
            for mode in ("adaptive", "snapshot")
        ]:
            assert traces.count(trace) == 1, trace

    def test_sharded_server_never_runs_a_query_inline(self):
        fixture = _InlineFixture(IndexServer(size_threshold=256, shards=2))
        try:
            fixture.query(WIRE_BOUNDS[0])
            fixture.converge()
            for bounds in WIRE_BOUNDS:
                for mode in ("adaptive", "snapshot"):
                    fixture.query(bounds, mode=mode)
            assert fixture.loop_thread not in fixture.threads
            assert all(t.startswith("repro-serve_") for t in fixture.threads)
        finally:
            fixture.close()

    def test_mixed_paths_under_contention_stay_correct(self):
        """More clients than cores, a short switch interval, and a
        test thread grabbing the write lock: queries split between the
        loop and the executor, every answer matches the oracle, and the
        lock ends free."""
        import sys

        fixture = _InlineFixture(IndexServer(size_threshold=256))
        interval = sys.getswitchinterval()
        try:
            fixture.query(WIRE_BOUNDS[0])
            fixture.converge()
            fixture.threads.clear()
            entry = fixture.entry()
            want = [oracle_answer(WIRE_SPEC, b) for b in WIRE_BOUNDS]
            errors: list = []
            stop = time.monotonic() + 1.5
            sys.setswitchinterval(1e-5)

            def client_loop(seed: int) -> None:
                rng = np.random.default_rng(seed)
                with ServeClient(
                    fixture.handle.host, fixture.handle.port, timeout=20
                ) as client:
                    while time.monotonic() < stop:
                        slot = int(rng.integers(len(WIRE_BOUNDS)))
                        mode = ("adaptive", "snapshot")[int(rng.integers(2))]
                        try:
                            got = client.query(
                                fixture.session, "wire", WIRE_BOUNDS[slot],
                                mode=mode,
                            )
                        except Exception as error:  # noqa: BLE001
                            errors.append(repr(error))
                            return
                        if (got["count"], got["checksum"]) != want[slot]:
                            errors.append((slot, mode, got["count"]))

            clients = [
                threading.Thread(target=client_loop, args=(seed,))
                for seed in range(4)
            ]
            for thread in clients:
                thread.start()
            while time.monotonic() < stop:
                assert entry.lock.acquire_write(timeout=5)
                time.sleep(0.001)
                entry.lock.release_write()
                time.sleep(0.002)
            for thread in clients:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in clients)
        finally:
            sys.setswitchinterval(interval)
            fixture.close()
        assert not errors, errors[:5]
        assert fixture.loop_thread in fixture.threads
        assert any(t.startswith("repro-serve_") for t in fixture.threads)
        assert entry.lock.readers == 0 and not entry.lock.write_held

    @pytest.mark.parametrize("mode", ["adaptive", "snapshot"])
    def test_admission_refusal_releases_a_lock_taken_at_dispatch(self, mode):
        server = IndexServer(
            size_threshold=256, caps=AdmissionCaps(max_inflight_per_tenant=1)
        )
        fixture = _InlineFixture(server)
        try:
            fixture.query(WIRE_BOUNDS[0])
            fixture.converge()
            fixture.threads.clear()
            entry = fixture.entry()
            with server.admission.inflight("t"):  # the tenant's only slot
                with pytest.raises(AdmissionRejected):
                    fixture.query(WIRE_BOUNDS[1], mode=mode)
            assert fixture.threads == [fixture.loop_thread]
            assert entry.lock.readers == 0 and not entry.lock.write_held
            fixture.query(WIRE_BOUNDS[1], mode=mode)
        finally:
            fixture.close()
