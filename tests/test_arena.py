"""The flat-arena mirror and vectorized batch execution.

Three contracts, in increasing scope:

* **Arena structure** — the SoA mirror tracks the object graph split for
  split (I11), keeps the ``right == left + 1`` adjacency, and its scalar
  and batched descents agree with each other node for node.
* **Bit-identity** — with the arena on, every backend answers every
  query with the same rows, the same :class:`QueryStats` counters, and
  the same converged tree signature as the pure object-graph path,
  mid-refinement and post-convergence, under serial, thread-parallel,
  and process-parallel execution.
* **Batch execution** — ``query_batch`` answers exactly like the
  equivalent sequential loop (any backend, any phase), and the session
  layer's ``run_batch`` preserves per-query order across column groups.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.baselines import MedianKDTree
from repro.core import GreedyProgressiveKDTree, RangeQuery
from repro.core.arena import Arena, arena_default, set_arena_default
from repro.core.kdtree import KDTree
from repro.core.metrics import QueryStats
from repro.core.table import Table
from repro.errors import IndexStateError
from repro.fuzz import BACKENDS, FuzzCase, build_workload, make_backend
from repro.invariants import assert_invariants
from repro.parallel import config as par_config
from repro.parallel import procpool
from tests.conftest import make_queries, make_uniform_table, reference_answer

ALL_BACKENDS = sorted(BACKENDS)

#: Deterministic per-query counters (time fields excluded on purpose).
COUNTER_FIELDS = (
    "scanned", "copied", "swapped", "lookup_nodes", "nodes_created",
    "result_count", "pruned", "contained", "delta_used", "converged",
)


@pytest.fixture(autouse=True)
def arena_reset():
    """Restore the process-global arena default and parallel knobs."""
    default = arena_default()
    workers = par_config.get_workers()
    morsel, floor = par_config.MORSEL_ROWS, par_config.MIN_PARALLEL_ROWS
    yield
    set_arena_default(default)
    par_config.set_workers(workers)
    par_config.MORSEL_ROWS = morsel
    par_config.MIN_PARALLEL_ROWS = floor


@pytest.fixture(scope="module", autouse=True)
def pool_lifecycle():
    yield
    procpool.set_process_workers(1)
    procpool.shutdown_procs()
    gc.collect()


def _case(kind: str = "uniform", queries: int = 25, rows: int = 1_500):
    return FuzzCase(
        seed=11, kind=kind, n_rows=rows, n_dims=2, n_queries=queries,
        size_threshold=64, delta=0.25,
    )


def _counters(stats: QueryStats) -> dict:
    return {name: getattr(stats, name) for name in COUNTER_FIELDS}


def _run_recorded(backend: str, table, queries, case):
    """Drive one fresh index; returns (answers, counters, signature)."""
    index = make_backend(backend, table, case)
    answers, counters = [], []
    for query in queries:
        result = index.query(query)
        answers.append(np.sort(result.row_ids))
        counters.append(_counters(result.stats))
    tree = getattr(index, "tree", None)
    signature = tree.preorder_signature() if isinstance(tree, KDTree) else None
    assert_invariants(index)
    return answers, counters, signature


# ------------------------------------------------------------ arena structure


class TestArenaStructure:
    def _converged_tree(self, rows: int = 3_000):
        set_arena_default(True)
        table = make_uniform_table(rows, 2, seed=21)
        index = MedianKDTree(table, size_threshold=64)
        index.query(RangeQuery([0.0, 0.0], [1.0, 1.0]))  # triggers build
        return table, index

    def test_incremental_mirror_is_consistent(self):
        _, index = self._converged_tree()
        tree = index.tree
        assert tree.arena is not None
        assert tree.arena.consistency_errors(tree) == []

    def test_right_child_is_always_left_plus_one(self):
        _, index = self._converged_tree()
        arena = index.tree.arena
        for slot, dim in enumerate(arena.dims):
            if dim >= 0:
                left = arena.lefts[slot]
                assert arena.los[left + 1] == arena.splits[slot]
                assert arena.his[left] == arena.splits[slot]

    def test_from_tree_searches_like_incremental(self):
        table, index = self._converged_tree()
        tree = index.tree
        rebuilt = Arena.from_tree(tree)
        assert rebuilt.consistency_errors(tree) == []
        for query in make_queries(table, 10, width_fraction=0.2, seed=22):
            a_stats, b_stats = QueryStats(), QueryStats()
            got_a = tree.arena.search(query, a_stats)
            got_b = rebuilt.search(query, b_stats)
            assert a_stats.lookup_nodes == b_stats.lookup_nodes
            assert [m.piece for m in got_a] == [m.piece for m in got_b]
            for ma, mb in zip(got_a, got_b):
                assert np.array_equal(ma.check_low, mb.check_low)
                assert np.array_equal(ma.check_high, mb.check_high)

    def test_search_batch_matches_scalar_search(self):
        table, index = self._converged_tree()
        arena = index.tree.arena
        queries = make_queries(table, 16, width_fraction=0.15, seed=23)
        # One half-open query and one empty-range query join the batch.
        queries.append(RangeQuery([-np.inf, 50.0], [800.0, np.inf]))
        queries.append(RangeQuery([10.0, 10.0], [10.0, 10.0]))
        batched = arena.search_batch(queries)
        assert len(batched) == len(queries)
        for query, (matches, visited) in zip(queries, batched):
            stats = QueryStats()
            expected = arena.search(query, stats)
            assert visited == stats.lookup_nodes
            assert [m.piece for m in matches] == [m.piece for m in expected]
            for got, want in zip(matches, expected):
                assert np.array_equal(got.check_low, want.check_low)
                assert np.array_equal(got.check_high, want.check_high)

    def test_search_batch_empty(self):
        _, index = self._converged_tree()
        assert index.tree.arena.search_batch([]) == []

    def test_split_of_foreign_piece_is_rejected(self):
        from repro.core.node import Piece

        _, index = self._converged_tree()
        stray = Piece(0, 10)
        with pytest.raises(IndexStateError):
            index.tree.arena.apply_split(
                stray, 0, 5.0, 5, Piece(0, 5), Piece(5, 10)
            )

    def test_snapshot_is_generation_cached(self):
        _, index = self._converged_tree()
        arena = index.tree.arena
        assert arena.as_arrays() is arena.as_arrays()

    def test_arena_off_means_no_mirror(self):
        set_arena_default(False)
        table = make_uniform_table(1_000, 2, seed=24)
        index = MedianKDTree(table, size_threshold=64)
        index.query(RangeQuery([0.0, 0.0], [1.0, 1.0]))
        assert index.tree.arena is None


# -------------------------------------------------------------- bit-identity


class TestArenaBitIdentity:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("kind", ["uniform", "duplicate"])
    def test_serial_identity(self, backend, kind):
        case = _case(kind)
        table, queries = build_workload(case)
        set_arena_default(False)
        plain = _run_recorded(backend, table, queries, case)
        set_arena_default(True)
        mirrored = _run_recorded(backend, table, queries, case)
        for got, want in zip(mirrored[0], plain[0]):
            assert np.array_equal(got, want)
        assert mirrored[1] == plain[1]
        assert mirrored[2] == plain[2]

    @pytest.mark.parametrize("backend", ["medkd", "akd", "pkd", "gpkd"])
    def test_thread_parallel_identity(self, backend):
        par_config.set_workers(4)
        par_config.MORSEL_ROWS = 256
        par_config.MIN_PARALLEL_ROWS = 256
        case = _case()
        table, queries = build_workload(case)
        set_arena_default(False)
        plain = _run_recorded(backend, table, queries, case)
        set_arena_default(True)
        mirrored = _run_recorded(backend, table, queries, case)
        for got, want in zip(mirrored[0], plain[0]):
            assert np.array_equal(got, want)
        assert mirrored[1] == plain[1]
        assert mirrored[2] == plain[2]

    def test_process_parallel_identity(self):
        procpool.set_process_workers(2)
        par_config.MORSEL_ROWS = 256
        par_config.MIN_PARALLEL_ROWS = 256
        case = _case(queries=15)
        table, queries = build_workload(case)
        set_arena_default(False)
        plain = _run_recorded("gpkd", table, queries, case)
        set_arena_default(True)
        mirrored = _run_recorded("gpkd", table, queries, case)
        for got, want in zip(mirrored[0], plain[0]):
            assert np.array_equal(got, want)
        assert mirrored[1] == plain[1]
        assert mirrored[2] == plain[2]


# ----------------------------------------------------------- batch execution


class TestQueryBatch:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_batch_matches_sequential(self, backend):
        case = _case(queries=30)
        table, queries = build_workload(case)
        set_arena_default(True)
        sequential = make_backend(backend, table, case)
        expected = [np.sort(sequential.query(q).row_ids) for q in queries]
        batched = make_backend(backend, table, case)
        answers = batched.query_batch(queries)
        assert len(answers) == len(queries)
        for got, want in zip(answers, expected):
            assert np.array_equal(np.sort(got.row_ids), want)
        assert_invariants(batched)
        seq_tree = getattr(sequential, "tree", None)
        if isinstance(seq_tree, KDTree):
            assert (
                batched.tree.preorder_signature()
                == seq_tree.preorder_signature()
            )

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_batch_counters_match_sequential_when_converged(self, backend):
        case = _case(queries=25)
        table, queries = build_workload(case)
        set_arena_default(True)
        first = make_backend(backend, table, case)
        second = make_backend(backend, table, case)
        for query in queries:  # converge both the same way
            first.query(query)
            second.query(query)
        probes = make_queries(table, 12, width_fraction=0.2, seed=31)
        want = [_counters(first.query(q).stats) for q in probes]
        got = [_counters(r.stats) for r in second.query_batch(probes)]
        assert got == want

    def test_batch_on_empty_list(self):
        case = _case()
        table, _ = build_workload(case)
        index = make_backend("gpkd", table, case)
        assert index.query_batch([]) == []

    def test_batch_mid_refinement_drains_sequentially(self):
        """A batch issued before convergence must still adapt per query."""
        case = _case(queries=40)
        table, queries = build_workload(case)
        set_arena_default(True)
        index = make_backend("pkd", table, case)
        answers = index.query_batch(queries)
        for query, answer in zip(queries, answers):
            assert np.array_equal(
                np.sort(answer.row_ids), reference_answer(table, query)
            )
        twin = make_backend("pkd", table, case)
        for query in queries:
            twin.query(query)
        assert (
            index.tree.preorder_signature() == twin.tree.preorder_signature()
        )

    def test_batch_seconds_share_elapsed(self):
        table = make_uniform_table(2_000, 2, seed=33)
        index = GreedyProgressiveKDTree(table, delta=0.25, size_threshold=64)
        queries = make_queries(table, 8, width_fraction=0.2, seed=34)
        for query in queries:
            index.query(query)
        answers = index.query_batch(queries)
        shares = {round(a.stats.seconds, 12) for a in answers if a.stats.converged}
        assert len(shares) <= 2  # converged tail shares one per-batch cost


class TestBatchRouting:
    """The batch residual scan (``KernelBackend.scan_windows``) sends
    dense windows to the backend's ``range_scan`` and sparse ones through
    the shared vectorized pass; ``native`` scans them all in one compiled
    call.  One batch mixing both kinds must answer and count exactly like
    per-query dispatch."""

    ROWS = 60_000
    THRESHOLD = 1_024

    def _converged(self, columns):
        index = GreedyProgressiveKDTree(
            Table([column.copy() for column in columns]),
            delta=1.0,
            size_threshold=self.THRESHOLD,
        )
        rng = np.random.default_rng(61)
        while not index.converged:
            lows = rng.random(len(columns)) * 95.0
            index.query(RangeQuery(lows, lows + 5.0))
        return index

    def _mixed_batch(self, n_dims):
        """Point-ish (sel 1e-7) and dense (sel 1e-2) windows, interleaved."""
        rng = np.random.default_rng(62)
        queries = []
        for position in range(24):
            side = 100.0 * (1e-2 if position % 2 else 1e-7) ** (1 / n_dims)
            lows = rng.random(n_dims) * (100.0 - side)
            queries.append(RangeQuery(lows, lows + side))
        return queries

    @pytest.mark.parametrize("arena", [True, False], ids=["arena", "object"])
    @pytest.mark.parametrize("kernel", ["native", "numpy", "reference"])
    def test_mixed_routes_match_per_query(self, monkeypatch, arena, kernel):
        from repro import kernels
        from repro.kernels import reference

        if kernel not in kernels.available_backends():
            pytest.skip(f"{kernel} kernels unavailable here")
        previous = kernels.active_name()
        kernels.use(kernel)
        set_arena_default(arena)
        try:
            rng = np.random.default_rng(60)
            columns = [rng.random(self.ROWS) * 100.0 for _ in range(2)]
            sequential = self._converged(columns)
            batched = self._converged(columns)
            queries = self._mixed_batch(2)
            want = [sequential.query(query) for query in queries]

            routes = {"kernel": 0, "vector": 0, "windows": 0}
            backend = kernels.active_backend()
            range_scan = backend.range_scan
            vector_windows = reference._vector_windows
            scan_windows = backend.scan_windows

            def counted_scan(*args, **kwargs):
                routes["kernel"] += 1
                return range_scan(*args, **kwargs)

            def counted_vector(*args, **kwargs):
                routes["vector"] += 1
                return vector_windows(*args, **kwargs)

            def counted_windows(*args, **kwargs):
                routes["windows"] += 1
                return scan_windows(*args, **kwargs)

            monkeypatch.setattr(backend, "range_scan", counted_scan)
            monkeypatch.setattr(reference, "_vector_windows", counted_vector)
            monkeypatch.setattr(backend, "scan_windows", counted_windows)
            got = batched.query_batch(queries)
        finally:
            kernels.use(previous)
        assert routes["windows"] == 1
        if kernel == "native":
            # Every residual window went through the one compiled call.
            assert routes["kernel"] == 0 and routes["vector"] == 0
        else:
            assert routes["kernel"] > 1 and routes["vector"] == 1
        assert (batched.tree.arena is not None) == arena
        for result, expected in zip(got, want):
            assert np.array_equal(result.row_ids, expected.row_ids)
            assert _counters(result.stats) == _counters(expected.stats)


class TestSessionRunBatch:
    def test_run_batch_matches_query_across_groups(self):
        from repro.session import ExplorationSession

        rng = np.random.default_rng(41)
        columns = {
            "x": rng.random(2_000) * 100,
            "y": rng.random(2_000) * 100,
            "z": rng.random(2_000) * 100,
        }
        with ExplorationSession(technique="greedy", size_threshold=128) as ref:
            ref.register("t", columns)
            with ExplorationSession(
                technique="greedy", size_threshold=128
            ) as session:
                session.register("t", columns)
                bounds_list = []
                for step in range(12):
                    lo = float(rng.uniform(0, 60))
                    if step % 3 == 0:
                        bounds_list.append({"x": (lo, lo + 30)})
                    elif step % 3 == 1:
                        bounds_list.append(
                            {"y": (lo, lo + 25), "z": (lo, lo + 25)}
                        )
                    else:
                        bounds_list.append({"x": (lo, lo + 20), "y": (lo, lo + 20)})
                want = [
                    np.sort(ref.query("t", **bounds).row_ids)
                    for bounds in bounds_list
                ]
                got = session.run_batch("t", bounds_list)
                assert len(got) == len(bounds_list)
                for result, expected in zip(got, want):
                    assert np.array_equal(np.sort(result.row_ids), expected)

    def test_run_batch_empty(self):
        from repro.session import ExplorationSession

        with ExplorationSession() as session:
            session.register("t", {"x": np.arange(100.0)})
            assert session.run_batch("t", []) == []


class TestServeBatch:
    def test_batch_op_over_tcp(self):
        from repro.serve import IndexServer, ServeClient, ServerThread, TableSpec
        from tests.test_serve import oracle_answer

        spec = TableSpec("wire", "uniform", 4_000, 2, seed=9)
        with ServerThread(IndexServer(size_threshold=256)) as handle:
            with ServeClient(handle.host, handle.port) as client:
                client.register_spec(spec)
                session = client.open_session("tenant-b")
                rng = np.random.default_rng(51)
                bounds_list = []
                for _ in range(6):
                    low = rng.uniform(0, 60, size=2)
                    high = low + rng.uniform(5, 30, size=2)
                    bounds_list.append({
                        f"c{d}": (float(low[d]), float(high[d]))
                        for d in range(2)
                    })
                response = client.batch(session, "wire", bounds_list)
                assert response["batch"] == len(bounds_list)
                results = response["results"]
                assert len(results) == len(bounds_list)
                for bounds, payload in zip(bounds_list, results):
                    want_count, want_checksum = oracle_answer(spec, bounds)
                    assert payload["count"] == want_count
                    assert payload["checksum"] == want_checksum
                stats = client.stats()
                assert stats["queries_total"] == len(bounds_list)
                client.shutdown()
