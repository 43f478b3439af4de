"""Progressive KD-Tree: budgets, phases, deterministic convergence."""

import dataclasses

import numpy as np
import pytest

from repro import (
    AverageKDTree,
    CostModel,
    InvalidParameterError,
    MachineProfile,
    ProgressiveKDTree,
    RangeQuery,
    Table,
)
from repro.core.arena import arena_default, set_arena_default
from repro.core.greedy_progressive import GreedyProgressiveKDTree
from repro.core.metrics import QueryStats
from repro.core.progressive_kdtree import CONVERGED, CREATION, REFINEMENT
from repro.core.serialize import FrozenKDIndex, snapshot_index
from repro.parallel import config as par_config
from repro.parallel import procpool
from repro.serve.protocol import TableSpec
from tests.conftest import assert_correct, make_queries, make_uniform_table


def drive_to_convergence(index, queries, max_rounds=200):
    """Replay queries (cycling) until the index converges."""
    count = 0
    while not index.converged:
        index.query(queries[count % len(queries)])
        count += 1
        assert count < max_rounds, "index failed to converge"
    return count


class TestCorrectness:
    @pytest.mark.parametrize("delta", [0.05, 0.2, 0.5, 1.0])
    def test_correct_at_every_stage(self, small_table, small_queries, delta):
        index = ProgressiveKDTree(small_table, delta=delta, size_threshold=64)
        assert_correct(index, small_table, small_queries)

    def test_correct_on_duplicates(self, duplicate_table):
        queries = make_queries(duplicate_table, 30, width_fraction=0.3, seed=2)
        index = ProgressiveKDTree(duplicate_table, delta=0.15, size_threshold=32)
        assert_correct(index, duplicate_table, queries)

    def test_correct_on_constant_column(self, constant_column_table):
        queries = [
            RangeQuery([10.0, 40.0, 10.0], [60.0, 50.0, 60.0]),
            RangeQuery([5.0, 0.0, 5.0], [95.0, 41.9, 95.0]),
        ] * 10
        index = ProgressiveKDTree(
            constant_column_table, delta=0.2, size_threshold=32
        )
        assert_correct(index, constant_column_table, queries)

    def test_correct_when_first_column_constant(self):
        rng = np.random.default_rng(5)
        table = Table([np.full(1_000, 3.0), rng.random(1_000) * 100])
        queries = [
            RangeQuery([2.0, 10.0 + i], [4.0, 30.0 + i]) for i in range(25)
        ]
        index = ProgressiveKDTree(table, delta=0.3, size_threshold=32)
        assert_correct(index, table, queries)

    def test_correct_after_convergence(self, small_table, small_queries):
        index = ProgressiveKDTree(small_table, delta=0.5, size_threshold=64)
        drive_to_convergence(index, small_queries)
        assert_correct(index, small_table, small_queries)


class TestPhases:
    def test_starts_in_creation(self, small_table):
        index = ProgressiveKDTree(small_table, delta=0.25, size_threshold=64)
        assert index.phase == CREATION

    def test_creation_copies_delta_fraction_per_query(self, small_table):
        index = ProgressiveKDTree(small_table, delta=0.25, size_threshold=64)
        queries = make_queries(small_table, 6, seed=3)
        expected = int(round(0.25 * small_table.n_rows))
        for i in range(3):
            index.query(queries[i])
            assert index.rows_copied == min((i + 1) * expected, small_table.n_rows)

    def test_creation_finishes_after_ceil_inverse_delta_queries(self, small_table):
        index = ProgressiveKDTree(small_table, delta=0.34, size_threshold=64)
        queries = make_queries(small_table, 5, seed=4)
        for i in range(3):
            assert index.phase == CREATION
            index.query(queries[i])
        assert index.phase in (REFINEMENT, CONVERGED)

    def test_each_base_row_copied_exactly_once(self, small_table):
        index = ProgressiveKDTree(small_table, delta=0.4, size_threshold=64)
        queries = make_queries(small_table, 4, seed=5)
        for i in range(3):
            index.query(queries[i])
        rowids = np.sort(index.index_table.rowids)
        assert np.array_equal(rowids, np.arange(small_table.n_rows))

    def test_delta_one_finishes_creation_in_one_query(self, small_table):
        index = ProgressiveKDTree(small_table, delta=1.0, size_threshold=64)
        index.query(make_queries(small_table, 1, seed=6)[0])
        assert index.rows_copied == small_table.n_rows
        assert index.phase in (REFINEMENT, CONVERGED)

    def test_first_query_cost_scales_with_delta(self, small_table):
        query = make_queries(small_table, 1, seed=7)[0]
        small = ProgressiveKDTree(small_table, delta=0.1, size_threshold=64)
        large = ProgressiveKDTree(small_table, delta=1.0, size_threshold=64)
        work_small = small.query(query).stats.indexing_work
        work_large = large.query(query).stats.indexing_work
        assert work_large > 5 * work_small

    def test_refinement_budget_bounded(self, small_table, small_queries):
        delta = 0.2
        index = ProgressiveKDTree(small_table, delta=delta, size_threshold=64)
        budget_rows = delta * small_table.n_rows
        d = small_table.n_columns
        for query in small_queries * 5:
            stats = index.query(query).stats
            if index.converged:
                break
            # swapped counts element visits across d+1 arrays; allow the
            # one-row overshoot the partitioner needs for progress.
            assert stats.swapped <= (budget_rows + len(small_queries)) * (d + 1) * 1.2

    def test_no_indexing_after_convergence(self, small_table, small_queries):
        index = ProgressiveKDTree(small_table, delta=0.5, size_threshold=64)
        drive_to_convergence(index, small_queries)
        stats = index.query(small_queries[0]).stats
        assert stats.indexing_work == 0
        assert stats.nodes_created == 0
        assert stats.delta_used is not None  # still reported (as budget)


class TestConvergence:
    def test_converges(self, small_table, small_queries):
        index = ProgressiveKDTree(small_table, delta=0.3, size_threshold=64)
        drive_to_convergence(index, small_queries)
        assert index.phase == CONVERGED
        assert index.converged

    def test_all_leaves_below_threshold(self, small_table, small_queries):
        index = ProgressiveKDTree(small_table, delta=0.3, size_threshold=64)
        drive_to_convergence(index, small_queries)
        for leaf in index.tree.iter_leaves():
            assert leaf.size <= 64 or leaf.converged

    def test_tree_validates_throughout(self, small_table, small_queries):
        index = ProgressiveKDTree(small_table, delta=0.15, size_threshold=64)
        for query in small_queries * 3:
            index.query(query)
            if index.tree is not None:
                index.tree.validate(index.index_table.columns)
            if index.converged:
                break

    def test_smaller_delta_converges_later(self, small_table, small_queries):
        fast = ProgressiveKDTree(small_table, delta=0.5, size_threshold=64)
        slow = ProgressiveKDTree(small_table, delta=0.1, size_threshold=64)
        fast_queries = drive_to_convergence(fast, small_queries)
        slow_queries = drive_to_convergence(slow, small_queries, max_rounds=500)
        assert slow_queries > fast_queries

    def test_number_of_creation_queries_independent_of_dims(self):
        # delta fixes a fraction of N per query, so dimensionality must not
        # change how many queries the creation phase takes.
        for d in (2, 4):
            table = make_uniform_table(2_000, d, seed=d)
            index = ProgressiveKDTree(table, delta=0.25, size_threshold=64)
            queries = make_queries(table, 10, seed=d + 1)
            count = 0
            while index.phase == CREATION:
                index.query(queries[count % len(queries)])
                count += 1
            assert count == 4

    def test_converged_structure_matches_average_kdtree(self):
        # On integer-valued data, sums are exact, so the progressive
        # mean-pivot refinement must produce the same pieces as AvgKD.
        rng = np.random.default_rng(11)
        table = Table.from_matrix(
            rng.integers(0, 1_000, size=(2_000, 2)).astype(float)
        )
        queries = make_queries(table, 10, width_fraction=0.2, seed=12)
        progressive = ProgressiveKDTree(table, delta=0.5, size_threshold=64)
        drive_to_convergence(progressive, queries)
        eager = AverageKDTree(table, size_threshold=64)
        eager.query(queries[0])
        progressive_pieces = sorted(
            (leaf.start, leaf.end) for leaf in progressive.tree.iter_leaves()
        )
        eager_pieces = sorted(
            (leaf.start, leaf.end) for leaf in eager.tree.iter_leaves()
        )
        assert progressive_pieces == eager_pieces

    def test_constant_table_converges_immediately_after_creation(self):
        table = Table([np.full(500, 1.0), np.full(500, 2.0)])
        index = ProgressiveKDTree(table, delta=0.5, size_threshold=64)
        queries = [RangeQuery([0.0, 0.0], [5.0, 5.0])] * 20
        drive_to_convergence(index, queries, max_rounds=30)


class TestInteractivityThreshold:
    def test_tau_caps_delta_when_scan_fits(self):
        table = make_uniform_table(10_000, 2, seed=13)
        model = CostModel(MachineProfile.deterministic(), table.n_rows, 2)
        tau = model.full_scan_seconds() * 1.2  # little headroom
        index = ProgressiveKDTree(
            table, delta=0.9, size_threshold=64, tau=tau, cost_model=model
        )
        stats = index.query(make_queries(table, 1, seed=14)[0]).stats
        assert stats.delta_used < 0.9  # capped below the user delta

    def test_tau_ignored_while_scan_exceeds_it(self):
        table = make_uniform_table(10_000, 2, seed=15)
        model = CostModel(MachineProfile.deterministic(), table.n_rows, 2)
        tau = model.full_scan_seconds() / 10
        index = ProgressiveKDTree(
            table, delta=0.3, size_threshold=64, tau=tau, cost_model=model
        )
        stats = index.query(make_queries(table, 1, seed=16)[0]).stats
        assert stats.delta_used == pytest.approx(0.3, rel=0.01)


class TestValidation:
    def test_invalid_delta(self, small_table):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(InvalidParameterError):
                ProgressiveKDTree(small_table, delta=bad)

    def test_invalid_threshold(self, small_table):
        with pytest.raises(InvalidParameterError):
            ProgressiveKDTree(small_table, size_threshold=0)

    def test_invalid_tau(self, small_table):
        with pytest.raises(InvalidParameterError):
            ProgressiveKDTree(small_table, tau=0.0)


# -------------------------------------------------- full-domain piece picks

#: QueryStats fields that are work counters (the wall-clock ones vary).
WORK_FIELDS = tuple(
    field.name
    for field in dataclasses.fields(QueryStats)
    if field.name not in ("seconds", "phase_seconds")
)


def searched_open(index, query, stats):
    """Reference lookup: descend the tree, keep the open pieces reached."""
    open_set = {id(piece) for piece in index._open}
    return [
        match.piece
        for match in index._tree.search(query, stats)
        if id(match.piece) in open_set
    ]


def searched_pick(index, query, stats):
    """Reference ``_pick_piece``: the needed piece is chosen from a full
    descent, ties going to the first one the descent reports."""
    if index._active is not None and not index._active.converged:
        return index._active
    needed = searched_open(index, query, stats)
    if needed:
        chosen = max(needed, key=lambda piece: piece.size)
    else:
        chosen = max(index._open, key=lambda piece: piece.size)
    index._active = chosen
    return chosen


def pick_by_descent(index):
    """Make ``index`` pick pieces through a tree descent for every probe."""
    index._pick_piece = lambda query, stats: searched_pick(index, query, stats)
    index._open_needed = lambda query, stats: searched_open(
        index, query, stats
    )


def count_searches(index):
    """Wrap ``index``'s tree lookup; returns the list each call appends to."""
    calls = []
    search = index.tree.search

    def counted(query, stats):
        calls.append(query)
        return search(query, stats)

    index.tree.search = counted
    return calls


def refine_slices(index, slice_rows, max_slices=100_000):
    """Full-domain slices until convergence: per-slice (rows, counters)."""
    probe = RangeQuery.full_domain(index.n_dims)
    slices = []
    while index.phase == REFINEMENT:
        stats = QueryStats()
        used = index._refine_step(slice_rows, probe, stats)
        slices.append(
            (used, tuple(getattr(stats, name) for name in WORK_FIELDS))
        )
        assert len(slices) < max_slices, "refinement failed to converge"
    return slices


def layout(index):
    return (
        [array.tobytes() for array in index.index_table.all_arrays],
        [(leaf.start, leaf.end) for leaf in index.tree.iter_leaves()],
    )


def created(cls, spec, threshold):
    """An index of ``cls`` over ``spec`` past its creation phase."""
    table = Table(list(spec.build_columns().values()))
    index = cls(table, delta=1.0, size_threshold=threshold)
    index.query(RangeQuery.full_domain(spec.n_dims))
    assert index.phase == REFINEMENT
    return index


def restored(index, cls, threshold):
    """A fresh ``cls`` resuming refinement from a snapshot of ``index``.

    The tree comes back through :mod:`repro.core.serialize` (so its
    ``node_count``/``leaf_count`` are the decoder's); open pieces are
    the restored leaves not marked converged.
    """
    payload = {name: array.copy() for name, array in snapshot_index(index).items()}
    frozen = FrozenKDIndex.from_snapshot(payload)
    resumed = cls(index.table, delta=1.0, size_threshold=threshold)
    resumed._index = frozen.index_table
    resumed._tree = frozen.tree
    resumed._rows_copied = resumed.n_rows
    resumed._open = [
        leaf for leaf in frozen.tree.iter_leaves() if not leaf.converged
    ]
    resumed.phase = REFINEMENT
    return resumed


@pytest.fixture
def knobs():
    """Pin the arena default and both fan-out tiers; restore afterwards."""
    default = arena_default()
    workers = par_config.get_workers()
    procs = procpool.get_process_workers()
    par_config.set_workers(1)
    procpool.set_process_workers(1)
    yield
    set_arena_default(default)
    par_config.set_workers(workers)
    procpool.set_process_workers(procs)


class TestFullDomainPick:
    """A probe unbounded on every dimension picks its piece from the open
    list without descending the tree, charging the descent's node count;
    slices, counters and the final layout match the descent-based pick."""

    THRESHOLDS = {"uniform": 64, "duplicate": 32, "skewed": 64}

    def converge_both(self, cls, kind, slice_rows=1 << 11, n_rows=12_000):
        spec = TableSpec("t", kind, n_rows, 3, seed=5)
        threshold = self.THRESHOLDS[kind]
        fast = created(cls, spec, threshold)
        reference = created(cls, spec, threshold)
        pick_by_descent(reference)
        fast_searches = count_searches(fast)
        reference_searches = count_searches(reference)
        fast_slices = refine_slices(fast, slice_rows)
        reference_slices = refine_slices(reference, slice_rows)
        assert fast_slices == reference_slices
        assert layout(fast) == layout(reference)
        assert fast.converged and reference.converged
        assert not fast_searches
        assert reference_searches
        return fast_slices

    @pytest.mark.parametrize("arena", [True, False], ids=["arena", "objects"])
    @pytest.mark.parametrize("kind", ["uniform", "duplicate", "skewed"])
    @pytest.mark.parametrize(
        "cls", [ProgressiveKDTree, GreedyProgressiveKDTree], ids=["pkd", "gpkd"]
    )
    def test_serial_pick_matches_descent(self, knobs, cls, kind, arena):
        set_arena_default(arena)
        slices = self.converge_both(cls, kind)
        assert len(slices) > 1

    @pytest.mark.parametrize("kind", ["uniform", "duplicate"])
    @pytest.mark.parametrize(
        "cls", [ProgressiveKDTree, GreedyProgressiveKDTree], ids=["pkd", "gpkd"]
    )
    def test_fanout_pick_matches_descent(self, knobs, cls, kind):
        par_config.set_workers(2)
        self.converge_both(cls, kind)

    @pytest.mark.parametrize("arena", [True, False], ids=["arena", "objects"])
    def test_restored_tree_charges_like_its_descent(self, knobs, arena):
        set_arena_default(arena)
        spec = TableSpec("t", "uniform", 12_000, 3, seed=6)
        original = created(ProgressiveKDTree, spec, 64)
        probe = RangeQuery.full_domain(3)
        for _ in range(20):
            original._refine_step(1 << 11, probe, QueryStats())
        assert original.phase == REFINEMENT
        assert original.tree.node_count > 8
        fast = restored(original, ProgressiveKDTree, 64)
        reference = restored(original, ProgressiveKDTree, 64)
        assert fast.tree.leaf_count == len(list(fast.tree.iter_leaves()))
        pick_by_descent(reference)
        fast_searches = count_searches(fast)
        assert refine_slices(fast, 1 << 11) == refine_slices(reference, 1 << 11)
        assert layout(fast) == layout(reference)
        assert not fast_searches

    def test_non_finite_pivot_falls_back_to_descent(self, knobs):
        # A -inf pivot stops the full-domain descent at that node's left
        # child, so the open list no longer equals what the probe reaches.
        rng = np.random.default_rng(8)
        column = rng.random(4_000) * 100.0
        column[:1_500] = -np.inf
        table = Table([column, rng.random(4_000) * 100.0])
        fast = ProgressiveKDTree(table, delta=1.0, size_threshold=64)
        reference = ProgressiveKDTree(table, delta=1.0, size_threshold=64)
        for index in (fast, reference):
            index.query(RangeQuery.full_domain(2))
        assert not fast.tree.finite_keys
        pick_by_descent(reference)
        assert refine_slices(fast, 1 << 10) == refine_slices(reference, 1 << 10)
        assert layout(fast) == layout(reference)

    def test_unbounded_property(self):
        assert RangeQuery.full_domain(3).unbounded
        assert RangeQuery.full_domain(3).n_dims == 3
        assert not RangeQuery([-np.inf, 0.0], [np.inf, np.inf]).unbounded
        assert not RangeQuery([-np.inf, -np.inf], [np.inf, 5.0]).unbounded
