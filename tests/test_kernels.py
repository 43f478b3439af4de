"""The kernel backend registry, dispatch, the window scan, and leaf zone maps.

Covers the pluggable-kernel contract end to end: registry/probe
behaviour (unknown names raise, an unbuildable ``native`` falls back to
``numpy`` with one warning), the native library cache, the batch window
scan on adversarial inputs, the session/harness selection hooks, and the zone-map
shortcuts — pruning and containment must change *work counters only*,
never answers, and containment must hand out an independent copy of the
rowid range (a view would be corrupted by later partitioning).
"""

import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import ExplorationSession, RangeQuery, kernels
from repro.baselines.full_kdtree import AverageKDTree
from repro.bench.harness import run_workload
from repro.core.adaptive_kdtree import AdaptiveKDTree
from repro.core.metrics import QueryStats
from repro.core.progressive_kdtree import ProgressiveKDTree
from repro.core.table import Table
from repro.errors import InvalidParameterError
from repro.invariants import structural_errors, zone_map_errors
from repro.workloads.data import clustered_table
from repro.workloads.patterns import make_synthetic_workload, zoom_queries


@pytest.fixture
def small_uniform_workload():
    return make_synthetic_workload(
        "uniform", 2000, 3, 15, selectivity=0.02, seed=7
    )


@pytest.fixture(autouse=True)
def _restore_active_backend():
    """The dispatch is process-global; leave it as we found it."""
    previous = kernels.active_name()
    yield
    kernels.use(previous)


# ------------------------------------------------------------------ registry

def test_default_backend_is_native():
    assert kernels.DEFAULT_BACKEND == "native"
    assert kernels.FALLBACK_BACKEND == "numpy"
    assert sorted(kernels.registered_backends()) == [
        "native", "numpy", "reference"
    ]
    assert "numpy" in kernels.available_backends()
    assert "reference" in kernels.available_backends()


def test_unknown_backend_raises():
    with pytest.raises(InvalidParameterError):
        kernels.use("vectorwise")
    with pytest.raises(InvalidParameterError):
        kernels.get_backend("vectorwise")


_FALLBACK_SCRIPT = """
import json, warnings
import numpy as np
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    from repro import kernels
    requested = kernels.use("native")
    available = kernels.available_backends()
from repro.core.greedy_progressive import GreedyProgressiveKDTree
from repro.core.query import RangeQuery
from repro.core.table import Table
rng = np.random.default_rng(5)
index = GreedyProgressiveKDTree(
    Table([rng.random(20_000) * 100.0 for _ in range(3)]),
    delta=1.0, size_threshold=256,
)
while not index.converged:
    lows = rng.random(3) * 90.0
    index.query(RangeQuery(lows, lows + 10.0))
queries = [RangeQuery(lows, lows + 20.0) for lows in rng.random((16, 3)) * 80.0]
print(json.dumps({
    "active": kernels.active_name(),
    "requested": requested,
    "available": available,
    "warnings": [str(w.message) for w in caught
                 if issubclass(w.category, RuntimeWarning)],
    "answers": [
        [r.row_ids.tolist(), r.stats.scanned] for r in index.query_batch(queries)
    ],
}))
"""


def _run_fallback_script(env_updates):
    env = dict(os.environ)
    env.pop("REPRO_KERNELS", None)
    env.update(env_updates)
    env["PYTHONPATH"] = str(Path(kernels.__file__).resolve().parents[2])
    done = subprocess.run(
        [sys.executable, "-c", _FALLBACK_SCRIPT],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_unbuildable_native_falls_back_to_numpy(tmp_path):
    """No compiler and a cold cache: ``numpy`` runs, one warning says
    why, and the answers and charges equal a working build's."""
    broken = _run_fallback_script(
        {"CC": "/nonexistent", "XDG_CACHE_HOME": str(tmp_path / "cold")}
    )
    assert broken["active"] == "numpy"
    assert broken["requested"] == "numpy"
    assert "native" not in broken["available"]
    assert len(broken["warnings"]) == 1
    assert "native kernel backend unavailable" in broken["warnings"][0]
    if "native" not in kernels.available_backends():
        pytest.skip("no working C compiler here to compare against")
    working = _run_fallback_script({"XDG_CACHE_HOME": str(tmp_path / "warm")})
    assert working["active"] == "native"
    assert working["warnings"] == []
    assert broken["answers"] == working["answers"]


def test_use_returns_and_activates():
    assert kernels.use("reference") == "reference"
    assert kernels.active_name() == "reference"
    assert kernels.active_backend() is kernels.get_backend("reference")


def test_get_backend_caches_instances():
    assert kernels.get_backend("numpy") is kernels.get_backend("numpy")


def test_session_kernels_option():
    session = ExplorationSession(kernels="reference")
    assert session.kernels == "reference"
    assert kernels.active_name() == "reference"
    rng = np.random.default_rng(0)
    session.register("t", {"x": rng.random(500), "y": rng.random(500)})
    result = session.query("t", x=(0.1, 0.6), y=(0.2, 0.9))
    x = session.fetch("t", "x", result.row_ids)
    y = session.fetch("t", "y", result.row_ids)
    assert ((x > 0.1) & (x <= 0.6) & (y > 0.2) & (y <= 0.9)).all()


def test_session_rejects_unknown_kernels():
    with pytest.raises(InvalidParameterError):
        ExplorationSession(kernels="vectorwise")


def test_harness_kernels_option(small_uniform_workload):
    run = run_workload(
        "AKD",
        small_uniform_workload,
        size_threshold=64,
        validate=True,
        kernels="reference",
    )
    assert kernels.active_name() == "reference"
    assert run.n_queries == len(small_uniform_workload.queries)


# ------------------------------------------------------------------ zone maps

def _zoom_setup(n_rows=6000, n_queries=25):
    table = clustered_table(n_rows, 3, seed=11)
    mirror = Table.from_matrix(
        np.column_stack([table.column(dim) for dim in range(3)])
    )
    return table, mirror, zoom_queries(table, n_queries, 0.01)


def _full_scan_reference(mirror, query):
    columns = mirror.columns()
    return np.sort(
        kernels.get_backend("reference").range_scan(
            columns, 0, mirror.n_rows, query, QueryStats()
        )
    )


@pytest.mark.parametrize(
    "factory",
    [
        lambda table: AdaptiveKDTree(table, size_threshold=128),
        lambda table: ProgressiveKDTree(table, size_threshold=128, delta=0.3),
        lambda table: AverageKDTree(table, size_threshold=128),
    ],
    ids=["AKD", "PKD", "AvgKD"],
)
def test_zone_shortcuts_change_counters_not_answers(factory):
    """The Fig. 6 zoom workload over clustered data: the synopsis fires
    (nonzero pruned+contained across the indexes) while every answer
    stays equal to the full-scan reference, and the zone invariants
    (I7/I8) hold after every query."""
    table, mirror, queries = _zoom_setup()
    index = factory(table)
    fired = 0
    for query in queries:
        result = index.query(query)
        assert np.array_equal(
            np.sort(result.row_ids), _full_scan_reference(mirror, query)
        )
        fired += result.stats.pruned + result.stats.contained
        assert result.stats.pruned >= 0 and result.stats.contained >= 0
        assert structural_errors(index) == []
    state = index.debug_state()
    assert zone_map_errors(state) == []
    # Every leaf of a seeded tree carries a zone map.
    leaves = list(state.tree.iter_leaves())
    assert leaves and all(leaf.zone_lo is not None for leaf in leaves)


def test_zoom_workload_fires_zone_shortcuts():
    """At least one index must actually use the synopsis on the zoom
    workload — guards against the shortcuts silently never triggering."""
    table, mirror, queries = _zoom_setup()
    total = 0
    for factory in (
        lambda t: AdaptiveKDTree(t, size_threshold=128),
        lambda t: ProgressiveKDTree(t, size_threshold=128, delta=0.3),
        lambda t: AverageKDTree(t, size_threshold=128),
    ):
        index = factory(table)
        for query in queries:
            stats = index.query(query).stats
            total += stats.pruned + stats.contained
    assert total > 0


def test_containment_returns_an_independent_copy():
    """A contained piece's answer must not alias the index's rowid
    column: later reorganisation would silently rewrite the caller's
    result array."""
    rng = np.random.default_rng(3)
    table = Table.from_matrix(rng.random((4000, 2)))
    index = AdaptiveKDTree(table, size_threshold=256)
    # Whole-domain query: every piece is contained once zones exist.
    everything = RangeQuery([-1.0, -1.0], [2.0, 2.0])
    result = index.query(everything)
    assert result.stats.contained > 0
    assert np.array_equal(np.sort(result.row_ids), np.arange(4000))
    snapshot = result.row_ids.copy()
    # Force heavy reorganisation afterwards.
    for _ in range(5):
        lo = float(rng.random() * 0.8)
        index.query(RangeQuery([lo, lo], [lo + 0.1, lo + 0.1]))
    assert np.array_equal(result.row_ids, snapshot)
    assert not any(
        np.shares_memory(result.row_ids, array)
        for array in index.index_table.all_arrays
    )


def test_zone_maps_survive_splits_and_stay_tight():
    """Zones tighten monotonically down the tree and never lie (I7)."""
    table = clustered_table(5000, 2, seed=4)
    index = AdaptiveKDTree(table, size_threshold=64)
    for query in zoom_queries(table, 15, 0.02):
        index.query(query)
    state = index.debug_state()
    assert zone_map_errors(state) == []
    for leaf in state.tree.iter_leaves():
        if leaf.size == 0:
            continue
        for dim in range(2):
            values = state.index_table.columns[dim][leaf.start : leaf.end]
            assert leaf.zone_lo[dim] <= float(values.min())
            assert float(values.max()) <= leaf.zone_hi[dim]


def test_zone_invariant_checker_flags_a_lying_zone():
    table = clustered_table(2000, 2, seed=9)
    index = AdaptiveKDTree(table, size_threshold=128)
    index.query(RangeQuery([0.2, 0.2], [0.6, 0.6]))
    state = index.debug_state()
    leaf = max(state.tree.iter_leaves(), key=lambda piece: piece.size)
    # Narrow the zone to just below the actual max on dim 0 (without
    # inverting it, which would trip the ordering check first): I7 fires.
    values = state.index_table.columns[0][leaf.start : leaf.end]
    assert float(values.min()) < float(values.max())
    pinched = np.nextafter(float(values.max()), -np.inf)
    leaf.zone_hi = (pinched,) + tuple(leaf.zone_hi[1:])
    assert any("outside its zone" in p for p in zone_map_errors(state))


def test_zone_checker_flags_mixed_zoning():
    table = clustered_table(2000, 2, seed=9)
    index = AdaptiveKDTree(table, size_threshold=128)
    index.query(RangeQuery([0.2, 0.2], [0.6, 0.6]))
    state = index.debug_state()
    leaves = list(state.tree.iter_leaves())
    if len(leaves) < 2:
        pytest.skip("tree did not split")
    leaves[0].zone_lo = None
    leaves[0].zone_hi = None
    assert any("all-or-nothing" in p for p in zone_map_errors(state))


# --------------------------------------------------- dispatch smoke parity

@pytest.mark.parametrize("backend_name", kernels.available_backends())
def test_all_indexes_agree_across_backends(backend_name, small_uniform_workload):
    """One end-to-end pass per backend: identical answers and identical
    deterministic work counters for a mixed adaptive/progressive run."""
    kernels.use("reference")
    want = run_workload(
        "PKD", small_uniform_workload, size_threshold=64, delta=0.3
    )
    kernels.use(backend_name)
    got = run_workload(
        "PKD", small_uniform_workload, size_threshold=64, delta=0.3
    )
    assert [s.scanned for s in got.stats] == [s.scanned for s in want.stats]
    assert [s.swapped for s in got.stats] == [s.swapped for s in want.stats]
    assert [s.result_count for s in got.stats] == [
        s.result_count for s in want.stats
    ]
    assert got.node_counts == want.node_counts


# ------------------------------------------------------- batch window scan

needs_native = pytest.mark.skipif(
    "native" not in kernels.available_backends(),
    reason="no working C compiler for the native kernels",
)


def _oracle_windows(columns, rowids, starts, lens, eff_lo, eff_hi):
    """Literal transcription of the window-scan contract: a side is
    checked when its bound is finite, a dimension with no checked side
    is skipped, ``low < x <= high`` otherwise; the charge is the full
    window for the first checked dimension and the survivors so far for
    each later one."""
    parts, scanned = [], []
    for window, (start, length) in enumerate(zip(starts, lens)):
        keep = np.ones(length, dtype=bool)
        charge = 0
        first = True
        for dim, column in enumerate(columns):
            low, high = eff_lo[dim, window], eff_hi[dim, window]
            if not np.isfinite(low) and not np.isfinite(high):
                continue
            charge += length if first else int(keep.sum())
            first = False
            values = column[start : start + length]
            if np.isfinite(low):
                keep &= values > low
            if np.isfinite(high):
                keep &= values <= high
        parts.append(rowids[start + np.flatnonzero(keep)])
        scanned.append(charge)
    return parts, np.array(scanned, dtype=np.int64)


def _adversarial_windows(n_dims, seed):
    """Windows over columns laced with NaN, duplicates and bound-equal
    values; bounds mix ±inf, -0.0/0.0, exact data values and empty
    ranges; some windows are empty and some check no dimension."""
    rng = np.random.default_rng(seed)
    n_rows = 6_000
    columns = []
    for _ in range(n_dims):
        column = rng.integers(-3, 4, n_rows).astype(np.float64)
        column[rng.random(n_rows) < 0.3] = rng.random() * 4 - 2
        column[rng.random(n_rows) < 0.05] = np.nan
        column[rng.random(n_rows) < 0.02] = -0.0
        columns.append(column)
    rowids = rng.permutation(n_rows).astype(np.int64)
    n_windows = 40
    starts = rng.integers(0, n_rows - 1_000, n_windows).astype(np.int64)
    lens = rng.integers(0, 1_000, n_windows).astype(np.int64)
    lens[:3] = 0  # empty windows
    lens[3:12] = 900  # long enough for the dense NumPy route
    choices = np.array([-np.inf, np.inf, -0.0, 0.0, -1.0, 1.0, 2.0, 0.5])
    eff_lo = rng.choice(choices, (n_dims, n_windows))
    eff_hi = rng.choice(choices, (n_dims, n_windows))
    eff_lo[:, 5] = -np.inf  # a window that checks no dimension
    eff_hi[:, 5] = np.inf
    eff_lo[:, 6:12] = -1.5  # wide windows: many dim-0 survivors
    eff_hi[:, 6:12] = 3.0
    zone_lo0 = np.full(n_windows, -3.0)
    zone_hi0 = np.full(n_windows, 3.0)
    zone_lo0[::4] = np.nan  # pieces without a zone map
    zone_hi0[::4] = np.nan
    return columns, rowids, starts, lens, eff_lo, eff_hi, zone_lo0, zone_hi0


@pytest.mark.parametrize("n_dims", [1, 2, 3, 8, 9])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_window_scan_backends_agree_on_adversarial_windows(n_dims, seed):
    args = _adversarial_windows(n_dims, seed)
    want_parts, want_scanned = _oracle_windows(*args[:6])
    for name in kernels.available_backends():
        parts, scanned = kernels.get_backend(name).scan_windows(*args)
        assert len(parts) == len(want_parts), name
        for got, want in zip(parts, want_parts):
            assert got.dtype == np.int64
            assert np.array_equal(got, want), name
        assert scanned.tolist() == want_scanned.tolist(), name


def test_window_scan_bound_equal_values_and_no_checked_dimension():
    column = np.array([1.0, 2.0, np.nan, -0.0, 0.0, 3.0])
    rowids = np.arange(6, dtype=np.int64) * 10
    starts = np.array([0, 0, 0], dtype=np.int64)
    lens = np.array([6, 6, 6], dtype=np.int64)
    eff_lo = np.array([[1.0, -np.inf, -0.0]])
    eff_hi = np.array([[2.0, np.inf, np.inf]])
    nan = np.full(3, np.nan)
    for name in kernels.available_backends():
        parts, scanned = kernels.get_backend(name).scan_windows(
            [column], rowids, starts, lens, eff_lo, eff_hi, nan, nan
        )
        # == low excluded, == high included; no checked side keeps every
        # row (NaN too) at no charge; -0.0 == 0.0 is not above -0.0.
        assert [part.tolist() for part in parts] == [
            [10], [0, 10, 20, 30, 40, 50], [0, 10, 50]
        ], name
        assert scanned.tolist() == [6, 0, 6], name


@pytest.mark.parametrize("name", ["native", "numpy", "reference"])
def test_window_scan_of_no_windows(name):
    if name not in kernels.available_backends():
        pytest.skip(f"{name} kernels unavailable here")
    empty_f = np.empty((2, 0))
    parts, scanned = kernels.get_backend(name).scan_windows(
        [np.zeros(4), np.zeros(4)], np.arange(4, dtype=np.int64),
        np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
        empty_f, empty_f, np.empty(0), np.empty(0),
    )
    assert parts == []
    assert scanned.dtype == np.int64 and scanned.shape == (0,)


@needs_native
def test_native_window_scan_rejects_out_of_range_windows():
    backend = kernels.get_backend("native")
    columns = [np.zeros(10), np.zeros(10)]
    rowids = np.arange(10, dtype=np.int64)
    bounds = np.zeros((2, 1))
    nan = np.full(1, np.nan)
    for starts, lens, lows in (
        ([8], [3], bounds),  # runs past the columns
        ([-1], [2], bounds),  # starts before them
        ([0], [4], np.zeros((1, 1))),  # bounds for one dimension of two
    ):
        with pytest.raises(ValueError, match="out of range"):
            backend.scan_windows(
                columns, rowids, np.array(starts, dtype=np.int64),
                np.array(lens, dtype=np.int64), lows, bounds, nan, nan,
            )


@needs_native
def test_float32_table_takes_the_inherited_path(monkeypatch):
    from repro.core.greedy_progressive import GreedyProgressiveKDTree

    backend = kernels.get_backend("native")

    def refuse(*args):
        raise AssertionError("float32 columns reached the C kernel")

    monkeypatch.setattr(backend, "_scan", refuse)
    rng = np.random.default_rng(8)
    columns = [rng.random(8_000) * 100.0 for _ in range(2)]
    queries = [RangeQuery(lows, lows + 30.0) for lows in rng.random((8, 2)) * 60]
    results = {}
    for name in ("native", "reference"):
        kernels.use(name)
        index = GreedyProgressiveKDTree(
            Table(columns, dtype=np.float32), delta=1.0, size_threshold=128
        )
        while not index.converged:
            index.query(RangeQuery([0.0, 0.0], [50.0, 50.0]))
        results[name] = index.query_batch(queries)
    for got, want in zip(results["native"], results["reference"]):
        assert np.array_equal(got.row_ids, want.row_ids)
        assert got.stats.scanned == want.stats.scanned


@needs_native
def test_native_cache_is_never_loaded_when_shared(tmp_path, monkeypatch):
    from repro.kernels import native

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    native._load()  # builds into a fresh private directory
    directory = native.cache_dir()
    (library,) = directory.glob("native_scan-*.so")
    assert stat.S_IMODE(directory.stat().st_mode) == 0o700

    def refuse(path):
        raise AssertionError(f"loaded {path} from a shared location")

    monkeypatch.setattr(native.ctypes, "CDLL", refuse)
    for target, mode in (
        (directory, 0o770), (directory, 0o777),
        (library, 0o720), (library, 0o702),
    ):
        previous = stat.S_IMODE(target.stat().st_mode)
        target.chmod(mode)
        try:
            with pytest.raises(native.NativeBuildError, match="private"):
                native._load()
        finally:
            target.chmod(previous)
