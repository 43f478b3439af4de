"""Property-based tests (hypothesis) for the scan kernels.

The three kernels — :func:`range_scan` (option 2, candidate list),
:func:`full_scan` (option 2 over whole columns), and
:func:`full_scan_bitmap` (option 1, per-column bitmaps) — must agree with
each other and with a naive mask on the paper's half-open semantics
``low < x <= high``, including ±inf sides, duplicate-laden columns, and
bounds that sit exactly on data values.

Additionally, every *registered and available* kernel backend
(:mod:`repro.kernels`) must be behaviourally indistinguishable from the
``reference`` backend: bit-identical positions in the same order and
identical ``QueryStats`` work counters, for arbitrary sub-windows and
arbitrary residual-check flags — and the same holds for the batch
window scan (``scan_windows``), whose every window must equal a
reference ``range_scan`` of that window.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RangeQuery, kernels
from repro.core.metrics import QueryStats
from repro.core.scan import full_scan, full_scan_bitmap, range_scan


@st.composite
def scan_case(draw):
    """Random columns plus one query biased toward boundary collisions."""
    n_rows = draw(st.integers(min_value=0, max_value=300))
    n_dims = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["uniform", "duplicate", "constant"]))
    if kind == "uniform":
        matrix = rng.random((n_rows, n_dims)) * 100
    elif kind == "duplicate":
        matrix = rng.integers(0, 6, size=(n_rows, n_dims)).astype(float)
    else:
        matrix = np.full((n_rows, n_dims), 3.0)
    columns = [np.ascontiguousarray(matrix[:, dim]) for dim in range(n_dims)]
    lows, highs = [], []
    for dim in range(n_dims):
        side = draw(st.sampled_from(["box", "exact", "low_inf", "high_inf", "empty"]))
        if side == "low_inf":
            low, high = -np.inf, draw(st.floats(-5, 105, allow_nan=False))
        elif side == "high_inf":
            low, high = draw(st.floats(-5, 105, allow_nan=False)), np.inf
        elif side == "exact" and n_rows:
            # Bounds equal to actual data values: the off-by-one surface.
            low = float(columns[dim][draw(st.integers(0, n_rows - 1))])
            high = float(columns[dim][draw(st.integers(0, n_rows - 1))])
            if low > high:
                low, high = high, low
        elif side == "empty":
            low = high = draw(st.floats(-5, 105, allow_nan=False))
        else:
            low = draw(st.floats(-5, 105, allow_nan=False))
            high = draw(st.floats(-5, 105, allow_nan=False))
            if low > high:
                low, high = high, low
        lows.append(low)
        highs.append(high)
    return columns, RangeQuery(lows, highs)


def _naive(columns, query):
    """Literal transcription of the half-open predicate."""
    n_rows = columns[0].shape[0] if columns else 0
    mask = np.ones(n_rows, dtype=bool)
    for dim in range(query.n_dims):
        mask &= columns[dim] > query.lows[dim]
        mask &= columns[dim] <= query.highs[dim]
    return np.flatnonzero(mask).astype(np.int64)


@given(scan_case())
@settings(max_examples=200, deadline=None)
def test_scan_kernels_agree_on_half_open_semantics(case):
    columns, query = case
    want = _naive(columns, query)
    assert np.array_equal(
        np.sort(full_scan(columns, query, QueryStats())), want
    )
    assert np.array_equal(
        np.sort(full_scan_bitmap(columns, query, QueryStats())), want
    )
    n_rows = int(columns[0].shape[0])
    assert np.array_equal(
        np.sort(range_scan(columns, 0, n_rows, query, QueryStats())), want
    )


@given(scan_case(), st.integers(min_value=0, max_value=2**16))
@settings(max_examples=150, deadline=None)
def test_range_scan_subrange_is_a_restriction(case, seed):
    """Scanning ``[start, end)`` returns exactly the full-scan matches that
    fall inside the window, as absolute indices."""
    columns, query = case
    n_rows = int(columns[0].shape[0])
    rng = np.random.default_rng(seed)
    start = int(rng.integers(0, n_rows + 1))
    end = int(rng.integers(start, n_rows + 1))
    got = np.sort(range_scan(columns, start, end, query, QueryStats()))
    want = _naive(columns, query)
    want = want[(want >= start) & (want < end)]
    assert np.array_equal(got, want)


@given(scan_case())
@settings(max_examples=150, deadline=None)
def test_range_scan_skip_flags_drop_only_redundant_checks(case):
    """With every flag False the whole window qualifies; with all True the
    kernel matches the default behaviour — the KD piece-scan contract."""
    columns, query = case
    n_rows = int(columns[0].shape[0])
    n_dims = query.n_dims
    all_off = range_scan(
        columns, 0, n_rows, query, QueryStats(),
        check_low=[False] * n_dims, check_high=[False] * n_dims,
    )
    assert np.array_equal(all_off, np.arange(n_rows, dtype=np.int64))
    all_on = range_scan(
        columns, 0, n_rows, query, QueryStats(),
        check_low=[True] * n_dims, check_high=[True] * n_dims,
    )
    assert np.array_equal(np.sort(all_on), _naive(columns, query))


@pytest.mark.parametrize("backend_name", kernels.available_backends())
@given(case=scan_case(), seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=100, deadline=None)
def test_every_backend_is_bit_identical_to_reference(backend_name, case, seed):
    """Same positions, same order, same counters — for any window and any
    residual-check flag combination a KD piece scan can produce."""
    columns, query = case
    n_rows = int(columns[0].shape[0])
    rng = np.random.default_rng(seed)
    start = int(rng.integers(0, n_rows + 1))
    end = int(rng.integers(start, n_rows + 1))
    if rng.integers(0, 2):
        check_low = rng.integers(0, 2, query.n_dims).astype(bool)
        check_high = rng.integers(0, 2, query.n_dims).astype(bool)
    else:
        check_low = check_high = None
    backend = kernels.get_backend(backend_name)
    reference = kernels.get_backend("reference")
    got_stats, want_stats = QueryStats(), QueryStats()
    got = backend.range_scan(
        columns, start, end, query, got_stats, check_low, check_high
    )
    want = reference.range_scan(
        columns, start, end, query, want_stats, check_low, check_high
    )
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert got_stats.scanned == want_stats.scanned
    assert got_stats.copied == want_stats.copied
    assert got_stats.swapped == want_stats.swapped


class _Bounds:
    """The query view ``range_scan`` reads, from one window's bounds."""

    def __init__(self, lows, highs):
        self.lows_f = lows
        self.highs_f = highs
        self.finite_lows = tuple(bool(f) for f in np.isfinite(lows))
        self.finite_highs = tuple(bool(f) for f in np.isfinite(highs))
        self.n_dims = len(lows)


@pytest.mark.parametrize("backend_name", kernels.available_backends())
@given(case=scan_case(), seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=100, deadline=None)
def test_every_backend_window_scan_matches_reference(backend_name, case, seed):
    """Each window of one ``scan_windows`` call returns the rowids at the
    reference ``range_scan`` positions of that window, in order, with the
    same ``scanned`` charge; NaN values and unchecked (``±inf``) sides
    included."""
    columns, query = case
    n_rows = int(columns[0].shape[0])
    rng = np.random.default_rng(seed)
    if n_rows and rng.integers(0, 2):
        for column in columns:
            column[rng.random(n_rows) < 0.1] = np.nan
    rowids = rng.permutation(n_rows).astype(np.int64)
    n_windows = int(rng.integers(0, 6))
    starts = rng.integers(0, n_rows + 1, n_windows).astype(np.int64)
    lens = (rng.random(n_windows) * (n_rows - starts + 1)).astype(np.int64)
    # Residual-check flags become infinite effective bounds.
    eff_lo = np.tile(np.asarray(query.lows_f, float)[:, None], n_windows)
    eff_hi = np.tile(np.asarray(query.highs_f, float)[:, None], n_windows)
    eff_lo[rng.random(eff_lo.shape) < 0.3] = -np.inf
    eff_hi[rng.random(eff_hi.shape) < 0.3] = np.inf
    zone = np.full(n_windows, np.nan)
    parts, scanned = kernels.get_backend(backend_name).scan_windows(
        columns, rowids, starts, lens, eff_lo, eff_hi, zone, zone
    )
    reference = kernels.get_backend("reference")
    assert len(parts) == n_windows
    for window in range(n_windows):
        stats = QueryStats()
        start = int(starts[window])
        positions = reference.range_scan(
            columns, start, start + int(lens[window]),
            _Bounds(eff_lo[:, window], eff_hi[:, window]), stats,
        )
        assert np.array_equal(parts[window], rowids[positions])
        assert int(scanned[window]) == stats.scanned


@given(scan_case())
@settings(max_examples=100, deadline=None)
def test_boundary_rows_are_half_open(case):
    """Rows exactly at ``low`` are excluded; rows exactly at ``high`` are
    included — spelled out separately from the naive-mask comparison so a
    symmetric boundary bug cannot cancel out."""
    columns, query = case
    matches = set(full_scan(columns, query, QueryStats()).tolist())
    for dim in range(query.n_dims):
        column = columns[dim]
        for row in np.flatnonzero(column == query.lows[dim]):
            assert int(row) not in matches
        at_high = np.flatnonzero(column == query.highs[dim])
        for row in at_high:
            inside = all(
                query.lows[d] < columns[d][row] <= query.highs[d]
                for d in range(query.n_dims)
            )
            assert (int(row) in matches) == inside
