"""Workload execution harness.

Runs a query sequence against one indexing technique and records the
paper's per-query measurements.  Shifting workloads get one index instance
per column group, reflecting how a system would index each newly-explored
group of columns from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from ..baselines import (
    AverageKDTree,
    FullScan,
    MedianKDTree,
    Quasii,
    SFCCracking,
)
from ..core import (
    AdaptiveKDTree,
    BaseIndex,
    GreedyProgressiveKDTree,
    ProgressiveKDTree,
    QueryStats,
    Table,
)
from .. import kernels as kernel_registry
from .. import obs
from ..errors import InvalidParameterError, WorkloadError
from ..obs import metrics as obs_metrics
from ..workloads.base import Workload

__all__ = ["INDEX_FACTORIES", "make_index", "run_workload", "WorkloadRun"]


def _adaptive(table: Table, size_threshold: int, **kw) -> BaseIndex:
    return AdaptiveKDTree(
        table, size_threshold=size_threshold, tau=kw.get("tau"),
        cost_model=kw.get("cost_model"),
    )


def _progressive(table: Table, size_threshold: int, **kw) -> BaseIndex:
    return ProgressiveKDTree(
        table,
        delta=kw.get("delta", 0.2),
        size_threshold=size_threshold,
        tau=kw.get("tau"),
        cost_model=kw.get("cost_model"),
    )


def _greedy(table: Table, size_threshold: int, **kw) -> BaseIndex:
    return GreedyProgressiveKDTree(
        table,
        delta=kw.get("delta", 0.2),
        size_threshold=size_threshold,
        tau=kw.get("tau"),
        query_limit=kw.get("query_limit"),
        cost_model=kw.get("cost_model"),
    )


#: Paper abbreviation -> factory(table, size_threshold, **params).
INDEX_FACTORIES: Dict[str, Callable[..., BaseIndex]] = {
    "FS": lambda table, size_threshold, **kw: FullScan(table),
    "AvgKD": lambda table, size_threshold, **kw: AverageKDTree(
        table, size_threshold=size_threshold
    ),
    "MedKD": lambda table, size_threshold, **kw: MedianKDTree(
        table, size_threshold=size_threshold
    ),
    "Q": lambda table, size_threshold, **kw: Quasii(
        table, size_threshold=size_threshold
    ),
    "AKD": _adaptive,
    "PKD": _progressive,
    "GPKD": _greedy,
    "SFC": lambda table, size_threshold, **kw: SFCCracking(table),
}


def make_index(name: str, table: Table, size_threshold: int = 1024, **params) -> BaseIndex:
    """Instantiate an index by its paper abbreviation."""
    try:
        factory = INDEX_FACTORIES[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown index {name!r}; options: {sorted(INDEX_FACTORIES)}"
        ) from None
    return factory(table, size_threshold, **params)


@dataclass
class WorkloadRun:
    """Per-query measurements of one index over one workload."""

    workload_name: str
    index_name: str
    stats: List[QueryStats] = field(default_factory=list)
    node_counts: List[int] = field(default_factory=list)

    @property
    def n_queries(self) -> int:
        return len(self.stats)

    def seconds(self) -> np.ndarray:
        return np.array([s.seconds for s in self.stats])

    def work(self) -> np.ndarray:
        """Deterministic work units per query (noise-free 'time')."""
        return np.array([s.work for s in self.stats], dtype=np.float64)

    def cumulative_seconds(self) -> np.ndarray:
        return np.cumsum(self.seconds())

    def cumulative_work(self) -> np.ndarray:
        return np.cumsum(self.work())

    def converged_at(self) -> Optional[int]:
        """Index of the first query after which the index was converged."""
        for position, stat in enumerate(self.stats):
            if stat.converged:
                return position
        return None

    def phase_totals(self) -> Dict[str, float]:
        """Total seconds per cost phase (Fig. 6c breakdown)."""
        totals: Dict[str, float] = {}
        for stat in self.stats:
            for phase, value in stat.phase_seconds.items():
                totals[phase] = totals.get(phase, 0.0) + value
        return totals

    def __repr__(self) -> str:
        return (
            f"WorkloadRun({self.index_name} on {self.workload_name}: "
            f"{self.n_queries} queries, {self.seconds().sum():.3f}s)"
        )


def run_workload(
    index_name: str,
    workload: Workload,
    size_threshold: int = 1024,
    validate: bool = False,
    max_queries: Optional[int] = None,
    kernels: Optional[str] = None,
    parallel: Optional[int] = None,
    trace: Optional[str] = None,
    **params,
) -> WorkloadRun:
    """Execute ``workload`` against the named index technique.

    ``validate=True`` cross-checks every answer against a fresh full scan
    (slow; meant for tests); the cross-check always runs on the trusted
    ``reference`` kernel backend so a kernel bug cannot cancel itself out.
    ``max_queries`` truncates the workload.  ``kernels`` selects the
    kernel backend for the run (process-global; ``None`` keeps the active
    one, and an unbuildable ``native`` falls back to ``numpy``).
    ``parallel`` sets the morsel-executor worker count for the run
    (process-global like the kernel selection; ``1`` forces serial,
    ``None`` keeps the active count — see :mod:`repro.parallel`).
    ``trace`` records the whole run as a JSONL trace at the given path
    (enables :mod:`repro.obs` for the duration of the run; disabled
    again — and the file closed — before returning).
    """
    if kernels is not None:
        kernel_registry.use(kernels)
    if parallel is not None:
        from ..parallel import config as parallel_config

        parallel_config.set_workers(parallel)
    queries = workload.queries
    if max_queries is not None:
        queries = queries[:max_queries]
    if trace is not None:
        obs.enable(
            path=trace,
            meta={
                "workload": workload.name,
                "index": index_name,
                "size_threshold": size_threshold,
                "n_queries": len(queries),
                "n_rows": workload.table.n_rows,
                "n_dims": workload.table.n_columns,
                **{k: v for k, v in params.items()
                   if isinstance(v, (int, float, str, bool))},
            },
        )
        try:
            return _run_workload(
                index_name, workload, queries, size_threshold, validate, **params
            )
        finally:
            obs.disable()
    return _run_workload(
        index_name, workload, queries, size_threshold, validate, **params
    )


def _run_workload(
    index_name: str,
    workload: Workload,
    queries,
    size_threshold: int,
    validate: bool,
    **params,
) -> WorkloadRun:
    run = WorkloadRun(workload.name, index_name)
    if workload.groups is None:
        indexes: Dict[int, BaseIndex] = {
            0: make_index(index_name, workload.table, size_threshold, **params)
        }
        tables = {0: workload.table}
        pick = lambda query: 0
    else:
        indexes = {}
        tables = {
            g: workload.table.project(list(group))
            for g, group in enumerate(workload.groups)
        }
        pick = lambda query: query.label
    for query in queries:
        group = pick(query)
        if group not in indexes:
            indexes[group] = make_index(
                index_name, tables[group], size_threshold, **params
            )
        result = indexes[group].query(query)
        if validate:
            columns = tables[group].columns()
            reference = kernel_registry.get_backend("reference").range_scan(
                columns, 0, int(columns[0].shape[0]), query, QueryStats()
            )
            got = np.sort(result.row_ids)
            want = np.sort(reference)
            if not np.array_equal(got, want):
                raise WorkloadError(
                    f"{index_name} returned a wrong answer on {workload.name} "
                    f"query {run.n_queries}: {got.size} rows vs {want.size}"
                )
        run.stats.append(result.stats)
        run.node_counts.append(sum(ix.node_count for ix in indexes.values()))
    if obs_metrics.ENABLED:
        registry = obs_metrics.REGISTRY
        labels = {"workload": workload.name, "index": index_name}
        registry.counter("harness.runs", **labels).inc()
        registry.counter("harness.queries", **labels).inc(run.n_queries)
        registry.gauge("harness.nodes", **labels).set(
            run.node_counts[-1] if run.node_counts else 0
        )
        converged_at = run.converged_at()
        if converged_at is not None:
            registry.gauge("harness.converged_at", **labels).set(converged_at)
    return run
