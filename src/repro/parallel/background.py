"""Background index maintenance: idle-time refinement between queries.

The paper's progressive indexes only refine *inside* queries — think time
between queries is wasted.  :class:`BackgroundRefiner` spends it: a
daemon thread keeps advancing a Progressive (or Greedy Progressive)
KD-Tree's refinement in small slices while no query is running, so an
exploring user returns from reading a plot to a more-converged index.

Ownership handoff
-----------------
The refiner and the query path never touch the index concurrently.  A
single reentrant lock is the ownership token:

* the worker takes the lock for each slice, so a slice is atomic;
* the query path (``ExplorationSession.query`` / ``check``) holds the
  lock for the whole query — the worker *quiesces* before any query or
  invariant check can observe index state (invariant I9);
* within a slice, any parallel refinement fan-out additionally claims
  per-piece ownership via :mod:`repro.parallel.config`, same as
  foreground refinement.

The background budget is charged to the refiner's own
:class:`~repro.core.metrics.QueryStats` (:attr:`stats`), never to a
query's — per-query ``delta_used`` accounting stays untouched, queries
just arrive at a tree that needs less of it.
"""

from __future__ import annotations

import threading
from typing import Optional

from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from . import config

__all__ = ["BackgroundRefiner"]

#: Rows of refinement budget per background slice.  Small enough that a
#: query arriving mid-slice waits at most one slice for the lock.
SLICE_ROWS = 1 << 15

#: Idle re-check period (seconds) when no poke arrives.
IDLE_SECONDS = 0.005


class BackgroundRefiner:
    """Daemon thread refining one progressive index during think time.

    Built by ``ExplorationSession(background_refine=True)``; not started
    for indexes that have no refinement phase.  The public surface is
    the quiescence lock (:meth:`paused`), the nudge (:meth:`poke`), and
    :meth:`close`.
    """

    def __init__(
        self,
        index,
        slice_rows: int = SLICE_ROWS,
        idle_seconds: float = IDLE_SECONDS,
    ) -> None:
        self._index = index
        self._slice_rows = int(slice_rows)
        self._idle_seconds = float(idle_seconds)
        self._lock = threading.RLock()
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._mid_slice = False
        self._probe = None  # unbounded query driving piece selection
        self.slices_run = 0
        from ..core.metrics import QueryStats

        #: Work the background thread has done (its own ledger — never
        #: merged into any query's stats).
        self.stats = QueryStats()
        self._thread = threading.Thread(
            target=self._run, name="repro-bg-refine", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------- protocol

    def paused(self) -> threading.RLock:
        """The quiescence lock; use as ``with refiner.paused(): ...``.

        While held, the worker cannot start a slice, and any in-flight
        slice has already finished (the lock is only grantable between
        slices) — so the caller observes the index at rest.
        """
        return self._lock

    def poke(self) -> None:
        """Nudge the worker to run (called after each query returns)."""
        self._wake.set()

    @property
    def quiescent(self) -> bool:
        """True when no slice is executing right now.  Reading it under
        :meth:`paused` makes it a guarantee rather than a snapshot."""
        return not self._mid_slice

    @property
    def alive(self) -> bool:
        return self._thread.is_alive()

    def close(self, timeout: Optional[float] = 5.0) -> None:
        """Stop the worker and wait for it to exit."""
        self._stop.set()
        self._wake.set()
        self._thread.join(timeout=timeout)

    # --------------------------------------------------------------- worker

    def _refinable(self) -> bool:
        from ..core.progressive_kdtree import REFINEMENT

        return getattr(self._index, "phase", None) == REFINEMENT

    def _run(self) -> None:
        while not self._stop.is_set():
            self._wake.wait(timeout=self._idle_seconds)
            self._wake.clear()
            if self._stop.is_set():
                return
            with self._lock:
                if self._stop.is_set() or not self._refinable():
                    continue
                self._mid_slice = True
                try:
                    self._slice()
                finally:
                    self._mid_slice = False

    def _slice(self) -> None:
        if self._probe is None:
            from ..core.query import RangeQuery

            self._probe = RangeQuery.full_domain(self._index.n_dims)
        used = self._index._refine_step(
            self._slice_rows, self._probe, self.stats
        )
        self.slices_run += 1
        if obs_trace.ENABLED:
            obs_trace.TRACER.event(
                "background.slice",
                index=self._index.name,
                rows=used,
                slices=self.slices_run,
            )
        if obs_metrics.ENABLED:
            registry = obs_metrics.REGISTRY
            registry.counter("background.slices", index=self._index.name).inc()
            registry.counter(
                "background.rows", index=self._index.name
            ).inc(used)
