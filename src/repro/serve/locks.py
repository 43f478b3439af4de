"""Reader/writer coordination for shared indexes: the snapshot protocol.

PR 4's quiescence protocol (one reentrant lock per background refiner)
serialises *everything* touching an index — good enough for a single
interactive session, fatal for a server: a reader would block behind any
tenant's refinement slice.  The server generalises it two ways:

* locks are **per index** — a reader of tenant A's index shares no lock
  with the scheduler refining tenant B's index, so cross-tenant blocking
  is impossible by construction;
* each index's lock is a **readers-writer lock**
  (:class:`PieceSnapshotLock`): any number of snapshot readers scan the
  piece set concurrently, while structure-mutating work (adaptive
  queries, refinement slices, invariant sweeps) takes the exclusive
  side.  While a reader holds the shared side the piece set *and* the
  piece contents are frozen — that is the "snapshot" the reader scans.

The writer side is preferring: once a writer waits, new readers queue
behind it.  Refinement slices are small (bounded rows), so the most a
reader ever waits on its *own* index is one slice; without preference a
steady reader stream could starve refinement forever and the index would
never converge.

Telemetry: every acquisition measures its wait (and the exclusive side
its hold).  With metric feeding on, *contended* waits and all holds
land in per-index histograms (``lock.read_wait_seconds{index=...}``
etc.) — an uncontended acquisition skips the wait histogram entirely,
so the fast path pays nothing and the histogram count reads as "how
many acquisitions blocked".  Independent of metrics, each lock
remembers the worst wait since it was last asked
(:meth:`PieceSnapshotLock.drain_max_wait`) — the SLO watchdog's
runaway-lock-wait probe.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional

from ..obs import metrics as obs_metrics

__all__ = ["PieceSnapshotLock"]


class PieceSnapshotLock:
    """A writer-preferring readers-writer lock for one shared index.

    ``name`` labels this lock's wait/hold metrics (the server passes the
    index key); anonymous locks still track waits, they just skip the
    registry feed.
    """

    def __init__(self, name: Optional[str] = None) -> None:
        self.name = name
        self._cond = threading.Condition()
        self._active_readers = 0
        self._writer_active = False
        self._writers_waiting = 0
        self._max_wait = 0.0
        self._write_acquired_at: Optional[float] = None
        # (registry generation, {kind -> histogram}): every acquisition
        # on the serve hot path records here, so the handles are cached
        # instead of re-rendered registry keys (see REGISTRY.generation).
        self._metric_handles: Optional[tuple] = None

    def _histogram(self, kind: str):
        registry = obs_metrics.REGISTRY
        handles = self._metric_handles
        if handles is None or handles[0] != registry.generation:
            handles = (registry.generation, {})
            self._metric_handles = handles
        histogram = handles[1].get(kind)
        if histogram is None:
            histogram = handles[1][kind] = registry.histogram(
                f"lock.{kind}_seconds", index=self.name
            )
        return histogram

    def _record_wait(
        self, side: str, waited: float, contended: bool
    ) -> None:
        if waited > self._max_wait:  # only ever called under self._cond
            self._max_wait = waited
        # The wait histograms record only acquisitions that actually
        # blocked (standard contention-profile semantics): an
        # uncontended acquisition pays zero metric cost on the serve hot
        # path, and the histogram count reads directly as "how many
        # acquisitions contended".  ``drain_max_wait`` still sees every
        # wait regardless.
        if contended and obs_metrics.ENABLED and self.name is not None:
            self._histogram(f"{side}_wait").observe(waited)

    # ------------------------------------------------------------- readers

    def acquire_read(self, blocking: bool = True) -> bool:
        """Shared side; returns False instead of waiting when
        ``blocking`` is false and a writer is active or waiting.

        A failed try leaves no trace: writer preference holds for it
        too, and it feeds neither the wait histogram nor
        :meth:`drain_max_wait`.  This is what lets the event loop try
        the lock without ever parking on it.
        """
        begin = time.monotonic()
        with self._cond:
            contended = False
            while self._writer_active or self._writers_waiting:
                if not blocking:
                    return False
                contended = True
                self._cond.wait()
            self._active_readers += 1
            self._record_wait("read", time.monotonic() - begin, contended)
            return True

    def release_read(self) -> None:
        with self._cond:
            self._active_readers -= 1
            if self._active_readers == 0:
                self._cond.notify_all()

    @contextmanager
    def read(self) -> Iterator[None]:
        """Shared side: the piece snapshot readers scan under."""
        self.acquire_read()
        held = time.monotonic()
        try:
            yield
        finally:
            self.release_read()
            if obs_metrics.ENABLED and self.name is not None:
                self._histogram("read_hold").observe(
                    time.monotonic() - held
                )

    # ------------------------------------------------------------- writers

    def acquire_write(self, timeout: Optional[float] = None) -> bool:
        """Exclusive side; returns False when ``timeout`` expires first.

        The timeout is what keeps the refinement scheduler work-
        conserving: rather than parking behind a long adaptive query it
        gives up quickly and spends the slice on another tenant.
        ``timeout=0`` is a try that never waits; like every timed-out
        attempt, a failed try records no wait.
        """
        begin = time.monotonic()
        deadline = None if timeout is None else begin + timeout
        with self._cond:
            self._writers_waiting += 1
            try:
                contended = False
                while self._writer_active or self._active_readers:
                    contended = True
                    if deadline is None:
                        self._cond.wait()
                    else:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0 or not self._cond.wait(remaining):
                            return False
                self._writer_active = True
                self._write_acquired_at = time.monotonic()
                self._record_wait(
                    "write", self._write_acquired_at - begin, contended
                )
                return True
            finally:
                self._writers_waiting -= 1
                # A timed-out writer may have parked readers behind its
                # preference flag — wake them so they can re-check.
                self._cond.notify_all()

    def release_write(self) -> None:
        with self._cond:
            self._writer_active = False
            acquired_at, self._write_acquired_at = (
                self._write_acquired_at,
                None,
            )
            self._cond.notify_all()
        if (
            acquired_at is not None
            and obs_metrics.ENABLED
            and self.name is not None
        ):
            self._histogram("write_hold").observe(
                time.monotonic() - acquired_at
            )

    @contextmanager
    def write(self) -> Iterator[None]:
        """Exclusive side: adaptive queries, refinement, invariant sweeps."""
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()

    # --------------------------------------------------------- introspection

    @property
    def readers(self) -> int:
        return self._active_readers

    @property
    def write_held(self) -> bool:
        return self._writer_active

    def drain_max_wait(self) -> float:
        """Worst acquisition wait (either side) since the last drain."""
        with self._cond:
            worst, self._max_wait = self._max_wait, 0.0
            return worst

    def __repr__(self) -> str:
        return (
            f"PieceSnapshotLock(name={self.name!r}, "
            f"readers={self._active_readers}, "
            f"writer={self._writer_active})"
        )
