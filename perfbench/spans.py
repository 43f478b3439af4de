"""In-memory span recorder for the traced run, and the arithmetic over spans.

A span is a tuple ``(span_id, parent_id, name, start, end, thread, attrs)``:
``start``/``end`` are ``time.perf_counter()`` readings (CLOCK_MONOTONIC on
Linux, so the server's spans and the generator's timestamps share one
clock), ``parent_id`` is the innermost enclosing span on the same thread
(0 for a root), and ``attrs`` is a small dict or ``None``.

:class:`SpanRecorder` only appends to lists while the server runs; the
spans are written once, at shutdown, by :mod:`traced_server`.  Everything
else here is pure arithmetic used by the runner and its tests.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Span = Tuple[int, int, str, float, float, str, Optional[dict]]


class SpanRecorder:
    """Wraps callables so that each call leaves one span in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        # Write-lock hold intervals: (start, end, thread).  Kept apart from
        # the spans because a hold is not nested like a call: it opens in
        # acquire_write and closes in release_write.
        self.holds: List[Tuple[float, float, str]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.thread = threading.current_thread().name
            local.held = {}
        return local

    def wrap(
        self,
        name: str,
        func: Callable,
        annotate: Optional[Callable[[tuple, dict, object], dict]] = None,
    ) -> Callable:
        """``func`` with a span around every call.  ``annotate(args,
        kwargs, result)`` turns a successful call into span attributes."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            local = self._state()
            stack = local.stack
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            attrs = None
            try:
                result = func(*args, **kwargs)
                if annotate is not None:
                    attrs = annotate(args, kwargs, result)
                return result
            except BaseException as error:
                attrs = {"error": type(error).__name__}
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    (span_id, parent, name, start, end, local.thread, attrs)
                )

        return traced

    def hold_started(self, key: int, at: float) -> None:
        self._state().held[key] = at

    def hold_ended(self, key: int) -> None:
        local = self._state()
        start = local.held.pop(key, None)
        if start is not None:
            self.holds.append((start, time.perf_counter(), local.thread))


# ----------------------------------------------------------- arithmetic


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover.

    Children are clipped to their parent's interval, and overlapping
    children are counted once, so self time is never negative.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[1]:
            children.setdefault(span[1], []).append((span[3], span[4]))
    result: Dict[int, float] = {}
    for span_id, _parent, _name, start, end, _thread, _attrs in spans:
        covered = union_length(
            (max(start, child_start), min(end, child_end))
            for child_start, child_end in children.get(span_id, ())
        )
        result[span_id] = max(0.0, (end - start) - covered)
    return result


def covered_share(
    window: Tuple[float, float], intervals: Iterable[Tuple[float, float]]
) -> float:
    """Share of ``window`` that the intervals cover (0..1)."""
    low, high = window
    if high <= low:
        return 0.0
    clipped = [
        (max(low, start), min(high, end)) for start, end in intervals
    ]
    return union_length(clipped) / (high - low)
