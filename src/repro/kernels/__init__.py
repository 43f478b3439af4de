"""Pluggable kernel backends for the scan/partition hot loops.

Every index in this package bottoms out in the same few physical
operations — the candidate-list piece scan (Section III-A), the
many-window residual scan that ends a converged batch, and the two-way
partition that moves rows during adaptation/refinement.  This package
makes those operations pluggable: the index code calls the module-level
dispatch functions below and a process-global registry decides which
implementation runs.

Backends
--------
``native`` (default)
    The fused NumPy kernels plus a compiled window scan
    (:mod:`repro.kernels.native`): every residual window of a converged
    batch is scanned in one C call.  The C source is compiled with the
    system compiler on first selection and cached per user; when no
    compiler is usable, selection falls back to ``numpy`` with one
    warning.
``numpy``
    Fused NumPy kernels: a hybrid scan that evaluates the conjunctive
    predicate with a running full-window mask while candidate survival
    is high and falls back to candidate-list gathering once it drops,
    reusing scratch buffers across calls; plus a permutation-gather
    stable partition that touches each parallel array exactly once.
``reference``
    The original per-dimension candidate-list kernels, kept verbatim as
    the trusted baseline the property suites, the fuzzer oracle, and
    the micro-benchmarks compare against.

Selection
---------
* environment: ``REPRO_KERNELS=native|numpy|reference`` (read once at
  import time);
* programmatic: :func:`use`, or the ``kernels=`` option of
  :class:`repro.session.ExplorationSession` and
  :func:`repro.bench.harness.run_workload`.

Contract
--------
All backends are behaviourally identical: bit-identical scan positions,
identical :class:`~repro.core.metrics.QueryStats` work counters, the
same stable-partition output, and the same paused-partition state
transitions.  The property suites (``tests/test_properties_scan.py``,
``tests/test_properties_partition.py``) and the differential fuzzer
enforce this against the ``reference`` backend.

Threading
---------
The *selection* state (:func:`use`) is process-global, but dispatch no
longer reads it per call: :meth:`BaseIndex.query` pins the active
backend once per query (:func:`pinned`), so a mid-query :func:`use` —
or a fuzzer backend sweep on another thread — can never mix backends
within one query.  The pin is thread-local, which is also what lets the
morsel executor (:mod:`repro.parallel`) run each worker thread on its
own *instance* of the selected backend (:func:`thread_instance`): the
fused backend reuses scratch buffers between calls and a single
instance must therefore never be shared across concurrently-scanning
threads.
"""

from __future__ import annotations

import os
import threading
import time
import warnings
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import InvalidParameterError
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .reference import KernelBackend, ReferenceBackend

__all__ = [
    "KernelBackend",
    "DEFAULT_BACKEND",
    "register",
    "available_backends",
    "registered_backends",
    "use",
    "active_backend",
    "active_name",
    "current_backend",
    "pinned",
    "thread_instance",
    "get_backend",
    "range_scan",
    "scan_windows",
    "stable_partition",
]

#: The backend activated when nothing is requested.
DEFAULT_BACKEND = "native"

#: What :func:`use` activates instead of a backend whose probe fails.
FALLBACK_BACKEND = "numpy"

_FACTORIES: Dict[str, Callable[[], KernelBackend]] = {}
_PROBES: Dict[str, Callable[[], bool]] = {}
_INSTANCES: Dict[str, KernelBackend] = {}
_ACTIVE: Optional[KernelBackend] = None

#: Thread-local dispatch override: ``pinned`` backend snapshot plus the
#: per-thread backend instance cache (see ``thread_instance``).
_TLS = threading.local()


def register(
    name: str,
    factory: Callable[[], KernelBackend],
    probe: Optional[Callable[[], bool]] = None,
) -> None:
    """Register a kernel backend under ``name``.

    ``factory`` builds the backend on first use; ``probe`` (optional)
    reports whether the backend can run in this environment without
    importing anything heavyweight — :func:`use` falls back to the
    default when the probe fails.
    """
    _FACTORIES[name] = factory
    if probe is not None:
        _PROBES[name] = probe


def registered_backends() -> List[str]:
    """Every registered backend name, available or not."""
    return list(_FACTORIES)


def available_backends() -> List[str]:
    """Backend names whose capability probe passes in this environment."""
    return [
        name
        for name in _FACTORIES
        if name not in _PROBES or _PROBES[name]()
    ]


def get_backend(name: str) -> KernelBackend:
    """The (cached) backend instance for ``name``; raises when unknown
    or unavailable.  Intended for tests and benchmarks that pin a
    specific implementation regardless of the active dispatch."""
    if name not in _FACTORIES:
        raise InvalidParameterError(
            f"unknown kernel backend {name!r}; "
            f"registered: {sorted(_FACTORIES)}"
        )
    if name in _PROBES and not _PROBES[name]():
        raise InvalidParameterError(
            f"kernel backend {name!r} is not available in this environment"
        )
    if name not in _INSTANCES:
        _INSTANCES[name] = _FACTORIES[name]()
    return _INSTANCES[name]


def use(name: str) -> str:
    """Activate the named backend; returns the name actually activated.

    Unknown names raise.  A known-but-unavailable backend (``native``
    without a working C compiler) falls back to
    :data:`FALLBACK_BACKEND`, so scripts can request ``native``
    unconditionally; the failed build itself warns once per process.
    """
    global _ACTIVE
    if name not in _FACTORIES:
        raise InvalidParameterError(
            f"unknown kernel backend {name!r}; "
            f"registered: {sorted(_FACTORIES)}"
        )
    if name in _PROBES and not _PROBES[name]():
        name = FALLBACK_BACKEND
    _ACTIVE = get_backend(name)
    return name


def active_backend() -> KernelBackend:
    """The backend the dispatch functions currently route to."""
    assert _ACTIVE is not None
    return _ACTIVE


def active_name() -> str:
    """Name of the active backend."""
    return active_backend().name


def current_backend() -> KernelBackend:
    """The backend dispatch routes to *on this thread, right now*: the
    thread-local pin when one is active (see :func:`pinned`), otherwise
    the process-global active backend."""
    backend = getattr(_TLS, "pinned", None)
    if backend is not None:
        return backend
    assert _ACTIVE is not None
    return _ACTIVE


class pinned:
    """Context manager pinning kernel dispatch on this thread.

    ``with kernels.pinned():`` snapshots :func:`current_backend` for the
    duration of the block; ``with kernels.pinned(backend):`` pins an
    explicit instance (how pool workers install their thread-private
    backend).  Pins nest — the previous pin is restored on exit — and
    only affect the calling thread.
    """

    __slots__ = ("_backend", "_previous")

    def __init__(self, backend: Optional[KernelBackend] = None) -> None:
        self._backend = backend
        self._previous: Optional[KernelBackend] = None

    def __enter__(self) -> KernelBackend:
        backend = self._backend
        if backend is None:
            backend = current_backend()
        self._previous = getattr(_TLS, "pinned", None)
        _TLS.pinned = backend
        return backend

    def __exit__(self, exc_type=None, exc=None, tb=None) -> bool:
        _TLS.pinned = self._previous
        return False


def thread_instance(name: str) -> KernelBackend:
    """A backend instance private to the calling thread.

    The fused backend keeps scratch buffers between calls, so the shared
    instances of :func:`get_backend` must never run concurrently on two
    threads.  Worker threads instead build (and cache) their own
    instance per backend name — behaviourally identical, since scratch
    state never affects kernel output.
    """
    if name not in _FACTORIES:
        raise InvalidParameterError(
            f"unknown kernel backend {name!r}; "
            f"registered: {sorted(_FACTORIES)}"
        )
    cache = getattr(_TLS, "instances", None)
    if cache is None:
        cache = _TLS.instances = {}
    backend = cache.get(name)
    if backend is None:
        backend = cache[name] = _FACTORIES[name]()
    return backend


# ------------------------------------------------------------------ dispatch

def range_scan(
    columns: Sequence[np.ndarray],
    start: int,
    end: int,
    query,
    stats,
    check_low=None,
    check_high=None,
) -> np.ndarray:
    """Candidate-list (option 2) scan of rows ``[start, end)`` via the
    active backend; see :meth:`KernelBackend.range_scan`.

    When observability is on (:mod:`repro.obs`), each call additionally
    emits a ``kernel`` span tagged with the active backend name and feeds
    a per-backend latency histogram; while off, the hook is one module
    global check (asserted <2% overhead by ``benchmarks/bench_obs.py``).
    """
    backend = getattr(_TLS, "pinned", None) or _ACTIVE
    if obs_trace.ENABLED or obs_metrics.ENABLED:
        return _observed_call(
            "range_scan",
            end - start,
            backend,
            lambda: backend.range_scan(
                columns, start, end, query, stats, check_low, check_high
            ),
        )
    return backend.range_scan(
        columns, start, end, query, stats, check_low, check_high
    )


def scan_windows(
    columns, rowids, starts, lens, eff_lo, eff_hi, zone_lo0, zone_hi0
) -> Tuple[List[np.ndarray], np.ndarray]:
    """Residual scan of many row windows via the active backend; see
    :meth:`KernelBackend.scan_windows`.  Carries the same
    observability hook as :func:`range_scan` (op ``scan_windows``, rows
    summed over the windows)."""
    backend = getattr(_TLS, "pinned", None) or _ACTIVE
    if obs_trace.ENABLED or obs_metrics.ENABLED:
        return _observed_call(
            "scan_windows",
            int(np.sum(lens)),
            backend,
            lambda: backend.scan_windows(
                columns, rowids, starts, lens, eff_lo, eff_hi,
                zone_lo0, zone_hi0,
            ),
        )
    return backend.scan_windows(
        columns, rowids, starts, lens, eff_lo, eff_hi, zone_lo0, zone_hi0
    )


def stable_partition(
    arrays: Sequence[np.ndarray],
    start: int,
    end: int,
    key_index: int,
    pivot: float,
) -> int:
    """Stable two-way partition of rows ``[start, end)`` via the active
    backend; see :meth:`KernelBackend.stable_partition`.  Carries the
    same observability hook as :func:`range_scan`."""
    backend = getattr(_TLS, "pinned", None) or _ACTIVE
    if obs_trace.ENABLED or obs_metrics.ENABLED:
        return _observed_call(
            "stable_partition",
            end - start,
            backend,
            lambda: backend.stable_partition(arrays, start, end, key_index, pivot),
        )
    return backend.stable_partition(arrays, start, end, key_index, pivot)


#: (op, backend name) -> (registry generation, latency histogram, row
#: counter).  A piece scan is the hottest metered call in the process;
#: re-rendering the registry key and taking the registry lock twice per
#: piece would dominate a converged query's metered cost, so the handles
#: are cached and revalidated against ``REGISTRY.generation`` (bumped on
#: reset, when the cached instruments leave the registry).  Plain-dict
#: races are benign: the worst case is a redundant re-fetch of the same
#: get-or-create instrument.
_METRIC_HANDLES: Dict[Tuple[str, str], tuple] = {}


def _observed_call(
    op: str, rows: int, backend: KernelBackend, call: Callable[[], object]
):
    """Slow-path kernel dispatch: span + latency histogram around ``call``."""
    name = backend.name
    if obs_trace.ENABLED:
        with obs_trace.TRACER.span(
            "kernel", op=op, backend=name, rows=rows
        ) as span:
            result = call()
        duration = span.duration
    else:
        begin = time.perf_counter()
        result = call()
        duration = time.perf_counter() - begin
    if obs_metrics.ENABLED:
        registry = obs_metrics.REGISTRY
        cached = _METRIC_HANDLES.get((op, name))
        if cached is None or cached[0] != registry.generation:
            cached = (
                registry.generation,
                registry.histogram(f"kernel.{op}.seconds", backend=name),
                registry.counter(f"kernel.{op}.rows", backend=name),
            )
            _METRIC_HANDLES[(op, name)] = cached
        cached[1].observe(duration)
        cached[2].inc(max(rows, 0))
    return result


# ---------------------------------------------------------------- registry

def _make_fused() -> KernelBackend:
    from .fused import FusedNumpyBackend

    return FusedNumpyBackend()


def _make_native() -> KernelBackend:
    from .native import NativeBackend

    return NativeBackend()


def _native_available() -> bool:
    from . import native

    return native.available()


register("native", _make_native, probe=_native_available)
register("numpy", _make_fused)
register("reference", ReferenceBackend)

_requested = os.environ.get("REPRO_KERNELS", DEFAULT_BACKEND)
if _requested not in _FACTORIES:
    warnings.warn(
        f"REPRO_KERNELS={_requested!r} is not a registered kernel backend "
        f"({sorted(_FACTORIES)}); using {DEFAULT_BACKEND!r}",
        stacklevel=2,
    )
    _requested = DEFAULT_BACKEND
use(_requested)
