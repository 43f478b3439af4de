"""The ``native`` kernel backend: a compiled window scan for converged batches.

A converged batch ends in one residual scan over many leaf windows
(:meth:`KernelBackend.scan_windows`).  The NumPy route pays a fixed
~15-20 us per dense window; :class:`NativeBackend` instead hands every
window of the batch to one call of the C function in ``native_scan.c``.
Everything else (the per-piece ``range_scan``, the partition kernels)
is inherited unchanged from the fused NumPy backend.

Build and cache
---------------
The source is compiled on first selection with the system compiler
(``$CC``, else ``cc``) and :data:`FLAGS` (never ``-ffast-math``, which
would change the NaN and signed-zero comparisons).  The shared library
lands in a private per-user cache, ``$XDG_CACHE_HOME/repro-kernels`` or
``~/.cache/repro-kernels``, under a name keyed by a hash of the source,
the compiler command and the flags; it is written to a temporary file
and renamed into place, so concurrent builds never expose a partial
library.  A cache directory or library that is not owned by the user,
or is group- or world-writable, is never loaded from.  The library is
loaded once per process with :class:`ctypes.CDLL`, which releases the
GIL for the duration of each call.

When the build or the load fails, :func:`library` returns ``None`` and
warns once; the registry then selects ``numpy`` instead, so
``kernels.active_name()`` always names the code that runs.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import stat
import subprocess
import tempfile
import threading
import warnings
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from .fused import FusedNumpyBackend

__all__ = ["FLAGS", "NativeBackend", "available", "cache_dir", "library"]

SOURCE = Path(__file__).with_name("native_scan.c")

#: Compiler flags; part of the cache key.
FLAGS = ("-O2", "-shared", "-fPIC")

#: The C kernel refuses more dimensions than this (``MAX_DIMS``).
MAX_DIMS = 64

_LOCK = threading.Lock()
_LIBRARY: Optional[ctypes.CDLL] = None
_FAILED = False


class NativeBuildError(RuntimeError):
    """The native kernel could not be built or safely loaded."""


def cache_dir() -> Path:
    """The per-user directory the compiled library is cached in."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro-kernels"


def _compiler() -> List[str]:
    return shlex.split(os.environ.get("CC") or "cc")


def _check_private(path: Path, is_dir: bool) -> None:
    """Refuse a path another user could have written (or a symlink)."""
    info = os.lstat(path)
    kind_ok = stat.S_ISDIR(info.st_mode) if is_dir else stat.S_ISREG(info.st_mode)
    writable = info.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    if not kind_ok or info.st_uid != os.getuid() or writable:
        raise NativeBuildError(
            f"{path} is not a private {'directory' if is_dir else 'file'} "
            "owned by this user"
        )


def _build(compiler: List[str], target: Path) -> None:
    handle, scratch = tempfile.mkstemp(
        prefix=".build-", suffix=".so", dir=target.parent
    )
    os.close(handle)
    try:
        try:
            result = subprocess.run(
                [*compiler, *FLAGS, "-o", scratch, str(SOURCE)],
                capture_output=True,
                text=True,
                timeout=120,
            )
        except (OSError, subprocess.SubprocessError) as error:
            raise NativeBuildError(f"cannot run {compiler[0]!r}: {error}")
        if result.returncode != 0:
            detail = (result.stderr or result.stdout).strip().splitlines()
            raise NativeBuildError(
                f"{compiler[0]!r} exited {result.returncode}: "
                + (detail[-1] if detail else "no output")
            )
        os.chmod(scratch, 0o700)
        os.replace(scratch, target)
    finally:
        if os.path.exists(scratch):
            os.unlink(scratch)


def _load() -> ctypes.CDLL:
    if not hasattr(os, "getuid"):
        raise NativeBuildError("the private cache needs POSIX file ownership")
    compiler = _compiler()
    if not compiler:
        raise NativeBuildError("CC is empty")
    directory = cache_dir()
    try:
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
    except OSError as error:
        raise NativeBuildError(f"cannot create {directory}: {error}")
    _check_private(directory, is_dir=True)
    key = hashlib.sha256(SOURCE.read_bytes())
    key.update("\0".join([*compiler, *FLAGS]).encode())
    target = directory / f"native_scan-{key.hexdigest()[:16]}.so"
    if not target.exists():
        _build(compiler, target)
    _check_private(target, is_dir=False)
    try:
        lib = ctypes.CDLL(str(target))
    except OSError as error:
        raise NativeBuildError(f"cannot load {target}: {error}")
    scan = lib.repro_scan_windows
    scan.restype = ctypes.c_int64
    scan.argtypes = [
        ctypes.c_void_p, ctypes.c_int64,  # columns, n_dims
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,  # starts, lens, n
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,  # lows, highs, rowids
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,  # outputs
    ]
    return lib


def library() -> Optional[ctypes.CDLL]:
    """The loaded kernel library, building it on first use; ``None``
    (after one warning per process) when it cannot be had."""
    global _LIBRARY, _FAILED
    with _LOCK:
        if _LIBRARY is None and not _FAILED:
            try:
                _LIBRARY = _load()
            except (NativeBuildError, OSError) as error:
                _FAILED = True
                warnings.warn(
                    f"native kernel backend unavailable ({error}); "
                    "falling back to the numpy kernels",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return _LIBRARY


def available() -> bool:
    """Capability probe for the registry."""
    return library() is not None


def _is_contiguous(array: np.ndarray, dtype) -> bool:
    return array.dtype == dtype and array.flags.c_contiguous


class NativeBackend(FusedNumpyBackend):
    """Fused NumPy kernels plus a compiled :meth:`scan_windows`."""

    name = "native"

    def __init__(self) -> None:
        super().__init__()
        lib = library()
        if lib is None:
            raise NativeBuildError("the native kernel library is unavailable")
        self._scan = lib.repro_scan_windows
        self._ids = np.empty(0, dtype=np.int64)

    def scan_windows(
        self, columns, rowids, starts, lens, eff_lo, eff_hi, zone_lo0, zone_hi0
    ) -> Tuple[List[np.ndarray], np.ndarray]:
        """Every window in one compiled call.  Columns that are not
        C-contiguous float64 (a float32 table, say), other rowid arrays
        and more than :data:`MAX_DIMS` dimensions take the inherited
        NumPy route."""
        n_windows = len(starts)
        if n_windows == 0:
            return [], np.empty(0, dtype=np.int64)
        n_dims = len(columns)
        if (
            n_dims > MAX_DIMS
            or not _is_contiguous(rowids, np.int64)
            or not all(_is_contiguous(column, np.float64) for column in columns)
        ):
            return super().scan_windows(
                columns, rowids, starts, lens, eff_lo, eff_hi,
                zone_lo0, zone_hi0,
            )
        starts = np.ascontiguousarray(starts, dtype=np.int64)
        lens = np.ascontiguousarray(lens, dtype=np.int64)
        lows = np.ascontiguousarray(eff_lo, dtype=np.float64)
        highs = np.ascontiguousarray(eff_hi, dtype=np.float64)
        # The C code trusts these shapes and ranges; check them here.
        n_rows = min(array.shape[0] for array in (rowids, *columns))
        if (
            lows.shape != (n_dims, n_windows)
            or highs.shape != lows.shape
            or starts.shape != (n_windows,)
            or lens.shape != (n_windows,)
            or starts.min() < 0
            or lens.min() < 0
            or (starts + lens).max() > n_rows
        ):
            raise ValueError("scan_windows: a window or its bounds are out of range")
        capacity = int(lens.sum())
        if self._ids.shape[0] < capacity:
            self._ids = np.empty(capacity, dtype=np.int64)
        counts = np.empty(n_windows, dtype=np.int64)
        scanned = np.empty(n_windows, dtype=np.int64)
        pointers = np.array(
            [column.ctypes.data for column in columns], dtype=np.uintp
        )
        written = self._scan(
            pointers.ctypes.data, n_dims,
            starts.ctypes.data, lens.ctypes.data, n_windows,
            lows.ctypes.data, highs.ctypes.data, rowids.ctypes.data,
            self._ids.ctypes.data, counts.ctypes.data, scanned.ctypes.data,
        )
        # The scratch buffer is reused by the next call: copy out.
        ids = self._ids[:written].copy()
        bounds = [0, *np.cumsum(counts).tolist()]
        return [
            ids[bounds[window] : bounds[window + 1]]
            for window in range(n_windows)
        ], scanned
