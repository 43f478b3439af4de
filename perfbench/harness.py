"""The server child process, the wire client and the reference oracle.

The server runs as its own process (``python -m repro.serve``, or the
traced bootstrap), in the default configuration: every ``REPRO_*``
switch that selects an execution tier or kernel is removed from its
environment.  The generator talks to it over at most two TCP
connections with :class:`Connection`, which times the framing on the
client side separately from the wait for the response.
"""

from __future__ import annotations

import os
import queue
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Environment switches that would move the server off its default
#: configuration (thread/process tiers, arena, kernel backend).
STRIPPED_ENV = (
    "REPRO_PARALLEL",
    "REPRO_PROCS",
    "REPRO_PROCS_START",
    "REPRO_ARENA",
    "REPRO_KERNELS",
)

READY_TIMEOUT_S = 120.0
REQUEST_TIMEOUT_S = 30.0


def clean_env(root: str) -> Dict[str, str]:
    """The environment a server child (and the generator) runs with."""
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class ServerError(RuntimeError):
    """The server child failed to start or died."""


class ServerProcess:
    """One ``repro.serve`` child, started on an ephemeral port."""

    def __init__(self, root: str, out_dir: str, spans_path: Optional[str] = None):
        if spans_path is None:
            command = [sys.executable, "-m", "repro.serve"]
        else:
            command = [
                sys.executable,
                os.path.join(root, "perfbench", "traced_server.py"),
                "--spans",
                spans_path,
                "--",
            ]
        command += ["--host", "127.0.0.1", "--port", "0"]
        self.log_path = os.path.join(out_dir, "server-stderr.log")
        begin = time.perf_counter()
        self._log = open(self.log_path, "ab")
        self.proc = subprocess.Popen(
            command,
            cwd=root,
            env=clean_env(root),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        self.host, self.port = self._await_listening(begin + READY_TIMEOUT_S)

    def _drain(self) -> None:
        for raw in self.proc.stdout:
            self._lines.put(raw.decode("utf-8", "replace"))
        self._lines.put(None)

    def _await_listening(self, deadline: float) -> Tuple[str, int]:
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                self.kill()
                raise ServerError("server did not start listening in time")
            try:
                line = self._lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                self.kill()
                raise ServerError(
                    f"server exited before listening (see {self.log_path})"
                )
            if "listening on" in line:
                address = line.split("listening on", 1)[1].split()[0]
                host, port = address.rsplit(":", 1)
                return host, int(port)

    def peak_rss_mb(self) -> float:
        """Peak resident set (``VmHWM``) of the server process, in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError("VmHWM missing from /proc status")

    def stop(self, timeout: float = 60.0) -> None:
        """Send ``shutdown`` and wait for the process (and its span dump)."""
        if self.proc.poll() is None:
            try:
                with Connection(self.host, self.port) as conn:
                    conn.call({"op": "shutdown", "id": "shutdown"})
            except (OSError, ValueError):
                pass
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                pass
        self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._reader.join(timeout=5.0)
        self.proc.stdout.close()
        self._log.close()


@dataclass
class Timing:
    """Client-side timestamps of one request (``perf_counter`` seconds)."""

    start: float  # before encoding the request
    sent: float  # request encoded (just before the socket write)
    received: float  # response line read (before decoding)
    end: float  # response decoded

    @property
    def latency(self) -> float:
        return self.end - self.start


class Connection:
    """One blocking newline-JSON connection, one request in flight."""

    def __init__(self, host: str, port: int, timeout: float = REQUEST_TIMEOUT_S):
        from repro.serve.protocol import decode_frame, encode_frame

        self._encode = encode_frame
        self._decode = decode_frame
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rb")

    def call(self, payload: Dict[str, object]) -> Tuple[Dict[str, object], Timing]:
        """Send one frame and read its response.  Raises ``OSError`` on a
        timeout or a closed connection."""
        start = time.perf_counter()
        frame = self._encode(payload)
        sent = time.perf_counter()
        self._sock.sendall(frame)
        line = self._file.readline()
        received = time.perf_counter()
        if not line:
            raise ConnectionError("server closed the connection")
        response = self._decode(line)
        end = time.perf_counter()
        return response, Timing(start, sent, received, end)

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class Oracle:
    """Expected ``(count, checksum)`` per query, from the frozen
    ``reference`` kernel backend over a locally rebuilt table.

    Built on the package's stable pieces (``TableSpec``, the reference
    backend, ``answer_checksum``) rather than on ``repro.serve.loadgen``,
    so the benchmark keeps measuring while the load generator changes."""

    def __init__(self, spec) -> None:
        from repro import kernels
        from repro.core.table import Table

        columns = spec.build_columns()
        self.names = list(columns)
        self.columns = [columns[name] for name in self.names]
        self.table = Table(self.columns, names=self.names)
        self._backend = kernels.get_backend("reference")

    def answer(self, query) -> Tuple[int, str]:
        from repro.core.metrics import QueryStats
        from repro.serve.protocol import answer_checksum

        positions = self._backend.range_scan(
            self.columns, 0, len(self.columns[0]), query, QueryStats()
        )
        return int(positions.size), answer_checksum(positions)

    def bounds(self, query) -> Dict[str, List[float]]:
        """Wire form of a query: ``{column: [low, high]}``."""
        return {
            name: [low, high]
            for name, low, high in zip(self.names, query.lows_f, query.highs_f)
        }


@dataclass
class Script:
    """Queries on the wire plus their expected answers, in order."""

    bounds: List[Dict[str, List[float]]]
    expected: List[Tuple[int, str]]

    def __len__(self) -> int:
        return len(self.bounds)


def make_script(oracle: Oracle, pattern: str, n: int, selectivity: float, seed: int) -> Script:
    """``n`` queries of one :mod:`repro.workloads.patterns` pattern
    (``random`` is the uniform-position pattern), answered by the oracle."""
    from repro.workloads.patterns import SYNTHETIC_PATTERNS

    generator = SYNTHETIC_PATTERNS["uniform" if pattern == "random" else pattern]
    queries = generator(oracle.table, n, selectivity, seed=seed)
    return Script(
        [oracle.bounds(query) for query in queries],
        [oracle.answer(query) for query in queries],
    )


def shuffled(script: Script, rng: np.random.Generator) -> Script:
    order = rng.permutation(len(script))
    return Script(
        [script.bounds[i] for i in order], [script.expected[i] for i in order]
    )


def concat(scripts: Sequence[Script]) -> Script:
    return Script(
        [b for s in scripts for b in s.bounds],
        [e for s in scripts for e in s.expected],
    )
