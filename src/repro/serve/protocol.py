"""Wire protocol of the multi-session index server.

The server speaks newline-delimited JSON over TCP: every request and
every response is one JSON object on one ``\n``-terminated line, UTF-8
encoded.  Requests carry an ``op`` plus op-specific fields and an
optional client-chosen ``id`` that the response echoes; responses carry
``ok`` and either the op's payload or ``error``/``detail`` (plus
``retry: true`` when the request was rejected by admission control and
is worth re-sending after a backoff).

Ops: ``hello``, ``register``, ``open_session``, ``close_session``,
``query``, ``batch`` (many queries in one dispatch: ``queries`` holds a
list of bounds dicts; the response's ``results`` list carries one
``count``/``checksum``/``seconds`` payload per query, in order —
converged KD indexes answer the whole batch with one shared descent and
one residual-scan call that routes each leaf window to the fused kernel
or a shared vectorized pass; at most :data:`MAX_BATCH_QUERIES` queries),
``check``, ``stats``, ``metrics`` (Prometheus text
exposition of the server's telemetry), ``slo`` (per-tenant latency-SLO
state plus recent watchdog events), ``shutdown`` (honoured only from a
loopback peer; any other peer gets a ``forbidden`` error and keeps its
connection).  ``query``
additionally accepts a ``trace`` field — a client-chosen request id
that, with server-side tracing enabled, rides on the request's
``serve.query`` root span so one client request resolves to exactly one
server-side span tree (queue wait, admission, lock wait, scan, and the
refinement slice the request funded).  All additions are
backward-compatible: old clients never send ``trace`` or the new ops,
so the protocol version stays at 1.

A request frame longer than :data:`MAX_FRAME_BYTES` is answered with a
``frame_too_large`` error; the server drops the frame and keeps the
connection open.

Two pieces live here because both ends of the wire need them:

* :func:`answer_checksum` — the canonical fingerprint of a query answer
  (SHA-1 of the sorted int64 row ids).  The server returns it with every
  answer; the load generator recomputes it from a serial oracle scan, so
  a mismatch is a *bit-level* answer divergence, not a count-level one.
* :class:`TableSpec` — a deterministic synthetic-table recipe (kind,
  rows, dims, seed).  Registering a spec instead of shipping columns
  keeps registration O(1) on the wire and lets every client rebuild the
  exact table locally to run its oracle against.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import InvalidParameterError

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "MAX_BATCH_QUERIES",
    "TABLE_KINDS",
    "TableSpec",
    "answer_checksum",
    "sorted_answer",
    "encode_frame",
    "decode_frame",
    "error_response",
    "ok_response",
]

#: Bumped when the frame layout or an op's fields change incompatibly.
PROTOCOL_VERSION = 1

#: Longest request frame the server reads, newline included.  A full
#: :data:`MAX_BATCH_QUERIES` batch of 8-column bounds fits with room to
#: spare; asyncio's 64 KiB default cut off a 600-query 3-column batch.
MAX_FRAME_BYTES = 1 << 20

#: Most queries one ``batch`` request may carry.  A batch holds its
#: index's writer lock for its whole run, so the cap bounds how long
#: one request can block every other writer on that index.
MAX_BATCH_QUERIES = 1024

#: Synthetic data kinds a :class:`TableSpec` can describe — the same
#: regimes the fuzzer sweeps: uniform boxes, lognormal skew, and
#: duplicate-heavy integer grids (ties on every pivot).
TABLE_KINDS = ("uniform", "skewed", "duplicate")


@dataclass(frozen=True)
class TableSpec:
    """A reproducible synthetic table: everything derives from these."""

    name: str
    kind: str
    n_rows: int
    n_dims: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in TABLE_KINDS:
            raise InvalidParameterError(
                f"unknown table kind {self.kind!r}; options: "
                f"{', '.join(TABLE_KINDS)}"
            )
        if self.n_rows < 1 or self.n_dims < 1:
            raise InvalidParameterError(
                f"table spec needs positive sizes, got rows={self.n_rows}, "
                f"dims={self.n_dims}"
            )

    @property
    def column_names(self) -> tuple:
        return tuple(f"c{dim}" for dim in range(self.n_dims))

    def build_columns(self) -> Dict[str, np.ndarray]:
        """Materialise the columns; bit-identical on both ends of the wire."""
        rng = np.random.default_rng([self.seed, TABLE_KINDS.index(self.kind)])
        n, d = self.n_rows, self.n_dims
        if self.kind == "skewed":
            matrix = rng.lognormal(0.0, 2.0, size=(n, d))
        elif self.kind == "duplicate":
            matrix = rng.integers(0, 20, size=(n, d)).astype(np.float64)
        else:
            matrix = rng.random((n, d)) * 100.0
        return {
            name: np.ascontiguousarray(matrix[:, dim])
            for dim, name in enumerate(self.column_names)
        }

    def to_payload(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "TableSpec":
        try:
            return cls(
                name=str(payload["name"]),
                kind=str(payload["kind"]),
                n_rows=int(payload["n_rows"]),
                n_dims=int(payload["n_dims"]),
                seed=int(payload.get("seed", 0)),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise InvalidParameterError(
                f"malformed table spec {payload!r}: {error}"
            ) from None

    @classmethod
    def parse(cls, text: str) -> "TableSpec":
        """Parse the CLI shorthand ``name:kind:rows:dims[:seed]``."""
        parts = text.split(":")
        if len(parts) not in (4, 5):
            raise InvalidParameterError(
                f"table spec {text!r} must be name:kind:rows:dims[:seed]"
            )
        seed = int(parts[4]) if len(parts) == 5 else 0
        return cls(
            name=parts[0],
            kind=parts[1],
            n_rows=int(parts[2]),
            n_dims=int(parts[3]),
            seed=seed,
        )


def answer_checksum(row_ids: np.ndarray) -> str:
    """Canonical, order-independent fingerprint of a query answer."""
    return sorted_answer(row_ids)[1]


def sorted_answer(row_ids: np.ndarray) -> Tuple[np.ndarray, str]:
    """The answer's row ids sorted ascending as int64, and their
    :func:`answer_checksum`, from one sort."""
    ordered = np.sort(np.asarray(row_ids, dtype=np.int64))
    return ordered, hashlib.sha1(ordered.tobytes()).hexdigest()


def encode_frame(payload: Dict[str, object]) -> bytes:
    """One request/response as a ``\n``-terminated JSON line."""
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


def decode_frame(line: bytes) -> Dict[str, object]:
    """Parse one frame; raises ``ValueError`` on malformed input."""
    payload = json.loads(line.decode("utf-8"))
    if not isinstance(payload, dict):
        raise ValueError(f"frame must be a JSON object, got {type(payload)}")
    return payload


def ok_response(request: Dict[str, object], **fields: object) -> Dict[str, object]:
    response: Dict[str, object] = {"ok": True, **fields}
    if "id" in request:
        response["id"] = request["id"]
    return response


def error_response(
    request: Dict[str, object],
    error: str,
    detail: str,
    retry: bool = False,
) -> Dict[str, object]:
    response: Dict[str, object] = {
        "ok": False,
        "error": error,
        "detail": detail,
    }
    if retry:
        response["retry"] = True
    if "id" in request:
        response["id"] = request["id"]
    return response
