"""The three workloads: query plans built from the seed, server set-up
with warm-up, and the timed phases (open loop ``cold``, closed loops
``hot`` and ``batch``)."""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from harness import Connection, Oracle, Script, ServerProcess, concat, make_script, shuffled
from summary import Request, verify

TABLE_ROWS = 1_000_000
TABLE_DIMS = 3

COLD_RATE = 20.0  # queries per second, open loop
COLD_PATTERNS = ("random", "zoom", "skewed", "sequential")
COLD_SELECTIVITY = 1e-2
COLD_SESSIONS = 8  # distinct session scripts; later sessions reuse them
COLD_SCRIPT = 48  # queries per session script (cycled if not yet converged)
COLD_LIMIT_S = 0.100  # over_limit_frac latency limit, from due time

HOT_CONNECTIONS = 2
HOT_SELECTIVITY = 1e-3
HOT_POOL = 96  # windows per pattern per connection
HOT_SNAPSHOT_FRACTION = 0.25

BATCH_SIZE = 64
BATCH_SELECTIVITIES = (1e-4, 1e-3, 1e-2)
BATCH_POOL = 3  # distinct batches per selectivity

POLL_S = 0.02  # stats polling interval
WARM_LIMIT_S = 60.0  # give up warming a session after this long


def table_spec(seed: int):
    from repro.serve.protocol import TableSpec

    return TableSpec("bench", "uniform", TABLE_ROWS, TABLE_DIMS, seed)


def _seeds(seed: int, n: int) -> List[int]:
    return [
        int(s.generate_state(1)[0])
        for s in np.random.SeedSequence([seed, 0xBE7C]).spawn(n)
    ]


@dataclass
class Plan:
    """Everything a workload sends, with the oracle's answers."""

    workload: str
    spec: object
    sessions: List[Script] = field(default_factory=list)  # cold
    pools: List[Script] = field(default_factory=list)  # hot: one per connection
    modes: List[List[str]] = field(default_factory=list)  # hot: one per connection
    batches: List[Script] = field(default_factory=list)  # batch: one per batch
    warm: Optional[Script] = None  # hot/batch warm-up queries


def build_plan(workload: str, seed: int) -> Plan:
    spec = table_spec(seed)
    oracle = Oracle(spec)
    plan = Plan(workload, spec)
    seeds = _seeds(seed, 16)
    if workload == "cold":
        plan.sessions = [
            make_script(
                oracle,
                COLD_PATTERNS[i % len(COLD_PATTERNS)],
                COLD_SCRIPT,
                COLD_SELECTIVITY,
                seeds[i],
            )
            for i in range(COLD_SESSIONS)
        ]
    elif workload == "hot":
        for conn in range(HOT_CONNECTIONS):
            rng = np.random.default_rng(seeds[conn])
            pool = concat(
                [
                    make_script(oracle, "random", HOT_POOL, HOT_SELECTIVITY, seeds[4 + conn]),
                    make_script(oracle, "skewed", HOT_POOL, HOT_SELECTIVITY, seeds[8 + conn]),
                ]
            )
            plan.pools.append(shuffled(pool, rng))
            plan.modes.append(
                [
                    "snapshot" if rng.random() < HOT_SNAPSHOT_FRACTION else "adaptive"
                    for _ in range(len(pool))
                ]
            )
        plan.warm = plan.pools[0]
    elif workload == "batch":
        for i in range(BATCH_POOL):
            for j, selectivity in enumerate(BATCH_SELECTIVITIES):
                plan.batches.append(
                    make_script(oracle, "random", BATCH_SIZE, selectivity, seeds[3 * i + j])
                )
        plan.warm = plan.batches[-1]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return plan


# ------------------------------------------------------------ plumbing


class Caller:
    """Sends requests on one connection and records them."""

    def __init__(self, conn: Connection, name: str, trace: bool) -> None:
        self.conn = conn
        self.name = name
        self.trace = trace
        self.count = 0

    def control(self, op: str, **fields) -> Dict[str, object]:
        self.count += 1
        response, _ = self.conn.call({"op": op, "id": f"{self.name}-{self.count}", **fields})
        if not response.get("ok"):
            raise RuntimeError(f"{op} failed: {response}")
        return response

    def query(self, session, bounds, expected, due, open_loop, mode="adaptive") -> Request:
        self.count += 1
        rid = f"{self.name}-{self.count}"
        payload = {
            "op": "query", "id": rid, "session": session, "table": "bench",
            "bounds": bounds, "mode": mode, "return_ids": False,
        }
        if self.trace:
            payload["trace"] = rid
        return self._send(Request(rid, "query", 1, due, open_loop), payload, [expected])

    def batch(self, session, script: Script, due) -> Request:
        self.count += 1
        rid = f"{self.name}-{self.count}"
        payload = {
            "op": "batch", "id": rid, "session": session, "table": "bench",
            "queries": script.bounds, "return_ids": False,
        }
        request = Request(rid, "batch", len(script), due, False)
        return self._send(request, payload, script.expected)

    def _send(self, request: Request, payload, expected) -> Request:
        try:
            response, request.timing = self.conn.call(payload)
        except OSError as error:  # timeout or closed connection
            request.error = f"transport: {error}"
            return request
        verify(request, response, expected)
        return request


class Poller(threading.Thread):
    """Polls ``stats`` on its own connection and notes, per session, when
    all its indexes first read converged and the scheduler ledger of
    its tenant at that moment."""

    def __init__(self, caller: Caller) -> None:
        super().__init__(daemon=True)
        self.caller = caller
        self._lock = threading.Lock()
        self._watch: Dict[str, str] = {}  # session id -> tenant
        self.converged_at: Dict[str, float] = {}
        self.ledger: Dict[str, Dict[str, int]] = {}  # tenant -> last ledger
        self._halt = threading.Event()
        self.error: Optional[BaseException] = None

    def watch(self, session: str, tenant: str) -> None:
        with self._lock:
            self._watch[session] = tenant

    def converged(self, session: str) -> bool:
        with self._lock:
            return session in self.converged_at

    def run(self) -> None:
        try:
            while not self._halt.wait(POLL_S):
                with self._lock:
                    watching = dict(self._watch)
                if not watching:
                    continue
                stats = self.caller.control("stats")
                now = time.perf_counter()
                self._note(stats, watching, now)
        except BaseException as error:  # surfaced by stop()
            self.error = error

    def _note(self, stats, watching, now) -> None:
        allocations = stats["scheduler"]["allocations"]
        with self._lock:
            for session, tenant in watching.items():
                if tenant in allocations:
                    bucket = allocations[tenant]
                    self.ledger[tenant] = {
                        key: int(bucket[key]) for key in ("slices", "rows", "skipped")
                    }
                indexes = stats["sessions"].get(session, {}).get("indexes", {})
                if indexes and all(i["converged"] for i in indexes.values()):
                    if session not in self.converged_at:
                        self.converged_at[session] = now
                        del self._watch[session]

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=30.0)
        if self.error is not None:
            raise RuntimeError(f"stats poller failed: {self.error}")


@dataclass
class SessionRecord:
    session: str
    tenant: str
    first: Optional[Request] = None  # the session's first query
    converged_at: Optional[float] = None

    @property
    def converge_s(self) -> Optional[float]:
        if self.first is None or self.converged_at is None:
            return None
        return self.converged_at - self.first.due


@dataclass
class Setup:
    """One server set-up: spawn -> listening, register, optional warm-up."""

    server: ServerProcess
    callers: List[Caller]
    seconds: float
    session: Optional[str] = None  # the warmed session (hot/batch)
    warm: Optional[SessionRecord] = None
    warm_requests: List[Request] = field(default_factory=list)


def set_up(root, out_dir, plan: Plan, spans_path, trace: bool, index: int) -> Setup:
    begin = time.perf_counter()
    server = ServerProcess(root, out_dir, spans_path)
    try:
        callers = [
            Caller(Connection(server.host, server.port), f"s{index}c{c}", trace)
            for c in range(2)
        ]
        callers[0].control("register", name="bench", spec=plan.spec.to_payload())
        setup = Setup(server, callers, 0.0)
        if plan.warm is not None:
            warm_up(setup, plan.warm)
        setup.seconds = time.perf_counter() - begin
        return setup
    except BaseException:
        server.kill()
        raise


def warm_up(setup: Setup, script: Script) -> None:
    """Closed-loop adaptive queries on a fresh session until it converges."""
    caller, poll = setup.callers
    tenant = "warm"
    session = caller.control("open_session", tenant=tenant)["session"]
    record = SessionRecord(session, tenant)
    poller = Poller(poll)
    poller.watch(session, tenant)
    poller.start()
    try:
        deadline = time.perf_counter() + WARM_LIMIT_S
        i = 0
        while not poller.converged(session):
            if time.perf_counter() > deadline:
                raise RuntimeError("warm-up session did not converge")
            due = time.perf_counter()
            request = caller.query(
                session, script.bounds[i % len(script)],
                script.expected[i % len(script)], due, False,
            )
            setup.warm_requests.append(request)
            if record.first is None:
                record.first = request
            i += 1
    finally:
        poller.stop()
    record.converged_at = poller.converged_at[session]
    setup.warm = record
    setup.session = session


def tear_down(setup: Setup) -> None:
    for caller in setup.callers:
        caller.conn.close()
    setup.server.stop()


# -------------------------------------------------------- timed phases


@dataclass
class Phase:
    begin: float
    end: float
    requests: List[Request]
    sessions: List[SessionRecord] = field(default_factory=list)
    ledger: Dict[str, int] = field(default_factory=dict)


def _sleep_until(when: float) -> None:
    while True:
        remaining = when - time.perf_counter()
        if remaining <= 0:
            return
        time.sleep(min(remaining, 0.05) if remaining > 0.002 else 0)


def run_cold(setup: Setup, plan: Plan, seconds: float) -> Phase:
    """Open loop at ``COLD_RATE`` through back-to-back fresh sessions.

    Each session's schedule starts when the session opens: its queries
    are due every ``1 / COLD_RATE`` seconds until ``stats`` reports the
    index converged.  Queries that fell due before that moment are still
    sent (a stall charges the queries queued behind it); the next
    session then opens at once.  The backlog therefore never carries
    from one session into the next.
    """
    analyst, poll = setup.callers
    poller = Poller(poll)
    poller.start()
    requests: List[Request] = []
    sessions: List[SessionRecord] = []
    current: Optional[SessionRecord] = None
    begin = time.perf_counter() + 0.05
    end = begin + seconds
    try:
        while True:
            if current is not None and poller.converged(current.session):
                converged_at = poller.converged_at[current.session]
                if session_begin + position / COLD_RATE > converged_at:
                    current.converged_at = converged_at
                    analyst.control("close_session", session=current.session)
                    current = None
            if current is None:
                session_begin = max(begin, time.perf_counter())
                if session_begin >= end:
                    break
                tenant = f"cold{len(sessions)}"
                session = analyst.control("open_session", tenant=tenant)["session"]
                current = SessionRecord(session, tenant)
                sessions.append(current)
                poller.watch(session, tenant)
                script = plan.sessions[(len(sessions) - 1) % len(plan.sessions)]
                position = 0
            due = session_begin + position / COLD_RATE
            if due >= end:
                break
            _sleep_until(due)
            slot = position % len(script)
            request = analyst.query(
                current.session, script.bounds[slot], script.expected[slot], due, True
            )
            requests.append(request)
            if current.first is None:
                current.first = request
            position += 1
    finally:
        poller.stop()
    if current is not None and poller.converged(current.session):
        current.converged_at = poller.converged_at[current.session]
    ledger = {"slices": 0, "rows": 0, "skipped": 0}
    for bucket in poller.ledger.values():
        for key in ledger:
            ledger[key] += bucket[key]
    return Phase(begin, end, requests, sessions, ledger)


def _ledger_total(stats) -> Dict[str, int]:
    total = {"slices": 0, "rows": 0, "skipped": 0}
    for bucket in stats["scheduler"]["allocations"].values():
        for key in total:
            total[key] += int(bucket[key])
    return total


def _closed_loop(caller: Caller, session: str, end: float, send) -> List[Request]:
    requests: List[Request] = []
    i = 0
    ready = time.perf_counter()
    while ready < end:
        request = send(caller, session, i, ready)
        requests.append(request)
        if request.timing is None:
            break
        ready = request.timing.end
        i += 1
    return requests


def run_hot(setup: Setup, plan: Plan, seconds: float) -> Phase:
    """Two closed-loop connections on the warmed session."""

    def sender(pool: Script, modes: List[str]):
        def send(caller, session, i, due):
            slot = i % len(pool)
            return caller.query(
                session, pool.bounds[slot], pool.expected[slot], due, False, modes[slot]
            )
        return send

    return _run_closed(setup, seconds, [sender(p, m) for p, m in zip(plan.pools, plan.modes)])


def run_batch(setup: Setup, plan: Plan, seconds: float) -> Phase:
    """One closed-loop connection sending batches of ``BATCH_SIZE``; the
    selectivity cycles from batch to batch."""

    def send(caller, session, i, due):
        return caller.batch(session, plan.batches[i % len(plan.batches)], due)

    return _run_closed(setup, seconds, [send])


def _run_closed(setup: Setup, seconds: float, senders) -> Phase:
    before = _ledger_total(setup.callers[0].control("stats"))
    begin = time.perf_counter() + 0.05
    end = begin + seconds
    results: List[List[Request]] = [[] for _ in senders]
    errors: List[BaseException] = []

    def worker(slot: int) -> None:
        try:
            _sleep_until(begin)
            results[slot] = _closed_loop(
                setup.callers[slot], setup.session, end, senders[slot]
            )
        except BaseException as error:  # re-raised on the main thread
            errors.append(error)

    threads = [
        threading.Thread(target=worker, args=(slot,), daemon=True)
        for slot in range(len(senders))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    after = _ledger_total(setup.callers[0].control("stats"))
    ledger = {key: after[key] - before[key] for key in before}
    requests = [r for per in results for r in per]
    return Phase(begin, end, requests, ledger=ledger)


RUNNERS = {"cold": run_cold, "hot": run_hot, "batch": run_batch}
