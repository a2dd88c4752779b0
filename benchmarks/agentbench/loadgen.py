"""Closed-loop load: one driver thread plays every logical agent.

Agents wait for their reply before the next probe, so each has exactly one
probe outstanding. The driver submits, polls ``ticket.done()`` (the only
completion surface ``ProbeTicket``, ``_NotedTicket`` and ``_ScatterTicket``
share) at most 1 ms apart, calls ``result()``, stamps latency as submit ->
``result()`` returned, and resubmits. ``branch_rw_wal`` adds the only other
load thread: an open-loop writer working through a seeded schedule.
"""

from __future__ import annotations

import math
import statistics
import threading
import time
from dataclasses import dataclass, field

POLL_S = 0.0005
PROBE_TIMEOUT_S = 30.0
SLICE_S = 5.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (need not be sorted); 0.0 when
    there are none (a smoke run on a stalled host)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


@dataclass
class LoopResult:
    seconds: float = 0.0
    #: Measured-phase completions: (seconds since measurement began,
    #: latency in seconds, probe kind). Failed probes are not in here.
    samples: list[tuple[float, float, str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    rows_processed: int = 0
    #: Outcome status -> count over the measured phase.
    statuses: dict[str, int] = field(default_factory=dict)
    kinds: dict[str, int] = field(default_factory=dict)
    #: perf_counter bounds of the measured phase, and how far into its
    #: stream each agent got (the layer walk continues from there).
    measure_from: float = 0.0
    measure_to: float = 0.0
    cursors: list[int] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(message)

    def latencies_ms(self, kind: str | None = None) -> list[float]:
        return [
            latency * 1000.0
            for _, latency, k in self.samples
            if kind is None or k == kind
        ]

    def throughput_slices(self) -> list[float]:
        """Probes/s in each ``SLICE_S`` slice of the measured phase."""
        n_slices = max(1, round(self.seconds / SLICE_S))
        width = self.seconds / n_slices
        counts = [0] * n_slices
        for done_at, _, _ in self.samples:
            counts[min(n_slices - 1, int(done_at / width))] += 1
        return [count / width for count in counts]


def closed_loop(
    workload,
    sessions: list,
    streams: list,
    warmup_s: float,
    seconds: float,
    tick=None,
    tracer=None,
) -> LoopResult:
    """Run the closed loop: ``warmup_s`` discarded, then ``seconds`` measured.

    A probe belongs to the measured phase when it *completes* inside it.
    ``tick`` runs once per poll round (``ShardedSystem.pump``).
    """
    n = len(sessions)
    result = LoopResult(seconds=seconds)
    cursor = [0] * n
    tickets: list = [None] * n
    planned: list = [None] * n
    submitted_at = [0.0] * n
    accepted_at = [0.0] * n
    probe_ids = [0] * n
    next_probe_id = 0

    def submit(agent: int) -> None:
        nonlocal next_probe_id
        planned[agent] = streams[agent][cursor[agent]]
        cursor[agent] += 1
        probe_ids[agent] = next_probe_id
        next_probe_id += 1
        submitted_at[agent] = time.perf_counter()
        tickets[agent] = sessions[agent].submit(planned[agent].probe)
        accepted_at[agent] = time.perf_counter()

    start = time.perf_counter()
    measure_from = start + warmup_s
    measure_to = measure_from + seconds
    result.measure_from, result.measure_to, result.cursors = measure_from, measure_to, cursor
    for agent in range(n):
        submit(agent)
    while True:
        now = time.perf_counter()
        if now >= measure_to:
            break
        if tick is not None:
            tick()
        progressed = False
        for agent in range(n):
            ticket = tickets[agent]
            if not ticket.done():
                if now - submitted_at[agent] > PROBE_TIMEOUT_S:
                    ticket.cancel()
                    result.attempted += 1
                    result.fail(f"agent {agent}: probe timed out")
                    submit(agent)
                continue
            seen_done = time.perf_counter()
            response = error = None
            try:
                response = ticket.result(timeout=PROBE_TIMEOUT_S)
            except Exception as exc:  # a failed ticket is a failed probe
                error = f"{type(exc).__name__}: {exc}"
            finished = time.perf_counter()
            progressed = True
            if finished >= measure_from:
                kind = planned[agent].kind
                result.attempted += 1
                result.kinds[kind] = result.kinds.get(kind, 0) + 1
                if error is None:
                    error = workload.check(agent, planned[agent], response)
                if error is not None:
                    result.fail(f"agent {agent}: {error}")
                else:
                    result.samples.append(
                        (finished - measure_from, finished - submitted_at[agent], kind)
                    )
                if response is not None:
                    result.rows_processed += response.rows_processed
                    for outcome in response.outcomes:
                        result.statuses[outcome.status] = (
                            result.statuses.get(outcome.status, 0) + 1
                        )
                if tracer is not None:
                    probe_id = probe_ids[agent]
                    root = tracer.add(
                        "probe", "loadgen", submitted_at[agent], finished, None, probe_id
                    )
                    tracer.add("submit", "loadgen", submitted_at[agent],
                               accepted_at[agent], root, probe_id)
                    tracer.add("done", "serving", accepted_at[agent], seen_done,
                               root, probe_id)
                    tracer.add("result", "loadgen", seen_done, finished, root, probe_id)
            submit(agent)
        if not progressed:
            time.sleep(POLL_S)
    # Drain what is still in flight; it belongs to no phase.
    for ticket in tickets:
        deadline = time.perf_counter() + PROBE_TIMEOUT_S
        while not ticket.done() and time.perf_counter() < deadline:
            if tick is not None:
                tick()
            time.sleep(POLL_S)
        try:
            ticket.result(timeout=1.0)
        except Exception:
            pass
    return result


@dataclass(frozen=True)
class WriteRecord:
    """One completed writer task (all times in seconds, perf_counter based)."""

    due: float
    lateness_s: float  # start - due
    latency_s: float  # end - due
    lock_wait_s: float
    fork_s: float
    merge_s: float
    rollback_s: float


class Writer(threading.Thread):
    """``branch_rw_wal``'s open-loop writer.

    Each task is timed from the moment its seeded schedule says it is due,
    so a stall delays — and is charged to — every task behind it. Each
    task runs under the gateway's serve lock (the discipline the
    maintenance runtime uses), so writes land between admission windows.
    """

    def __init__(self, system, branches, tasks) -> None:
        super().__init__(name="agentbench-writer", daemon=True)
        self.system = system
        self.branches = branches
        self.tasks = tasks
        self.stop_event = threading.Event()
        self.started_at = 0.0
        self.records: list[WriteRecord] = []
        self.error: str | None = None

    def run(self) -> None:
        self.started_at = time.perf_counter()
        try:
            for index, task in enumerate(self.tasks):
                due = self.started_at + task.due_s
                delay = due - time.perf_counter()
                if delay > 0 and self.stop_event.wait(delay):
                    return
                if self.stop_event.is_set():
                    return
                begun = time.perf_counter()
                with self.system.gateway.serve_lock:
                    locked = time.perf_counter()
                    fork_s, merge_s, rollback_s = self._run_task(index, task)
                ended = time.perf_counter()
                self.records.append(
                    WriteRecord(due, begun - due, ended - due, locked - begun,
                                fork_s, merge_s, rollback_s)
                )
            self.error = "writer ran out of tasks before the run ended"
        except Exception as exc:  # surfaces as a failed run, not a silent stop
            self.error = f"{type(exc).__name__}: {exc}"

    def _run_task(self, index: int, task) -> tuple[float, float, float]:
        clock = time.perf_counter
        names = [f"task{index}_h{j}" for j in range(len(task.branches))]
        t0 = clock()
        forks = [self.branches.fork("main", name) for name in names]
        t1 = clock()
        for branch, updates in zip(forks, task.branches):
            for sql in updates:
                branch.execute(sql)
        t2 = clock()
        self.branches.merge(names[task.merge_index])
        t3 = clock()
        for position, name in enumerate(names):
            if position != task.merge_index:
                self.branches.rollback(name)
        t4 = clock()
        self.system.db.execute(task.insert_sql)
        return t1 - t0, t3 - t2, t4 - t3

    def stop(self) -> None:
        self.stop_event.set()
        self.join(timeout=PROBE_TIMEOUT_S)

    def measured(self, measure_from: float, measure_to: float) -> list[WriteRecord]:
        """The tasks that were due inside the measured phase."""
        return [r for r in self.records if measure_from <= r.due < measure_to]
