"""Streaming admission gateway: the batch is an emergent property.

PR 1 made the admission batch the serving unit — but only for callers who
hand-assembled a ``submit_many`` list. The paper's actual workload is
*independently arriving* agents (Sec. 3, 5.2.1): nobody owns the batch.
This module moves batch formation into the system:

* :class:`AgentSession` — an agent's sticky identity on the system
  (``system.session(agent_id=..., principal=..., defaults=Brief(...))``).
  Probes submitted through a session inherit its identity and brief
  defaults (so per-probe ``agent_id``/``principal`` plumbing is optional)
  and the session accumulates turn/query/row/cost accounting.
* :class:`ProbeTicket` — the future-like handle ``session.submit(probe)``
  returns immediately: ``result(timeout=)``, ``done()``, and ``cancel()``
  for probes not yet admitted into a window.
* :class:`ProbeGateway` — the admission loop. Streamed probes queue up
  across all sessions; a window closes as soon as every session answered
  in the previous window has submitted again (its *cohort*: a closed-loop
  swarm closes each window when its agents have answered, not when a
  timer fires), when ``max_batch`` probes are pending, on ``flush()`` or
  shutdown, and at the latest ``max_wait`` after the oldest arrival
  (``max_batch``/``max_wait`` are configurable on
  :class:`~repro.core.system.SystemConfig`). A window without sessions
  leaves no cohort, so the next one waits for count, flush or timer; so
  does every window of an admission loop that has seen the data change
  (see :meth:`ProbeGateway.note_data_change`). The window is served
  through the scheduler's batch path — cross-agent dedup/sharing now
  happens between agents that never coordinated.
  ``submit``/``submit_many`` remain as shims over a one-window gateway,
  and ``await session.asubmit(probe)`` / ``async for response in
  gateway.serve(aiter_of_probes)`` expose the same loop to asyncio.

Equivalence contract
--------------------

Window boundaries are invisible in rows and statuses. Serving one window
equals serial ``submit`` of its probes (the scheduler's differential
contract), and *cross-window* reuse flows through session-lived state —
history, lenient history, the shared subplan cache — exactly as serial
submission would populate it. A streamed probe's per-query rows and
statuses are therefore byte-identical to serial submission in admission
order no matter how arrivals split into windows, which is what lets CI
re-run the unmodified differential suite with jittered window timing
(``REPRO_GATEWAY_JITTER``) and at any worker count.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import os
import random
import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError
from dataclasses import replace
from typing import TYPE_CHECKING, AsyncIterator, Callable, Iterable

from repro.core.brief import Brief
from repro.core.probe import Probe, ProbeResponse, QueryOutcome
from repro.errors import GatewayClosed
from repro.qos.policy import lane_name
from repro.obs import trace as obs_trace
from repro.obs.metrics import Histogram, MetricAttr, MetricsRegistry
from repro.qos.chaos import ChaosEngine, resolve_chaos_seed
from repro.qos.policy import LANE_STANDARD, Degradation

if TYPE_CHECKING:
    from repro.core.system import AgentFirstDataSystem
    from repro.qos.controller import QosController

_LOG = logging.getLogger(__name__)

#: CI uses ``REPRO_GATEWAY_JITTER`` to fuzz the ``max_wait`` ceiling under
#: the differential suite: answers must not depend on where windows close.
JITTER_ENV_VAR = "REPRO_GATEWAY_JITTER"

DEFAULT_MAX_BATCH = 64
DEFAULT_MAX_WAIT = 0.01  # seconds

#: Why a streamed window closed (``repro_gateway_windows_closed_total``).
CLOSE_CAUSES = ("cohort", "batch", "timer", "flush", "stop")


def resolve_max_batch(max_batch: int | None) -> int:
    """Normalise a window-size setting (None -> the default)."""
    return max(1, int(DEFAULT_MAX_BATCH if max_batch is None else max_batch))


def resolve_max_wait(max_wait: float | None) -> float:
    """Normalise a window-wait setting (None -> the default)."""
    return max(0.0, float(DEFAULT_MAX_WAIT if max_wait is None else max_wait))


def merge_brief(brief: Brief, defaults: Brief) -> Brief:
    """Field-wise overlay: the probe's brief wins wherever it says anything.

    Unset fields (empty string, ``None``, empty dict) fall back to the
    session's defaults, so a bare ``Probe(queries=(sql,))`` submitted
    through a session behaves as if it carried the session's brief.
    """
    return Brief(
        goal=brief.goal or defaults.goal,
        phase=brief.phase if brief.phase is not None else defaults.phase,
        accuracy=brief.accuracy if brief.accuracy is not None else defaults.accuracy,
        priorities=dict(brief.priorities or defaults.priorities),
        complete_k_of_n=(
            brief.complete_k_of_n
            if brief.complete_k_of_n is not None
            else defaults.complete_k_of_n
        ),
        max_cost=brief.max_cost if brief.max_cost is not None else defaults.max_cost,
        lane=brief.lane if brief.lane is not None else defaults.lane,
        max_staleness=(
            brief.max_staleness
            if brief.max_staleness is not None
            else defaults.max_staleness
        ),
        trace=brief.trace if brief.trace is not None else defaults.trace,
        notes=brief.notes or defaults.notes,
    )


class ProbeTicket:
    """Future-like handle for one streamed probe.

    Returned immediately by ``session.submit``/``gateway.submit``; the
    response arrives when the probe's admission window has been served.
    """

    def __init__(
        self,
        gateway: "ProbeGateway",
        probe: Probe,
        session: "AgentSession | None" = None,
    ) -> None:
        self.probe = probe
        self.session = session
        self._gateway = gateway
        self._future: Future[ProbeResponse] = Future()
        self._enqueued_at = time.monotonic()
        self._admitted = False
        #: QoS classification, stamped at submission (inert without QoS):
        #: priority lane, whether the principal's token bucket ran dry,
        #: and the gateway-wide arrival sequence number that keeps
        #: within-lane ordering exactly FIFO.
        self.lane = LANE_STANDARD
        self.starved = False
        self._seq = 0
        #: Open "gateway:queued" span when the probe carries a trace;
        #: finished at the admission edge with the window's attributes.
        self._queued_span = None

    def done(self) -> bool:
        """True once the response is available (or the ticket cancelled)."""
        return self._future.done()

    def cancelled(self) -> bool:
        return self._future.cancelled()

    def admitted(self) -> bool:
        """True once the probe has been admitted into a window (at which
        point it can no longer be cancelled)."""
        return self._admitted

    def result(self, timeout: float | None = None) -> ProbeResponse:
        """Block until the probe's window is served; returns the response.

        Raises ``concurrent.futures.CancelledError`` if the ticket was
        cancelled, ``concurrent.futures.TimeoutError`` on timeout.
        """
        return self._future.result(timeout)

    def cancel(self) -> bool:
        """Withdraw a probe that has not yet been admitted into a window.

        Returns True on success; False if the probe was already admitted
        (its window is being — or has been — served).
        """
        return self._gateway._cancel(self)

    def aresult(self) -> "asyncio.Future[ProbeResponse]":
        """An awaitable view of this ticket for the running asyncio loop."""
        return asyncio.wrap_future(self._future)


class AgentSession:
    """One agent's sticky identity + accounting on a serving system.

    Sessions are cheap handles: they hold no queue of their own — every
    submitted probe goes straight to the gateway's shared admission loop,
    which is exactly what makes the batch cross-agent.
    """

    def __init__(
        self,
        gateway: "ProbeGateway",
        agent_id: str | None = None,
        principal: str | None = None,
        defaults: Brief | None = None,
    ) -> None:
        self.gateway = gateway
        self.agent_id = agent_id
        self.principal = principal
        self.defaults = defaults
        #: Accounting, updated as each of this session's tickets resolves.
        self.probes_submitted = 0
        self.turns_served = 0
        self.queries_served = 0
        self.rows_processed = 0
        self.cache_hits = 0
        self.spent_cost = 0.0
        self.last_turn = 0
        self._lock = threading.Lock()

    # -- the streaming surface ------------------------------------------------

    def submit(self, probe: Probe) -> ProbeTicket:
        """Stream one probe into the gateway; returns its ticket at once."""
        ticket = self.gateway.submit(self.effective(probe), session=self)
        with self._lock:  # after the gateway accepts: a closed gateway raises
            self.probes_submitted += 1
        return ticket

    async def asubmit(self, probe: Probe) -> ProbeResponse:
        """Asyncio twin of :meth:`submit`: awaits the served response."""
        return await self.submit(probe).aresult()

    # -- defaults -------------------------------------------------------------

    def effective(self, probe: Probe) -> Probe:
        """The probe as served: session identity/brief fill unset fields."""
        updates: dict = {}
        if self.agent_id is not None and probe.agent_id == "anon":
            updates["agent_id"] = self.agent_id
        if self.principal is not None and probe.principal == "public":
            updates["principal"] = self.principal
        if self.defaults is not None:
            merged = merge_brief(probe.brief, self.defaults)
            if merged != probe.brief:
                updates["brief"] = merged
        return replace(probe, **updates) if updates else probe

    # -- accounting -----------------------------------------------------------

    def _account(self, response: ProbeResponse) -> None:
        with self._lock:
            self.turns_served += 1
            self.last_turn = max(self.last_turn, response.turn)
            self.queries_served += len(response.outcomes)
            self.rows_processed += response.rows_processed
            self.cache_hits += response.cache_hits
            self.spent_cost += sum(
                outcome.estimated_cost
                for outcome in response.outcomes
                if outcome.executed
            )

    def describe(self) -> str:
        name = self.agent_id or "anon"
        return (
            f"session {name}: {self.turns_served}/{self.probes_submitted} probes"
            f" served, {self.queries_served} queries, {self.rows_processed} rows,"
            f" cost {self.spent_cost:.0f}"
        )


class _ServeLock:
    """The window-serving lock, writers first.

    Windows take it through :meth:`window`, which also waits while any
    outside holder is queued. Outside holders (writers, the maintenance
    runtime) take it with ``with lock:`` and wait only for the current
    holder. Back-to-back windows therefore never starve a writer, and a
    writer that fell behind runs its catch-up tasks back to back instead
    of each waiting out a whole reader window.
    """

    def __init__(self, wait_ms: Histogram) -> None:
        self._cond = threading.Condition()
        self._held = False
        self._writers_queued = 0
        self._window_wait = wait_ms.bind(holder="window")
        self._writer_wait = wait_ms.bind(holder="writer")

    def __enter__(self) -> "_ServeLock":
        begun = time.monotonic()
        with self._cond:
            self._writers_queued += 1
            try:
                while self._held:
                    self._cond.wait()
            except BaseException:
                # Interrupted while queued: windows held back for this
                # writer must re-check, or they could wait forever.
                self._writers_queued -= 1
                self._cond.notify_all()
                raise
            self._writers_queued -= 1
            self._held = True
        self._writer_wait.observe((time.monotonic() - begun) * 1000.0)
        return self

    def __exit__(self, *exc_info) -> None:
        self._release()

    @contextlib.contextmanager
    def window(self):
        """Hold the lock for one window, once no outside holder is queued."""
        begun = time.monotonic()
        with self._cond:
            while self._held or self._writers_queued:
                self._cond.wait()
            self._held = True
        self._window_wait.observe((time.monotonic() - begun) * 1000.0)
        try:
            yield
        finally:
            self._release()

    def _release(self) -> None:
        with self._cond:
            self._held = False
            self._cond.notify_all()


class ProbeGateway:
    """Admits streamed probes into cross-session admission windows.

    The loop thread starts lazily on the first streamed submit; systems
    that only ever use the synchronous ``submit``/``submit_many`` shims
    never pay for it. ``flush()`` closes the current window immediately
    (callers that know their stream has a lull use it to skip the
    ``max_wait`` timer); ``close()`` drains pending probes and stops the
    loop.

    Lock discipline: all stats counters — the streamed/direct window
    aggregates, the QoS backpressure counters, ``_seq_counter``, and the
    formation gauges — are mutated and snapshotted only while holding
    ``_cond``; never call back into user code (hooks, futures) or
    acquire ``_serve_lock`` while holding it. ``_serve_lock`` serialises
    window serving and is always taken *without* ``_cond`` held (the
    ``_serve_waiters`` handshake brackets it from outside), so the lock
    order is strictly one-at-a-time and deadlock-free. ``stats()`` is
    therefore a consistent point-in-time snapshot, exactly the
    discipline :class:`~repro.engine.executor.SubplanCache` documents
    for its counters. The counters themselves live in the shared metrics
    registry via :class:`~repro.obs.metrics.MetricAttr` shims —
    attribute reads/writes and ``stats()`` keys are unchanged.

    ``_serve_lock`` is a :class:`_ServeLock` with a writers-first rule:
    windows (streamed and direct) acquire it through ``window()``, which
    also waits while any outside holder is queued on ``serve_lock``, so a
    writer waits behind at most the window being served. The cohort state
    (``_cohort``, ``_data_changed``) is guarded by ``_cond`` like the
    counters.
    """

    windows_streamed = MetricAttr("_m_windows_streamed")
    probes_streamed = MetricAttr("_m_probes_streamed")
    windows_direct = MetricAttr("_m_windows_direct")
    probes_offloaded = MetricAttr("_m_probes_offloaded")
    idle_hook_errors = MetricAttr("_m_idle_hook_errors")
    overload_windows = MetricAttr("_m_overload_windows")
    probes_degraded = MetricAttr("_m_probes_degraded")
    probes_shed_to_replicas = MetricAttr("_m_probes_shed_to_replicas")
    probes_closed_unserved = MetricAttr("_m_probes_closed_unserved")

    def __init__(
        self,
        system: "AgentFirstDataSystem",
        max_batch: int | None = None,
        max_wait: float | None = None,
        qos: "QosController | None" = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.system = system
        self.max_batch = resolve_max_batch(max_batch)
        self.max_wait = resolve_max_wait(max_wait)
        #: Overload control (None = admit everything, strict FIFO — the
        #: pre-QoS behaviour). With a controller attached, submissions are
        #: classified into priority lanes and, *only past the configured
        #: watermarks*, windows admit lane-major and bulk probes degrade.
        self.qos = qos
        #: Deterministic timing chaos (``REPRO_CHAOS``): seeded per-window
        #: admission latency spikes. Timing is exactly the axis the
        #: differential contract proves answers are independent of.
        chaos_seed = resolve_chaos_seed()
        self.chaos = ChaosEngine(chaos_seed) if chaos_seed is not None else None
        #: Extra per-window wait drawn uniformly from [0, jitter] seconds —
        #: CI's tool for proving answers don't depend on window timing.
        self.jitter = max(0.0, float(os.environ.get(JITTER_ENV_VAR, 0.0) or 0.0))
        self._jitter_rng = random.Random(0xA6E27)
        self._pending: deque[ProbeTicket] = deque()
        #: Windows (streamed or direct) currently waiting for — or holding
        #: — the serve lock; the maintenance runtime's preemption signal
        #: for probes that are past admission. Guarded by ``_cond``.
        self._serve_waiters = 0
        self._cond = threading.Condition()
        #: The sessions answered in the last streamed window that have not
        #: submitted since: the open window closes once this is empty.
        #: ``None`` when that window had no sessions (the timer decides).
        self._cohort: set[AgentSession] | None = None
        #: Set once the data changes under the running admission loop;
        #: from then on until the loop retires, no window closes on its
        #: cohort (see :meth:`note_data_change`).
        self._data_changed = False
        #: Maintenance hook: called (outside all gateway locks) whenever
        #: the admission loop drains its queue — an idle window opened.
        self.idle_hook: "Callable[[], None] | None" = None
        self._thread: threading.Thread | None = None
        self._stopped = False
        self._flush_requested = False
        #: Retire the admission thread after this long with nothing
        #: pending; a later streamed submit restarts it. Long-lived
        #: serving systems (one per database) otherwise pile up idle
        #: threads across a harness sweep.
        self.idle_stop = 5.0
        #: Observability: streamed-window formation stats (the bench reads
        #: these via :meth:`stats`) plus the caller-assembled windows
        #: served synchronously. Running aggregates, not per-window lists:
        #: a long-lived gateway must not grow without bound.
        registry = registry or MetricsRegistry()
        self.metrics_registry = registry

        def _bind(name: str, help_text: str):
            return registry.counter(f"repro_gateway_{name}", help_text).bind()

        self._m_windows_streamed = _bind(
            "windows_streamed_total", "Admission windows formed by the loop."
        )
        self._m_probes_streamed = _bind(
            "probes_streamed_total", "Probes admitted through streamed windows."
        )
        self._m_windows_direct = _bind(
            "windows_direct_total", "Caller-assembled windows served synchronously."
        )
        self._m_probes_offloaded = _bind(
            "probes_offloaded_total", "Probes answered by read replicas."
        )
        self._m_idle_hook_errors = _bind(
            "idle_hook_errors_total", "Maintenance idle-hook failures survived."
        )
        self._m_overload_windows = _bind(
            "overload_windows_total", "Windows formed past a QoS watermark."
        )
        self._m_probes_degraded = _bind(
            "probes_degraded_total", "Probes served with a shedding verdict."
        )
        self._m_probes_shed_to_replicas = _bind(
            "probes_shed_to_replicas_total", "Probes force-offloaded by shedding."
        )
        self._m_probes_closed_unserved = _bind(
            "probes_closed_unserved_total", "Probes still queued at shutdown."
        )
        self._m_windows_closed = {
            cause: registry.counter(
                "repro_gateway_windows_closed_total",
                "Streamed windows closed, by what closed them.",
                labelnames=("cause",),
            ).bind(cause=cause)
            for cause in CLOSE_CAUSES
        }
        #: Serialises window serving: streamed windows and direct
        #: ``submit_many`` windows interleave without tearing turn numbers.
        #: Writers and the maintenance runtime's idle-window jobs take the
        #: same lock (writers first), so they never overlap serving.
        self._serve_lock = _ServeLock(
            registry.histogram(
                "repro_gateway_serve_lock_wait_ms",
                "Time spent waiting for the serve lock, by holder.",
                labelnames=("holder",),
            )
        )
        registry.add_collector(self._collect_gauges)
        self.windows_streamed = 0
        self.probes_streamed = 0
        self.windows_direct = 0
        self._window_size_max = 0
        self._formation_ms_total = 0.0
        self._formation_ms_max = 0.0
        #: Probes answered by read replicas instead of the primary window.
        self.probes_offloaded = 0
        #: Idle-hook failures survived (see ``_serve_streamed_window``).
        self.idle_hook_errors = 0
        self.last_idle_hook_error: str | None = None
        #: QoS backpressure counters (all monotone; ``stats()`` snapshots
        #: them under ``_cond`` together with the formation aggregates).
        self._seq_counter = 0
        self.overload_windows = 0
        self.probes_degraded = 0
        self.probes_shed_to_replicas = 0
        self.probes_closed_unserved = 0
        #: Capacity signals for the shard matchmaker: the deepest the
        #: admission queue has ever been (peak gauge, monotone), and —
        #: via ``stats()["windows_served"]`` — total windows served on
        #: either path. Shards advertise both so the router can pull-match
        #: queued work to the shard with headroom.
        self._queue_depth_peak = 0

    # -- synchronous window serving (the submit/submit_many shim path) --------

    def serve_window(self, probes: list[Probe]) -> list[ProbeResponse]:
        """Serve one caller-assembled admission window, synchronously."""
        if not probes:
            return []
        for probe in probes:
            trace = obs_trace.ensure_probe_trace(probe)
            if trace is not None:
                trace.root.child(
                    "gateway:window", path="direct", window_size=len(probes)
                ).finish()
        with self._cond:
            self._serve_waiters += 1  # visible to maintenance preemption
        try:
            with self._serve_lock.window():
                responses = self.system._serve_batch(probes)
        finally:
            with self._cond:
                self._serve_waiters -= 1
        with self._cond:  # stats share the cond lock with the loop thread
            self.windows_direct += 1
        return responses

    # -- the streaming surface ------------------------------------------------

    def submit(self, probe: Probe, session: AgentSession | None = None) -> ProbeTicket:
        """Enqueue one probe for admission; returns its ticket immediately.

        Raises :class:`~repro.errors.GatewayClosed` on a closed gateway
        and :class:`~repro.errors.OverloadError` past the QoS layer's
        hard admission cap (when one is configured — by default overload
        degrades instead of rejecting and this never raises).
        """
        trace = obs_trace.ensure_probe_trace(probe)
        ticket = ProbeTicket(self, probe, session)
        with self._cond:
            if self._stopped:
                raise GatewayClosed()
            if self.qos is not None:
                # Classification (and the hard-cap check) happens under
                # the admission lock so lane/bucket state is consistent
                # with the queue depth it judged.
                ticket.lane, ticket.starved = self.qos.classify(
                    probe, len(self._pending)
                )
                if trace is not None:
                    trace.root.child(
                        "qos:classify",
                        lane=lane_name(ticket.lane),
                        starved=ticket.starved,
                    ).finish()
            # Opened only once the probe is accepted: a rejected submit
            # must leave no open span on a trace its retry reuses.
            if trace is not None:
                ticket._queued_span = trace.root.child("gateway:queued")
            ticket._seq = self._seq_counter
            self._seq_counter += 1
            if self._cohort:
                self._cohort.discard(session)
            self._ensure_loop()
            self._pending.append(ticket)
            if len(self._pending) > self._queue_depth_peak:
                self._queue_depth_peak = len(self._pending)
            self._cond.notify_all()
        return ticket

    def flush(self) -> None:
        """Close the current window now instead of waiting out ``max_wait``."""
        with self._cond:
            self._flush_requested = True
            self._cond.notify_all()

    def close(self, timeout: float | None = 10.0) -> None:
        """Drain pending probes, serve them, and stop the admission loop.

        Any probe still queued once the loop is down — submit raced the
        stop flag, the thread had already retired idle, or the join timed
        out — resolves with a structured ``GatewayClosed`` error
        *response* (every query an ``"error"`` outcome, plus a steering
        line): ``ticket.result()`` must never block on shutdown.
        """
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
            thread = self._thread
        if thread is not None:
            thread.join(timeout)
        with self._cond:
            leftovers = list(self._pending)
            self._pending.clear()
        resolved = 0
        for ticket in leftovers:
            # Settle the cancel race exactly like window admission does;
            # a ticket cancelled out-of-band is already resolved.
            if not ticket._future.set_running_or_notify_cancel():
                continue
            ticket._admitted = True
            resolved += 1
            # No session accounting: this probe was never served.
            with contextlib.suppress(InvalidStateError):
                ticket._future.set_result(_closed_response(ticket.probe))
        if resolved:
            with self._cond:
                self.probes_closed_unserved += resolved

    def pending_probes(self) -> int:
        with self._cond:
            return len(self._pending)

    def serving_demand(self) -> int:
        """Probes that would be served right now if nothing were in the
        way: queued for admission, plus windows (streamed or direct)
        waiting on — or holding — the serve lock. The maintenance
        runtime's preemption predicate: any positive value means a
        sleeper job should yield the lock."""
        with self._cond:
            return len(self._pending) + self._serve_waiters

    @property
    def serve_lock(self) -> _ServeLock:
        """The window-serving lock, taken with ``with gateway.serve_lock:``
        by writers and by the maintenance runtime's idle-window jobs, so
        that their work and serving never overlap. Such outside holders go
        first: a queued writer waits for the window being served, never
        for the windows formed behind it."""
        return self._serve_lock

    async def serve(
        self,
        probes: "AsyncIterator[Probe] | Iterable[Probe]",
        session: AgentSession | None = None,
    ) -> "AsyncIterator[ProbeResponse]":
        """Stream probes from an (async) iterator; yield served responses.

        Probes are admitted as they arrive — submission keeps running
        while earlier responses are awaited, so a slow producer and the
        admission timer overlap. Responses come back in submission order.
        """
        queue: asyncio.Queue = asyncio.Queue()
        submit = session.submit if session is not None else self.submit

        async def _feed() -> None:
            # The sentinel (or the producer's failure) must always reach
            # the consumer, or it would block on queue.get() forever.
            try:
                if hasattr(probes, "__aiter__"):
                    async for probe in probes:  # type: ignore[union-attr]
                        queue.put_nowait(submit(probe))
                else:
                    for probe in probes:  # type: ignore[union-attr]
                        queue.put_nowait(submit(probe))
                        await asyncio.sleep(0)  # let consumers interleave
            except BaseException as exc:
                queue.put_nowait(exc)
                raise
            queue.put_nowait(None)

        feeder = asyncio.ensure_future(_feed())
        try:
            while True:
                item = await queue.get()
                if item is None:
                    break
                if isinstance(item, BaseException):
                    raise item
                yield await item.aresult()
        finally:
            feeder.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await feeder

    # -- admission loop -------------------------------------------------------

    def note_data_change(self) -> None:
        """Record that the data changed (the system calls this on every
        change event that wipes the answered-before history).

        Cohort close chains windows over unchanged data: between changes,
        a closed loop re-asks what history already answers and its
        windows cost next to nothing. When writes land between windows,
        each one wipes that history, and back-to-back windows turn the
        read/write mix into a queue at the edge of saturation: whether a
        window finds its answers in history then depends on whether it
        slipped in before the writer's next turn, and throughput swings
        with host speed from run to run. So from the first change until
        the admission loop retires idle, windows close only on count,
        flush, shutdown or the ``max_wait`` ceiling; writers still go
        first on the serve lock.
        """
        with self._cond:
            self._data_changed = True

    def _ensure_loop(self) -> None:
        if self._thread is None:
            # A new admission loop starts with no change seen: changes
            # while no loop ran do not race any window.
            self._data_changed = False
            self._thread = threading.Thread(
                target=self._loop, name="probe-gateway", daemon=True
            )
            self._thread.start()

    def _window_wait(self) -> float:
        if not self.jitter:
            return self.max_wait
        return self.max_wait + self._jitter_rng.uniform(0.0, self.jitter)

    def _close_cause(self, remaining: float) -> str | None:
        """Why the forming window closes now, or ``None`` to keep waiting;
        ``remaining`` is the time left before the ``max_wait`` ceiling.
        Called under ``_cond`` with probes pending."""
        if self._stopped:
            return "stop"
        if self._flush_requested:
            return "flush"
        if len(self._pending) >= self.max_batch:
            return "batch"
        cohort_done = self._cohort is not None and not self._cohort
        if cohort_done and not self._data_changed:
            return "cohort"
        if remaining <= 0:
            return "timer"
        return None

    def _loop(self) -> None:
        while True:
            window: list[ProbeTicket] = []
            with self._cond:
                while not self._pending and not self._stopped:
                    self._flush_requested = False
                    woke = self._cond.wait(timeout=self.idle_stop)
                    if not woke and not self._pending and not self._stopped:
                        # Idle past the retirement window: stop this
                        # thread; the next streamed submit restarts one.
                        self._thread = None
                        return
                if not self._pending and self._stopped:
                    return
                window_wait = self._window_wait()
                while self._pending:
                    remaining = (
                        self._pending[0]._enqueued_at
                        + window_wait
                        - time.monotonic()
                    )
                    cause = self._close_cause(remaining)
                    if cause is not None:
                        break
                    self._cond.wait(timeout=remaining)
                if not self._pending:  # everything cancelled while waiting
                    continue
                first_enqueued = self._pending[0]._enqueued_at
                # Overload is judged at the admission edge, from the
                # backlog this window leaves behind: queue depth and the
                # oldest arrival's wait. Below the watermarks (or without
                # QoS) admission is strict FIFO — the byte-identity path.
                overload_cause = None
                if self.qos is not None:
                    wait_ms = (time.monotonic() - first_enqueued) * 1000.0
                    overload_cause = self.qos.overload_cause(
                        len(self._pending), wait_ms
                    )
                if overload_cause is None:
                    candidates = self._pending
                else:
                    # Lane-major, arrival-order-minor; bucket-starved
                    # probes last. sort() is stable but the key is total
                    # (every ticket has a unique _seq) so ordering is
                    # deterministic either way.
                    candidates = deque(
                        sorted(
                            self._pending,
                            key=lambda t: (
                                self.qos.effective_lane(t.lane, t.starved),
                                t._seq,
                            ),
                        )
                    )
                while candidates and len(window) < self.max_batch:
                    ticket = candidates.popleft()
                    if candidates is not self._pending:
                        self._pending.remove(ticket)
                    # Settle the admission race with cancel() here, under
                    # the same lock _cancel takes. Marking the future
                    # RUNNING makes any later Future.cancel() — including
                    # out-of-band ones from asyncio.wait_for timing out on
                    # aresult() — return False deterministically; a future
                    # already cancelled out-of-band is skipped, never
                    # served to a caller who gave up on it.
                    if not ticket._future.set_running_or_notify_cancel():
                        continue
                    ticket._admitted = True
                    window.append(ticket)
                if not self._pending:
                    self._flush_requested = False
                formation_ms = (time.monotonic() - first_enqueued) * 1000.0
                if not window:  # everything was cancelled at the admission edge
                    continue
                self._m_windows_closed[cause].inc()
                # The next window's cohort: this window's sessions, minus
                # those already queued again. Each resubmit strikes its
                # session off; one that never returns costs at most one
                # max_wait and is absent from the cohort after that.
                cohort = {t.session for t in window if t.session is not None}
                self._cohort = (
                    cohort.difference(t.session for t in self._pending)
                    if cohort
                    else None
                )
            self._serve_streamed_window(window, formation_ms, overload_cause)

    def _serve_streamed_window(
        self,
        window: list[ProbeTicket],
        formation_ms: float,
        overload_cause: str | None = None,
    ) -> None:
        if self.chaos is not None:
            # Seeded timing chaos: perturb when this window serves, never
            # what it answers (the jitter differential contract).
            delay = self.chaos.admission_delay_s()
            if delay:
                time.sleep(delay)
        for position, ticket in enumerate(window):
            span = ticket._queued_span
            if span is not None:
                # The admission-window span: queue time plus the window's
                # shape, closed at the admission edge.
                span.note(
                    window_size=len(window),
                    position=position,
                    formation_ms=round(formation_ms, 3),
                )
                if overload_cause is not None:
                    span.note(overload_cause=overload_cause)
                span.finish()
                ticket._queued_span = None
        degradations: list[Degradation | None] | None = None
        if overload_cause is not None and self.qos is not None:
            with self._cond:
                self.overload_windows += 1
            degradations = self.qos.plan_degradations(
                window, overload_cause, self._replica_shed_eligibility()
            )
        window, degradations = self._offload_to_replicas(window, degradations)
        if window:
            probes = [ticket.probe for ticket in window]
            try:
                with self._cond:
                    self._serve_waiters += 1  # admitted probes still count as demand
                try:
                    with self._serve_lock.window():
                        # The keyword travels only when a shedding plan
                        # exists, so serve-path wrappers (tests, hooks)
                        # with the original one-argument signature keep
                        # working on every unloaded window.
                        if degradations is not None:
                            responses = self.system._serve_batch(
                                probes, degradations=degradations
                            )
                        else:
                            responses = self.system._serve_batch(probes)
                finally:
                    with self._cond:
                        self._serve_waiters -= 1
            except BaseException as exc:  # pragma: no cover - defensive
                for ticket in window:
                    if not ticket._future.done():
                        with contextlib.suppress(InvalidStateError):
                            ticket._future.set_exception(exc)
                return
            with self._cond:
                self.windows_streamed += 1
                self.probes_streamed += len(window)
                self._window_size_max = max(self._window_size_max, len(window))
                self._formation_ms_total += formation_ms
                self._formation_ms_max = max(self._formation_ms_max, formation_ms)
                if degradations is not None:
                    self.probes_degraded += sum(
                        1 for verdict in degradations if verdict is not None
                    )
            for ticket, response in zip(window, responses):
                self._deliver(ticket, response)
        if self.qos is not None:
            # Window cadence drives bucket refill (deterministic, unlike
            # wall-clock): principals earn admission budget back as the
            # gateway actually makes progress.
            self.qos.window_served()
        # The queue drained behind this window: an idle window opened for
        # the maintenance runtime. Fired outside all gateway locks; the
        # runtime re-checks for pending probes before (and while) working.
        hook = self.idle_hook
        if hook is not None and self.pending_probes() == 0:
            try:
                hook()
            except Exception as exc:
                # A poison maintenance job must never take the admission
                # loop down with it: log, count, keep serving.
                _LOG.exception("gateway idle hook failed; admission continues")
                with self._cond:
                    self.idle_hook_errors += 1
                    self.last_idle_hook_error = f"{type(exc).__name__}: {exc}"

    @staticmethod
    def _deliver(ticket: ProbeTicket, response: ProbeResponse) -> None:
        if ticket.session is not None:
            ticket.session._account(response)
        # A future in an unexpected state (an out-of-band cancel that slid
        # past the admission edge) just drops the response; raising here
        # would kill the admission loop for every other session.
        with contextlib.suppress(InvalidStateError):
            ticket._future.set_result(response)

    def _replica_shed_eligibility(self):
        """The replica-eligibility predicate handed to the shedding
        planner: may this probe be answered by a replica under a
        QoS-imposed staleness tolerance?"""
        pool = getattr(self.system, "replicas", None)
        if pool is None or self.qos is None:
            return None
        assume = self.qos.config.shed_max_staleness is not None
        return lambda probe: pool.eligible(probe, assume_staleness=assume)

    def _offload_to_replicas(
        self,
        window: list[ProbeTicket],
        degradations: "list[Degradation | None] | None" = None,
    ) -> tuple[list[ProbeTicket], "list[Degradation | None] | None"]:
        """Spill eligible probes to read replicas when the primary is loaded.

        Only fires when this window is full or more probes are already
        queued behind it — an unloaded primary serves everything itself
        (fresher answers at no extra cost). Returns the tickets the
        primary still has to serve, with the window's shedding plan
        (when one exists) kept ticket-aligned.

        Probes with a ``"replica"`` shedding verdict are *forced* here
        under the verdict's staleness tolerance, each tagged with the
        verdict's "system under load" steering line; a replica that
        declines (too stale, unparseable) downgrades the verdict to the
        sampled path — degrade, don't drop.
        """
        pool = getattr(self.system, "replicas", None)
        if pool is None or not window:
            return window, degradations
        if (
            degradations is None
            and len(window) < self.max_batch
            and self.pending_probes() == 0
        ):
            return window, degradations
        kept: list[ProbeTicket] = []
        kept_verdicts: list[Degradation | None] = []
        for position, ticket in enumerate(window):
            verdict = degradations[position] if degradations is not None else None
            if verdict is not None and verdict.kind == "replica":
                response = pool.try_serve(
                    ticket.probe,
                    staleness_override=verdict.staleness,
                    load_note=verdict.steering(),
                )
                if response is not None:
                    with self._cond:
                        self.probes_offloaded += 1
                        self.probes_shed_to_replicas += 1
                        self.probes_degraded += 1
                    self._finalize_offload_trace(ticket, response, forced=True)
                    self._deliver(ticket, response)
                    continue
                verdict = (
                    Degradation(
                        kind="sample",
                        cause=verdict.cause,
                        sample_cap=self.qos.config.shed_sample_rate,
                    )
                    if ticket.probe.queries and self.qos is not None
                    else None
                )
            else:
                response = pool.try_serve(ticket.probe)
                if response is not None:
                    with self._cond:
                        self.probes_offloaded += 1
                    self._finalize_offload_trace(ticket, response, forced=False)
                    self._deliver(ticket, response)
                    continue
            kept.append(ticket)
            kept_verdicts.append(verdict)
        return kept, (kept_verdicts if degradations is not None else None)

    @staticmethod
    def _finalize_offload_trace(
        ticket: ProbeTicket, response: ProbeResponse, forced: bool
    ) -> None:
        """Close a trace that never reaches ``_serve_batch``: the probe
        was answered by a replica, so the gateway owns finalization."""
        trace = obs_trace.probe_trace(ticket.probe)
        if trace is None or trace.finished:
            return
        span = ticket._queued_span
        if span is not None:
            span.note(offloaded=True)
            span.finish()
            ticket._queued_span = None
        trace.root.child("replica:offload", forced=forced).finish()
        trace.finish()
        response.trace = trace

    def _collect_gauges(self) -> None:
        """Snapshot-time gauges (zero hot-path cost): the live queue
        depth and the formation peaks, read under ``_cond`` exactly like
        ``stats()``."""
        with self._cond:
            pending = len(self._pending)
            peak = self._queue_depth_peak
            size_max = self._window_size_max
        registry = self.metrics_registry
        registry.gauge(
            "repro_gateway_pending", "Probes queued for admission right now."
        ).set(pending)
        registry.gauge(
            "repro_gateway_queue_depth_peak",
            "Deepest the admission queue has ever been.",
        ).set(peak)
        registry.gauge(
            "repro_gateway_window_size_max", "Largest window served so far."
        ).set(size_max)

    # -- cancellation ---------------------------------------------------------

    def _cancel(self, ticket: ProbeTicket) -> bool:
        with self._cond:
            if ticket._admitted or ticket._future.done():
                return False
            try:
                self._pending.remove(ticket)
            except ValueError:
                return False
            cancelled = ticket._future.cancel()
            self._cond.notify_all()
            return cancelled

    # -- reporting ------------------------------------------------------------

    def stats(self) -> dict:
        """A snapshot of window-formation behaviour (the bench records it)."""
        with self._cond:
            windows = self.windows_streamed
            return {
                "windows_streamed": windows,
                "probes_streamed": self.probes_streamed,
                "windows_direct": self.windows_direct,
                # The matchmaker's capacity pair (both monotone): total
                # windows served on either path, and the deepest the
                # admission queue has ever been.
                "windows_served": windows + self.windows_direct,
                "queue_depth_peak": self._queue_depth_peak,
                "mean_window_size": (
                    self.probes_streamed / windows if windows else 0.0
                ),
                "max_window_size": self._window_size_max,
                "mean_formation_ms": (
                    self._formation_ms_total / windows if windows else 0.0
                ),
                "max_formation_ms": self._formation_ms_max,
                "probes_offloaded": self.probes_offloaded,
                "idle_hook_errors": self.idle_hook_errors,
                "last_idle_hook_error": self.last_idle_hook_error,
                # Backpressure: the pending gauge plus the QoS layer's
                # monotone overload counters (all zero without QoS, and
                # on a QoS-on system that never crossed a watermark).
                "pending": len(self._pending),
                "overload_windows": self.overload_windows,
                "probes_degraded": self.probes_degraded,
                "probes_shed_to_replicas": self.probes_shed_to_replicas,
                "probes_closed_unserved": self.probes_closed_unserved,
                "qos": self.qos.stats() if self.qos is not None else None,
                "chaos_delays_injected": (
                    self.chaos.delays_injected if self.chaos is not None else 0
                ),
                "windows_closed_by": {
                    cause: counter.value()
                    for cause, counter in self._m_windows_closed.items()
                },
            }


def _closed_response(probe: Probe) -> ProbeResponse:
    """The structured error response a shutdown resolves tickets with."""
    error = GatewayClosed("probe was still queued when the gateway shut down")
    reason = str(error)
    outcomes = [
        QueryOutcome(sql=sql, status="error", query_index=index, reason=reason)
        for index, sql in enumerate(probe.queries)
    ] or [QueryOutcome(sql="", status="error", query_index=0, reason=reason)]
    response = ProbeResponse(outcomes=outcomes, turn=0)
    response.steering.append(reason)
    return response
