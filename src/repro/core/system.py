"""The agent-first data system facade (paper Sec. 3, Figure 4).

``AgentFirstDataSystem`` wires every component together. The serving unit
is the *admission window*: agents open sessions and stream probes in, and
the gateway's admission loop coalesces everything in flight — across all
sessions — into windows served as one batch. Callers who already hold a
batch use ``submit_many`` (a one-window shim); ``submit`` is the
degenerate window of one.

    agent swarm ──> session.submit(probe) ──────> ProbeTicket
        │                    │              (result()/done()/cancel(),
        │                    ▼               await session.asubmit(...))
        │              QoS layer (REPRO_QOS / SystemConfig.enable_qos)
        │               lanes: interactive > standard > bulk (from Brief)
        │               token buckets per principal; watermark shedding:
        │               bulk probes degrade (sample cap / stale replica)
        │               with an explicit "system under load" steering
        │               line — degrade, don't drop; inert when unloaded
        │                    │
        │                    ▼
        │            probe gateway ── admission loop: close the window at
        │                    │        max_batch pending or max_wait elapsed
        ▼                    ▼
    submit_many ────> admission window
    (one-window shim)        │
                             ▼
                      probe scheduler ──────────┐  admission, fairness,
                             │                  │  cross-agent dedup
                             ▼                  │
           speculative phase: per-batch thread  │
             pool over the shared catalog/cache │
                             │                  │
                             ▼                  │
           columnar engine: ColumnBatch kernels │
             (vectorized, per-node row fallback;│
             the row Executor is the oracle it  │
             is tested byte-identical against)  │
                             │                  │
                             ▼                  │
    probe interpreter ──> satisficer ──> probe optimizer
                     │                          │
                     ▼                          ▼
               sleeper agents  <───────  shared-work cache (batch-wide)
                     │                          │
                     ▼                          ▼
              steering feedback         agentic memory store

    statement cache (repro.plan.compiled; one per Database / replica / shard)
        SQL text ──> CompiledStatement: AST + optimized plan (fingerprint
        and cost-estimate memos ride on it), or the error the text fails
        with — valid for one Catalog.version(), so any write invalidates;
        the interpreter, Database.execute and replicas all compile here,
        and a swarm repeating a statement plans it once

    maintenance runtime (idle windows; REPRO_MAINTENANCE / SystemConfig)
        gateway idle ──> serve lock ──┬─> view materializer ──> ViewScan
        (no probes        (preempted  ├─> auto-indexer ──> aux IndexScan
         in flight)        by any     ├─> statistics refresher   rewrites
                           arrival)   └─> subplan-cache pre-warmer

    durability layer (REPRO_WAL / Database.attach_wal; txn/wal.py)
        catalog writes ──> write-ahead log (append BEFORE mutate)
        admission windows bracketed: window_begin … serve_state commit
        periodic checkpoints (Catalog.snapshot + serve state) prune the log
        crash ──> AgentFirstDataSystem.recover(dir): checkpoint + replay,
                  exact data_version_tuple AND history attribution restored
        log ──> read replicas (REPRO_REPLICAS / SystemConfig.read_replicas):
                gateway spills exact read probes under load, tagging each
                response "served by read replica: staleness ≤ N versions"
                and never exceeding the brief's max_staleness tolerance

    shard tier (REPRO_SHARDS / repro.shard.ShardedSystem; scale-out)
        agent swarm ──> ShardedSystem.session/submit (same surface)
                │
                ▼
        shard router ── hash ring + pins: principal/agent -> home shard;
                │       partition map: tenant-pinned probes prune to the
                │       owner shard (no scatter, no extra steering)
                ├─> matchmaker ── shards advertise capacity (pending,
                │       windows_served/queue_depth_peak, QoS watermark,
                │       replicas) and *pull* queued work; tripped shards
                │       pull nothing; degrade-don't-drop force-assignment
                └─> scatter-gather ── cross-partition probes split into
                        per-shard partials (partial aggregates; AVG as
                        SUM+COUNT), merged at the router, steering names
                        the shards consulted
        each shard = a complete AgentFirstDataSystem over its own
        catalog slice (CatalogSnapshot is the shard-state wire format
        for spin-up and add_shard rebalancing); shards=1 passes straight
        through to one system over the source database, byte-identical

    observability layer (repro.obs; REPRO_TRACE / Brief.trace / slow log)
        probe trace ── span tree following one probe end-to-end:
                probe ─┬─> gateway:queued/window ──> qos:classify/shed
                       ├─> scheduler:batch ──> speculate:unit │
                       │      decision:qN ──> node:* (rows, cache,
                       │      kernel vs fallback)
                       └─> wal:commit │ replica:serve │ scatter:shardN
                opt-in per probe (Brief.trace) or global (REPRO_TRACE=1);
                attached as response.trace; export: trace.to_chrome()
                (Perfetto / about:tracing); answers never change
        metrics registry ── every component publishes Counter/Gauge/
                Histogram series into one registry per system; legacy
                stats() dicts read back out of it unchanged;
                system.metrics() / ShardedSystem.metrics() (per-shard +
                "router" labels) render JSON or Prometheus text
        slow-probe log ── REPRO_SLOW_PROBE_MS / SystemConfig.slow_probe_ms
                ring-buffers offenders WITH their traces (threshold
                implies tracing), WARNING-logged

Each probe in a window is one interaction turn: its queries are
interpreted, satisficed and executed (with cross-agent work sharing and
history reuse); the scheduler dispatches round-robin across agents so no
probe starves behind another, and shares every duplicated sub-plan
batch-wide; sleeper agents attach steering feedback (including "N other
agents asked an equivalent query this turn"); and newly-gleaned grounding
is written back to the agentic memory store. Window boundaries never
change an answer: rows and statuses are byte-identical to serial
submission in admission order, however arrivals happen to batch up.

Between windows, the sleeper-agent maintenance runtime converts advice
into artifacts: recurring subplans become version-stamped materialized
views served through execution-time ViewScan rewrites, mined
equality/range predicates become auxiliary (planner-invisible) indexes,
statistics are re-derived after write bursts, and evicted hot subplan
cache entries are re-installed from views. Every artifact is validated
through ``Catalog.version()``/``ChangeEvent`` staleness machinery, so a
maintenance-on run stays byte-identical to a maintenance-off run — just
faster on repeated workloads.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.brief import Brief, Phase
from repro.core.gateway import AgentSession, ProbeGateway
from repro.core.interpreter import InterpretedProbe, ProbeInterpreter
from repro.core.mqo import MaterializationAdvisor, MaterializationSuggestion
from repro.core.optimizer import ProbeOptimizer
from repro.core.probe import Probe, ProbeResponse, QueryOutcome
from repro.core.satisfice import Satisficer
from repro.core.scheduler import ProbeScheduler, ScheduledProbe
from repro.core.steering import CostAdvisor, JoinDiscovery, WhyNotDiagnoser
from repro.db import Database
from repro.db.database import ChangeEvent
from repro.engine.executor import SubplanCache
from repro.maintenance import MaintenanceConfig, MaintenanceRuntime
from repro.memstore import AgenticMemoryStore, ArtifactKind
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot
from repro.obs.slowlog import SlowProbeEntry, SlowProbeLog, resolve_slow_probe_ms
from repro.qos import QosConfig, QosController, resolve_qos_enabled
from repro.plan import logical
from repro.semantic.search import SemanticSearch
from repro.util.hashing import stable_hash_int


@dataclass
class SystemConfig:
    """Feature switches; the ablation benches flip these."""

    enable_satisficing: bool = True
    enable_mqo: bool = True
    enable_steering: bool = True
    enable_memory: bool = True
    enable_history: bool = True
    #: Cost above which the cost advisor warns even without a brief budget.
    expensive_threshold: float = 50_000.0
    #: Worker threads for the scheduler's speculative execution pool.
    #: ``None`` -> the ``REPRO_SCHEDULER_WORKERS`` env override, else
    #: ``min(8, os.cpu_count())``; ``1`` keeps dispatch fully serial.
    workers: int | None = None
    #: Streaming admission window bounds: the gateway closes a window once
    #: every session answered in the previous window has submitted again
    #: (until the data changes under the admission loop), and at the
    #: latest when ``gateway_max_batch`` probes are pending or
    #: ``gateway_max_wait`` seconds have elapsed since the oldest arrival
    #: (the ceiling). ``None`` -> 64 probes / 0.01 s.
    gateway_max_batch: int | None = None
    gateway_max_wait: float | None = None
    #: Sleeper-agent maintenance runtime: idle-window view
    #: materialization, auto-indexing, statistics refresh, and cache
    #: pre-warming. ``None`` -> the ``REPRO_MAINTENANCE`` env override,
    #: else off. Answers are byte-identical either way; only the work
    #: (and wall-clock) changes.
    enable_maintenance: bool | None = None
    #: Detailed maintenance knobs (thresholds, view budget); ``None``
    #: uses :class:`~repro.maintenance.MaintenanceConfig` defaults.
    maintenance: MaintenanceConfig | None = None
    #: Overload control and agent QoS: priority lanes, per-principal
    #: token buckets, and degrade-don't-drop load shedding on the
    #: streaming gateway. ``None`` -> the ``REPRO_QOS`` env override,
    #: else off. Watermark-gated: an unloaded QoS-on system serves
    #: byte-identically to a QoS-off system.
    enable_qos: bool | None = None
    #: Detailed QoS knobs (watermarks, shed rates, bucket sizes, breaker
    #: thresholds); ``None`` uses :class:`~repro.qos.QosConfig` defaults.
    qos: QosConfig | None = None
    #: In-process read replicas fed from the write-ahead log (requires a
    #: WAL-attached database). ``None`` -> the ``REPRO_REPLICAS`` env
    #: override, else 0. Replicas serve read-only exact probes whose
    #: brief declares a ``max_staleness`` tolerance; everything else goes
    #: through the primary.
    read_replicas: int | None = None
    #: Slow-probe threshold in milliseconds: served probes whose
    #: end-to-end trace exceeds it land in ``system.slow_probes`` (a ring
    #: buffer, WARNING-logged) with the full trace attached. ``None`` ->
    #: the ``REPRO_SLOW_PROBE_MS`` env override, else off. Setting a
    #: threshold implies tracing for every probe that does not opt out.
    slow_probe_ms: float | None = None


class AgentFirstDataSystem:
    """Answers probes; steers agents; remembers grounding."""

    def __init__(
        self,
        db: Database,
        memory: AgenticMemoryStore | None = None,
        config: SystemConfig | None = None,
        workers: int | None = None,
    ) -> None:
        self.db = db
        self.config = config or SystemConfig()
        # The override must not write through to the caller's (possibly
        # shared) SystemConfig object.
        scheduler_workers = workers if workers is not None else self.config.workers
        self.memory = memory or AgenticMemoryStore()
        if self.config.enable_memory:
            self.memory.attach(db)
        #: One metrics registry per system: every component publishes its
        #: counters here (the legacy ``stats()`` dicts read back out of
        #: it), and ``system.metrics()`` snapshots the whole thing.
        self.metrics_registry = MetricsRegistry()
        #: Ring buffer of slow-probe entries (traces attached) once a
        #: threshold is configured; always present so callers can poll.
        self.slow_probes = SlowProbeLog()
        self._slow_probe_ms = resolve_slow_probe_ms(self.config.slow_probe_ms)
        self.search = SemanticSearch(db)
        self.interpreter = ProbeInterpreter(db)
        self.satisficer = Satisficer(enable_pruning=self.config.enable_satisficing)
        self.optimizer = ProbeOptimizer(
            db=db,
            satisficer=self.satisficer,
            cache=SubplanCache() if self.config.enable_mqo else None,
            advisor=MaterializationAdvisor(),
            enable_history=self.config.enable_history,
        )
        self.why_not = WhyNotDiagnoser(db)
        self.join_discovery = JoinDiscovery(db)
        self.cost_advisor = CostAdvisor(db, self.config.expensive_threshold)
        self.scheduler = ProbeScheduler(
            interpreter=self.interpreter,
            optimizer=self.optimizer,
            workers=scheduler_workers,
            registry=self.metrics_registry,
        )
        self.qos = (
            QosController(self.config.qos, registry=self.metrics_registry)
            if resolve_qos_enabled(self.config.enable_qos)
            else None
        )
        self.gateway = ProbeGateway(
            self,
            max_batch=self.config.gateway_max_batch,
            max_wait=self.config.gateway_max_wait,
            qos=self.qos,
            registry=self.metrics_registry,
        )
        self.maintenance = MaintenanceRuntime(
            self,
            config=self.config.maintenance,
            enabled=self.config.enable_maintenance,
            registry=self.metrics_registry,
        )
        if self.maintenance.enabled:
            self.maintenance.attach()
        self.turn = 0
        #: Guards ``turn``: windows reserve their turn range up front, and
        #: replica-served responses draw turns concurrently.
        self._turn_lock = threading.Lock()
        self.replicas = None
        wal = db.catalog.wal
        if wal is not None:
            # Local import: repro.txn.replica needs repro.core.probe, so a
            # module-level import here would close an import cycle
            # through the repro.core package __init__.
            from repro.txn.replica import ReplicaPool, resolve_replica_count

            # Journal serve-state deltas so each window's commit record
            # carries its surviving history additions, and let checkpoints
            # embed the full serve state.
            self.optimizer.enable_wal_journal()
            wal.state_provider = lambda: self.optimizer.serve_state_snapshot(
                self.turn
            )
            if db.recovered_serve is not None:
                self.turn = db.recovered_serve.turn
                self.optimizer.restore_serve_state(db.recovered_serve)
            replica_count = resolve_replica_count(self.config.read_replicas)
            if replica_count > 0:
                self.replicas = ReplicaPool(
                    wal,
                    replica_count,
                    turn_source=self._next_replica_turn,
                    registry=self.metrics_registry,
                )
        self._node_latency = self.metrics_registry.histogram(
            "repro_engine_node_latency_ms",
            "Per-plan-node execution latency (traced probes only)",
            labelnames=("node",),
        )
        self._register_engine_collectors()
        db.on_change(self._on_change)

    def _register_engine_collectors(self) -> None:
        """Publish engine-level metrics (and the memory store's size) as
        snapshot-time collectors.

        Occupancies and hit ratios are derived from live structures when
        ``metrics()`` is called — zero hot-path bookkeeping, which is how
        the <2% tracing-off overhead contract stays cheap to honour.
        """
        from repro.engine.columnar import KERNEL_MEMO_STATS, kernel_memo_occupancy
        from repro.engine.executor import EXPR_MEMO_STATS, expr_memo_occupancy

        registry = self.metrics_registry
        cache = self.optimizer.cache
        gauges = {
            name: registry.gauge(f"repro_engine_{name}", help)
            for name, help in (
                ("subplan_cache_entries", "Subplan cache occupancy"),
                ("subplan_cache_hits", "Subplan cache lifetime hits"),
                ("subplan_cache_misses", "Subplan cache lifetime misses"),
                ("subplan_cache_evictions", "Subplan cache lifetime evictions"),
                ("subplan_cache_hit_ratio", "hits / (hits + misses), 0 when idle"),
                ("subplan_cache_rows", "Rows retained across subplan cache entries"),
                ("expr_memo_entries", "Compiled-expression memo occupancy"),
                ("expr_memo_compilations", "Expression compilations (process-wide)"),
                ("expr_memo_hits", "Expression memo hits (process-wide)"),
                ("kernel_memo_entries", "Columnar kernel memo occupancy"),
                ("kernel_memo_builds", "Kernel builds (process-wide)"),
                ("kernel_memo_hits", "Kernel memo hits (process-wide)"),
                ("kernel_memo_fallbacks", "Kernel runs resolved by row fallback"),
                (
                    "kernel_memo_list_path_runs",
                    "Kernel runs on value lists: a column had no numpy mirror",
                ),
                ("kernel_memo_unvectorized", "Nodes executed on the row path"),
            )
        }
        statements = self.db.statement_cache
        plan_cache_counters = [
            registry.counter(f"repro_plan_cache_{name}", help)
            for name, help in (
                ("hits", "Statements served from the compiled-statement cache"),
                ("misses", "Statements parsed and planned from their text"),
                ("evictions", "Compiled statements evicted by the LRU bound"),
                ("invalidations", "Cache flushes after the catalog version moved"),
            )
        ]
        plan_cache_entries = registry.gauge(
            "repro_plan_cache_entries", "Compiled-statement cache occupancy"
        )
        memory = self.memory
        memstore_artifacts = registry.gauge(
            "repro_memstore_artifacts", "Artifacts held by the agentic memory store"
        )

        def collect() -> None:
            if cache is not None:
                hits, misses, evictions = cache.counters()
                gauges["subplan_cache_entries"].set(len(cache))
                gauges["subplan_cache_hits"].set(hits)
                gauges["subplan_cache_misses"].set(misses)
                gauges["subplan_cache_evictions"].set(evictions)
                total = hits + misses
                gauges["subplan_cache_hit_ratio"].set(hits / total if total else 0.0)
                gauges["subplan_cache_rows"].set(cache.retained_rows())
            for counter, value in zip(plan_cache_counters, statements.counters()):
                counter.set(value)
            plan_cache_entries.set(len(statements))
            memstore_artifacts.set(len(memory))
            gauges["expr_memo_entries"].set(expr_memo_occupancy())
            gauges["expr_memo_compilations"].set(EXPR_MEMO_STATS.compilations)
            gauges["expr_memo_hits"].set(EXPR_MEMO_STATS.hits)
            gauges["kernel_memo_entries"].set(kernel_memo_occupancy())
            gauges["kernel_memo_builds"].set(KERNEL_MEMO_STATS.builds)
            gauges["kernel_memo_hits"].set(KERNEL_MEMO_STATS.hits)
            gauges["kernel_memo_fallbacks"].set(KERNEL_MEMO_STATS.fallbacks)
            gauges["kernel_memo_list_path_runs"].set(KERNEL_MEMO_STATS.list_path_runs)
            gauges["kernel_memo_unvectorized"].set(KERNEL_MEMO_STATS.unvectorized)

        registry.add_collector(collect)

    def metrics(self) -> MetricsSnapshot:
        """One snapshot of every metric this system publishes.

        Render with ``.as_dict()`` / ``.to_json()`` /
        ``.to_prometheus_text()``; the legacy per-component ``stats()``
        dicts remain available and read from the same registry.
        """
        return self.metrics_registry.snapshot()

    # -- the entry points -----------------------------------------------------

    def session(
        self,
        agent_id: str | None = None,
        principal: str | None = None,
        defaults: Brief | None = None,
    ) -> AgentSession:
        """Open an agent session on the streaming admission gateway.

        ``session.submit(probe)`` returns a :class:`ProbeTicket`
        immediately; the gateway coalesces in-flight probes across all
        sessions into admission windows, so cross-agent sharing happens
        between agents that never coordinated. The session's identity and
        brief ``defaults`` fill any fields the probe leaves unset, and the
        session accumulates turn/query/row/cost accounting.
        """
        return AgentSession(
            self.gateway, agent_id=agent_id, principal=principal, defaults=defaults
        )

    def submit(self, probe: Probe) -> ProbeResponse:
        """Answer one probe; returns answers plus steering feedback.

        A window of one: the full serving path is the gateway's admission
        loop (``session``/``submit_many``).
        """
        return self.submit_many([probe])[0]

    def submit_many(self, probes: Sequence[Probe]) -> list[ProbeResponse]:
        """Answer a caller-assembled admission window of probes.

        A thin synchronous shim over a one-window gateway: the whole list
        is served as a single admission window, exactly as if the probes
        had streamed in together. All probes are interpreted up front; the
        scheduler runs the window's independent engine work concurrently
        on its worker pool, then replays dispatch round-robin across
        agents through one batch-shared subplan cache, so every
        duplicated subtree materialises once. Per-query rows and statuses
        are byte-identical to submitting the probes serially — at any
        worker count; the engine work is not — duplicated work collapses,
        and independent work overlaps in wall-clock.
        """
        if not probes:
            return []
        return self.gateway.serve_window(list(probes))

    def _serve_batch(
        self, probes: Sequence[Probe], degradations: list | None = None
    ) -> list[ProbeResponse]:
        """Serve one admission window (gateway-internal; callers hold the
        gateway's serve lock, which serialises window order).

        ``degradations`` is the QoS layer's probe-aligned shedding plan
        for an overloaded window (``None`` everywhere else)."""
        # Reserve the window's whole turn range up front: replica-served
        # responses draw turns concurrently and must never collide.
        with self._turn_lock:
            first_turn = self.turn + 1
            self.turn += len(probes)
        # The direct paths (submit_many, serve_window) reach here without
        # passing gateway.submit: attach traces to probes that want them.
        # Gateway-streamed probes already carry theirs (no-op re-entry).
        any_traced = False
        for probe in probes:
            if obs_trace.ensure_probe_trace(probe) is not None:
                any_traced = True
        wal = self.db.catalog.wal
        wal_bounds: tuple[float, float] | None = None
        if wal is not None:
            # Bracket the window in the log. A crash mid-window leaves a
            # window_begin without its serve_state commit; recovery
            # truncates it (the responses never reached callers), so the
            # recovered system resumes at the last served boundary.
            wal.begin_window()
        try:
            batch = self.scheduler.run_batch(
                list(probes), first_turn, degradations=degradations
            )

            # Post-processing (beyond-SQL, steering, memory) runs per probe
            # in admission order, preserving serial visibility: a later
            # probe's memory recall sees what earlier probes wrote back.
            responses = []
            for scheduled in batch.probes:
                response = self._finish_probe(scheduled)
                response.sharing = batch.report
                responses.append(response)
        finally:
            if wal is not None:
                # Commit even on the exception path: any catalog writes
                # the window performed are already logged and live.
                commit_start = time.perf_counter()
                wal.commit_window(self._wal_serve_delta())
                if any_traced:
                    wal_bounds = (commit_start, time.perf_counter())
        if wal is not None and wal.checkpoint_due():
            self.db.checkpoint()
        if any_traced:
            self._finalize_traces(probes, responses, wal_bounds)
        return responses

    def _finalize_traces(
        self,
        probes: Sequence[Probe],
        responses: list[ProbeResponse],
        wal_bounds: tuple[float, float] | None,
    ) -> None:
        """Close out the window's traces: the shared WAL-commit span is
        attached to every traced probe, the root is finished, per-node
        latency histograms are fed, and slow probes land in the ring
        buffer (with their traces) at WARNING."""
        for probe, response in zip(probes, responses):
            trace = obs_trace.probe_trace(probe)
            if trace is None or trace.finished:
                continue
            if wal_bounds is not None:
                trace.root.child("wal:commit", start=wal_bounds[0]).finish(
                    wal_bounds[1]
                )
            trace.finish()
            response.trace = trace
            for span in trace.spans():
                if span.name.startswith("node:") and span.end is not None:
                    self._node_latency.observe(
                        span.duration_ms, node=span.name[len("node:"):]
                    )
            threshold = self._slow_probe_ms
            if threshold is not None and trace.duration_ms >= threshold:
                self.slow_probes.record(
                    SlowProbeEntry(
                        agent_id=probe.agent_id,
                        turn=response.turn,
                        duration_ms=trace.duration_ms,
                        threshold_ms=threshold,
                        trace=trace,
                    )
                )

    def _wal_serve_delta(self) -> dict:
        """The serve-state delta one window's commit record carries."""
        history, lenient = self.optimizer.drain_wal_journal()
        return {
            "turn": self.turn,
            "history": history,
            "lenient": lenient,
            "advisor": self.optimizer.advisor.drain_wal_delta(),
        }

    def _next_replica_turn(self) -> int:
        """Draw one turn number for a replica-served response."""
        with self._turn_lock:
            self.turn += 1
            return self.turn

    def _finish_probe(self, scheduled: ScheduledProbe) -> ProbeResponse:
        probe = scheduled.probe
        interpreted = scheduled.interpreted
        response = ProbeResponse(turn=scheduled.turn, outcomes=scheduled.outcomes)

        # Beyond-SQL requests: cheap grounding attached to the response.
        if probe.semantic_search:
            response.semantic_hits = self.search.search(probe.semantic_search, limit=8)
        for memory_query in probe.memory_queries:
            response.memory_hits.extend(
                self.memory.search(memory_query, principal=probe.principal)
            )
        # Implicit memory recall: the goal itself is a memory query.
        if self.config.enable_memory and probe.brief.goal:
            response.memory_hits.extend(
                self.memory.search(probe.brief.goal, principal=probe.principal, k=3)
            )

        for outcome in response.outcomes:
            # from_history outcomes reuse an old result object: no new work.
            if outcome.executed and outcome.result is not None:
                response.rows_processed += outcome.result.stats.rows_processed
                response.cache_hits += outcome.result.stats.cache_hits

        if self.config.enable_steering:
            response.steering = self._steer(
                probe, interpreted, response, batch_hints=scheduled.hints
            )
        # QoS degradation notices attach unconditionally — even on
        # steering-off systems (e.g. shared_serving_system): an agent must
        # always be told when overload changed the quality of its answer.
        if scheduled.qos_notes:
            response.steering.extend(scheduled.qos_notes)
        if self.config.enable_memory:
            self._remember(probe, interpreted, response)
        return response

    # -- steering ---------------------------------------------------------------------

    def _steer(
        self,
        probe: Probe,
        interpreted: InterpretedProbe,
        response: ProbeResponse,
        batch_hints: list[str] | None = None,
    ) -> list[str]:
        feedback: list[str] = []

        # Cost estimates and budget warnings (pre-execution knowledge,
        # surfaced with the response).
        for query in interpreted.executable():
            feedback.extend(
                self.cost_advisor.pre_execution_feedback(
                    probe.agent_id,
                    query.estimated_cost,
                    probe.brief.max_cost,
                    query.sql,
                )
            )

        # Why-not provenance for empty exact results (a 1-row aggregate of
        # zeros/NULLs counts as empty: COUNT(*) over no matching rows).
        def _looks_empty(result) -> bool:
            if result.row_count == 0:
                return True
            if result.row_count == 1 and all(
                value in (0, None) for value in result.rows[0]
            ):
                return True
            return False

        for outcome, query in zip(response.outcomes, interpreted.queries):
            if (
                outcome.status == "ok"
                and outcome.result is not None
                and _looks_empty(outcome.result)
                and query.plan is not None
            ):
                for finding in self.why_not.diagnose(query.plan):
                    feedback.append(f"empty result explained: {finding.message()}")

        # Related tables during exploration.
        if interpreted.phase is Phase.METADATA_EXPLORATION:
            for table in self._tables_touched(interpreted)[:2]:
                for suggestion in self.join_discovery.related_tables(table, limit=2):
                    feedback.append(f"related table: {suggestion.message()}")

        # Similar-query pointers (inter-probe novelty signal).
        for outcome in response.outcomes:
            if outcome.similar_to_turn is not None and outcome.similar_to_turn < response.turn:
                rows = outcome.result.row_count if outcome.result is not None else 0
                feedback.append(
                    f"a query equivalent to {outcome.sql[:50]!r} was answered at"
                    f" turn {outcome.similar_to_turn}; its {rows}-row result is"
                    " reusable (only output order differs)"
                )

        # Batching hints from the sequential-probe pattern detector.
        feedback.extend(
            self.cost_advisor.observe_probe(
                probe.agent_id,
                self._tables_touched(interpreted),
                len(interpreted.executable()),
            )
        )

        # Batch-level hints from the scheduler: cross-agent equivalence and
        # budget-fairness feedback ("N other agents asked this too").
        if batch_hints:
            feedback.extend(batch_hints)

        # Sleeper-agent provenance: when a query was answered through a
        # materialized view or an auto-built index, say so — field agents
        # should learn why repeats of this shape come back fast.
        if self.maintenance.enabled:
            for outcome, query in zip(response.outcomes, interpreted.queries):
                if outcome.executed and outcome.sample_rate >= 1.0:
                    feedback.extend(self.maintenance.serving_notes(query.plan))
        return _dedupe(feedback)

    # -- memory write-back ---------------------------------------------------------------

    def _remember(
        self,
        probe: Probe,
        interpreted: InterpretedProbe,
        response: ProbeResponse,
    ) -> None:
        # Join hints discovered by steering become durable grounding.
        for hint in response.steering:
            if hint.startswith("related table: "):
                detail = hint.removeprefix("related table: ")
                table = detail.split(".", 1)[0]
                self.memory.remember(
                    ArtifactKind.JOIN_HINT,
                    (table,),
                    detail,
                    principal=probe.principal,
                    shared=True,
                    data_sensitive=False,
                    turn=response.turn,
                )
            if hint.startswith("empty result explained: "):
                detail = hint.removeprefix("empty result explained: ")
                tables = self._tables_touched(interpreted)
                if tables:
                    self.memory.remember(
                        ArtifactKind.COLUMN_ENCODING,
                        (tables[0],),
                        detail,
                        principal=probe.principal,
                        shared=True,
                        data_sensitive=True,
                        turn=response.turn,
                    )
        # Exact solution-phase results are reusable partial solutions.
        if interpreted.phase is not Phase.METADATA_EXPLORATION:
            for outcome in response.outcomes:
                if outcome.status == "ok" and outcome.result is not None:
                    tables = self._tables_touched(interpreted)
                    if not tables:
                        continue
                    self.memory.remember(
                        ArtifactKind.PROBE_RESULT,
                        # Keyed by a process-stable digest: python's builtin
                        # ``hash`` is salted per run (PYTHONHASHSEED) and
                        # would scatter keys across processes.
                        (
                            tables[0],
                            f"turn{response.turn}q{stable_hash_int(outcome.sql, 16):04x}",
                        ),
                        f"{probe.brief.goal or 'query'}: {outcome.sql}"
                        f" -> {outcome.result.row_count} rows",
                        principal=probe.principal,
                        shared=True,
                        depends_on=tuple(tables),
                        turn=response.turn,
                    )

    # -- plumbing ---------------------------------------------------------------------------

    def _tables_touched(self, interpreted: InterpretedProbe) -> list[str]:
        tables: list[str] = []
        for query in interpreted.queries:
            if query.plan is None:
                continue
            for node in query.plan.walk():
                if isinstance(node, (logical.Scan, logical.IndexScan)):
                    if node.table not in tables:
                        tables.append(node.table)
        return tables

    def _on_change(self, event: ChangeEvent) -> None:
        if event.kind in ("insert", "update", "delete", "create", "drop"):
            # Journal the history wipe: recovery must clear its shadow
            # history at exactly this point in the replay. (Raw catalog
            # records cannot stand in — information-schema refreshes drop
            # and register tables without publishing a change.)
            wal = self.db.catalog.wal
            if wal is not None:
                wal.log_invalidation()
            self.optimizer.invalidate()
            # Windows stop closing on their cohort for the rest of the
            # admission loop's life: see ProbeGateway.note_data_change.
            self.gateway.note_data_change()
            # Maintenance artifacts built against the old data retire
            # (views eagerly dropped; the table queues for a stats refresh).
            self.maintenance.observe_change(event)

    # -- lifecycle ----------------------------------------------------------------------------

    @classmethod
    def recover(
        cls,
        directory: str,
        config: SystemConfig | None = None,
        memory: AgenticMemoryStore | None = None,
        workers: int | None = None,
        name: str = "db",
    ) -> "AgentFirstDataSystem":
        """Rebuild a serving system from a WAL directory after a crash.

        Restores the database to its exact pre-crash version (rows, row
        ids, every counter) *and* the serving state: the turn counter,
        the answered-before history (so a repeated query still comes back
        ``from_history`` with its original "answered at turn N (agent
        X)" attribution), and the materialization advisor's demand
        counts. The log stays attached; serving continues appending to
        it.
        """
        db = Database.recover(directory, name=name)
        return cls(db, memory=memory, config=config, workers=workers)

    def prestart(self) -> None:
        """Lifecycle hook called before timed serving; currently a no-op.

        Nothing on the serving path needs warming: the speculative
        phase's thread pool is built per batch, and the gateway's
        admission loop starts on first submission. Kept so callers can
        pair it with :meth:`close` without knowing that.
        """

    def close(self) -> None:
        """Release serving resources: the gateway's admission loop and the
        maintenance runtime's idle loop. Idempotent;
        ``submit``/``submit_many`` keep working after close — only streamed
        submission (``session.submit``) requires a live gateway."""
        self.gateway.close()
        self.maintenance.stop()

    def __enter__(self) -> "AgentFirstDataSystem":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- reporting ---------------------------------------------------------------------------

    def materialization_suggestions(self) -> list[MaterializationSuggestion]:
        """The advisor's materialization advice, ready for an agent to read.

        Deduplicated by lenient fingerprint (the advisor counts each
        recurring subplan once however many turns demanded it), sorted by
        (occurrences, subtree size) descending, and flagged with whether
        the sleeper-agent maintenance runtime has already materialized
        each one as a view.
        """
        materialized = self.maintenance.materialized_fingerprints()
        return [
            MaterializationSuggestion(
                fingerprint=candidate.fingerprint,
                count=candidate.count,
                size=candidate.size,
                description=candidate.description,
                materialized=candidate.fingerprint in materialized,
            )
            for candidate in self.optimizer.advisor.candidates()
        ]


def shared_serving_system(db: Database) -> AgentFirstDataSystem:
    """The database's long-lived headless serving system, built on demand.

    Batched agent runners (parallel attempts, federated cohorts) use this
    instead of constructing a fresh system per call: every
    ``AgentFirstDataSystem`` registers a change observer on its database
    that is never detached, so throwaway systems would accumulate — and
    replay invalidations — for the database's whole lifetime. Steering and
    memory are off (field agents never read them); MQO, history, and the
    shared cache persist across calls, so repeat sweeps over the same
    database keep getting cheaper.
    """
    system = getattr(db, "_serving_system", None)
    if system is None:
        system = AgentFirstDataSystem(
            db, config=SystemConfig(enable_steering=False, enable_memory=False)
        )
        db._serving_system = system
    return system


def _dedupe(items: list[str]) -> list[str]:
    seen: set[str] = set()
    out: list[str] = []
    for item in items:
        if item not in seen:
            seen.add(item)
            out.append(item)
    return out
