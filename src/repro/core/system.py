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
             pool over the catalog, window memo │
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
               sleeper agents  <───────  shared-work memo (per window)
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
         in flight)        by any     └─> statistics refresher   rewrites
                           arrival)

    durability layer (REPRO_WAL / Database.attach_wal; txn/wal.py)
        catalog writes ──> write-ahead log (append BEFORE mutate);
        reads log nothing: the log holds catalog records only
        periodic checkpoints (Catalog.snapshot) prune the log
        crash ──> AgentFirstDataSystem.recover(dir): checkpoint + replay,
                  exact data_version_tuple; turn, history, advisor cold
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
                       └─> replica:serve │ scatter:shardN
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
and statistics are re-derived after write bursts. Every artifact is validated
through ``Catalog.version()``/``ChangeEvent`` staleness machinery, so a
maintenance-on run stays byte-identical to a maintenance-off run — just
faster on repeated workloads.
"""

from __future__ import annotations

import threading
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
from repro.maintenance import MaintenanceConfig, MaintenanceRuntime
from repro.memstore import AgenticMemoryStore, ArtifactKind
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot
from repro.obs.slowlog import SlowProbeEntry, SlowProbeLog, resolve_slow_probe_ms
from repro.qos import QosConfig, QosController, resolve_qos_enabled
from repro.plan import logical
from repro.plan.compiled import statement_shape
from repro.semantic.search import SemanticSearch
from repro.sql.parser import template_counters
from repro.util.hashing import stable_hash_int


@dataclass
class SystemConfig:
    """Feature switches; the ablation benches flip these."""

    enable_mqo: bool = True
    enable_steering: bool = True
    enable_memory: bool = True
    enable_history: bool = True
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
    #: materialization, auto-indexing and statistics refresh. ``None`` ->
    #: the ``REPRO_MAINTENANCE`` env override, else off. Answers are
    #: byte-identical either way; only the work (and wall-clock) changes.
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
        self.memory = memory if memory is not None else AgenticMemoryStore()
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
        self.satisficer = Satisficer()
        self.optimizer = ProbeOptimizer(
            db=db,
            satisficer=self.satisficer,
            advisor=MaterializationAdvisor(),
            enable_history=self.config.enable_history,
        )
        self.why_not = WhyNotDiagnoser(db)
        self.join_discovery = JoinDiscovery(db)
        self.cost_advisor = CostAdvisor(db)
        self.scheduler = ProbeScheduler(
            interpreter=self.interpreter,
            optimizer=self.optimizer,
            workers=scheduler_workers,
            registry=self.metrics_registry,
            enable_mqo=self.config.enable_mqo,
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
        register_template_collector(self.metrics_registry)
        db.on_change(self._on_change)

    def _register_engine_collectors(self) -> None:
        """Publish engine-level metrics (plus the memory store's size, the
        grounding lookups' memo counters and what storage rebuilt for new
        table states) as snapshot-time collectors.

        Occupancies and hit ratios are derived from live structures when
        ``metrics()`` is called — zero hot-path bookkeeping, which is how
        the <2% tracing-off overhead contract stays cheap to honour.
        """
        from repro.engine.columnar import KERNEL_MEMO_STATS, kernel_memo_occupancy
        from repro.engine.executor import EXPR_MEMO_STATS, expr_memo_occupancy

        registry = self.metrics_registry
        scheduler = self.scheduler
        gauges = {
            name: registry.gauge(f"repro_engine_{name}", help)
            for name, help in (
                ("subplan_cache_hits", "Window subplan-memo hits, lifetime"),
                ("subplan_cache_misses", "Window subplan-memo misses, lifetime"),
                ("subplan_cache_hit_ratio", "hits / (hits + misses), 0 when idle"),
                ("expr_memo_entries", "Compiled-expression memo occupancy"),
                ("expr_memo_compilations", "Expression compilations (process-wide)"),
                ("expr_memo_hits", "Expression memo hits (process-wide)"),
                ("kernel_memo_entries", "Columnar kernel memo occupancy"),
                ("kernel_memo_builds", "Kernel builds (process-wide)"),
                ("kernel_memo_hits", "Kernel memo hits (process-wide)"),
                ("kernel_memo_fallbacks", "Kernel runs resolved by row fallback"),
                (
                    "kernel_memo_list_path_runs",
                    "Kernel runs on value lists: no numpy path for the shape "
                    "(text, column vs column) or a column had no numpy mirror",
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
        plan_templates = getattr(statements, "templates", None)
        plan_template_counters = [
            registry.counter(f"repro_plan_template_{name}_total", help)
            for name, help in (
                ("hits", "Statements bound from the plan template of their shape"),
                ("misses", "Statements planned in full: their shape had no template"),
                ("unliftable", "Statements planned in full: their shape cannot be bound"),
            )
        ]
        storage_counters = {
            name: registry.counter(f"repro_storage_{name}_total", help)
            for name, help in (
                ("stats_recomputes", "Table statistics computed for a new table state"),
                ("stats_recompute_ms", "Milliseconds spent computing table statistics"),
                ("segment_builds", "Column segments built for a new table state"),
            )
        }
        memory = self.memory
        memstore_artifacts = registry.gauge(
            "repro_memstore_artifacts", "Artifacts held by the agentic memory store"
        )
        search = self.search
        semantic_memo = [
            registry.counter(f"repro_semantic_search_memo_{name}_total", help)
            for name, help in (
                ("hits", "Semantic searches answered from the index build's memo"),
                ("misses", "Semantic searches ranked against the index"),
            )
        ]
        recall_memo = [
            registry.counter(f"repro_memstore_recall_memo_{name}_total", help)
            for name, help in (
                ("hits", "Memory recalls answered from the vector index's memo"),
                ("misses", "Memory recalls scored against every stored artifact"),
            )
        ]

        def collect() -> None:
            hits, misses = scheduler.memo_hits, scheduler.memo_misses
            gauges["subplan_cache_hits"].set(hits)
            gauges["subplan_cache_misses"].set(misses)
            total = hits + misses
            gauges["subplan_cache_hit_ratio"].set(hits / total if total else 0.0)
            for counter, value in zip(plan_cache_counters, statements.counters()):
                counter.set(value)
            plan_cache_entries.set(len(statements))
            if plan_templates is not None:
                for counter, value in zip(
                    plan_template_counters, plan_templates.template_counters()
                ):
                    counter.set(value)
            built = self.db.catalog.storage_counters
            for name, counter in storage_counters.items():
                counter.set(getattr(built, name))
            memstore_artifacts.set(len(memory))
            for counter, value in zip(
                semantic_memo, (search.memo_hits, search.memo_misses)
            ):
                counter.set(value)
            for counter, value in zip(recall_memo, memory.recall_memo_counters()):
                counter.set(value)
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
        agents through one subplan memo that lives for the window, so
        every duplicated subtree materialises once. Per-query rows and statuses
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
        if any_traced:
            self._finalize_traces(probes, responses)
        return responses

    def _finalize_traces(
        self, probes: Sequence[Probe], responses: list[ProbeResponse]
    ) -> None:
        """Close out the window's traces: the root is finished, per-node
        latency histograms are fed, and slow probes land in the ring
        buffer (with their traces) at WARNING."""
        for probe, response in zip(probes, responses):
            trace = obs_trace.probe_trace(probe)
            if trace is None or trace.finished:
                continue
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

        # Steering and memory both read which tables each query scans:
        # one walk of each plan per probe serves both.
        query_tables: list[list[str]] = []
        tables: list[str] = []
        if self.config.enable_steering or self.config.enable_memory:
            query_tables = [_plan_tables(query.plan) for query in interpreted.queries]
            tables = list(dict.fromkeys(t for found in query_tables for t in found))
        if self.config.enable_steering:
            response.steering = self._steer(
                probe, interpreted, response, tables, batch_hints=scheduled.hints
            )
        # QoS degradation notices attach unconditionally — even on
        # steering-off systems (e.g. shared_serving_system): an agent must
        # always be told when overload changed the quality of its answer.
        if scheduled.qos_notes:
            response.steering.extend(scheduled.qos_notes)
        if self.config.enable_memory:
            self._remember(probe, interpreted, response, tables, query_tables)
        return response

    # -- steering ---------------------------------------------------------------------

    def _steer(
        self,
        probe: Probe,
        interpreted: InterpretedProbe,
        response: ProbeResponse,
        tables: list[str],
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
            for table in tables[:2]:
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
                probe.agent_id, tables, len(interpreted.executable())
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
        tables: list[str],
        query_tables: list[list[str]],
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
            if hint.startswith("empty result explained: ") and tables:
                self.memory.remember(
                    ArtifactKind.COLUMN_ENCODING,
                    (tables[0],),
                    hint.removeprefix("empty result explained: "),
                    principal=probe.principal,
                    shared=True,
                    data_sensitive=True,
                    turn=response.turn,
                )
        # Exact solution-phase results are reusable partial solutions. One
        # artifact stands per (first table, statement shape, principal):
        # the text names the goal and the shape with ``?`` for its
        # literals, the content the latest binding (SQL, literals, rows).
        # A new binding of a known shape under the same goal has the same
        # text, so the store refreshes that artifact in place and the
        # vector index (and its recall memo) stays as it is. An
        # unliftable shape is named by its full text.
        if interpreted.phase is Phase.METADATA_EXPLORATION:
            return
        for outcome in response.outcomes:
            if outcome.status != "ok" or outcome.result is None:
                continue
            scanned = query_tables[outcome.query_index]
            if not scanned:
                continue
            plan = interpreted.queries[outcome.query_index].plan
            shape, literals = statement_shape(plan) or (outcome.sql, ())
            self.memory.remember(
                ArtifactKind.PROBE_RESULT,
                # A process-stable digest: python's builtin ``hash`` is
                # salted per run (PYTHONHASHSEED) and would scatter keys
                # across processes.
                (scanned[0], f"q{stable_hash_int(shape):016x}"),
                f"{probe.brief.goal or 'query'}: {shape}",
                principal=probe.principal,
                shared=True,
                depends_on=tuple(scanned),
                turn=response.turn,
                sql=outcome.sql,
                literals=literals,
                rows=outcome.result.row_count,
            )

    # -- plumbing ---------------------------------------------------------------------------

    def _on_change(self, event: ChangeEvent) -> None:
        if event.kind in ("insert", "update", "delete", "create", "drop"):
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
        ids, every counter). The log holds data only, so the serving
        state starts cold: turn 0, an empty answered-before history and
        an empty materialization advisor. A recovered system answers the
        same rows as the crashed one; it re-executes what the crashed
        one would have answered from history. The log stays attached;
        writes continue appending to it.
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


def register_template_collector(registry: MetricsRegistry) -> frozenset[str]:
    """Publish the parser's process-wide statement-template counters
    (:func:`repro.sql.parser.template_counters`) in ``registry`` as
    ``repro_sql_template_{hits,misses,unliftable}_total``; return their
    names."""
    counters = [
        registry.counter(f"repro_sql_template_{name}_total", help)
        for name, help in (
            ("hits", "Statements bound from the template of their token shape"),
            ("misses", "Statements parsed in full: their shape had no template"),
            ("unliftable", "Statements parsed in full: their shape cannot be bound"),
        )
    ]

    def collect() -> None:
        for counter, value in zip(counters, template_counters()):
            counter.set(value)

    registry.add_collector(collect)
    return frozenset(counter.name for counter in counters)


def shared_serving_system(db: Database) -> AgentFirstDataSystem:
    """The database's long-lived headless serving system, built on demand.

    Batched agent runners (parallel attempts, federated cohorts) use this
    instead of constructing a fresh system per call: every
    ``AgentFirstDataSystem`` registers a change observer on its database
    that is never detached, so throwaway systems would accumulate — and
    replay invalidations — for the database's whole lifetime. Steering and
    memory are off (field agents never read them); the answered-before
    history persists across calls, so repeat sweeps over the same
    database keep getting cheaper.
    """
    system = getattr(db, "_serving_system", None)
    if system is None:
        system = AgentFirstDataSystem(
            db, config=SystemConfig(enable_steering=False, enable_memory=False)
        )
        db._serving_system = system
    return system


def _plan_tables(plan: logical.PlanNode | None) -> list[str]:
    """The tables ``plan`` scans, in walk order."""
    tables: list[str] = []
    if plan is not None:
        for node in plan.walk():
            if isinstance(node, (logical.Scan, logical.IndexScan)):
                if node.table not in tables:
                    tables.append(node.table)
    return tables


def _dedupe(items: list[str]) -> list[str]:
    seen: set[str] = set()
    out: list[str] = []
    for item in items:
        if item not in seen:
            seen.add(item)
            out.append(item)
    return out
