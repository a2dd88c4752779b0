"""The sharded serving tier: many ``AgentFirstDataSystem``\\ s, one surface.

``ShardedSystem`` scales the agent-first design *out*: each shard is a
complete :class:`~repro.core.system.AgentFirstDataSystem` — its own
scheduler, history, maintenance runtime, QoS controller, optional
WAL/replicas — over its own :class:`~repro.db.Database`. The tier adds
three things in front:

* the :class:`~repro.shard.router.ShardRouter` (placement: hash ring +
  pins + partition map),
* the pull-based :class:`~repro.shard.matchmaker.Matchmaker` (shards
  advertise capacity and pull queued work; the router only steers),
* scatter-gather serving for genuinely cross-partition probes
  (:mod:`repro.shard.scatter`), with partial aggregates merged at the
  router and steering lines naming the shards consulted.

Shard state moves as :class:`~repro.storage.catalog.CatalogSnapshot`
values (the picklable form WAL checkpoints also write) both at spin-up (``ShardedSystem`` construction
filters one source snapshot into per-shard slices) and at rebalancing
(:meth:`ShardedSystem.add_shard` seeds the newcomer from a donor
snapshot, then migrates exactly the rows whose ring arc it captured).

The facade exposes the same ``session()/submit()/submit_many()`` surface
as a single system. At ``shards=1`` everything passes straight through
to one ``AgentFirstDataSystem`` over the *source* database — no copies,
no scatter, no extra steering — so answers are byte-identical to a bare
system (the differential suite pins this). At ``shards>1`` the source
database is left untouched: every shard serves from its own copy, and a
tenant's home shard is authoritative for that tenant's writes.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, replace

from repro.core.brief import Brief
from repro.core.gateway import AgentSession, ProbeTicket
from repro.core.probe import Probe, ProbeResponse, QueryOutcome
from repro.core.system import (
    AgentFirstDataSystem,
    SystemConfig,
    register_template_collector,
    shared_serving_system,
)
from repro.db import Database
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot, merge_snapshots
from repro.shard import scatter
from repro.shard.matchmaker import CapacityAdvert, Matchmaker, WorkUnit
from repro.shard.router import ShardRouter
from repro.storage.catalog import CatalogSnapshot
from repro.storage.table import Table
from repro.util.text import normalize_identifier

_LOG = logging.getLogger(__name__)

#: ``REPRO_SHARDS=N`` turns the shard tier on globally (mirrors
#: ``REPRO_QOS`` / ``REPRO_WAL``): cohort runners route through a
#: ``ShardedSystem`` of N shards instead of one shared system.
SHARDS_ENV_VAR = "REPRO_SHARDS"


def resolve_shard_count(shards: int | None = None) -> int:
    """Normalise a shard-count setting (None -> env override or 1)."""
    if shards is None:
        env = os.environ.get(SHARDS_ENV_VAR)
        shards = int(env) if env else 1
    return max(1, int(shards))


@dataclass
class ShardHandle:
    """One shard: its database, its serving system, and its capacity voice."""

    shard_id: int
    db: Database
    system: AgentFirstDataSystem

    def advertise(self) -> CapacityAdvert:
        """This shard's capacity offer for one matching round.

        Built from the gateway's stable stats pair (``windows_served`` /
        ``queue_depth_peak``) plus the live pending gauge; the shard's
        own QoS controller judges the watermark — per-shard lane/bucket
        state never leaves the shard.
        """
        stats = self.system.gateway.stats()
        pending = stats["pending"]
        tripped = False
        if self.system.qos is not None:
            tripped = self.system.qos.overload_cause(pending, 0.0) is not None
        return CapacityAdvert(
            shard_id=self.shard_id,
            pending=pending,
            windows_served=stats["windows_served"],
            queue_depth_peak=stats["queue_depth_peak"],
            watermark_tripped=tripped,
            replicas=len(self.system.replicas) if self.system.replicas else 0,
            slots=0 if tripped else max(0, self.system.gateway.max_batch - pending),
        )


class ShardedSystem:
    """A shard router + matchmaker over N complete serving systems."""

    def __init__(
        self,
        db: Database,
        shards: int | None = None,
        partition: dict[str, str] | None = None,
        config: SystemConfig | None = None,
        workers: int | None = None,
    ) -> None:
        self.count = resolve_shard_count(shards)
        self.router = ShardRouter(self.count, partition)
        #: Tier-level registry: matchmaker accounting lives here; shard
        #: registries merge in through :meth:`metrics` with a ``shard``
        #: label per series.
        self.metrics_registry = MetricsRegistry()
        self.matchmaker = Matchmaker(registry=self.metrics_registry)
        #: Process-wide series every shard also publishes: reported once,
        #: from this registry (see :meth:`metrics`).
        self._process_metrics = register_template_collector(self.metrics_registry)
        self._source = db
        self._closed = False
        self._close_lock = threading.Lock()
        #: Serves the extra shard groups of a multi-shard window; started
        #: on first need, shut down by :meth:`close`.
        self._group_pool: ThreadPoolExecutor | None = None
        if self.count == 1:
            # Passthrough: one shard over the source database itself.
            # Writes land where a bare system would put them, and the
            # serving path is exactly the bare system's — the shards=1
            # byte-identity differential depends on this.
            self.shards = [
                ShardHandle(0, db, AgentFirstDataSystem(db, config=config, workers=workers))
            ]
            return
        snapshot = db.catalog.snapshot()  # the shard-state wire format
        self.shards = []
        for shard_id in range(self.count):
            shard_db = _build_shard_db(db.name, snapshot, shard_id, self.router)
            self.shards.append(
                ShardHandle(
                    shard_id,
                    shard_db,
                    AgentFirstDataSystem(shard_db, config=config, workers=workers),
                )
            )

    # -- the serving surface ---------------------------------------------------

    def session(
        self,
        agent_id: str | None = None,
        principal: str | None = None,
        defaults: Brief | None = None,
    ) -> "AgentSession | ShardSession":
        """Open a session on the agent's home shard.

        Placement is sticky and deterministic: the same identity always
        lands on the same shard (ring hash of principal, else agent id);
        a fully anonymous session is matchmade to whichever shard
        advertises capacity right now.
        """
        if self.count == 1:
            return self.shards[0].system.session(
                agent_id=agent_id, principal=principal, defaults=defaults
            )
        shard_id = self.router.home_shard(agent_id, principal)
        if shard_id is None:
            shard_id = self.matchmaker.place([h.advertise() for h in self.shards])
        inner = self.shards[shard_id].system.session(
            agent_id=agent_id, principal=principal, defaults=defaults
        )
        return ShardSession(self, shard_id, inner)

    def submit(self, probe: Probe) -> ProbeResponse:
        return self.submit_many([probe])[0]

    def submit_many(self, probes) -> list[ProbeResponse]:
        """Serve a caller-assembled window across the tier.

        Probes group by home shard and the groups serve concurrently (one
        admission window per shard; the caller's thread serves the first
        group, so a window that routes to one shard starts no thread);
        scatter-eligible cross-partition probes fan out and merge.
        Responses come back in input order.
        """
        probes = list(probes)
        if not probes:
            return []
        if self.count == 1:
            return self.shards[0].system.submit_many(probes)
        responses: list[ProbeResponse | None] = [None] * len(probes)
        groups: dict[int, list[tuple[int, Probe, tuple | None]]] = {}
        scatters: list[tuple[int, _ScatterTicket]] = []
        for position, probe in enumerate(probes):
            route = self._route_probe(probe)
            if route.scatter_plans is not None:
                scatters.append(
                    (position, _ScatterTicket(self, probe, route.scatter_plans))
                )
            else:
                groups.setdefault(route.shard_id, []).append(
                    (position, probe, route.warn)
                )

        def serve_group(shard_id: int, members):
            return self.shards[shard_id].system.submit_many(
                [probe for _, probe, _ in members]
            )

        ordered = list(groups.items())
        pool = self._pool() if len(ordered) > 1 else None
        if pool is None:
            served = [serve_group(*group) for group in ordered]
        else:
            futures = [pool.submit(serve_group, *group) for group in ordered[1:]]
            served = [serve_group(*ordered[0])]
            served += [future.result() for future in futures]
        for (shard_id, members), group_responses in zip(ordered, served):
            for (position, _probe, warn), response in zip(members, group_responses):
                if warn is not None:
                    self._note_partial_coverage(warn, shard_id, response)
                responses[position] = response
        for position, ticket in scatters:
            responses[position] = ticket.result()
        return responses  # type: ignore[return-value]

    def _pool(self) -> ThreadPoolExecutor | None:
        """The group pool, or ``None`` once closed (groups then serve in
        the caller's thread, so a closed tier leaves no thread behind)."""
        with self._close_lock:
            if self._closed:
                return None
            if self._group_pool is None:
                self._group_pool = ThreadPoolExecutor(
                    max_workers=self.count - 1,
                    thread_name_prefix="shard-group",
                )
            return self._group_pool

    # -- routing ---------------------------------------------------------------

    def _route_probe(self, probe: Probe) -> "_Route":
        """Decide one probe's serving strategy (shards>1 only).

        Partition-pruned first: a probe whose every query pins the
        partition column to values owned by one shard routes straight
        there (the common tenant-local case — no scatter, no warning).
        Then scatter for fully-eligible cross-partition probes; anything
        else serves on the home shard, warned when it touches partitioned
        data it cannot fully see.
        """
        home = self.router.home_shard(probe.agent_id, probe.principal)
        if not self.router.partition or not probe.queries:
            return _Route(shard_id=self._or_matchmade(home))
        analyses = [self._analyze(sql) for sql in probe.queries]
        if not any(a.partitioned_table for a in analyses):
            return _Route(shard_id=self._or_matchmade(home))
        owners: set[int] | None = set()
        for analysis in analyses:
            if analysis.partitioned_table is None:
                continue  # replicated-only query: serves fully on any shard
            if analysis.pinned_values:
                owners.update(
                    self.router.owner_of_value(value)
                    for value in analysis.pinned_values
                )
            else:
                owners = None
                break
        if owners is not None and len(owners) == 1:
            return _Route(shard_id=owners.pop())
        eligible = (
            all(a.plan is not None for a in analyses)
            and probe.termination is None
            and probe.semantic_search is None
            and not probe.memory_queries
        )
        if eligible:
            return _Route(scatter_plans=[a.plan for a in analyses])
        table = next(a.partitioned_table for a in analyses if a.partitioned_table)
        reason = next((a.reason for a in analyses if a.reason), "")
        return _Route(shard_id=self._or_matchmade(home), warn=(table, reason))

    def _analyze(self, sql: str) -> scatter.ScatterAnalysis:
        # Memoized per token shape inside ``scatter.analyze``.
        return scatter.analyze(sql, self.router.partition)

    def _or_matchmade(self, shard_id: int | None) -> int:
        if shard_id is not None:
            return shard_id
        return self.matchmaker.place([h.advertise() for h in self.shards])

    def _note_partial_coverage(
        self, warn: tuple[str, str], shard_id: int, response: ProbeResponse
    ) -> None:
        """Append the partial-coverage steering note (honesty over silence:
        a non-distributable probe against partitioned data saw one slice)."""
        table, reason = warn
        note = (
            f"shard router: {table} is partitioned across {self.count} shards"
            f" and this probe could not scatter"
            f" ({reason or 'not distributable'}); the answer covers"
            f" shard {shard_id}'s partition only"
        )
        if note not in response.steering:
            response.steering.append(note)

    # -- matchmaking -----------------------------------------------------------

    def pump(self) -> int:
        """Run one pull-matching round: shards advertise, queued units
        dispatch to whoever volunteered. Returns units placed."""
        if self.matchmaker.depth() == 0:
            return 0
        adverts = [h.advertise() for h in self.shards]
        matches = self.matchmaker.match(adverts)
        touched: set[int] = set()
        for unit, shard_id in matches:
            handle = self.shards[shard_id]
            try:
                unit.ticket = handle.system.gateway.submit(unit.probe)
            except Exception as exc:  # GatewayClosed during shutdown races
                unit.ticket = _FailedTicket(exc)
            touched.add(shard_id)
        for shard_id in touched:
            self.shards[shard_id].system.gateway.flush()
        return len(matches)

    # -- scatter-gather --------------------------------------------------------

    def scatter_submit(
        self, probe: Probe, plans: list[scatter.ScatterPlan], session=None
    ) -> "_ScatterTicket":
        return _ScatterTicket(self, probe, plans, session=session)

    # -- rebalancing -----------------------------------------------------------

    def add_shard(self) -> int:
        """Spin up one more shard and migrate its ring arc onto it.

        The newcomer seeds from a donor :class:`CatalogSnapshot` (shard
        0's replicated tables travel verbatim; partitioned tables start
        empty), the ring grows in place, and then exactly the rows whose
        partition value the new arcs captured move over — deletes on the
        donors run through SQL so change events invalidate history and
        caches honestly.
        """
        if self.count == 1:
            raise ValueError("cannot rebalance a passthrough (shards=1) tier")
        donor = self.shards[0].db
        snapshot = donor.catalog.snapshot()
        new_id = self.router.ring.add_shard()
        self.count = self.router.shards
        shard_db = _build_shard_db(
            self._source.name, snapshot, new_id, self.router, empty_partitioned=True
        )
        handle = ShardHandle(
            new_id, shard_db, AgentFirstDataSystem(shard_db, config=None)
        )
        for table, column in self.router.partition.items():
            names = [
                normalize_identifier(c)
                for c in donor.catalog.table(table).schema.column_names()
            ]
            value_index = names.index(column)
            for old in self.shards:
                moved_values = set()
                for row in old.db.catalog.table(table).scan():
                    value = row[value_index]
                    if self.router.owner_of_value(value) == new_id:
                        moved_values.add(value)
                for value in sorted(moved_values, key=repr):
                    predicate = _value_predicate(column, value)
                    rows = old.db.execute(
                        f"SELECT * FROM {table} WHERE {predicate}"
                    ).rows
                    if rows:
                        shard_db.insert_rows(table, rows)
                        old.db.execute(f"DELETE FROM {table} WHERE {predicate}")
        self.shards.append(handle)
        return new_id

    # -- lifecycle -------------------------------------------------------------

    def prestart(self) -> None:
        """Lifecycle hook called before timed serving; a no-op, like
        :meth:`AgentFirstDataSystem.prestart` on every shard."""

    def close(self) -> None:
        """Close every shard concurrently; idempotent and safe before
        :meth:`prestart` (each shard's own ``close`` already is)."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
            group_pool, self._group_pool = self._group_pool, None
        if group_pool is not None:
            group_pool.shutdown(wait=True)
        with ThreadPoolExecutor(max_workers=self.count) as pool:
            list(pool.map(lambda h: h.system.close(), self.shards))

    def __enter__(self) -> "ShardedSystem":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- reporting -------------------------------------------------------------

    @property
    def db(self) -> Database:
        return self._source

    @property
    def turn(self) -> int:
        """Total interaction turns served across the tier."""
        return sum(h.system.turn for h in self.shards)

    @property
    def gateway(self) -> "_GatewayFan":
        """A fan over every shard's gateway (duck-types the single-system
        ``system.gateway`` surface cohort runners poke: flush/stats)."""
        return _GatewayFan(self)

    def metrics(self) -> MetricsSnapshot:
        """One tier-wide snapshot: every shard's registry, each series
        tagged with a ``shard`` label, plus the tier registry (the
        matchmaker) under the ``router`` pseudo-shard.

        The statement-template counters are process-wide, so they appear
        once, under ``router``, rather than once per shard."""
        parts = {
            str(handle.shard_id): MetricsSnapshot(
                {
                    name: metric
                    for name, metric in handle.system.metrics().as_dict().items()
                    if name not in self._process_metrics
                }
            )
            for handle in self.shards
        }
        parts["router"] = self.metrics_registry.snapshot()
        return merge_snapshots(parts)

    def stats(self) -> dict:
        per_shard = [h.system.gateway.stats() for h in self.shards]
        return {
            "shards": self.count,
            "per_shard": per_shard,
            "windows_served": sum(s["windows_served"] for s in per_shard),
            "probes_streamed": sum(s["probes_streamed"] for s in per_shard),
            "queue_depth_peak": max(s["queue_depth_peak"] for s in per_shard),
            "matchmaker": self.matchmaker.stats(),
            "pins": self.router.ring.pins(),
        }


@dataclass(frozen=True)
class _Route:
    shard_id: int | None = None
    scatter_plans: "list[scatter.ScatterPlan] | None" = None
    warn: tuple[str, str] | None = None


class ShardSession:
    """A session bound to its home shard, scatter-aware on submit."""

    def __init__(
        self, sharded: ShardedSystem, shard_id: int, session: AgentSession
    ) -> None:
        self.sharded = sharded
        self.shard_id = shard_id
        self.session = session

    @property
    def agent_id(self):
        return self.session.agent_id

    @property
    def principal(self):
        return self.session.principal

    def submit(self, probe: Probe):
        """Submit through the home shard; cross-partition probes scatter.

        Returns a :class:`~repro.core.gateway.ProbeTicket` (home-shard or
        partition-pruned submissions) or a :class:`_ScatterTicket` — both
        answer ``result(timeout)``/``done()``/``cancel()``.
        """
        effective = self.session.effective(probe)
        route = self.sharded._route_probe(effective)
        if route.scatter_plans is not None:
            with self.session._lock:
                self.session.probes_submitted += 1
            return self.sharded.scatter_submit(
                effective, route.scatter_plans, session=self.session
            )
        if route.shard_id not in (None, self.shard_id):
            # Partition-pruned to another shard: serve where the rows
            # live, account here where the agent lives.
            with self.session._lock:
                self.session.probes_submitted += 1
            return self.sharded.shards[route.shard_id].system.gateway.submit(
                effective, session=self.session
            )
        ticket = self.session.submit(probe)
        if route.warn is not None:
            return _NotedTicket(
                ticket,
                lambda response: self.sharded._note_partial_coverage(
                    route.warn, self.shard_id, response
                ),
            )
        return ticket

    def describe(self) -> str:
        return f"shard {self.shard_id}: {self.session.describe()}"


class _NotedTicket:
    """A ticket wrapper that appends a steering note to the response."""

    def __init__(self, ticket: ProbeTicket, note_fn) -> None:
        self._ticket = ticket
        self._note_fn = note_fn
        self._noted = False
        self._lock = threading.Lock()

    def result(self, timeout: float | None = None) -> ProbeResponse:
        response = self._ticket.result(timeout)
        with self._lock:
            if not self._noted:
                self._note_fn(response)
                self._noted = True
        return response

    def done(self) -> bool:
        return self._ticket.done()

    def cancel(self) -> bool:
        return self._ticket.cancel()


class _FailedTicket:
    """Stands in for a gateway ticket when submission itself failed."""

    def __init__(self, exc: Exception) -> None:
        self._exc = exc

    def result(self, timeout: float | None = None):
        raise self._exc

    def done(self) -> bool:
        return True

    def cancel(self) -> bool:
        return False


class _ScatterTicket:
    """The future for a scatter-gather probe: one work unit per shard,
    pulled by capacity, merged at the router on ``result()``."""

    def __init__(
        self,
        sharded: ShardedSystem,
        probe: Probe,
        plans: list[scatter.ScatterPlan],
        session: AgentSession | None = None,
    ) -> None:
        self._sharded = sharded
        self._probe = probe
        self._plans = plans
        self._session = session
        self._merged: ProbeResponse | None = None
        self._lock = threading.Lock()
        #: The coordinator-side trace. Partial probes are fresh dataclass
        #: copies, so each shard's gateway opens its *own* trace for its
        #: partial; ``result()`` grafts those under per-shard fan-out
        #: spans when it merges.
        self._trace = obs_trace.ensure_probe_trace(probe)
        fanout_span = None
        if self._trace is not None:
            fanout_span = self._trace.root.child(
                "scatter:fanout", shards=sharded.count, queries=len(plans)
            )
        partial_queries = tuple(plan.partial_sql for plan in plans)
        self._units = [
            WorkUnit(
                probe=replace(probe, queries=partial_queries, termination=None),
                target_shard=shard_id,
            )
            for shard_id in range(sharded.count)
        ]
        for unit in self._units:
            sharded.matchmaker.enqueue(unit)
        sharded.pump()
        if fanout_span is not None:
            fanout_span.finish()

    def done(self) -> bool:
        return all(
            unit.assigned.is_set() and unit.ticket is not None and unit.ticket.done()
            for unit in self._units
        )

    def cancel(self) -> bool:
        """Best-effort: unqueued units withdraw; submitted partials try
        to cancel. False once any partial was admitted."""
        ok = True
        for unit in self._units:
            if not unit.assigned.is_set():
                ok = self._sharded.matchmaker.discard(unit) and ok
            elif unit.ticket is not None:
                ok = unit.ticket.cancel() and ok
        return ok

    def result(self, timeout: float | None = None) -> ProbeResponse:
        with self._lock:
            if self._merged is not None:
                return self._merged
            deadline = None if timeout is None else time.monotonic() + timeout
            while not all(unit.assigned.is_set() for unit in self._units):
                if self._sharded.pump() == 0:
                    time.sleep(0.0005)
                if deadline is not None and time.monotonic() > deadline:
                    raise FutureTimeoutError(
                        "scatter partials were not matched to shard capacity in time"
                    )
            partials = []
            for unit in self._units:  # shard order
                remaining = (
                    None if deadline is None else max(0.0, deadline - time.monotonic())
                )
                partials.append(unit.ticket.result(remaining))
            trace = self._trace
            if trace is None or trace.finished:
                merged = self._merge(partials)
            else:
                merge_span = trace.root.child("scatter:merge")
                merged = self._merge(partials)
                merge_span.finish()
                for unit, partial in zip(self._units, partials):
                    shard_span = trace.root.child(
                        f"scatter:shard{unit.shard_id}", shard=unit.shard_id
                    )
                    partial_trace = getattr(partial, "trace", None)
                    if partial_trace is not None:
                        # Shards share this process's monotonic clock:
                        # graft the shard's subtree verbatim.
                        shard_span.children.append(partial_trace.root)
                        shard_span.start = partial_trace.root.start
                        shard_span.finish(partial_trace.root.end)
                    else:
                        shard_span.finish()
                trace.finish()
                merged.trace = trace
            if self._session is not None:
                self._session._account(merged)
            self._merged = merged
            return merged

    def _merge(self, partials: list[ProbeResponse]) -> ProbeResponse:
        outcomes = []
        for query_index, plan in enumerate(self._plans):
            shard_outcomes = [
                next(o for o in response.outcomes if o.query_index == query_index)
                for response in partials
            ]
            outcomes.append(self._merge_outcomes(query_index, plan, shard_outcomes))
        response = ProbeResponse(
            outcomes=outcomes,
            turn=max(p.turn for p in partials),
            rows_processed=sum(p.rows_processed for p in partials),
            cache_hits=sum(p.cache_hits for p in partials),
        )
        consulted = ", ".join(str(unit.shard_id) for unit in self._units)
        tables = sorted({plan.table for plan in self._plans})
        response.steering.append(
            f"scatter-gather: consulted shards [{consulted}] for {', '.join(tables)}"
        )
        if any(plan.aggregates for plan in self._plans):
            response.steering.append(
                "scatter-gather: partial aggregates merged at the router"
                " (AVG re-assembled from SUM+COUNT partials)"
            )
        for unit, partial in zip(self._units, partials):
            for line in partial.steering:
                # Degradation notices must survive the merge: an agent is
                # always told when overload changed its answer's quality.
                if "system under load" in line or "staleness" in line:
                    response.steering.append(f"shard {unit.shard_id}: {line}")
        return response

    def _merge_outcomes(
        self, query_index: int, plan: scatter.ScatterPlan, shard_outcomes
    ) -> QueryOutcome:
        original_sql = self._probe.queries[query_index]
        estimated_cost = sum(o.estimated_cost for o in shard_outcomes)
        for unit, outcome in zip(self._units, shard_outcomes):
            if outcome.status == "error":
                return QueryOutcome(
                    sql=original_sql,
                    status="error",
                    query_index=query_index,
                    reason=f"shard {unit.shard_id}: {outcome.reason}",
                    estimated_cost=estimated_cost,
                )
        for unit, outcome in zip(self._units, shard_outcomes):
            if outcome.result is None:  # pruned / terminated partial
                return QueryOutcome(
                    sql=original_sql,
                    status=outcome.status,
                    query_index=query_index,
                    reason=f"shard {unit.shard_id}: {outcome.reason}"
                    if outcome.reason
                    else f"shard {unit.shard_id} returned no partial result",
                    estimated_cost=estimated_cost,
                )
        merged = scatter.merge_partials(plan, [o.result for o in shard_outcomes])
        approximate = any(o.status == "approximate" for o in shard_outcomes)
        return QueryOutcome(
            sql=original_sql,
            status="approximate" if approximate else "ok",
            query_index=query_index,
            result=merged,
            sample_rate=min(o.sample_rate for o in shard_outcomes),
            estimated_cost=estimated_cost,
        )


class _GatewayFan:
    """The tier-wide view of N gateways (flush/stats/pending/close)."""

    def __init__(self, sharded: ShardedSystem) -> None:
        self._sharded = sharded

    def flush(self) -> None:
        self._sharded.pump()
        for handle in self._sharded.shards:
            handle.system.gateway.flush()

    def pending_probes(self) -> int:
        return sum(h.system.gateway.pending_probes() for h in self._sharded.shards)

    def stats(self) -> dict:
        return self._sharded.stats()

    def close(self, timeout: float | None = 10.0) -> None:
        for handle in self._sharded.shards:
            handle.system.gateway.close(timeout)


def sharded_serving_system(db: Database, shards: int | None = None):
    """The database's long-lived sharded serving tier (or the shared
    single system when the resolved count is 1).

    Mirrors :func:`~repro.core.system.shared_serving_system`: steering
    and memory off, cached on the database. The cache is keyed by shard
    count *and* the source catalog version — setup writes between cohort
    runs rebuild the tier from a fresh snapshot instead of serving stale
    shard copies.
    """
    count = resolve_shard_count(shards)
    if count <= 1:
        return shared_serving_system(db)
    cached = getattr(db, "_sharded_serving", None)
    version = db.catalog.version()
    if cached is not None:
        system, built_version, built_count = cached
        if built_count == count and built_version == version:
            return system
        system.close()
    system = ShardedSystem(
        db,
        shards=count,
        config=SystemConfig(enable_steering=False, enable_memory=False),
    )
    db._sharded_serving = (system, version, count)
    return system


def _build_shard_db(
    source_name: str,
    snapshot: CatalogSnapshot,
    shard_id: int,
    router: ShardRouter,
    empty_partitioned: bool = False,
) -> Database:
    """Materialise one shard's database from the snapshot wire format.

    Replicated tables restore verbatim (chunk-shared within-process, the
    exact ``TableSnapshot`` bytes across); partitioned tables keep only
    the rows whose partition value the ring places on this shard.
    """
    db = Database(f"{source_name}-shard{shard_id}", wal_dir=False)
    for state in snapshot.tables:
        name = state.schema.name
        column = router.partition_column(name)
        if column is None:
            db.catalog.register_table(Table.restore(state))
            continue
        db.catalog.create_table(state.schema)
        if empty_partitioned:
            continue
        names = [normalize_identifier(c) for c in state.schema.column_names()]
        value_index = names.index(column)
        # One ring lookup per distinct partition value. The ring hash is
        # type-tagged (``1``, ``1.0`` and ``True`` have different owners),
        # so the memo keys on type and repr, never on the value alone.
        owner_of: dict[tuple, int] = {}
        owned = []
        for row in Table.restore(state).scan():
            value = row[value_index]
            key = (type(value), repr(value))
            owner = owner_of.get(key)
            if owner is None:
                owner = owner_of[key] = router.owner_of_value(value)
            if owner == shard_id:
                owned.append(row)
        if owned:
            db.catalog.insert_rows(name, owned)
    for table_name, column in snapshot.hash_indexes:
        db.catalog.create_hash_index(table_name, column)
    for table_name, column in snapshot.sorted_indexes:
        db.catalog.create_sorted_index(table_name, column)
    return db


def _value_predicate(column: str, value) -> str:
    """Render ``column = <value>`` (or IS NULL) for migration DML."""
    if value is None:
        return f"{column} IS NULL"
    if isinstance(value, bool):
        return f"{column} = {'TRUE' if value else 'FALSE'}"
    if isinstance(value, (int, float)):
        return f"{column} = {value!r}"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"{column} = '{escaped}'"
    raise ValueError(f"unmigratable partition value {value!r}")
