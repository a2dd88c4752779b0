"""In-process read replicas fed from the write-ahead log.

A :class:`ReadReplica` is a follower catalog: it seeds from the log's
latest checkpoint and applies committed catalog records in LSN order, so
at every point it holds a state the primary actually passed through. Its
**staleness** is the number of records (every record is a catalog write)
the primary has logged that the replica has not yet applied — the same
unit ``Catalog.data_epoch`` counts in, surfaced to agents in the steering
hint.

Replicas serve only the easy-but-common case: read-only *exact* probes
whose brief declares a ``max_staleness`` tolerance (paper Sec. 4 — the
brief is where agents state what quality they need; a bounded-staleness
read is a quality statement like any sampling tolerance). Everything else
— DML-adjacent machinery, semantic search, memory recall, termination
criteria — falls through to the primary. Information-schema reads are
plain reads here: the replica's catalog derives those tables from the
records it has applied, so it answers them as the primary did at the
same log position.
Responses are tagged with an explicit staleness hint rather than
pretending to be fresh, following the agent-interface principle that
degraded service must be legible to the caller.

Execution deliberately bypasses the :class:`~repro.db.Database` facade:
the replica plans and executes directly against its catalog and only
ever compiles SELECTs, which is what guarantees serving never writes.
"""

from __future__ import annotations

import logging
import os
import threading
from typing import Callable

from repro.core.probe import Probe, ProbeResponse, QueryOutcome
from repro.engine.columnar import ColumnarExecutor
from repro.engine.executor import ExecContext
from repro.errors import ReproError
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricAttr, MetricsRegistry
from repro.plan.compiled import StatementCache, compile_select
from repro.storage.catalog import Catalog
from repro.txn.wal import WriteAheadLog, apply_record

_LOG = logging.getLogger(__name__)


def resolve_replica_count(count: int | None) -> int:
    """Explicit config wins; else the ``REPRO_REPLICAS`` env override; else 0."""
    if count is not None:
        return max(0, int(count))
    env = os.environ.get("REPRO_REPLICAS", "")
    try:
        return max(0, int(env)) if env else 0
    except ValueError:
        return 0


class ReadReplica:
    """One follower catalog consuming the primary's log."""

    def __init__(self, wal: WriteAheadLog, name: str = "replica-0") -> None:
        self.wal = wal
        self.name = name
        #: This follower's own compiled statements, stamped with *its*
        #: catalog's version: applying a record (or reseeding) invalidates.
        self.statement_cache = StatementCache()
        self._lock = threading.Lock()
        self.records_applied = 0
        self.probes_served = 0
        self._seed()

    def _seed(self) -> None:
        """(Re)build from the log's latest checkpoint — a consistent image
        by construction, unlike snapshotting a live concurrently-written
        catalog."""
        checkpoint = self.wal.latest_checkpoint
        if checkpoint is not None:
            self.catalog = Catalog.restore_exact(checkpoint.snapshot)
            self.applied_lsn = checkpoint.last_lsn
        else:
            self.catalog = Catalog()
            self.applied_lsn = 0

    def catch_up(self) -> int:
        """Apply every record the primary has logged; returns the number
        applied. Reseeds from the latest checkpoint when the replica's
        horizon has been pruned."""
        with self._lock:
            records = self.wal.records_since(self.applied_lsn)
            if records is None:
                self._seed()
                records = self.wal.records_since(self.applied_lsn) or []
            for record in records:
                apply_record(self.catalog, record)
                self.applied_lsn = record.lsn
            self.records_applied += len(records)
            return len(records)

    def staleness(self) -> int:
        """Records logged by the primary but not yet applied."""
        return max(0, self.wal.last_lsn - self.applied_lsn)

    def serve(
        self,
        probe: Probe,
        tolerance: int,
        turn_source: Callable[[], int],
        catch_up: bool = True,
    ) -> ProbeResponse | None:
        """Answer a read-only exact probe, or ``None`` to defer to the
        primary (too stale, unparseable here, or any execution trouble —
        the primary owns error reporting).

        The staleness bound is checked *after* catching up, and the hint
        reports the residual lag (writes that landed on the primary while
        this replica was applying). The turn number is drawn from the
        primary's counter only once the response is certain, so deferrals
        never burn a turn.
        """
        if catch_up:
            self.catch_up()
        lag = self.staleness()
        if lag > tolerance:
            return None
        trace = obs_trace.probe_trace(probe)
        if trace is None or trace.finished:
            return self._serve_inner(probe, tolerance, turn_source, lag)
        # Traced probe: the serve span is made ambient so the engine's
        # per-node spans nest under it, exactly like the primary path.
        span = trace.root.child("replica:serve", replica=self.name, staleness=lag)
        token = obs_trace.set_current(span)
        try:
            response = self._serve_inner(probe, tolerance, turn_source, lag)
            span.attrs["deferred"] = response is None
            return response
        finally:
            obs_trace.reset_current(token)
            span.finish()

    def _serve_inner(
        self,
        probe: Probe,
        tolerance: int,
        turn_source: Callable[[], int],
        lag: int,
    ) -> ProbeResponse | None:
        catalog = self.catalog
        plans = []
        for sql in probe.queries:
            compiled = compile_select(sql, catalog, self.statement_cache)
            if compiled.plan is None:
                return None
            plans.append(compiled.plan)
        try:
            outcomes = []
            rows_processed = 0
            for index, (sql, plan) in enumerate(zip(probe.queries, plans)):
                context = ExecContext()
                result = ColumnarExecutor(catalog, context).run(plan)
                rows_processed += context.stats.rows_processed
                outcomes.append(
                    QueryOutcome(
                        sql=sql, status="ok", query_index=index, result=result
                    )
                )
        except ReproError:
            return None
        self.probes_served += 1
        response = ProbeResponse(
            outcomes=outcomes,
            turn=turn_source(),
            rows_processed=rows_processed,
        )
        response.steering.append(
            f"served by read replica {self.name!r}:"
            f" staleness {lag} ≤ {tolerance} versions"
        )
        return response


class ReplicaPool:
    """Round-robin pool of read replicas behind one primary log.

    Pool counters live in the shared metrics registry behind
    :class:`~repro.obs.metrics.MetricAttr` shims; ``stats()`` keys and
    attribute reads are unchanged.
    """

    probes_served = MetricAttr("_m_probes_served")
    probes_declined = MetricAttr("_m_probes_declined")

    def __init__(
        self,
        wal: WriteAheadLog,
        count: int,
        turn_source: Callable[[], int],
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.replicas = [
            ReadReplica(wal, name=f"replica-{i}") for i in range(max(1, count))
        ]
        self._turn_source = turn_source
        self._next = 0
        self._lock = threading.Lock()
        registry = registry or MetricsRegistry()
        self.metrics_registry = registry
        self._m_probes_served = registry.counter(
            "repro_replica_probes_served_total",
            "Probes answered by a read replica.",
        ).bind()
        self._m_probes_declined = registry.counter(
            "repro_replica_probes_declined_total",
            "Probes a replica deferred back to the primary.",
        ).bind()
        registry.add_collector(self._collect_staleness)
        self.probes_served = 0
        self.probes_declined = 0

    def _collect_staleness(self) -> None:
        """Snapshot-time staleness gauge per replica (no hot-path cost)."""
        gauge = self.metrics_registry.gauge(
            "repro_replica_staleness",
            "Unapplied primary write records per replica.",
            labelnames=("replica",),
        )
        for replica in self.replicas:
            gauge.set(replica.staleness(), replica=replica.name)

    def __len__(self) -> int:
        return len(self.replicas)

    def eligible(self, probe: Probe, assume_staleness: bool = False) -> bool:
        """Only read-only exact SQL with a declared staleness tolerance:
        no beyond-SQL requests (they need primary-side state) and no
        termination criteria (partial-result semantics live with the
        scheduler). ``assume_staleness`` waives the declared-tolerance
        requirement — the QoS layer's overload shedding imposes its own
        bound (and says so in steering) on probes that declared none.
        """
        return (
            (probe.brief.max_staleness is not None or assume_staleness)
            and bool(probe.queries)
            and not probe.semantic_search
            and not probe.memory_queries
            and probe.termination is None
        )

    def try_serve(
        self,
        probe: Probe,
        staleness_override: int | None = None,
        load_note: str | None = None,
    ) -> ProbeResponse | None:
        """Serve from the next replica if the probe qualifies, else ``None``
        (the caller keeps it on the primary path).

        ``staleness_override`` is the QoS layer's imposed tolerance for
        load shedding: it lets a probe with no declared ``max_staleness``
        qualify, but never *loosens* a declared tolerance — the agent's
        own bound stays authoritative. ``load_note`` (the shedding
        verdict's steering line) is appended to the served response so
        the degradation is legible.
        """
        if not self.eligible(probe, assume_staleness=staleness_override is not None):
            return None
        tolerance = probe.brief.max_staleness
        if tolerance is None:
            tolerance = staleness_override
        with self._lock:
            replica = self.replicas[self._next % len(self.replicas)]
            self._next += 1
        response = replica.serve(probe, tolerance, self._turn_source)
        if response is None:
            self.probes_declined += 1
        else:
            self.probes_served += 1
            if load_note:
                response.steering.append(load_note)
        return response

    def stats(self) -> dict:
        return {
            "replicas": len(self.replicas),
            "probes_served": self.probes_served,
            "probes_declined": self.probes_declined,
            "staleness": [replica.staleness() for replica in self.replicas],
        }
