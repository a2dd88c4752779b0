"""The probe optimizer: satisficing execution with intra- and inter-probe
optimization.

Responsibilities (paper Sec. 5.2):

* resolve the satisficer's decisions at the decided accuracy (dispatch
  *order* belongs to :class:`~repro.core.scheduler.ProbeScheduler`, which
  drives this optimizer for both ``submit`` and ``submit_many``);
* share work across the queries, probes and agents of one admission
  window through the window's subplan memo, which the scheduler creates
  and passes in (intra- and inter-probe MQO);
* answer repeats from **history**: a query whose strict fingerprint was
  already answered this session returns instantly with no work;
* evaluate **termination criteria** over partial result lists and stop the
  probe's remaining queries when satisfied;
* feed the :class:`~repro.core.mqo.MaterializationAdvisor` so recurring
  subplans become materialization suggestions.

Concurrency: the scheduler's worker pool runs :meth:`speculative_execute`
from many threads (engine-only: its one shared write is the window's
memo dict, whose single-key reads and writes are atomic), and
``run_decision`` itself may be called concurrently by independent serving
threads — so the ``history`` / ``lenient_history`` dictionaries are
guarded by a lock, and the advisor locks internally. The serial replay
feeds speculative results back through :meth:`run_decision`, which owns
all order-sensitive bookkeeping.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

from repro.core.interpreter import InterpretedProbe, PlannedQuery
from repro.core.mqo import MaterializationAdvisor
from repro.core.probe import QueryOutcome
from repro.core.satisfice import ExecutionDecision, Satisficer
from repro.db import Database
from repro.engine.columnar import ColumnarExecutor
from repro.engine.executor import ExecContext
from repro.engine.result import QueryResult
from repro.errors import ReproError
from repro.obs import trace as obs_trace
from repro.plan.fingerprint import fingerprints


@dataclass
class HistoryEntry:
    turn: int
    agent_id: str
    sql: str
    result: QueryResult
    lenient_fingerprint: str


@dataclass
class PrecomputedExecution:
    """One engine run performed ahead of serial bookkeeping.

    The scheduler's worker pool produces these concurrently (pure engine
    work: a result or an execution error); the serial replay then feeds
    them back through :meth:`ProbeOptimizer.run_decision`, which applies
    history, advisor, and steering bookkeeping in serial order.
    """

    result: QueryResult | None = None
    error: str | None = None


@dataclass
class ProbeOptimizer:
    """Executes interpreted probes; owns the session's shared state."""

    db: Database
    satisficer: Satisficer
    advisor: MaterializationAdvisor = field(default_factory=MaterializationAdvisor)
    #: strict fingerprint -> history entry (the answered-before index).
    history: dict[str, HistoryEntry] = field(default_factory=dict)
    #: lenient fingerprint -> most recent history entry (similarity pointer).
    lenient_history: dict[str, HistoryEntry] = field(default_factory=dict)
    enable_history: bool = True
    #: Maintenance hook: rewrites a plan immediately before an *exact*
    #: engine run (materialized views, auxiliary indexes). All history,
    #: advisor, and fingerprint bookkeeping stays keyed on the original
    #: plan, so the rewrite can change work but never an answer. Must be
    #: pure and exception-free (the runtime guards internally).
    execution_rewriter: "Callable[[object], object] | None" = field(
        default=None, repr=False, compare=False
    )
    #: Maintenance hook: observes each logically-demanded plan (alongside
    #: the advisor) so the runtime can mine predicates for auto-indexing.
    plan_observer: "Callable[[object], None] | None" = field(
        default=None, repr=False, compare=False
    )
    #: Guards ``history`` and ``lenient_history`` under concurrent callers.
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    def run_decision(
        self,
        interpreted: InterpretedProbe,
        decision: ExecutionDecision,
        turn: int,
        precomputed: PrecomputedExecution | None = None,
        memo: dict | None = None,
    ) -> QueryOutcome:
        """Resolve one satisficer decision into an outcome.

        Handles the prune/error short-circuits, the answered-before history
        check, and actual execution against the window's subplan ``memo``
        (``None``: no sharing).
        The caller — the probe scheduler, for both ``submit`` and
        ``submit_many`` — owns dispatch order and termination bookkeeping
        (those are probe- and batch-level state). When the scheduler
        already ran the engine work speculatively, it passes the
        ``precomputed`` result and only the bookkeeping happens here.
        """
        query = decision.query
        if decision.action == "prune":
            return QueryOutcome(
                sql=query.sql,
                status="pruned",
                query_index=query.index,
                reason=decision.reason,
                estimated_cost=query.estimated_cost,
            )
        if query.plan is None:
            return QueryOutcome(
                sql=query.sql,
                status="error",
                query_index=query.index,
                reason=query.parse_error or "unplannable query",
            )
        return self._execute_one(
            interpreted, query, decision, turn, precomputed, memo
        )

    def check_termination(
        self, interpreted: InterpretedProbe, results_so_far: list[QueryResult]
    ) -> bool:
        """Evaluate the probe's termination criterion over partial results."""
        criterion = interpreted.probe.termination
        if criterion is None or not results_so_far:
            return False
        try:
            return bool(criterion(results_so_far))
        except Exception:
            return False

    def _plan_for_execution(self, plan, sample_rate: float):
        """The plan an engine run should actually execute.

        Applies the maintenance runtime's execution-time rewrite (views,
        auxiliary indexes) for exact runs only — sampled scans must draw
        their own rows, never be answered from a full materialization.
        Every consumer of the *result* still keys on the original plan.
        """
        if self.execution_rewriter is None or sample_rate < 1.0:
            return plan
        return self.execution_rewriter(plan)

    def speculative_execute(
        self, decision: ExecutionDecision, turn: int, memo: dict | None = None
    ) -> PrecomputedExecution:
        """Engine-only execution of one decision — safe to run concurrently.

        Touches no optimizer state, only the window's subplan ``memo``;
        history/advisor bookkeeping happens later, when the serial replay
        feeds the result back through :meth:`run_decision`.
        """
        query = decision.query
        assert query.plan is not None
        context = ExecContext(
            sample_rate=decision.sample_rate, sample_seed=turn, cache=memo
        )
        executor = ColumnarExecutor(self.db.catalog, context)
        plan = self._plan_for_execution(query.plan, decision.sample_rate)
        try:
            return PrecomputedExecution(result=executor.run(plan))
        except ReproError as exc:
            return PrecomputedExecution(error=str(exc))

    def _execute_one(
        self,
        interpreted: InterpretedProbe,
        query: PlannedQuery,
        decision: ExecutionDecision,
        turn: int,
        precomputed: PrecomputedExecution | None,
        memo: dict | None,
    ) -> QueryOutcome:
        assert query.plan is not None
        digests = fingerprints(query.plan)
        strict = digests.strict
        if self.enable_history and decision.sample_rate >= 1.0:
            with self._lock:
                entry = self.history.get(strict)
            if entry is not None:
                ambient = obs_trace.current_span()
                if ambient is not None:
                    ambient.child(
                        "engine:history", answered_at_turn=entry.turn
                    ).finish()
                # Materialization advice tracks logical demand: answering
                # from history still counts as one more occurrence.
                self.advisor.observe(query.plan)
                if self.plan_observer is not None:
                    self.plan_observer(query.plan)
                return QueryOutcome(
                    sql=query.sql,
                    status="from_history",
                    query_index=query.index,
                    result=entry.result,
                    reason=(
                        f"identical query answered at turn {entry.turn}"
                        f" (agent {entry.agent_id})"
                    ),
                    estimated_cost=query.estimated_cost,
                )

        if precomputed is None:
            # Serial execution: engine-node spans nest directly under the
            # ambient decision span via the trace contextvar.
            precomputed = self.speculative_execute(decision, turn, memo=memo)
        else:
            # Speculated on a pool thread: the engine-node spans live under
            # the unit span; the decision span gets a provenance marker.
            ambient = obs_trace.current_span()
            if ambient is not None:
                ambient.child("engine:shared", source="speculation").finish()
        if precomputed.error is not None:
            return QueryOutcome(
                sql=query.sql,
                status="error",
                query_index=query.index,
                reason=precomputed.error,
            )
        result = precomputed.result
        assert result is not None

        self.advisor.observe(query.plan)
        if self.plan_observer is not None:
            self.plan_observer(query.plan)
        lenient = digests.lenient
        entry = HistoryEntry(
            turn=turn,
            agent_id=interpreted.probe.agent_id,
            sql=query.sql,
            result=result,
            lenient_fingerprint=lenient,
        )
        with self._lock:
            previous = self.lenient_history.get(lenient)
            similar_to_turn = previous.turn if previous is not None else None
            if decision.sample_rate >= 1.0:
                self.history[strict] = entry
            self.lenient_history[lenient] = entry

        status = "approximate" if decision.sample_rate < 1.0 else "ok"
        return QueryOutcome(
            sql=query.sql,
            status=status,
            query_index=query.index,
            result=result,
            sample_rate=decision.sample_rate,
            reason=decision.reason,
            estimated_cost=query.estimated_cost,
            similar_to_turn=similar_to_turn,
        )

    def invalidate(self) -> None:
        """Drop history after writes change the data."""
        with self._lock:
            self.history.clear()
            self.lenient_history.clear()
