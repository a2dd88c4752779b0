"""Cross-agent probe scheduling: serve the swarm, not the request.

The paper's central serving observation (Sec. 5.2.1, Fig. 2) is that
80-90% of sub-plans across concurrent agent probes are duplicates, so the
natural admission unit is the *batch of probes from many agents*, not one
probe. Batches reach this module from two directions: the streaming
admission gateway (:mod:`repro.core.gateway`) closes windows over probes
that arrived independently across agent sessions, and ``submit_many``
hands over a caller-assembled window directly. Either way,
:class:`ProbeScheduler` implements the serving path:

1. **Admission** — every probe in the batch is interpreted and satisficed
   up front; each gets its own turn number (admission order), exactly as
   if the probes had arrived serially.
2. **Shared-work census** — every executable sub-plan across all agents is
   fingerprinted (via :func:`repro.plan.fingerprint.subexpressions`), and
   the batch executes against one subplan memo, a plain dict created for
   this window and dropped when it ends, so each distinct subtree
   materialises once window-wide. The memo is valid by construction: the
   window holds the serve lock, so no write lands while it lives. Repeats
   across windows are the answered-before history's job. (With MQO
   disabled session-wide there is no memo, and the batch honours that:
   ablation baselines stay honest.)
3. **Parallel work-group execution** — the batch's independent engine work
   runs concurrently on a worker pool (below), then a serial replay
   re-imposes admission order on all observable bookkeeping.
4. **Fair dispatch** — queries are dispatched round-robin across probes so
   no agent waits behind another agent's whole probe; within each round,
   agents that have exhausted their :class:`~repro.core.brief.Brief`
   ``max_cost`` budget are deprioritised.
5. **Steering** — each probe's response carries the batch-level
   :class:`~repro.core.mqo.SharingReport` and cross-agent hints ("N other
   agents asked an equivalent query this turn").

Equivalence contract
--------------------

``submit_many([p1..pn])`` returns byte-identical per-query rows and
statuses to ``n`` serial ``submit`` calls on the same system — at every
worker count. The contract is kept by splitting each batch into a
*parallel execution phase* and a *serial replay phase*:

**What runs concurrently.** Executable queries are partitioned by lenient
fingerprint (the pull-forward index in ``_BatchRun.groups``). Within one
group, members must resolve serially-first-wins — the serially-first
occurrence of each strict fingerprint executes and lands in history, later
ones answer ``from_history``, and a merely-equivalent earlier query must
land in lenient history before a later one reads its "similar query
answered at turn N" pointer. *Distinct groups share no history keys*
(strict equality implies lenient equality, so all history interaction is
within a group), which makes their engine work independent. The scheduler
therefore speculatively executes exactly the engine runs serial dispatch
would perform: the serially-first occurrence per strict fingerprint not
already answered by session history, plus every sampled occurrence
(sampling bypasses history and draws seed-per-turn). Engine runs are pure
— results depend only on (plan, sample rate, seed, catalog); the window's
subplan memo only redistributes work, never changes rows — so concurrent
execution cannot change any answer.

**Where the units run.** The speculative phase runs on a per-batch
:class:`ThreadPoolExecutor` of ``workers`` threads (named
``probe-sched-*``) that share this process's catalog and the window's
memo. One lenient group's engine runs go to one thread, in serial order,
so a subtree shared inside a group is computed once, at every worker
count. Setup costs microseconds; real overlap of pure-Python engine work
needs a free-threaded build (the GIL serialises it otherwise). Threads
of different groups that race on the same subtree may both compute it;
answers are identical, only the work accounting grows.

**Where serial order is re-imposed.** After the speculative phase, the
original serial dispatch loop runs unchanged — round-robin with
demand-driven pull-forward (before a query resolves, any serially-earlier
group member is advanced first, in its own probe's order) — except that
``ProbeOptimizer.run_decision`` consumes the precomputed engine result
instead of re-executing. All order-sensitive effects happen here, in exact
serial order: history attribution, ``from_history`` statuses, lenient
"answered at turn N" pointers, termination-criterion calls (user code,
invoked exactly as often as serial submission), budget accounting, and
per-probe outcome order (restored via ``QueryOutcome.query_index``).
Termination can skip queries the speculative phase already ran; those
results are discarded — wasted work, never wrong answers — and a query
whose execution shifted to a different occurrence simply executes inline
during replay.

``workers=1`` (and any batch with fewer than two lenient groups to run)
skips speculation entirely, preserving today's serial loop exactly.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.core.interpreter import InterpretedProbe, ProbeInterpreter
from repro.core.mqo import SharingReport, subplan_census
from repro.core.optimizer import PrecomputedExecution, ProbeOptimizer
from repro.core.probe import Probe, QueryOutcome
from repro.core.satisfice import ExecutionDecision
from repro.engine.result import QueryResult
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricAttr, MetricsRegistry
from repro.plan.fingerprint import fingerprints

#: Environment override for the default worker count — lets CI run the
#: whole differential suite, unmodified, at several parallelism levels.
WORKERS_ENV_VAR = "REPRO_SCHEDULER_WORKERS"


def resolve_workers(workers: int | None) -> int:
    """Normalise a worker-count setting (None -> env override or CPU-based)."""
    if workers is None:
        env = os.environ.get(WORKERS_ENV_VAR)
        if env:
            workers = int(env)
        else:
            workers = min(8, os.cpu_count() or 1)
    return max(1, int(workers))


@dataclass
class ScheduledProbe:
    """One probe's progress through a batch dispatch."""

    index: int
    probe: Probe
    interpreted: InterpretedProbe
    turn: int
    decisions: list[ExecutionDecision]
    #: One slot per decision, filled as dispatch resolves it; replaced by
    #: the probe-declared-order outcome list when the batch completes.
    outcomes: list[QueryOutcome | None]
    results_so_far: list[QueryResult] = field(default_factory=list)
    terminated: bool = False
    next_position: int = 0
    #: Estimated engine cost of queries this probe has executed so far —
    #: the budget-fairness input, compared against ``brief.max_cost``.
    spent_cost: float = 0.0
    #: Batch-level steering extras (cross-agent equivalence, budget).
    hints: list[str] = field(default_factory=list)
    #: QoS degradation notices ("system under load, answer sampled at
    #: 10%"). Kept separate from ``hints``: these attach to the response
    #: even on systems with steering disabled — degraded service must be
    #: legible to the agent unconditionally.
    qos_notes: list[str] = field(default_factory=list)

    def pending(self) -> bool:
        return self.next_position < len(self.decisions)

    def over_budget(self) -> bool:
        budget = self.probe.brief.max_cost
        return budget is not None and self.spent_cost > budget


@dataclass
class ScheduledBatch:
    """What one admission batch produced: per-probe outcomes + accounting."""

    probes: list[ScheduledProbe]
    report: SharingReport


@dataclass
class _BatchRun:
    """Per-call dispatch state: nothing outlives the batch it served."""

    states: list[ScheduledProbe]
    #: Lenient fingerprint per executable (probe index, decision position),
    #: computed once at admission and reused by grouping, dispatch, and
    #: the cross-agent steering hints.
    lenient_fingerprints: dict[tuple[int, int], str]
    #: Executable queries grouped by lenient fingerprint, members serially
    #: sorted — the pull-forward index. Lenient equivalence subsumes
    #: strict duplication, so this preserves both history attribution and
    #: the "similar query answered at turn N" pointers.
    groups: dict[str, list[tuple[int, int]]]
    #: Speculatively-executed engine results, keyed by the (probe index,
    #: decision position) expected to consume each one during replay.
    precomputed: dict[tuple[int, int], PrecomputedExecution] = field(
        default_factory=dict
    )
    #: Per-probe ``scheduler:batch`` spans (probe index -> Span) for the
    #: traced probes in the batch — empty with tracing off.
    spans: dict[int, object] = field(default_factory=dict)
    #: The window's subplan memo (``subplan_cache_key`` -> ColumnBatch),
    #: shared by every engine run of this window; ``None`` with MQO off.
    memo: dict | None = None


class ProbeScheduler:
    """Dispatches admission batches of probes with cross-agent sharing.

    ``workers`` controls the speculative execution pool: ``None`` resolves
    to the ``REPRO_SCHEDULER_WORKERS`` environment override, else
    ``min(8, os.cpu_count())``; ``1`` disables speculation and preserves
    the serial dispatch loop exactly. ``enable_mqo=False`` serves every
    window without a subplan memo.

    ``memo_hits`` and ``memo_misses`` total the windows' memo lookups
    (published as ``repro_engine_subplan_cache_{hits,misses}``); windows
    are served one at a time, so plain integers suffice.
    """

    #: Batches served, queries dispatched, and engine runs performed by
    #: the speculative phase. Metric-backed attribute shims: reads and
    #: ``+=`` mutations go through the metrics registry while call sites
    #: keep the plain-counter spelling.
    batches_served = MetricAttr("_m_batches_served")
    queries_dispatched = MetricAttr("_m_queries_dispatched")
    speculative_executions = MetricAttr("_m_speculative_executions")

    def __init__(
        self,
        interpreter: ProbeInterpreter,
        optimizer: ProbeOptimizer,
        workers: int | None = None,
        registry: MetricsRegistry | None = None,
        enable_mqo: bool = True,
    ) -> None:
        self.interpreter = interpreter
        self.optimizer = optimizer
        self.workers = resolve_workers(workers)
        self.enable_mqo = enable_mqo
        self.memo_hits = 0
        self.memo_misses = 0
        self.metrics_registry = registry if registry is not None else MetricsRegistry()
        self._m_batches_served = self.metrics_registry.counter(
            "repro_scheduler_batches_served_total", "Admission batches served"
        ).bind()
        self._m_queries_dispatched = self.metrics_registry.counter(
            "repro_scheduler_queries_dispatched_total",
            "Query decisions resolved through dispatch",
        ).bind()
        self._m_speculative_executions = self.metrics_registry.counter(
            "repro_scheduler_speculative_executions_total",
            "Engine runs performed by the speculative phase",
        ).bind()
        self.batches_served = 0
        self.queries_dispatched = 0
        self.speculative_executions = 0

    # -- batch entry point -------------------------------------------------------

    def run_batch(
        self,
        probes: list[Probe],
        first_turn: int,
        degradations: list | None = None,
    ) -> ScheduledBatch:
        """Serve one admission batch.

        ``degradations`` (probe-aligned, entries ``None`` or a
        :class:`repro.qos.policy.Degradation`) carries the QoS layer's
        load-shedding verdicts: a ``"sample"`` verdict caps the probe's
        sample rates through the satisficer and attaches the verdict's
        steering line. Absent (the usual case), admission is unchanged.
        """
        states: list[ScheduledProbe] = []
        for index, probe in enumerate(probes):
            interpreted = self._interpret(probe)
            degradation = degradations[index] if degradations else None
            if degradation is not None and degradation.kind == "sample":
                decisions = self.optimizer.satisficer.decide(
                    interpreted,
                    sample_cap=degradation.sample_cap,
                    cap_reason=f"load shed: {degradation.cause}",
                )
                qos_notes = [degradation.steering()]
            else:
                decisions = self.optimizer.satisficer.decide(interpreted)
                qos_notes = []
            states.append(
                ScheduledProbe(
                    index=index,
                    probe=probe,
                    interpreted=interpreted,
                    turn=first_turn + index,
                    decisions=decisions,
                    outcomes=[None] * len(decisions),
                    qos_notes=qos_notes,
                )
            )
        run = self._plan_run(states)
        for state in states:
            trace = obs_trace.probe_trace(state.probe)
            if trace is None:
                continue
            run.spans[state.index] = trace.root.child(
                "scheduler:batch",
                turn=state.turn,
                batch_size=len(probes),
                workers=self.workers,
            )
            degradation = degradations[state.index] if degradations else None
            if degradation is not None:
                # The QoS shedding verdict, legible on the trace itself.
                trace.root.child(
                    "qos:shed",
                    kind=degradation.kind,
                    cause=degradation.cause,
                    sample_cap=degradation.sample_cap,
                    staleness=degradation.staleness,
                ).finish()
        if self.workers > 1:
            self._speculate(run)

        # Round-robin across probes at query granularity; within a round,
        # over-budget agents go last (admission order breaks ties).
        rounds = max((len(state.decisions) for state in states), default=0)
        for round_no in range(rounds):
            order = sorted(states, key=lambda s: (s.over_budget(), s.index))
            for state in order:
                while state.pending() and state.next_position <= round_no:
                    self._dispatch_next(run, state)
        for state in states:  # drain any stragglers (defensive; none expected)
            while state.pending():
                self._dispatch_next(run, state)

        for span in run.spans.values():
            span.finish()
        report = self._build_report(run)
        self.memo_hits += report.cache_hits
        self.memo_misses += report.cache_misses
        self._attach_hints(run)
        for state in states:
            resolved = [outcome for outcome in state.outcomes if outcome is not None]
            resolved.sort(key=lambda o: o.query_index)
            state.outcomes = resolved

        self.batches_served += 1
        return ScheduledBatch(probes=states, report=report)

    def _interpret(self, probe: Probe) -> InterpretedProbe:
        trace = obs_trace.probe_trace(probe)
        if trace is None:
            return self.interpreter.interpret(probe)
        # Traced probe: interpretation becomes a span, and being ambient
        # lets the plan layer hang one ``plan:compile`` child per
        # statement under it (``plan_cache=hit|miss``).
        span = trace.root.child("scheduler:interpret", queries=len(probe.queries))
        token = obs_trace.set_current(span)
        try:
            return self.interpreter.interpret(probe)
        finally:
            obs_trace.reset_current(token)
            span.finish()

    def _plan_run(self, states: list[ScheduledProbe]) -> _BatchRun:
        lenient_fingerprints: dict[tuple[int, int], str] = {}
        groups: dict[str, list[tuple[int, int]]] = {}
        for state in states:
            for position, decision in enumerate(state.decisions):
                if decision.action != "execute" or decision.query.plan is None:
                    continue
                lenient = fingerprints(decision.query.plan).lenient
                lenient_fingerprints[(state.index, position)] = lenient
                groups.setdefault(lenient, []).append((state.index, position))
        for members in groups.values():
            members.sort()
        return _BatchRun(
            states=states,
            lenient_fingerprints=lenient_fingerprints,
            groups=groups,
            memo={} if self.enable_mqo else None,
        )

    # -- speculative parallel execution ------------------------------------------

    def _speculate(self, run: _BatchRun) -> None:
        """Run the batch's independent engine work on the worker pool.

        One pool task per lenient group, running the group's units in
        serial order: independent groups overlap, and a subtree shared
        inside a group is computed once, whatever the worker count.
        """
        units = self._select_units(run)
        tasks: dict[str, list[tuple[int, int]]] = {}
        for unit in units:
            tasks.setdefault(run.lenient_fingerprints[unit], []).append(unit)
        if len(tasks) < 2:
            return  # nothing to overlap; let the serial loop execute inline
        self._speculate_threads(run, list(tasks.values()))

    def _select_units(self, run: _BatchRun) -> list[tuple[int, int]]:
        """Exactly the engine runs serial dispatch would perform.

        Per strict fingerprint, the serially-first executable occurrence
        not already answered by session history (group members resolve in
        (probe, position) order, so the claim order below matches serial
        resolution order); every sampled occurrence runs, since sampling
        bypasses history and seeds by turn. Results are keyed by the
        occurrence expected to consume them; termination may strand a few
        (discarded) or shift execution to a later occurrence (which then
        executes inline during replay).
        """
        optimizer = self.optimizer
        if optimizer.enable_history:
            with optimizer._lock:
                answered = set(optimizer.history)
        else:
            answered = set()
        claimed: set[str] = set()
        units: list[tuple[int, int]] = []
        for state in run.states:
            for position, decision in enumerate(state.decisions):
                if decision.action != "execute" or decision.query.plan is None:
                    continue
                if decision.sample_rate >= 1.0 and optimizer.enable_history:
                    strict = fingerprints(decision.query.plan).strict
                    if strict in answered or strict in claimed:
                        continue  # replay answers this one from history
                    claimed.add(strict)
                units.append((state.index, position))
        return units

    def _speculate_threads(
        self, run: _BatchRun, tasks: list[list[tuple[int, int]]]
    ) -> None:
        """Shared catalog and memo, per-batch pool.

        A pool per batch: threads never outlive the work they served
        (schedulers are as numerous as systems; leaked idle workers
        would pile up), and spawn cost is noise next to engine runs.
        """
        optimizer = self.optimizer
        memo = run.memo

        def run_unit(decision, turn, span):
            # Pool threads inherit no trace context: re-anchor the ambient
            # span to the unit span pre-created on the coordinator thread
            # (so only this thread ever appends inside the unit's subtree).
            if span is None:
                return optimizer.speculative_execute(decision, turn, memo=memo)
            token = obs_trace.set_current(span)
            try:
                return optimizer.speculative_execute(decision, turn, memo=memo)
            finally:
                obs_trace.reset_current(token)
                span.finish()

        def run_task(jobs):
            return [run_unit(*job) for job in jobs]

        with ThreadPoolExecutor(
            max_workers=min(self.workers, len(tasks)),
            thread_name_prefix="probe-sched",
        ) as pool:
            futures = []
            for task in tasks:
                jobs = []
                for index, position in task:
                    parent = run.spans.get(index)
                    span = (
                        parent.child("speculate:unit", position=position)
                        if parent is not None
                        else None
                    )
                    state = run.states[index]
                    jobs.append((state.decisions[position], state.turn, span))
                futures.append((task, pool.submit(run_task, jobs)))
            for task, future in futures:
                run.precomputed.update(zip(task, future.result()))
        self.speculative_executions += sum(len(task) for task in tasks)

    # -- dispatch ----------------------------------------------------------------

    def _dispatch_next(self, run: _BatchRun, state: ScheduledProbe) -> None:
        position = state.next_position
        state.next_position += 1
        decision = state.decisions[position]
        query = decision.query
        executable = decision.action == "execute" and query.plan is not None
        was_terminated = state.terminated

        if executable and not was_terminated:
            self._resolve_providers(run, state, position)

        if executable and state.terminated:
            outcome = QueryOutcome(
                sql=query.sql,
                status="terminated",
                query_index=query.index,
                reason="termination criterion satisfied by earlier results",
                estimated_cost=query.estimated_cost,
            )
        else:
            parent = run.spans.get(state.index)
            precomputed = run.precomputed.pop((state.index, position), None)
            if parent is None:
                outcome = self.optimizer.run_decision(
                    state.interpreted,
                    decision,
                    state.turn,
                    precomputed=precomputed,
                    memo=run.memo,
                )
            else:
                span = parent.child(
                    f"decision:q{query.index}",
                    action=decision.action,
                    sample_rate=decision.sample_rate,
                )
                token = obs_trace.set_current(span)
                try:
                    outcome = self.optimizer.run_decision(
                        state.interpreted,
                        decision,
                        state.turn,
                        precomputed=precomputed,
                        memo=run.memo,
                    )
                finally:
                    obs_trace.reset_current(token)
                    span.finish()
                span.attrs["status"] = outcome.status
        state.outcomes[position] = outcome
        self.queries_dispatched += 1

        if outcome.result is not None:
            state.results_so_far.append(outcome.result)
        if outcome.executed:
            state.spent_cost += query.estimated_cost
        # The criterion is user code: call it exactly when a serial submit
        # would — after a dispatched execute decision, never again once it
        # has fired (stateful/time-based criteria observe the call count).
        if executable and not was_terminated and not state.terminated:
            state.terminated = self.optimizer.check_termination(
                state.interpreted, state.results_so_far
            )

    def _resolve_providers(
        self, run: _BatchRun, state: ScheduledProbe, position: int
    ) -> None:
        """Advance every serially-earlier equivalent of this query first.

        This is the pull-forward that keeps batch responses identical to
        serial submission: the serially-first duplicate must be the one
        that executes (and lands in history), and a merely-equivalent
        earlier query must land in lenient history before this one reads
        it — no matter which agent's dispatch slot demanded work first.
        """
        me = (state.index, position)
        lenient = run.lenient_fingerprints.get(me)
        if lenient is None:
            return
        for member in run.groups.get(lenient, ()):
            if member >= me:
                break  # members are serially sorted; the rest come after us
            provider = run.states[member[0]]
            while provider.next_position <= member[1]:
                self._dispatch_next(run, provider)

    # -- accounting + steering ----------------------------------------------------

    def _build_report(self, run: _BatchRun) -> SharingReport:
        plans = []
        agent_ids = []
        for state in run.states:
            for decision in state.decisions:
                if decision.action == "execute" and decision.query.plan is not None:
                    plans.append(decision.query.plan)
                    agent_ids.append(state.probe.agent_id)
        census = subplan_census(plans, agent_ids)
        executed = [
            outcome.result
            for state in run.states
            for outcome in state.outcomes
            if outcome is not None and outcome.executed and outcome.result is not None
        ]
        # Every engine run of the window either fed an executed outcome or
        # was stranded by termination: together they tally the memo.
        runs = executed + [
            stranded.result
            for stranded in run.precomputed.values()
            if stranded.result is not None
        ]
        return SharingReport(
            # All submitted queries, matching BatchExecutor's semantics for
            # the same field; the census below covers the plannable ones.
            queries=sum(len(state.interpreted.queries) for state in run.states),
            probes=len(run.states),
            agents=census.agents,
            total_subplans=census.total,
            distinct_subplans=census.distinct,
            cross_agent_subplans=census.cross_agent,
            rows_processed_shared=sum(r.stats.rows_processed for r in executed),
            cache_hits=sum(r.stats.cache_hits for r in runs),
            cache_misses=sum(r.stats.cache_misses for r in runs),
        )

    @staticmethod
    def _shared_groups(run: _BatchRun) -> set[str]:
        """Lenient groups that really shared work in this window.

        A group shared when one of its engine runs hit the window's memo,
        or when a member was answered from history with a result this
        window computed.
        """
        computed = {
            id(outcome.result)
            for state in run.states
            for outcome in state.outcomes
            if outcome is not None and outcome.executed
        }
        shared: set[str] = set()
        for (index, position), lenient in run.lenient_fingerprints.items():
            outcome = run.states[index].outcomes[position]
            if outcome is None or outcome.result is None:
                continue
            if outcome.executed:
                if outcome.result.stats.cache_hits:
                    shared.add(lenient)
            elif outcome.status == "from_history" and id(outcome.result) in computed:
                shared.add(lenient)
        return shared

    def _attach_hints(self, run: _BatchRun) -> None:
        """Cross-agent equivalence + budget hints, per probe."""
        asked_by: dict[str, set[str]] = {}
        for (index, _), lenient in run.lenient_fingerprints.items():
            asked_by.setdefault(lenient, set()).add(run.states[index].probe.agent_id)
        # MQO off: equivalent asks happened, but nothing is claimed shared.
        shared = self._shared_groups(run) if run.memo is not None else set()
        for state in run.states:
            for position, decision in enumerate(state.decisions):
                lenient = run.lenient_fingerprints.get((state.index, position))
                if lenient is None:
                    continue
                others = asked_by[lenient] - {state.probe.agent_id}
                if others:
                    clause = (
                        "; the work was computed once and shared batch-wide"
                        if lenient in shared
                        else ""
                    )
                    state.hints.append(
                        f"{len(others)} other agent(s) asked a query equivalent"
                        f" to {decision.query.sql[:50]!r} this turn{clause}"
                    )
        for state in run.states:
            if state.over_budget():
                state.hints.append(
                    f"batch budget: estimated cost {state.spent_cost:.0f}"
                    f" exceeded the brief's max_cost"
                    f" {state.probe.brief.max_cost:.0f}; this agent's queries"
                    " were deprioritised in later dispatch rounds"
                )
