"""The probe interpreter: the in-database "agent" that reads briefs.

Takes a raw :class:`~repro.core.probe.Probe` and produces an
:class:`InterpretedProbe`: parsed plans, per-query priorities, the inferred
phase, and the accuracy contract each query must meet. This is the
deterministic stand-in for the paper's LLM probe-interpreter component —
the interface (NL brief in, execution guidance out) is the paper's; the
implementation is keyword rules plus the cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.brief import Brief, Phase
from repro.core.probe import Probe
from repro.db import Database
from repro.errors import ReproError
from repro.plan.compiled import compiled_estimate
from repro.plan.logical import PlanNode

#: Default sampling rates by phase: exploration tolerates coarse answers,
#: solution formulation needs exact ones (paper Sec. 5.2.1 "return coarse
#: grain approximations during exploration").
PHASE_SAMPLE_RATES = {
    Phase.METADATA_EXPLORATION: 0.25,
    Phase.SOLUTION_FORMULATION: 1.0,
    Phase.VALIDATION: 1.0,
}

#: Queries cheaper than this (estimated work units) always run exactly:
#: sampling tiny queries saves nothing and costs accuracy.
EXACT_THRESHOLD = 512.0


@dataclass
class PlannedQuery:
    """One query of a probe, parsed, planned, and annotated."""

    index: int
    sql: str
    plan: PlanNode | None
    priority: float
    estimated_rows: float
    estimated_cost: float
    sample_rate: float
    parse_error: str | None = None


@dataclass
class InterpretedProbe:
    """The interpreter's reading of a probe."""

    probe: Probe
    phase: Phase
    queries: list[PlannedQuery] = field(default_factory=list)

    def executable(self) -> list[PlannedQuery]:
        return [q for q in self.queries if q.plan is not None]


class ProbeInterpreter:
    """Parses briefs and plans queries for the probe optimizer."""

    def __init__(self, db: Database) -> None:
        self._db = db

    def interpret(self, probe: Probe) -> InterpretedProbe:
        phase = probe.brief.infer_phase()
        interpreted = InterpretedProbe(probe=probe, phase=phase)
        for index, sql in enumerate(probe.queries):
            interpreted.queries.append(self._plan_query(index, sql, probe.brief, phase))
        return interpreted

    def _plan_query(
        self, index: int, sql: str, brief: Brief, phase: Phase
    ) -> PlannedQuery:
        # The plan comes out of the database's statement cache (failures
        # included) and carries its estimate memo, so a swarm repeating a
        # statement shares both; only the brief-derived annotations are
        # built per probe.
        try:
            plan = self._db.plan_select(sql)
        except ReproError as exc:
            return PlannedQuery(
                index=index,
                sql=sql,
                plan=None,
                priority=brief.priority_of(index),
                estimated_rows=0.0,
                estimated_cost=0.0,
                sample_rate=1.0,
                parse_error=str(exc),
            )
        estimate = compiled_estimate(plan, self._db.catalog)
        return PlannedQuery(
            index=index,
            sql=sql,
            plan=plan,
            priority=brief.priority_of(index),
            estimated_rows=estimate.rows,
            estimated_cost=estimate.cost,
            sample_rate=self._sample_rate(brief, phase, estimate.cost),
        )

    def _sample_rate(self, brief: Brief, phase: Phase, cost: float) -> float:
        """Accuracy contract -> sampling rate.

        Explicit accuracy wins; otherwise phase defaults apply. Cheap
        queries run exactly regardless — approximation only pays when
        there is real work to skip.
        """
        if brief.accuracy is not None:
            rate = max(min(brief.accuracy, 1.0), 0.05)
        else:
            rate = PHASE_SAMPLE_RATES[phase]
        if cost <= EXACT_THRESHOLD:
            return 1.0
        if brief.max_cost is not None and cost > brief.max_cost:
            # Over budget: push approximation harder (never below 5%).
            squeeze = max(brief.max_cost / cost, 0.05)
            rate = min(rate, squeeze)
        return rate
