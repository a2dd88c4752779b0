"""Multi-query optimization: shared execution across redundant probes.

Figure 2 shows 80-90% of sub-plans across parallel attempts are duplicates.
The shared-work machinery here exploits that: a batch executor runs many
plans against one subplan memo, a dict that lives for one batch, so every
distinct (strict-fingerprint) subtree materialises once. The
:class:`SharingReport` quantifies the saving — the unit the A1 ablation
bench reports.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.db import Database
from repro.engine.columnar import ColumnarExecutor
from repro.engine.executor import ExecContext
from repro.engine.result import QueryResult
from repro.plan.fingerprint import fingerprints, subexpressions
from repro.plan.logical import PlanNode


@dataclass
class SharingReport:
    """Work accounting for a batch executed with and without sharing.

    Batches come in two shapes: a list of plans from one caller (the
    original :class:`BatchExecutor` surface) and an admission batch of
    probes from many concurrent agents (the scheduler's surface). The
    agent-level fields quantify the paper's cross-agent claim directly:
    how many distinct agents contributed, and how many distinct subplans
    were demanded by more than one of them.
    """

    queries: int = 0
    #: Number of probes in the batch (equals ``queries`` for plain plan
    #: batches, where each plan stands alone).
    probes: int = 0
    #: Distinct agents that contributed at least one executable plan.
    agents: int = 0
    total_subplans: int = 0
    distinct_subplans: int = 0
    #: Distinct subplans demanded by two or more *different* agents — the
    #: work that cross-agent scheduling (vs per-agent caching) saves.
    cross_agent_subplans: int = 0
    rows_processed_shared: int = 0
    rows_processed_unshared: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def duplicate_fraction(self) -> float:
        if self.total_subplans == 0:
            return 0.0
        return 1.0 - self.distinct_subplans / self.total_subplans

    @property
    def work_saved_fraction(self) -> float:
        if self.rows_processed_unshared == 0:
            return 0.0
        return 1.0 - self.rows_processed_shared / self.rows_processed_unshared


@dataclass
class BatchOutcome:
    results: list[QueryResult] = field(default_factory=list)
    report: SharingReport = field(default_factory=SharingReport)


class BatchExecutor:
    """Executes plan batches with cross-query subplan sharing.

    Each :meth:`execute_plans` call shares work through its own memo, so
    nothing carries over from one batch to the next.
    """

    def __init__(self, db: Database) -> None:
        self._db = db

    def execute_plans(
        self,
        plans: list[PlanNode],
        measure_unshared: bool = False,
        agent_ids: list[str] | None = None,
    ) -> BatchOutcome:
        outcome = BatchOutcome()
        report = outcome.report
        report.queries = len(plans)
        report.probes = len(plans)

        census = subplan_census(plans, agent_ids)
        report.total_subplans = census.total
        report.distinct_subplans = census.distinct
        report.agents = census.agents
        report.cross_agent_subplans = census.cross_agent

        memo: dict = {}
        for plan in plans:
            context = ExecContext(cache=memo)
            result = ColumnarExecutor(self._db.catalog, context).run(plan)
            outcome.results.append(result)
            report.rows_processed_shared += context.stats.rows_processed
            report.cache_hits += context.stats.cache_hits
            report.cache_misses += context.stats.cache_misses

        if measure_unshared:
            for plan in plans:
                context = ExecContext()
                ColumnarExecutor(self._db.catalog, context).run(plan)
                report.rows_processed_unshared += context.stats.rows_processed
        return outcome

    def execute_sql(
        self,
        queries: list[str],
        measure_unshared: bool = False,
        agent_ids: list[str] | None = None,
    ) -> BatchOutcome:
        plans = [self._db.plan_select(sql) for sql in queries]
        return self.execute_plans(
            plans, measure_unshared=measure_unshared, agent_ids=agent_ids
        )


@dataclass
class SubplanCensus:
    """Counts of (lenient-fingerprint) subplans across a batch of plans."""

    total: int = 0
    distinct: int = 0
    agents: int = 0
    cross_agent: int = 0


def subplan_census(
    plans: list[PlanNode], agent_ids: list[str] | None = None
) -> SubplanCensus:
    """Fingerprint every subtree of every plan; count duplication.

    With ``agent_ids`` (parallel to ``plans``), also counts how many
    distinct subplans were demanded by two or more different agents —
    Figure 2's cross-agent redundancy, measured on a live batch.
    """
    fingerprints: Counter[str] = Counter()
    agents_by_fingerprint: dict[str, set[str]] = {}
    for index, plan in enumerate(plans):
        agent = agent_ids[index] if agent_ids is not None else str(index)
        for sub in subexpressions(plan):
            fingerprints[sub.fingerprint] += 1
            agents_by_fingerprint.setdefault(sub.fingerprint, set()).add(agent)
    census = SubplanCensus(
        total=sum(fingerprints.values()),
        distinct=len(fingerprints),
        agents=len(set(agent_ids)) if agent_ids else len(plans),
        cross_agent=sum(
            1 for agents in agents_by_fingerprint.values() if len(agents) > 1
        ),
    )
    return census


class MaterializationSuggestion(NamedTuple):
    """One deduplicated, ranked materialization suggestion.

    Supersedes the old raw ``(fingerprint, count, description)`` tuples:
    indexes 0 and 1 are unchanged, but ``description`` moved from [2] to
    [3] to make room for the subtree ``size``, and ``materialized`` says
    whether the sleeper-agent runtime has already built this subplan as a
    view — prefer the named fields over positional unpacking.
    """

    fingerprint: str
    count: int
    size: int
    description: str
    materialized: bool


@dataclass(frozen=True)
class MaterializationCandidate:
    """An advisor candidate with enough context to actually build the view."""

    fingerprint: str  # lenient digest — the dedupe key
    strict_fingerprint: str  # of the representative plan below
    count: int
    size: int
    description: str
    plan: PlanNode  # first-observed representative subtree


class MaterializationAdvisor:
    """Observes plan history; suggests materializing hot subplans.

    Implements the paper's inter-probe "decide to materialize the join"
    idea (Sec. 5.2.2): subplans (of meaningful size) that recur across
    probes/turns become materialization candidates. Beyond the counters,
    the advisor retains the *first-observed representative plan* per
    lenient fingerprint, which is what lets the sleeper-agent maintenance
    runtime execute the subplan and register a materialized view instead
    of merely describing it.

    Thread-safe: ``observe`` is on the probe optimizer's execution path,
    which concurrent callers (and the scheduler's worker pool) may share,
    so the counters sit behind a lock.
    """

    def __init__(self, min_occurrences: int = 3, min_size: int = 2) -> None:
        self._min_occurrences = min_occurrences
        self._min_size = min_size
        self._counts: Counter[str] = Counter()
        self._descriptions: dict[str, str] = {}
        #: lenient fingerprint -> (representative plan, its strict digest,
        #: subtree size); plans are immutable, so holding them is safe.
        self._plans: dict[str, tuple[PlanNode, str, int]] = {}
        self._lock = threading.Lock()

    @property
    def min_occurrences(self) -> int:
        return self._min_occurrences

    def observe(self, plan: PlanNode) -> None:
        seen_this_plan: set[str] = set()
        with self._lock:
            for node in plan.walk():
                digests = fingerprints(node)
                if digests.size < self._min_size:
                    continue
                fingerprint = digests.lenient
                if fingerprint in seen_this_plan:
                    continue
                seen_this_plan.add(fingerprint)
                self._counts[fingerprint] += 1
                if fingerprint not in self._descriptions:
                    self._descriptions[fingerprint] = node.describe().splitlines()[0]
                    self._plans[fingerprint] = (node, digests.strict, digests.size)

    def suggestions(self) -> list[tuple[str, int, str]]:
        """(fingerprint, occurrences, description) above the threshold."""
        with self._lock:
            out = [
                (fingerprint, count, self._descriptions[fingerprint])
                for fingerprint, count in self._counts.items()
                if count >= self._min_occurrences
            ]
        out.sort(key=lambda item: (-item[1], item[0]))
        return out

    def candidates(
        self, min_occurrences: int | None = None
    ) -> list[MaterializationCandidate]:
        """Buildable candidates, deduplicated by lenient fingerprint and
        ranked by (occurrences, subtree size) descending."""
        threshold = (
            self._min_occurrences if min_occurrences is None else min_occurrences
        )
        with self._lock:
            out = [
                MaterializationCandidate(
                    fingerprint=fingerprint,
                    strict_fingerprint=self._plans[fingerprint][1],
                    count=count,
                    size=self._plans[fingerprint][2],
                    description=self._descriptions[fingerprint],
                    plan=self._plans[fingerprint][0],
                )
                for fingerprint, count in self._counts.items()
                if count >= threshold and fingerprint in self._plans
            ]
        out.sort(key=lambda c: (-c.count, -c.size, c.fingerprint))
        return out
