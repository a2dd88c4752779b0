"""Logical query plans: builder, optimizer rules, costs, fingerprints."""

from repro.plan.builder import build_plan
from repro.plan.compiled import (
    CompiledStatement,
    StatementCache,
    compile_select,
    compiled_estimate,
)
from repro.plan.cost import CostEstimate, estimate_cost
from repro.plan.fingerprint import (
    FINGERPRINT_STATS,
    NodeFingerprints,
    fingerprint,
    fingerprint_uncached,
    fingerprints,
    subexpressions,
)
from repro.plan.logical import (
    Aggregate,
    Distinct,
    Filter,
    HashJoin,
    IndexScan,
    Limit,
    NestedLoopJoin,
    OutputCol,
    PlanNode,
    Project,
    Scan,
    Sort,
    SubqueryScan,
    root_operator_code,
)
from repro.plan.rules import optimize_plan

__all__ = [
    "Aggregate",
    "CompiledStatement",
    "CostEstimate",
    "FINGERPRINT_STATS",
    "NodeFingerprints",
    "Distinct",
    "Filter",
    "HashJoin",
    "IndexScan",
    "Limit",
    "NestedLoopJoin",
    "OutputCol",
    "PlanNode",
    "Project",
    "Scan",
    "Sort",
    "StatementCache",
    "SubqueryScan",
    "build_plan",
    "compile_select",
    "compiled_estimate",
    "estimate_cost",
    "fingerprint",
    "fingerprint_uncached",
    "fingerprints",
    "optimize_plan",
    "root_operator_code",
    "subexpressions",
]
