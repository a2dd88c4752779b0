"""Sleeper agents: proactive steering from the data system to field agents.

Paper Sec. 4.2: the system should not just answer probes but *steer* agents
toward better ones. Three sleeper agents run alongside probe execution:

* :class:`WhyNotDiagnoser` — empty results get a why-not-provenance style
  diagnosis: which predicate killed every row, and what nearby literal
  would have matched (the paper's "'CA' vs states listed out in entirety"
  example);
* :class:`JoinDiscovery` — related tables worth joining with or pivoting
  to, found by column-name and value-overlap evidence;
* :class:`CostAdvisor` — pre-execution cost estimates, narrowing and
  batching suggestions, and pointers to already-cached answers.

Each produces plain-language strings — the side-channel an LLM agent would
read alongside rows.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass

from repro.db import Database
from repro.plan import logical
from repro.sql import nodes
from repro.storage.types import Value
from repro.util.text import singularize

#: How many most-common values to scan for near-miss literal suggestions.
_SUGGESTION_POOL = 10


# ---------------------------------------------------------------------------
# why-not provenance
# ---------------------------------------------------------------------------


@dataclass
class WhyNotFinding:
    """One diagnosed reason a query returned nothing."""

    conjunct_sql: str
    table: str
    column: str | None
    matched_rows: int
    suggestion: str | None

    def message(self) -> str:
        base = (
            f"your predicate {self.conjunct_sql} matched {self.matched_rows} rows"
            f" in {self.table}"
        )
        if self.suggestion:
            return f"{base}; {self.suggestion}"
        return base


class WhyNotDiagnoser:
    """Explains empty results by testing filter conjuncts in isolation."""

    def __init__(self, db: Database) -> None:
        self._db = db

    def diagnose(self, plan: logical.PlanNode) -> list[WhyNotFinding]:
        findings: list[WhyNotFinding] = []
        for node in plan.walk():
            if not isinstance(node, logical.Filter):
                continue
            scan = self._scan_below(node.child)
            if scan is None:
                continue
            for conjunct in _split_conjuncts(node.predicate):
                finding = self._test_conjunct(conjunct, scan)
                if finding is not None:
                    findings.append(finding)
        # IndexScans encode the predicate in the scan itself.
        for node in plan.walk():
            if isinstance(node, logical.IndexScan) and node.is_equality:
                finding = self._test_index_equality(node)
                if finding is not None:
                    findings.append(finding)
        return findings

    def _scan_below(self, node: logical.PlanNode) -> logical.Scan | None:
        if isinstance(node, logical.Scan):
            return node
        if isinstance(node, logical.Filter):
            return self._scan_below(node.child)
        return None

    def _test_conjunct(
        self, conjunct: nodes.Expr, scan: logical.Scan
    ) -> WhyNotFinding | None:
        column, literal = _column_literal(conjunct)
        if column is None:
            return None
        matched = self._count_matching(scan.table, conjunct)
        if matched > 0:
            return None
        suggestion = None
        if isinstance(literal, str):
            suggestion = self._literal_suggestion(scan.table, column, literal)
        return WhyNotFinding(
            conjunct_sql=conjunct.sql(),
            table=scan.table,
            column=column,
            matched_rows=0,
            suggestion=suggestion,
        )

    def _test_index_equality(self, scan: logical.IndexScan) -> WhyNotFinding | None:
        predicate = nodes.Binary(
            "=",
            nodes.ColumnRef(column=scan.index_column),
            nodes.Literal(scan.equal_value),
        )
        matched = self._count_matching(scan.table, predicate)
        if matched > 0:
            return None
        suggestion = None
        if isinstance(scan.equal_value, str):
            suggestion = self._literal_suggestion(
                scan.table, scan.index_column, scan.equal_value
            )
        return WhyNotFinding(
            conjunct_sql=predicate.sql(),
            table=scan.table,
            column=scan.index_column,
            matched_rows=0,
            suggestion=suggestion,
        )

    def _count_matching(self, table: str, conjunct: nodes.Expr) -> int:
        sql = f"SELECT COUNT(*) FROM {table} WHERE {conjunct.sql()}"
        try:
            return int(self._db.execute(sql).first_value())
        except Exception:
            return 1  # cannot verify -> do not accuse this conjunct

    def _literal_suggestion(
        self, table: str, column: str, literal: str
    ) -> str | None:
        """Find how the column actually encodes values close to ``literal``."""
        stats = self._db.catalog.stats(table).column(column)
        if stats is None:
            return None
        candidates = [
            value
            for value, _ in stats.most_common[:_SUGGESTION_POOL]
            if isinstance(value, str)
        ]
        if not candidates:
            return None
        lowered = literal.lower()
        # Containment either way catches abbreviation-vs-full-name mismatches.
        for value in candidates:
            if lowered != value.lower() and (
                lowered in value.lower() or value.lower().startswith(lowered)
            ):
                return (
                    f"values in {table}.{column} are stored like {value!r},"
                    f" not {literal!r}"
                )
        close = difflib.get_close_matches(
            literal, candidates, n=1, cutoff=0.5
        )
        if close:
            return (
                f"did you mean {close[0]!r}? {table}.{column} has no"
                f" value {literal!r}"
            )
        sample = ", ".join(repr(v) for v in candidates[:3])
        return f"{table}.{column} contains values like {sample}"


# ---------------------------------------------------------------------------
# join / related-table discovery
# ---------------------------------------------------------------------------


@dataclass
class JoinSuggestion:
    source_table: str
    source_column: str
    target_table: str
    target_column: str
    value_overlap: float

    def message(self) -> str:
        return (
            f"{self.source_table}.{self.source_column} joins"
            f" {self.target_table}.{self.target_column}"
            f" (value overlap {self.value_overlap:.0%})"
        )


class JoinDiscovery:
    """Finds tables related to the ones a probe touched (paper's [14])."""

    def __init__(self, db: Database, sample_size: int = 200) -> None:
        self._db = db
        self._sample_size = sample_size
        #: (catalog version, {(table, limit): suggestions}): exploration
        #: probes of a swarm ask about the same few tables, and every
        #: answer re-samples column values from storage. One attribute, so
        #: a reader never pairs a stamp with another version's answers.
        self._memo: tuple[tuple | None, dict] = (None, {})

    def related_tables(self, table: str, limit: int = 3) -> list[JoinSuggestion]:
        version = self._db.catalog.version()
        stamp, memo = self._memo
        if stamp != version:
            memo = {}
            self._memo = (version, memo)
        suggestions = memo.get((table, limit))
        if suggestions is None:
            suggestions = memo[(table, limit)] = self._discover(table, limit)
        return list(suggestions)

    def _discover(self, table: str, limit: int) -> list[JoinSuggestion]:
        if not self._db.catalog.has_table(table):
            return []
        suggestions: list[JoinSuggestion] = []
        source_schema = self._db.catalog.table(table).schema
        for other_name in self._db.table_names():
            if other_name.lower() == table.lower():
                continue
            other_schema = self._db.catalog.table(other_name).schema
            for source_col in source_schema.columns:
                for target_col in other_schema.columns:
                    if not self._names_joinable(
                        table, source_col.name, other_name, target_col.name
                    ):
                        continue
                    overlap = self._value_overlap(
                        table, source_col.name, other_name, target_col.name
                    )
                    if overlap > 0.05:
                        suggestions.append(
                            JoinSuggestion(
                                source_table=table,
                                source_column=source_col.name,
                                target_table=other_name,
                                target_column=target_col.name,
                                value_overlap=overlap,
                            )
                        )
        suggestions.sort(key=lambda s: (-s.value_overlap, s.target_table))
        deduped: list[JoinSuggestion] = []
        seen_targets: set[str] = set()
        for suggestion in suggestions:
            if suggestion.target_table in seen_targets:
                continue
            seen_targets.add(suggestion.target_table)
            deduped.append(suggestion)
        return deduped[:limit]

    def _names_joinable(
        self, source_table: str, source: str, target_table: str, target: str
    ) -> bool:
        s, t = source.lower(), target.lower()
        if s == t and s not in ("name", "description", "created_at"):
            return True
        # foo.id <-> bar.foo_id naming convention, both directions.
        if t == f"{singularize(source_table)}_{s}":
            return True
        if s == f"{singularize(target_table)}_{t}":
            return True
        return False

    def _value_overlap(
        self, source_table: str, source: str, target_table: str, target: str
    ) -> float:
        source_values = self._sample_values(source_table, source)
        target_values = self._sample_values(target_table, target)
        if not source_values or not target_values:
            return 0.0
        return len(source_values & target_values) / len(source_values)

    def _sample_values(self, table: str, column: str) -> set[Value]:
        stored = self._db.catalog.table(table)
        position = stored.schema.position_of(column)
        values: set[Value] = set()
        for row in stored.scan():
            value = row[position]
            if value is not None:
                values.add(value)
            if len(values) >= self._sample_size:
                break
        return values


# ---------------------------------------------------------------------------
# cost advisor
# ---------------------------------------------------------------------------


class CostAdvisor:
    """Cost estimates and efficiency feedback (paper Sec. 4.2)."""

    def __init__(self, db: Database, expensive_threshold: float = 50_000.0) -> None:
        self._db = db
        self._expensive_threshold = expensive_threshold
        #: (agent_id -> recent single-query probe tables) for batching hints.
        self._recent_tables: dict[str, list[str]] = {}

    def pre_execution_feedback(
        self, agent_id: str, estimated_cost: float, max_cost: float | None, sql: str
    ) -> list[str]:
        feedback: list[str] = []
        threshold = max_cost if max_cost is not None else self._expensive_threshold
        if estimated_cost > threshold:
            feedback.append(
                f"estimated cost {estimated_cost:.0f} work units exceeds"
                f" {threshold:.0f}; consider narrowing the predicate, adding"
                f" a LIMIT, or requesting a lower accuracy in the brief"
            )
        return feedback

    def observe_probe(self, agent_id: str, tables: list[str], query_count: int) -> list[str]:
        """Detect a stream of small sequential probes hitting the same data."""
        history = self._recent_tables.setdefault(agent_id, [])
        feedback: list[str] = []
        if query_count == 1 and tables:
            history.extend(tables)
            if len(history) >= 3 and len(set(history[-3:])) == 1:
                feedback.append(
                    f"you have issued {len(history)} sequential probes on"
                    f" {history[-1]!r}; batching them into one multi-query probe"
                    " would share scan work"
                )
        else:
            history.clear()
        return feedback


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _split_conjuncts(expr: nodes.Expr) -> list[nodes.Expr]:
    if isinstance(expr, nodes.Binary) and expr.op == "AND":
        return _split_conjuncts(expr.left) + _split_conjuncts(expr.right)
    return [expr]


def _column_literal(expr: nodes.Expr) -> tuple[str | None, Value]:
    """(column, literal) for simple comparison conjuncts, else (None, None)."""
    if isinstance(expr, nodes.Binary) and expr.op in ("=", "<", "<=", ">", ">=", "LIKE"):
        left, right = expr.left, expr.right
        if isinstance(left, nodes.ColumnRef) and isinstance(right, nodes.Literal):
            return left.column, right.value
        if isinstance(right, nodes.ColumnRef) and isinstance(left, nodes.Literal):
            return right.column, left.value
    if isinstance(expr, nodes.InList) and isinstance(expr.operand, nodes.ColumnRef):
        literals = [i.value for i in expr.items if isinstance(i, nodes.Literal)]
        if literals:
            return expr.operand.column, literals[0]
    return None, None


# ---------------------------------------------------------------------------
# overload / backend-health notices (the QoS layer's steering vocabulary)
# ---------------------------------------------------------------------------
#
# Degradation must be legible to the agent: every QoS action that changes
# what a response would otherwise have been carries one of these lines.
# They are plain prose with machine-greppable anchors ("system under
# load", "excluded from", "circuit breaker") so both humans and agent
# parsers can key off them.


def overload_notice(cause: str, action: str) -> str:
    """One steering line naming an overload degradation and its cause."""
    return f"system under load ({cause}): {action}"


def breaker_exclusion_notice(backend: str, cooldown_remaining: float) -> str:
    """One steering line for a federation member tripped out of a plan."""
    return (
        f"backend {backend!r} excluded from the plan: circuit breaker open"
        f" ({max(0.0, cooldown_remaining):.1f}s until the next recovery"
        " probe); re-plan without it or retry later"
    )
