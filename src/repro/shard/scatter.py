"""Scatter-gather compilation for cross-shard probes.

A probe that addresses a *partitioned* table from the wrong shard (or
from no shard in particular) cannot be answered locally: each shard holds
only its slice of the rows. Eligible queries compile to a scatter plan —
the same (or a rewritten) statement runs on every shard, and the router
merges the partials:

* Scan/Filter/Project pipelines (no aggregates): each shard runs the
  original SQL verbatim; the merged result is the concatenation of the
  shard results in shard order.
* Aggregates: COUNT/SUM/MIN/MAX ship as-is (their partials merge with
  sum/sum/min/max); AVG(x) is decomposed into SUM(x) + COUNT(x) partial
  columns and re-assembled at the router as ``sum(sums) / sum(counts)``.
  GROUP BY groups merge by key tuple, output in first-seen order scanning
  shards in shard order (deterministic: shard order and per-shard row
  order are both fixed).

Merge semantics mirror :mod:`repro.engine.aggregates` exactly — SUM/AVG
over zero rows is ``None`` (so an empty shard contributes a ``None``
partial, which the merge skips), COUNT is 0, MIN/MAX compare through
:func:`~repro.storage.types.compare_values`.

Not everything distributes. Joins, subqueries, DISTINCT (including
``COUNT(DISTINCT ...)``), ORDER BY / LIMIT / OFFSET, HAVING, and
aggregate arithmetic (``SUM(x)/COUNT(x)``) are declined: the analysis
reports *why*, the router serves the probe on its home shard instead,
and the response carries a steering line saying the answer covers one
partition. Honest partial coverage beats a silently-wrong merge.

The rewrite works at the AST level: statements parse through
:func:`repro.sql.parser.parse_shaped`, partial statements are built by
swapping :class:`~repro.sql.nodes.SelectItem` lists, and
``Select.sql()`` re-renders them when a probe scatters — shards re-parse
the partial SQL through their ordinary serving path, so scatter partials
share work, hit history, and obey QoS exactly like native probes.

Analyses are memoized per token shape and partition map, process-wide
(the analysis depends on nothing else). A later text of a known shape
only tokenizes and binds what reads its literals: the pinned partition
values and the partial statement's literals. A shape is unliftable, and
analysed in full every time, when the parser cannot lift it, when it does
not parse, or when a lifted literal sits in a select item or GROUP BY
expression (matching select items against GROUP BY compares values).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.engine.result import ExecStats, QueryResult
from repro.sql import nodes
from repro.sql.parser import literal_slots, parse_shaped, rebuild, token_shape
from repro.storage.types import compare_values
from repro.util.cache import TemplateCache
from repro.util.text import normalize_identifier

#: Aggregate kinds the router knows how to merge.
MERGEABLE_AGGREGATES = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})


@dataclass(frozen=True)
class AggSpec:
    """How one output column of an aggregate query merges.

    ``partial_indexes`` addresses the *partial* row: one column for
    COUNT/SUM/MIN/MAX, the (sum, count) pair for a decomposed AVG.
    """

    kind: str
    out_index: int
    partial_indexes: tuple[int, ...]


@dataclass(frozen=True)
class ScatterPlan:
    """One query's compiled scatter-gather strategy."""

    table: str
    #: The statement every shard runs.
    partial: nodes.Select
    #: Output column names of the merged result (the single-shard names).
    columns: tuple[str, ...]
    #: ``None`` -> plain row concatenation; otherwise the aggregate specs.
    aggregates: tuple[AggSpec, ...] | None
    #: Output positions that are GROUP BY keys (empty for global aggregates).
    group_indexes: tuple[int, ...] = ()

    @property
    def partial_sql(self) -> str:
        """The partial statement's text, rendered on demand."""
        return self.partial.sql()


@dataclass(frozen=True)
class ScatterAnalysis:
    """What the router learned about one statement."""

    plan: ScatterPlan | None
    #: The partitioned table the statement touches, if any (set even when
    #: the plan is ``None`` — the router warns about partial coverage).
    partitioned_table: str | None = None
    #: Why an ineligible statement could not scatter.
    reason: str = ""
    #: Partition-column values the WHERE clause pins (top-level ``=`` or
    #: ``IN`` conjuncts): every matching row lives on an owner of one of
    #: these values, so the router can prune the scatter to those shards
    #: — the common tenant-local probe never fans out at all. Extracted
    #: even for scatter-ineligible single-table statements (an ORDER BY
    #: over one tenant's slice still serves fully on the owner shard).
    pinned_values: tuple = ()


def analyze(sql: str, partitioned: dict[str, str]) -> ScatterAnalysis:
    """Classify one statement against the partition map.

    ``partitioned`` maps normalized table name -> partition column.
    Returns a plan when the statement distributes, otherwise the reason
    it does not (with ``partitioned_table`` set whenever the statement
    addresses partitioned data at all, so callers can warn). Binds the
    analysis of the statement's shape when one is memoized (see the
    module docstring); the result equals a full analysis.
    """
    try:
        key, values = token_shape(sql)
    except Exception:
        # Unlexable SQL fails identically on any shard; serve it home.
        return ScatterAnalysis(plan=None)
    memo_key = (tuple(sorted(partitioned.items())), key)
    template = _ROUTES.get(memo_key, ())
    if template is None:
        template, analysis = _RouteTemplate.record(sql, partitioned)
        _ROUTES.put(memo_key, (), template)
        return analysis
    if template.analysis is None or values is None:
        _ROUTES.note_unliftable()
        return _analyze_text(sql, partitioned)
    return template.bind(values)


@dataclass(frozen=True)
class _RouteTemplate:
    """The analysis of a shape's first text, and where its literals go.

    ``pinned`` says where each pinned value comes from: ``(slot, None)``
    for a lifted literal, ``(None, value)`` for a constant. ``partial``
    is the trie of slot paths in the plan's partial statement. ``None``
    analysis marks an unliftable shape.
    """

    analysis: ScatterAnalysis | None
    pinned: tuple = ()
    partial: dict | None = None

    @classmethod
    def record(
        cls, sql: str, partitioned: dict[str, str]
    ) -> tuple["_RouteTemplate", ScatterAnalysis]:
        try:
            statement, _, _, literals, _ = parse_shaped(sql)
        except Exception:
            # Unparseable SQL fails identically on any shard; serve it home.
            return cls(None), ScatterAnalysis(plan=None)
        analysis, pinned = _analyze_statement(statement, partitioned)
        if literals is None or (
            isinstance(statement, nodes.Select) and _reads_literal_values(statement)
        ):
            return cls(None), analysis
        slot_of = {id(literal): slot for slot, literal in enumerate(literals)}
        sources = tuple(
            (slot_of[id(literal)], None) if id(literal) in slot_of else (None, literal.value)
            for literal in pinned
        )
        partial = (
            None
            if analysis.plan is None
            else literal_slots(analysis.plan.partial, literals)
        )
        return cls(analysis, sources, partial), analysis

    def bind(self, values: list) -> ScatterAnalysis:
        analysis = self.analysis
        assert analysis is not None
        if not self.partial and all(slot is None for slot, _ in self.pinned):
            return analysis  # nothing here reads a lifted literal
        pinned = tuple(
            constant if slot is None else values[slot] for slot, constant in self.pinned
        )
        plan = analysis.plan
        if plan is not None and self.partial:
            partial = rebuild(
                plan.partial, self.partial, lambda slot: nodes.Literal(values[slot])
            )
            plan = replace(plan, partial=partial)
        return replace(analysis, plan=plan, pinned_values=pinned)


def _reads_literal_values(statement: nodes.Select) -> bool:
    """Whether the analysis compares literal values: a literal in a select
    item or GROUP BY expression (items are matched against GROUP BY
    expressions by equality)."""
    exprs = [item.expr for item in statement.items] + list(statement.group_by)
    return any(
        isinstance(node, nodes.Literal) for expr in exprs for node in nodes.walk(expr)
    )


#: Analyses by (partition map, token shape), for the whole process.
_ROUTES = TemplateCache()


def _analyze_text(sql: str, partitioned: dict[str, str]) -> ScatterAnalysis:
    """The full analysis of one text, memo aside."""
    try:
        statement = parse_shaped(sql).statement
    except Exception:
        return ScatterAnalysis(plan=None)
    return _analyze_statement(statement, partitioned)[0]


def _analyze_statement(
    statement: nodes.AnyStatement, partitioned: dict[str, str]
) -> tuple[ScatterAnalysis, tuple]:
    """The analysis of a parsed statement, and the ``Literal`` node behind
    each of its pinned values."""
    if not isinstance(statement, nodes.Select):
        # DML routes to the probe's home shard (its own partition slice).
        table = getattr(statement, "table", None) or getattr(statement, "name", None)
        touched = (
            normalize_identifier(table)
            if isinstance(table, str) and normalize_identifier(table) in partitioned
            else None
        )
        return (
            ScatterAnalysis(
                plan=None, partitioned_table=touched, reason="DML does not scatter"
            ),
            (),
        )
    from_clause = statement.from_clause
    if not isinstance(from_clause, nodes.TableName):
        touched = _partitioned_in_ref(from_clause, partitioned)
        reason = "joins and subqueries do not scatter" if touched else ""
        return ScatterAnalysis(plan=None, partitioned_table=touched, reason=reason), ()
    table = normalize_identifier(from_clause.name)
    if table not in partitioned:
        return ScatterAnalysis(plan=None), ()
    has_subquery = _has_subquery(statement)
    pinned_literals = (
        () if has_subquery else _pinned_literals(statement.where, partitioned[table])
    )
    pinned = tuple(literal.value for literal in pinned_literals)

    def declined(reason: str) -> tuple[ScatterAnalysis, tuple]:
        return (
            ScatterAnalysis(
                plan=None, partitioned_table=table, reason=reason, pinned_values=pinned
            ),
            pinned_literals,
        )

    if has_subquery:
        return declined("subqueries do not scatter")
    if statement.distinct:
        return declined("DISTINCT does not scatter")
    if statement.order_by or statement.limit is not None or statement.offset is not None:
        return declined("ORDER BY / LIMIT does not scatter")
    if statement.having is not None:
        return declined("HAVING does not scatter")

    has_aggregate = any(
        nodes.contains_aggregate(item.expr) for item in statement.items
    )
    columns = _merged_column_names(statement.items)
    if not has_aggregate:
        if statement.group_by:
            return declined("GROUP BY without aggregates does not scatter")
        # Scan/Filter/Project: every shard runs the statement verbatim.
        return (
            ScatterAnalysis(
                plan=ScatterPlan(
                    table=table,
                    partial=statement,
                    columns=columns,
                    aggregates=None,
                ),
                partitioned_table=table,
                pinned_values=pinned,
            ),
            pinned_literals,
        )

    group_exprs = tuple(statement.group_by)
    partial_items: list[nodes.SelectItem] = []
    aggregates: list[AggSpec] = []
    group_indexes: list[int] = []
    for out_index, item in enumerate(statement.items):
        expr = item.expr
        if not nodes.contains_aggregate(expr):
            if expr not in group_exprs:
                return declined("non-grouped output column does not scatter")
            group_indexes.append(out_index)
            partial_items.append(item)
            continue
        if not (
            isinstance(expr, nodes.FuncCall) and expr.name in MERGEABLE_AGGREGATES
        ):
            return declined("aggregate arithmetic does not scatter")
        if expr.distinct:
            return declined("COUNT(DISTINCT ...) does not scatter")
        if expr.name == "AVG":
            # AVG(x) -> SUM(x), COUNT(x) partials; re-divided at the router.
            start = len(partial_items)
            partial_items.append(
                nodes.SelectItem(nodes.FuncCall("SUM", expr.args))
            )
            partial_items.append(
                nodes.SelectItem(nodes.FuncCall("COUNT", expr.args))
            )
            aggregates.append(AggSpec("AVG", out_index, (start, start + 1)))
        else:
            aggregates.append(AggSpec(expr.name, out_index, (len(partial_items),)))
            partial_items.append(nodes.SelectItem(expr))
    partial = nodes.Select(
        items=tuple(partial_items),
        from_clause=statement.from_clause,
        where=statement.where,
        group_by=statement.group_by,
    )
    return (
        ScatterAnalysis(
            plan=ScatterPlan(
                table=table,
                partial=partial,
                columns=columns,
                aggregates=tuple(aggregates),
                group_indexes=tuple(group_indexes),
            ),
            partitioned_table=table,
            pinned_values=pinned,
        ),
        pinned_literals,
    )


def merge_partials(plan: ScatterPlan, partials: list[QueryResult]) -> QueryResult:
    """Assemble one merged result from per-shard partials (in shard order)."""
    stats = ExecStats()
    for partial in partials:
        stats.merge(partial.stats)
    sample_rate = min((p.sample_rate for p in partials), default=1.0)
    if plan.aggregates is None:
        rows = [row for partial in partials for row in partial.rows]
        # Shards ran the original SQL verbatim, so the first partial's
        # columns are the single-shard names (including ``*`` expansion).
        columns = list(partials[0].columns) if partials else list(plan.columns)
        return QueryResult(
            columns=columns,
            rows=rows,
            stats=stats,
            sample_rate=sample_rate,
        )
    width = len(plan.columns)
    if not plan.group_indexes:
        # Global aggregate: every shard contributes exactly one partial row.
        row = [None] * width
        for spec in plan.aggregates:
            values = [
                tuple(partial.rows[0][i] for i in spec.partial_indexes)
                for partial in partials
                if partial.rows
            ]
            row[spec.out_index] = _merge_one(spec.kind, values)
        return QueryResult(
            columns=list(plan.columns),
            rows=[tuple(row)],
            stats=stats,
            sample_rate=sample_rate,
        )
    # GROUP BY: partial rows carry the group keys at the same positions
    # the merged output does for COUNT/SUM/MIN/MAX, but AVG decomposition
    # can shift positions — map merged output index -> partial index.
    partial_index_of = _partial_positions(plan)
    merged: dict[tuple, list] = {}
    order: list[tuple] = []
    for partial in partials:
        for row in partial.rows:
            key = tuple(row[partial_index_of[i]] for i in plan.group_indexes)
            bucket = merged.get(key)
            if bucket is None:
                bucket = [[] for _ in plan.aggregates]
                merged[key] = bucket
                order.append(key)
            for slot, spec in enumerate(plan.aggregates):
                bucket[slot].append(tuple(row[i] for i in spec.partial_indexes))
    rows = []
    for key in order:
        row = [None] * width
        for position, out_index in enumerate(plan.group_indexes):
            row[out_index] = key[position]
        for slot, spec in enumerate(plan.aggregates):
            row[spec.out_index] = _merge_one(spec.kind, merged[key][slot])
        rows.append(tuple(row))
    return QueryResult(
        columns=list(plan.columns),
        rows=rows,
        stats=stats,
        sample_rate=sample_rate,
    )


def _partial_positions(plan: ScatterPlan) -> dict[int, int]:
    """Map merged-output group positions to partial-row positions."""
    positions: dict[int, int] = {}
    partial_cursor = 0
    agg_by_out = {spec.out_index: spec for spec in (plan.aggregates or ())}
    for out_index in range(len(plan.columns)):
        spec = agg_by_out.get(out_index)
        if spec is None:
            positions[out_index] = partial_cursor
            partial_cursor += 1
        else:
            partial_cursor += len(spec.partial_indexes)
    return positions


def _merge_one(kind: str, values: list[tuple]):
    """Merge one aggregate's per-shard partials (engine-identical edges)."""
    if kind == "COUNT":
        return sum(v[0] for v in values if v[0] is not None)
    if kind == "SUM":
        present = [v[0] for v in values if v[0] is not None]
        return sum(present) if present else None
    if kind in ("MIN", "MAX"):
        best = None
        for (value,) in values:
            if value is None:
                continue
            if best is None:
                best = value
                continue
            ordering = compare_values(value, best)
            if ordering is None:
                continue
            if (kind == "MIN" and ordering < 0) or (kind == "MAX" and ordering > 0):
                best = value
        return best
    if kind == "AVG":
        total = 0.0
        count = 0
        for partial_sum, partial_count in values:
            if partial_sum is not None:
                total += float(partial_sum)
            if partial_count:
                count += partial_count
        return total / count if count else None
    raise ValueError(f"unmergeable aggregate kind {kind!r}")


def _merged_column_names(items: tuple[nodes.SelectItem, ...]) -> tuple[str, ...]:
    """The executor's output names for these items (mirrors the plan
    builder: aggregates substitute to ``__agg{k}`` columns before the
    final projection names them, so an unaliased aggregate surfaces as
    ``__agg{k}`` with ``k`` its position among the aggregate items)."""
    names: list[str] = []
    aggregate_position = 0
    for position, item in enumerate(items):
        is_aggregate = nodes.contains_aggregate(item.expr)
        if item.alias:
            names.append(item.alias)
        elif is_aggregate:
            names.append(f"__agg{aggregate_position}")
        elif isinstance(item.expr, nodes.ColumnRef):
            names.append(item.expr.column)
        elif isinstance(item.expr, nodes.FuncCall):
            names.append(item.expr.name.lower())
        else:
            names.append(f"col{position}")
        if is_aggregate:
            aggregate_position += 1
    return tuple(names)


def _pinned_literals(where: nodes.Expr | None, column: str) -> tuple:
    """The literals of partition-column values pinned by top-level WHERE
    conjuncts.

    Any single ``col = literal`` or ``col IN (literals)`` conjunct bounds
    the matching rows' partition values (conjuncts only narrow), so the
    smallest such set is returned. Disjunctions, negations, and
    non-literal comparisons pin nothing.
    """
    if where is None:
        return ()
    candidates: list[tuple] = []
    for conjunct in _conjuncts(where):
        if isinstance(conjunct, nodes.Binary) and conjunct.op == "=":
            sides = (conjunct.left, conjunct.right)
            for ref, literal in (sides, sides[::-1]):
                if (
                    isinstance(ref, nodes.ColumnRef)
                    and normalize_identifier(ref.column) == column
                    and isinstance(literal, nodes.Literal)
                ):
                    candidates.append((literal,))
                    break
        elif (
            isinstance(conjunct, nodes.InList)
            and not conjunct.negated
            and isinstance(conjunct.operand, nodes.ColumnRef)
            and normalize_identifier(conjunct.operand.column) == column
            and all(isinstance(item, nodes.Literal) for item in conjunct.items)
        ):
            candidates.append(conjunct.items)
    if not candidates:
        return ()
    return min(candidates, key=len)


def _conjuncts(expr: nodes.Expr) -> list[nodes.Expr]:
    if isinstance(expr, nodes.Binary) and expr.op == "AND":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _has_subquery(statement: nodes.Select) -> bool:
    exprs = [item.expr for item in statement.items]
    if statement.where is not None:
        exprs.append(statement.where)
    for expr in exprs:
        for node in nodes.walk(expr):
            if isinstance(node, nodes.InSubquery):
                return True
    return False


def _partitioned_in_ref(ref, partitioned: dict[str, str]) -> str | None:
    """First partitioned table named anywhere in a FROM clause."""
    if isinstance(ref, nodes.TableName):
        name = normalize_identifier(ref.name)
        return name if name in partitioned else None
    if isinstance(ref, nodes.Join):
        return _partitioned_in_ref(ref.left, partitioned) or _partitioned_in_ref(
            ref.right, partitioned
        )
    if isinstance(ref, nodes.SubqueryRef):
        return _partitioned_in_ref(ref.select.from_clause, partitioned)
    return None
