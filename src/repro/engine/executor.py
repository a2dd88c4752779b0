"""Plan execution.

A straightforward materialising executor: each operator consumes its
children's row lists and produces its own. Two features matter to the
agent-first layers above:

* **Work accounting** — every row an operator touches increments
  ``ExecContext.stats.rows_processed``; the MQO ablation and the probe
  optimizer's cost feedback are denominated in this unit.
* **Shared-work memo** — when an :class:`ExecContext` carries a memo
  dict, every materialised subplan is recorded under its canonical
  fingerprint, and later executions against the same memo (any agent's,
  any probe's, within one admission window) reuse it. This implements
  the paper's "sharing computation across redundant probes" (Sec. 5.2.1).
* **Sampling mode** — ``sample_rate < 1`` makes scans Bernoulli-sample
  their input with a seeded RNG and aggregates scale up, implementing the
  approximate execution that satisficing relies on (Sec. 5.2).
* **Compiled-expression memo** — agent swarms re-ask the same plans for
  whole sessions; expressions compile once per ``(plan-node strict
  fingerprint, slot)`` into a process-wide bounded memo instead of once
  per execution. Only subquery-free expressions are memoized: their
  closures capture row positions and constants, never executor state, so
  sharing them across executors, threads, and catalogs is safe.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.engine import aggregates as agg_lib
from repro.engine.batch import ColumnBatch
from repro.engine.expressions import Compiled, SubqueryRunner, compile_expr
from repro.engine.result import ExecStats, QueryResult
from repro.errors import ExecutionError
from repro.obs import trace as obs_trace
from repro.plan import logical
from repro.plan.fingerprint import fingerprints
from repro.sql import nodes
from repro.storage.catalog import Catalog
from repro.storage.types import Row, Value, compare_values
from repro.util.rng import RngStream

#: Subplans smaller than this (a bare scan) are cheaper to recompute than
#: to look up, so they never enter a subplan memo.
MIN_CACHEABLE_SIZE = 2


def subplan_cache_key(
    node: logical.PlanNode, sample_rate: float, sample_seed: int
) -> tuple | None:
    """The subplan-memo key for one subplan, or None when uncacheable.

    Both engines key a memo through this one function. The key includes
    the sampling rate (and, for sampled runs, the seed) so approximate and
    exact executions never alias.
    """
    digests = fingerprints(node)
    if digests.size < MIN_CACHEABLE_SIZE:
        return None
    if sample_rate >= 1.0:
        return (digests.strict, sample_rate)
    return (digests.strict, sample_rate, sample_seed)


@dataclass
class ExecContext:
    """Per-execution knobs and counters.

    ``cache`` is a subplan memo: a plain dict from :func:`subplan_cache_key`
    to the :class:`~repro.engine.batch.ColumnBatch` a node produced. The
    probe scheduler hands every engine run of one admission window the
    same dict and drops it when the window ends; the data cannot change
    while the window holds the serve lock, so an entry is never stale.
    """

    sample_rate: float = 1.0
    sample_seed: int = 0
    cache: dict | None = None
    stats: ExecStats = field(default_factory=ExecStats)


@dataclass
class ExprMemoStats:
    """Observability counters for the compiled-expression memo.

    Advisory (updates are not synchronised): the regression suite resets
    them around single-threaded workloads to prove that repeated probes of
    the same plan stop recompiling identical expression trees.
    """

    compilations: int = 0
    hits: int = 0

    def reset(self) -> None:
        self.compilations = 0
        self.hits = 0


EXPR_MEMO_STATS = ExprMemoStats()

#: Process-wide bounded LRU of compiled expressions, keyed by
#: (plan-node strict fingerprint, slot). Equal strict fingerprints imply
#: structurally identical nodes (modulo alias naming, which compilation
#: erases into row positions), so a memoized closure is interchangeable
#: with a fresh compile — the same equivalence the subplan memo already
#: relies on for whole materialisations. Guarded by ``_EXPR_MEMO_LOCK``.
_EXPR_MEMO: OrderedDict[tuple, Compiled] = OrderedDict()
_EXPR_MEMO_LOCK = threading.Lock()
_EXPR_MEMO_MAX = 4096

_SUBQUERY_EXPRS = (nodes.InSubquery, nodes.ScalarSubquery, nodes.Exists)


#: Caches layered on top of the expression memo (the columnar engine's
#: kernel memo) register a clear callback here so ``clear_expr_memo``
#: drops them too — a kernel holds compiled closures, so clearing only
#: the expression memo would leave stale compiles reachable.
_EXPR_MEMO_CLEAR_HOOKS: list = []


def clear_expr_memo() -> None:
    """Drop all memoized compiled expressions (test isolation hook)."""
    with _EXPR_MEMO_LOCK:
        _EXPR_MEMO.clear()
    for hook in _EXPR_MEMO_CLEAR_HOOKS:
        hook()


def expr_memo_occupancy() -> int:
    """Entries currently memoized (metrics-registry collector input)."""
    with _EXPR_MEMO_LOCK:
        return len(_EXPR_MEMO)


def has_subquery(expr: nodes.Expr) -> bool:
    """True when the expression tree contains any subquery node."""
    return any(isinstance(n, _SUBQUERY_EXPRS) for n in nodes.walk(expr))


def memoized_compile(
    node: logical.PlanNode,
    slot: tuple,
    expr: nodes.Expr,
    output: tuple[logical.OutputCol, ...],
) -> Compiled:
    """Compile a subquery-free ``expr`` (one slot of ``node``) via the
    process-wide memo. Shared by the row executor and the columnar
    engine's lifted row closures, so both engines hit one memo entry per
    (strict fingerprint, slot). The caller must have ruled out subqueries
    (:func:`has_subquery`) — subquery closures capture executor state and
    may never be shared.
    """
    key = (fingerprints(node).strict, slot)
    with _EXPR_MEMO_LOCK:
        memoized = _EXPR_MEMO.get(key)
        if memoized is not None:
            _EXPR_MEMO.move_to_end(key)
            EXPR_MEMO_STATS.hits += 1
            return memoized
    EXPR_MEMO_STATS.compilations += 1
    compiled = compile_expr(expr, output, None)
    with _EXPR_MEMO_LOCK:
        if key not in _EXPR_MEMO and len(_EXPR_MEMO) >= _EXPR_MEMO_MAX:
            _EXPR_MEMO.popitem(last=False)
        _EXPR_MEMO[key] = compiled
    return compiled


class Executor(SubqueryRunner):
    """Executes logical plans against a catalog."""

    def __init__(self, catalog: Catalog, context: ExecContext | None = None) -> None:
        self._catalog = catalog
        self.context = context or ExecContext()
        self._estimate_errors: dict[str, float] = {}

    # -- compiled-expression memo ---------------------------------------------

    def _compile(
        self,
        node: logical.PlanNode,
        slot: tuple,
        expr: nodes.Expr,
        output: tuple[logical.OutputCol, ...],
    ) -> Compiled:
        """Compile ``expr`` (one slot of ``node``) through the shared memo.

        Subquery-bearing expressions are compiled fresh every time: their
        closures capture this executor (as the subquery runner) and memoise
        subquery results per compile, neither of which may outlive one
        execution. Everything else closes over row positions and constants
        only, and is shared process-wide.
        """
        if has_subquery(expr):
            EXPR_MEMO_STATS.compilations += 1
            return compile_expr(expr, output, self)
        return memoized_compile(node, slot, expr, output)

    # -- public API ----------------------------------------------------------

    def run(self, plan: logical.PlanNode) -> QueryResult:
        rows = self._execute(plan)
        columns = [col.name for col in plan.output]
        result = QueryResult(
            columns=columns,
            rows=rows,
            stats=self.context.stats,
            sample_rate=self.context.sample_rate,
        )
        if self.context.sample_rate < 1.0:
            result.estimate_errors = dict(self._estimate_errors)
        return result

    def run_select(self, select: nodes.Select) -> list[Row]:
        """Execute a subquery AST (SubqueryRunner protocol)."""
        from repro.plan.builder import build_plan
        from repro.plan.rules import optimize_plan

        plan = optimize_plan(build_plan(select, self._catalog), self._catalog)
        return self._execute(plan)

    # -- dispatch ----------------------------------------------------------------

    def _execute(self, node: logical.PlanNode) -> list[Row]:
        # One ambient-contextvar read is the whole tracing-off cost per
        # plan node; with a trace active each node gets its own span
        # (rows out, cache verdict) and recursion nests via the context.
        parent_span = obs_trace.current_span()
        if parent_span is None:
            return self._execute_inner(node, None)
        span = parent_span.child(f"node:{type(node).__name__}")
        token = obs_trace.set_current(span)
        try:
            rows = self._execute_inner(node, span)
            span.attrs["rows_out"] = len(rows)
            return rows
        finally:
            obs_trace.reset_current(token)
            span.finish()

    def _execute_inner(self, node: logical.PlanNode, span) -> list[Row]:
        self.context.stats.operators_executed += 1
        cache = self.context.cache
        cache_key: tuple | None = None
        if cache is not None:
            cache_key = subplan_cache_key(
                node, self.context.sample_rate, self.context.sample_seed
            )
            # Sub-threshold subplans (cache_key None) were never cacheable:
            # skip the lookup entirely, so misses count only real lookups.
            if cache_key is not None:
                cached = cache.get(cache_key)
                if cached is not None:
                    self.context.stats.cache_hits += 1
                    if span is not None:
                        span.attrs["cache"] = "hit"
                    return cached.to_rows()
                self.context.stats.cache_misses += 1
                if span is not None:
                    span.attrs["cache"] = "miss"

        rows = self._execute_uncached(node)

        if cache is not None and cache_key is not None:
            cache[cache_key] = ColumnBatch.from_rows(rows, len(node.output))
        return rows

    def _execute_uncached(self, node: logical.PlanNode) -> list[Row]:
        if isinstance(node, logical.Scan):
            return self._exec_scan(node)
        if isinstance(node, logical.IndexScan):
            return self._exec_index_scan(node)
        if isinstance(node, logical.ViewScan):
            return self._exec_view_scan(node)
        if isinstance(node, logical.OneRow):
            return [()]
        if isinstance(node, logical.SubqueryScan):
            return self._execute(node.child)
        if isinstance(node, logical.Filter):
            return self._exec_filter(node)
        if isinstance(node, logical.Project):
            return self._exec_project(node)
        if isinstance(node, logical.HashJoin):
            return self._exec_hash_join(node)
        if isinstance(node, logical.NestedLoopJoin):
            return self._exec_nested_loop(node)
        if isinstance(node, logical.Aggregate):
            return self._exec_aggregate(node)
        if isinstance(node, logical.Sort):
            return self._exec_sort(node)
        if isinstance(node, logical.Limit):
            return self._exec_limit(node)
        if isinstance(node, logical.Distinct):
            return self._exec_distinct(node)
        raise ExecutionError(f"cannot execute plan node {type(node).__name__}")

    # -- leaves -------------------------------------------------------------------

    def _exec_scan(self, node: logical.Scan) -> list[Row]:
        table = self._catalog.table(node.table)
        positions = [table.schema.position_of(c) for c in node.columns]
        sampler = self._make_sampler(node.table)
        # Every input row is scanned and processed whether or not the
        # sampler keeps it, so the counters batch to the size of the one
        # table state the scan reads.
        state = table.snapshot_state()
        stats = self.context.stats
        stats.rows_scanned += state.num_rows
        stats.rows_processed += state.num_rows
        rows: list[Row] = []
        rate = self.context.sample_rate
        for chunk in state.chunks:
            for row in chunk.rows:
                if sampler is not None and not sampler.bernoulli(rate):
                    continue
                rows.append(tuple(row[p] for p in positions))
        return rows

    def _exec_index_scan(self, node: logical.IndexScan) -> list[Row]:
        table = self._catalog.table(node.table)
        positions = [table.schema.position_of(c) for c in node.columns]
        if node.is_equality:
            # lookup_hash_index also finds maintenance-built auxiliary
            # indexes, which the planner never sees but rewritten plans use.
            index = self._catalog.lookup_hash_index(node.table, node.index_column)
            if index is None:
                if node.row_id_order:
                    # Maintenance-emitted node whose auxiliary index went
                    # stale between rewrite and execution: degrade to the
                    # equivalent predicate scan — never to an error.
                    row_ids = self._index_scan_fallback_ids(node, table)
                else:
                    raise ExecutionError(
                        f"missing hash index on {node.table}.{node.index_column}"
                    )
            else:
                row_ids = sorted(index.lookup(node.equal_value))
        else:
            sorted_index = self._catalog.lookup_sorted_index(
                node.table, node.index_column
            )
            if sorted_index is None:
                if node.row_id_order:
                    row_ids = self._index_scan_fallback_ids(node, table)
                else:
                    raise ExecutionError(
                        f"missing sorted index on {node.table}.{node.index_column}"
                    )
            else:
                row_ids = sorted_index.lookup_range(
                    node.low, node.high, node.low_inclusive, node.high_inclusive
                )
                if node.row_id_order:
                    # Base-table scan order, so a rewritten Filter-over-Scan
                    # keeps byte-identical output order.
                    row_ids = sorted(row_ids)
        sampler = self._make_sampler(node.table)
        stats = self.context.stats
        stats.rows_scanned += len(row_ids)
        stats.rows_processed += len(row_ids)
        rows: list[Row] = []
        rate = self.context.sample_rate
        for row_id in row_ids:
            if sampler is not None and not sampler.bernoulli(rate):
                continue
            row = table.get(row_id)
            rows.append(tuple(row[p] for p in positions))
        return rows

    def _index_scan_fallback_ids(self, node: logical.IndexScan, table) -> list[int]:
        """Scan-order row ids matching the IndexScan's own condition.

        The degraded path for maintenance-emitted (row_id_order) index
        scans whose auxiliary index is gone or stale: the eq/range bound
        *is* the conjunct the rewrite lifted out of the Filter, and index
        lookups skip NULLs, so selecting the same rows in scan order is
        byte-identical to what the index would have served when fresh.
        """
        position = table.schema.position_of(node.index_column)
        out: list[int] = []
        for row_id, row in table.scan_with_ids():
            value = row[position]
            if value is None:
                continue
            if node.is_equality:
                if value == node.equal_value:
                    out.append(row_id)
                continue
            if node.low is not None:
                if node.low_inclusive:
                    if value < node.low:
                        continue
                elif value <= node.low:
                    continue
            if node.high is not None:
                if node.high_inclusive:
                    if value > node.high:
                        continue
                elif value >= node.high:
                    continue
            out.append(row_id)
        return out

    def _exec_view_scan(self, node: logical.ViewScan) -> list[Row]:
        """Serve a materialized view: the rows travel with the node.

        View rewrites are only applied to exact (sample_rate 1.0) runs, so
        no sampler is consulted; work accounting charges exactly the rows
        emitted — the saving the maintenance bench measures.
        """
        rows = node.materialized_rows()
        stats = self.context.stats
        stats.rows_scanned += len(rows)
        stats.rows_processed += len(rows)
        return rows

    def _make_sampler(self, table: str) -> RngStream | None:
        if self.context.sample_rate >= 1.0:
            return None
        return RngStream(self.context.sample_seed, "scan-sample", table)

    # -- row operators ---------------------------------------------------------------
    #
    # Each operator is split into a fetch half (`_exec_X`, which executes
    # the children) and a compute half (`_X_rows`, which consumes the
    # children's materialised rows and owns the work accounting). The
    # columnar executor reuses the compute halves verbatim as its per-node
    # fallback path: its children are already materialised as batches, so
    # falling back must not re-execute them (that would double-count cache
    # hits and operator executions).

    def _exec_filter(self, node: logical.Filter) -> list[Row]:
        return self._filter_rows(node, self._execute(node.child))

    def _filter_rows(self, node: logical.Filter, child_rows: list[Row]) -> list[Row]:
        predicate = self._compile(node, ("filter",), node.predicate, node.child.output)
        # The loop touches exactly len(child_rows) rows: batch the counter
        # once instead of chasing self.context.stats per row.
        self.context.stats.rows_processed += len(child_rows)
        out: list[Row] = []
        for row in child_rows:
            value = predicate(row)
            if value is not None and value is not False and value != 0:
                out.append(row)
        return out

    def _exec_project(self, node: logical.Project) -> list[Row]:
        return self._project_rows(node, self._execute(node.child))

    def _project_rows(self, node: logical.Project, child_rows: list[Row]) -> list[Row]:
        compiled = [
            self._compile(node, ("project", i), e, node.child.output)
            for i, e in enumerate(node.exprs)
        ]
        self.context.stats.rows_processed += len(child_rows)
        return [tuple(fn(row) for fn in compiled) for row in child_rows]

    def _exec_hash_join(self, node: logical.HashJoin) -> list[Row]:
        left_rows = self._execute(node.left)
        right_rows = self._execute(node.right)
        return self._hash_join_rows(node, left_rows, right_rows)

    def _hash_join_rows(
        self, node: logical.HashJoin, left_rows: list[Row], right_rows: list[Row]
    ) -> list[Row]:
        left_keys = [
            self._compile(node, ("hj-left", i), k, node.left.output)
            for i, k in enumerate(node.left_keys)
        ]
        right_keys = [
            self._compile(node, ("hj-right", i), k, node.right.output)
            for i, k in enumerate(node.right_keys)
        ]
        residual = (
            self._compile(node, ("hj-residual",), node.residual, node.output)
            if node.residual is not None
            else None
        )
        # Build touches every left row, probe every right row.
        self.context.stats.rows_processed += len(left_rows) + len(right_rows)

        build: dict[tuple, list[int]] = {}
        for position, row in enumerate(left_rows):
            key = tuple(fn(row) for fn in left_keys)
            if any(part is None for part in key):
                continue
            build.setdefault(key, []).append(position)

        matched_left: set[int] = set()
        out: list[Row] = []
        for row in right_rows:
            key = tuple(fn(row) for fn in right_keys)
            if any(part is None for part in key):
                continue
            for position in build.get(key, ()):
                combined = left_rows[position] + row
                if residual is not None:
                    verdict = residual(combined)
                    if verdict is None or verdict is False or verdict == 0:
                        continue
                matched_left.add(position)
                out.append(combined)

        if node.kind == "LEFT":
            null_pad = (None,) * len(node.right.output)
            unmatched = [
                left_rows[i] + null_pad
                for i in range(len(left_rows))
                if i not in matched_left
            ]
            # Preserve left-row order for null-extended output.
            out.extend(unmatched)
        return out

    def _exec_nested_loop(self, node: logical.NestedLoopJoin) -> list[Row]:
        left_rows = self._execute(node.left)
        right_rows = self._execute(node.right)
        return self._nested_loop_rows(node, left_rows, right_rows)

    def _nested_loop_rows(
        self,
        node: logical.NestedLoopJoin,
        left_rows: list[Row],
        right_rows: list[Row],
    ) -> list[Row]:
        condition = (
            self._compile(node, ("nl-cond",), node.condition, node.output)
            if node.condition is not None
            else None
        )
        out: list[Row] = []
        null_pad = (None,) * len(node.right.output)
        # The inner loop runs once per (left, right) pair unconditionally.
        self.context.stats.rows_processed += len(left_rows) * len(right_rows)
        for left_row in left_rows:
            matched = False
            for right_row in right_rows:
                combined = left_row + right_row
                if condition is not None:
                    verdict = condition(combined)
                    if verdict is None or verdict is False or verdict == 0:
                        continue
                matched = True
                out.append(combined)
            if node.kind == "LEFT" and not matched:
                out.append(left_row + null_pad)
        return out

    def _exec_aggregate(self, node: logical.Aggregate) -> list[Row]:
        return self._aggregate_rows(node, self._execute(node.child))

    def _aggregate_rows(
        self, node: logical.Aggregate, child_rows: list[Row]
    ) -> list[Row]:
        group_fns = [
            self._compile(node, ("group", i), e, node.child.output)
            for i, e in enumerate(node.group_exprs)
        ]

        # Accumulator argument expressions route through the memo too:
        # they recompile per *group* today, so hot group-bys pay the most.
        arg_slots = {
            id(arg): ("agg-arg", call_index, arg_index)
            for call_index, call in enumerate(node.agg_calls)
            for arg_index, arg in enumerate(call.args)
        }

        def compile_arg(expr: nodes.Expr):
            slot = arg_slots.get(id(expr))
            if slot is None:  # not a declared argument: compile directly
                return compile_expr(expr, node.child.output, self)
            return self._compile(node, slot, expr, node.child.output)

        self.context.stats.rows_processed += len(child_rows)
        groups: dict[tuple, list[agg_lib.Accumulator]] = {}
        order: list[tuple] = []
        for row in child_rows:
            key = tuple(fn(row) for fn in group_fns)
            accumulators = groups.get(key)
            if accumulators is None:
                accumulators = [
                    agg_lib.make_accumulator(call, compile_arg)
                    for call in node.agg_calls
                ]
                groups[key] = accumulators
                order.append(key)
            for accumulator in accumulators:
                accumulator.add(row)

        if not groups and not node.group_exprs:
            # Global aggregate over empty input: one row of identity values.
            accumulators = [
                agg_lib.make_accumulator(call, compile_arg) for call in node.agg_calls
            ]
            groups[()] = accumulators
            order.append(())

        scale = 1.0 / self.context.sample_rate if self.context.sample_rate < 1.0 else 1.0
        self._estimate_errors = {}
        out: list[Row] = []
        for key in order:
            values: list[Value] = list(key)
            for name, accumulator in zip(node.agg_names, groups[key]):
                value, error = accumulator.result(scale)
                values.append(value)
                if error is not None:
                    self._estimate_errors[name] = max(
                        self._estimate_errors.get(name, 0.0), error
                    )
            out.append(tuple(values))
        return out

    def _exec_sort(self, node: logical.Sort) -> list[Row]:
        return self._sort_rows(node, self._execute(node.child))

    def _sort_rows(self, node: logical.Sort, child_rows: list[Row]) -> list[Row]:
        compiled = [
            (self._compile(node, ("sort", i), expr, node.child.output), ascending)
            for i, (expr, ascending) in enumerate(node.keys)
        ]
        self.context.stats.rows_processed += len(child_rows)

        def sort_key(row: Row) -> tuple:
            parts = []
            for fn, ascending in compiled:
                parts.append(_SortKey(fn(row), ascending))
            return tuple(parts)

        return sorted(child_rows, key=sort_key)

    def _exec_limit(self, node: logical.Limit) -> list[Row]:
        return self._limit_rows(node, self._execute(node.child))

    def _limit_rows(self, node: logical.Limit, child_rows: list[Row]) -> list[Row]:
        start = node.offset
        if node.limit is None:
            return child_rows[start:]
        return child_rows[start : start + node.limit]

    def _exec_distinct(self, node: logical.Distinct) -> list[Row]:
        return self._distinct_rows(node, self._execute(node.child))

    def _distinct_rows(self, node: logical.Distinct, child_rows: list[Row]) -> list[Row]:
        self.context.stats.rows_processed += len(child_rows)
        seen: set[Row] = set()
        out: list[Row] = []
        for row in child_rows:
            if row not in seen:
                seen.add(row)
                out.append(row)
        return out


class _SortKey:
    """Ordering wrapper: NULLs first ascending, last descending."""

    __slots__ = ("value", "ascending")

    def __init__(self, value: Value, ascending: bool) -> None:
        self.value = value
        self.ascending = ascending

    def __lt__(self, other: "_SortKey") -> bool:
        left, right = self.value, other.value
        if left is None and right is None:
            return False
        if left is None:
            return self.ascending
        if right is None:
            return not self.ascending
        ordering = compare_values(left, right)
        if ordering is None or ordering == 0:
            return False
        return ordering < 0 if self.ascending else ordering > 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _SortKey):
            return NotImplemented
        if self.value is None and other.value is None:
            return True
        if self.value is None or other.value is None:
            return False
        return compare_values(self.value, other.value) == 0
