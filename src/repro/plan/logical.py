"""Logical plan operators.

A plan is an immutable tree of operators. Each node knows its output schema
(ordered :class:`OutputCol` entries, optionally qualified by a binding name)
so that parents can resolve column references positionally at execution
time. Immutability lets the optimizer rewrite plans structurally and lets
Figure 2's analysis enumerate and fingerprint subtrees safely.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

from repro.sql import nodes
from repro.storage.types import Row, Value


@dataclass(frozen=True)
class OutputCol:
    """One column of an operator's output: a name plus optional qualifier."""

    name: str
    binding: str | None = None

    def matches(self, column: str, table: str | None) -> bool:
        if self.name.lower() != column.lower():
            return False
        if table is None:
            return True
        return self.binding is not None and self.binding.lower() == table.lower()


#: Attribute names under which derived values are memoized on a node:
#: per-node digests (:func:`repro.plan.fingerprint.fingerprints`), the
#: root's cost estimate (:func:`repro.plan.compiled.compiled_estimate`),
#: the columnar kernel key with the node's run-time literal values
#: (:mod:`repro.engine.columnar`) and the root's statement shape
#: (:func:`repro.plan.compiled.statement_shape`). All are set with
#: ``object.__setattr__`` (the nodes are frozen dataclasses) and stripped
#: from the pickled state.
FINGERPRINT_MEMO_ATTR = "_fingerprint_memo"
ESTIMATE_MEMO_ATTR = "_estimate_memo"
KERNEL_MEMO_ATTR = "_kernel_memo"
SHAPE_MEMO_ATTR = "_shape_memo"


class PlanNode:
    """Base class for logical operators."""

    # -- serialization -----------------------------------------------------
    #
    # Plans are picklable values (tests/test_serialization.py pins the
    # round trip). The fingerprint memo that
    # :func:`repro.plan.fingerprint.fingerprints` caches on each
    # node is content-derived and cheap to rebuild, so it is stripped from
    # the pickled state: pickles stay small and receivers re-memoize lazily.
    # The cost-estimate memo of :func:`repro.plan.compiled.compiled_estimate`
    # goes the same way (it describes the sender's catalog, not the
    # receiver's), as does the columnar kernel key. The shape memo is
    # stripped too, so the pickled bytes do not depend on how a plan was
    # compiled; a receiver's plan has no shape until it compiles its own.
    # Frozen dataclass subclasses unpickle fine through ``__setstate__``'s
    # direct ``__dict__`` update — it bypasses the frozen ``__setattr__``.

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop(FINGERPRINT_MEMO_ATTR, None)
        state.pop(ESTIMATE_MEMO_ATTR, None)
        state.pop(KERNEL_MEMO_ATTR, None)
        state.pop(SHAPE_MEMO_ATTR, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    @property
    def output(self) -> tuple[OutputCol, ...]:
        raise NotImplementedError

    def children(self) -> tuple["PlanNode", ...]:
        raise NotImplementedError

    def with_children(self, children: tuple["PlanNode", ...]) -> "PlanNode":
        raise NotImplementedError

    # -- tree helpers ------------------------------------------------------

    def walk(self) -> Iterator["PlanNode"]:
        """Yield this node and all descendants, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def node_count(self) -> int:
        return sum(1 for _ in self.walk())

    def fingerprints(self):
        """Strict + lenient digests (and subtree size) of this node.

        Plans are immutable after optimization, so the digests are computed
        once for the whole tree (one bottom-up pass, memoized per node by
        :func:`repro.plan.fingerprint.fingerprints`) and every later call
        is a cached lookup.
        """
        from repro.plan.fingerprint import fingerprints

        return fingerprints(self)

    def describe(self, indent: int = 0) -> str:
        """Readable EXPLAIN-style rendering."""
        line = "  " * indent + self._describe_line()
        lines = [line]
        lines.extend(child.describe(indent + 1) for child in self.children())
        return "\n".join(lines)

    def _describe_line(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class Scan(PlanNode):
    """Full scan of a base table, optionally narrowed to ``columns``."""

    table: str
    binding: str
    columns: tuple[str, ...]

    @property
    def output(self) -> tuple[OutputCol, ...]:
        return tuple(OutputCol(name, self.binding) for name in self.columns)

    def children(self) -> tuple[PlanNode, ...]:
        return ()

    def with_children(self, children: tuple[PlanNode, ...]) -> "Scan":
        assert not children
        return self

    def _describe_line(self) -> str:
        return f"Scan {self.table} AS {self.binding} [{', '.join(self.columns)}]"


@dataclass(frozen=True)
class IndexScan(PlanNode):
    """Index-driven scan: equality or range lookup on one indexed column."""

    table: str
    binding: str
    columns: tuple[str, ...]
    index_column: str
    # Equality lookup when equal_value is set; otherwise a range.
    equal_value: Value = None
    low: Value = None
    high: Value = None
    low_inclusive: bool = True
    high_inclusive: bool = True
    is_equality: bool = True
    #: Emit rows in ascending row-id order (= base-table scan order)
    #: instead of the index's native order. The maintenance runtime's
    #: execution-time rewrites set this so an auto-built sorted index can
    #: replace a Filter-over-Scan without changing output row order.
    row_id_order: bool = False

    @property
    def output(self) -> tuple[OutputCol, ...]:
        return tuple(OutputCol(name, self.binding) for name in self.columns)

    def children(self) -> tuple[PlanNode, ...]:
        return ()

    def with_children(self, children: tuple[PlanNode, ...]) -> "IndexScan":
        assert not children
        return self

    def _describe_line(self) -> str:
        if self.is_equality:
            return f"IndexScan {self.table}.{self.index_column} = {self.equal_value!r}"
        return (
            f"IndexScan {self.table}.{self.index_column} in "
            f"{'[' if self.low_inclusive else '('}{self.low!r}, {self.high!r}"
            f"{']' if self.high_inclusive else ')'}"
        )


@dataclass(frozen=True)
class SubqueryScan(PlanNode):
    """Re-binds a child plan's output under a subquery alias."""

    child: PlanNode
    alias: str

    @property
    def output(self) -> tuple[OutputCol, ...]:
        return tuple(OutputCol(col.name, self.alias) for col in self.child.output)

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def with_children(self, children: tuple[PlanNode, ...]) -> "SubqueryScan":
        (child,) = children
        return replace(self, child=child)

    def _describe_line(self) -> str:
        return f"SubqueryScan AS {self.alias}"


@dataclass(frozen=True)
class Filter(PlanNode):
    child: PlanNode
    predicate: nodes.Expr

    @property
    def output(self) -> tuple[OutputCol, ...]:
        return self.child.output

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def with_children(self, children: tuple[PlanNode, ...]) -> "Filter":
        (child,) = children
        return replace(self, child=child)

    def _describe_line(self) -> str:
        return f"Filter {self.predicate.sql()}"


@dataclass(frozen=True)
class Project(PlanNode):
    child: PlanNode
    exprs: tuple[nodes.Expr, ...]
    names: tuple[str, ...]

    @property
    def output(self) -> tuple[OutputCol, ...]:
        return tuple(OutputCol(name) for name in self.names)

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def with_children(self, children: tuple[PlanNode, ...]) -> "Project":
        (child,) = children
        return replace(self, child=child)

    def _describe_line(self) -> str:
        rendered = ", ".join(
            f"{expr.sql()} AS {name}" for expr, name in zip(self.exprs, self.names)
        )
        return f"Project {rendered}"


@dataclass(frozen=True)
class HashJoin(PlanNode):
    """Equi-join on extracted key expressions, with optional residual filter."""

    left: PlanNode
    right: PlanNode
    kind: str  # 'INNER' | 'LEFT'
    left_keys: tuple[nodes.Expr, ...]
    right_keys: tuple[nodes.Expr, ...]
    residual: nodes.Expr | None = None

    @property
    def output(self) -> tuple[OutputCol, ...]:
        return self.left.output + self.right.output

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def with_children(self, children: tuple[PlanNode, ...]) -> "HashJoin":
        left, right = children
        return replace(self, left=left, right=right)

    def _describe_line(self) -> str:
        keys = ", ".join(
            f"{l.sql()} = {r.sql()}" for l, r in zip(self.left_keys, self.right_keys)
        )
        return f"HashJoin[{self.kind}] {keys}"


@dataclass(frozen=True)
class NestedLoopJoin(PlanNode):
    """Fallback join for non-equi or missing conditions (CROSS when None)."""

    left: PlanNode
    right: PlanNode
    kind: str  # 'INNER' | 'LEFT' | 'CROSS'
    condition: nodes.Expr | None = None

    @property
    def output(self) -> tuple[OutputCol, ...]:
        return self.left.output + self.right.output

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def with_children(self, children: tuple[PlanNode, ...]) -> "NestedLoopJoin":
        left, right = children
        return replace(self, left=left, right=right)

    def _describe_line(self) -> str:
        clause = f" ON {self.condition.sql()}" if self.condition is not None else ""
        return f"NestedLoopJoin[{self.kind}]{clause}"


@dataclass(frozen=True)
class Aggregate(PlanNode):
    """Hash aggregation over group expressions with aggregate calls.

    Output columns are the group expressions (named) followed by one column
    per aggregate call, in declaration order.
    """

    child: PlanNode
    group_exprs: tuple[nodes.Expr, ...]
    group_names: tuple[str, ...]
    agg_calls: tuple[nodes.FuncCall, ...]
    agg_names: tuple[str, ...]

    @property
    def output(self) -> tuple[OutputCol, ...]:
        group_cols = []
        for expr, name in zip(self.group_exprs, self.group_names):
            binding = expr.table if isinstance(expr, nodes.ColumnRef) else None
            group_cols.append(OutputCol(name, binding))
        agg_cols = [OutputCol(name) for name in self.agg_names]
        return tuple(group_cols + agg_cols)

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def with_children(self, children: tuple[PlanNode, ...]) -> "Aggregate":
        (child,) = children
        return replace(self, child=child)

    def _describe_line(self) -> str:
        groups = ", ".join(e.sql() for e in self.group_exprs) or "()"
        aggs = ", ".join(a.sql() for a in self.agg_calls)
        return f"Aggregate groups=[{groups}] aggs=[{aggs}]"


@dataclass(frozen=True)
class Sort(PlanNode):
    child: PlanNode
    keys: tuple[tuple[nodes.Expr, bool], ...]  # (expr, ascending)

    @property
    def output(self) -> tuple[OutputCol, ...]:
        return self.child.output

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def with_children(self, children: tuple[PlanNode, ...]) -> "Sort":
        (child,) = children
        return replace(self, child=child)

    def _describe_line(self) -> str:
        keys = ", ".join(
            f"{expr.sql()} {'ASC' if asc else 'DESC'}" for expr, asc in self.keys
        )
        return f"Sort {keys}"


@dataclass(frozen=True)
class Limit(PlanNode):
    child: PlanNode
    limit: int | None
    offset: int = 0

    @property
    def output(self) -> tuple[OutputCol, ...]:
        return self.child.output

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def with_children(self, children: tuple[PlanNode, ...]) -> "Limit":
        (child,) = children
        return replace(self, child=child)

    def _describe_line(self) -> str:
        return f"Limit {self.limit} OFFSET {self.offset}"


@dataclass(frozen=True)
class Distinct(PlanNode):
    child: PlanNode

    @property
    def output(self) -> tuple[OutputCol, ...]:
        return self.child.output

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def with_children(self, children: tuple[PlanNode, ...]) -> "Distinct":
        (child,) = children
        return replace(self, child=child)


#: Figure 2b's operator-type codes: PR=Projection, TS=Scan, FI=Filter,
#: HJ=Hash Join, UA=Aggregate, OT=other.
_ROOT_CODES: dict[type, str] = {
    Project: "PR",
    Scan: "TS",
    IndexScan: "TS",
    Filter: "FI",
    HashJoin: "HJ",
    Aggregate: "UA",
}


def root_operator_code(node: PlanNode) -> str:
    """Map a plan node to the paper's Figure 2b operator-type code."""
    return _ROOT_CODES.get(type(node), "OT")


@dataclass(frozen=True)
class ViewScan(PlanNode):
    """Leaf serving a maintenance-built materialized view's rows.

    Never emitted by the planner: the maintenance runtime substitutes one
    for a plan subtree whose strict fingerprint matches a valid view (or
    whose lenient fingerprint matches modulo an output-column permutation,
    closed by ``projection``) immediately before execution. The node is
    self-contained — it carries the view's rows — so it executes, and
    pickles, without needing the view store.

    ``columns`` is the *replaced subtree's* output (names and bindings),
    so parents compile their expressions against exactly the schema they
    were planned for; ``projection`` maps each output column to its
    position in the stored view rows (the identity for strict matches).
    ``build_id`` is unique per view build, which keeps subplan-memo keys
    from ever aliasing rows across rebuilds.
    """

    name: str
    source_strict: str
    build_id: int
    columns: tuple[OutputCol, ...]
    rows: tuple[Row, ...]
    projection: tuple[int, ...]

    @property
    def output(self) -> tuple[OutputCol, ...]:
        return self.columns

    def children(self) -> tuple[PlanNode, ...]:
        return ()

    def with_children(self, children: tuple[PlanNode, ...]) -> "ViewScan":
        assert not children
        return self

    def materialized_rows(self) -> list[Row]:
        """The served rows, with the output-column permutation applied."""
        if self.projection == tuple(range(len(self.projection))):
            return list(self.rows)
        indices = self.projection
        return [tuple(row[i] for i in indices) for row in self.rows]

    def _describe_line(self) -> str:
        return f"ViewScan {self.name} [{len(self.rows)} rows]"


@dataclass(frozen=True)
class OneRow(PlanNode):
    """A single empty row: the source for FROM-less SELECTs."""

    @property
    def output(self) -> tuple[OutputCol, ...]:
        return ()

    def children(self) -> tuple[PlanNode, ...]:
        return ()

    def with_children(self, children: tuple[PlanNode, ...]) -> "OneRow":
        assert not children
        return self
