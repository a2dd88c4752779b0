"""Vectorized columnar execution.

The row executor is correct but touches every value through a per-row
closure call. This module executes the same logical plans batch-at-a-time:
each operator consumes and produces a :class:`ColumnBatch` (one Python
value list per column plus a numpy mirror for dtype-uniform numeric
columns), and expressions compile into **batch kernels** — functions from
a batch to a full value column. Node kernels are memoized by what they
read of their node, literal values reduced to their class: the values
are passed in at run time, so every probe of one statement shape shares
its kernels (:func:`_kernel_shape`).

Columns and mirrors come from storage: every table state memoizes one
*segment* per column — the value list and its numpy mirror
(:mod:`repro.storage.table`) — so a scan hands out the state's segments
zero-copy instead of transposing rows and sweeping types, and the
segments are built once per table state, shared with the table
statistics. Batches never mutate their columns, which is what makes the
sharing safe. The numeric kernels then stay in numpy:

* numeric ``column OP literal`` comparisons produce bool masks, combined
  by ``&``/``|``/``~`` (a mirror holds no NULLs, so three-valued logic is
  two-valued there), and a filter gathers mirrors by ``np.flatnonzero``;
* text ``column OP literal`` comparisons and ``IN``/``NOT IN`` lists of
  text literals produce the same masks from the column's sorted-dictionary
  codes (:class:`~repro.storage.table.TextCodes`, memoized on the segment
  beside the mirror): one ``bisect`` of the literal, then an integer
  compare;
* COUNT, SUM and AVG (grouped or not) and ungrouped MIN/MAX of a bare
  mirrored column reduce in numpy, as does a bare mirrored GROUP BY key;
* ORDER BY over bare mirrored keys without NaN is a stable ``np.lexsort``.

Everything else — NULL-bearing, mixed-type, boolean or beyond-int64 columns, computed
expressions, column-vs-column comparisons — runs the per-value list path.

Byte-identity is the contract, not a goal: the columnar engine must
produce exactly the row engine's rows, ordering, value types, statuses,
steering, and work accounting. Four mechanisms enforce it:

* **Shared semantics** — list-path kernels apply the *same* helper
  functions (``compare_values``, ``truthy``, ``to_text``, the LIKE regex
  cache) per element that the row compiler's closures apply, and any
  expression shape without a specialized kernel is *lifted*: its row
  closure (from the same process-wide expression memo) is mapped over the
  batch's row view.
* **Bit-identical reductions** — SUM and AVG accumulate sequentially from
  +0.0 with ``np.bincount(ids, weights=...)``, the accumulators' exact
  float sequence (``np.sum`` is pairwise and ``np.add.accumulate`` keeps a
  leading ``-0.0``; neither matches); an int-only SUM still returns
  ``int``. MIN/MAX use ``argmin``/``argmax``, whose first-occurrence ties
  are the loop's keep-first on ``±0.0``; NaN-bearing columns take the
  list path for MIN/MAX, GROUP BY and ORDER BY.
* **Per-node fallback** — any error raised while building or running a
  kernel restores the stats counters and recomputes that node through the
  row engine's compute half on the already-materialised child rows, so
  even error messages and evaluation-order corner cases (eager kernels
  evaluate a superset of what short-circuiting row closures evaluate)
  come out byte-identical. Subquery-bearing expressions and ``IndexScan``
  leaves take this path unconditionally.
* **One memo key** — a window's subplan memo holds
  :class:`~repro.engine.batch.ColumnBatch` entries under the same
  :func:`~repro.engine.executor.subplan_cache_key` in both engines. The
  columnar engine stores the batch a node produced, with no copy and no
  row view, and serves a hit as that same batch; a row-engine consumer
  reads it through the memoized ``to_rows``, and rows the row engine
  produced enter through ``ColumnBatch.from_rows``.

:class:`ColumnarExecutor` is the only serving engine: every serving path
constructs it directly. The row :class:`~repro.engine.executor.Executor`
is its base class (whose compute halves are the per-node fallback) and
the reference oracle the differential tests compare against.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from itertools import compress
from typing import Callable

import numpy as np

from repro.engine import executor as executor_module
from repro.engine import expressions as expr_lib
from repro.engine.batch import ColumnBatch
from repro.engine.executor import (
    EXPR_MEMO_STATS,
    Executor,
    _SortKey,
    has_subquery,
    memoized_compile,
    subplan_cache_key,
)
from repro.engine.expressions import (
    compile_expr,
    like_regex,
    resolve_column,
    to_text,
    truthy,
)
from repro.errors import ExecutionError, ReproError
from repro.obs import trace as obs_trace
from repro.plan import logical
from repro.sql import nodes
from repro.storage.table import TextCodes
from repro.storage.types import Row, Value, compare_values

#: Nested-loop pair expansions beyond this bail to the row engine, which
#: streams pairs instead of materialising the cross product.
_MAX_NESTED_PAIRS = 1_000_000

#: Integer literals beyond int64 range are excluded from the numpy
#: comparison fast path (kept well inside to dodge any dtype promotion).
_NUMPY_INT_LIMIT = 2**62


# ---------------------------------------------------------------------------
# batch expression kernels
# ---------------------------------------------------------------------------

#: A batch-compiled expression: (ColumnBatch, the node's run-time literal
#: values) -> one value per row (a list, or for a truth kernel possibly a
#: numpy bool mask; see ``compile``).
BatchCompiled = Callable[[ColumnBatch, tuple], list]


class _NotVectorizable(Exception):
    """Raised at kernel-build time for expressions the columnar engine
    must not evaluate at all (subqueries capture executor state)."""


_TRUE_CHECKS = {
    "=": lambda o: o == 0,
    "<>": lambda o: o != 0,
    "<": lambda o: o < 0,
    "<=": lambda o: o <= 0,
    ">": lambda o: o > 0,
    ">=": lambda o: o >= 0,
}

_FLIPPED_OP = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _yields_masks(expr: nodes.Expr) -> bool:
    """Whether ``expr``'s specialized kernel may return a numpy bool mask:
    comparisons, IN-lists, AND/OR and NOT. A mask is two-valued — it only
    ever comes from mirrors or text codes, which hold no NULLs — so the
    connectives combine masks with ``&``/``|``/``~`` exactly and fall back
    to three-valued logic on lists when either side is one."""
    if isinstance(expr, nodes.Binary):
        return expr.op in _TRUE_CHECKS or expr.op in ("AND", "OR")
    if isinstance(expr, nodes.InList):
        return True
    return isinstance(expr, nodes.Unary) and expr.op == "NOT"


def _code_mask(encoded: TextCodes, op: str, literal: str) -> np.ndarray:
    """``value OP literal`` for every value of a text-coded column.

    The dictionary is in ``str`` order, so a value compares with the
    literal as its code compares with the literal's insertion points:
    ``bisect_left`` counts the values below it, ``bisect_right`` those not
    above it. A literal absent from the dictionary equals no value.
    """
    dictionary, codes = encoded
    low = bisect_left(dictionary, literal)
    if op in ("=", "<>"):
        if low < len(dictionary) and dictionary[low] == literal:
            equal = codes == low
        else:
            equal = np.zeros(len(codes), dtype=bool)
        return equal if op == "=" else ~equal
    if op == "<":
        return codes < low
    if op == ">=":
        return codes >= low
    high = bisect_right(dictionary, literal)
    return codes < high if op == "<=" else codes >= high


class _BatchCompiler:
    """Compiles one expression slot of one plan node into a batch kernel.

    Specialized kernels exist for the shapes that dominate probe traffic
    (column/literal comparisons and boolean connectives with a numpy mask
    path, arithmetic, LIKE, IN-list, BETWEEN, CASE, the hot scalar
    functions). Everything else **lifts** (:func:`_lifted`): the row
    compiler's closure for the same slot — pulled from the same
    process-wide memo the row engine uses — is mapped over the batch's
    row view, which makes coverage total for subquery-free expressions
    without duplicating semantics.

    A literal outside lifted subtrees is a *run-time* value: its kernel
    reads position ``index_of[id(literal)]`` of the literal tuple the node
    kernel is called with, so one kernel serves every node of the same
    shape (see :func:`_kernel_shape`). Build-time checks read only a
    literal's class, which the kernel key carries; the rest (the int64
    range of a numpy comparand) is checked at run time. A literal absent
    from ``index_of`` is baked into its closure, as lifted ones are.
    """

    def __init__(
        self,
        node: logical.PlanNode,
        slot: tuple,
        output: tuple[logical.OutputCol, ...],
        index_of: dict[int, int],
    ) -> None:
        self._node = node
        self._slot = slot
        self._output = output
        self._index_of = index_of

    def compile(self, expr: nodes.Expr, truth: bool = False) -> BatchCompiled:
        """The batch kernel for ``expr``. With ``truth`` (a filter's
        predicate) the kernel may return a numpy bool mask instead of a
        value list: comparisons, AND/OR and NOT do whenever every column
        they read has a mirror."""
        if has_subquery(expr):
            raise _NotVectorizable(type(expr).__name__)
        return self._compile(expr, top=True, truth=truth)

    def _compile(
        self, expr: nodes.Expr, top: bool = False, truth: bool = False
    ) -> BatchCompiled:
        if _lifted(expr):
            return self._lift(expr, top)
        specialized = self._specialize(expr)
        if truth or not _yields_masks(expr):
            return specialized

        def listed(batch: ColumnBatch, lits: tuple) -> list:
            values = specialized(batch, lits)
            return values.tolist() if isinstance(values, np.ndarray) else values

        return listed

    def _lift(self, expr: nodes.Expr, top: bool) -> BatchCompiled:
        """Map the row closure for ``expr`` over the batch's row view.

        Within one operator the row engine evaluates each compiled
        expression on every child row, so a lifted closure performs the
        identical per-row evaluations in the identical order.
        """
        if top:
            # Same memo entry the row engine would compile for this slot.
            row_fn = memoized_compile(self._node, self._slot, expr, self._output)
        else:
            row_fn = compile_expr(expr, self._output, None)

        def lifted(batch: ColumnBatch, lits: tuple) -> list:
            return [row_fn(row) for row in batch.to_rows()]

        return lifted

    def _literal(self, literal: nodes.Literal) -> Callable[[tuple], Value]:
        """The run-time value of ``literal``: read from the node's literal
        tuple, or baked in when the kernel key carries the value."""
        index = self._index_of.get(id(literal))
        if index is None:
            value = literal.value
            return lambda lits: value
        return lambda lits: lits[index]

    # -- specializations ----------------------------------------------------

    def _specialize(self, expr: nodes.Expr) -> BatchCompiled:
        if isinstance(expr, nodes.Literal):
            value_of = self._literal(expr)
            return lambda batch, lits: [value_of(lits)] * batch.length
        if isinstance(expr, nodes.ColumnRef):
            index = resolve_column(expr, self._output)
            return lambda batch, lits: batch.columns[index]
        if isinstance(expr, nodes.IsNull):
            operand = self._compile(expr.operand)
            if expr.negated:
                return lambda batch, lits: [v is not None for v in operand(batch, lits)]
            return lambda batch, lits: [v is None for v in operand(batch, lits)]
        if isinstance(expr, nodes.Unary):
            return self._specialize_unary(expr)
        if isinstance(expr, nodes.Binary):
            return self._specialize_binary(expr)
        if isinstance(expr, nodes.InList):
            return self._specialize_in_list(expr)
        if isinstance(expr, nodes.Between):
            return self._specialize_between(expr)
        if isinstance(expr, nodes.Case):
            return self._specialize_case(expr)
        if isinstance(expr, nodes.Cast):
            return self._specialize_cast(expr)
        return self._specialize_function(expr)

    def _specialize_unary(self, expr: nodes.Unary) -> BatchCompiled:
        if expr.op == "-":
            operand = self._compile(expr.operand)

            def negate(batch: ColumnBatch, lits: tuple) -> list:
                out = []
                for value in operand(batch, lits):
                    if value is None:
                        out.append(None)
                    elif isinstance(value, (int, float)) and not isinstance(
                        value, bool
                    ):
                        out.append(-value)
                    else:
                        raise ExecutionError(f"cannot negate {value!r}")
                return out

            return negate
        operand = self._compile(expr.operand, truth=True)

        def negation(batch: ColumnBatch, lits: tuple) -> list:
            values = operand(batch, lits)
            if isinstance(values, np.ndarray):
                return ~values
            return [
                None if value is None else not truthy(value)
                for value in values
            ]

        return negation

    def _specialize_binary(self, expr: nodes.Binary) -> BatchCompiled:
        op = expr.op
        if op in ("AND", "OR"):
            return self._specialize_connective(expr)
        if op in _TRUE_CHECKS:
            return self._specialize_comparison(expr)
        if op in _ARITHMETIC_OPS:
            return self._specialize_arithmetic(expr)
        if op == "||":
            left, right = self._compile(expr.left), self._compile(expr.right)

            def concat(batch: ColumnBatch, lits: tuple) -> list:
                return [
                    None if lv is None or rv is None else to_text(lv) + to_text(rv)
                    for lv, rv in zip(left(batch, lits), right(batch, lits))
                ]

            return concat
        return self._specialize_like(expr)

    def _specialize_connective(self, expr: nodes.Binary) -> BatchCompiled:
        """Three-valued AND/OR, evaluated eagerly on both sides.

        The row closures short-circuit the right side's *evaluation*; the
        eager kernel evaluates a superset, so any error it surfaces that
        the row engine would have skipped is absorbed by the per-node
        fallback. The combination logic per row is exact.
        """
        left = self._compile(expr.left, truth=True)
        right = self._compile(expr.right, truth=True)
        conjunction = expr.op == "AND"

        def connective(batch: ColumnBatch, lits: tuple) -> list:
            lefts, rights = left(batch, lits), right(batch, lits)
            if isinstance(lefts, np.ndarray) and isinstance(rights, np.ndarray):
                return lefts & rights if conjunction else lefts | rights
            if isinstance(lefts, np.ndarray):
                lefts = lefts.tolist()
            if isinstance(rights, np.ndarray):
                rights = rights.tolist()
            out = []
            if conjunction:
                for lv, rv in zip(lefts, rights):
                    if lv is not None and not truthy(lv):
                        out.append(False)
                    elif rv is not None and not truthy(rv):
                        out.append(False)
                    elif lv is None or rv is None:
                        out.append(None)
                    else:
                        out.append(True)
            else:
                for lv, rv in zip(lefts, rights):
                    if lv is not None and truthy(lv):
                        out.append(True)
                    elif rv is not None and truthy(rv):
                        out.append(True)
                    elif lv is None or rv is None:
                        out.append(None)
                    else:
                        out.append(False)
            return out

        return connective

    def _specialize_comparison(self, expr: nodes.Binary) -> BatchCompiled:
        op = expr.op
        fast = self._numpy_comparison(expr)
        left, right = self._compile(expr.left), self._compile(expr.right)
        check = _TRUE_CHECKS[op]

        def comparison(batch: ColumnBatch, lits: tuple) -> list:
            if fast is not None:
                mask = fast(batch, lits)
                if mask is not None:
                    return mask
            # No mask: the shape has no numpy path (text, column vs
            # column, ...) or its column had no mirror at run time.
            KERNEL_MEMO_STATS.list_path_runs += 1
            out = []
            for lv, rv in zip(left(batch, lits), right(batch, lits)):
                ordering = compare_values(lv, rv)
                out.append(None if ordering is None else check(ordering))
            return out

        return comparison

    def _numpy_comparison(
        self, expr: nodes.Binary
    ) -> Callable[[ColumnBatch, tuple], "np.ndarray | None"] | None:
        """Mask kernel for ``column OP literal``, or ``None``. At run time
        it returns ``None`` when the column has no mirror (numeric
        literal) or no text codes (text literal, :func:`_code_mask`), and
        when an int literal lies beyond ``_NUMPY_INT_LIMIT``.

        Derives every operator from a ``<``/``>`` mask pair so the result
        reproduces ``compare_values``'s three-way semantics exactly (NaN
        compares "equal" in both engines). Literal/column dtype pairings
        that numpy would resolve through lossy promotion (float literal
        vs int64 column, unrepresentable int vs float column) bail to the
        generic loop at call time.
        """
        left, right, op = expr.left, expr.right, expr.op
        if isinstance(left, nodes.Literal) and isinstance(right, nodes.ColumnRef):
            left, right, op = right, left, _FLIPPED_OP[op]
        if not (
            isinstance(left, nodes.ColumnRef) and isinstance(right, nodes.Literal)
        ):
            return None
        # Class checks only: the kernel key carries the literal's class.
        literal_class = type(right.value)
        value_of = self._literal(right)
        index = resolve_column(left, self._output)
        if literal_class is str:

            def coded(batch: ColumnBatch, lits: tuple):
                if not batch.length:
                    return np.zeros(0, dtype=bool)
                encoded = batch.text_codes(index)
                if encoded is None:
                    return None
                return _code_mask(encoded, op, value_of(lits))

            return coded
        if literal_class is not int and literal_class is not float:
            return None

        def fast(batch: ColumnBatch, lits: tuple):
            if not batch.length:
                return np.zeros(0, dtype=bool)
            literal = value_of(lits)
            if literal_class is int and abs(literal) > _NUMPY_INT_LIMIT:
                return None
            mirror = batch.numpy_column(index)
            if mirror is None:
                return None
            if mirror.dtype.kind == "i":
                if literal_class is not int:
                    return None
                comparand = literal
            elif literal_class is int:
                comparand = float(literal)
                if comparand != literal:
                    return None
            else:
                comparand = literal
            lt = mirror < comparand
            gt = mirror > comparand
            if op == "=":
                mask = ~(lt | gt)
            elif op == "<>":
                mask = lt | gt
            elif op == "<":
                mask = lt
            elif op == "<=":
                mask = ~gt
            elif op == ">":
                mask = gt
            else:
                mask = ~lt
            return mask

        return fast

    def _specialize_arithmetic(self, expr: nodes.Binary) -> BatchCompiled:
        left, right = self._compile(expr.left), self._compile(expr.right)
        op = expr.op

        def arithmetic(batch: ColumnBatch, lits: tuple) -> list:
            out = []
            for lv, rv in zip(left(batch, lits), right(batch, lits)):
                if lv is None or rv is None:
                    out.append(None)
                    continue
                if not expr_lib.numeric(lv) or not expr_lib.numeric(rv):
                    raise ExecutionError(
                        f"arithmetic {op!r} on non-numeric operands"
                        f" ({type(lv).__name__}, {type(rv).__name__})"
                    )
                if op == "+":
                    out.append(lv + rv)
                elif op == "-":
                    out.append(lv - rv)
                elif op == "*":
                    out.append(lv * rv)
                elif op == "/":
                    if rv == 0:
                        raise ExecutionError("division by zero")
                    out.append(lv / rv)
                else:
                    if rv == 0:
                        raise ExecutionError("modulo by zero")
                    out.append(lv % rv)
            return out

        return arithmetic

    def _specialize_like(self, expr: nodes.Binary) -> BatchCompiled:
        # _lifted guarantees a text-literal pattern.
        operand = self._compile(expr.left)
        pattern_of = self._literal(expr.right)
        negated = expr.op == "NOT LIKE"

        def like(batch: ColumnBatch, lits: tuple) -> list:
            pattern = like_regex(pattern_of(lits))
            out = []
            for value in operand(batch, lits):
                if value is None:
                    out.append(None)
                else:
                    matched = pattern.match(to_text(value)) is not None
                    out.append((not matched) if negated else matched)
            return out

        return like

    def _specialize_in_list(self, expr: nodes.InList) -> BatchCompiled:
        """IN-list membership; a bare column against text literals only
        (no NULL item, which makes misses NULL) is a mask over its text
        codes whenever the column has them."""
        operand = self._compile(expr.operand)
        items = [self._compile(item) for item in expr.items]
        negated = expr.negated
        index = None
        if isinstance(expr.operand, nodes.ColumnRef) and all(
            isinstance(item, nodes.Literal) and type(item.value) is str
            for item in expr.items
        ):
            index = resolve_column(expr.operand, self._output)
            literals = [self._literal(item) for item in expr.items]

        def in_list(batch: ColumnBatch, lits: tuple) -> list:
            encoded = None if index is None else batch.text_codes(index)
            if encoded is not None:
                mask = np.zeros(batch.length, dtype=bool)
                for value_of in literals:
                    mask |= _code_mask(encoded, "=", value_of(lits))
                return ~mask if negated else mask
            values = operand(batch, lits)
            item_columns = [item(batch, lits) for item in items]
            out = []
            for i, value in enumerate(values):
                if value is None:
                    out.append(None)
                    continue
                saw_null = False
                verdict: Value = negated
                for column in item_columns:
                    candidate = column[i]
                    if candidate is None:
                        saw_null = True
                        continue
                    if compare_values(value, candidate) == 0:
                        verdict = not negated
                        break
                else:
                    if saw_null:
                        verdict = None
                out.append(verdict)
            return out

        return in_list

    def _specialize_between(self, expr: nodes.Between) -> BatchCompiled:
        operand = self._compile(expr.operand)
        low = self._compile(expr.low)
        high = self._compile(expr.high)
        negated = expr.negated

        def between(batch: ColumnBatch, lits: tuple) -> list:
            out = []
            for value, low_value, high_value in zip(
                operand(batch, lits), low(batch, lits), high(batch, lits)
            ):
                lower = compare_values(value, low_value)
                upper = compare_values(value, high_value)
                if lower is None or upper is None:
                    out.append(None)
                    continue
                inside = lower >= 0 and upper <= 0
                out.append((not inside) if negated else inside)
            return out

        return between

    def _specialize_case(self, expr: nodes.Case) -> BatchCompiled:
        """Masked CASE: each condition is evaluated only on still-active
        rows and each result only on the rows it was chosen for — the
        exact (row, expression) evaluation set of the row closure, so
        guarded patterns like ``CASE WHEN x <> 0 THEN 1/x END`` vectorize
        without spurious fallbacks."""
        whens = [
            (self._compile(condition), self._compile(result))
            for condition, result in expr.whens
        ]
        else_fn = (
            self._compile(expr.else_result)
            if expr.else_result is not None
            else None
        )

        def case(batch: ColumnBatch, lits: tuple) -> list:
            out: list = [None] * batch.length
            active = list(range(batch.length))
            for condition, result in whens:
                if not active:
                    break
                sub = batch.gather(active)
                chosen: list[int] = []
                remaining: list[int] = []
                for position, verdict in zip(active, condition(sub, lits)):
                    if verdict is not None and truthy(verdict):
                        chosen.append(position)
                    else:
                        remaining.append(position)
                if chosen:
                    for position, value in zip(
                        chosen, result(batch.gather(chosen), lits)
                    ):
                        out[position] = value
                active = remaining
            if else_fn is not None and active:
                for position, value in zip(
                    active, else_fn(batch.gather(active), lits)
                ):
                    out[position] = value
            return out

        return case

    def _specialize_cast(self, expr: nodes.Cast) -> BatchCompiled:
        from repro.storage.types import DataType, coerce_value

        operand = self._compile(expr.operand)
        target = DataType.parse(expr.type_name)

        def cast(batch: ColumnBatch, lits: tuple) -> list:
            return [coerce_value(value, target) for value in operand(batch, lits)]

        return cast

    def _specialize_function(self, expr: nodes.FuncCall) -> BatchCompiled:
        # _lifted admits only the functions below.
        name = expr.name
        if name in _TEXT_FUNCTIONS:
            operand = self._compile(expr.args[0])
            fn = {
                "LOWER": lambda v: to_text(v).lower(),
                "UPPER": lambda v: to_text(v).upper(),
                "LENGTH": lambda v: len(to_text(v)),
                "TRIM": lambda v: to_text(v).strip(),
            }[name]
            return lambda batch, lits: [
                None if v is None else fn(v) for v in operand(batch, lits)
            ]
        args = [self._compile(arg) for arg in expr.args]
        if name == "COALESCE":

            def coalesce(batch: ColumnBatch, lits: tuple) -> list:
                columns = [arg(batch, lits) for arg in args]
                out = []
                for i in range(batch.length):
                    value = None
                    for column in columns:
                        if column[i] is not None:
                            value = column[i]
                            break
                    out.append(value)
                return out

            return coalesce

        def fn_concat(batch: ColumnBatch, lits: tuple) -> list:
            columns = [arg(batch, lits) for arg in args]
            out = []
            for i in range(batch.length):
                pieces = []
                for column in columns:
                    value = column[i]
                    if value is None:
                        pieces = None
                        break
                    pieces.append(to_text(value))
                out.append(None if pieces is None else "".join(pieces))
            return out

        return fn_concat


_ARITHMETIC_OPS = frozenset({"+", "-", "*", "/", "%"})
_TEXT_FUNCTIONS = frozenset({"LOWER", "UPPER", "LENGTH", "TRIM"})
_SPECIALIZED_OPS = frozenset(_TRUE_CHECKS) | _ARITHMETIC_OPS | {"AND", "OR", "||"}
_UNLIFTED_TYPES = (
    nodes.Literal,
    nodes.ColumnRef,
    nodes.IsNull,
    nodes.InList,
    nodes.Between,
    nodes.Case,
    nodes.Cast,
)


def _lifted(expr: nodes.Expr) -> bool:
    """Whether the batch compiler lifts ``expr``'s row closure rather than
    specializing it (ABS, ROUND, SUBSTR, dynamic LIKE patterns, ...): the
    one decision the compiler and the kernel key share, since a lifted
    closure bakes its literals in and the key must then carry them."""
    if isinstance(expr, _UNLIFTED_TYPES):
        return False
    if isinstance(expr, nodes.Unary):
        return expr.op not in ("-", "NOT")
    if isinstance(expr, nodes.Binary):
        if expr.op in ("LIKE", "NOT LIKE"):
            return not (
                isinstance(expr.right, nodes.Literal)
                and isinstance(expr.right.value, str)
            )
        return expr.op not in _SPECIALIZED_OPS
    if isinstance(expr, nodes.FuncCall):
        if expr.name in _TEXT_FUNCTIONS:
            return len(expr.args) != 1
        if expr.name == "COALESCE":
            return not expr.args
        return expr.name != "CONCAT"
    return True


# ---------------------------------------------------------------------------
# node kernels and their memo
# ---------------------------------------------------------------------------

#: A node kernel: (executor, node, child batches, the node's run-time
#: literal values) -> output batch. Kernels capture only batch-compiled
#: expressions (safe to share process-wide per kernel key, see
#: :func:`_kernel_shape`) and read all other node state — table names,
#: limits, view rows — from ``node`` at call time.
NodeKernel = Callable[["ColumnarExecutor", logical.PlanNode, tuple, tuple], ColumnBatch]


@dataclass
class KernelMemoStats:
    """Observability counters for the columnar kernel memo (advisory,
    like :class:`~repro.engine.executor.ExprMemoStats`)."""

    builds: int = 0
    hits: int = 0
    #: kernels that raised at runtime and were recomputed by the row engine
    fallbacks: int = 0
    #: nodes executed through the row engine because no kernel exists
    unvectorized: int = 0
    #: kernel runs that took the per-value list path: a comparison with no
    #: numpy path at all (text literals, column vs column, ...), or a
    #: column that could have been read as a numpy mirror had none (NULLs,
    #: mixed types, bools, ints beyond int64) or held NaN where order matters
    list_path_runs: int = 0

    def reset(self) -> None:
        self.builds = 0
        self.hits = 0
        self.fallbacks = 0
        self.unvectorized = 0
        self.list_path_runs = 0


KERNEL_MEMO_STATS = KernelMemoStats()

#: Process-wide bounded LRU of node kernels by kernel key
#: (:func:`_kernel_shape`): what a kernel reads of its node, with literal
#: values reduced to their class, so one statement shape builds its
#: kernels once. ``None`` entries memoize "not vectorizable"
#: (subquery-bearing nodes, ``IndexScan`` leaves).
_KERNEL_MEMO: OrderedDict[tuple, NodeKernel | None] = OrderedDict()
_KERNEL_MEMO_LOCK = threading.Lock()
_KERNEL_MEMO_MAX = 4096


def clear_kernel_memo() -> None:
    """Drop all memoized node kernels (test isolation hook)."""
    with _KERNEL_MEMO_LOCK:
        _KERNEL_MEMO.clear()


def kernel_memo_occupancy() -> int:
    """Entries currently memoized (metrics-registry collector input)."""
    with _KERNEL_MEMO_LOCK:
        return len(_KERNEL_MEMO)


# Kernels hold compiled closures, so clearing the expression memo must
# drop them too or stale compiles stay reachable through the kernel memo.
executor_module._EXPR_MEMO_CLEAR_HOOKS.append(clear_kernel_memo)


def _truthy_flag(value: Value) -> bool:
    """The filter/join acceptance test, verbatim from the row engine."""
    return value is not None and value is not False and value != 0


def _compile_slot(
    node: logical.PlanNode,
    slot: tuple,
    expr: nodes.Expr,
    output: tuple[logical.OutputCol, ...],
    index_of: dict[int, int],
) -> BatchCompiled:
    return _BatchCompiler(node, slot, output, index_of).compile(expr)


class _SharedLiteral(Exception):
    """One ``Literal`` object read at two run-time positions of a node."""


def _expression_slots(node: logical.PlanNode) -> list[tuple] | None:
    """``(expression, input schema)`` per expression the node's kernel
    compiles, in :func:`_build_kernel`'s order; ``None`` for nodes whose
    kernel compiles no expression."""
    if isinstance(node, logical.Filter):
        return [(node.predicate, node.child.output)]
    if isinstance(node, logical.Project):
        output = node.child.output
        return [(expr, output) for expr in node.exprs]
    if isinstance(node, logical.HashJoin):
        left, right = node.left.output, node.right.output
        slots = [(key, left) for key in node.left_keys]
        slots += [(key, right) for key in node.right_keys]
        if node.residual is not None:
            slots.append((node.residual, left + right))
        return slots
    if isinstance(node, logical.NestedLoopJoin):
        if node.condition is None:
            return []
        return [(node.condition, node.output)]
    if isinstance(node, logical.Aggregate):
        output = node.child.output
        slots = [(expr, output) for expr in node.group_exprs]
        for call in node.agg_calls:
            slots += [(arg, output) for arg in call.args if not isinstance(arg, nodes.Star)]
        return slots
    if isinstance(node, logical.Sort):
        output = node.child.output
        return [(expr, output) for expr, _ in node.keys]
    return None


def _node_extras(node: logical.PlanNode) -> tuple:
    """What a kernel reads of its node at build time beyond the
    expressions :func:`_expression_slots` lists."""
    if isinstance(node, logical.HashJoin):
        return (len(node.left_keys), node.residual is None)
    if isinstance(node, logical.Aggregate):
        return (
            len(node.group_exprs),
            tuple(
                (call.name, call.distinct, tuple(type(arg).__name__ for arg in call.args))
                for call in node.agg_calls
            ),
        )
    if isinstance(node, logical.Sort):
        return tuple(ascending for _, ascending in node.keys)
    return ()


def _kernel_shape(node: logical.PlanNode) -> tuple[tuple, tuple]:
    """``(kernel key, run-time literal values)`` of ``node``, computed once
    per node and memoized on it.

    The key is what the node's kernel reads: the node type, its
    expressions with every column reference reduced to the input position
    it resolves to (so alias-renamed twins share kernels) and every
    literal outside lifted subtrees reduced to its class, plus the
    build-time node fields of :func:`_node_extras`. Those literals' values
    are the second element, in walk order; lifted subtrees — whose row
    closures bake their literals in — keep their values in the key, and
    so does every literal of a node that reads one ``Literal`` object at
    two positions.
    """
    memo = node.__dict__.get(logical.KERNEL_MEMO_ATTR)
    if memo is None:
        memo = _shape_of(node, [])
        object.__setattr__(node, logical.KERNEL_MEMO_ATTR, memo)
    return memo


def _shape_of(node: logical.PlanNode, ids: list) -> tuple[tuple, tuple]:
    """:func:`_kernel_shape` uncached; ``ids`` receives the ``id`` of each
    run-time literal, parallel to the values."""
    slots = _expression_slots(node)
    if slots is None:
        return (type(node).__name__,), ()
    lits: list = []
    try:
        parts = tuple(_expr_shape(expr, output, lits, ids) for expr, output in slots)
    except _SharedLiteral:
        lits.clear()
        ids.clear()
        parts = tuple(_expr_shape(expr, output, None, None) for expr, output in slots)
    return (type(node).__name__, _node_extras(node), parts), tuple(lits)


def _expr_shape(
    expr: nodes.Expr,
    output: tuple[logical.OutputCol, ...],
    lits: list | None,
    ids: list | None,
):
    """One expression's part of the kernel key. With ``lits`` ``None``
    (inside a lifted subtree) literals keep their values."""
    if isinstance(expr, nodes.Literal):
        value = expr.value
        if lits is None:
            # repr keeps -0.0 apart from 0.0, as a baked closure does.
            return ("lit", type(value), repr(value))
        if id(expr) in ids:
            raise _SharedLiteral
        lits.append(value)
        ids.append(id(expr))
        return type(value)
    if isinstance(expr, nodes.ColumnRef):
        try:
            return ("col", resolve_column(expr, output))
        except ReproError:
            return ("col?", expr.table, expr.column)
    if isinstance(expr, executor_module._SUBQUERY_EXPRS):
        return ("subquery", expr)
    if lits is not None and _lifted(expr):
        lits = ids = None
    parts: list = [type(expr).__name__]
    for value in expr.__dict__.values():
        if isinstance(value, nodes.Expr):
            parts.append(_expr_shape(value, output, lits, ids))
        elif type(value) is tuple:
            parts.append(_tuple_shape(value, output, lits, ids))
        else:
            parts.append(value)
    return tuple(parts)


def _tuple_shape(items: tuple, output, lits, ids) -> tuple:
    return tuple(
        _expr_shape(item, output, lits, ids)
        if isinstance(item, nodes.Expr)
        else _tuple_shape(item, output, lits, ids)
        if type(item) is tuple
        else item
        for item in items
    )


def _column_ref(
    expr: nodes.Expr, output: tuple[logical.OutputCol, ...]
) -> int | None:
    """The input position a bare column reference reads, else ``None``:
    the expressions whose mirror the kernels can read directly."""
    if isinstance(expr, nodes.ColumnRef):
        return resolve_column(expr, output)
    return None


def _build_kernel(node: logical.PlanNode) -> NodeKernel | None:
    """Build the vectorized kernel for one plan node, or ``None`` when the
    node must run through the row engine (subquery-bearing expressions,
    ``IndexScan`` leaves). Build-time compile errors (unknown column,
    unknown function) propagate — the caller falls back to the row path,
    which re-raises the row engine's own error."""
    ids: list = []
    _shape_of(node, ids)
    index_of = {literal_id: index for index, literal_id in enumerate(ids)}
    if isinstance(node, logical.Scan):
        return _scan_kernel
    if isinstance(node, logical.ViewScan):
        return _view_scan_kernel
    if isinstance(node, logical.Filter):
        compiler = _BatchCompiler(node, ("filter",), node.child.output, index_of)
        return _make_filter_kernel(compiler.compile(node.predicate, truth=True))
    if isinstance(node, logical.Project):
        fns = [
            _compile_slot(node, ("project", i), expr, node.child.output, index_of)
            for i, expr in enumerate(node.exprs)
        ]
        refs = [_column_ref(expr, node.child.output) for expr in node.exprs]
        return _make_project_kernel(fns, refs)
    if isinstance(node, logical.HashJoin):
        left_keys = [
            _compile_slot(node, ("hj-left", i), key, node.left.output, index_of)
            for i, key in enumerate(node.left_keys)
        ]
        right_keys = [
            _compile_slot(node, ("hj-right", i), key, node.right.output, index_of)
            for i, key in enumerate(node.right_keys)
        ]
        residual = (
            _compile_slot(node, ("hj-residual",), node.residual, node.output, index_of)
            if node.residual is not None
            else None
        )
        return _make_hash_join_kernel(left_keys, right_keys, residual)
    if isinstance(node, logical.NestedLoopJoin):
        condition = (
            _compile_slot(node, ("nl-cond",), node.condition, node.output, index_of)
            if node.condition is not None
            else None
        )
        return _make_nested_loop_kernel(condition)
    if isinstance(node, logical.Aggregate):
        return _build_aggregate_kernel(node, index_of)
    if isinstance(node, logical.Sort):
        fns = [
            (_compile_slot(node, ("sort", i), expr, node.child.output, index_of), ascending)
            for i, (expr, ascending) in enumerate(node.keys)
        ]
        refs = [_column_ref(expr, node.child.output) for expr, _ in node.keys]
        return _make_sort_kernel(fns, None if None in refs else refs)
    if isinstance(node, logical.Limit):
        return _limit_kernel
    if isinstance(node, logical.Distinct):
        return _distinct_kernel
    return None  # IndexScan and anything new: row engine


# -- leaves -----------------------------------------------------------------


def _scan_kernel(ex, node: logical.Scan, batches: tuple, lits: tuple) -> ColumnBatch:
    table = ex._catalog.table(node.table)
    positions = [table.schema.position_of(c) for c in node.columns]
    sampler = ex._make_sampler(node.table)
    # One table state per scan: the counters, the segments and the sampled
    # rows all describe the same rows even if a write lands mid-scan.
    state = table.snapshot_state()
    stats = ex.context.stats
    stats.rows_scanned += state.num_rows
    stats.rows_processed += state.num_rows
    if sampler is None:
        # Zero-copy: the batch shares the state's segment lists and mirrors,
        # and reads text codes from the segments.
        counters = ex._catalog.storage_counters
        segments = [state.segment(position, counters) for position in positions]
        return ColumnBatch(
            [segment.values for segment in segments],
            state.num_rows,
            {index: segment.mirror for index, segment in enumerate(segments)},
            segments=segments,
        )
    # Sampled: one bernoulli draw per row in scan order — the identical
    # draw sequence the row engine consumes from the identical stream.
    rate = ex.context.sample_rate
    kept = [
        row
        for chunk in state.chunks
        for row in chunk.rows
        if sampler.bernoulli(rate)
    ]
    if not kept:
        return ColumnBatch([[] for _ in positions], 0)
    transposed = list(zip(*kept)) if positions else []
    return ColumnBatch([list(transposed[p]) for p in positions], len(kept))


def _view_scan_kernel(
    ex, node: logical.ViewScan, batches: tuple, lits: tuple
) -> ColumnBatch:
    rows = node.materialized_rows()
    stats = ex.context.stats
    stats.rows_scanned += len(rows)
    stats.rows_processed += len(rows)
    return ColumnBatch.from_rows(rows, len(node.columns))


# -- operators --------------------------------------------------------------


def _make_filter_kernel(predicate: BatchCompiled) -> NodeKernel:
    """Keeps the rows whose predicate value is truthy; the predicate is a
    truth kernel, so its result is a numpy mask or a value list."""

    def kernel(ex, node, batches: tuple, lits: tuple) -> ColumnBatch:
        (batch,) = batches
        n = batch.length
        ex.context.stats.rows_processed += n
        mask = predicate(batch, lits)
        if not isinstance(mask, np.ndarray):
            mask = np.fromiter(map(_truthy_flag, mask), dtype=bool, count=n)
        indices = np.flatnonzero(mask)
        if len(indices) == n:
            return batch  # zero-copy: nothing rejected
        return batch.gather(indices)

    return kernel


def _make_project_kernel(
    fns: list[BatchCompiled], refs: list[int | None]
) -> NodeKernel:
    """Bare column references keep their mirror and text codes."""

    def kernel(ex, node, batches: tuple, lits: tuple) -> ColumnBatch:
        (batch,) = batches
        ex.context.stats.rows_processed += batch.length
        mirrors = {
            position: batch._numpy[ref]
            for position, ref in enumerate(refs)
            if ref is not None and ref in batch._numpy
        }
        codes = {
            position: batch._codes[ref]
            for position, ref in enumerate(refs)
            if ref is not None and ref in batch._codes
        }
        return ColumnBatch(
            [fn(batch, lits) for fn in fns], batch.length, mirrors, codes
        )

    return kernel


def _make_hash_join_kernel(
    left_keys: list[BatchCompiled],
    right_keys: list[BatchCompiled],
    residual: BatchCompiled | None,
) -> NodeKernel:
    def kernel(ex, node, batches: tuple, lits: tuple) -> ColumnBatch:
        left, right = batches
        ex.context.stats.rows_processed += left.length + right.length

        build: dict[tuple, list[int]] = {}
        left_key_columns = [fn(left, lits) for fn in left_keys]
        for i in range(left.length):
            key = tuple(column[i] for column in left_key_columns)
            if any(part is None for part in key):
                continue
            build.setdefault(key, []).append(i)

        pair_left: list[int] = []
        pair_right: list[int] = []
        right_key_columns = [fn(right, lits) for fn in right_keys]
        for j in range(right.length):
            key = tuple(column[j] for column in right_key_columns)
            if any(part is None for part in key):
                continue
            positions = build.get(key)
            if positions:
                pair_left.extend(positions)
                pair_right.extend([j] * len(positions))

        out_left = [[column[i] for i in pair_left] for column in left.columns]
        out_right = [[column[j] for j in pair_right] for column in right.columns]
        if residual is not None and pair_left:
            combined = ColumnBatch(out_left + out_right, len(pair_left))
            flags = [_truthy_flag(v) for v in residual(combined, lits)]
            if not all(flags):
                out_left = [list(compress(c, flags)) for c in out_left]
                out_right = [list(compress(c, flags)) for c in out_right]
                pair_left = list(compress(pair_left, flags))

        length = len(pair_left)
        if node.kind == "LEFT":
            matched = set(pair_left)
            unmatched = [i for i in range(left.length) if i not in matched]
            if unmatched:
                for out_column, source in zip(out_left, left.columns):
                    out_column.extend(source[i] for i in unmatched)
                for out_column in out_right:
                    out_column.extend([None] * len(unmatched))
                length += len(unmatched)
        return ColumnBatch(out_left + out_right, length)

    return kernel


def _make_nested_loop_kernel(condition: BatchCompiled | None) -> NodeKernel:
    def kernel(ex, node, batches: tuple, lits: tuple) -> ColumnBatch:
        left, right = batches
        L, R = left.length, right.length
        ex.context.stats.rows_processed += L * R
        right_width = len(node.right.output)
        if R == 0:
            if node.kind == "LEFT":
                return ColumnBatch(
                    [list(column) for column in left.columns]
                    + [[None] * L for _ in range(right_width)],
                    L,
                )
            return ColumnBatch([[] for _ in node.output], 0)
        if L * R > _MAX_NESTED_PAIRS:
            # The row engine streams pairs; materialising this cross
            # product would not.
            raise ExecutionError("nested-loop pair expansion too large")
        expanded_left = [
            [value for value in column for _ in range(R)] for column in left.columns
        ]
        expanded_right = [column * L for column in right.columns]
        if condition is None:
            # Cross join: every pair matches (and R > 0 pads nothing).
            return ColumnBatch(expanded_left + expanded_right, L * R)
        combined = ColumnBatch(expanded_left + expanded_right, L * R)
        flags = [_truthy_flag(v) for v in condition(combined, lits)]
        if node.kind != "LEFT":
            return ColumnBatch(
                [list(compress(c, flags)) for c in expanded_left]
                + [list(compress(c, flags)) for c in expanded_right],
                sum(flags),
            )
        # LEFT join: null-pad each unmatched left row in place, preserving
        # the row engine's left-major emission order. Negative markers in
        # the index plan encode "pad for left row (-k - 1)".
        plan: list[int] = []
        for i in range(L):
            base = i * R
            matched = False
            for j in range(R):
                if flags[base + j]:
                    plan.append(base + j)
                    matched = True
            if not matched:
                plan.append(-i - 1)
        out_left = []
        for ci, expanded in enumerate(expanded_left):
            source = left.columns[ci]
            out_left.append(
                [expanded[k] if k >= 0 else source[-k - 1] for k in plan]
            )
        out_right = [
            [expanded[k] if k >= 0 else None for k in plan]
            for expanded in expanded_right
        ]
        return ColumnBatch(out_left + out_right, len(plan))

    return kernel


@dataclass
class _AggSpec:
    """One aggregate call, batch-compiled."""

    kind: str  # count_star | count | sum | avg | min | max
    fn: BatchCompiled | None = None
    distinct: bool = False
    #: input position of a bare-column argument (mirror-readable), else None
    ref: int | None = None


def _build_aggregate_kernel(
    node: logical.Aggregate, index_of: dict[int, int]
) -> NodeKernel:
    output = node.child.output
    group_fns = [
        _compile_slot(node, ("group", i), expr, output, index_of)
        for i, expr in enumerate(node.group_exprs)
    ]
    group_refs = [_column_ref(expr, output) for expr in node.group_exprs]
    specs: list[_AggSpec] = []
    for call_index, call in enumerate(node.agg_calls):
        name = call.name
        if name == "COUNT":
            if len(call.args) != 1:
                raise ExecutionError("COUNT expects exactly one argument")
            if isinstance(call.args[0], nodes.Star):
                specs.append(_AggSpec("count_star"))
                continue
        elif len(call.args) != 1 or isinstance(call.args[0], nodes.Star):
            raise ExecutionError(f"{name} expects exactly one column argument")
        elif name not in ("SUM", "AVG", "MIN", "MAX"):
            raise ExecutionError(f"unknown aggregate function {name!r}")
        arg = call.args[0]
        fn = _compile_slot(node, ("agg-arg", call_index, 0), arg, output, index_of)
        specs.append(
            _AggSpec(name.lower(), fn, call.distinct, _column_ref(arg, output))
        )
    return _make_aggregate_kernel(group_fns, group_refs, specs)


def _mirror_grouping(mirror):
    """Group a mirrored key column in first-appearance order: returns
    (each group's first row, group id per row), or ``None`` for a missing
    or NaN-bearing mirror (NaN keys group by object identity in a dict).
    Float keys group like dict keys do: ``-0.0`` joins ``0.0``'s group
    and the key shown is the first one seen."""
    if mirror is None or (mirror.dtype.kind == "f" and np.isnan(mirror).any()):
        return None
    _, first, codes = np.unique(mirror, return_index=True, return_inverse=True)
    order = np.argsort(first)
    group_of = np.empty(len(order), dtype=np.intp)
    group_of[order] = np.arange(len(order), dtype=np.intp)
    return first[order], group_of[codes]


def _mirror_aggregate(kind: str, mirror, ids, sizes: list[int]) -> list | None:
    """One aggregate over a mirrored column, bit-identical to the
    accumulators; ``None`` when the column must take the list path.
    ``ids`` is the group id per row, ``sizes`` the rows per group."""
    if mirror is None:
        return None
    if kind == "count":
        return sizes  # a mirror holds no NULLs
    if kind in ("sum", "avg"):
        # bincount adds each weight to its group's +0.0 start in row
        # order: the accumulators' exact float sequence.
        totals = np.bincount(ids, weights=mirror, minlength=len(sizes)).tolist()
        if kind == "avg":
            return [total / size for total, size in zip(totals, sizes)]
        if mirror.dtype.kind == "i":
            return [int(total) for total in totals]
        return totals
    # Ungrouped MIN/MAX: the first extreme wins ties, like the loop's
    # keep-first; NaN compares "equal" to everything there, so it cannot.
    if mirror.dtype.kind == "f" and np.isnan(mirror).any():
        return None
    position = mirror.argmin() if kind == "min" else mirror.argmax()
    return [mirror[position].item()]


def _list_aggregate(spec: _AggSpec, column: list, group_ids: list[int], count: int) -> list:
    """One aggregate over a value list, loop-for-loop the accumulators."""
    if spec.kind == "count":
        if spec.distinct:
            seen: list[set] = [set() for _ in range(count)]
            for gid, value in zip(group_ids, column):
                if value is not None:
                    seen[gid].add(value)
            return [len(s) for s in seen]
        counts = [0] * count
        for gid, value in zip(group_ids, column):
            if value is not None:
                counts[gid] += 1
        return counts
    if spec.kind == "sum":
        totals = [0.0] * count
        nonnull = [0] * count
        any_float = [False] * count
        for gid, value in zip(group_ids, column):
            if value is None:
                continue
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ExecutionError(f"SUM over non-numeric value {value!r}")
            totals[gid] += value
            nonnull[gid] += 1
            if isinstance(value, float):
                any_float[gid] = True
        return [
            None
            if nonnull[g] == 0
            else (totals[g] if any_float[g] else int(totals[g]))
            for g in range(count)
        ]
    if spec.kind == "avg":
        totals = [0.0] * count
        nonnull = [0] * count
        for gid, value in zip(group_ids, column):
            if value is None:
                continue
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ExecutionError(f"AVG over non-numeric value {value!r}")
            totals[gid] += float(value)
            nonnull[gid] += 1
        return [
            None if nonnull[g] == 0 else totals[g] / nonnull[g]
            for g in range(count)
        ]
    is_min = spec.kind == "min"
    bests: list[Value] = [None] * count
    for gid, value in zip(group_ids, column):
        if value is None:
            continue
        best = bests[gid]
        if best is None:
            bests[gid] = value
            continue
        ordering = compare_values(value, best)
        if ordering is None:
            continue
        if (is_min and ordering < 0) or (not is_min and ordering > 0):
            bests[gid] = value
    return bests


def _make_aggregate_kernel(
    group_fns: list[BatchCompiled],
    group_refs: list[int | None],
    specs: list[_AggSpec],
) -> NodeKernel:
    """Exact (sample_rate 1.0) grouped aggregation over columns.

    An aggregate whose argument is a bare column with a numpy mirror
    reduces in numpy, bit-identically (:func:`_mirror_aggregate`): COUNT,
    SUM and AVG grouped or not, MIN and MAX ungrouped. A single bare-column
    GROUP BY key with a mirror gets its group ids from numpy too. Anything
    else replicates the accumulators loop-for-loop on the value lists
    (:func:`_list_aggregate`): SUM starts at 0.0 and returns int when no
    float was seen, NULLs are skipped, distinct counts use sets, and
    ``compare_values``-based MIN/MAX skip incomparable values. Sampled
    aggregation keeps its scaled estimates and error terms on the row
    path — the executor routes it there before trying this kernel.
    """
    mirror_keyed = len(group_refs) == 1 and group_refs[0] is not None

    def kernel(ex, node, batches: tuple, lits: tuple) -> ColumnBatch:
        (batch,) = batches
        n = batch.length
        ex.context.stats.rows_processed += n
        list_path = False
        id_list = None  # the list path's view of ``ids``, built once

        if group_fns:
            grouping = None
            if mirror_keyed and n:
                key_mirror = batch.numpy_column(group_refs[0])
                grouping = _mirror_grouping(key_mirror)
                list_path = grouping is None
            if grouping is not None:
                firsts, ids = grouping
                keys = [(value,) for value in key_mirror[firsts].tolist()]
            else:
                group_columns = [fn(batch, lits) for fn in group_fns]
                index_of: dict[tuple, int] = {}
                keys = []
                group_ids = []
                rows = (
                    ((value,) for value in group_columns[0])
                    if len(group_columns) == 1
                    else zip(*group_columns)
                )
                for key in rows:
                    gid = index_of.get(key)
                    if gid is None:
                        gid = len(keys)
                        index_of[key] = gid
                        keys.append(key)
                    group_ids.append(gid)
                id_list = group_ids
                ids = np.fromiter(group_ids, dtype=np.intp, count=n)
        else:
            keys = [()] if n else []
            ids = np.zeros(n, dtype=np.intp)

        count = len(keys)
        identity_row = not keys and not node.group_exprs
        if identity_row:
            keys = [()]
            count = 1
        sizes = np.bincount(ids, minlength=count).tolist()

        agg_columns: list[list[Value]] = []
        for spec in specs:
            if identity_row:
                agg_columns.append([0 if spec.kind in ("count_star", "count") else None])
                continue
            if spec.kind == "count_star":
                agg_columns.append(sizes)
                continue
            values = None
            if (
                spec.ref is not None
                and not spec.distinct
                and (spec.kind in ("count", "sum", "avg") or not group_fns)
            ):
                values = _mirror_aggregate(
                    spec.kind, batch.numpy_column(spec.ref), ids, sizes
                )
                list_path = list_path or values is None
            if values is None:
                if id_list is None:
                    id_list = ids.tolist()
                values = _list_aggregate(
                    spec, spec.fn(batch, lits), id_list, count
                )
            agg_columns.append(values)
        if list_path:
            KERNEL_MEMO_STATS.list_path_runs += 1

        ex._estimate_errors = {}
        group_width = len(node.group_exprs)
        out_columns = [
            [key[position] for key in keys] for position in range(group_width)
        ]
        out_columns.extend(agg_columns)
        return ColumnBatch(out_columns, count)

    return kernel


def _mirror_sort_order(mirrors: list, ascending: list[bool]):
    """A stable ``np.lexsort`` order for mirrored keys, or ``None`` when a
    key has no mirror or holds NaN (which ``_SortKey`` ties with every
    value, an order no sort key reproduces). Descending keys are negated
    (``~`` for ints: order-reversing without overflow); ``-0.0`` and
    ``0.0`` stay tied either way, as they are for ``compare_values``."""
    keys = []
    for mirror, up in zip(mirrors, ascending):
        if mirror is None:
            return None
        if mirror.dtype.kind == "f":
            if np.isnan(mirror).any():
                return None
            keys.append(mirror if up else -mirror)
        else:
            keys.append(mirror if up else ~mirror)
    return np.lexsort(keys[::-1])


def _make_sort_kernel(
    fns: list[tuple[BatchCompiled, bool]], refs: list[int] | None
) -> NodeKernel:
    """Stable sort; bare-column keys with mirrors sort in numpy."""
    ascending = [up for _, up in fns]

    def kernel(ex, node, batches: tuple, lits: tuple) -> ColumnBatch:
        (batch,) = batches
        n = batch.length
        ex.context.stats.rows_processed += n
        if refs is not None and n:
            order = _mirror_sort_order(
                [batch.numpy_column(ref) for ref in refs], ascending
            )
            if order is not None:
                if (order[1:] > order[:-1]).all():
                    return batch  # already ordered: zero-copy
                return batch.gather(order)
            KERNEL_MEMO_STATS.list_path_runs += 1
        key_columns = [(fn(batch, lits), up) for fn, up in fns]

        def sort_key(i: int) -> tuple:
            return tuple(_SortKey(column[i], up) for column, up in key_columns)

        indices = sorted(range(n), key=sort_key)
        if indices == list(range(n)):
            return batch  # already ordered: zero-copy
        return batch.gather(indices)

    return kernel


def _limit_kernel(ex, node: logical.Limit, batches: tuple, lits: tuple) -> ColumnBatch:
    (batch,) = batches
    start = node.offset
    stop = batch.length if node.limit is None else min(batch.length, start + node.limit)
    length = max(0, stop - min(start, batch.length))
    # A snapshot: a cached batch is shared across threads, and another
    # execution may memoize a mirror on it while this one iterates.
    mirrors = {
        index: None if mirror is None else mirror[start:stop]
        for index, mirror in list(batch._numpy.items())
    }
    codes = {
        index: None if encoded is None else encoded.take(slice(start, stop))
        for index, encoded in list(batch._codes.items())
    }
    return ColumnBatch(
        [column[start:stop] for column in batch.columns], length, mirrors, codes
    )


def _distinct_kernel(
    ex, node: logical.Distinct, batches: tuple, lits: tuple
) -> ColumnBatch:
    (batch,) = batches
    ex.context.stats.rows_processed += batch.length
    seen: set[Row] = set()
    out: list[Row] = []
    for row in batch.to_rows():
        if row not in seen:
            seen.add(row)
            out.append(row)
    if len(out) == batch.length:
        return batch
    return ColumnBatch.from_rows(out, len(batch.columns))


# ---------------------------------------------------------------------------
# the columnar executor
# ---------------------------------------------------------------------------


class ColumnarExecutor(Executor):
    """Batch-at-a-time executor, byte-identical to :class:`Executor`.

    Every node executes as a :class:`ColumnBatch`; ``_execute`` (the
    row-level entry point the base class, subquery runners, and callers
    share) serves the batch's memoized row view, so results, counters, and
    cache interactions are indistinguishable from the row engine's. Rows
    are built only there and in the row fallback, never to feed the
    cache.
    """

    def _execute(self, node: logical.PlanNode) -> list[Row]:
        return self._execute_batch(node).to_rows()

    def _execute_batch(self, node: logical.PlanNode) -> ColumnBatch:
        """Mirror of the base ``_execute`` cache discipline, batch-valued.

        The cache key, counters, and stored representation (a
        :class:`ColumnBatch`) are exactly the row engine's — that is what
        lets one materialisation serve both engines. Span plumbing
        mirrors the row engine too: one ambient read with tracing off, a
        per-node span (rows out, cache verdict, kernel-vs-fallback)
        otherwise.
        """
        parent_span = obs_trace.current_span()
        if parent_span is None:
            return self._execute_batch_inner(node, None)
        span = parent_span.child(f"node:{type(node).__name__}")
        token = obs_trace.set_current(span)
        try:
            batch = self._execute_batch_inner(node, span)
            span.attrs["rows_out"] = len(batch)
            return batch
        finally:
            obs_trace.reset_current(token)
            span.finish()

    def _execute_batch_inner(self, node: logical.PlanNode, span) -> ColumnBatch:
        self.context.stats.operators_executed += 1
        cache = self.context.cache
        cache_key: tuple | None = None
        if cache is not None:
            cache_key = subplan_cache_key(
                node, self.context.sample_rate, self.context.sample_seed
            )
            if cache_key is not None:
                cached = cache.get(cache_key)
                if cached is not None:
                    self.context.stats.cache_hits += 1
                    if span is not None:
                        span.attrs["cache"] = "hit"
                    return cached
                self.context.stats.cache_misses += 1
                if span is not None:
                    span.attrs["cache"] = "miss"

        batch = self._execute_batch_uncached(node)

        if cache is not None and cache_key is not None:
            cache[cache_key] = batch
        return batch

    def _execute_batch_uncached(self, node: logical.PlanNode) -> ColumnBatch:
        if isinstance(node, logical.OneRow):
            return ColumnBatch([], 1)
        if isinstance(node, logical.SubqueryScan):
            return self._execute_batch(node.child)
        if isinstance(node, (logical.Scan, logical.ViewScan, logical.IndexScan)):
            return self._columnar_node(node, ())
        if isinstance(
            node,
            (
                logical.Filter,
                logical.Project,
                logical.Aggregate,
                logical.Sort,
                logical.Limit,
                logical.Distinct,
            ),
        ):
            return self._columnar_node(node, (self._execute_batch(node.child),))
        if isinstance(node, (logical.HashJoin, logical.NestedLoopJoin)):
            return self._columnar_node(
                node,
                (self._execute_batch(node.left), self._execute_batch(node.right)),
            )
        raise ExecutionError(f"cannot execute plan node {type(node).__name__}")

    # -- kernel dispatch ----------------------------------------------------

    def _columnar_node(
        self, node: logical.PlanNode, batches: tuple
    ) -> ColumnBatch:
        kernel, lits = self._node_kernel(node)
        if kernel is not None and not (
            isinstance(node, logical.Aggregate) and self.context.sample_rate < 1.0
        ):
            stats = self.context.stats
            snapshot = (
                stats.rows_scanned,
                stats.rows_processed,
                stats.operators_executed,
                stats.cache_hits,
                stats.cache_misses,
            )
            span = obs_trace.current_span()
            try:
                batch = kernel(self, node, batches, lits)
                if span is not None:
                    span.attrs["exec"] = "kernel"
                return batch
            except Exception:
                # Anything a kernel raises — a genuine execution error, an
                # evaluation-order divergence, a numpy surprise — is
                # resolved by recomputing the node on the row path, which
                # restores byte-identical results *and* errors.
                (
                    stats.rows_scanned,
                    stats.rows_processed,
                    stats.operators_executed,
                    stats.cache_hits,
                    stats.cache_misses,
                ) = snapshot
                KERNEL_MEMO_STATS.fallbacks += 1
                if span is not None:
                    span.attrs["exec"] = "fallback"
        else:
            KERNEL_MEMO_STATS.unvectorized += 1
            span = obs_trace.current_span()
            if span is not None:
                span.attrs["exec"] = "row"
        rows = self._row_fallback(node, [batch.to_rows() for batch in batches])
        return ColumnBatch.from_rows(rows, len(node.output))

    def _node_kernel(
        self, node: logical.PlanNode
    ) -> tuple[NodeKernel | None, tuple]:
        """The node's kernel and the literal values it runs with."""
        key, lits = _kernel_shape(node)
        with _KERNEL_MEMO_LOCK:
            if key in _KERNEL_MEMO:
                _KERNEL_MEMO.move_to_end(key)
                KERNEL_MEMO_STATS.hits += 1
                # A memoized kernel embodies every compiled expression for
                # this node, so the reuse counts as expression-memo hits —
                # memo telemetry (and its tests) reads the same on both
                # engines.
                EXPR_MEMO_STATS.hits += 1
                return _KERNEL_MEMO[key], lits
        try:
            kernel = _build_kernel(node)
        except _NotVectorizable:
            kernel = None
        except Exception:
            # Build-time compile errors are the row engine's errors: take
            # the fallback path and let it raise them in its own order.
            KERNEL_MEMO_STATS.builds += 1
            return None, lits
        KERNEL_MEMO_STATS.builds += 1
        with _KERNEL_MEMO_LOCK:
            if key not in _KERNEL_MEMO and len(_KERNEL_MEMO) >= _KERNEL_MEMO_MAX:
                _KERNEL_MEMO.popitem(last=False)
            _KERNEL_MEMO[key] = kernel
        return kernel, lits

    # -- row fallback ---------------------------------------------------------

    def _row_fallback(
        self, node: logical.PlanNode, child_rows: list[list[Row]]
    ) -> list[Row]:
        """Recompute one node through the row engine's compute halves.

        Children are already materialised (as batches), so this consumes
        their row views instead of re-executing them — re-execution would
        double-count operators and cache traffic.
        """
        if isinstance(node, logical.Scan):
            return self._exec_scan(node)
        if isinstance(node, logical.IndexScan):
            return self._exec_index_scan(node)
        if isinstance(node, logical.ViewScan):
            return self._exec_view_scan(node)
        if isinstance(node, logical.Filter):
            return self._filter_rows(node, child_rows[0])
        if isinstance(node, logical.Project):
            return self._project_rows(node, child_rows[0])
        if isinstance(node, logical.HashJoin):
            return self._hash_join_rows(node, child_rows[0], child_rows[1])
        if isinstance(node, logical.NestedLoopJoin):
            return self._nested_loop_rows(node, child_rows[0], child_rows[1])
        if isinstance(node, logical.Aggregate):
            return self._aggregate_rows(node, child_rows[0])
        if isinstance(node, logical.Sort):
            return self._sort_rows(node, child_rows[0])
        if isinstance(node, logical.Limit):
            return self._limit_rows(node, child_rows[0])
        if isinstance(node, logical.Distinct):
            return self._distinct_rows(node, child_rows[0])
        raise ExecutionError(f"cannot execute plan node {type(node).__name__}")
