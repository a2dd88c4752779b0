"""Canonical plan fingerprints and sub-expression enumeration.

Fingerprints identify *semantically shareable* work: two plan subtrees with
the same fingerprint would compute the same rows, regardless of alias
choices, conjunct order, or operand order of commutative operators. They
power

* Figure 2's total-vs-unique sub-expression analysis,
* the multi-query-optimization cache (paper Sec. 5.2.1), and
* the materialization advisor (paper Sec. 5.2.2).

Canonicalisation performed:

* table aliases are replaced by the underlying base-table name (aliases from
  subqueries are kept — they denote genuinely different relations);
* unqualified column references are qualified against the subtree's scans;
* AND/OR chains are flattened and sorted; commutative binary operators
  (``=``, ``<>``, ``+``, ``*``) order operands canonically;
* projection output order is ignored (sorted), since a permutation of
  columns is the same work.

Merkle digests
--------------

A node's digest hashes its own canonical fields plus its children's
*digests* — never their canonical tuples — so each node is hashed once, over
its own expressions only, and an ancestor's cost does not grow with the
subtree below it. Order-insensitive comparisons (inner-join sides,
cross-join operands) sort child digests, so the equivalences above hold.

Memoization
-----------

The serving path fingerprints the *same* plan many times: the executor
keys its cache by the strict fingerprint of every node it materialises,
the probe optimizer needs strict+lenient digests per executed query, and
the scheduler/census walk whole batches of plans. Instead of recomputing
per call, :func:`fingerprints` computes strict and lenient digests (and
the subtree size) for **all** subtrees in one bottom-up pass and caches
them on each (immutable-after-optimize) :class:`PlanNode`, so every later
call — on the root or any descendant — is a dict lookup. The memo keeps
digests only. A node's expressions are canonicalised once for both
digests (:func:`canonical_parts`). A plan bound from a template
(:mod:`repro.plan.compiled`) is digested as it is built: each rebuilt
node fills the holes of its template node's :class:`DigestRecipe`.

The bottom-up pass is byte-identical to the per-call path whenever no
binding name is shadowed (two scans/aliases mapping one name to different
relations), which a pre-pass verifies; the rare shadowed plan falls back
to the per-call computation, which recurses the same Merkle way against
the root's binding map (kept as :func:`fingerprint_uncached`, which also
serves as the differential baseline in tests and benchmarks).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.plan import logical
from repro.sql import nodes
from repro.util.hashing import (
    Hole,
    HoleRead,
    encode_with_holes,
    stable_hash,
    stable_hash_filled,
)

_COMMUTATIVE_OPS = frozenset({"=", "<>", "+", "*"})

#: Attribute name under which per-node digests are cached. Set with
#: ``object.__setattr__`` (the nodes are frozen dataclasses); the cached
#: value is content-derived, so sharing a subtree between plans is safe.
_MEMO_ATTR = logical.FINGERPRINT_MEMO_ATTR


@dataclass(frozen=True)
class NodeFingerprints:
    """Both digests (and the subtree size) of one plan node."""

    lenient: str
    strict: str
    size: int


@dataclass
class FingerprintStats:
    """Observability counters for the memoization layer.

    ``nodes_canonicalised`` counts individual node canonicalisations (the
    unit of work memoization removes); the scheduler benchmark differences
    it to demonstrate the reduction. Counters are advisory: updates are
    not synchronised, so under free-threaded builds they may undercount.
    """

    calls: int = 0
    memo_hits: int = 0
    trees_memoized: int = 0
    shadowed_fallbacks: int = 0
    nodes_canonicalised: int = 0

    def reset(self) -> None:
        self.calls = 0
        self.memo_hits = 0
        self.trees_memoized = 0
        self.shadowed_fallbacks = 0
        self.nodes_canonicalised = 0


FINGERPRINT_STATS = FingerprintStats()


def fingerprints(plan: logical.PlanNode) -> NodeFingerprints:
    """Strict + lenient digests (and size) of ``plan``, memoized.

    The first call on any node of a tree runs one bottom-up pass over that
    node's subtree and caches a :class:`NodeFingerprints` on every node it
    visits; subsequent calls — including on descendants — are lookups.
    """
    FINGERPRINT_STATS.calls += 1
    memo = plan.__dict__.get(_MEMO_ATTR)
    if memo is not None:
        FINGERPRINT_STATS.memo_hits += 1
        return memo[0]
    return _memoize_tree(plan)


def fingerprint(plan: logical.PlanNode, strict: bool = False) -> str:
    """Canonical fingerprint of ``plan`` (40-char hex).

    With ``strict=False`` (the default, used by Figure 2's analysis and the
    materialization advisor) output *order* is ignored: a permutation of
    projected columns or of inner-join sides is "the same work". With
    ``strict=True`` (used by the executor's result cache) column and side
    order are preserved, so equal fingerprints imply byte-identical result
    rows.
    """
    memoized = fingerprints(plan)
    return memoized.strict if strict else memoized.lenient


def fingerprint_uncached(plan: logical.PlanNode, strict: bool = False) -> str:
    """The per-call (non-memoized) fingerprint: rebuilds the binding map
    and re-digests the whole subtree.

    Kept as the differential baseline for the memoization layer and as the
    fallback for binding-shadowed plans; produces identical digests to
    :func:`fingerprint` by construction.
    """
    return _digest(plan, _binding_map(plan), strict)


def _digest(node: logical.PlanNode, bindings: dict[str, str], strict: bool) -> str:
    """Per-call Merkle digest: recurses over children itself."""
    child_digests = tuple(_digest(child, bindings, strict) for child in node.children())
    return stable_hash(_canonical_node(node, bindings, strict, child_digests))


@dataclass(frozen=True)
class SubExpression:
    """One plan subtree, as counted by Figure 2."""

    fingerprint: str
    size: int
    root_code: str


def subexpressions(plan: logical.PlanNode) -> list[SubExpression]:
    """Every subtree of ``plan`` with its fingerprint, size, and root code."""
    if plan.__dict__.get(_MEMO_ATTR) is None:
        _memoize_tree(plan)
    if not plan.__dict__[_MEMO_ATTR][1]:
        # Shadowed bindings: per-subtree maps diverge from the root's, so
        # keep the original one-map-for-all-subtrees semantics.
        return _subexpressions_uncached(plan)
    out: list[SubExpression] = []
    for node in plan.walk():
        cached: NodeFingerprints = node.__dict__[_MEMO_ATTR][0]
        out.append(
            SubExpression(
                fingerprint=cached.lenient,
                size=cached.size,
                root_code=logical.root_operator_code(node),
            )
        )
    return out


def _subexpressions_uncached(plan: logical.PlanNode) -> list[SubExpression]:
    """Pre-memoization enumeration: one root binding map for all subtrees."""
    binding_map = _binding_map(plan)
    out: list[SubExpression] = []
    for node in plan.walk():
        out.append(
            SubExpression(
                fingerprint=_digest(node, binding_map, False),
                size=node.node_count(),
                root_code=logical.root_operator_code(node),
            )
        )
    return out


# ---------------------------------------------------------------------------
# memoization pass
# ---------------------------------------------------------------------------


def _memoize_tree(root: logical.PlanNode) -> NodeFingerprints:
    """Memoize every node of ``root``'s tree; return the root's digests.

    A memo is ``(NodeFingerprints, consistent)``. ``consistent`` is False
    only on the root of a shadowed tree, whose descendants are *not*
    memoized.
    """
    bindings: dict[str, str] = {}
    if _collect_bindings(root, bindings):
        memoized = _memoize_consistent(root, bindings)
    else:
        # A binding name maps to two different relations somewhere in this
        # tree: subtree-local maps diverge, so only the root digest (always
        # computed against its own map) can be cached safely.
        FINGERPRINT_STATS.shadowed_fallbacks += 1
        root_map = _binding_map(root)
        memoized = NodeFingerprints(
            lenient=_digest(root, root_map, False),
            strict=_digest(root, root_map, True),
            size=root.node_count(),
        )
        object.__setattr__(root, _MEMO_ATTR, (memoized, False))
    FINGERPRINT_STATS.trees_memoized += 1
    return memoized


def _collect_bindings(root: logical.PlanNode, out: dict[str, str]) -> bool:
    """Build the root binding map; False when a name is shadowed."""
    consistent = True
    for node in root.walk():
        if isinstance(node, (logical.Scan, logical.IndexScan)):
            name, target = node.binding.lower(), node.table.lower()
        elif isinstance(node, logical.SubqueryScan):
            name = node.alias.lower()
            target = name
        else:
            continue
        existing = out.get(name)
        if existing is None:
            out[name] = target
        elif existing != target:
            consistent = False
    return consistent


def _memoize_consistent(
    node: logical.PlanNode, bindings: dict[str, str]
) -> NodeFingerprints:
    """Bottom-up memoization under a shadow-free binding map.

    With no shadowing, each subtree's own binding map agrees with the
    root's on every name the subtree can reference, so the child digests
    computed here are exactly what ``fingerprint_uncached`` would produce
    for the child — parents hash them instead of re-digesting the subtree.
    """
    memo = node.__dict__.get(_MEMO_ATTR)
    if memo is not None and memo[1]:
        return memo[0]
    children = [_memoize_consistent(child, bindings) for child in node.children()]
    return memoize_node(node, canonical_parts(node, bindings), children)


def memoize_node(
    node: logical.PlanNode, parts: tuple, children: list[NodeFingerprints]
) -> NodeFingerprints:
    """Digest one node from its :func:`canonical_parts` and its children's
    digests, and memoize the result on it.

    The caller vouches that the parts were computed under the node's
    shadow-free root binding map: the memo is marked consistent, so
    descendants' memos are trusted as they stand.
    """
    memoized = NodeFingerprints(
        lenient=stable_hash(
            _assemble(node, parts, False, tuple(c.lenient for c in children))
        ),
        strict=stable_hash(
            _assemble(node, parts, True, tuple(c.strict for c in children))
        ),
        size=1 + sum(child.size for child in children),
    )
    object.__setattr__(node, _MEMO_ATTR, (memoized, True))
    return memoized


@dataclass(frozen=True)
class DigestRecipe:
    """One node's strict and lenient canonical encodings with holes.

    A hole with an integer key stands for the value of that lifted
    literal slot; ``("child", i)`` for the digest of child ``i``. Filling
    them (:func:`memoize_from_recipe`) digests a node that differs from
    the recipe's node only in those values, without canonicalising it.
    """

    strict: list
    lenient: list
    size: int


def digest_recipe(
    node: logical.PlanNode, bindings: dict[str, str], holed_children: tuple[bool, ...]
) -> DigestRecipe | None:
    """The :class:`DigestRecipe` of ``node``, whose slot literals hold
    :class:`~repro.util.hashing.Hole` values; the digests of the children
    flagged in ``holed_children`` become holes too, the others are read
    from their memos. ``None`` when canonicalising reads a hole — a sort
    whose order depends on the values (an IN list, two conjuncts equal up
    to their literals, the sides of an inner join) — so the digest must be
    computed in full per value."""
    memos = [
        None if holed else child.__dict__[_MEMO_ATTR][0]
        for holed, child in zip(holed_children, node.children())
    ]
    strict = tuple(
        Hole(("child", i)) if memo is None else memo.strict for i, memo in enumerate(memos)
    )
    lenient = tuple(
        Hole(("child", i)) if memo is None else memo.lenient for i, memo in enumerate(memos)
    )
    try:
        parts = canonical_parts(node, bindings)
        return DigestRecipe(
            strict=encode_with_holes(_assemble(node, parts, True, strict)),
            lenient=encode_with_holes(_assemble(node, parts, False, lenient)),
            size=1 + sum(child.node_count() for child in node.children()),
        )
    except HoleRead:
        return None


def memoize_from_recipe(
    node: logical.PlanNode, recipe: DigestRecipe, values: list
) -> None:
    """Memoize ``node``'s digests from ``recipe``: its slot literals hold
    ``values`` and its children are memoized."""
    children = [child.__dict__[_MEMO_ATTR][0] for child in node.children()]

    def strict(hole: Hole):
        key = hole.key
        return values[key] if type(key) is int else children[key[1]].strict

    def lenient(hole: Hole):
        key = hole.key
        return values[key] if type(key) is int else children[key[1]].lenient

    memoized = NodeFingerprints(
        lenient=stable_hash_filled(recipe.lenient, lenient),
        strict=stable_hash_filled(recipe.strict, strict),
        size=recipe.size,
    )
    object.__setattr__(node, _MEMO_ATTR, (memoized, True))


def shadow_free_bindings(root: logical.PlanNode) -> dict[str, str] | None:
    """The binding map the memo pass digests ``root``'s tree under, or
    ``None`` when a binding name is shadowed (the memo then holds only
    the root's digests)."""
    bindings: dict[str, str] = {}
    return bindings if _collect_bindings(root, bindings) else None


# ---------------------------------------------------------------------------
# plan canonicalisation
# ---------------------------------------------------------------------------


def _binding_map(plan: logical.PlanNode) -> dict[str, str]:
    """Map binding name (lower) -> base table name for alias erasure."""
    mapping: dict[str, str] = {}
    for node in plan.walk():
        if isinstance(node, (logical.Scan, logical.IndexScan)):
            mapping[node.binding.lower()] = node.table.lower()
        elif isinstance(node, logical.SubqueryScan):
            mapping.setdefault(node.alias.lower(), node.alias.lower())
    return mapping


def _stable_sorted(items) -> list:
    """Sort canonical tuples, surviving mixed-type literals.

    Canonical expression tuples embed raw literal values, and Python
    refuses to order e.g. ``1`` against ``'x'`` (``SELECT 1, 'x'`` used to
    crash lenient fingerprinting here). Plain sort stays the first choice
    so historical digests of comparable inputs are unchanged; only
    incomparable inputs take the repr-keyed total order.
    """
    items = list(items)
    try:
        return sorted(items)
    except TypeError:
        return sorted(items, key=repr)


def _canonical_node(
    node: logical.PlanNode,
    bindings: dict[str, str],
    strict: bool,
    child_digests: tuple[str, ...],
) -> tuple:
    """Canonical tuple of one node given its children's digests (the
    per-call path: one strictness at a time)."""
    return _assemble(node, canonical_parts(node, bindings), strict, child_digests)


def canonical_parts(node: logical.PlanNode, bindings: dict[str, str]) -> tuple:
    """The canonicalised fields of ``node`` itself, shared by both digests.

    Everything a node's digest hashes apart from its children's digests:
    expressions canonicalised once (binding inference and all), in
    declaration order. :func:`_assemble` sorts what the lenient digest
    ignores the order of and adds the child digests, so strict and lenient
    tuples cost one canonicalisation between them. The parts depend on the
    node's own fields, the binding map and its children's output schemas,
    never on its children's digests — a plan whose subtree changed below
    an unchanged node can reuse them.
    """
    FINGERPRINT_STATS.nodes_canonicalised += 1
    if isinstance(node, (logical.Scan, logical.IndexScan)):
        return (tuple(c.lower() for c in node.columns),)
    if isinstance(node, (logical.ViewScan, logical.OneRow, logical.SubqueryScan)):
        return ()
    if isinstance(node, logical.Filter):
        return (_canonical_predicate(node.predicate, bindings, node.child),)
    if isinstance(node, logical.Project):
        return ([_canonical_expr(expr, bindings, node.child) for expr in node.exprs],)
    if isinstance(node, logical.HashJoin):
        pairs = [
            (
                _canonical_expr(l, bindings, node.left),
                _canonical_expr(r, bindings, node.right),
            )
            for l, r in zip(node.left_keys, node.right_keys)
        ]
        residual = (
            None
            if node.residual is None
            else _canonical_predicate(node.residual, bindings, node)
        )
        return (pairs, residual)
    if isinstance(node, logical.NestedLoopJoin):
        condition = (
            None
            if node.condition is None
            else _canonical_predicate(node.condition, bindings, node)
        )
        return (condition,)
    if isinstance(node, logical.Aggregate):
        return (
            [_canonical_expr(e, bindings, node.child) for e in node.group_exprs],
            [_canonical_expr(a, bindings, node.child) for a in node.agg_calls],
        )
    if isinstance(node, logical.Sort):
        return (
            tuple(
                (_canonical_expr(expr, bindings, node.child), asc)
                for expr, asc in node.keys
            ),
        )
    if isinstance(node, (logical.Limit, logical.Distinct)):
        return ()
    raise TypeError(f"cannot canonicalise plan node {type(node).__name__}")


def _assemble(
    node: logical.PlanNode, parts: tuple, strict: bool, child_digests: tuple[str, ...]
) -> tuple:
    """The canonical tuple of one digest from :func:`canonical_parts`.

    ``child_digests`` is parallel to ``node.children()``; both the per-call
    path and the memoized bottom-up pass funnel through here, so their
    tuples (and therefore digests) are identical by construction.
    """
    if isinstance(node, logical.Scan):
        columns = parts[0] if strict else tuple(sorted(parts[0]))
        return ("scan", node.table.lower(), columns)
    if isinstance(node, logical.IndexScan):
        base = (
            "indexscan",
            node.table.lower(),
            parts[0] if strict else tuple(sorted(parts[0])),
            node.index_column.lower(),
            node.equal_value,
            node.low,
            node.high,
            node.low_inclusive,
            node.high_inclusive,
            node.is_equality,
        )
        # Row-id-ordered scans produce a different row order than native
        # index order, so they must never share a digest with the default;
        # appending the marker only when set keeps historical digests for
        # planner-emitted scans unchanged.
        return base + ("rid-order",) if node.row_id_order else base
    if isinstance(node, logical.ViewScan):
        # Identity is (source subtree, build, column permutation): rows are
        # pinned by build_id, so equal digests imply identical output.
        return ("viewscan", node.source_strict, node.build_id, node.projection)
    if isinstance(node, logical.OneRow):
        return ("onerow",)
    if isinstance(node, logical.SubqueryScan):
        return ("subquery", node.alias.lower(), child_digests[0])
    if isinstance(node, logical.Filter):
        return ("filter", parts[0], child_digests[0])
    if isinstance(node, logical.Project):
        exprs = parts[0] if strict else _stable_sorted(parts[0])
        return ("project", tuple(exprs), child_digests[0])
    if isinstance(node, logical.HashJoin):
        left, right = child_digests
        pairs, residual = parts
        if node.kind == "INNER" and not strict:
            # Inner hash joins are commutative: order sides canonically.
            left_side = (left, tuple(_stable_sorted(p[0] for p in pairs)))
            right_side = (right, tuple(_stable_sorted(p[1] for p in pairs)))
            sides = _stable_sorted([left_side, right_side])
            key_set = tuple(_stable_sorted(tuple(_stable_sorted(p)) for p in pairs))
            return ("hashjoin", "INNER", sides[0], sides[1], key_set, residual)
        return ("hashjoin", node.kind, left, right, tuple(_stable_sorted(pairs)), residual)
    if isinstance(node, logical.NestedLoopJoin):
        left, right = child_digests
        if node.kind in ("INNER", "CROSS") and not strict:
            first, second = _stable_sorted([left, right])
            return ("nljoin", node.kind, first, second, parts[0])
        return ("nljoin", node.kind, left, right, parts[0])
    if isinstance(node, logical.Aggregate):
        group_list, agg_list = parts
        if not strict:
            group_list = _stable_sorted(group_list)
            agg_list = _stable_sorted(agg_list)
        return ("aggregate", tuple(group_list), tuple(agg_list), child_digests[0])
    if isinstance(node, logical.Sort):
        return ("sort", parts[0], child_digests[0])
    if isinstance(node, logical.Limit):
        return ("limit", node.limit, node.offset, child_digests[0])
    if isinstance(node, logical.Distinct):
        return ("distinct", child_digests[0])
    raise TypeError(f"cannot canonicalise plan node {type(node).__name__}")


# ---------------------------------------------------------------------------
# expression canonicalisation
# ---------------------------------------------------------------------------


def _canonical_predicate(
    expr: nodes.Expr, bindings: dict[str, str], scope: logical.PlanNode
) -> tuple:
    """Canonical form of a boolean predicate: flatten + sort AND/OR chains."""
    if isinstance(expr, nodes.Binary) and expr.op in ("AND", "OR"):
        parts = _stable_sorted(
            _canonical_predicate(part, bindings, scope)
            for part in _flatten(expr, expr.op)
        )
        return (expr.op.lower(), tuple(parts))
    return _canonical_expr(expr, bindings, scope)


def _flatten(expr: nodes.Expr, op: str) -> list[nodes.Expr]:
    if isinstance(expr, nodes.Binary) and expr.op == op:
        return _flatten(expr.left, op) + _flatten(expr.right, op)
    return [expr]


def _canonical_expr(
    expr: nodes.Expr, bindings: dict[str, str], scope: logical.PlanNode
) -> tuple:
    if isinstance(expr, nodes.Literal):
        return ("lit", expr.value)
    if isinstance(expr, nodes.ColumnRef):
        qualifier = expr.table.lower() if expr.table else _infer_binding(expr, scope)
        base = bindings.get(qualifier or "", qualifier or "")
        return ("col", base, expr.column.lower())
    if isinstance(expr, nodes.Star):
        return ("star", expr.table.lower() if expr.table else None)
    if isinstance(expr, nodes.Unary):
        return ("unary", expr.op, _canonical_expr(expr.operand, bindings, scope))
    if isinstance(expr, nodes.Binary):
        left = _canonical_expr(expr.left, bindings, scope)
        right = _canonical_expr(expr.right, bindings, scope)
        if expr.op in _COMMUTATIVE_OPS:
            left, right = _stable_sorted([left, right])
        # Normalise flipped inequalities: a > b  ==  b < a.
        flip = {">": "<", ">=": "<="}
        if expr.op in flip:
            return ("bin", flip[expr.op], right, left)
        if expr.op in ("AND", "OR"):
            return _canonical_predicate(expr, bindings, scope)
        return ("bin", expr.op, left, right)
    if isinstance(expr, nodes.IsNull):
        return ("isnull", expr.negated, _canonical_expr(expr.operand, bindings, scope))
    if isinstance(expr, nodes.InList):
        items = tuple(
            _stable_sorted(_canonical_expr(item, bindings, scope) for item in expr.items)
        )
        return ("inlist", expr.negated, _canonical_expr(expr.operand, bindings, scope), items)
    if isinstance(expr, nodes.Between):
        return (
            "between",
            expr.negated,
            _canonical_expr(expr.operand, bindings, scope),
            _canonical_expr(expr.low, bindings, scope),
            _canonical_expr(expr.high, bindings, scope),
        )
    if isinstance(expr, nodes.FuncCall):
        return (
            "func",
            expr.name,
            expr.distinct,
            tuple(_canonical_expr(arg, bindings, scope) for arg in expr.args),
        )
    if isinstance(expr, nodes.Case):
        whens = tuple(
            (
                _canonical_expr(c, bindings, scope),
                _canonical_expr(r, bindings, scope),
            )
            for c, r in expr.whens
        )
        else_part = (
            None
            if expr.else_result is None
            else _canonical_expr(expr.else_result, bindings, scope)
        )
        return ("case", whens, else_part)
    if isinstance(expr, nodes.Cast):
        return ("cast", expr.type_name, _canonical_expr(expr.operand, bindings, scope))
    if isinstance(expr, (nodes.InSubquery, nodes.ScalarSubquery, nodes.Exists)):
        # Subquery expressions canonicalise via their SQL text; they are rare
        # in the workloads and never join-shared.
        negated = getattr(expr, "negated", False)
        return ("subexpr", type(expr).__name__, negated, expr.sql().lower())
    raise TypeError(f"cannot canonicalise expression {type(expr).__name__}")


def _infer_binding(ref: nodes.ColumnRef, scope: logical.PlanNode) -> str | None:
    """Find the unique binding providing an unqualified column, if any."""
    matches = {
        col.binding.lower()
        for col in scope.output
        if col.binding is not None and col.name.lower() == ref.column.lower()
    }
    if len(matches) == 1:
        return matches.pop()
    return None
