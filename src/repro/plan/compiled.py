"""Compiled statements: compile once per statement shape, serve the swarm.

A swarm re-issues the same statements over and over (the paper's
*redundancy* property), and its "unique" statements are a handful of
shapes with different constants. The serving tiers below the planner
already exploit that — scheduler dedup, the window's subplan memo,
answered-before history — but every probe used to be lexed, parsed,
planned and optimized from its SQL text first, even when history then
answered it without touching the engine. This module puts two cache
levels in front of the planner, both stamped with ``Catalog.version()``:

1. **Exact text.** :class:`StatementCache` maps SQL text to a
   :class:`CompiledStatement` — the AST, the optimized plan (shared, so
   the per-node fingerprint memo and the cost estimate
   :func:`compiled_estimate` memoizes beside it survive across probes),
   or the error the text fails with. A repeated text is one dict hit.
2. **Token shape.** On an exact-text miss, :func:`compile_select` parses
   through the parser's shape templates
   (:func:`repro.sql.parser.parse_shaped`) and looks the statement's
   shape up in ``StatementCache.templates``. The key is the token shape
   plus the equality pattern of its lifted literals (which of them are
   equal to each other, or to ``TRUE``/``FALSE``), because the builder
   compares expressions by value when it deduplicates aggregates and
   matches ORDER BY and GROUP BY expressions. The template is the
   optimized plan of the first text of that key, with the path from the
   root to every lifted ``Literal``. A later text is *bound*: each path's
   ``Literal`` gets the new value and only the nodes on literal-to-root
   paths are rebuilt; every other subtree is shared with the template,
   digests and all. A rebuilt node is digested on the spot from its
   children's digests (a node whose own fields did not change reuses the
   template's canonicalised fields) and carries no estimate or kernel
   key of the template's — those are per bound plan.

   A shape is *unliftable*, and every text of it compiles in full, when
   the parser cannot lift it (``-5``), when it does not compile, when a
   lifted literal is missing from the optimized plan (folded, as in
   ``1 = 1``, or copied into ``IndexScan`` bounds by index selection), or
   when one sits under an INNER ``HashJoin``, whose build side
   ``choose_build_sides`` picks from literal-dependent estimates.

The stamp is the *only* invalidation mechanism: it moves on DDL, DML,
direct ``Table`` mutation, table swaps (branch checkout) and
auxiliary-index builds, so nothing here listens to change events. Only
text that compiles to a plan, or fails trying, is cached: DML and DDL
pass through (the write they perform would flush the entry before anyone
could hit it).

Every plan :func:`compile_select` hands out carries its statement shape
(:func:`statement_shape`, memoized on the root before the plan is
cached): the parse template's text with ``?`` placeholders and this
text's values, or the text itself when the parser cannot lift its shape.
The memory store keys a statement's remembered results by it.

The caches are derived state: never journaled, never snapshotted, cold
after recovery. Cached and template plans are shared across probes and
threads, and pickle with their memos stripped; nothing may mutate them
(rewrites build new nodes; the fingerprint, estimate and kernel memos
are idempotent). ``StatementCache(max_entries=0)`` caches nothing at
either level: the differential tests' fresh-compile reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NoReturn

from repro.errors import PlanError, ReproError
from repro.obs import trace as obs_trace
from repro.plan import logical
from repro.plan.builder import build_plan
from repro.plan.cost import CostEstimate, estimate_cost
from repro.plan.fingerprint import (
    canonical_parts,
    digest_recipe,
    fingerprints,
    memoize_from_recipe,
    memoize_node,
    shadow_free_bindings,
)
from repro.plan.rules import optimize_plan
from repro.sql import nodes
from repro.sql.parser import literal_slots, parse_shaped, rebuild, slot_leaves
from repro.storage.catalog import Catalog
from repro.util import cache as _cache
from repro.util.hashing import Hole


class StatementCache(_cache.StatementCache):
    """Compiled statements by exact text, in front of plan templates by
    token shape (``templates``: same bound, same stamp discipline;
    ``None`` when ``max_entries`` disables caching)."""

    def __init__(self, max_entries: int = 4096) -> None:
        super().__init__(max_entries)
        self.templates = _cache.TemplateCache(max_entries) if max_entries > 0 else None


@dataclass(frozen=True)
class CompiledStatement:
    """One statement's text, compiled against one catalog version.

    Exactly one of ``plan`` / ``failure`` is set. ``statement`` is ``None``
    only when the text did not parse; non-SELECT text keeps its AST (the
    facade dispatches DML on it) beside the "requires a SELECT" failure,
    and is never cached.
    """

    #: ``Catalog.version()`` the plan was built under.
    version: tuple
    statement: nodes.AnyStatement | None
    plan: logical.PlanNode | None = None
    #: The error compilation raised, traceback stripped; ``str(failure)``
    #: is the interpreter's ``parse_error`` text.
    failure: ReproError | None = None

    def raise_failure(self) -> NoReturn:
        """Raise a fresh copy of the cached error: same type, message and
        attributes as the original, without sharing one exception object
        (and its traceback) between callers and threads."""
        template = self.failure
        assert template is not None
        error = type(template).__new__(type(template))
        error.args = template.args
        error.__dict__.update(template.__dict__)
        raise error


def compile_select(
    sql: str, catalog: Catalog, cache: StatementCache
) -> CompiledStatement:
    """Compile ``sql`` against ``catalog`` through ``cache``.

    Never raises :class:`~repro.errors.ReproError`: text that does not
    parse, is not a SELECT, or does not plan comes back with ``failure``
    set. Parse and plan failures are cached like any other entry, so a
    swarm repeating a broken statement pays for it once; non-SELECT text
    is neither stored nor counted — it is on its way to a write that moves
    the stamp.

    Under a traced caller the ambient span gets a ``plan:compile`` child
    saying whether the cache answered (``plan_cache=hit|miss``).
    """
    ambient = obs_trace.current_span()
    if ambient is None:
        return _compile_select(sql, catalog, cache)[0]
    span = ambient.child("plan:compile")
    compiled, hit = _compile_select(sql, catalog, cache)
    span.note(plan_cache="hit" if hit else "miss").finish()
    return compiled


def _compile_select(
    sql: str, catalog: Catalog, cache: _cache.StatementCache
) -> tuple[CompiledStatement, bool]:
    version = catalog.version()
    compiled = cache.get(sql, version)
    if compiled is not None:
        return compiled, True
    try:
        shaped = parse_shaped(sql)
    except ReproError as exc:
        compiled = CompiledStatement(
            version=catalog.version(), statement=None, failure=exc.with_traceback(None)
        )
    else:
        statement = shaped.statement
        if not isinstance(statement, nodes.Select):
            cache.discount_miss()
            failure = PlanError("plan_select requires a SELECT statement")
            return CompiledStatement(version, statement, failure=failure), False
        templates = getattr(cache, "templates", None)
        if templates is None:
            compiled = compile_statement(statement, catalog)
        else:
            compiled = _compile_shaped(
                statement, shaped.key, shaped.values, shaped.literals, catalog, templates
            )
        if compiled.plan is not None:
            shape = (sql, ()) if shaped.text is None else (shaped.text, tuple(shaped.values))
            object.__setattr__(compiled.plan, logical.SHAPE_MEMO_ATTR, shape)
    # A write racing the compile leaves the plan describing neither the
    # old nor the new catalog for certain: serve it once, never cache it.
    if catalog.version() == compiled.version:
        cache.put(sql, compiled.version, compiled)
    return compiled, False


def _compile_shaped(
    statement: nodes.Select,
    key: tuple,
    values: list | None,
    literals: list | None,
    catalog: Catalog,
    templates: _cache.TemplateCache,
) -> CompiledStatement:
    """Bind the plan template of ``statement``'s shape, recording it first
    when the shape has none under this catalog version."""
    version = catalog.version()
    template_key = (key, None if values is None else _equality_pattern(values))
    template = templates.get(template_key, version)
    if template is None:
        compiled = compile_statement(statement, catalog)
        if catalog.version() == version:
            templates.put(
                template_key, version, _PlanTemplate.record(compiled.plan, literals)
            )
        return compiled
    if template.slots is None:
        templates.note_unliftable()
        return compile_statement(statement, catalog)
    return CompiledStatement(version, statement, plan=template.bind(values))


def _equality_pattern(values: list) -> tuple:
    """Which lifted values equal an earlier one, ``TRUE`` or ``FALSE``:
    each value's first equal position (``-1``/``-2`` for ``TRUE``/
    ``FALSE``, which ``1``/``0`` equal in Python). Texts of one shape and
    one pattern make the builder's expression comparisons come out
    alike."""
    first: dict = {True: -1, False: -2}
    return tuple(first.setdefault(value, position) for position, value in enumerate(values))


#: Memo attributes a bound clone must not inherit from its template node:
#: they describe the template's literals.
_NODE_MEMO_ATTRS = (
    logical.FINGERPRINT_MEMO_ATTR,
    logical.ESTIMATE_MEMO_ATTR,
    logical.KERNEL_MEMO_ATTR,
)


@dataclass
class _PlanTemplate:
    """An optimized plan and the paths to its lifted literals.

    ``slots`` is a trie over paths from the root, as in the parser's
    templates: a dataclass node (plan or expression) maps field names, a
    tuple maps indices, and a leaf is the lifted literal's slot. ``None``
    marks an unliftable shape.

    The first bind digests the template and sets ``bindings``, the plan's
    shadow-free binding map (``None`` for a shadowed plan, whose clones
    are digested lazily), and ``recipes``: for each plan node on a slot
    path, by node identity, its canonical encoding with the slot values
    and rebuilt children's digests left as holes
    (:func:`~repro.plan.fingerprint.digest_recipe`), or ``None`` where
    the encoding depends on the values. Concurrent first binds compute
    the same values, so the race is benign.
    """

    plan: logical.PlanNode | None
    slots: dict | None
    bindings: dict | None = None
    recipes: dict | None = None

    @classmethod
    def record(
        cls, plan: logical.PlanNode | None, literals: list | None
    ) -> "_PlanTemplate":
        if plan is None or literals is None:
            return cls(None, None)
        slots = literal_slots(plan, literals)
        if set(slot_leaves(slots)) != set(range(len(literals))) or _joins_inner(
            plan, slots
        ):
            return cls(None, None)
        return cls(plan, slots)

    def bind(self, values: list) -> logical.PlanNode:
        """The template's plan with each slot's literal set to its value."""
        if self.recipes is None:
            fingerprints(self.plan)
            bindings = shadow_free_bindings(self.plan)
            recipes: dict = {}
            if bindings is not None:
                _collect_recipes(self.plan, self.slots, bindings, recipes)
            self.bindings, self.recipes = bindings, recipes
        return rebuild(
            self.plan,
            self.slots,
            lambda slot: nodes.Literal(values[slot]),
            lambda node, clone: self._digest(node, clone, values),
        )

    def _digest(self, node, clone, values: list) -> None:
        """Drop a rebuilt plan node's inherited memos and memoize its own
        digests (left lazy under a shadowed template)."""
        if not isinstance(node, logical.PlanNode):
            return
        for attr in _NODE_MEMO_ATTRS:
            clone.__dict__.pop(attr, None)
        if self.bindings is None:
            return
        recipe = self.recipes.get(id(node))
        if recipe is not None:
            memoize_from_recipe(clone, recipe, values)
        else:
            children = [
                child.__dict__[logical.FINGERPRINT_MEMO_ATTR][0]
                for child in clone.children()
            ]
            memoize_node(clone, canonical_parts(clone, self.bindings), children)


def _joins_inner(node, slots: dict) -> bool:
    """Whether a slot path passes through an INNER hash join: its build
    side was picked from estimates that read the literal's value."""
    if isinstance(node, logical.HashJoin) and node.kind == "INNER":
        return True
    return any(
        type(sub) is dict
        and _joins_inner(node[step] if type(node) is tuple else getattr(node, step), sub)
        for step, sub in slots.items()
    )


def _collect_recipes(node, slots: dict, bindings: dict, out: dict) -> None:
    """A :class:`~repro.plan.fingerprint.DigestRecipe` (or ``None``) for
    each plan node on a slot path under ``node``, by node identity."""
    if type(node) is tuple:
        for position, sub in slots.items():
            if type(sub) is dict:
                _collect_recipes(node[position], sub, bindings, out)
        return
    if isinstance(node, logical.PlanNode):
        child_fields = ("left", "right") if hasattr(node, "left") else ("child",)
        own = {name: sub for name, sub in slots.items() if name not in child_fields}
        holed = _fill_holes(node, own) if own else node
        out[id(node)] = digest_recipe(
            holed, bindings, tuple(name in slots for name in child_fields[: len(node.children())])
        )
    for name, sub in slots.items():
        if type(sub) is dict:
            _collect_recipes(getattr(node, name), sub, bindings, out)


def _fill_holes(node, slots: dict):
    """``node`` with each slot literal's value replaced by a hole keyed by
    its slot, for canonicalising only: child plan nodes stay shared, and
    the copied digest memo is never read."""
    return rebuild(node, slots, lambda slot: nodes.Literal(Hole(slot)))


def statement_shape(plan: logical.PlanNode) -> tuple[str, tuple] | None:
    """The statement shape a plan from :func:`compile_select` was compiled
    for: its parse template's text with ``?`` placeholders and the values
    this text binds to them, or ``(text, ())`` for a shape the parser
    cannot lift. Set before the plan is cached, so exact-text hits carry
    it; ``None`` for a plan built any other way (or unpickled)."""
    return plan.__dict__.get(logical.SHAPE_MEMO_ATTR)


def compiled_estimate(plan: logical.PlanNode, catalog: Catalog) -> CostEstimate:
    """:func:`~repro.plan.cost.estimate_cost`, computed once per plan object.

    For plans handed out by :func:`compile_select`: the cache never serves
    one past the catalog version it was built under, so neither does its
    estimate. Lazy rather than part of compiling because estimation reads
    table statistics (a full scan after every write) that plain
    ``Database.execute`` callers never need. For a plan kept across
    writes, call ``estimate_cost`` instead.
    """
    estimate = plan.__dict__.get(logical.ESTIMATE_MEMO_ATTR)
    if estimate is None:
        estimate = estimate_cost(plan, catalog)
        object.__setattr__(plan, logical.ESTIMATE_MEMO_ATTR, estimate)
    return estimate


def compile_statement(statement: nodes.Select, catalog: Catalog) -> CompiledStatement:
    """The uncached tail of :func:`compile_select`, for callers that hold
    a SELECT's AST rather than its text (``INSERT ... SELECT``)."""
    version = catalog.version()
    try:
        plan = optimize_plan(build_plan(statement, catalog), catalog)
    except ReproError as exc:
        return CompiledStatement(
            version=version, statement=statement, failure=exc.with_traceback(None)
        )
    return CompiledStatement(version=version, statement=statement, plan=plan)
