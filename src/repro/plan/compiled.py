"""Compiled statements: compile once, serve the swarm.

A swarm re-issues the same statements over and over (the paper's
*redundancy* property). The serving tiers below the planner already
exploit that — scheduler dedup, the subplan cache, answered-before history
— but every probe used to be lexed, parsed, planned and optimized from its
SQL text first, even when history then answered it without touching the
engine. This module puts the cache in front of the planner:

* :class:`CompiledStatement` — everything the pipeline derives from one
  statement's text under one catalog state: the AST, the optimized plan
  (shared, so the per-node fingerprint memo and the cost estimate
  :func:`compiled_estimate` memoizes beside it survive across probes), or
  the error the text fails with;
* :class:`~repro.util.cache.StatementCache` — a lock-guarded LRU, here
  keyed by exact SQL text and stamped with ``Catalog.version()``. The
  stamp is the *only* invalidation mechanism: it moves on DDL, DML,
  direct ``Table`` mutation, table swaps (branch checkout) and
  auxiliary-index builds, so nothing here listens to change events;
* :func:`compile_select` — the one parse → build → optimize sequence
  behind the database facade (and so the probe interpreter) and the read
  replicas. Only text that compiles to a plan, or fails trying, is cached:
  DML and DDL pass through (the write they perform would flush the entry
  before anyone could hit it).

The cache is derived state: never journaled, never snapshotted, cold after
recovery. Cached plans are shared across probes and threads, and
pickle with their memos stripped; nothing may mutate them (rewrites build new
nodes; the fingerprint and estimate memos are idempotent).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NoReturn

from repro.errors import PlanError, ReproError
from repro.obs import trace as obs_trace
from repro.plan import logical
from repro.plan.builder import build_plan
from repro.plan.cost import CostEstimate, estimate_cost
from repro.plan.rules import optimize_plan
from repro.sql import nodes
from repro.sql.parser import parse_statement
from repro.storage.catalog import Catalog
from repro.util.cache import StatementCache


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
    sql: str, catalog: Catalog, cache: StatementCache
) -> tuple[CompiledStatement, bool]:
    version = catalog.version()
    compiled = cache.get(sql, version)
    if compiled is not None:
        return compiled, True
    try:
        statement = parse_statement(sql)
    except ReproError as exc:
        compiled = CompiledStatement(
            version=catalog.version(), statement=None, failure=exc.with_traceback(None)
        )
    else:
        if not isinstance(statement, nodes.Select):
            cache.discount_miss()
            failure = PlanError("plan_select requires a SELECT statement")
            return CompiledStatement(version, statement, failure=failure), False
        compiled = compile_statement(statement, catalog)
    # A write racing the compile leaves the plan describing neither the
    # old nor the new catalog for certain: serve it once, never cache it.
    if catalog.version() == compiled.version:
        cache.put(sql, compiled.version, compiled)
    return compiled, False


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
