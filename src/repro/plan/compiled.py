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
* :class:`StatementCache` — a lock-guarded LRU keyed by exact SQL text and
  stamped with ``Catalog.version()``. The stamp is the *only* invalidation
  mechanism: it moves on DDL, DML, direct ``Table`` mutation, table swaps
  (branch checkout) and auxiliary-index builds, so nothing here listens
  to change events;
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

import threading
from collections import OrderedDict
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


class StatementCache:
    """Text-keyed LRU of compiled statements under one version stamp.

    ``get``/``put`` carry the caller's stamp; when it differs from the
    cache's, every entry is dropped first (one *invalidation*), so an
    entry is only ever served at the exact stamp it was stored under.
    Values are opaque to the cache (the shard router reuses it for
    scatter analyses under a constant stamp). ``max_entries=0`` disables
    caching — the differential tests' always-miss baseline.

    Lock discipline follows :class:`~repro.engine.executor.SubplanCache`:
    every accessor takes ``_lock``; none calls another while holding it.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        self._entries: OrderedDict[str, object] = OrderedDict()
        self._max_entries = max_entries
        self._stamp: tuple | None = None
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def _restamp(self, stamp: tuple) -> None:
        # Caller holds the lock.
        if stamp != self._stamp:
            if self._entries:
                self._entries.clear()
                self.invalidations += 1
            self._stamp = stamp

    def get(self, sql: str, stamp: tuple):
        with self._lock:
            self._restamp(stamp)
            entry = self._entries.get(sql)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(sql)
            self.hits += 1
            return entry

    def discount_miss(self) -> None:
        """Take back the miss the last :meth:`get` counted: the text turned
        out to be something this cache never holds (DML, DDL), so it is not
        a compilation the hit ratio should see."""
        with self._lock:
            self.misses -= 1

    def put(self, sql: str, stamp: tuple, entry) -> None:
        if self._max_entries <= 0:
            return
        with self._lock:
            self._restamp(stamp)
            if sql in self._entries:
                self._entries.move_to_end(sql)
            elif len(self._entries) >= self._max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
            self._entries[sql] = entry

    def counters(self) -> tuple[int, int, int, int]:
        """A consistent (hits, misses, evictions, invalidations) snapshot."""
        with self._lock:
            return (self.hits, self.misses, self.evictions, self.invalidations)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


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
