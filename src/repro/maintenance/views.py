"""Materialized views built by the sleeper-agent maintenance runtime.

A :class:`MaterializedView` is a hot subplan's result, executed once off
the serving path and stamped with the catalog data-version tuple it was
built against. The :class:`ViewStore` owns the views and answers the only
question the serving path ever asks: *"is there a valid view whose rows
can stand in for this subtree, byte-for-byte?"*

Validity is strict by construction: a view is served only while
``Catalog.data_version_tuple()`` still equals the stamp taken around the
build. Any write — DML through the database, branch checkout via
``replace_table``, even a direct ``Table`` mutation — moves the tuple and
silently retires every view, so a maintenance-on run can never serve rows
a maintenance-off run would not compute.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.plan import logical
from repro.plan.fingerprint import fingerprints
from repro.plan.rules import view_output_projection
from repro.storage.types import Row


def source_tables(plan: logical.PlanNode) -> tuple[str, ...]:
    """Base tables a subtree reads (lowercased, deduplicated, sorted)."""
    tables = {
        node.table.lower()
        for node in plan.walk()
        if isinstance(node, (logical.Scan, logical.IndexScan))
    }
    return tuple(sorted(tables))


@dataclass(frozen=True)
class MaterializedView:
    """One materialized subplan: rows plus everything needed to serve them."""

    name: str
    #: Lenient digest of the source subtree — the advisor's dedupe key.
    lenient: str
    #: Strict digest of the representative plan the rows were computed from.
    strict: str
    plan: logical.PlanNode
    rows: tuple[Row, ...]
    #: ``Catalog.data_version_tuple()`` at build time; the validity stamp.
    built_version: tuple
    tables: tuple[str, ...]
    #: Unique per build — keeps ViewScan fingerprints (and therefore
    #: subplan-memo keys) from aliasing rows across rebuilds.
    build_id: int
    #: Advisor occurrence count when the view was built (steering detail).
    occurrences: int

    @property
    def row_count(self) -> int:
        return len(self.rows)


class ViewStore:
    """The runtime's registry of materialized views.

    Thread-safe: the serving path resolves views from scheduler worker
    threads (and builds ViewScans from them) while the maintenance thread
    installs and retires entries.
    """

    def __init__(self, max_views: int = 8) -> None:
        self._max_views = max_views
        self._by_lenient: dict[str, MaterializedView] = {}
        self._by_strict: dict[str, MaterializedView] = {}
        self._next_build_id = 1
        self._lock = threading.Lock()
        #: Observability counters.
        self.builds = 0
        self.invalidations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._by_lenient)

    def capacity_left(self) -> int:
        with self._lock:
            return max(0, self._max_views - len(self._by_lenient))

    def next_build_id(self) -> int:
        with self._lock:
            build_id = self._next_build_id
            self._next_build_id += 1
            return build_id

    # -- installation / retirement -------------------------------------------

    def install(self, view: MaterializedView) -> bool:
        """Install (or refresh) a view; returns False when the store is
        full of views at least as hot — the coldest installed view is
        displaced only by a strictly hotter candidate."""
        with self._lock:
            previous = self._by_lenient.get(view.lenient)
            if previous is not None:
                self._by_strict.pop(previous.strict, None)
            elif len(self._by_lenient) >= self._max_views:
                coldest = min(
                    self._by_lenient.values(),
                    key=lambda v: (v.occurrences, -v.build_id),
                )
                if coldest.occurrences >= view.occurrences:
                    return False
                del self._by_lenient[coldest.lenient]
                self._by_strict.pop(coldest.strict, None)
                self.invalidations += 1
            self._by_lenient[view.lenient] = view
            self._by_strict[view.strict] = view
            self.builds += 1
            return True

    def discard(self, lenient: str) -> None:
        with self._lock:
            view = self._by_lenient.pop(lenient, None)
            if view is not None:
                self._by_strict.pop(view.strict, None)
                self.invalidations += 1

    def retire_for_tables(self, tables: set[str]) -> int:
        """Drop views reading any of ``tables`` (lowercased); returns count."""
        with self._lock:
            victims = [
                view
                for view in self._by_lenient.values()
                if tables.intersection(view.tables)
            ]
            for view in victims:
                del self._by_lenient[view.lenient]
                self._by_strict.pop(view.strict, None)
            self.invalidations += len(victims)
            return len(victims)

    def retire_all(self) -> int:
        with self._lock:
            count = len(self._by_lenient)
            self._by_lenient.clear()
            self._by_strict.clear()
            self.invalidations += count
            return count

    # -- resolution (the serving path) ----------------------------------------

    def snapshot(self) -> list[MaterializedView]:
        with self._lock:
            return list(self._by_lenient.values())

    def has_lenient(self, lenient: str) -> bool:
        with self._lock:
            return lenient in self._by_lenient

    def fingerprints_materialized(self) -> set[str]:
        with self._lock:
            return set(self._by_lenient)

    def resolve(
        self, node: logical.PlanNode, version: tuple
    ) -> logical.ViewScan | None:
        """A ViewScan standing in for ``node``, or None.

        Strict fingerprint match serves the stored rows directly; a
        lenient match is closed only when
        :func:`~repro.plan.rules.view_output_projection` proves the
        difference is a pure output-column permutation. Either way the
        view must still be valid for the catalog's current data state —
        ``version`` is ``Catalog.data_version_tuple()``, computed once
        per rewrite pass by the caller (it cannot change under the serve
        lock, and recomputing the sorted tuple per node is hot-path
        waste).
        """
        digests = fingerprints(node)
        with self._lock:
            view = self._by_strict.get(digests.strict)
            if view is None:
                view = self._by_lenient.get(digests.lenient)
            if view is None:
                return None
        if view.built_version != version:
            return None
        projection = view_output_projection(node, view.plan)
        if projection is None:
            return None
        return logical.ViewScan(
            name=view.name,
            source_strict=view.strict,
            build_id=view.build_id,
            columns=node.output,
            rows=view.rows,
            projection=projection,
        )
