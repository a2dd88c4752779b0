"""Branches and the branch manager.

A :class:`Branch` is a full read-write database view backed by
chunk-shared copy-on-write storage:

* **fork** copies only the per-table chunk reference lists — O(#tables),
  independent of row count ("forking possibly thousands of near-identical
  snapshots");
* **writes** rewrite only the affected 256-row chunk, privately to the
  branch (multi-world isolation: logically separate, physically
  overlapping);
* **rollback** drops the branch — O(1), "ultra-fast aborts for failed
  branches";
* **merge** detects row-level write-write conflicts against the target's
  post-fork history and replays the source's write log.
"""

from __future__ import annotations

import logging

from repro.db.database import ChangeEvent, Database
from repro.errors import BranchNotFound, TransactionError
from repro.obs.metrics import MetricAttr, MetricsRegistry
from repro.storage.table import Table, TableSnapshot
from repro.storage.types import Value
from repro.txn.merge import MergeResult, detect_conflicts, ensure_mergeable, replay
from repro.txn.write_log import WriteLog, WriteOp


class Branch:
    """One isolated world: a database plus its write history."""

    def __init__(self, name: str, database: Database, parent: str | None) -> None:
        self.name = name
        self.parent = parent
        self.db = database
        self.log = WriteLog()
        #: Position in the *parent's* log at the moment this branch forked.
        self.fork_point = 0
        self.alive = True
        database.on_change(self._record)

    # -- SQL surface -----------------------------------------------------------

    def execute(self, sql: str, **kwargs):
        self._check_alive()
        return self.db.execute(sql, **kwargs)

    # -- row-level surface (used by merge replay) ---------------------------------

    def insert_row(self, table: str, values: tuple[Value, ...]) -> int:
        self._check_alive()
        self.db.insert_rows(table, [values])
        stored = self.db.catalog.table(table)
        return stored.next_row_id - 1

    def update_row(self, table: str, row_id: int, values: tuple[Value, ...]) -> None:
        self._check_alive()
        self.db.catalog.update_row(table, row_id, values)
        self.log.append(WriteOp("update", table, row_id, tuple(values)))

    def delete_row(self, table: str, row_id: int) -> None:
        self._check_alive()
        self.db.catalog.delete_row(table, row_id)
        self.log.append(WriteOp("delete", table, row_id, None))

    def has_row(self, table: str, row_id: int) -> bool:
        try:
            self.db.catalog.table(table).get(row_id)
            return True
        except Exception:
            return False

    # -- snapshots -----------------------------------------------------------------

    def snapshot(self) -> dict[str, TableSnapshot]:
        versions: dict[str, TableSnapshot] = {}
        for name in self.db.table_names():
            versions[name.lower()] = self.db.catalog.table(name).snapshot_state()
        return versions

    def writes_since_fork(self) -> set[tuple[str, int]]:
        return self.log.keys_since(0)

    # -- internals --------------------------------------------------------------------

    def _record(self, event: ChangeEvent) -> None:
        if event.kind == "insert":
            for row_id, values in event.details:
                self.log.append(WriteOp("insert", event.table, row_id, values))
        elif event.kind == "update":
            for row_id, values in event.details:
                self.log.append(WriteOp("update", event.table, row_id, values))
        elif event.kind == "delete":
            for row_id, _ in event.details:
                self.log.append(WriteOp("delete", event.table, row_id, None))

    def _check_alive(self) -> None:
        if not self.alive:
            raise TransactionError(f"branch {self.name!r} has been rolled back")


_LOG = logging.getLogger(__name__)


class BranchManager:
    """Creates, forks, merges, and discards branches over a main database.

    Lifetime counters live in a metrics registry behind
    :class:`~repro.obs.metrics.MetricAttr` shims; ``stats()`` keys and
    attribute reads are unchanged.
    """

    forks_created = MetricAttr("_m_forks_created")
    rollbacks = MetricAttr("_m_rollbacks")
    merges = MetricAttr("_m_merges")

    def __init__(
        self,
        main_db: Database | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self._branches: dict[str, Branch] = {}
        main = Branch("main", main_db or Database("main"), parent=None)
        self._branches["main"] = main
        registry = registry or MetricsRegistry()
        self.metrics_registry = registry
        self._m_forks_created = registry.counter(
            "repro_txn_forks_created_total", "Branch forks created."
        ).bind()
        self._m_rollbacks = registry.counter(
            "repro_txn_rollbacks_total", "Branches rolled back."
        ).bind()
        self._m_merges = registry.counter(
            "repro_txn_merges_total", "Branch merges completed."
        ).bind()
        self.forks_created = 0
        self.rollbacks = 0
        self.merges = 0

    # -- lookup ------------------------------------------------------------------

    @property
    def main(self) -> Branch:
        return self._branches["main"]

    def branch(self, name: str) -> Branch:
        branch = self._branches.get(name.lower())
        if branch is None or not branch.alive:
            raise BranchNotFound(f"no live branch named {name!r}")
        return branch

    def branch_names(self) -> list[str]:
        return [b.name for b in self._branches.values() if b.alive]

    def live_branch_count(self) -> int:
        return sum(1 for b in self._branches.values() if b.alive)

    # -- fork / rollback -----------------------------------------------------------

    def fork(self, source: str, new_name: str) -> Branch:
        """Create a copy-on-write fork of ``source`` named ``new_name``."""
        key = new_name.lower()
        if key in self._branches and self._branches[key].alive:
            raise TransactionError(f"branch {new_name!r} already exists")
        parent = self.branch(source)
        child_db = Database(new_name)
        for name in parent.db.table_names():
            table = parent.db.catalog.table(name)
            # Chunk-shared restore: the clone references the parent's
            # immutable chunks until either side rewrites one (COW). All
            # branch write paths go through the catalog DML helpers, so
            # they bump the child catalog's data_epoch/version — which is
            # what invalidates caches stamped from a branch's database.
            child_db.catalog.register_table(Table.restore(table.snapshot_state()))
        child = Branch(new_name, child_db, parent=parent.name)
        child.fork_point = len(parent.log)
        self._branches[key] = child
        self.forks_created += 1
        return child

    def rollback(self, name: str) -> None:
        """Discard a branch. O(1): the shared chunks stay with survivors."""
        if name.lower() == "main":
            raise TransactionError("cannot roll back the main branch")
        branch = self.branch(name)
        branch.alive = False
        del self._branches[name.lower()]
        self.rollbacks += 1

    # -- merge ------------------------------------------------------------------------

    def merge(self, source: str, into: str | None = None) -> MergeResult:
        """Merge ``source`` into its parent (or an explicit target).

        Raises :class:`~repro.errors.MergeConflict` when both sides wrote
        the same row since the fork; on success the source branch is
        consumed (dropped).
        """
        branch = self.branch(source)
        target_name = into or branch.parent
        if target_name is None:
            raise TransactionError(f"branch {source!r} has no parent to merge into")
        target = self.branch(target_name)

        source_keys = branch.writes_since_fork()
        if target.name == branch.parent:
            target_keys = target.log.keys_since(branch.fork_point)
        else:
            # Merging into a non-parent: conservatively compare full histories.
            target_keys = target.log.keys_since(0)
        ensure_mergeable(detect_conflicts(source_keys, target_keys))

        result = MergeResult(source=branch.name, target=target.name)
        ops = branch.log.since(0)
        replay(ops, target, result)
        # Replayed inserts went through ``Database.insert_rows`` and were
        # published there; updates and deletes went straight to the
        # target's catalog. Publish them now, one event per table, or
        # whatever serves the target (answered-before history, memory
        # staleness, maintenance views) keeps pre-merge answers. No row
        # details: the target's write log already holds these ops.
        rewritten: dict[str, list[str]] = {}
        for op in ops:
            if op.kind != "insert":
                rewritten.setdefault(op.table, []).append(op.kind)
        for table, kinds in rewritten.items():
            kind = "update" if "update" in kinds else "delete"
            target.db._publish(ChangeEvent(kind, table, len(kinds)))
        branch.alive = False
        del self._branches[source.lower()]
        self.merges += 1
        return result

    # -- storage sharing metrics ---------------------------------------------------------

    def shared_chunk_fraction(self, branch_a: str, branch_b: str) -> float:
        """Fraction of ``branch_a``'s chunks physically shared with ``branch_b``.

        Shared means *the same Python object* — the measurable signature of
        copy-on-write (identical content copied would not count).
        """
        a = self.branch(branch_a)
        b = self.branch(branch_b)
        b_chunk_ids = {
            id(chunk)
            for name in b.db.table_names()
            for chunk in b.db.catalog.table(name).snapshot()
        }
        a_chunks = [
            chunk
            for name in a.db.table_names()
            for chunk in a.db.catalog.table(name).snapshot()
        ]
        if not a_chunks:
            return 1.0
        shared = sum(1 for chunk in a_chunks if id(chunk) in b_chunk_ids)
        return shared / len(a_chunks)

    def stats(self) -> dict[str, int]:
        return {
            "live_branches": self.live_branch_count(),
            "forks_created": self.forks_created,
            "rollbacks": self.rollbacks,
            "merges": self.merges,
        }
