"""Serialization regression tests: the pickle contracts of plans,
catalog snapshots and column batches.

WAL checkpoints and shard seeding rely on them:

* **plans** — every :class:`PlanNode` type must pickle round-trip to an
  equal tree with identical fingerprints, with the fingerprint memo
  stripped from the wire form;
* **catalog snapshots** — ``Table.snapshot_state()``/``Table.restore()``
  and ``Catalog.snapshot()``/``Catalog.from_snapshot()`` must round-trip
  rows, row ids, and indexes exactly, and every write path (inserts,
  updates, deletes, DDL, branch checkout via ``replace_table``, even
  direct table mutation) must move :meth:`Catalog.version` so anything
  stamped with an older version is invalidated.
"""

from __future__ import annotations

import pickle

import pytest

from repro.db import Database
from repro.engine.columnar import ColumnBatch
from repro.plan import logical
from repro.plan.fingerprint import fingerprints
from repro.storage.catalog import Catalog
from repro.storage.schema import Column, TableSchema
from repro.storage.table import Table
from repro.storage.types import DataType


def build_db() -> Database:
    db = Database("serial")
    db.execute("CREATE TABLE stores (id INT PRIMARY KEY, city TEXT, state TEXT)")
    db.execute(
        "CREATE TABLE sales (id INT, store_id INT, product TEXT, amount FLOAT)"
    )
    db.execute(
        "INSERT INTO stores VALUES (1,'Berkeley','CA'),(2,'Oakland','CA'),"
        "(3,'Seattle','WA')"
    )
    db.insert_rows(
        "sales",
        [(i, 1 + i % 3, "coffee" if i % 2 else "tea", float(i % 7)) for i in range(40)],
    )
    return db


#: One SQL statement per executable plan-node type the planner can emit.
PLAN_CORPUS = {
    "scan+project": "SELECT city FROM stores",
    "filter": "SELECT city FROM stores WHERE state = 'CA'",
    "hash_join": (
        "SELECT s.city, x.amount FROM stores s JOIN sales x ON s.id = x.store_id"
    ),
    "left_join": (
        "SELECT s.city, x.amount FROM stores s LEFT JOIN sales x ON s.id = x.store_id"
    ),
    "nested_loop": (
        "SELECT s.city FROM stores s JOIN sales x ON s.id < x.store_id"
    ),
    "aggregate": (
        "SELECT product, COUNT(*), SUM(amount) FROM sales GROUP BY product"
    ),
    "sort_limit": "SELECT city FROM stores ORDER BY city DESC LIMIT 2 OFFSET 1",
    "distinct": "SELECT DISTINCT product FROM sales",
    "subquery_scan": "SELECT t.id FROM (SELECT id FROM stores) t",
    "one_row": "SELECT 1",
    "case_between_inlist": (
        "SELECT CASE WHEN amount BETWEEN 1 AND 3 THEN 'low' ELSE 'high' END"
        " FROM sales WHERE product IN ('coffee', 'tea')"
    ),
}


class TestPlanPickling:
    @pytest.mark.parametrize("label", sorted(PLAN_CORPUS))
    def test_round_trip_equal_with_matching_fingerprints(self, label):
        db = build_db()
        plan = db.plan_select(PLAN_CORPUS[label])
        original = fingerprints(plan)  # also populates the per-node memo
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert fingerprints(clone) == original
        assert [r for r in clone.walk()] == [r for r in plan.walk()]

    def test_index_scan_round_trip(self):
        db = build_db()
        db.catalog.create_hash_index("stores", "state")
        plan = db.plan_select("SELECT city FROM stores WHERE state = 'CA'")
        assert any(isinstance(n, logical.IndexScan) for n in plan.walk())
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert fingerprints(clone) == fingerprints(plan)

    def test_every_plan_node_type_covered(self):
        """The corpus must exercise each executable operator class."""
        db = build_db()
        db.catalog.create_hash_index("stores", "state")
        seen: set[type] = set()
        for sql in PLAN_CORPUS.values():
            for node in db.plan_select(sql).walk():
                seen.add(type(node))
        seen.update(
            type(n)
            for n in db.plan_select("SELECT city FROM stores WHERE state = 'CA'").walk()
        )
        executable = {
            logical.Scan,
            logical.IndexScan,
            logical.OneRow,
            logical.SubqueryScan,
            logical.Filter,
            logical.Project,
            logical.HashJoin,
            logical.NestedLoopJoin,
            logical.Aggregate,
            logical.Sort,
            logical.Limit,
            logical.Distinct,
        }
        assert executable <= seen
        # ViewScan is planner-invisible (the maintenance runtime
        # substitutes it at execution time), so its round-trip coverage
        # lives in the dedicated maintenance-rewrite tests below.

    def test_maintenance_view_scan_round_trip(self):
        """ViewScan is self-contained — it carries its rows — so it must
        pickle like every planner-emitted node, memo-stripping included."""
        scan = logical.ViewScan(
            name="mv_test",
            source_strict="deadbeef",
            build_id=3,
            columns=(logical.OutputCol("city", "s"), logical.OutputCol("total")),
            rows=((u"Berkeley", 150.5), ("Oakland", 80.0)),
            projection=(1, 0),
        )
        plan = logical.Limit(child=scan, limit=1)
        original = fingerprints(plan)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert fingerprints(clone) == original
        assert clone.child.materialized_rows() == scan.materialized_rows()
        assert "_fingerprint_memo" not in pickle.loads(pickle.dumps(scan)).__dict__

    def test_row_id_ordered_index_scan_round_trip_with_distinct_digest(self):
        """The maintenance rewrite's rid-ordered IndexScan variant must
        pickle and must never share a digest with the planner's native
        ordering (their output row order differs)."""
        db = build_db()
        db.catalog.create_hash_index("stores", "state")
        plan = db.plan_select("SELECT city FROM stores WHERE state = 'CA'")
        (native,) = [n for n in plan.walk() if isinstance(n, logical.IndexScan)]
        import dataclasses

        ordered = dataclasses.replace(native, row_id_order=True)
        clone = pickle.loads(pickle.dumps(ordered))
        assert clone == ordered
        assert fingerprints(clone) == fingerprints(ordered)
        assert fingerprints(ordered).strict != fingerprints(native).strict

    def test_memo_is_stripped_from_the_wire_form(self):
        db = build_db()
        plan = db.plan_select(PLAN_CORPUS["hash_join"])
        fingerprints(plan)  # memoize every node
        assert "_fingerprint_memo" in plan.__dict__
        clone = pickle.loads(pickle.dumps(plan))
        for node in clone.walk():
            assert "_fingerprint_memo" not in node.__dict__
        # Lazily re-memoized on first use, to identical digests.
        assert fingerprints(clone) == fingerprints(plan)

class TestTableSnapshot:
    def make_table(self) -> Table:
        schema = TableSchema(
            "t",
            (
                Column("id", DataType.INTEGER, primary_key=True),
                Column("name", DataType.TEXT),
            ),
        )
        table = Table(schema)
        table.insert_many([(i, f"row-{i}") for i in range(600)])  # > 2 chunks
        return table

    def test_round_trip_preserves_rows_ids_and_counters(self):
        table = self.make_table()
        table.delete(3)
        table.update(5, (5, "edited"))
        state = pickle.loads(pickle.dumps(table.snapshot_state()))
        restored = Table.restore(state)
        assert restored.rows() == table.rows()
        assert list(restored.scan_with_ids()) == list(table.scan_with_ids())
        assert restored.next_row_id == table.next_row_id
        assert restored.data_version == table.data_version

    def test_restore_is_isolated_from_later_source_writes(self):
        table = self.make_table()
        restored = Table.restore(table.snapshot_state())
        before = restored.rows()
        table.insert((9999, "late"))
        table.update(0, (0, "mutated"))
        assert restored.rows() == before


class TestCatalogSnapshot:
    def test_round_trip_restores_tables_and_rebuilt_indexes(self):
        db = build_db()
        db.catalog.create_hash_index("sales", "store_id")
        db.catalog.create_sorted_index("sales", "amount")
        snapshot = pickle.loads(pickle.dumps(db.catalog.snapshot()))
        restored = Catalog.from_snapshot(snapshot)
        for name in db.catalog.table_names():
            assert restored.table(name).rows() == db.catalog.table(name).rows()
        original_index = db.catalog.hash_index("sales", "store_id")
        restored_index = restored.hash_index("sales", "store_id")
        assert restored_index is not None
        assert restored_index.lookup(2) == original_index.lookup(2)
        original_sorted = db.catalog.sorted_index("sales", "amount")
        restored_sorted = restored.sorted_index("sales", "amount")
        assert restored_sorted is not None
        assert restored_sorted.lookup_range(1.0, 3.0) == original_sorted.lookup_range(
            1.0, 3.0
        )

    def test_every_write_path_bumps_the_catalog_version(self):
        db = build_db()
        catalog = db.catalog

        def bumped() -> bool:
            nonlocal version
            moved = catalog.version() != version
            version = catalog.version()
            return moved

        version = catalog.version()
        catalog.insert_rows("stores", [(7, "Austin", "TX")])
        assert bumped()
        catalog.update_row("stores", 0, (1, "Berkeley", "California"))
        assert bumped()
        catalog.delete_row("stores", 1)
        assert bumped()
        db.execute("CREATE TABLE extra (id INT)")
        assert bumped()
        db.execute("DROP TABLE extra")
        assert bumped()
        # Branch checkout: a whole-table swap, invisible to per-table
        # counters when the swapped-in data_version happens to match.
        stores = catalog.table("stores")
        catalog.replace_table(Table.restore(stores.snapshot_state()))
        assert bumped()
        # Direct table mutation bypassing the catalog DML helpers.
        catalog.table("stores").insert((8, "Portland", "OR"))
        assert bumped()
        # No write -> no movement.
        db.execute("SELECT COUNT(*) FROM stores")
        assert not bumped()

    def test_snapshot_version_matches_source_at_capture(self):
        db = build_db()
        snapshot = db.catalog.snapshot()
        assert snapshot.version == db.catalog.version()
        db.insert_rows("stores", [(9, "Reno", "NV")])
        assert snapshot.version != db.catalog.version()

    def test_branch_writes_invalidate_branch_snapshots(self):
        """txn write paths flow through the catalog DML helpers, so a
        branch's catalog version moves on every branch write."""
        from repro.txn.branches import BranchManager

        manager = BranchManager(build_db())
        branch = manager.fork("main", "experiment")
        version = branch.db.catalog.version()
        branch.execute("INSERT INTO stores VALUES (7,'Austin','TX')")
        assert branch.db.catalog.version() != version
        version = branch.db.catalog.version()
        branch.update_row("stores", 0, (1, "Berkeley", "California"))
        assert branch.db.catalog.version() != version


class TestColumnBatchPickling:
    """The columnar engine's :class:`ColumnBatch` pickles column-major.
    Like ``PlanNode.__getstate__`` strips the fingerprint memo, the batch's
    wire form must strip its caches — the materialised row view and the
    lazy numpy mirrors — and rebuild them on demand after the trip."""

    def make_batch(self):
        rows = [(1, "a", 1.5), (2, None, -0.5), (3, "c", None)]
        return ColumnBatch.from_rows(rows, 3), rows

    def test_round_trip_preserves_columns_and_rows(self):
        batch, rows = self.make_batch()
        clone = pickle.loads(pickle.dumps(batch))
        assert clone.columns == batch.columns
        assert clone.length == batch.length == 3
        assert clone.to_rows() == rows

    def test_caches_are_stripped_from_the_wire_form(self):
        batch, rows = self.make_batch()
        assert batch.to_rows() == rows  # populate the row cache
        batch.numpy_column(0)  # populate the numpy mirror cache
        state = batch.__getstate__()
        assert state == (batch.columns, batch.length)
        clone = pickle.loads(pickle.dumps(batch))
        assert clone._rows is None
        assert clone._numpy == {}
        # Lazily rebuilt on first use, to identical values.
        assert clone.to_rows() == rows
        assert clone.numpy_column(0) is not None or batch.numpy_column(0) is None

    def test_empty_and_zero_width_batches(self):
        empty = ColumnBatch.from_rows([], 4)
        clone = pickle.loads(pickle.dumps(empty))
        assert clone.length == 0
        assert clone.to_rows() == []

        zero_width = ColumnBatch.from_rows([(), ()], 0)
        back = pickle.loads(pickle.dumps(zero_width))
        assert back.length == 2
        assert back.to_rows() == [(), ()]
