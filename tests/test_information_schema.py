"""The information schema is derived catalog state, never stored.

``information_schema.tables``/``.columns`` resolve on each catalog's
lookup miss path to tables built from its stored tables: a read of them
writes nothing (no WAL record, no version bump, no recompilation), every
write path refuses them, concurrent readers beside a writer never see a
half-built catalog, and a shard or replica answers them from its own
catalog.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core import Probe
from repro.db import Database
from repro.errors import CatalogError, ReproError
from repro.shard import ShardedSystem
from repro.storage.table import Table
from test_maintenance import build_db

INFO_TABLES = "SELECT table_name, row_count FROM information_schema.tables"
INFO_COLUMNS = (
    "SELECT table_name, column_name, ordinal_position FROM information_schema.columns"
)
NAMES = ("information_schema.tables", "INFORMATION_SCHEMA.COLUMNS")


def expected_tables(db: Database) -> list[tuple]:
    names = sorted(db.catalog.table_names(), key=str.lower)
    return [(name, db.catalog.table(name).num_rows) for name in names]


class TestReadsWriteNothing:
    def test_read_after_write_appends_no_record_and_keeps_the_version(self, tmp_path):
        db = build_db(wal_dir=str(tmp_path / "wal"))
        db.execute(INFO_TABLES)
        db.execute("INSERT INTO sales VALUES (9001, 2, 'tea', 1.0)")
        lsn, version = db.wal.last_lsn, db.catalog.version()
        for _ in range(3):
            assert db.execute(INFO_TABLES).rows == expected_tables(db)
            db.execute(INFO_COLUMNS)
        assert db.wal.last_lsn == lsn
        assert db.catalog.version() == version

    def test_read_recompiles_nothing(self):
        db = build_db()
        db.execute("INSERT INTO sales VALUES (9001, 2, 'tea', 1.0)")
        plan = db.plan_select("SELECT COUNT(*) FROM sales")
        invalidations = db.statement_cache.counters()[3]
        db.execute(INFO_TABLES)
        assert db.plan_select("SELECT COUNT(*) FROM sales") is plan
        assert db.statement_cache.counters()[3] == invalidations

    def test_never_stored_snapshotted_or_listed(self):
        db = build_db()
        db.execute(INFO_TABLES)
        assert db.catalog.has_table("information_schema.tables")
        assert sorted(db.catalog.table_names()) == ["sales", "stores"]
        assert db.table_names() == db.catalog.table_names()
        names = {state.schema.name for state in db.catalog.snapshot().tables}
        assert names == {"sales", "stores"}

    def test_memoized_until_the_data_moves(self):
        db = build_db()
        first = db.catalog.table("information_schema.tables")
        assert db.catalog.table("information_schema.tables") is first
        db.catalog.table("stores").insert((9, "Reno", "NV"))  # no change event
        rebuilt = db.catalog.table("information_schema.tables")
        assert rebuilt is not first
        assert ("stores", 5) in [row[:2] for row in rebuilt.rows()]


class TestWritesRefused:
    @pytest.mark.parametrize("name", NAMES)
    def test_catalog_write_paths_raise_and_append_nothing(self, tmp_path, name):
        db = build_db(wal_dir=str(tmp_path / "wal"))
        catalog = db.catalog
        lsn, version = db.wal.last_lsn, catalog.version()
        derived = catalog.table(name)
        writes = [
            lambda: db.insert_rows(name, [("t", 1, "")]),
            lambda: catalog.insert_rows(name, [("t", 1, "")]),
            lambda: catalog.update_row(name, 0, ("t", 1, "")),
            lambda: catalog.delete_row(name, 0),
            lambda: catalog.drop_table(name),
            lambda: catalog.register_table(Table(derived.schema)),
            lambda: catalog.replace_table(Table(derived.schema)),
            lambda: catalog.create_table(derived.schema),
            lambda: catalog.create_hash_index(name, "table_name"),
            lambda: catalog.create_sorted_index(name, "table_name"),
            lambda: catalog.create_auxiliary_hash_index(name, "table_name"),
            lambda: catalog.create_auxiliary_sorted_index(name, "table_name"),
        ]
        for write in writes:
            with pytest.raises(CatalogError):
                write()
        assert db.wal.last_lsn == lsn
        assert catalog.version() == version
        assert catalog.auxiliary_index_keys() == []

    def test_sql_writes_raise(self):
        """The grammar refuses some of these (qualified DML targets), the
        catalog the rest; either way nothing is written."""
        db = build_db()
        version = db.catalog.version()
        for sql in (
            "INSERT INTO information_schema.tables VALUES ('t', 1, '')",
            "DELETE FROM information_schema.tables",
            "UPDATE information_schema.tables SET row_count = 0",
            "DROP TABLE information_schema.tables",
            "CREATE TABLE information_schema.extra (x INT)",
        ):
            with pytest.raises(ReproError):
                db.execute(sql)
        assert db.catalog.version() == version
        assert db.execute(INFO_TABLES).rows == expected_tables(db)


class TestConcurrentReaders:
    def test_readers_beside_a_writer_raise_nothing(self):
        db = build_db(rows=50)
        for k in range(30):  # a wider catalog: each rebuild takes longer
            db.execute(f"CREATE TABLE extra{k} (a INT, b TEXT, c FLOAT)")
        errors: list[BaseException] = []
        start = threading.Barrier(4)
        counts: list[list[int]] = [[] for _ in range(3)]

        def read(out: list[int]) -> None:
            start.wait()
            try:
                for _ in range(300):
                    rows = dict(db.execute(INFO_TABLES).rows)
                    out.append(rows["sales"])
                    db.execute(INFO_COLUMNS)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        def write() -> None:
            start.wait()
            try:
                for i in range(300):
                    db.execute(f"INSERT INTO sales VALUES ({1000 + i}, 1, 'tea', 1.0)")
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=read, args=(out,)) for out in counts]
        threads.append(threading.Thread(target=write))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)  # interleave the threads finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for seen in counts:
            assert seen == sorted(seen)  # a reader never sees rows vanish
            assert all(50 <= count <= 350 for count in seen)
        assert dict(db.execute(INFO_TABLES).rows)["sales"] == 350


class TestShards:
    def test_each_shard_answers_from_its_own_catalog(self):
        db = build_db()
        db.execute(INFO_TABLES)  # read on the source before seeding
        with ShardedSystem(db, shards=2, partition={"sales": "store_id"}) as tier:
            counts = []
            for handle in tier.shards:
                expected = expected_tables(handle.db)
                assert handle.db.execute(INFO_TABLES).rows == expected
                response = handle.system.submit(Probe.sql(INFO_TABLES))
                assert response.outcomes[0].result.rows == expected
                # Answered without storing anything in the shard's catalog.
                assert sorted(handle.db.catalog.table_names()) == ["sales", "stores"]
                counts.append(dict(expected)["sales"])
            assert sum(counts) == 600 and all(0 < count < 600 for count in counts)
