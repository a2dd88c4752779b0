"""Durability layer: WAL exact recovery, repair edge cases, kill/recover.

The log holds data only. The headline contract is the **kill/recover
differential** on data: a workload interrupted after an arbitrary prefix
of acknowledged operations, then rebuilt via
:meth:`AgentFirstDataSystem.recover`, serves the remaining operations
with the same rows as an uninterrupted run and ends with the same
tables, row ids and ``data_version_tuple()``, with the maintenance
runtime on and off. The recovered system starts cold (turn 0, empty
history), so a query the uninterrupted run answered from history may
re-execute. Reads append nothing to the log. Below that sit the
exactness units: every catalog write path replays to the exact
``version()``, repair truncates torn frames, and a failed mutation
leaves no record behind.
"""

from __future__ import annotations

import glob
import os

import pytest

from repro.core import AgentFirstDataSystem, Brief, Probe, SystemConfig
from repro.db import Database
from repro.errors import WalError
from repro.memstore import AgenticMemoryStore, StalenessPolicy
from repro.storage.catalog import Catalog
from repro.txn.wal import CATALOG_KINDS, WriteAheadLog
from repro.txn.wal import recover as wal_recover
from test_maintenance import JOIN, build_db, maintenance_config


def crash_db(db: Database) -> None:
    """Abandon a database as a crash would: no checkpoint, no flush beyond
    what each acknowledged append already wrote."""
    wal = db.wal
    db.catalog.wal = None
    wal.close()


def crash_system(system: AgentFirstDataSystem) -> None:
    """Stop serving threads and release the log file handle — everything
    acknowledged before this point must survive; nothing else may."""
    system.close()
    crash_db(system.db)


def last_segment(directory: str) -> str:
    return sorted(glob.glob(os.path.join(directory, "wal-*.seg")))[-1]


class TestExactRecovery:
    def populate(self, db: Database) -> None:
        """Exercise every logged catalog write path once."""
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT, amount FLOAT)")
        db.insert_rows("t", [(i, f"n{i}", float(i)) for i in range(40)])
        db.execute("UPDATE t SET amount = 99.5 WHERE id = 7")
        db.execute("DELETE FROM t WHERE id = 3")
        db.catalog.create_hash_index("t", "name")
        db.catalog.create_sorted_index("t", "amount")
        db.catalog.create_auxiliary_hash_index("t", "name")
        db.catalog.create_auxiliary_sorted_index("t", "id")
        db.execute("CREATE TABLE gone (id INT)")
        db.execute("DROP TABLE gone")

    def test_every_write_path_replays_to_exact_version(self, tmp_path):
        db = Database("wal", wal_dir=str(tmp_path))
        self.populate(db)
        live_version = db.catalog.version()
        live_rows = db.execute("SELECT * FROM t").rows
        crash_db(db)

        recovered = Database.recover(str(tmp_path))
        assert recovered.catalog.version() == live_version
        assert recovered.execute("SELECT * FROM t").rows == live_rows

    def test_replace_table_replays(self, tmp_path):
        from repro.txn import BranchManager

        db = Database("wal", wal_dir=str(tmp_path))
        db.execute("CREATE TABLE accounts (id INT PRIMARY KEY, balance FLOAT)")
        db.insert_rows("accounts", [(i, 100.0) for i in range(20)])
        manager = BranchManager(db)
        fork = manager.fork("main", "what-if")
        fork.execute("UPDATE accounts SET balance = 0.0 WHERE id = 5")
        manager.merge("what-if")  # replays onto main via catalog writes
        live_version = db.catalog.version()
        live_rows = db.execute("SELECT * FROM accounts").rows
        crash_db(db)

        recovered = Database.recover(str(tmp_path))
        assert recovered.catalog.version() == live_version
        assert recovered.execute("SELECT * FROM accounts").rows == live_rows

    def test_row_ids_continue_after_recovery(self, tmp_path):
        db = Database("wal", wal_dir=str(tmp_path))
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)")
        db.catalog.insert_rows("t", [(1, "a"), (2, "b")])
        db.catalog.delete_row("t", 1)
        next_before = db.catalog.table("t").next_row_id
        crash_db(db)

        recovered = Database.recover(str(tmp_path))
        assert recovered.catalog.table("t").next_row_id == next_before
        (new_id,) = recovered.catalog.insert_rows("t", [(3, "c")])
        assert new_id == next_before  # no reuse of the deleted row's id

    def test_failed_mutation_leaves_no_record(self, tmp_path, monkeypatch):
        db = Database("wal", wal_dir=str(tmp_path))
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)")
        db.catalog.insert_rows("t", [(1, "a")])
        wal = db.wal
        lsn_before = wal.last_lsn
        version_before = db.catalog.version()

        def boom(*args, **kwargs):
            raise RuntimeError("disk full mid-mutation")

        monkeypatch.setattr(db.catalog.table("t"), "update", boom)
        with pytest.raises(RuntimeError, match="disk full"):
            db.catalog.update_row("t", 0, (1, "z"))
        monkeypatch.undo()

        # The append was rolled back: same LSN, and the next write
        # reuses the slot cleanly.
        assert wal.last_lsn == lsn_before
        assert db.catalog.version() == version_before
        db.catalog.update_row("t", 0, (1, "ok"))
        crash_db(db)
        recovered = Database.recover(str(tmp_path))
        assert recovered.execute("SELECT name FROM t").rows == [("ok",)]

    def test_attach_refuses_non_fresh_directory(self, tmp_path):
        db = Database("wal", wal_dir=str(tmp_path))
        db.execute("CREATE TABLE t (id INT)")
        crash_db(db)
        fresh = Database("other", wal_dir=False)
        with pytest.raises(WalError, match="recover"):
            fresh.attach_wal(str(tmp_path))


class TestEnvSwitches:
    """``REPRO_WAL`` and ``REPRO_WAL_FSYNC`` parse like every boolean
    ``REPRO_*`` switch: only 1/true/yes/on (any case) turn them on."""

    @pytest.mark.parametrize(
        "raw, on",
        [
            ("0", False),
            ("false", False),
            ("off", False),
            ("no", False),
            ("", False),
            ("1", True),
            ("true", True),
            ("On", True),
        ],
    )
    def test_wal_and_fsync_follow_the_flag(self, raw, on, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_WAL", raw)
        monkeypatch.setenv("REPRO_WAL_FSYNC", raw)
        db = Database("env_switch")
        assert (db.catalog.wal is not None) is on
        if on:
            assert db.catalog.wal.fsync is True
        with WriteAheadLog(str(tmp_path / "log")) as wal:
            assert wal.fsync is on


class TestRecoveryEdgeCases:
    def test_empty_wal_directory_recovers_fresh(self, tmp_path):
        # Never-attached directory: nothing to replay, a usable fresh log.
        state = wal_recover(str(tmp_path))
        assert state.catalog.version() == Catalog().version()
        assert state.wal.last_lsn == 0
        state.wal.close()

    def test_recover_right_after_attach(self, tmp_path):
        # Attach writes the initial checkpoint and nothing else.
        db = Database("wal", wal_dir=str(tmp_path))
        version = db.catalog.version()
        crash_db(db)
        recovered = Database.recover(str(tmp_path))
        assert recovered.catalog.version() == version
        recovered.execute("CREATE TABLE t (id INT)")  # still appendable
        assert recovered.wal.last_lsn == 1

    def test_checkpoint_with_no_tail(self, tmp_path):
        db = Database("wal", wal_dir=str(tmp_path))
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)")
        db.insert_rows("t", [(i, f"n{i}") for i in range(600)])
        db.execute("DELETE FROM t WHERE id = 17")
        assert db.checkpoint() is not None
        live_version = db.catalog.version()
        live_rows = db.execute("SELECT * FROM t").rows
        crash_db(db)

        recovered = Database.recover(str(tmp_path))
        # Replay had zero tail records to apply: the checkpoint alone
        # restores the exact version.
        assert recovered.wal.replay_records() == []
        assert recovered.catalog.version() == live_version
        assert recovered.execute("SELECT * FROM t").rows == live_rows

    def test_torn_final_record_recovers_to_last_committed(self, tmp_path):
        db = Database("wal", wal_dir=str(tmp_path))
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)")
        db.catalog.insert_rows("t", [(i, f"n{i}") for i in range(5)])
        committed_version = db.catalog.version()
        db.catalog.insert_rows("t", [(99, "torn")])  # the record to tear
        crash_db(db)

        segment = last_segment(str(tmp_path))
        with open(segment, "r+b") as handle:
            handle.truncate(os.path.getsize(segment) - 3)

        recovered = Database.recover(str(tmp_path))
        assert recovered.catalog.version() == committed_version
        assert recovered.execute(
            "SELECT COUNT(*) FROM t WHERE id = 99"
        ).first_value() == 0
        # The repaired log is cleanly appendable and re-recoverable.
        recovered.catalog.insert_rows("t", [(100, "after")])
        crash_db(recovered)
        again = Database.recover(str(tmp_path))
        assert again.execute("SELECT name FROM t WHERE id = 100").rows == [
            ("after",)
        ]

    def test_torn_tail_after_checkpoint_recovers_to_checkpoint(self, tmp_path):
        db = Database("wal", wal_dir=str(tmp_path))
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)")
        db.insert_rows("t", [(i, f"n{i}") for i in range(10)])
        assert db.checkpoint() is not None
        checkpoint_version = db.catalog.version()
        db.catalog.insert_rows("t", [(99, "torn")])
        crash_db(db)

        segment = last_segment(str(tmp_path))
        with open(segment, "r+b") as handle:
            handle.truncate(os.path.getsize(segment) - 1)

        recovered = Database.recover(str(tmp_path))
        assert recovered.catalog.version() == checkpoint_version

    def test_aux_index_replays_fresh_not_stale(self, tmp_path):
        db = Database("wal", wal_dir=str(tmp_path))
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)")
        db.catalog.insert_rows("t", [(i, f"n{i}") for i in range(30)])
        db.catalog.create_auxiliary_hash_index("t", "name")
        # Catalog-mediated writes after the build keep the entry fresh on
        # the live side; replay must reproduce that, not leave the index
        # pinned at its build-time version.
        db.catalog.update_row("t", 2, (2, "renamed"))
        db.catalog.insert_rows("t", [(77, "late")])
        live_version = db.catalog.version()
        live_entry = db.catalog._aux_hash_indexes[("t", "name")]
        assert live_entry.data_version == db.catalog.table("t").data_version
        crash_db(db)

        recovered = Database.recover(str(tmp_path))
        assert recovered.catalog.version() == live_version  # incl. aux counter
        entry = recovered.catalog._aux_hash_indexes[("t", "name")]
        table = recovered.catalog.table("t")
        assert entry.data_version == table.data_version  # rebuilt, not stale
        assert entry.index.lookup("late") or entry.index.lookup("renamed")


def log_bytes(directory: str) -> int:
    return sum(
        os.path.getsize(os.path.join(directory, name)) for name in os.listdir(directory)
    )


class TestReadsLogNothing:
    def test_windows_append_nothing_and_a_write_appends_one_record(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        system = AgentFirstDataSystem(
            build_db(wal_dir=wal_dir), config=SystemConfig(enable_maintenance=False)
        )
        wal = system.db.wal
        lsn_before = wal.last_lsn
        bytes_before = log_bytes(wal_dir)
        statuses = []
        windows = [(JOIN, EQ.format(k=1)), (JOIN, EQ.format(k=2)), (EQ.format(k=1),)]
        for turn, window in enumerate(windows):
            probes = [
                Probe(queries=(sql,), agent_id=f"a{turn}-{i}")
                for i, sql in enumerate(window)
            ]
            for response in system.submit_many(probes):
                statuses += [outcome.status for outcome in response.outcomes]
        assert "ok" in statuses and "from_history" in statuses
        assert wal.last_lsn == lsn_before
        assert log_bytes(wal_dir) == bytes_before

        system.db.execute("INSERT INTO sales VALUES (9001, 2, 'tea', 7.5)")
        assert wal.last_lsn == lsn_before + 1
        assert {record.kind for record in wal.records_since(0)} <= CATALOG_KINDS
        system.close()


class TestRecoveredServing:
    def test_recovered_system_starts_cold_with_the_same_rows(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        system = AgentFirstDataSystem(build_db(wal_dir=wal_dir))
        system.submit(Probe(queries=(JOIN,), agent_id="alice"))
        original = system.submit(Probe(queries=(JOIN,), agent_id="bob"))
        assert original.outcomes[0].status == "from_history"
        crash_system(system)

        store = AgenticMemoryStore(policy=StalenessPolicy.EAGER)
        recovered = AgentFirstDataSystem.recover(wal_dir, memory=store)
        assert recovered.memory is store
        assert recovered.turn == 0
        assert not recovered.optimizer.history
        response = recovered.submit(Probe(queries=(JOIN,), agent_id="carol"))
        assert response.turn == 1
        assert response.outcomes[0].status == "ok"
        assert response.outcomes[0].result.rows == original.outcomes[0].result.rows
        recovered.close()

    def test_recovered_answer_reflects_logged_writes(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        system = AgentFirstDataSystem(build_db(wal_dir=wal_dir))
        system.submit(Probe(queries=(JOIN,), agent_id="alice"))
        system.db.execute("INSERT INTO sales VALUES (9001, 2, 'tea', 7.5)")
        crash_system(system)

        recovered = AgentFirstDataSystem.recover(wal_dir)
        # The pre-write answer must not come back against the post-write
        # data: the recovered system answers from the replayed rows.
        response = recovered.submit(Probe(queries=(JOIN,), agent_id="bob"))
        assert response.outcomes[0].status == "ok"
        twin = AgentFirstDataSystem(build_db())
        twin.db.execute("INSERT INTO sales VALUES (9001, 2, 'tea', 7.5)")
        assert response.outcomes[0].result.rows == (
            twin.submit(Probe(queries=(JOIN,), agent_id="bob"))
            .outcomes[0]
            .result.rows
        )
        recovered.close()
        twin.close()


# -- the kill/recover differential -------------------------------------------------

EQ = "SELECT COUNT(*) FROM sales WHERE store_id = {k}"


def script_ops() -> list[tuple]:
    """Probes and writes interleaved so the kill point can land between
    history warm-up, invalidation, and re-warm-up."""
    return [
        ("probe", lambda: Probe(queries=(JOIN,), agent_id="a1")),
        ("probe", lambda: Probe(queries=(EQ.format(k=2),), agent_id="a2")),
        ("probe", lambda: Probe(queries=(JOIN,), agent_id="a3")),  # history hit
        ("write", "INSERT INTO sales VALUES (9001, 2, 'tea', 7.5)"),
        ("maintain",),
        ("probe", lambda: Probe(queries=(JOIN, EQ.format(k=1)), agent_id="a4")),
        ("write", "UPDATE sales SET amount = 11.0 WHERE id = 9001"),
        ("write", "DELETE FROM sales WHERE id = 3"),
        ("probe", lambda: Probe(queries=(JOIN,), agent_id="a5")),
        ("maintain",),
        ("probe", lambda: Probe(queries=(JOIN,), agent_id="a6")),  # history hit
        ("probe", lambda: Probe(queries=("SELECT COUNT(*) FROM sales",), agent_id="a7")),
    ]


def run_ops(system: AgentFirstDataSystem, ops: list[tuple]) -> list:
    sigs = []
    for op in ops:
        if op[0] == "probe":
            response = system.submit(op[1]())
            sigs.append(
                (
                    response.turn,
                    [
                        (
                            o.sql,
                            o.status,
                            o.reason,
                            o.query_index,
                            None if o.result is None else o.result.rows,
                        )
                        for o in response.outcomes
                    ],
                )
            )
        elif op[0] == "write":
            system.db.execute(op[1])
            sigs.append(("write", op[1]))
        else:
            system.maintenance.run_pending()
            sigs.append(("maintain",))
    return sigs


def table_rows(db: Database) -> dict:
    return {t: db.execute(f"SELECT * FROM {t}").rows for t in ("stores", "sales")}


def row_ids(db: Database) -> dict:
    return {
        name: (list(table.scan_with_ids()), table.next_row_id)
        for name, table in ((t, db.catalog.table(t)) for t in ("stores", "sales"))
    }


def data_of(sigs: list) -> list:
    """The rows each op produced: probe signatures without their turn,
    status and reason, which a cold recovered system may differ in."""
    return [
        [(sql, index, rows) for sql, _, _, index, rows in sig[1]]
        if isinstance(sig[0], int)
        else sig
        for sig in sigs
    ]


def statuses_of(sigs: list) -> set:
    return {
        outcome[1] for sig in sigs if isinstance(sig[0], int) for outcome in sig[1]
    }


class TestKillRecoverDifferential:
    def run_differential(self, maintenance, kill_after, wal_dir):
        config = SystemConfig(
            enable_maintenance=maintenance,
            maintenance=maintenance_config() if maintenance else None,
        )
        ops = script_ops()

        reference = AgentFirstDataSystem(build_db(), config=config)
        ref_sigs = run_ops(reference, ops)
        ref_rows = table_rows(reference.db)
        ref_ids = row_ids(reference.db)
        ref_version = reference.db.catalog.data_version_tuple()
        reference.close()

        victim = AgentFirstDataSystem(build_db(wal_dir=wal_dir), config=config)
        assert run_ops(victim, ops[:kill_after]) == ref_sigs[:kill_after]
        crash_system(victim)

        recovered = AgentFirstDataSystem.recover(wal_dir, config=config)
        try:
            sigs = run_ops(recovered, ops[kill_after:])
            assert data_of(sigs) == data_of(ref_sigs[kill_after:])
            assert statuses_of(sigs) <= {"ok", "from_history"}
            assert table_rows(recovered.db) == ref_rows
            assert row_ids(recovered.db) == ref_ids
            # data_version_tuple, not version(): with maintenance on, the
            # aux-index counter depends on when idle builds landed relative
            # to the kill, which no row can observe.
            assert recovered.db.catalog.data_version_tuple() == ref_version
        finally:
            recovered.close()

    @pytest.mark.parametrize("maintenance", [False, True])
    def test_thread_backend(self, maintenance, tmp_path):
        for kill_after in (2, 5, 9):
            self.run_differential(
                maintenance,
                kill_after,
                str(tmp_path / f"wal-{maintenance}-{kill_after}"),
            )
