"""Durability layer: WAL exact recovery, repair edge cases, kill/recover.

The headline contract is the **kill/recover differential**: a workload
interrupted after an arbitrary prefix of acknowledged operations, then
rebuilt via :meth:`AgentFirstDataSystem.recover`, serves the remaining
operations with byte-identical rows, statuses, reasons (including
"answered at turn N (agent X)" history attribution) and turn numbers to
an uninterrupted run, with the maintenance runtime on and off. Below it
sit the exactness units: every catalog write path replays to the exact
``version()``, repair truncates torn frames and uncommitted admission
windows, and a failed mutation leaves no record behind.
"""

from __future__ import annotations

import glob
import os

import pytest

from repro.core import AgentFirstDataSystem, Brief, Probe, SystemConfig
from repro.db import Database
from repro.errors import WalError
from repro.storage.catalog import Catalog
from repro.txn.wal import WriteAheadLog
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
        seq_before = wal.data_seq
        version_before = db.catalog.version()

        def boom(*args, **kwargs):
            raise RuntimeError("disk full mid-mutation")

        monkeypatch.setattr(db.catalog.table("t"), "update", boom)
        with pytest.raises(RuntimeError, match="disk full"):
            db.catalog.update_row("t", 0, (1, "z"))
        monkeypatch.undo()

        # The append was rolled back: same LSN, same data_seq, and the
        # next write reuses the slot cleanly.
        assert wal.last_lsn == lsn_before
        assert wal.data_seq == seq_before
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
        assert state.serve.empty
        state.wal.close()

    def test_recover_right_after_attach(self, tmp_path):
        # Attach writes the initial checkpoint and nothing else.
        db = Database("wal", wal_dir=str(tmp_path))
        version = db.catalog.version()
        crash_db(db)
        recovered = Database.recover(str(tmp_path))
        assert recovered.catalog.version() == version
        recovered.execute("CREATE TABLE t (id INT)")  # still appendable
        assert recovered.wal.data_seq == 1

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

    def test_uncommitted_window_discarded(self, tmp_path):
        db = Database("wal", wal_dir=str(tmp_path))
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)")
        db.catalog.insert_rows("t", [(1, "before")])
        committed_version = db.catalog.version()

        # A window opens, logs a write, and the process dies before the
        # commit record: the caller never saw a response, so recovery
        # must discard the write.
        db.wal.begin_window()
        db.catalog.insert_rows("t", [(2, "lost")])
        crash_db(db)

        recovered = Database.recover(str(tmp_path))
        assert recovered.catalog.version() == committed_version
        assert recovered.execute("SELECT name FROM t").rows == [("before",)]
        # The truncation is physical: the reopened log hands out the
        # discarded LSNs again instead of leaving holes.
        assert not recovered.wal.window_open

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


class TestServeStateRecovery:
    def make_system(self, wal_dir: str) -> AgentFirstDataSystem:
        return AgentFirstDataSystem(build_db(wal_dir=wal_dir))

    def test_history_attribution_survives_recovery(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        system = self.make_system(wal_dir)
        system.submit(Probe(queries=(JOIN,), agent_id="alice"))
        original = system.submit(Probe(queries=(JOIN,), agent_id="bob"))
        assert original.outcomes[0].status == "from_history"
        crash_system(system)

        recovered = AgentFirstDataSystem.recover(wal_dir)
        assert recovered.turn == 2  # the turn counter continues, not resets
        replayed = recovered.submit(Probe(queries=(JOIN,), agent_id="carol"))
        assert replayed.turn == 3
        assert replayed.outcomes[0].status == "from_history"
        # Attribution points at the original answering turn and agent.
        assert replayed.outcomes[0].reason == original.outcomes[0].reason
        recovered.close()

    def test_invalidated_history_stays_invalid(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        system = self.make_system(wal_dir)
        system.submit(Probe(queries=(JOIN,), agent_id="alice"))
        system.db.execute("INSERT INTO sales VALUES (9001, 2, 'tea', 7.5)")
        crash_system(system)

        recovered = AgentFirstDataSystem.recover(wal_dir)
        # The invalidation record replayed: the pre-write answer must not
        # come back from history against the post-write data.
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
        ref_version = reference.db.catalog.data_version_tuple()
        reference.close()

        victim = AgentFirstDataSystem(build_db(wal_dir=wal_dir), config=config)
        assert run_ops(victim, ops[:kill_after]) == ref_sigs[:kill_after]
        crash_system(victim)

        recovered = AgentFirstDataSystem.recover(wal_dir, config=config)
        try:
            assert run_ops(recovered, ops[kill_after:]) == ref_sigs[kill_after:]
            assert table_rows(recovered.db) == ref_rows
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
