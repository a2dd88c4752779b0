"""Tests for branched transactions: CoW forks, isolation, rollback, merge."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AgentFirstDataSystem, Brief, Probe
from repro.db import Database
from repro.errors import BranchNotFound, MergeConflict, TransactionError
from repro.txn import BranchManager, WriteOp


def make_manager(rows: int = 600) -> BranchManager:
    db = Database("main")
    db.execute("CREATE TABLE accounts (id INT PRIMARY KEY, owner TEXT, balance FLOAT)")
    db.insert_rows(
        "accounts", [(i, f"user{i}", 100.0) for i in range(rows)]
    )
    return BranchManager(db)


class TestForking:
    def test_fork_sees_parent_data(self):
        manager = make_manager()
        fork = manager.fork("main", "b1")
        assert fork.execute("SELECT COUNT(*) FROM accounts").first_value() == 600

    def test_fork_is_cow_not_copy(self):
        manager = make_manager()
        manager.fork("main", "b1")
        assert manager.shared_chunk_fraction("b1", "main") == 1.0

    def test_write_in_fork_invisible_to_parent(self):
        manager = make_manager()
        fork = manager.fork("main", "b1")
        fork.execute("UPDATE accounts SET balance = 0 WHERE id = 1")
        assert fork.execute(
            "SELECT balance FROM accounts WHERE id = 1"
        ).first_value() == 0.0
        assert manager.main.execute(
            "SELECT balance FROM accounts WHERE id = 1"
        ).first_value() == 100.0

    def test_write_in_parent_invisible_to_fork(self):
        manager = make_manager()
        fork = manager.fork("main", "b1")
        manager.main.execute("UPDATE accounts SET balance = 0 WHERE id = 2")
        assert fork.execute(
            "SELECT balance FROM accounts WHERE id = 2"
        ).first_value() == 100.0

    def test_sibling_branches_isolated(self):
        manager = make_manager()
        left = manager.fork("main", "left")
        right = manager.fork("main", "right")
        left.execute("UPDATE accounts SET owner = 'L' WHERE id = 5")
        right.execute("UPDATE accounts SET owner = 'R' WHERE id = 5")
        assert left.execute(
            "SELECT owner FROM accounts WHERE id = 5"
        ).first_value() == "L"
        assert right.execute(
            "SELECT owner FROM accounts WHERE id = 5"
        ).first_value() == "R"

    def test_fork_of_fork(self):
        manager = make_manager()
        child = manager.fork("main", "child")
        child.execute("UPDATE accounts SET balance = 7 WHERE id = 0")
        grandchild = manager.fork("child", "grandchild")
        assert grandchild.execute(
            "SELECT balance FROM accounts WHERE id = 0"
        ).first_value() == 7.0
        assert grandchild.parent == "child"

    def test_only_touched_chunks_diverge(self):
        manager = make_manager(rows=600)  # 3 chunks of 256
        fork = manager.fork("main", "b1")
        fork.execute("UPDATE accounts SET balance = 0 WHERE id = 1")
        shared = manager.shared_chunk_fraction("b1", "main")
        assert 0.5 < shared < 1.0  # one chunk rewritten, others shared

    def test_duplicate_fork_name_rejected(self):
        manager = make_manager()
        manager.fork("main", "b1")
        with pytest.raises(TransactionError):
            manager.fork("main", "b1")

    def test_thousand_forks_cheap_and_correct(self):
        manager = make_manager(rows=300)
        for i in range(1000):
            manager.fork("main", f"b{i}")
        assert manager.live_branch_count() == 1001
        assert manager.branch("b999").execute(
            "SELECT COUNT(*) FROM accounts"
        ).first_value() == 300


class TestRollback:
    def test_rollback_discards_branch(self):
        manager = make_manager()
        fork = manager.fork("main", "b1")
        fork.execute("UPDATE accounts SET balance = 0 WHERE id = 1")
        manager.rollback("b1")
        with pytest.raises(BranchNotFound):
            manager.branch("b1")
        assert manager.main.execute(
            "SELECT balance FROM accounts WHERE id = 1"
        ).first_value() == 100.0

    def test_rolled_back_branch_unusable(self):
        manager = make_manager()
        fork = manager.fork("main", "b1")
        manager.rollback("b1")
        with pytest.raises(TransactionError):
            fork.execute("SELECT 1")

    def test_cannot_rollback_main(self):
        with pytest.raises(TransactionError):
            make_manager().rollback("main")

    def test_stats_track_activity(self):
        manager = make_manager()
        manager.fork("main", "a")
        manager.fork("main", "b")
        manager.rollback("a")
        stats = manager.stats()
        assert stats["forks_created"] == 2
        assert stats["rollbacks"] == 1
        assert stats["live_branches"] == 2


class TestMerge:
    def test_clean_merge_applies_updates(self):
        manager = make_manager()
        fork = manager.fork("main", "b1")
        fork.execute("UPDATE accounts SET balance = 42 WHERE id = 3")
        result = manager.merge("b1")
        assert result.updates == 1
        assert manager.main.execute(
            "SELECT balance FROM accounts WHERE id = 3"
        ).first_value() == 42.0

    def test_merge_consumes_branch(self):
        manager = make_manager()
        manager.fork("main", "b1")
        manager.merge("b1")
        with pytest.raises(BranchNotFound):
            manager.branch("b1")

    def test_merge_applies_inserts_with_fresh_ids(self):
        manager = make_manager(rows=10)
        fork = manager.fork("main", "b1")
        fork.execute("INSERT INTO accounts VALUES (1000, 'new', 5.0)")
        manager.main.execute("INSERT INTO accounts VALUES (2000, 'other', 6.0)")
        result = manager.merge("b1")
        assert result.inserts == 1
        assert manager.main.execute(
            "SELECT COUNT(*) FROM accounts"
        ).first_value() == 12

    def test_merge_applies_deletes(self):
        manager = make_manager(rows=10)
        fork = manager.fork("main", "b1")
        fork.execute("DELETE FROM accounts WHERE id = 4")
        manager.merge("b1")
        assert manager.main.execute(
            "SELECT COUNT(*) FROM accounts WHERE id = 4"
        ).first_value() == 0

    def test_merge_invalidates_answered_before_history(self):
        """Replayed updates/deletes bypass ``Database``'s DML surface; the
        merge must still publish a change, or the serving system keeps
        answering from pre-merge history (30 where the table says 120)."""
        manager = make_manager(rows=3)
        db = manager.main.db
        events = []
        db.on_change(events.append)
        probe = Probe(
            queries=("SELECT SUM(balance) FROM accounts",),
            brief=Brief(goal="compute the final balance"),
        )
        with AgentFirstDataSystem(db, workers=1) as system:
            assert system.submit(probe).outcomes[0].result.first_value() == 300.0
            assert system.submit(probe).outcomes[0].status == "from_history"
            fork = manager.fork("main", "b1")
            fork.execute("UPDATE accounts SET balance = 40")
            fork.execute("DELETE FROM accounts WHERE id = 2")
            log_before = len(manager.main.log)
            manager.merge("b1")
            outcome = system.submit(probe).outcomes[0]
            assert outcome.status == "ok"
            assert outcome.result.first_value() == 80.0
        # One event for the table the replay rewrote, carrying no row
        # details: the target's write log already recorded each op once.
        assert [(e.kind, e.table, e.row_count, e.details) for e in events] == [
            ("update", "accounts", 4, ())
        ]
        assert len(manager.main.log) == log_before + 4

    def test_write_write_conflict_detected(self):
        manager = make_manager()
        fork = manager.fork("main", "b1")
        fork.execute("UPDATE accounts SET balance = 1 WHERE id = 7")
        manager.main.execute("UPDATE accounts SET balance = 2 WHERE id = 7")
        with pytest.raises(MergeConflict) as excinfo:
            manager.merge("b1")
        assert ("accounts", excinfo.value.conflicts[0][1]) == excinfo.value.conflicts[0]

    def test_disjoint_writes_merge_cleanly(self):
        manager = make_manager()
        fork = manager.fork("main", "b1")
        fork.execute("UPDATE accounts SET balance = 1 WHERE id = 7")
        manager.main.execute("UPDATE accounts SET balance = 2 WHERE id = 8")
        manager.merge("b1")
        balances = manager.main.execute(
            "SELECT id, balance FROM accounts WHERE id IN (7, 8) ORDER BY id"
        ).rows
        assert balances == [(7, 1.0), (8, 2.0)]

    def test_sibling_conflict_via_explicit_target(self):
        manager = make_manager()
        left = manager.fork("main", "left")
        right = manager.fork("main", "right")
        left.execute("UPDATE accounts SET balance = 1 WHERE id = 9")
        right.execute("UPDATE accounts SET balance = 2 WHERE id = 9")
        manager.merge("left")  # left -> main, clean
        with pytest.raises(MergeConflict):
            manager.merge("right")  # right -> main now conflicts

    def test_branch_insert_then_update_merges(self):
        manager = make_manager(rows=5)
        fork = manager.fork("main", "b1")
        fork.execute("INSERT INTO accounts VALUES (99, 'x', 1.0)")
        fork.execute("UPDATE accounts SET balance = 2.0 WHERE id = 99")
        result = manager.merge("b1")
        assert result.inserts == 1
        value = manager.main.execute(
            "SELECT balance FROM accounts WHERE id = 99"
        ).first_value()
        assert value == 2.0

    def test_insert_only_branches_never_conflict(self):
        manager = make_manager(rows=5)
        a = manager.fork("main", "a")
        b = manager.fork("main", "b")
        a.execute("INSERT INTO accounts VALUES (100, 'a', 1.0)")
        b.execute("INSERT INTO accounts VALUES (101, 'b', 2.0)")
        manager.merge("a")
        manager.merge("b")
        assert manager.main.execute(
            "SELECT COUNT(*) FROM accounts"
        ).first_value() == 7


class TestIsolationProperty:
    """Randomised multi-branch interleavings preserve isolation."""

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["left", "right"]),
                st.integers(0, 19),
                st.floats(0, 1000, allow_nan=False),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_branches_never_observe_each_other(self, ops):
        manager = make_manager(rows=20)
        branches = {
            "left": manager.fork("main", "left"),
            "right": manager.fork("main", "right"),
        }
        expected = {
            "left": {i: 100.0 for i in range(20)},
            "right": {i: 100.0 for i in range(20)},
        }
        for branch_name, account, amount in ops:
            branches[branch_name].execute(
                f"UPDATE accounts SET balance = {amount} WHERE id = {account}"
            )
            expected[branch_name][account] = float(amount)
        for branch_name, branch in branches.items():
            rows = branch.execute("SELECT id, balance FROM accounts").rows
            assert dict(rows) == pytest.approx(expected[branch_name])
        # Main is untouched throughout.
        main_rows = manager.main.execute("SELECT balance FROM accounts").rows
        assert all(balance == 100.0 for (balance,) in main_rows)


class TestWriteIdentity:
    """Write identity is normalized once, at WriteOp construction.

    Regression: ``key`` used to lowercase while merge replay used the raw
    table string — a branch writing ``"Accounts"`` (quoted) and another
    writing ``accounts`` could dodge conflict detection yet replay into
    the same table.
    """

    def test_writeop_normalizes_table_at_construction(self):
        op = WriteOp("update", '"Accounts"', 1, (1, "u", 0.0))
        assert op.table == "accounts"
        assert op.key == ("accounts", 1)
        assert op.key == WriteOp("delete", "ACCOUNTS", 1, None).key

    def test_mixed_case_writes_to_same_row_conflict(self):
        manager = make_manager()
        left = manager.fork("main", "left")
        right = manager.fork("main", "right")
        left.update_row('"Accounts"', 5, (5, "left", 1.0))
        right.update_row("accounts", 5, (5, "right", 2.0))
        manager.merge("left")
        with pytest.raises(MergeConflict):
            manager.merge("right")

    def test_quoted_identifier_merge_replays_into_one_table(self):
        manager = make_manager()
        fork = manager.fork("main", "b")
        fork.update_row('"Accounts"', 5, (5, "quoted", 7.0))
        result = manager.merge("b")
        assert result.updates == 1
        assert manager.main.execute(
            "SELECT owner FROM accounts WHERE id = 5"
        ).first_value() == "quoted"
