"""Differential testing: the engine vs. a naive Python reference.

Hypothesis generates random single-table queries (filters, projections,
aggregates, group-bys, order/limit); both the SQL engine and a pure-Python
reference evaluate them over the same rows; results must agree. This is
the strongest correctness net over the whole parse→plan→optimize→execute
pipeline.

The columnar engine's numpy kernels read the column segments (value
lists, numpy mirrors and text codes) each table state memoizes; a second
property checks them against the row ``Executor`` on NULL-free numeric
tables spanning several chunks, an adversarial corpus and a third
property check the text-code kernels on text tables, and the memo tests
check that every write path — and every way a table is forked, merged,
discarded or recovered — is seen by the next scan and by the table
statistics.
"""

from __future__ import annotations

import math
import pickle
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database
from repro.engine.columnar import KERNEL_MEMO_STATS, ColumnarExecutor
from repro.engine.executor import ExecContext, Executor
from repro.storage.statistics import compute_table_stats
from repro.storage.table import CHUNK_SIZE, Table, text_codes
from repro.txn.branches import BranchManager
from test_engine_columnar import assert_corpus_leaves_segments_unchanged

COLUMNS = ["id", "grp", "val", "flag"]


def make_db(rows: list[tuple]) -> Database:
    db = Database("diff")
    db.execute("CREATE TABLE t (id INT, grp TEXT, val FLOAT, flag INT)")
    if rows:
        db.insert_rows("t", rows)
    return db


rows_strategy = st.lists(
    st.tuples(
        st.integers(0, 50),
        st.sampled_from(["a", "b", "c", None]),
        st.one_of(st.none(), st.floats(-100, 100, allow_nan=False, width=32)),
        st.integers(0, 3),
    ),
    min_size=0,
    max_size=40,
)

predicate_strategy = st.sampled_from(
    [
        None,
        ("id", ">", 10),
        ("id", "<=", 25),
        ("grp", "=", "a"),
        ("grp", "<>", "b"),
        ("val", ">", 0.0),
        ("flag", "=", 2),
    ]
)


def reference_filter(rows, predicate):
    if predicate is None:
        return list(rows)
    column, op, literal = predicate
    index = COLUMNS.index(column)
    out = []
    for row in rows:
        value = row[index]
        if value is None:
            continue
        if op == ">" and not value > literal:
            continue
        if op == "<=" and not value <= literal:
            continue
        if op == "=" and not value == literal:
            continue
        if op == "<>" and not value != literal:
            continue
        out.append(row)
    return out


def predicate_sql(predicate):
    if predicate is None:
        return ""
    column, op, literal = predicate
    rendered = f"'{literal}'" if isinstance(literal, str) else str(literal)
    return f" WHERE {column} {op} {rendered}"


class TestDifferentialScalar:
    @given(rows=rows_strategy, predicate=predicate_strategy)
    @settings(max_examples=60, deadline=None)
    def test_count_sum_avg(self, rows, predicate):
        db = make_db(rows)
        survivors = reference_filter(rows, predicate)
        expected_count = len(survivors)
        values = [r[2] for r in survivors if r[2] is not None]
        expected_sum = sum(values) if values else None
        expected_avg = sum(values) / len(values) if values else None

        result = db.execute(
            "SELECT COUNT(*), SUM(val), AVG(val) FROM t" + predicate_sql(predicate)
        )
        count, total, avg = result.rows[0]
        assert count == expected_count
        if expected_sum is None:
            assert total is None
        else:
            assert total == pytest.approx(expected_sum, rel=1e-9, abs=1e-9)
        if expected_avg is None:
            assert avg is None
        else:
            assert avg == pytest.approx(expected_avg, rel=1e-9, abs=1e-9)

    @given(rows=rows_strategy, predicate=predicate_strategy)
    @settings(max_examples=60, deadline=None)
    def test_min_max(self, rows, predicate):
        db = make_db(rows)
        survivors = reference_filter(rows, predicate)
        values = [r[2] for r in survivors if r[2] is not None]
        result = db.execute("SELECT MIN(val), MAX(val) FROM t" + predicate_sql(predicate))
        low, high = result.rows[0]
        if not values:
            assert low is None and high is None
        else:
            assert low == pytest.approx(min(values))
            assert high == pytest.approx(max(values))

    @given(rows=rows_strategy, predicate=predicate_strategy)
    @settings(max_examples=60, deadline=None)
    def test_projection_multiset(self, rows, predicate):
        db = make_db(rows)
        survivors = reference_filter(rows, predicate)
        expected = sorted(
            ((r[0], r[1]) for r in survivors),
            key=lambda x: (repr(x[0]), repr(x[1])),
        )
        result = db.execute("SELECT id, grp FROM t" + predicate_sql(predicate))
        actual = sorted(result.rows, key=lambda x: (repr(x[0]), repr(x[1])))
        assert actual == expected


class TestDifferentialGrouped:
    @given(rows=rows_strategy, predicate=predicate_strategy)
    @settings(max_examples=60, deadline=None)
    def test_group_by_count_sum(self, rows, predicate):
        db = make_db(rows)
        survivors = reference_filter(rows, predicate)
        expected: dict = {}
        for row in survivors:
            bucket = expected.setdefault(row[1], [0, 0.0, False])
            bucket[0] += 1
            if row[2] is not None:
                bucket[1] += row[2]
                bucket[2] = True
        result = db.execute(
            "SELECT grp, COUNT(*), SUM(val) FROM t"
            + predicate_sql(predicate)
            + " GROUP BY grp"
        )
        actual = {row[0]: (row[1], row[2]) for row in result.rows}
        assert set(actual) == set(expected)
        for key, (count, total, has_value) in expected.items():
            assert actual[key][0] == count
            if has_value:
                assert actual[key][1] == pytest.approx(total, rel=1e-9, abs=1e-9)
            else:
                assert actual[key][1] is None

    @given(rows=rows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_distinct(self, rows):
        db = make_db(rows)
        expected = {r[1] for r in rows}
        result = db.execute("SELECT DISTINCT grp FROM t")
        assert {row[0] for row in result.rows} == expected

    @given(rows=rows_strategy, limit=st.integers(0, 10))
    @settings(max_examples=40, deadline=None)
    def test_order_limit(self, rows, limit):
        db = make_db(rows)
        result = db.execute(f"SELECT id FROM t ORDER BY id LIMIT {limit}")
        expected = sorted(r[0] for r in rows)[:limit]
        assert result.column_values("id") == expected


class TestDifferentialJoin:
    @given(
        left=st.lists(st.integers(0, 8), min_size=0, max_size=15),
        right=st.lists(st.integers(0, 8), min_size=0, max_size=15),
    )
    @settings(max_examples=50, deadline=None)
    def test_inner_join_multiset(self, left, right):
        db = Database("j")
        db.execute("CREATE TABLE l (k INT)")
        db.execute("CREATE TABLE r (k INT)")
        db.insert_rows("l", [(v,) for v in left])
        db.insert_rows("r", [(v,) for v in right])
        result = db.execute("SELECT l.k FROM l JOIN r ON l.k = r.k")
        expected = sorted(
            lv for lv in left for rv in right if lv == rv
        )
        assert sorted(result.column_values("k")) == expected

    @given(
        left=st.lists(st.integers(0, 5), min_size=0, max_size=10),
        right=st.lists(st.integers(0, 5), min_size=0, max_size=10),
    )
    @settings(max_examples=50, deadline=None)
    def test_left_join_preserves_left_cardinality(self, left, right):
        db = Database("j2")
        db.execute("CREATE TABLE l (k INT)")
        db.execute("CREATE TABLE r (k INT)")
        db.insert_rows("l", [(v,) for v in left])
        db.insert_rows("r", [(v,) for v in right])
        result = db.execute("SELECT l.k, r.k FROM l LEFT JOIN r ON l.k = r.k")
        expected_rows = sum(
            max(right.count(lv), 1) for lv in left
        )
        assert result.row_count == expected_rows
        # NULL-extension only for unmatched keys.
        for lk, rk in result.rows:
            if rk is None:
                assert lk not in right
            else:
                assert lk == rk


# -- the numpy mirror kernels vs the row engine --------------------------------


def both_engines(db: Database, sql: str) -> tuple[list, list]:
    plan = db.plan_select(sql)
    row = Executor(db.catalog, ExecContext()).run(plan).rows
    col = ColumnarExecutor(db.catalog, ExecContext()).run(plan).rows
    return row, col


def assert_engines_agree(db: Database, sql: str) -> None:
    row, col = both_engines(db, sql)
    assert repr(col) == repr(row), sql


#: Floats that break naive reductions: a 0.1 grid, signed zeros, values
#: far apart in magnitude.
float_strategy = st.one_of(
    st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, -0.7, 1e16, -1e16, 2.5]),
    st.floats(-1e6, 1e6, allow_nan=False),
)

numeric_table_strategy = st.tuples(
    st.lists(
        st.tuples(st.integers(-3, 3), float_strategy, st.integers(-(2**62), 2**62)),
        min_size=1,
        max_size=12,
    ),
    st.integers(CHUNK_SIZE + 1, 3 * CHUNK_SIZE),
)

MIRROR_QUERIES = [
    "SELECT COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v) FROM n",
    "SELECT SUM(w), AVG(w), MIN(w), MAX(w) FROM n WHERE g <> 0",
    "SELECT g, COUNT(*), SUM(v), AVG(w) FROM n GROUP BY g",
    "SELECT v, COUNT(*), SUM(w) FROM n WHERE id < 300 GROUP BY v",
    "SELECT id, v FROM n WHERE v > 0.15 AND g = 1 ORDER BY v DESC, id LIMIT 9",
    "SELECT id, w FROM n WHERE NOT (w < 0) OR g = -3 ORDER BY w, id LIMIT 9",
    "SELECT MIN(v), MAX(v) FROM n WHERE v < 0.25 AND v > -0.25",
]


class TestColumnarMirrorKernels:
    @given(table=numeric_table_strategy, sql=st.sampled_from(MIRROR_QUERIES))
    @settings(max_examples=60, deadline=None)
    def test_columnar_matches_row_engine(self, table, sql):
        base, size = table
        db = Database("mirror-diff")
        db.execute("CREATE TABLE n (id INT, g INT, v FLOAT, w INT)")
        db.insert_rows(
            "n", [(i,) + base[(i * 7) % len(base)] for i in range(size)]
        )
        assert db.catalog.table("n").num_chunks > 1
        assert_engines_agree(db, sql)


# -- the text-code kernels vs the row engine ----------------------------------

#: Text that ``str`` order and a sorted dictionary must agree on: case
#: pairs, a trailing space, non-ASCII, a prefix of another value. The empty
#: string lives only in ``u``, so ``''`` is absent from and below every
#: value of ``s``; ``'😀'`` is above every value of both.
TEXT_POOL = ["a", "A", "ab", "a ", "b", "B", "Zeta", "zeta", "é", "É", "ñandú", "日本"]
TEXT_LITERALS = ["", "a", "A", "ab", "aa", "b", "c", "zeta", "É", "ñ", "日本", "😀"]
TEXT_OPS = ["=", "<>", "<", "<=", ">", ">="]


def text_db() -> Database:
    """``s`` and ``u`` are all-``str`` (text codes), ``n`` holds NULLs (no
    codes), over three storage chunks."""
    db = Database("text-diff")
    db.execute("CREATE TABLE tx (id INT, s TEXT, u TEXT, n TEXT)")
    size = 2 * CHUNK_SIZE + 40
    db.insert_rows(
        "tx",
        [
            (
                i,
                TEXT_POOL[(i * 7) % len(TEXT_POOL)],
                "" if i % 5 == 0 else TEXT_POOL[(i * 3) % len(TEXT_POOL)],
                None if i % 4 == 0 else TEXT_POOL[i % len(TEXT_POOL)],
            )
            for i in range(size)
        ],
    )
    return db


TEXT_CORPUS = (
    [
        f"SELECT id, s FROM tx WHERE s {op} '{literal}'"
        for op in TEXT_OPS
        for literal in TEXT_LITERALS
    ]
    + [
        f"SELECT id, u FROM tx WHERE '{literal}' {op} u"
        for op in TEXT_OPS
        for literal in TEXT_LITERALS
    ]
    + [
        "SELECT id FROM tx WHERE s IN ('a', 'É', 'zz')",
        "SELECT id FROM tx WHERE s NOT IN ('a', 'b', '日本')",
        "SELECT id FROM tx WHERE s IN ('', '😀')",
        "SELECT id FROM tx WHERE s NOT IN ('', '😀')",
        "SELECT id FROM tx WHERE s IN ('a', NULL)",
        "SELECT id FROM tx WHERE s NOT IN ('a', NULL)",
        "SELECT id FROM tx WHERE NOT (s NOT IN ('b', NULL))",
        "SELECT id FROM tx WHERE u IN ('') AND id > 100",
        "SELECT id FROM tx WHERE n IN ('a', 'b')",
        "SELECT id FROM tx WHERE NOT (n = 'a')",
        "SELECT id FROM tx WHERE NOT (n <> 'b') OR s = 'ab'",
        "SELECT id FROM tx WHERE n = 'a' OR s < 'B'",
        "SELECT id FROM tx WHERE NOT (s = 'a' OR n >= 'b')",
        "SELECT id FROM tx WHERE NOT (n IN ('a', 'É')) AND u > ''",
        "SELECT id FROM tx WHERE s = 'a' AND id >= 40 AND id <> 77",
        "SELECT id FROM tx WHERE NOT (s >= 'b') AND NOT (u = '')",
        "SELECT id FROM tx WHERE s < u",
        "SELECT id, s = 'a', s IN ('a', 'b'), NOT (u < 'b'), n = 'a' FROM tx",
        # Codes built by a filter ride the gather, project and limit above it.
        "SELECT id, s = 'b', s IN ('ab', 'b'), u > 'b' FROM tx"
        " WHERE s >= 'ab' AND u <> ''",
        "SELECT id FROM (SELECT id, s FROM tx WHERE s <> 'a' LIMIT 50) AS q"
        " WHERE s = 'b'",
        "SELECT id FROM (SELECT id, s, u FROM tx WHERE s > 'a' LIMIT 300 OFFSET 7) AS q"
        " WHERE s IN ('b', 'é') OR u < 'b'",
        "SELECT s, COUNT(*) FROM tx WHERE s >= 'a' GROUP BY s",
        "SELECT s, COUNT(*) FROM tx GROUP BY s HAVING s > 'a' AND s <> 'é'",
        "SELECT id, s FROM tx WHERE s > 'A' ORDER BY s, id LIMIT 30",
        "SELECT id FROM tx WHERE CASE WHEN s = 'a' THEN u >= 'b' ELSE n = 'b' END",
        "SELECT a.id FROM tx a JOIN tx b ON a.id = b.id WHERE a.s = 'b' AND b.u <> ''",
        "SELECT COUNT(*), MIN(s), MAX(u) FROM tx WHERE s <= 'ab' AND u > 'A'",
    ]
)

#: Text against a number raises in the row engine; the text-code path
#: must not answer these.
TEXT_ERRORS = [
    "SELECT id FROM tx WHERE s = 5",
    "SELECT id FROM tx WHERE 5 < s",
    "SELECT id FROM tx WHERE s IN (5, 'a')",
    "SELECT id FROM tx WHERE s IN ('a', 5)",
    "SELECT id FROM tx WHERE id = 'a'",
    "SELECT id FROM tx WHERE s = 'a' AND u > 2.5",
]


class TestColumnarTextCodes:
    """The text-code comparison and IN-list masks against the row engine,
    ``repr`` for ``repr``."""

    @pytest.fixture(scope="class")
    def tdb(self) -> Database:
        db = text_db()
        assert db.catalog.table("tx").num_chunks > 1
        return db

    @pytest.mark.parametrize("sql", TEXT_CORPUS)
    def test_exact(self, tdb, sql):
        KERNEL_MEMO_STATS.reset()
        assert_engines_agree(tdb, sql)
        # A kernel error would be absorbed by the row fallback.
        assert KERNEL_MEMO_STATS.fallbacks == 0, sql

    @pytest.mark.parametrize("sql", TEXT_ERRORS)
    def test_error_parity(self, tdb, sql):
        plan = tdb.plan_select(sql)
        with pytest.raises(Exception) as row_err:
            Executor(tdb.catalog, ExecContext()).run(plan)
        with pytest.raises(Exception) as col_err:
            ColumnarExecutor(tdb.catalog, ExecContext()).run(plan)
        assert type(col_err.value) is type(row_err.value), sql
        assert str(col_err.value) == str(row_err.value), sql

    def test_codes_follow_str_order(self, tdb):
        state = tdb.catalog.table("tx").snapshot_state()
        s, u, n = (state.segment(position).text_codes() for position in (1, 2, 3))
        assert n is None
        for encoded, position in ((s, 1), (u, 2)):
            assert encoded.dictionary == sorted(set(state.segment(position).values))
            assert [encoded.dictionary[c] for c in encoded.codes] == list(
                state.segment(position).values
            )
        assert "" not in s.dictionary and "" in u.dictionary
        assert state.segment(1).text_codes() is s

    def test_text_codes_need_every_value_a_str(self):
        assert text_codes([]) is None
        assert text_codes(["a", None]) is None
        assert text_codes(["a", 1]) is None
        assert text_codes([True, "a"]) is None
        encoded = text_codes(["b", "a", "b", ""])
        assert encoded.dictionary == ["", "a", "b"]
        assert encoded.codes.tolist() == [2, 1, 2, 0]
        assert not encoded.codes.flags.writeable

    def test_corpus_leaves_segments_and_codes_unchanged(self, tdb):
        assert_corpus_leaves_segments_unchanged(tdb, TEXT_CORPUS + TEXT_ERRORS)

    @given(
        values=st.lists(
            st.text(alphabet="aAbé日 ", max_size=3), min_size=1, max_size=30
        ),
        literal=st.text(alphabet="aAbcé日 ", max_size=3),
        op=st.sampled_from(TEXT_OPS),
        flipped=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_text_matches_row_engine(self, values, literal, op, flipped):
        db = Database("text-prop")
        db.execute("CREATE TABLE r (id INT, s TEXT)")
        db.insert_rows("r", [(i, value) for i, value in enumerate(values)])
        predicate = f"'{literal}' {op} s" if flipped else f"s {op} '{literal}'"
        assert_engines_agree(db, f"SELECT id, s FROM r WHERE {predicate}")
        assert_engines_agree(db, f"SELECT id FROM r WHERE NOT ({predicate}) OR id = 0")
        assert_engines_agree(db, f"SELECT id FROM r WHERE s IN ('{literal}', 'a')")


# -- table-state memo validity: segments and statistics ---------------------

MEMO_SQL = (
    "SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM m WHERE v > -1.0",
    "SELECT g, SUM(v) FROM m GROUP BY g",
    "SELECT id, v FROM m ORDER BY v DESC, id LIMIT 3",
)


def memo_db(name: str = "memo", **kwargs) -> Database:
    db = Database(name, **kwargs)
    db.execute("CREATE TABLE m (id INT, g INT, v FLOAT)")
    db.insert_rows("m", [(i, i % 4, i * 0.5) for i in range(2 * CHUNK_SIZE + 88)])
    return db


def served(db: Database) -> list:
    """Every memo query through the columnar engine, checked against the
    row engine on the same state; the table statistics are checked
    against a cold computation over the same rows."""
    answers = []
    for sql in MEMO_SQL:
        row, col = both_engines(db, sql)
        assert repr(col) == repr(row), sql
        answers.append(col)
    table = db.catalog.table("m")
    state = table.snapshot_state()
    cold = Table.from_snapshot(
        state.schema, state.chunks, state.next_row_id, state.data_version
    )
    assert repr(db.catalog.stats("m")) == repr(compute_table_stats(cold))
    return answers


class TestChunkMemoValidity:
    """A scan warms the table state's column segments and the planner its
    statistics; the next scan after a write must see the write (the write
    made a new state, whose segments and statistics start cold)."""

    def test_insert(self):
        db = memo_db()
        before = served(db)
        db.insert_rows("m", [(10_000, 1, 5000.0)])
        after = served(db)
        assert after != before
        assert after[0][0][3] == 5000.0

    def test_insert_many(self):
        db = memo_db()
        served(db)
        db.insert_rows("m", [(10_000 + i, 2, -0.5) for i in range(CHUNK_SIZE + 5)])
        after = served(db)
        assert after[0][0][0] == 3 * CHUNK_SIZE + 93
        assert after[0][0][2] == -0.5

    def test_update(self):
        db = memo_db()
        served(db)
        db.execute("UPDATE m SET v = 9999.5 WHERE id = 300")
        after = served(db)
        assert after[0][0][3] == 9999.5
        assert after[2][0] == (300, 9999.5)

    def test_delete(self):
        db = memo_db()
        before = served(db)
        db.execute("DELETE FROM m WHERE id = 3")
        after = served(db)
        assert after[0][0][0] == before[0][0][0] - 1
        assert after[0][0][1] == before[0][0][1] - 1.5

    def test_fork_shares_memos_and_isolates_writes(self):
        manager = BranchManager(memo_db())
        main = manager.main.db
        before = served(main)
        child = manager.fork("main", "child")
        assert child.db.catalog.table("m").snapshot()[0] is (
            main.catalog.table("m").snapshot()[0]
        )
        child.execute("UPDATE m SET v = 7777.5 WHERE id = 5")
        assert served(child.db)[0][0][3] == 7777.5
        assert served(main) == before

    def test_fork_shares_segments_and_stats(self):
        manager = BranchManager(memo_db())
        main = manager.main.db
        before = served(main)
        main_state = main.catalog.table("m").snapshot_state()
        main_stats = main.catalog.stats("m")
        child = manager.fork("main", "child")
        child_catalog = child.db.catalog
        assert child_catalog.table("m").snapshot_state() is main_state
        assert child_catalog.stats("m") is main_stats
        served(child.db)
        assert child_catalog.storage_counters.segment_builds == 0
        assert child_catalog.storage_counters.stats_recomputes == 0
        child.execute("UPDATE m SET v = 7777.5 WHERE id = 5")
        assert child_catalog.stats("m").column("v").max_value == 7777.5
        assert child_catalog.storage_counters.stats_recomputes == 1
        assert main.catalog.table("m").snapshot_state() is main_state
        assert main.catalog.stats("m") is main_stats
        assert main_stats.column("v").max_value == (2 * CHUNK_SIZE + 87) * 0.5
        assert served(main) == before

    def test_merge(self):
        manager = BranchManager(memo_db())
        main = manager.main.db
        served(main)
        child = manager.fork("main", "child")
        child.execute("UPDATE m SET v = 8888.5 WHERE id = 400")
        child.db.insert_rows("m", [(20_000, 3, -0.75)])
        served(child.db)
        manager.merge("child")
        after = served(main)
        assert after[0][0] == (2 * CHUNK_SIZE + 89, after[0][0][1], -0.75, 8888.5)

    def test_rollback(self):
        manager = BranchManager(memo_db())
        main = manager.main.db
        before = served(main)
        child = manager.fork("main", "child")
        child.execute("DELETE FROM m WHERE id < 100")
        served(child.db)
        manager.rollback("child")
        assert served(main) == before

    def test_recover(self, tmp_path):
        db = memo_db("memo-wal", wal_dir=str(tmp_path))
        served(db)
        db.execute("UPDATE m SET v = 6666.5 WHERE id = 9")
        db.insert_rows("m", [(30_000, 0, 1.25)])
        live = served(db)
        db.catalog.wal.close()
        db.catalog.wal = None
        recovered = Database.recover(str(tmp_path))
        assert served(recovered) == live

    def test_scan_leaves_pickled_snapshot_unchanged(self):
        db = memo_db()
        table = db.catalog.table("m")
        before = pickle.dumps(table.snapshot_state())
        served(db)
        assert pickle.dumps(table.snapshot_state()) == before
        restored = pickle.loads(before)
        assert restored == table.snapshot_state()
        assert served(db) == served(db)

    def test_concurrent_cold_scans_agree(self):
        """Scans racing to build the same state's segments (more threads than
        cores, a tiny switch interval) all see one consistent table."""
        db = memo_db()
        expected = [
            Executor(db.catalog, ExecContext()).run(db.plan_select(sql)).rows
            for sql in MEMO_SQL
        ]
        plans = [db.plan_select(sql) for sql in MEMO_SQL]
        answers: list = []
        lock = threading.Lock()

        def scan() -> None:
            got = [
                ColumnarExecutor(db.catalog, ExecContext()).run(plan).rows
                for plan in plans
            ]
            with lock:
                answers.append(got)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=scan) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(answers) == 8
        assert all(repr(got) == repr(expected) for got in answers)
