"""Differential testing: the columnar engine vs. the row engine.

The columnar executor's contract is byte-identity — rows, row order,
columns, every stats counter, estimate errors, and raised errors must
match the row engine exactly, at every plan node. These tests run the
same plans through both engines and diff everything, over a corpus that
touches every ``PlanNode`` type, NULL-heavy columns, empty and
single-row tables, and alias-shadowed plans. A system-level sweep
(workers 1/8) checks that what the serving
stack returns matches the row engine, the reference oracle.
"""

from __future__ import annotations

import math
from dataclasses import asdict

import numpy as np
import pytest

from repro.core import AgentFirstDataSystem, Brief, Probe
from repro.db import Database
from repro.engine.batch import ColumnBatch
from repro.engine.columnar import (
    KERNEL_MEMO_STATS,
    ColumnarExecutor,
    clear_kernel_memo,
)
from repro.engine.executor import (
    ExecContext,
    Executor,
    clear_expr_memo,
    subplan_cache_key,
)
from repro.plan import logical
from repro.storage.table import Table


def build_db() -> Database:
    """Two tables with NULLs in every nullable column, plus an empty and
    a single-row table."""
    db = Database("columnar-diff")
    db.execute(
        "CREATE TABLE t (id INT PRIMARY KEY, name TEXT, score FLOAT, grp TEXT)"
    )
    db.execute("CREATE TABLE s (id INT, label TEXT)")
    db.execute("CREATE TABLE empty_t (id INT, val FLOAT)")
    db.execute("CREATE TABLE one_t (id INT, val FLOAT)")
    rows = []
    for i in range(300):
        name = None if i % 7 == 0 else f"name-{i % 13}"
        score = None if i % 5 == 0 else round((i * 7919 % 997) / 10.0, 1)
        grp = None if i % 11 == 0 else f"g{i % 4}"
        rows.append((i, name, score, grp))
    db.insert_rows("t", rows)
    db.insert_rows(
        "s", [(i % 9, None if i % 4 == 0 else f"l{i % 3}") for i in range(40)]
    )
    db.insert_rows("one_t", [(1, 2.5)])
    return db


@pytest.fixture(scope="module")
def diff_db() -> Database:
    return build_db()


#: One entry per plan-node type the planner can emit, plus NULL-heavy,
#: empty-table, and single-row coverage.
CORPUS = [
    # Scan / Project / Filter
    "SELECT id, name FROM t WHERE score > 50.0",
    "SELECT id FROM t WHERE name IS NULL",
    "SELECT id FROM t WHERE grp IS NOT NULL AND score <= 30.0",
    "SELECT -id, NOT (score > 50.0) FROM t WHERE id < 20",
    # expressions: arithmetic, concat, case, cast, functions, in, between
    "SELECT id + 1, score * 2.0, id % 7 FROM t WHERE id < 50",
    "SELECT name || '-' || grp FROM t WHERE id < 40",
    "SELECT CASE WHEN score > 70.0 THEN 'hi' WHEN score > 30.0 THEN 'mid' ELSE 'lo' END FROM t",
    "SELECT CAST(id AS TEXT), CAST(id AS FLOAT) FROM t WHERE id < 25",
    "SELECT LOWER(name), UPPER(grp), LENGTH(name) FROM t WHERE id < 30",
    "SELECT COALESCE(name, 'missing'), COALESCE(score, 0.0) FROM t WHERE id < 30",
    "SELECT id FROM t WHERE grp IN ('g1', 'g3')",
    "SELECT id FROM t WHERE score BETWEEN 20.0 AND 40.0",
    "SELECT id FROM t WHERE name LIKE 'name-1%'",
    # OneRow
    "SELECT 1, 'x'",
    # SubqueryScan (derived table)
    "SELECT q.id FROM (SELECT id FROM t WHERE score > 60.0) q WHERE q.id < 100",
    # HashJoin (inner + left)
    "SELECT t.id, s.label FROM t JOIN s ON t.id = s.id ORDER BY t.id, s.label",
    "SELECT t.id, s.label FROM t LEFT JOIN s ON t.id = s.id WHERE t.id < 30"
    " ORDER BY t.id, s.label",
    # NestedLoopJoin (non-equi condition)
    "SELECT t.id AS tid, s.id AS sid FROM t JOIN s ON t.id < s.id"
    " WHERE t.id < 8 ORDER BY tid, sid",
    "SELECT t.id AS tid, s.id AS sid FROM t LEFT JOIN s"
    " ON t.id < s.id AND s.label = 'l1' WHERE t.id < 6 ORDER BY tid, sid",
    # Aggregate: global, grouped, empty-input, distinct counts
    "SELECT COUNT(*), COUNT(score), SUM(score), AVG(score), MIN(name), MAX(score) FROM t",
    "SELECT grp, COUNT(*), SUM(score), AVG(score) FROM t GROUP BY grp ORDER BY grp",
    "SELECT COUNT(DISTINCT grp), COUNT(DISTINCT score) FROM t",
    "SELECT grp, MIN(score), MAX(name) FROM t WHERE id > 250 GROUP BY grp ORDER BY grp",
    # Sort / Limit / Distinct
    "SELECT id, score FROM t ORDER BY score DESC, id ASC LIMIT 17",
    "SELECT id FROM t ORDER BY name LIMIT 10 OFFSET 5",
    "SELECT DISTINCT grp FROM t ORDER BY grp",
    "SELECT DISTINCT grp, name FROM t WHERE id < 60 ORDER BY grp, name",
    # empty + single-row tables
    "SELECT COUNT(*), SUM(val), AVG(val), MIN(val), MAX(val) FROM empty_t",
    "SELECT id, val FROM empty_t WHERE val > 1.0 ORDER BY id LIMIT 3",
    "SELECT DISTINCT id FROM empty_t",
    "SELECT t.id FROM t JOIN empty_t e ON t.id = e.id",
    "SELECT id, val * 2.0 FROM one_t",
    "SELECT COUNT(*), AVG(val) FROM one_t",
    # subquery-bearing expressions (unvectorizable → row fallback)
    "SELECT id FROM t WHERE score > (SELECT AVG(score) FROM t) ORDER BY id LIMIT 12",
    "SELECT id FROM t WHERE id IN (SELECT id FROM s) ORDER BY id",
]

#: (sql, expected error fragment) — both engines must raise the same
#: error type with the same message.
ERROR_CORPUS = [
    "SELECT score + name FROM t",
    "SELECT id / (id - id) FROM t",
    "SELECT id % (id - id) FROM t",
    "SELECT -name FROM t WHERE name IS NOT NULL",
    "SELECT SUM(name) FROM t",
    "SELECT AVG(grp) FROM t",
]


def run_both(db: Database, sql: str, sample_rate: float = 1.0):
    plan = db.plan_select(sql)
    row_context = ExecContext(sample_rate=sample_rate, sample_seed=17)
    col_context = ExecContext(sample_rate=sample_rate, sample_seed=17)
    row_result = Executor(db.catalog, row_context).run(plan)
    col_result = ColumnarExecutor(db.catalog, col_context).run(plan)
    return row_context, row_result, col_context, col_result


def _holds_nan(rows: list) -> bool:
    return any(isinstance(v, float) and math.isnan(v) for row in rows for v in row)


def assert_identical(db: Database, sql: str, sample_rate: float = 1.0) -> None:
    row_context, row_result, col_context, col_result = run_both(
        db, sql, sample_rate
    )
    assert col_result.columns == row_result.columns, sql
    # repr catches what == forgives: 1 == 1.0 (an int SUM returned as a
    # float) and 0.0 == -0.0. A computed NaN is unequal to every other NaN
    # object, so for rows holding one repr is the only comparison.
    assert repr(col_result.rows) == repr(row_result.rows), sql
    if not _holds_nan(row_result.rows):
        assert col_result.rows == row_result.rows, sql
    assert col_result.estimate_errors == row_result.estimate_errors, sql
    assert asdict(col_context.stats) == asdict(row_context.stats), sql


class TestDifferentialCorpus:
    @pytest.mark.parametrize("sql", CORPUS)
    def test_exact(self, diff_db, sql):
        assert_identical(diff_db, sql)

    @pytest.mark.parametrize("sql", CORPUS)
    def test_sampled(self, diff_db, sql):
        """Sampled scans draw the same bernoulli sequence; sampled
        aggregates (scaled estimates) run through the row fallback."""
        assert_identical(diff_db, sql, sample_rate=0.5)

    @pytest.mark.parametrize("sql", ERROR_CORPUS)
    def test_error_parity(self, diff_db, sql):
        plan = diff_db.plan_select(sql)
        with pytest.raises(Exception) as row_err:
            Executor(diff_db.catalog, ExecContext()).run(plan)
        with pytest.raises(Exception) as col_err:
            ColumnarExecutor(diff_db.catalog, ExecContext()).run(plan)
        assert type(col_err.value) is type(row_err.value), sql
        assert str(col_err.value) == str(row_err.value), sql

    def test_index_scan_falls_back(self):
        """IndexScan leaves have no kernel; the row fallback serves them
        with identical stats. Fresh database: the index must not leak
        into the shared fixture's plans."""
        db = build_db()
        db.catalog.create_hash_index("t", "grp")
        sql = "SELECT id FROM t WHERE grp = 'g2' ORDER BY id"
        plan = db.plan_select(sql)
        assert any(isinstance(n, logical.IndexScan) for n in plan.walk())
        assert_identical(db, sql)

    def test_alias_shadowed_plans(self, diff_db):
        """Alias renaming keeps the strict fingerprint, so the renamed
        twin reuses the memoized kernels — and still matches the row
        engine byte-for-byte."""
        assert_identical(
            diff_db, "SELECT a.id, a.grp FROM t a WHERE a.score > 40.0"
        )
        KERNEL_MEMO_STATS.reset()
        assert_identical(
            diff_db, "SELECT b.id, b.grp FROM t b WHERE b.score > 40.0"
        )
        assert KERNEL_MEMO_STATS.builds == 0
        assert KERNEL_MEMO_STATS.hits > 0

    def test_view_scan(self, diff_db):
        """ViewScan nodes (maintenance-substituted leaves) execute
        identically, including the output-column permutation."""
        source = diff_db.plan_select("SELECT grp, COUNT(*) FROM t GROUP BY grp")
        view = logical.ViewScan(
            name="v-test",
            source_strict="deadbeef",
            build_id=1,
            columns=source.output,
            rows=(("g0", 4), ("g1", 3), (None, 2)),
            projection=(0, 1),
        )
        permuted = logical.ViewScan(
            name="v-perm",
            source_strict="deadbeef",
            build_id=2,
            columns=tuple(reversed(source.output)),
            rows=(("g0", 4), ("g1", 3)),
            projection=(1, 0),
        )
        for node in (view, permuted):
            row_context = ExecContext()
            col_context = ExecContext()
            row_result = Executor(diff_db.catalog, row_context).run(node)
            col_result = ColumnarExecutor(diff_db.catalog, col_context).run(node)
            assert col_result.rows == row_result.rows
            assert asdict(col_context.stats) == asdict(row_context.stats)


def build_adversarial_db() -> Database:
    """Numeric edge cases for the numpy mirror kernels, over three storage
    chunks: a 0.1 grid (every float sum depends on its order), leading and
    interior signed zeros, NaN first and mid-column (three rows share one
    NaN object, which GROUP BY and DISTINCT treat as one value), ints past 2**53 and past int64, a BOOLEAN column, NULL-bearing
    numeric columns, and group keys first seen out of sorted order."""
    db = Database("columnar-adversarial")
    db.execute(
        "CREATE TABLE adv (id INT, g INT, k INT, grid FLOAT, z FLOAT,"
        " nan_first FLOAT, nan_mid FLOAT, nul FLOAT, nul_i INT, big INT,"
        " huge INT, flag BOOLEAN)"
    )
    shared_nan = float("nan")
    rows = []
    for i in range(700):
        z = (0.0, -0.0, 1.5, -2.5)[i % 4] if i else -0.0
        if i in (350, 352, 600):
            nan_mid = shared_nan
        elif i == 351:
            nan_mid = float("nan")
        else:
            nan_mid = (i % 13) * 0.3
        rows.append(
            (
                i,
                (7 * i + 3) % 5,  # groups first seen as 3, 0, 2, 4, 1
                1 + i % 20,
                (i % 37) * 0.1,
                z,
                float("nan") if i == 0 else (i % 11) * 0.5,
                nan_mid,
                None if i % 9 == 0 else i * 0.25,
                None if i % 13 == 0 else i % 6,
                2**53 + (i % 9) * 2**40 + i % 5,
                2**64 + i,
                i % 3 == 0,
            )
        )
    db.insert_rows("adv", rows)
    return db


@pytest.fixture(scope="module")
def adversarial_db() -> Database:
    return build_adversarial_db()


#: The six ``scan_distinct`` template shapes, over the adversarial table.
SCAN_SHAPES = [
    "SELECT COUNT(*), SUM(grid), AVG(k) FROM adv WHERE grid < 2.45",
    "SELECT id, grid FROM adv WHERE grid > 1.75 AND k = 7 AND id <> 1000001",
    "SELECT g, COUNT(*), SUM(grid) FROM adv WHERE grid < 2.45 GROUP BY g",
    "SELECT id, grid FROM adv WHERE grid < 0.45 ORDER BY grid DESC, id LIMIT 10",
    "SELECT MIN(grid), MAX(grid) FROM adv WHERE k <> 1000004",
    "SELECT g, AVG(grid) FROM adv WHERE id <> 1000005 GROUP BY g",
]

ADVERSARIAL_CORPUS = SCAN_SHAPES + [
    # order-sensitive float sums, grouped (first-appearance order) or not
    "SELECT SUM(grid), AVG(grid), COUNT(grid) FROM adv",
    "SELECT k, SUM(grid), AVG(grid) FROM adv GROUP BY k",
    "SELECT grid, COUNT(*) FROM adv GROUP BY grid",
    "SELECT g, k, SUM(grid) FROM adv GROUP BY g, k",
    # signed zeros: +0.0 sum starts, keep-first MIN/MAX ties, zero keys
    "SELECT SUM(z), AVG(z), MIN(z), MAX(z) FROM adv",
    "SELECT SUM(z) FROM adv WHERE z <= 0.0 AND z > -0.5 AND k = 2",
    "SELECT k, SUM(z) FROM adv WHERE z < 0.5 AND z > -0.5 GROUP BY k",
    "SELECT MAX(z), MIN(z) FROM adv WHERE z < 1.0 AND z > -1.0",
    "SELECT MIN(z), MAX(z) FROM adv WHERE id > 3 AND z > -1.0 AND z < 1.0",
    "SELECT z, COUNT(*) FROM adv GROUP BY z",
    "SELECT id, z FROM adv WHERE id < 40 ORDER BY z, id",
    "SELECT id, z FROM adv WHERE id < 40 ORDER BY z DESC",
    "SELECT DISTINCT z FROM adv",
    "SELECT id FROM adv WHERE z = 0.0 AND id < 30",
    # NaN: first and mid-column, shared and distinct NaN objects
    "SELECT MIN(nan_first), MAX(nan_first), SUM(nan_first) FROM adv",
    "SELECT MIN(nan_mid), MAX(nan_mid), AVG(nan_mid) FROM adv",
    "SELECT MIN(nan_mid), MAX(nan_mid) FROM adv WHERE id > 300",
    "SELECT nan_mid, COUNT(*) FROM adv WHERE id > 340 AND id < 360 GROUP BY nan_mid",
    "SELECT DISTINCT nan_mid FROM adv WHERE id > 345 AND id < 355",
    "SELECT id, nan_mid FROM adv WHERE id > 340 AND id < 360 ORDER BY nan_mid, id",
    "SELECT id FROM adv WHERE nan_mid = 0.3 OR nan_first > 4.0",
    "SELECT id, nan_first FROM adv WHERE id < 5",
    # NULL-bearing numeric columns: the list path
    "SELECT COUNT(nul), SUM(nul), AVG(nul), MIN(nul), MAX(nul) FROM adv",
    "SELECT g, SUM(nul_i), COUNT(nul_i), MIN(nul_i) FROM adv GROUP BY g",
    "SELECT nul_i, COUNT(*) FROM adv GROUP BY nul_i",
    "SELECT id FROM adv WHERE nul > 100.0 AND k < 4",
    "SELECT id, nul FROM adv WHERE id < 50 ORDER BY nul DESC, id",
    # ints past 2**53 (int64 mirror) and past int64 (no mirror)
    "SELECT SUM(big), AVG(big), MIN(big), MAX(big) FROM adv",
    "SELECT big, COUNT(*) FROM adv GROUP BY big",
    "SELECT g, SUM(big) FROM adv GROUP BY g",
    "SELECT id FROM adv WHERE big = 9007199254740995",
    "SELECT id, big FROM adv WHERE id < 30 ORDER BY big DESC, id",
    "SELECT SUM(huge), MIN(huge), MAX(huge), COUNT(huge) FROM adv",
    "SELECT id, huge FROM adv WHERE id < 20 ORDER BY huge DESC",
    # BOOLEAN column
    "SELECT MIN(flag), MAX(flag), COUNT(flag) FROM adv",
    "SELECT flag, COUNT(*) FROM adv GROUP BY flag",
    "SELECT id FROM adv WHERE flag AND k = 3",
    # connectives, NOT, projected comparisons, LIMIT/OFFSET over gathers
    "SELECT id FROM adv WHERE NOT (grid > 1.0) AND k >= 19",
    "SELECT id FROM adv WHERE grid > 3.55 OR k < 2",
    "SELECT id, grid < 1.0, k = 4 FROM adv WHERE id < 12",
    # a mask beside a three-valued list (NULL-bearing or BOOLEAN operand)
    "SELECT id FROM adv WHERE nul > 100.0 OR k < 2",
    "SELECT id FROM adv WHERE NOT (nul > 100.0) AND k < 3",
    "SELECT id FROM adv WHERE flag OR grid > 3.55",
    "SELECT id, nul > 100.0 AND k < 3, NOT (grid > 1.0) FROM adv WHERE id < 40",
    "SELECT id, grid FROM adv WHERE k = 5 ORDER BY grid, id LIMIT 7 OFFSET 3",
    # empty filter results
    "SELECT COUNT(*), SUM(grid), AVG(grid), MIN(grid), MAX(z) FROM adv WHERE grid < -1.0",
    "SELECT g, COUNT(*), SUM(grid) FROM adv WHERE grid < -1.0 GROUP BY g",
    "SELECT id FROM adv WHERE grid < -1.0 ORDER BY grid LIMIT 3",
]

ADVERSARIAL_ERRORS = [
    "SELECT SUM(flag) FROM adv",
    "SELECT AVG(flag) FROM adv",
    "SELECT id FROM adv WHERE flag = 1",
]


#: One list-path kernel run each: columns without a usable mirror.
LIST_PATH_SHAPES = [
    "SELECT SUM(nul) FROM adv",
    "SELECT id FROM adv WHERE nul > 1.0",
    "SELECT MIN(nan_mid) FROM adv",
    "SELECT id FROM adv ORDER BY huge",
]


def assert_corpus_leaves_segments_unchanged(db: Database, corpus: list) -> None:
    """Run ``corpus`` through the columnar engine over warm segments and
    check that every segment is the same object holding the same values
    (identical objects), the same read-only mirror and the same read-only
    text codes afterwards."""
    before = {}
    for name in db.table_names():
        state = db.catalog.table(name).snapshot_state()
        for position in range(len(state.schema.columns)):
            segment = state.segment(position)
            mirror = segment.mirror
            encoded = segment.text_codes()
            before[name, position] = (
                state,
                segment,
                list(segment.values),
                None if mirror is None else mirror.copy(),
                encoded,
                None if encoded is None else (
                    list(encoded.dictionary), encoded.codes.copy()
                ),
            )
    for sql in corpus:
        plan = db.plan_select(sql)
        try:
            ColumnarExecutor(db.catalog, ExecContext()).run(plan)
        except Exception:  # noqa: BLE001 - the error corpus raises
            pass
    for (name, position), (
        state, segment, values, mirror, encoded, encoding
    ) in before.items():
        assert db.catalog.table(name).snapshot_state() is state
        assert state.segment(position) is segment
        assert len(segment.values) == len(values), (name, position)
        assert all(
            now is then for now, then in zip(segment.values, values)
        ), (name, position)
        if mirror is not None:
            assert not segment.mirror.flags.writeable
            assert np.array_equal(segment.mirror, mirror, equal_nan=True)
        assert segment.text_codes() is encoded, (name, position)
        if encoding is not None:
            dictionary, codes = encoding
            assert encoded.dictionary == dictionary, (name, position)
            assert not encoded.codes.flags.writeable
            assert np.array_equal(encoded.codes, codes), (name, position)


class TestAdversarialCorpus:
    """The numpy mirror kernels against the row engine, value for value
    and type for type."""

    @pytest.mark.parametrize("sql", ADVERSARIAL_CORPUS)
    def test_exact(self, adversarial_db, sql):
        assert_identical(adversarial_db, sql)

    @pytest.mark.parametrize("sql", ADVERSARIAL_ERRORS)
    def test_error_parity(self, adversarial_db, sql):
        plan = adversarial_db.plan_select(sql)
        with pytest.raises(Exception) as row_err:
            Executor(adversarial_db.catalog, ExecContext()).run(plan)
        with pytest.raises(Exception) as col_err:
            ColumnarExecutor(adversarial_db.catalog, ExecContext()).run(plan)
        assert type(col_err.value) is type(row_err.value), sql
        assert str(col_err.value) == str(row_err.value), sql

    def test_scan_shapes_stay_on_mirrors(self, adversarial_db):
        for sql in SCAN_SHAPES:
            assert_identical(adversarial_db, sql)
        KERNEL_MEMO_STATS.reset()
        for sql in SCAN_SHAPES:
            plan = adversarial_db.plan_select(sql)
            ColumnarExecutor(adversarial_db.catalog, ExecContext()).run(plan)
        assert KERNEL_MEMO_STATS.list_path_runs == 0
        assert KERNEL_MEMO_STATS.fallbacks == 0

    def test_text_and_column_comparisons_count_list_path_runs(self, adversarial_db):
        """A comparison with no numpy path at all — a text column holding a
        NULL, column vs column — runs on value lists, and each execution
        is counted like a run-time fallback. A text comparison over an
        all-``str`` column runs on its text codes and counts none."""
        text_db = build_db()
        text_db.execute("CREATE TABLE words (id INT, w TEXT)")
        text_db.insert_rows("words", [(i, f"w{i % 5}") for i in range(40)])
        for sql, runs in (
            ("SELECT COUNT(*) FROM t WHERE grp = 'g1'", 2),
            ("SELECT COUNT(*) FROM adv WHERE g < k", 2),
            ("SELECT COUNT(*) FROM words WHERE w = 'w1'", 0),
            ("SELECT COUNT(*) FROM words WHERE w >= 'w3' AND id > 5", 0),
            ("SELECT COUNT(*) FROM words WHERE w NOT IN ('w0', 'w9')", 0),
        ):
            db = adversarial_db if "adv" in sql else text_db
            plan = db.plan_select(sql)
            KERNEL_MEMO_STATS.reset()
            for _ in range(2):
                ColumnarExecutor(db.catalog, ExecContext()).run(plan)
            assert KERNEL_MEMO_STATS.list_path_runs == runs, sql
            assert KERNEL_MEMO_STATS.fallbacks == 0, sql

    def test_corpus_leaves_every_segment_unchanged(self, diff_db, adversarial_db):
        """Scans hand out the table states' segments zero-copy; no kernel
        may write through them."""
        assert_corpus_leaves_segments_unchanged(diff_db, CORPUS)
        assert_corpus_leaves_segments_unchanged(
            adversarial_db,
            ADVERSARIAL_CORPUS + ADVERSARIAL_ERRORS + LIST_PATH_SHAPES,
        )

    @pytest.mark.parametrize("sql", LIST_PATH_SHAPES)
    def test_columns_without_mirrors_count_list_path_runs(
        self, adversarial_db, sql
    ):
        plan = adversarial_db.plan_select(sql)
        KERNEL_MEMO_STATS.reset()
        ColumnarExecutor(adversarial_db.catalog, ExecContext()).run(plan)
        assert KERNEL_MEMO_STATS.list_path_runs == 1


class TestScanCountsItsState:
    """A scan counts the rows of the one table state it reads, so a write
    landing while it runs cannot make ``rows_scanned`` disagree with the
    rows it returned."""

    @pytest.mark.parametrize("engine", [Executor, ColumnarExecutor])
    @pytest.mark.parametrize("sample_rate", [1.0, 0.999])
    def test_write_landing_on_a_row_count(self, monkeypatch, engine, sample_rate):
        db = Database("scan-count")
        db.execute("CREATE TABLE c (id INT)")
        db.insert_rows("c", [(i,) for i in range(600)])
        table = db.catalog.table("c")
        plan = db.plan_select("SELECT id FROM c")
        count = Table.num_rows.fget

        def racing_count(self):
            rows = count(self)
            if self is table:
                self.insert((10_000 + rows,))  # a write lands right after
            return rows

        monkeypatch.setattr(Table, "num_rows", property(racing_count))
        context = ExecContext(sample_rate=sample_rate)
        rows = engine(db.catalog, context).run(plan).rows
        assert context.stats.rows_scanned == 600
        assert len(rows) <= 600
        if sample_rate == 1.0:
            assert rows == [(i,) for i in range(600)]


class TestCrossEngineCache:
    """Both engines key a subplan memo identically, so a memo one engine
    populated serves the other — rows included."""

    SQL = (
        "SELECT t.grp, SUM(t.score) FROM t JOIN s ON t.id = s.id"
        " GROUP BY t.grp ORDER BY t.grp"
    )

    def _run(self, db, executor_cls, cache):
        context = ExecContext(cache=cache)
        plan = db.plan_select(self.SQL)
        result = executor_cls(db.catalog, context).run(plan)
        return context, result

    def test_columnar_populates_row_consumes(self, diff_db):
        cache: dict = {}
        _, col_result = self._run(diff_db, ColumnarExecutor, cache)
        row_context, row_result = self._run(diff_db, Executor, cache)
        assert row_result.rows == col_result.rows
        assert row_context.stats.cache_hits > 0
        assert row_context.stats.cache_misses == 0

    def test_row_populates_columnar_consumes(self, diff_db):
        cache: dict = {}
        _, row_result = self._run(diff_db, Executor, cache)
        col_context, col_result = self._run(diff_db, ColumnarExecutor, cache)
        assert col_result.rows == row_result.rows
        assert col_context.stats.cache_hits > 0
        assert col_context.stats.cache_misses == 0

    def test_hit_serves_the_cached_batch_itself(self, diff_db):
        cache: dict = {}
        _, first = self._run(diff_db, ColumnarExecutor, cache)
        plan = diff_db.plan_select(self.SQL)
        executor = ColumnarExecutor(diff_db.catalog, ExecContext(cache=cache))
        batch = executor._execute_batch(plan)
        assert batch is cache[subplan_cache_key(plan, 1.0, 0)]
        assert batch.to_rows() is first.rows

    def test_miss_caches_interior_batches_without_row_view(self, diff_db):
        """Only the plan root builds rows; the interior batches a miss
        caches stay column-major until a reader asks for rows."""
        cache: dict = {}
        plan = diff_db.plan_select(
            "SELECT COUNT(*), SUM(id) FROM t WHERE id > 10 AND id < 250"
        )
        ColumnarExecutor(diff_db.catalog, ExecContext(cache=cache)).run(plan)
        entries = [
            (node is plan, cache.get(key))
            for node in plan.walk()
            if (key := subplan_cache_key(node, 1.0, 0)) is not None
        ]
        assert any(not is_root for is_root, _ in entries)
        for is_root, entry in entries:
            assert isinstance(entry, ColumnBatch)
            assert is_root or entry._rows is None
        assert len(cache) == len(entries)


class TestKernelMemo:
    def test_repeat_execution_hits_memo(self, diff_db):
        clear_expr_memo()  # also clears the kernel memo
        sql = "SELECT id, score FROM t WHERE score > 10.0 ORDER BY id LIMIT 5"
        plan = diff_db.plan_select(sql)
        ColumnarExecutor(diff_db.catalog, ExecContext()).run(plan)
        KERNEL_MEMO_STATS.reset()
        ColumnarExecutor(diff_db.catalog, ExecContext()).run(plan)
        assert KERNEL_MEMO_STATS.builds == 0
        assert KERNEL_MEMO_STATS.hits > 0
        assert KERNEL_MEMO_STATS.fallbacks == 0

    def test_subquery_nodes_are_unvectorized(self, diff_db):
        clear_expr_memo()
        sql = "SELECT id FROM t WHERE score > (SELECT AVG(score) FROM t)"
        plan = diff_db.plan_select(sql)
        KERNEL_MEMO_STATS.reset()
        ColumnarExecutor(diff_db.catalog, ExecContext()).run(plan)
        assert KERNEL_MEMO_STATS.unvectorized > 0
        assert KERNEL_MEMO_STATS.fallbacks == 0

    def test_clear_expr_memo_clears_kernels(self, diff_db):
        from repro.engine import columnar as columnar_module

        sql = "SELECT id FROM t WHERE id < 10"
        plan = diff_db.plan_select(sql)
        ColumnarExecutor(diff_db.catalog, ExecContext()).run(plan)
        with columnar_module._KERNEL_MEMO_LOCK:
            assert len(columnar_module._KERNEL_MEMO) > 0
        clear_expr_memo()
        with columnar_module._KERNEL_MEMO_LOCK:
            assert len(columnar_module._KERNEL_MEMO) == 0

    def test_kernel_memo_is_bounded(self, diff_db):
        from repro.engine import columnar as columnar_module

        clear_kernel_memo()
        for i in range(30):
            plan = diff_db.plan_select(f"SELECT id FROM t WHERE id > {i}")
            ColumnarExecutor(diff_db.catalog, ExecContext()).run(plan)
        with columnar_module._KERNEL_MEMO_LOCK:
            assert (
                len(columnar_module._KERNEL_MEMO)
                <= columnar_module._KERNEL_MEMO_MAX
            )


def system_db() -> Database:
    db = Database("columnar-system")
    db.execute("CREATE TABLE stores (id INT PRIMARY KEY, city TEXT, state TEXT)")
    db.execute(
        "CREATE TABLE sales (id INT, store_id INT, product TEXT, amount FLOAT)"
    )
    db.execute(
        "INSERT INTO stores VALUES (1,'Berkeley','California'),"
        "(2,'Oakland','California'),(3,'Seattle','Washington')"
    )
    db.insert_rows(
        "sales",
        [
            (i, 1 + i % 3, "coffee" if i % 2 else "tea", float(i % 40))
            for i in range(600)
        ],
    )
    return db


DIVIDE_BY_ZERO = "SELECT 1 / (id - id) FROM stores"


def system_probes() -> list[Probe]:
    shared_join = (
        "SELECT s.city, SUM(x.amount) FROM stores s JOIN sales x"
        " ON s.id = x.store_id GROUP BY s.city ORDER BY s.city"
    )
    probes = [
        Probe(
            queries=(
                shared_join,
                f"SELECT COUNT(*) FROM sales WHERE store_id = {1 + agent % 3}",
            ),
            brief=Brief(goal="compute the exact answer"),
            agent_id=f"agent-{agent}",
        )
        for agent in range(6)
    ]
    probes.append(Probe.sql(DIVIDE_BY_ZERO))
    probes.append(
        Probe(
            queries=("SELECT AVG(amount) FROM sales",),
            brief=Brief(goal="explore the data roughly", accuracy=0.5),
            agent_id="sampler",
        )
    )
    return probes


class TestSystemDifferential:
    """The whole serving stack — scheduler admission, speculation,
    history, steering — against the row engine as oracle, at any worker
    count."""

    @pytest.mark.parametrize("workers", [1, 8])
    def test_batch_matches_row_engine(self, workers):
        db = system_db()
        with AgentFirstDataSystem(db, workers=workers) as system:
            responses = system.submit_many(system_probes())
        outcomes = [o for response in responses for o in response.outcomes]
        exact = [o for o in outcomes if o.status == "ok"]
        assert exact
        for outcome in exact:
            oracle = Executor(db.catalog, ExecContext()).run(db.plan_select(outcome.sql))
            assert outcome.result.rows == oracle.rows, outcome.sql
        (error,) = [o for o in outcomes if o.sql == DIVIDE_BY_ZERO]
        assert error.status == "error"
        with pytest.raises(Exception) as oracle_error:
            Executor(db.catalog, ExecContext()).run(db.plan_select(DIVIDE_BY_ZERO))
        assert error.reason == str(oracle_error.value)
