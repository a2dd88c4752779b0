"""Tests for approximate execution (sampling) and the subplan memo's keys."""

from __future__ import annotations

import pytest

from repro.db import Database
from repro.engine.columnar import ColumnarExecutor
from repro.engine.executor import ExecContext


@pytest.fixture
def big_db() -> Database:
    db = Database("big")
    db.execute("CREATE TABLE events (id INT, kind TEXT, value FLOAT)")
    rows = []
    for i in range(2000):
        kind = "a" if i % 4 else "b"
        rows.append(f"({i}, '{kind}', {float(i % 100)})")
    db.execute("INSERT INTO events VALUES " + ", ".join(rows))
    return db


class TestSampling:
    def test_exact_by_default(self, big_db):
        result = big_db.execute("SELECT COUNT(*) FROM events")
        assert not result.is_approximate
        assert result.first_value() == 2000

    def test_sampled_count_scales_up(self, big_db):
        result = big_db.execute("SELECT COUNT(*) FROM events", sample_rate=0.2)
        assert result.is_approximate
        estimate = result.first_value()
        assert 1500 <= estimate <= 2500  # within ~5 sigma of 2000

    def test_sampled_count_reports_error(self, big_db):
        result = big_db.execute("SELECT COUNT(*) AS n FROM events", sample_rate=0.2)
        assert "__agg0" in result.estimate_errors or result.estimate_errors
        error = next(iter(result.estimate_errors.values()))
        assert error > 0

    def test_sampled_sum_near_truth(self, big_db):
        exact = big_db.execute("SELECT SUM(value) FROM events").first_value()
        approx = big_db.execute(
            "SELECT SUM(value) FROM events", sample_rate=0.3
        ).first_value()
        assert approx == pytest.approx(exact, rel=0.2)

    def test_sampled_avg_unscaled(self, big_db):
        exact = big_db.execute("SELECT AVG(value) FROM events").first_value()
        approx = big_db.execute(
            "SELECT AVG(value) FROM events", sample_rate=0.3
        ).first_value()
        assert approx == pytest.approx(exact, rel=0.15)

    def test_count_distinct_not_scaled(self, big_db):
        approx = big_db.execute(
            "SELECT COUNT(DISTINCT kind) FROM events", sample_rate=0.5
        ).first_value()
        assert approx <= 2

    def test_sampling_deterministic_per_seed(self, big_db):
        first = big_db.execute(
            "SELECT COUNT(*) FROM events", sample_rate=0.2, sample_seed=7
        ).first_value()
        second = big_db.execute(
            "SELECT COUNT(*) FROM events", sample_rate=0.2, sample_seed=7
        ).first_value()
        assert first == second

    def test_different_seeds_differ(self, big_db):
        values = {
            big_db.execute(
                "SELECT COUNT(*) FROM events", sample_rate=0.2, sample_seed=seed
            ).first_value()
            for seed in range(5)
        }
        assert len(values) > 1

    def test_sampled_scan_fewer_rows(self, big_db):
        full = big_db.execute("SELECT id FROM events")
        sampled = big_db.execute("SELECT id FROM events", sample_rate=0.1)
        assert sampled.row_count < full.row_count * 0.3

    def test_sampled_group_by(self, big_db):
        result = big_db.execute(
            "SELECT kind, COUNT(*) AS n FROM events GROUP BY kind", sample_rate=0.4
        )
        counts = dict(result.rows)
        assert counts.get("a", 0) > counts.get("b", 0)


def run_with(db: Database, sql: str, memo: dict, sample_rate: float = 1.0):
    """Execute ``sql`` against ``memo``, as one engine run of a window."""
    context = ExecContext(sample_rate=sample_rate, cache=memo)
    return ColumnarExecutor(db.catalog, context).run(db.plan_select(sql))


class TestSubplanMemo:
    def test_identical_query_hits_memo(self, big_db):
        memo: dict = {}
        first = run_with(big_db, "SELECT COUNT(*) FROM events WHERE kind = 'a'", memo)
        second = run_with(big_db, "SELECT COUNT(*) FROM events WHERE kind = 'a'", memo)
        assert first.rows == second.rows
        assert second.stats.cache_hits > 0
        assert second.stats.rows_scanned == 0  # never touched the table

    def test_alias_variant_hits_memo(self, big_db):
        memo: dict = {}
        run_with(big_db, "SELECT COUNT(*) FROM events WHERE kind = 'a'", memo)
        result = run_with(
            big_db, "SELECT COUNT(*) FROM events e WHERE e.kind = 'a'", memo
        )
        assert result.stats.cache_hits > 0

    def test_shared_subplan_across_different_queries(self, big_db):
        memo: dict = {}
        run_with(
            big_db,
            "SELECT kind, COUNT(*) FROM events WHERE value > 50 GROUP BY kind",
            memo,
        )
        result = run_with(
            big_db,
            "SELECT kind, SUM(value) FROM events WHERE value > 50 GROUP BY kind",
            memo,
        )
        # The filtered scan (Filter over Scan) is shared even though the
        # aggregates differ.
        assert result.stats.cache_hits > 0

    def test_projection_order_not_conflated(self, big_db):
        memo: dict = {}
        a = run_with(big_db, "SELECT id, kind FROM events WHERE id < 5", memo)
        b = run_with(big_db, "SELECT kind, id FROM events WHERE id < 5", memo)
        assert a.columns == ["id", "kind"]
        assert b.columns == ["kind", "id"]
        assert [r[::-1] for r in a.rows] == b.rows

    def test_different_sample_rates_not_conflated(self, big_db):
        memo: dict = {}
        exact = run_with(big_db, "SELECT COUNT(*) FROM events", memo)
        approx = run_with(big_db, "SELECT COUNT(*) FROM events", memo, sample_rate=0.1)
        assert exact.first_value() == 2000
        assert approx.first_value() != 2000 or approx.is_approximate

    def test_memo_work_savings(self, big_db):
        memo: dict = {}
        first = run_with(
            big_db,
            "SELECT kind, COUNT(*) FROM events WHERE value > 10 GROUP BY kind",
            memo,
        )
        second = run_with(
            big_db,
            "SELECT kind, COUNT(*) FROM events WHERE value > 10 GROUP BY kind",
            memo,
        )
        assert second.stats.rows_processed < first.stats.rows_processed * 0.1
