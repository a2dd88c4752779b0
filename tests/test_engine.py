"""End-to-end engine tests: SELECT semantics over the database facade."""

from __future__ import annotations

import pytest

from repro.db import Database
from repro.errors import ExecutionError, PlanError


class TestProjectionAndFilter:
    def test_select_star(self, sales_db):
        result = sales_db.execute("SELECT * FROM stores")
        assert result.columns == ["id", "city", "state", "opened"]
        assert result.row_count == 5

    def test_column_subset_and_alias(self, sales_db):
        result = sales_db.execute("SELECT city AS c FROM stores WHERE id = 1")
        assert result.columns == ["c"]
        assert result.rows == [("Berkeley",)]

    def test_expression_projection(self, sales_db):
        result = sales_db.execute("SELECT amount * 2 FROM sales WHERE id = 1")
        assert result.rows == [(241.0,)]

    def test_where_and_or(self, sales_db):
        result = sales_db.execute(
            "SELECT id FROM sales WHERE product = 'tea' AND year = 2024 OR id = 1"
            " ORDER BY id"
        )
        assert result.column_values("id") == [1, 5, 8]

    def test_between(self, sales_db):
        result = sales_db.execute(
            "SELECT id FROM sales WHERE amount BETWEEN 50 AND 100 ORDER BY id"
        )
        assert result.column_values("id") == [3, 5, 6, 7]

    def test_in_list(self, sales_db):
        result = sales_db.execute(
            "SELECT city FROM stores WHERE state IN ('CA','WA') ORDER BY city"
        )
        assert result.column_values("city") == ["Berkeley", "Oakland", "Seattle"]

    def test_like_case_insensitive(self, sales_db):
        result = sales_db.execute("SELECT city FROM stores WHERE city LIKE 'b%'")
        assert result.rows == [("Berkeley",)]

    def test_is_null_semantics(self, empty_db):
        empty_db.execute("CREATE TABLE t (a INT, b TEXT)")
        empty_db.execute("INSERT INTO t VALUES (1, NULL), (2, 'x')")
        assert empty_db.execute("SELECT a FROM t WHERE b IS NULL").rows == [(1,)]
        assert empty_db.execute("SELECT a FROM t WHERE b IS NOT NULL").rows == [(2,)]

    def test_null_comparison_filters_row(self, empty_db):
        empty_db.execute("CREATE TABLE t (a INT, b INT)")
        empty_db.execute("INSERT INTO t VALUES (1, NULL)")
        assert empty_db.execute("SELECT a FROM t WHERE b = 1").rows == []
        assert empty_db.execute("SELECT a FROM t WHERE b <> 1").rows == []

    def test_three_valued_or(self, empty_db):
        empty_db.execute("CREATE TABLE t (a INT, b INT)")
        empty_db.execute("INSERT INTO t VALUES (1, NULL)")
        # NULL OR TRUE is TRUE.
        assert empty_db.execute("SELECT a FROM t WHERE b = 1 OR a = 1").rows == [(1,)]

    def test_unknown_column_error_lists_available(self, sales_db):
        with pytest.raises(PlanError) as excinfo:
            sales_db.execute("SELECT wrong FROM stores")
        assert "available" in str(excinfo.value)

    def test_unknown_table_error_lists_known(self, sales_db):
        with pytest.raises(PlanError) as excinfo:
            sales_db.execute("SELECT * FROM ghost")
        assert "known tables" in str(excinfo.value)

    def test_ambiguous_column(self, sales_db):
        with pytest.raises(PlanError) as excinfo:
            sales_db.execute(
                "SELECT id FROM stores JOIN sales ON stores.id = sales.store_id"
            )
        assert "ambiguous" in str(excinfo.value)


class TestJoins:
    def test_inner_join(self, sales_db):
        result = sales_db.execute(
            "SELECT s.city, x.amount FROM stores s JOIN sales x"
            " ON s.id = x.store_id WHERE x.product = 'tea' ORDER BY x.amount"
        )
        assert result.rows == [
            ("Oakland", 20.0),
            ("Berkeley", 30.0),
            ("Seattle", 55.5),
        ]

    def test_left_join_null_extension(self, empty_db):
        empty_db.execute("CREATE TABLE a (id INT)")
        empty_db.execute("CREATE TABLE b (id INT, v TEXT)")
        empty_db.execute("INSERT INTO a VALUES (1), (2)")
        empty_db.execute("INSERT INTO b VALUES (1, 'x')")
        result = empty_db.execute(
            "SELECT a.id, b.v FROM a LEFT JOIN b ON a.id = b.id ORDER BY a.id"
        )
        assert result.rows == [(1, "x"), (2, None)]

    def test_cross_join_cardinality(self, empty_db):
        empty_db.execute("CREATE TABLE a (x INT)")
        empty_db.execute("CREATE TABLE b (y INT)")
        empty_db.execute("INSERT INTO a VALUES (1),(2),(3)")
        empty_db.execute("INSERT INTO b VALUES (10),(20)")
        result = empty_db.execute("SELECT x, y FROM a CROSS JOIN b")
        assert result.row_count == 6

    def test_non_equi_join_falls_back_to_nested_loop(self, empty_db):
        empty_db.execute("CREATE TABLE a (x INT)")
        empty_db.execute("CREATE TABLE b (y INT)")
        empty_db.execute("INSERT INTO a VALUES (1),(5)")
        empty_db.execute("INSERT INTO b VALUES (3)")
        result = empty_db.execute("SELECT x, y FROM a JOIN b ON a.x < b.y")
        assert result.rows == [(1, 3)]

    def test_join_with_residual_condition(self, sales_db):
        result = sales_db.execute(
            "SELECT s.city FROM stores s JOIN sales x"
            " ON s.id = x.store_id AND x.amount > 150"
        )
        assert result.rows == [("Seattle",)]

    def test_self_join_requires_aliases(self, sales_db):
        with pytest.raises(PlanError):
            sales_db.execute(
                "SELECT * FROM stores JOIN stores ON stores.id = stores.id"
            )

    def test_three_way_join(self, sales_db):
        result = sales_db.execute(
            "SELECT DISTINCT a.city FROM stores a"
            " JOIN sales x ON a.id = x.store_id"
            " JOIN stores b ON a.state = b.state"
            " WHERE b.city = 'Oakland' ORDER BY a.city"
        )
        assert result.column_values("city") == ["Berkeley", "Oakland"]

    def test_null_keys_do_not_match(self, empty_db):
        empty_db.execute("CREATE TABLE a (k INT)")
        empty_db.execute("CREATE TABLE b (k INT)")
        empty_db.execute("INSERT INTO a VALUES (NULL), (1)")
        empty_db.execute("INSERT INTO b VALUES (NULL), (1)")
        result = empty_db.execute("SELECT a.k FROM a JOIN b ON a.k = b.k")
        assert result.rows == [(1,)]


class TestAggregation:
    def test_global_aggregates(self, sales_db):
        result = sales_db.execute(
            "SELECT COUNT(*), SUM(amount), MIN(amount), MAX(amount) FROM sales"
        )
        row = result.rows[0]
        assert row[0] == 10
        assert row[1] == pytest.approx(670.25)
        assert row[2] == 5.0
        assert row[3] == 200.0

    def test_avg_ignores_nulls(self, empty_db):
        empty_db.execute("CREATE TABLE t (v FLOAT)")
        empty_db.execute("INSERT INTO t VALUES (1.0), (NULL), (3.0)")
        assert empty_db.execute("SELECT AVG(v) FROM t").first_value() == 2.0

    def test_count_column_vs_star(self, empty_db):
        empty_db.execute("CREATE TABLE t (v INT)")
        empty_db.execute("INSERT INTO t VALUES (1), (NULL)")
        result = empty_db.execute("SELECT COUNT(*), COUNT(v) FROM t")
        assert result.rows == [(2, 1)]

    def test_count_distinct(self, sales_db):
        assert (
            sales_db.execute("SELECT COUNT(DISTINCT product) FROM sales").first_value()
            == 3
        )

    def test_group_by_with_having(self, sales_db):
        result = sales_db.execute(
            "SELECT product, COUNT(*) AS n FROM sales GROUP BY product"
            " HAVING COUNT(*) >= 3 ORDER BY n DESC"
        )
        assert result.rows == [("coffee", 6), ("tea", 3)]

    def test_group_by_expression(self, sales_db):
        result = sales_db.execute(
            "SELECT year + 0 AS y, COUNT(*) FROM sales GROUP BY year + 0 ORDER BY y"
        )
        assert result.rows == [(2023, 5), (2024, 5)]

    def test_group_by_alias(self, sales_db):
        result = sales_db.execute(
            "SELECT UPPER(product) AS p, COUNT(*) FROM sales GROUP BY p ORDER BY p"
        )
        assert [r[0] for r in result.rows] == ["COFFEE", "PASTRY", "TEA"]

    def test_empty_input_global_aggregate(self, empty_db):
        empty_db.execute("CREATE TABLE t (v INT)")
        result = empty_db.execute("SELECT COUNT(*), SUM(v) FROM t")
        assert result.rows == [(0, None)]

    def test_empty_input_grouped_returns_no_rows(self, empty_db):
        empty_db.execute("CREATE TABLE t (k INT, v INT)")
        result = empty_db.execute("SELECT k, SUM(v) FROM t GROUP BY k")
        assert result.rows == []

    def test_ungrouped_column_rejected(self, sales_db):
        with pytest.raises(PlanError) as excinfo:
            sales_db.execute("SELECT city, COUNT(*) FROM stores GROUP BY state")
        assert "GROUP BY" in str(excinfo.value)

    def test_aggregate_in_where_rejected(self, sales_db):
        with pytest.raises(PlanError):
            sales_db.execute("SELECT * FROM sales WHERE SUM(amount) > 10")

    def test_order_by_aggregate(self, sales_db):
        result = sales_db.execute(
            "SELECT product FROM sales GROUP BY product ORDER BY SUM(amount) DESC"
        )
        assert result.column_values("product") == ["coffee", "tea", "pastry"]

    def test_group_key_null_forms_its_own_group(self, empty_db):
        empty_db.execute("CREATE TABLE t (k TEXT, v INT)")
        empty_db.execute("INSERT INTO t VALUES ('a',1),(NULL,2),(NULL,3)")
        result = empty_db.execute("SELECT k, SUM(v) FROM t GROUP BY k")
        as_dict = {row[0]: row[1] for row in result.rows}
        assert as_dict == {"a": 1, None: 5}


class TestOrderingLimitDistinct:
    def test_order_by_multiple_keys(self, sales_db):
        result = sales_db.execute(
            "SELECT product, amount FROM sales ORDER BY product ASC, amount DESC LIMIT 3"
        )
        assert result.rows == [
            ("coffee", 200.0),
            ("coffee", 120.5),
            ("coffee", 99.0),
        ]

    def test_order_by_hidden_column(self, sales_db):
        result = sales_db.execute("SELECT city FROM stores ORDER BY opened DESC LIMIT 2")
        assert result.column_values("city") == ["Austin", "Portland"]
        assert result.columns == ["city"]

    def test_nulls_sort_first_ascending(self, empty_db):
        empty_db.execute("CREATE TABLE t (v INT)")
        empty_db.execute("INSERT INTO t VALUES (2), (NULL), (1)")
        assert empty_db.execute("SELECT v FROM t ORDER BY v").column_values("v") == [
            None,
            1,
            2,
        ]

    def test_limit_offset(self, sales_db):
        result = sales_db.execute("SELECT id FROM sales ORDER BY id LIMIT 3 OFFSET 4")
        assert result.column_values("id") == [5, 6, 7]

    def test_distinct(self, sales_db):
        result = sales_db.execute("SELECT DISTINCT state FROM stores ORDER BY state")
        assert result.column_values("state") == ["CA", "OR", "TX", "WA"]

    def test_distinct_order_by_nonprojected_rejected(self, sales_db):
        with pytest.raises(PlanError):
            sales_db.execute("SELECT DISTINCT city FROM stores ORDER BY opened")


class TestSubqueries:
    def test_in_subquery(self, sales_db):
        result = sales_db.execute(
            "SELECT city FROM stores WHERE id IN"
            " (SELECT store_id FROM sales WHERE amount > 100) ORDER BY city"
        )
        assert result.column_values("city") == ["Berkeley", "Seattle"]

    def test_not_in_subquery(self, sales_db):
        result = sales_db.execute(
            "SELECT city FROM stores WHERE id NOT IN"
            " (SELECT store_id FROM sales WHERE product = 'tea') ORDER BY city"
        )
        assert result.column_values("city") == ["Austin", "Portland"]

    def test_scalar_subquery(self, sales_db):
        result = sales_db.execute(
            "SELECT city FROM stores WHERE id ="
            " (SELECT store_id FROM sales ORDER BY amount DESC LIMIT 1)"
        )
        assert result.rows == [("Seattle",)]

    def test_from_subquery(self, sales_db):
        result = sales_db.execute(
            "SELECT sub.product, sub.total FROM"
            " (SELECT product, SUM(amount) AS total FROM sales GROUP BY product) sub"
            " WHERE sub.total > 100 ORDER BY sub.total DESC"
        )
        assert result.column_values("product") == ["coffee", "tea"]

    def test_exists(self, sales_db):
        result = sales_db.execute(
            "SELECT 1 WHERE EXISTS (SELECT 1 FROM sales WHERE amount > 199)"
        )
        assert result.rows == [(1,)]


class TestScalarFunctions:
    def test_string_functions(self, empty_db):
        result = empty_db.execute(
            "SELECT LOWER('AbC'), UPPER('x'), LENGTH('hello'), TRIM('  hi ')"
        )
        assert result.rows == [("abc", "X", 5, "hi")]

    def test_numeric_functions(self, empty_db):
        result = empty_db.execute("SELECT ABS(-4), ROUND(2.567, 1)")
        assert result.rows == [(4, 2.6)]

    def test_coalesce_nullif(self, empty_db):
        result = empty_db.execute("SELECT COALESCE(NULL, NULL, 7), NULLIF(3, 3)")
        assert result.rows == [(7, None)]

    def test_substr(self, empty_db):
        result = empty_db.execute("SELECT SUBSTR('abcdef', 2, 3)")
        assert result.rows == [("bcd",)]

    def test_concat_and_pipes(self, empty_db):
        result = empty_db.execute("SELECT CONCAT('a', 'b', 'c'), 'x' || 'y'")
        assert result.rows == [("abc", "xy")]

    def test_case_expression(self, sales_db):
        result = sales_db.execute(
            "SELECT city, CASE WHEN opened < 2010 THEN 'old' ELSE 'new' END AS age"
            " FROM stores WHERE state = 'CA' ORDER BY city"
        )
        assert result.rows == [("Berkeley", "old"), ("Oakland", "old")]

    def test_cast(self, empty_db):
        result = empty_db.execute("SELECT CAST('42' AS INT), CAST(3 AS TEXT)")
        assert result.rows == [(42, "3")]

    def test_division_by_zero_raises(self, empty_db):
        with pytest.raises(ExecutionError):
            empty_db.execute("SELECT 1 / 0")

    def test_unknown_function_raises_with_hint(self, empty_db):
        with pytest.raises(PlanError) as excinfo:
            empty_db.execute("SELECT FOO(1)")
        assert "known" in str(excinfo.value)


class TestDml:
    def test_insert_with_column_list_fills_nulls(self, empty_db):
        empty_db.execute("CREATE TABLE t (a INT, b TEXT, c FLOAT)")
        empty_db.execute("INSERT INTO t (b, a) VALUES ('x', 1)")
        assert empty_db.execute("SELECT * FROM t").rows == [(1, "x", None)]

    def test_insert_select(self, sales_db):
        sales_db.execute("CREATE TABLE ca_stores (id INT, city TEXT)")
        sales_db.execute(
            "INSERT INTO ca_stores SELECT id, city FROM stores WHERE state = 'CA'"
        )
        assert sales_db.execute("SELECT COUNT(*) FROM ca_stores").first_value() == 2

    def test_update_with_expression(self, empty_db):
        empty_db.execute("CREATE TABLE t (a INT)")
        empty_db.execute("INSERT INTO t VALUES (1), (2)")
        empty_db.execute("UPDATE t SET a = a * 10 WHERE a = 2")
        assert sorted(empty_db.execute("SELECT a FROM t").column_values("a")) == [1, 20]

    def test_delete_all(self, empty_db):
        empty_db.execute("CREATE TABLE t (a INT)")
        empty_db.execute("INSERT INTO t VALUES (1), (2)")
        empty_db.execute("DELETE FROM t")
        assert empty_db.execute("SELECT COUNT(*) FROM t").first_value() == 0

    def test_create_if_not_exists_idempotent(self, empty_db):
        empty_db.execute("CREATE TABLE IF NOT EXISTS t (a INT)")
        empty_db.execute("CREATE TABLE IF NOT EXISTS t (a INT)")
        assert empty_db.table_names() == ["t"]


class TestInformationSchema:
    def test_tables_lists_user_tables(self, sales_db):
        result = sales_db.execute(
            "SELECT table_name FROM information_schema.tables ORDER BY table_name"
        )
        assert result.column_values("table_name") == ["sales", "stores"]

    def test_row_counts_present(self, sales_db):
        result = sales_db.execute(
            "SELECT row_count FROM information_schema.tables WHERE table_name='sales'"
        )
        assert result.first_value() == 10

    def test_columns_reflect_schema(self, sales_db):
        result = sales_db.execute(
            "SELECT column_name, data_type FROM information_schema.columns"
            " WHERE table_name = 'stores' ORDER BY ordinal_position"
        )
        assert result.rows[0] == ("id", "INTEGER")

    def test_refreshes_after_ddl(self, sales_db):
        sales_db.execute("CREATE TABLE extra (x INT)")
        result = sales_db.execute(
            "SELECT COUNT(*) FROM information_schema.tables"
        )
        assert result.first_value() == 3

    def test_refreshes_after_dml(self, sales_db):
        before = sales_db.execute(
            "SELECT row_count FROM information_schema.tables WHERE table_name='stores'"
        ).first_value()
        sales_db.execute("INSERT INTO stores VALUES (99,'Reno','NV',2020)")
        after = sales_db.execute(
            "SELECT row_count FROM information_schema.tables WHERE table_name='stores'"
        ).first_value()
        assert after == before + 1


class TestResultObject:
    def test_signature_order_insensitive(self, sales_db):
        asc = sales_db.execute("SELECT id FROM sales ORDER BY id")
        desc = sales_db.execute("SELECT id FROM sales ORDER BY id DESC")
        assert asc.signature() == desc.signature()

    def test_signature_sensitive_to_content(self, sales_db):
        a = sales_db.execute("SELECT id FROM sales WHERE id < 5")
        b = sales_db.execute("SELECT id FROM sales WHERE id < 6")
        assert a.signature() != b.signature()

    def test_first_value_requires_1x1(self, sales_db):
        with pytest.raises(ValueError):
            sales_db.execute("SELECT id FROM sales").first_value()

    def test_stats_populated(self, sales_db):
        result = sales_db.execute("SELECT COUNT(*) FROM sales")
        assert result.stats.rows_scanned == 10
        assert result.stats.rows_processed >= 10


class TestSubThresholdCacheLookup:
    """Sub-threshold subplans (size < MIN_CACHEABLE_SIZE) are never
    memoized, so the engine must skip their lookup entirely: no miss is
    counted and nothing is stored for them."""

    def cacheable_count(self, db, sql):
        from repro.engine.executor import MIN_CACHEABLE_SIZE
        from repro.plan.fingerprint import fingerprints

        plan = db.plan_select(sql)
        return sum(
            1 for node in plan.walk() if fingerprints(node).size >= MIN_CACHEABLE_SIZE
        )

    @staticmethod
    def run_with(db, sql, memo):
        from repro.engine.columnar import ColumnarExecutor
        from repro.engine.executor import ExecContext

        context = ExecContext(cache=memo)
        result = ColumnarExecutor(db.catalog, context).run(db.plan_select(sql))
        return result, (context.stats.cache_hits, context.stats.cache_misses)

    def test_miss_counter_counts_only_cacheable_subplans(self, sales_db):
        sql = "SELECT city FROM stores WHERE state = 'CA'"
        cacheable = self.cacheable_count(sales_db, sql)
        plan_size = sales_db.plan_select(sql).node_count()
        assert cacheable < plan_size  # the corpus includes a bare scan

        _, counters = self.run_with(sales_db, sql, {})
        assert counters == (0, cacheable)

    def test_repeat_execution_hits_only_the_root(self, sales_db):
        sql = "SELECT s.city, SUM(x.amount) FROM stores s JOIN sales x" \
              " ON s.id = x.store_id GROUP BY s.city"
        memo: dict = {}
        first, (_, misses) = self.run_with(sales_db, sql, memo)
        assert misses == self.cacheable_count(sales_db, sql)
        second, counters = self.run_with(sales_db, sql, memo)
        # Root hit short-circuits the whole tree: one hit, no new misses.
        assert counters == (1, 0)
        assert second.rows == first.rows

    def test_uncacheable_rows_never_stored(self, sales_db):
        memo: dict = {}
        _, (_, misses) = self.run_with(
            sales_db, "SELECT city FROM stores WHERE state = 'CA'", memo
        )
        assert None not in memo
        assert len(memo) == misses  # one entry per miss


class TestHoistedCounterEquivalence:
    """The hot loops batch ``rows_processed`` increments (filter, project,
    distinct, scans, joins, aggregate count exactly their input sizes).
    This differential pins the new accounting to the seed's per-row
    accounting, reimplemented verbatim below."""

    CORPUS = [
        "SELECT city FROM stores WHERE state = 'CA'",
        "SELECT city, opened + 1 FROM stores",
        "SELECT DISTINCT product FROM sales",
        "SELECT s.city, SUM(x.amount) FROM stores s JOIN sales x"
        " ON s.id = x.store_id GROUP BY s.city",
        "SELECT s.city, x.amount FROM stores s LEFT JOIN sales x"
        " ON s.id = x.store_id",
        "SELECT s.city FROM stores s JOIN sales x ON s.id < x.store_id",
        "SELECT product, COUNT(*), SUM(amount) FROM sales GROUP BY product",
        "SELECT city FROM stores ORDER BY city DESC LIMIT 3",
        "SELECT COUNT(*) FROM sales WHERE amount > 10.0",
    ]

    def legacy_executor(self, catalog, context):
        """The seed's per-row accounting, as a differential baseline."""
        from repro.engine import aggregates as agg_lib
        from repro.engine.executor import Executor
        from repro.engine.expressions import compile_expr
        from repro.storage.types import Row

        class LegacyExecutor(Executor):
            def _exec_scan(self, node):
                table = self._catalog.table(node.table)
                positions = [table.schema.position_of(c) for c in node.columns]
                sampler = self._make_sampler(node.table)
                rows: list[Row] = []
                for row in table.scan():
                    self.context.stats.rows_scanned += 1
                    self.context.stats.rows_processed += 1
                    if sampler is not None and not sampler.bernoulli(
                        self.context.sample_rate
                    ):
                        continue
                    rows.append(tuple(row[p] for p in positions))
                return rows

            def _exec_filter(self, node):
                child_rows = self._execute(node.child)
                predicate = compile_expr(node.predicate, node.child.output, self)
                out: list[Row] = []
                for row in child_rows:
                    self.context.stats.rows_processed += 1
                    value = predicate(row)
                    if value is not None and value is not False and value != 0:
                        out.append(row)
                return out

            def _exec_project(self, node):
                child_rows = self._execute(node.child)
                compiled = [
                    compile_expr(e, node.child.output, self) for e in node.exprs
                ]
                out: list[Row] = []
                for row in child_rows:
                    self.context.stats.rows_processed += 1
                    out.append(tuple(fn(row) for fn in compiled))
                return out

            def _exec_hash_join(self, node):
                left_rows = self._execute(node.left)
                right_rows = self._execute(node.right)
                left_keys = [
                    compile_expr(k, node.left.output, self) for k in node.left_keys
                ]
                right_keys = [
                    compile_expr(k, node.right.output, self) for k in node.right_keys
                ]
                residual = (
                    compile_expr(node.residual, node.output, self)
                    if node.residual is not None
                    else None
                )
                build: dict[tuple, list[int]] = {}
                for position, row in enumerate(left_rows):
                    self.context.stats.rows_processed += 1
                    key = tuple(fn(row) for fn in left_keys)
                    if any(part is None for part in key):
                        continue
                    build.setdefault(key, []).append(position)
                matched_left: set[int] = set()
                out: list[Row] = []
                for row in right_rows:
                    self.context.stats.rows_processed += 1
                    key = tuple(fn(row) for fn in right_keys)
                    if any(part is None for part in key):
                        continue
                    for position in build.get(key, ()):
                        combined = left_rows[position] + row
                        if residual is not None:
                            verdict = residual(combined)
                            if verdict is None or verdict is False or verdict == 0:
                                continue
                        matched_left.add(position)
                        out.append(combined)
                if node.kind == "LEFT":
                    null_pad = (None,) * len(node.right.output)
                    out.extend(
                        left_rows[i] + null_pad
                        for i in range(len(left_rows))
                        if i not in matched_left
                    )
                return out

            def _exec_nested_loop(self, node):
                left_rows = self._execute(node.left)
                right_rows = self._execute(node.right)
                condition = (
                    compile_expr(node.condition, node.output, self)
                    if node.condition is not None
                    else None
                )
                out: list[Row] = []
                null_pad = (None,) * len(node.right.output)
                for left_row in left_rows:
                    matched = False
                    for right_row in right_rows:
                        self.context.stats.rows_processed += 1
                        combined = left_row + right_row
                        if condition is not None:
                            verdict = condition(combined)
                            if verdict is None or verdict is False or verdict == 0:
                                continue
                        matched = True
                        out.append(combined)
                    if node.kind == "LEFT" and not matched:
                        out.append(left_row + null_pad)
                return out

            def _exec_aggregate(self, node):
                child_rows = self._execute(node.child)
                group_fns = [
                    compile_expr(e, node.child.output, self)
                    for e in node.group_exprs
                ]

                def compile_arg(expr):
                    return compile_expr(expr, node.child.output, self)

                groups: dict[tuple, list] = {}
                order: list[tuple] = []
                for row in child_rows:
                    self.context.stats.rows_processed += 1
                    key = tuple(fn(row) for fn in group_fns)
                    accumulators = groups.get(key)
                    if accumulators is None:
                        accumulators = [
                            agg_lib.make_accumulator(call, compile_arg)
                            for call in node.agg_calls
                        ]
                        groups[key] = accumulators
                        order.append(key)
                    for accumulator in accumulators:
                        accumulator.add(row)
                if not groups and not node.group_exprs:
                    accumulators = [
                        agg_lib.make_accumulator(call, compile_arg)
                        for call in node.agg_calls
                    ]
                    groups[()] = accumulators
                    order.append(())
                scale = (
                    1.0 / self.context.sample_rate
                    if self.context.sample_rate < 1.0
                    else 1.0
                )
                self._estimate_errors = {}
                out: list[Row] = []
                for key in order:
                    values = list(key)
                    for name, accumulator in zip(node.agg_names, groups[key]):
                        value, error = accumulator.result(scale)
                        values.append(value)
                        if error is not None:
                            self._estimate_errors[name] = max(
                                self._estimate_errors.get(name, 0.0), error
                            )
                    out.append(tuple(values))
                return out

            def _exec_distinct(self, node):
                child_rows = self._execute(node.child)
                seen: set[Row] = set()
                out: list[Row] = []
                for row in child_rows:
                    self.context.stats.rows_processed += 1
                    if row not in seen:
                        seen.add(row)
                        out.append(row)
                return out

        return LegacyExecutor(catalog, context)

    @pytest.mark.parametrize("sample_rate", [1.0, 0.25])
    def test_counters_match_legacy_per_row_accounting(self, sales_db, sample_rate):
        from dataclasses import asdict

        from repro.engine.executor import ExecContext, Executor

        for sql in self.CORPUS:
            plan = sales_db.plan_select(sql)
            current_context = ExecContext(sample_rate=sample_rate, sample_seed=11)
            legacy_context = ExecContext(sample_rate=sample_rate, sample_seed=11)
            current = Executor(sales_db.catalog, current_context).run(plan)
            legacy = self.legacy_executor(sales_db.catalog, legacy_context).run(plan)
            assert current.rows == legacy.rows, sql
            assert asdict(current_context.stats) == asdict(legacy_context.stats), sql


class TestCompiledExpressionMemo:
    """Repeated probes of the same plan must stop recompiling identical
    expression trees: compilation happens once per (plan-node strict
    fingerprint, slot) process-wide, except for subquery-bearing
    expressions, which capture executor state and always compile fresh."""

    def test_repeated_execution_compiles_nothing_new(self, sales_db):
        from repro.engine.executor import EXPR_MEMO_STATS, clear_expr_memo

        sql = (
            "SELECT s.city, SUM(x.amount) FROM stores s JOIN sales x"
            " ON s.id = x.store_id WHERE x.amount > 1.0 GROUP BY s.city"
            " ORDER BY s.city"
        )
        clear_expr_memo()
        first = sales_db.execute(sql)
        EXPR_MEMO_STATS.reset()
        second = sales_db.execute(sql)
        assert second.rows == first.rows
        assert EXPR_MEMO_STATS.compilations == 0
        assert EXPR_MEMO_STATS.hits > 0

    def test_equivalent_plans_share_compiled_expressions(self, sales_db):
        """Alias renaming does not change the strict fingerprint, so the
        re-aliased twin reuses every compiled expression."""
        from repro.engine.executor import EXPR_MEMO_STATS, clear_expr_memo

        clear_expr_memo()
        baseline = sales_db.execute(
            "SELECT a.city FROM stores a WHERE a.state = 'CA'"
        )
        EXPR_MEMO_STATS.reset()
        renamed = sales_db.execute(
            "SELECT b.city FROM stores b WHERE b.state = 'CA'"
        )
        assert renamed.rows == baseline.rows
        assert EXPR_MEMO_STATS.compilations == 0

    def test_subquery_expressions_compile_fresh_every_run(self, sales_db):
        from repro.engine.executor import EXPR_MEMO_STATS, clear_expr_memo

        sql = "SELECT city FROM stores WHERE id = (SELECT MIN(id) FROM stores)"
        clear_expr_memo()
        first = sales_db.execute(sql)
        EXPR_MEMO_STATS.reset()
        second = sales_db.execute(sql)
        assert second.rows == first.rows == [("Berkeley",)]
        # The subquery-bearing predicate recompiled; everything else hit.
        assert EXPR_MEMO_STATS.compilations >= 1
        assert EXPR_MEMO_STATS.hits >= 1

    def test_memo_is_bounded(self, sales_db):
        from repro.engine import executor as executor_module

        executor_module.clear_expr_memo()
        for i in range(30):
            sales_db.execute(f"SELECT city FROM stores WHERE opened > {i}")
        with executor_module._EXPR_MEMO_LOCK:
            assert len(executor_module._EXPR_MEMO) <= executor_module._EXPR_MEMO_MAX
