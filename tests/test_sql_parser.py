"""Tests for the SQL lexer and parser."""

from __future__ import annotations

import pytest

from repro.errors import ParseError, TokenizeError
from repro.sql import nodes
from repro.sql.lexer import TokenType, tokenize
from repro.sql.parser import (
    _Parser,
    parse_expression,
    parse_shaped,
    parse_statement,
    template_counters,
)


class TestLexer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("select FROM Where")
        assert [t.value for t in tokens[:-1]] == ["SELECT", "FROM", "WHERE"]
        assert all(t.type is TokenType.KEYWORD for t in tokens[:-1])

    def test_identifiers_preserve_case(self):
        (token, _) = tokenize("MyTable")
        assert token.type is TokenType.IDENTIFIER
        assert token.value == "MyTable"

    def test_quoted_identifier_defeats_keyword(self):
        (token, _) = tokenize('"select"')
        assert token.type is TokenType.IDENTIFIER
        assert token.value == "select"

    def test_string_escape(self):
        (token, _) = tokenize("'it''s'")
        assert token.value == "it's"

    def test_unterminated_string(self):
        with pytest.raises(TokenizeError):
            tokenize("'oops")

    def test_numbers(self):
        values = [t.value for t in tokenize("1 2.5 1e3 2.5E-2")[:-1]]
        assert values == ["1", "2.5", "1e3", "2.5E-2"]

    def test_comments_skipped(self):
        tokens = tokenize("SELECT -- a comment\n 1 /* block */ + 2")
        rendered = [t.value for t in tokens[:-1]]
        assert rendered == ["SELECT", "1", "+", "2"]

    def test_multi_char_operators(self):
        rendered = [t.value for t in tokenize("a <> b <= c || d")[:-1]]
        assert "<>" in rendered and "<=" in rendered and "||" in rendered

    def test_unexpected_character(self):
        with pytest.raises(TokenizeError):
            tokenize("SELECT @")

    @pytest.mark.parametrize(
        "sql",
        ["SELECT 1e", "SELECT 1e FROM t", "SELECT 1e+", "SELECT 2.5E- 1", "SELECT ²", "SELECT ٣"],
    )
    def test_malformed_numbers_are_tokenize_errors(self, sql):
        with pytest.raises(TokenizeError):
            tokenize(sql)
        with pytest.raises(TokenizeError):
            parse_statement(sql)

    def test_numbers_are_ascii_digits(self):
        values = [t.value for t in tokenize(".5 5. 1.e3 7x")[:-1]]
        assert values == [".5", "5.", "1.e3", "7", "x"]

    def test_token_positions_are_token_starts(self):
        sql = "SELECT a FROM t WHERE b = 'xyz' AND c > 12.5"
        positions = {t.value: t.position for t in tokenize(sql)}
        assert positions["xyz"] == sql.index("'xyz'") == 26
        assert positions["12.5"] == sql.index("12.5") == 40
        assert positions["AND"] == 32
        assert positions[""] == len(sql)  # EOF

    def test_parse_error_quotes_the_literal_span(self):
        """The error context is centred on the offending token's start."""
        with pytest.raises(ParseError) as info:
            parse_statement("SELECT a FROM t LIMIT '" + "x" * 30 + "' OFFSET 1")
        assert "LIMIT 'xxx" in str(info.value).split("(...")[1]


class TestExpressionParsing:
    def test_precedence_arithmetic(self):
        expr = parse_expression("1 + 2 * 3")
        assert isinstance(expr, nodes.Binary) and expr.op == "+"
        assert isinstance(expr.right, nodes.Binary) and expr.right.op == "*"

    def test_precedence_and_or(self):
        expr = parse_expression("a OR b AND c")
        assert isinstance(expr, nodes.Binary) and expr.op == "OR"

    def test_not_binds_tighter_than_and(self):
        expr = parse_expression("NOT a AND b")
        assert isinstance(expr, nodes.Binary) and expr.op == "AND"
        assert isinstance(expr.left, nodes.Unary) and expr.left.op == "NOT"

    def test_unary_minus_folds_literal(self):
        expr = parse_expression("-5")
        assert expr == nodes.Literal(-5)

    def test_between(self):
        expr = parse_expression("x BETWEEN 1 AND 10")
        assert isinstance(expr, nodes.Between)

    def test_not_between(self):
        expr = parse_expression("x NOT BETWEEN 1 AND 10")
        assert isinstance(expr, nodes.Between) and expr.negated

    def test_in_list(self):
        expr = parse_expression("state IN ('CA', 'WA')")
        assert isinstance(expr, nodes.InList)
        assert len(expr.items) == 2

    def test_in_subquery(self):
        expr = parse_expression("id IN (SELECT id FROM t)")
        assert isinstance(expr, nodes.InSubquery)

    def test_is_null_and_is_not_null(self):
        assert isinstance(parse_expression("x IS NULL"), nodes.IsNull)
        expr = parse_expression("x IS NOT NULL")
        assert isinstance(expr, nodes.IsNull) and expr.negated

    def test_like_and_not_like(self):
        expr = parse_expression("name NOT LIKE 'a%'")
        assert isinstance(expr, nodes.Binary) and expr.op == "NOT LIKE"

    def test_case_expression(self):
        expr = parse_expression("CASE WHEN x > 0 THEN 'pos' ELSE 'neg' END")
        assert isinstance(expr, nodes.Case)
        assert expr.else_result == nodes.Literal("neg")

    def test_cast(self):
        expr = parse_expression("CAST(x AS INT)")
        assert isinstance(expr, nodes.Cast) and expr.type_name == "INT"

    def test_function_call_distinct(self):
        expr = parse_expression("COUNT(DISTINCT city)")
        assert isinstance(expr, nodes.FuncCall) and expr.distinct

    def test_count_star(self):
        expr = parse_expression("COUNT(*)")
        assert isinstance(expr, nodes.FuncCall)
        assert isinstance(expr.args[0], nodes.Star)

    def test_qualified_column(self):
        expr = parse_expression("t.col")
        assert expr == nodes.ColumnRef(column="col", table="t")

    def test_exists(self):
        expr = parse_expression("EXISTS (SELECT 1 FROM t)")
        assert isinstance(expr, nodes.Exists)

    def test_string_concat_literal(self):
        expr = parse_expression("'a' || 'b'")
        assert isinstance(expr, nodes.Binary) and expr.op == "||"

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("1 + 2 garbage ,")

    def test_sql_roundtrip(self):
        text = "((a.x = 3) AND (b.y LIKE 'z%'))"
        assert parse_expression(text).sql() == text


class TestSelectParsing:
    def test_minimal(self):
        statement = parse_statement("SELECT 1")
        assert isinstance(statement, nodes.Select)
        assert statement.from_clause is None

    def test_star(self):
        statement = parse_statement("SELECT * FROM t")
        assert isinstance(statement.items[0].expr, nodes.Star)

    def test_table_star(self):
        statement = parse_statement("SELECT t.* FROM t")
        star = statement.items[0].expr
        assert isinstance(star, nodes.Star) and star.table == "t"

    def test_aliases(self):
        statement = parse_statement("SELECT a AS x, b y FROM t AS u")
        assert statement.items[0].alias == "x"
        assert statement.items[1].alias == "y"
        assert statement.from_clause.alias == "u"

    def test_join_kinds(self):
        statement = parse_statement(
            "SELECT * FROM a JOIN b ON a.id = b.id LEFT JOIN c ON b.id = c.id"
        )
        outer = statement.from_clause
        assert isinstance(outer, nodes.Join) and outer.kind == "LEFT"
        assert isinstance(outer.left, nodes.Join) and outer.left.kind == "INNER"

    def test_cross_join(self):
        statement = parse_statement("SELECT * FROM a CROSS JOIN b")
        assert statement.from_clause.kind == "CROSS"
        assert statement.from_clause.condition is None

    def test_subquery_in_from(self):
        statement = parse_statement("SELECT x FROM (SELECT a AS x FROM t) AS sub")
        assert isinstance(statement.from_clause, nodes.SubqueryRef)

    def test_group_by_having(self):
        statement = parse_statement(
            "SELECT state, COUNT(*) FROM t GROUP BY state HAVING COUNT(*) > 2"
        )
        assert len(statement.group_by) == 1
        assert statement.having is not None

    def test_order_limit_offset(self):
        statement = parse_statement("SELECT a FROM t ORDER BY a DESC LIMIT 5 OFFSET 2")
        assert not statement.order_by[0].ascending
        assert statement.limit == 5
        assert statement.offset == 2

    def test_distinct(self):
        assert parse_statement("SELECT DISTINCT a FROM t").distinct

    def test_qualified_table_name(self):
        statement = parse_statement("SELECT * FROM information_schema.tables")
        assert statement.from_clause.name == "information_schema.tables"

    def test_semicolon_tolerated(self):
        parse_statement("SELECT 1;")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_statement("SELECT 1 SELECT 2")

    def test_missing_from_table_rejected(self):
        with pytest.raises(ParseError):
            parse_statement("SELECT a FROM WHERE x = 1")

    def test_error_mentions_context(self):
        with pytest.raises(ParseError) as excinfo:
            parse_statement("SELECT a FROM t WHERE")
        assert "expected an expression" in str(excinfo.value)


class TestOtherStatements:
    def test_create_table(self):
        statement = parse_statement(
            "CREATE TABLE t (id INT PRIMARY KEY, name TEXT NOT NULL, score FLOAT)"
        )
        assert isinstance(statement, nodes.CreateTable)
        assert statement.columns[0].primary_key
        assert statement.columns[1].not_null
        assert not statement.columns[2].not_null

    def test_create_if_not_exists(self):
        statement = parse_statement("CREATE TABLE IF NOT EXISTS t (id INT)")
        assert statement.if_not_exists

    def test_insert_values(self):
        statement = parse_statement("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
        assert isinstance(statement, nodes.Insert)
        assert len(statement.rows) == 2

    def test_insert_with_columns(self):
        statement = parse_statement("INSERT INTO t (id, name) VALUES (1, 'a')")
        assert statement.columns == ("id", "name")

    def test_insert_select(self):
        statement = parse_statement("INSERT INTO t SELECT * FROM s")
        assert statement.select is not None

    def test_update(self):
        statement = parse_statement("UPDATE t SET a = 1, b = b + 1 WHERE id = 3")
        assert isinstance(statement, nodes.Update)
        assert len(statement.assignments) == 2

    def test_delete(self):
        statement = parse_statement("DELETE FROM t WHERE x < 0")
        assert isinstance(statement, nodes.Delete)

    def test_drop_table(self):
        statement = parse_statement("DROP TABLE IF EXISTS t")
        assert isinstance(statement, nodes.DropTable) and statement.if_exists

    def test_select_sql_roundtrip_reparses(self):
        text = (
            "SELECT s.state, COUNT(*) AS n FROM stores AS s "
            "JOIN sales ON s.id = sales.store_id "
            "WHERE s.state <> 'TX' GROUP BY s.state "
            "ORDER BY n DESC LIMIT 3"
        )
        statement = parse_statement(text)
        assert parse_statement(statement.sql()) == statement


def _fresh_parse(sql: str):
    return _Parser(tokenize(sql), sql).parse_statement()


def _assert_same_ast(bound, fresh):
    assert bound == fresh
    assert repr(bound) == repr(fresh)
    if hasattr(fresh, "sql"):
        assert bound.sql() == fresh.sql()


class TestStatementTemplates:
    """``parse_statement`` binds a cached template for a known token shape;
    every bound AST must be indistinguishable from a full parse."""

    #: Pairs of texts with one token shape and different literals.
    SAME_SHAPE = [
        ("SELECT 1, 'x', a + 2 FROM t", "SELECT 3, 'y', a + 4 FROM t"),
        (
            "SELECT a FROM t WHERE b = 'p' AND c > 1.5 OR d <> 3",
            "SELECT a FROM t WHERE b = 'q' AND c > 2.25 OR d <> 4",
        ),
        (
            "SELECT a FROM t WHERE b IN (1, 2, 3) AND c NOT IN ('u', 'v')",
            "SELECT a FROM t WHERE b IN (7, 8, 9) AND c NOT IN ('w', 'z')",
        ),
        (
            "SELECT a FROM t WHERE b BETWEEN 1 AND 10 AND c NOT BETWEEN 0.5 AND 0.75",
            "SELECT a FROM t WHERE b BETWEEN 2 AND 20 AND c NOT BETWEEN 1.5 AND 1.75",
        ),
        (
            "SELECT CASE WHEN a > 1 THEN 'hi' WHEN a > 0 THEN 'mid' ELSE 'lo' END FROM t",
            "SELECT CASE WHEN a > 9 THEN 'HI' WHEN a > 8 THEN 'MID' ELSE 'LO' END FROM t",
        ),
        (
            "SELECT g, COUNT(*) FROM t WHERE x LIKE 'a%' GROUP BY g HAVING COUNT(*) > 2",
            "SELECT g, COUNT(*) FROM t WHERE x LIKE 'b%' GROUP BY g HAVING COUNT(*) > 5",
        ),
        (
            "SELECT s.a FROM (SELECT a FROM t WHERE b = 1) s JOIN u ON s.a = u.a "
            "WHERE u.c = 'k'",
            "SELECT s.a FROM (SELECT a FROM t WHERE b = 2) s JOIN u ON s.a = u.a "
            "WHERE u.c = 'm'",
        ),
        (
            "SELECT a FROM t WHERE b = 1 ORDER BY a DESC LIMIT 5 OFFSET 2",
            "SELECT a FROM t WHERE b = 2 ORDER BY a DESC LIMIT 5 OFFSET 2",
        ),
        (
            "INSERT INTO t VALUES (1, 'a', 2.5), (2, 'b', 3.5)",
            "INSERT INTO t VALUES (3, 'c', 4.5), (4, 'd', 5.5)",
        ),
        (
            "UPDATE t SET a = 1, b = 'x' WHERE c = 2",
            "UPDATE t SET a = 3, b = 'y' WHERE c = 4",
        ),
        ("DELETE FROM t WHERE a < 10", "DELETE FROM t WHERE a < 20"),
        ("SELECT 'it''s' FROM t", "SELECT 'a''b''c' FROM t"),
        ("SELECT 1e3, 2.5E-2 FROM t", "SELECT 4e-1, 7.5E+2 FROM t"),
        ("SELECT - 'x' FROM t", "SELECT - 'y' FROM t"),
    ]

    @pytest.mark.parametrize("first,second", SAME_SHAPE)
    def test_bound_ast_equals_fresh_parse(self, first, second):
        hits_before, _, _ = template_counters()
        for sql in (first, second, first):
            _assert_same_ast(parse_statement(sql), _fresh_parse(sql))
        hits, _, _ = template_counters()
        assert hits - hits_before >= 2  # the second and third texts bind

    def test_select_shapes_render_with_placeholders(self):
        """Every text of a SELECT shape renders the same ``?`` text, however
        it is spelled; DML and unliftable shapes render none."""
        texts = (
            "SELECT a FROM t WHERE b = 'p' AND c IN (1, 2) LIMIT 3",
            "select a from t where b='q' and c in (7,8) limit 3",
        )
        for sql in texts:
            shaped = parse_shaped(sql)
            assert shaped.text == (
                "SELECT a FROM t WHERE ((b = ?) AND (c IN (?, ?))) LIMIT 3"
            )
        assert parse_shaped("DELETE FROM t WHERE a < 10").text is None
        assert parse_shaped("SELECT a FROM t WHERE b > -1").text is None

    def test_bound_values_land_in_their_own_slots(self):
        template = "SELECT a FROM t WHERE b = {0} AND c = {1} AND d IN ({2}, {3})"
        parse_statement(template.format(1, 2, 3, 4))
        for values in [(5, 6, 7, 8), (8, 7, 6, 5)]:
            sql = template.format(*values)
            _assert_same_ast(parse_statement(sql), _fresh_parse(sql))

    def test_int_and_float_literals_are_different_shapes(self):
        for sql in ("SELECT a FROM t WHERE b = 5", "SELECT a FROM t WHERE b = 5.0"):
            bound = parse_statement(sql)
            _assert_same_ast(bound, _fresh_parse(sql))
        assert repr(parse_statement("SELECT a FROM t WHERE b = 6.0")).count("6.0") == 1
        assert "6.0" not in repr(parse_statement("SELECT a FROM t WHERE b = 6"))

    def test_limit_and_offset_numbers_stay_structural(self):
        for sql in (
            "SELECT a FROM t LIMIT 3",
            "SELECT a FROM t LIMIT 4",
            "SELECT a FROM t LIMIT 4 OFFSET 1",
            "SELECT a FROM t LIMIT 4 OFFSET 9",
        ):
            _assert_same_ast(parse_statement(sql), _fresh_parse(sql))

    def test_folded_negative_literal_is_unliftable(self):
        sql = "SELECT a FROM t WHERE b > -{0} AND c = {1}"
        _, _, unliftable_before = template_counters()
        for values in [(5, 1), (7, 2), (9, 3)]:
            text = sql.format(*values)
            _assert_same_ast(parse_statement(text), _fresh_parse(text))
        _, _, unliftable = template_counters()
        assert unliftable - unliftable_before >= 2

    def test_bound_ast_shares_untouched_subtrees(self):
        first = parse_statement("SELECT a, b + d FROM t WHERE c = 'x' GROUP BY a")
        second = parse_statement("SELECT a, b + d FROM t WHERE c = 'y' GROUP BY a")
        assert second.where != first.where
        assert second.items is first.items
        assert second.group_by is first.group_by

    def test_errors_of_a_known_shape_still_raise(self):
        parse_statement("SELECT a FROM t WHERE b = 1")
        with pytest.raises(ParseError):
            parse_statement("SELECT a FROM t WHERE b = " + "9" * 5000)
        with pytest.raises(ParseError):
            parse_statement("SELECT a FROM t LIMIT 1.5")
