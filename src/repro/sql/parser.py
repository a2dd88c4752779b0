"""Recursive-descent parser for the supported SQL subset.

Grammar highlights::

    statement   := select | insert | update | delete | create_table | drop_table
    select      := SELECT [DISTINCT] items [FROM table_ref] [WHERE expr]
                   [GROUP BY exprs] [HAVING expr] [ORDER BY order_items]
                   [LIMIT n [OFFSET m]]
    table_ref   := primary_ref (join_clause)*
    primary_ref := name [AS alias] | '(' select ')' AS alias
    join_clause := [INNER|LEFT [OUTER]|CROSS] JOIN primary_ref [ON expr]

Expression precedence, loosest first:
OR, AND, NOT, comparison/IN/LIKE/BETWEEN/IS, additive (+ - ||),
multiplicative (* / %), unary minus, primary.

Statement templates
-------------------

A swarm's "unique" statements are a handful of shapes with different
constants, so :func:`parse_statement` parses each *shape* once. The key is
the token stream with every NUMBER and STRING token replaced by its class
(``int``, ``float`` — a mantissa with ``.`` or an exponent — or ``str``):
those tokens are *lifted*. A NUMBER right after ``LIMIT`` or ``OFFSET``
stays in the key by value, because the parser reads it as structure.

The first text of a shape is parsed in full; its AST becomes the template,
with the :class:`~repro.sql.nodes.Literal` node built from each lifted
token recorded by its path from the root. A later text of the same shape
is bound: each recorded literal is replaced by the new value, and only its
ancestors are rebuilt — every other subtree is shared with the template,
which is safe because AST nodes are immutable. A shape in which some
lifted token does not come back as exactly one ``Literal`` (``-5``, which
the parser folds into a new node) is *unliftable* and is parsed in full
every time. Parsing reads no catalog, so the templates carry a constant
stamp: they survive writes, and one process-wide cache serves every
database, every shard and the shard router. :func:`template_counters`
reports its hits, misses and unliftable full parses.

A SELECT template also renders its shape once, as canonical SQL with
``?`` for each lifted literal (``... WHERE (amount < ?)``): the name the
agentic memory store keys a statement's remembered results by.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple

from repro.errors import ParseError
from repro.sql import nodes
from repro.sql.lexer import Token, TokenType, tokenize
from repro.util.cache import TemplateCache

_COMPARISON_OPS = ("=", "<>", "!=", "<", "<=", ">", ">=")


class _Parser:
    def __init__(self, tokens: list[Token], sql: str) -> None:
        self._tokens = tokens
        self._sql = sql
        self._index = 0
        #: The literal built from each NUMBER/STRING token, by token index.
        self.literals: dict[int, nodes.Literal] = {}

    # -- token plumbing -----------------------------------------------------

    def _peek(self, ahead: int = 0) -> Token:
        return self._tokens[min(self._index + ahead, len(self._tokens) - 1)]

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        if token.type is not TokenType.EOF:
            self._index += 1
        return token

    def _error(self, message: str) -> ParseError:
        token = self._peek()
        context = self._sql[max(token.position - 20, 0) : token.position + 20]
        return ParseError(f"{message} near {token.value!r} (...{context}...)")

    def _expect_keyword(self, keyword: str) -> Token:
        token = self._peek()
        if not token.is_keyword(keyword):
            raise self._error(f"expected {keyword}")
        return self._advance()

    def _accept_keyword(self, *keywords: str) -> Token | None:
        if self._peek().is_keyword(*keywords):
            return self._advance()
        return None

    def _expect_punct(self, punct: str) -> Token:
        token = self._peek()
        if token.type is not TokenType.PUNCT or token.value != punct:
            raise self._error(f"expected {punct!r}")
        return self._advance()

    def _accept_punct(self, punct: str) -> bool:
        token = self._peek()
        if token.type is TokenType.PUNCT and token.value == punct:
            self._advance()
            return True
        return False

    def _accept_operator(self, *ops: str) -> Token | None:
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.value in ops:
            return self._advance()
        return None

    def _expect_identifier(self, what: str = "identifier") -> str:
        token = self._peek()
        if token.type is TokenType.IDENTIFIER:
            return self._advance().value
        # Allow non-reserved-ish keywords as identifiers in a pinch (e.g. a
        # column named "key"); keep this list short and explicit.
        if token.is_keyword("KEY", "ALL"):
            return self._advance().value.lower()
        raise self._error(f"expected {what}")

    # -- statements ------------------------------------------------------------

    def parse_statement(self) -> nodes.AnyStatement:
        token = self._peek()
        if token.is_keyword("SELECT"):
            statement: nodes.AnyStatement = self._parse_select()
        elif token.is_keyword("INSERT"):
            statement = self._parse_insert()
        elif token.is_keyword("UPDATE"):
            statement = self._parse_update()
        elif token.is_keyword("DELETE"):
            statement = self._parse_delete()
        elif token.is_keyword("CREATE"):
            statement = self._parse_create_table()
        elif token.is_keyword("DROP"):
            statement = self._parse_drop_table()
        else:
            raise self._error("expected a statement")
        self._accept_punct(";")
        if self._peek().type is not TokenType.EOF:
            raise self._error("unexpected trailing input")
        return statement

    def _parse_select(self) -> nodes.Select:
        self._expect_keyword("SELECT")
        distinct = self._accept_keyword("DISTINCT") is not None
        if not distinct:
            self._accept_keyword("ALL")
        items = [self._parse_select_item()]
        while self._accept_punct(","):
            items.append(self._parse_select_item())

        from_clause: nodes.TableRef | None = None
        if self._accept_keyword("FROM"):
            from_clause = self._parse_table_ref()

        where = self._parse_expr() if self._accept_keyword("WHERE") else None

        group_by: list[nodes.Expr] = []
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by.append(self._parse_expr())
            while self._accept_punct(","):
                group_by.append(self._parse_expr())

        having = self._parse_expr() if self._accept_keyword("HAVING") else None

        order_by: list[nodes.OrderItem] = []
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by.append(self._parse_order_item())
            while self._accept_punct(","):
                order_by.append(self._parse_order_item())

        limit = offset = None
        if self._accept_keyword("LIMIT"):
            limit = self._parse_int_literal("LIMIT")
            if self._accept_keyword("OFFSET"):
                offset = self._parse_int_literal("OFFSET")

        return nodes.Select(
            items=tuple(items),
            from_clause=from_clause,
            where=where,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def _parse_int_literal(self, clause: str) -> int:
        token = self._peek()
        if token.type is not TokenType.NUMBER:
            raise self._error(f"expected integer after {clause}")
        self._advance()
        try:
            return int(token.value)
        except ValueError as exc:
            raise self._error(f"{clause} requires an integer") from exc

    def _parse_select_item(self) -> nodes.SelectItem:
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.value == "*":
            self._advance()
            return nodes.SelectItem(nodes.Star())
        # table.* form
        if (
            token.type is TokenType.IDENTIFIER
            and self._peek(1).type is TokenType.PUNCT
            and self._peek(1).value == "."
            and self._peek(2).type is TokenType.OPERATOR
            and self._peek(2).value == "*"
        ):
            table = self._advance().value
            self._advance()  # '.'
            self._advance()  # '*'
            return nodes.SelectItem(nodes.Star(table=table))
        expr = self._parse_expr()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_identifier("alias")
        elif self._peek().type is TokenType.IDENTIFIER:
            alias = self._advance().value
        return nodes.SelectItem(expr, alias)

    def _parse_order_item(self) -> nodes.OrderItem:
        expr = self._parse_expr()
        ascending = True
        if self._accept_keyword("DESC"):
            ascending = False
        else:
            self._accept_keyword("ASC")
        return nodes.OrderItem(expr, ascending)

    # -- FROM clause ----------------------------------------------------------

    def _parse_table_ref(self) -> nodes.TableRef:
        ref = self._parse_primary_ref()
        while True:
            kind = None
            if self._accept_keyword("CROSS"):
                self._expect_keyword("JOIN")
                kind = "CROSS"
            elif self._accept_keyword("INNER"):
                self._expect_keyword("JOIN")
                kind = "INNER"
            elif self._accept_keyword("LEFT"):
                self._accept_keyword("OUTER")
                self._expect_keyword("JOIN")
                kind = "LEFT"
            elif self._accept_keyword("JOIN"):
                kind = "INNER"
            else:
                break
            right = self._parse_primary_ref()
            condition = None
            if kind != "CROSS":
                self._expect_keyword("ON")
                condition = self._parse_expr()
            ref = nodes.Join(ref, right, kind, condition)
        return ref

    def _parse_primary_ref(self) -> nodes.TableRef:
        if self._accept_punct("("):
            select = self._parse_select()
            self._expect_punct(")")
            self._accept_keyword("AS")
            alias = self._expect_identifier("subquery alias")
            return nodes.SubqueryRef(select, alias)
        name = self._expect_identifier("table name")
        # Qualified table names (schema.table), e.g. information_schema.tables.
        if self._peek().type is TokenType.PUNCT and self._peek().value == ".":
            self._advance()
            name = f"{name}.{self._expect_identifier('table name')}"
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_identifier("alias")
        elif self._peek().type is TokenType.IDENTIFIER:
            alias = self._advance().value
        return nodes.TableName(name, alias)

    # -- other statements --------------------------------------------------------

    def _parse_insert(self) -> nodes.Insert:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._expect_identifier("table name")
        columns: tuple[str, ...] | None = None
        if self._accept_punct("("):
            names = [self._expect_identifier("column name")]
            while self._accept_punct(","):
                names.append(self._expect_identifier("column name"))
            self._expect_punct(")")
            columns = tuple(names)
        if self._peek().is_keyword("SELECT"):
            return nodes.Insert(table, columns, select=self._parse_select())
        self._expect_keyword("VALUES")
        rows: list[tuple[nodes.Expr, ...]] = []
        while True:
            self._expect_punct("(")
            values = [self._parse_expr()]
            while self._accept_punct(","):
                values.append(self._parse_expr())
            self._expect_punct(")")
            rows.append(tuple(values))
            if not self._accept_punct(","):
                break
        return nodes.Insert(table, columns, rows=tuple(rows))

    def _parse_update(self) -> nodes.Update:
        self._expect_keyword("UPDATE")
        table = self._expect_identifier("table name")
        self._expect_keyword("SET")
        assignments = [self._parse_assignment()]
        while self._accept_punct(","):
            assignments.append(self._parse_assignment())
        where = self._parse_expr() if self._accept_keyword("WHERE") else None
        return nodes.Update(table, tuple(assignments), where)

    def _parse_assignment(self) -> tuple[str, nodes.Expr]:
        column = self._expect_identifier("column name")
        if self._accept_operator("=") is None:
            raise self._error("expected = in assignment")
        return column, self._parse_expr()

    def _parse_delete(self) -> nodes.Delete:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table = self._expect_identifier("table name")
        where = self._parse_expr() if self._accept_keyword("WHERE") else None
        return nodes.Delete(table, where)

    def _parse_create_table(self) -> nodes.CreateTable:
        self._expect_keyword("CREATE")
        self._expect_keyword("TABLE")
        if_not_exists = False
        if self._accept_keyword("IF"):
            self._expect_keyword("NOT")
            self._expect_keyword("EXISTS")
            if_not_exists = True
        name = self._expect_identifier("table name")
        self._expect_punct("(")
        columns = [self._parse_column_def()]
        while self._accept_punct(","):
            columns.append(self._parse_column_def())
        self._expect_punct(")")
        return nodes.CreateTable(name, tuple(columns), if_not_exists)

    def _parse_column_def(self) -> nodes.ColumnDef:
        name = self._expect_identifier("column name")
        type_name = self._expect_identifier("type name")
        not_null = False
        primary_key = False
        while True:
            if self._accept_keyword("NOT"):
                self._expect_keyword("NULL")
                not_null = True
            elif self._accept_keyword("PRIMARY"):
                self._expect_keyword("KEY")
                primary_key = True
                not_null = True
            else:
                break
        return nodes.ColumnDef(name, type_name, not_null, primary_key)

    def _parse_drop_table(self) -> nodes.DropTable:
        self._expect_keyword("DROP")
        self._expect_keyword("TABLE")
        if_exists = False
        if self._accept_keyword("IF"):
            self._expect_keyword("EXISTS")
            if_exists = True
        name = self._expect_identifier("table name")
        return nodes.DropTable(name, if_exists)

    # -- expressions -----------------------------------------------------------

    def _parse_expr(self) -> nodes.Expr:
        return self._parse_or()

    def _parse_or(self) -> nodes.Expr:
        expr = self._parse_and()
        while self._accept_keyword("OR"):
            expr = nodes.Binary("OR", expr, self._parse_and())
        return expr

    def _parse_and(self) -> nodes.Expr:
        expr = self._parse_not()
        while self._accept_keyword("AND"):
            expr = nodes.Binary("AND", expr, self._parse_not())
        return expr

    def _parse_not(self) -> nodes.Expr:
        if self._accept_keyword("NOT"):
            return nodes.Unary("NOT", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> nodes.Expr:
        expr = self._parse_additive()
        while True:
            op_token = self._accept_operator(*_COMPARISON_OPS)
            if op_token is not None:
                op = "<>" if op_token.value == "!=" else op_token.value
                expr = nodes.Binary(op, expr, self._parse_additive())
                continue
            if self._accept_keyword("IS"):
                negated = self._accept_keyword("NOT") is not None
                self._expect_keyword("NULL")
                expr = nodes.IsNull(expr, negated)
                continue
            negated = False
            if self._peek().is_keyword("NOT") and self._peek(1).is_keyword(
                "IN", "LIKE", "BETWEEN"
            ):
                self._advance()
                negated = True
            if self._accept_keyword("LIKE"):
                expr = nodes.Binary(
                    "NOT LIKE" if negated else "LIKE", expr, self._parse_additive()
                )
                continue
            if self._accept_keyword("BETWEEN"):
                low = self._parse_additive()
                self._expect_keyword("AND")
                high = self._parse_additive()
                expr = nodes.Between(expr, low, high, negated)
                continue
            if self._accept_keyword("IN"):
                expr = self._parse_in_tail(expr, negated)
                continue
            if negated:
                raise self._error("dangling NOT")
            break
        return expr

    def _parse_in_tail(self, operand: nodes.Expr, negated: bool) -> nodes.Expr:
        self._expect_punct("(")
        if self._peek().is_keyword("SELECT"):
            subquery = self._parse_select()
            self._expect_punct(")")
            return nodes.InSubquery(operand, subquery, negated)
        items = [self._parse_expr()]
        while self._accept_punct(","):
            items.append(self._parse_expr())
        self._expect_punct(")")
        return nodes.InList(operand, tuple(items), negated)

    def _parse_additive(self) -> nodes.Expr:
        expr = self._parse_multiplicative()
        while True:
            op_token = self._accept_operator("+", "-", "||")
            if op_token is None:
                break
            expr = nodes.Binary(op_token.value, expr, self._parse_multiplicative())
        return expr

    def _parse_multiplicative(self) -> nodes.Expr:
        expr = self._parse_unary()
        while True:
            op_token = self._accept_operator("*", "/", "%")
            if op_token is None:
                break
            expr = nodes.Binary(op_token.value, expr, self._parse_unary())
        return expr

    def _parse_unary(self) -> nodes.Expr:
        if self._accept_operator("-") is not None:
            operand = self._parse_unary()
            if isinstance(operand, nodes.Literal) and isinstance(
                operand.value, (int, float)
            ):
                return nodes.Literal(-operand.value)
            return nodes.Unary("-", operand)
        if self._accept_operator("+") is not None:
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> nodes.Expr:
        token = self._peek()
        if token.type is TokenType.NUMBER or token.type is TokenType.STRING:
            try:
                literal = nodes.Literal(_literal_value(token))
            except ValueError as exc:
                raise self._error("numeric literal out of range") from exc
            self.literals[self._index] = literal
            self._advance()
            return literal
        if token.is_keyword("NULL"):
            self._advance()
            return nodes.Literal(None)
        if token.is_keyword("TRUE"):
            self._advance()
            return nodes.Literal(True)
        if token.is_keyword("FALSE"):
            self._advance()
            return nodes.Literal(False)
        if token.is_keyword("CASE"):
            return self._parse_case()
        if token.is_keyword("CAST"):
            return self._parse_cast()
        if token.is_keyword("EXISTS"):
            self._advance()
            self._expect_punct("(")
            subquery = self._parse_select()
            self._expect_punct(")")
            return nodes.Exists(subquery)
        if token.type is TokenType.PUNCT and token.value == "(":
            self._advance()
            if self._peek().is_keyword("SELECT"):
                subquery = self._parse_select()
                self._expect_punct(")")
                return nodes.ScalarSubquery(subquery)
            expr = self._parse_expr()
            self._expect_punct(")")
            return expr
        if token.type is TokenType.IDENTIFIER:
            return self._parse_identifier_expr()
        raise self._error("expected an expression")

    def _parse_identifier_expr(self) -> nodes.Expr:
        name = self._advance().value
        # Function call?
        if self._peek().type is TokenType.PUNCT and self._peek().value == "(":
            self._advance()
            distinct = self._accept_keyword("DISTINCT") is not None
            args: list[nodes.Expr] = []
            if self._peek().type is TokenType.OPERATOR and self._peek().value == "*":
                self._advance()
                args.append(nodes.Star())
            elif not (self._peek().type is TokenType.PUNCT and self._peek().value == ")"):
                args.append(self._parse_expr())
                while self._accept_punct(","):
                    args.append(self._parse_expr())
            self._expect_punct(")")
            return nodes.FuncCall(name.upper(), tuple(args), distinct)
        # Qualified column?
        if self._accept_punct("."):
            column = self._expect_identifier("column name")
            return nodes.ColumnRef(column=column, table=name)
        return nodes.ColumnRef(column=name)

    def _parse_case(self) -> nodes.Expr:
        self._expect_keyword("CASE")
        whens: list[tuple[nodes.Expr, nodes.Expr]] = []
        while self._accept_keyword("WHEN"):
            condition = self._parse_expr()
            self._expect_keyword("THEN")
            result = self._parse_expr()
            whens.append((condition, result))
        if not whens:
            raise self._error("CASE requires at least one WHEN")
        else_result = self._parse_expr() if self._accept_keyword("ELSE") else None
        self._expect_keyword("END")
        return nodes.Case(tuple(whens), else_result)

    def _parse_cast(self) -> nodes.Expr:
        self._expect_keyword("CAST")
        self._expect_punct("(")
        operand = self._parse_expr()
        self._expect_keyword("AS")
        type_name = self._expect_identifier("type name")
        self._expect_punct(")")
        return nodes.Cast(operand, type_name.upper())


def parse_statement(sql: str) -> nodes.AnyStatement:
    """Parse one SQL statement (optionally ``;``-terminated).

    Binds the statement's template when its token shape was parsed before
    (see the module docstring); the result equals a full parse.
    """
    return parse_shaped(sql).statement


class Shaped(NamedTuple):
    """A parsed statement with what a shape-keyed cache above the parser
    needs: the token-shape key, the lifted values in token order, the
    ``Literal`` node each lifted value became in ``statement``, and (for a
    SELECT) the shape rendered with ``?`` placeholders, shared by every
    text of the shape. ``values``, ``literals`` and ``text`` are ``None``
    when the shape is unliftable."""

    statement: nodes.AnyStatement
    key: tuple
    values: list | None
    literals: list | None
    text: str | None = None


def parse_shaped(sql: str) -> Shaped:
    """:func:`parse_statement`, returning the statement's shape beside it."""
    tokens = tokenize(sql)
    key, lifted = _shape(tokens)
    template = _TEMPLATES.get(key, ())
    if template is None:
        parser = _Parser(tokens, sql)
        statement = parser.parse_statement()
        template = _Template.record(statement, lifted, parser.literals)
        _TEMPLATES.put(key, (), template)
        if template.slots is None:
            return Shaped(statement, key, None, None)
        return Shaped(
            statement,
            key,
            [literal.value for literal in template.literals],
            template.literals,
            template.text,
        )
    if template.slots is None:
        _TEMPLATES.note_unliftable()
        return Shaped(_Parser(tokens, sql).parse_statement(), key, None, None)
    try:
        values = [_literal_value(tokens[index]) for index in lifted]
    except ValueError:
        # An integer too long to convert: the full parse names the error.
        return Shaped(_Parser(tokens, sql).parse_statement(), key, None, None)
    literals: list = [None] * len(values)

    def leaf(slot: int) -> nodes.Literal:
        literal = literals[slot] = nodes.Literal(values[slot])
        return literal

    statement = rebuild(template.statement, template.slots, leaf)
    return Shaped(statement, key, values, literals, template.text)


def token_shape(sql: str) -> tuple[tuple, list | None]:
    """The template key of ``sql`` and its lifted values in token order,
    without parsing (``None`` values for an integer too long to convert).
    Raises what :func:`~repro.sql.lexer.tokenize` raises."""
    tokens = tokenize(sql)
    key, lifted = _shape(tokens)
    try:
        return key, [_literal_value(tokens[index]) for index in lifted]
    except ValueError:
        return key, None


def literal_slots(node, literals: list) -> dict:
    """A trie of the paths from ``node`` to each of ``literals`` (by
    identity; one may sit at several paths or at none), for
    :func:`rebuild`. Leaves are positions in ``literals``."""
    found: list[tuple[int, tuple]] = []
    _find_literals(
        node, {id(literal): slot for slot, literal in enumerate(literals)}, (), found
    )
    slots: dict = {}
    for slot, path in found:
        trie = slots
        for step in path[:-1]:
            trie = trie.setdefault(step, {})
        trie[path[-1]] = slot
    return slots


def slot_leaves(slots: dict) -> list[int]:
    """Every leaf of a :func:`literal_slots` trie: a slot once per path."""
    leaves: list[int] = []
    for sub in slots.values():
        if type(sub) is int:
            leaves.append(sub)
        else:
            leaves.extend(slot_leaves(sub))
    return leaves


def template_counters() -> tuple[int, int, int]:
    """A consistent (hits, misses, unliftable) snapshot of the process-wide
    template cache: statements bound from a template, statements parsed
    in full because their shape was not cached, and statements parsed in
    full because their cached shape is unliftable."""
    return _TEMPLATES.template_counters()


def _literal_value(token: Token) -> int | float | str:
    """The value of a NUMBER or STRING token (``ValueError`` only for an
    integer with more digits than ``int`` converts)."""
    if token.type is TokenType.STRING:
        return token.value
    return _number_class(token.value)(token.value)


def _number_class(text: str) -> type:
    """``float`` for a mantissa with ``.`` or an exponent, else ``int``."""
    return float if "." in text or "e" in text or "E" in text else int


def _shape(tokens: list[Token]) -> tuple[tuple, list[int]]:
    """The template key of ``tokens`` and the indices of its lifted tokens.

    The key is flat: a keyword, operator or punctuation token (and a
    structural LIMIT/OFFSET number) contributes its value, an identifier
    ``None`` followed by its name, and a lifted token its class. Those
    value sets are disjoint (only a quoted identifier could spell a
    keyword or a symbol, and it carries the ``None`` tag), so the key
    names the token stream up to the lifted values without hashing the
    token-type enum.
    """
    key: list = []
    lifted: list[int] = []
    structural_number = False
    for index, token in enumerate(tokens):
        kind = token.type
        value = token.value
        if kind is TokenType.IDENTIFIER:
            key.append(None)
            key.append(value)
        elif kind is TokenType.STRING:
            key.append(str)
            lifted.append(index)
        elif kind is TokenType.NUMBER and not structural_number:
            key.append(_number_class(value))
            lifted.append(index)
        else:
            key.append(value)
        structural_number = kind is TokenType.KEYWORD and (
            value == "LIMIT" or value == "OFFSET"
        )
    return tuple(key), lifted


@dataclasses.dataclass(frozen=True)
class _Template:
    """The AST of a shape's first text, and where its lifted literals sit.

    ``slots`` is a trie over paths from the root: a dataclass node maps
    field names, a tuple maps indices, and a leaf is the lifted token's
    position in the shape's lifted-token list. ``None`` marks an
    unliftable shape.
    """

    statement: nodes.AnyStatement
    slots: dict | None
    #: The template's own ``Literal`` per slot (``None`` when unliftable).
    literals: list | None = None
    #: A SELECT's canonical SQL with ``?`` per slot (else ``None``).
    text: str | None = None

    @classmethod
    def record(
        cls,
        statement: nodes.AnyStatement,
        lifted: list[int],
        literals: dict[int, nodes.Literal],
    ) -> "_Template":
        slot_literals = [literals.get(index) for index in lifted]
        if any(literal is None for literal in slot_literals):
            return cls(statement, None)
        slots = literal_slots(statement, slot_literals)
        if sorted(slot_leaves(slots)) != list(range(len(lifted))):
            return cls(statement, None)
        text = None
        if isinstance(statement, nodes.Select):
            text = rebuild(statement, slots, lambda slot: _PLACEHOLDER).sql()
        return cls(statement, slots, slot_literals, text)


@dataclasses.dataclass(frozen=True)
class _Placeholder(nodes.Expr):
    """Renders a lifted literal's place in a shape's text."""

    def sql(self) -> str:
        return "?"


_PLACEHOLDER = _Placeholder()


def _find_literals(node, slot_of: dict[int, int], path: tuple, out: list) -> None:
    """Append ``(slot, path)`` for every recorded literal under ``node``."""
    if type(node) is nodes.Literal:
        slot = slot_of.get(id(node))
        if slot is not None:
            out.append((slot, path))
    elif type(node) is tuple:
        for position, item in enumerate(node):
            _find_literals(item, slot_of, path + (position,), out)
    elif dataclasses.is_dataclass(node):
        for field in dataclasses.fields(node):
            _find_literals(getattr(node, field.name), slot_of, path + (field.name,), out)


def rebuild(node, slots: dict, leaf, finish=None):
    """``node`` with the literal at each path of ``slots`` (a
    :func:`literal_slots` trie) replaced by ``leaf(slot)``; only the
    ancestors of replaced literals are rebuilt, every other subtree is
    shared. ``finish(original, clone)``, when given, sees each rebuilt
    dataclass node after its fields are set, children first.

    A clone copies the node's fields with the changed ones swapped in:
    the nodes are frozen dataclasses whose whole state is their fields
    (plus memo attributes ``finish`` may drop), so this equals
    ``dataclasses.replace`` without re-running ``__init__``.
    """
    if type(node) is tuple:
        items = list(node)
        for position, sub in slots.items():
            items[position] = (
                leaf(sub) if type(sub) is int else rebuild(items[position], sub, leaf, finish)
            )
        return tuple(items)
    clone = object.__new__(type(node))
    fields = clone.__dict__
    fields.update(node.__dict__)
    for name, sub in slots.items():
        fields[name] = leaf(sub) if type(sub) is int else rebuild(fields[name], sub, leaf, finish)
    if finish is not None:
        finish(node, clone)
    return clone


#: Templates by token shape, for the whole process (no stamp: parsing
#: reads no catalog).
_TEMPLATES = TemplateCache()


def parse_expression(sql: str) -> nodes.Expr:
    """Parse a standalone expression (used by tests and agents)."""
    parser = _Parser(tokenize(sql), sql)
    expr = parser._parse_expr()
    if parser._peek().type is not TokenType.EOF:
        raise ParseError(f"unexpected trailing input in expression: {sql!r}")
    return expr
