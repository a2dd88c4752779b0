"""SQL lexer.

Produces a flat token stream. Keywords are recognised case-insensitively;
identifiers may be double-quoted to defeat keyword recognition. String
literals are single-quoted with ``''`` as the escape for a quote.

One compiled regular expression splits the text: each alternative is one
token class, tried in order at every offset, and a catch-all last
alternative makes the matches contiguous, so ``finditer`` visits every
character exactly once. Numbers are ASCII digits only (``12``, ``2.5``,
``.5``, ``5.``, ``1e3``, ``2.5E-2``); a mantissa followed by ``e``/``E``
without exponent digits (``1e``, ``1e+``) is a :class:`TokenizeError`,
as is any character no alternative accepts. Every token's ``position``
is the offset of its first character.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from repro.errors import TokenizeError

KEYWORDS = frozenset(
    """
    SELECT FROM WHERE GROUP BY HAVING ORDER LIMIT OFFSET AS ON JOIN INNER LEFT
    RIGHT FULL OUTER CROSS AND OR NOT IN IS NULL LIKE BETWEEN EXISTS DISTINCT
    ASC DESC CASE WHEN THEN ELSE END CAST INSERT INTO VALUES UPDATE SET DELETE
    CREATE TABLE DROP IF PRIMARY KEY UNION ALL TRUE FALSE
    """.split()
)


class TokenType(enum.Enum):
    KEYWORD = "KEYWORD"
    IDENTIFIER = "IDENTIFIER"
    NUMBER = "NUMBER"
    STRING = "STRING"
    OPERATOR = "OPERATOR"
    PUNCT = "PUNCT"
    EOF = "EOF"


@dataclass(frozen=True)
class Token:
    type: TokenType
    value: str
    position: int

    def is_keyword(self, *names: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value in names


_TOKEN_RE = re.compile(
    r"""
      (?P<skip>[ \t\r\n]+|--[^\n]*|/\*.*?\*/)
    | (?P<word>[^\W\d]\w*)
    | (?P<number>(?>[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+|(?![eE])))
    | (?P<bad_number>(?>[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE])
    | (?P<string>'(?:[^']|'')*+')
    | (?P<quoted>"[^"]*")
    | (?P<unterminated>/\*|'|")
    | (?P<operator><>|!=|<=|>=|\|\||[-=<>+*/%])
    | (?P<punct>[(),.;])
    | (?P<error>.)
    """,
    re.VERBOSE | re.DOTALL,
)

_UNTERMINATED = {
    "'": "unterminated string literal",
    '"': "unterminated quoted identifier",
    "/*": "unterminated block comment",
}


def tokenize(sql: str) -> list[Token]:
    """Tokenize ``sql`` into a list ending with an EOF token."""
    tokens: list[Token] = []
    append = tokens.append
    for match in _TOKEN_RE.finditer(sql):
        kind = match.lastgroup
        if kind == "skip":
            continue
        text = match.group()
        start = match.start()
        if kind == "word":
            # ``[^\W\d]`` also admits numeric characters such as "²";
            # a word starts with a letter or an underscore.
            if not (text[0].isalpha() or text[0] == "_"):
                raise TokenizeError(f"unexpected character {text[0]!r}", start)
            upper = text.upper()
            if upper in KEYWORDS:
                append(Token(TokenType.KEYWORD, upper, start))
            else:
                append(Token(TokenType.IDENTIFIER, text, start))
        elif kind == "punct":
            append(Token(TokenType.PUNCT, text, start))
        elif kind == "operator":
            append(Token(TokenType.OPERATOR, text, start))
        elif kind == "number":
            append(Token(TokenType.NUMBER, text, start))
        elif kind == "string":
            append(Token(TokenType.STRING, text[1:-1].replace("''", "'"), start))
        elif kind == "quoted":
            append(Token(TokenType.IDENTIFIER, text[1:-1], start))
        elif kind == "bad_number":
            raise TokenizeError(f"malformed number {text!r}", start)
        elif kind == "unterminated":
            raise TokenizeError(_UNTERMINATED[text], start)
        else:
            raise TokenizeError(f"unexpected character {text!r}", start)
    append(Token(TokenType.EOF, "", len(sql)))
    return tokens
