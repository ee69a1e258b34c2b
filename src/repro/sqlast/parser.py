"""Recursive-descent parser for the SQL subset.

Grammar (lower-case = nonterminal, UPPER = keyword)::

    query      := SELECT [DISTINCT] [TOP number] select_list
                  FROM table_list [WHERE pred]
                  [GROUP BY col_list] [ORDER BY order_list] [LIMIT number]
    select_list:= select_item (',' select_item)*
    select_item:= '*' | expr [AS ident]
    expr       := ident | number | string | ident '(' (expr | '*') ')'
    table_list := ident (',' ident)*
    pred       := or_pred
    or_pred    := and_pred (OR and_pred)*
    and_pred   := atom (AND atom)*
    atom       := NOT atom | '(' pred ')'
                | expr op expr
                | expr BETWEEN expr AND expr
                | expr IN '(' expr (',' expr)* ')'

This intentionally covers the query shapes in the paper's Figure 1 and
Listing 1 (projections, aggregates, TOP N, BETWEEN-heavy WHERE clauses)
plus GROUP BY / ORDER BY / LIMIT so the interaction runtime can express
richer logs.
"""

from __future__ import annotations

from typing import List

from .. import memo as _memo
from ..memo import INGEST
from . import nodes as N
from .errors import ParseError
from .lexer import EOF, IDENT, KEYWORD, NUMBER, OP, PUNCT, STRING, Token, tokenize


class Parser:
    """Single-use recursive-descent parser over a token list."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens: List[Token] = tokenize(text)
        self.index = 0

    # -- token helpers -------------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.current
        if token.kind != EOF:
            self.index += 1
        return token

    def accept(self, kind: str, text: str = "") -> bool:
        if self.current.matches(kind, text):
            self.advance()
            return True
        return False

    def expect(self, kind: str, text: str = "") -> Token:
        if self.current.matches(kind, text):
            return self.advance()
        expected = text or kind
        raise ParseError(
            f"expected {expected!r}, found {self.current.text!r}",
            self.text,
            self.current.pos,
        )

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.text, self.current.pos)

    # -- grammar -------------------------------------------------------------

    def parse_query(self) -> N.Node:
        self.expect(KEYWORD, "select")
        # DISTINCT is accepted and normalized away: the interface layer does
        # not distinguish distinct/non-distinct projections.
        self.accept(KEYWORD, "distinct")
        top = None
        if self.accept(KEYWORD, "top"):
            top = N.top(self._int_literal("TOP"))
        proj = self._select_list()
        self.expect(KEYWORD, "from")
        from_ = self._table_list()
        where = None
        if self.accept(KEYWORD, "where"):
            where = N.where(self._pred())
        group = None
        if self.accept(KEYWORD, "group"):
            self.expect(KEYWORD, "by")
            group = N.group_by(*self._col_list())
        order = None
        if self.accept(KEYWORD, "order"):
            self.expect(KEYWORD, "by")
            order = self._order_list()
        lim = None
        if self.accept(KEYWORD, "limit"):
            lim = N.limit(self._int_literal("LIMIT"))
        if self.current.kind != EOF:
            raise self.error(f"unexpected trailing input {self.current.text!r}")
        return N.select(
            project=proj,
            from_=from_,
            top=top,
            where=where,
            group_by=group,
            order_by=order,
            limit=lim,
        )

    def _int_literal(self, clause: str) -> int:
        token = self.expect(NUMBER)
        value = float(token.text)
        if not value.is_integer():
            raise ParseError(
                f"{clause} requires an integer, found {token.text!r}",
                self.text,
                token.pos,
            )
        return int(value)

    def _select_list(self) -> N.Node:
        items = [self._select_item()]
        while self.accept(PUNCT, ","):
            items.append(self._select_item())
        return N.project(*items)

    def _select_item(self) -> N.Node:
        if self.accept(PUNCT, "*"):
            return N.star()
        expr = self._expr()
        if self.accept(KEYWORD, "as"):
            name = self.expect(IDENT).text
            return N.alias(expr, name)
        return expr

    def _expr(self) -> N.Node:
        token = self.current
        if token.kind == IDENT:
            self.advance()
            if self.accept(PUNCT, "("):
                # Function call, e.g. count(*), avg(u).
                if self.accept(PUNCT, "*"):
                    arg: N.Node = N.star()
                else:
                    arg = self._expr()
                self.expect(PUNCT, ")")
                return N.func(token.text, arg)
            if self.accept(PUNCT, "."):
                # Qualified column "t.col": keep the qualified name whole.
                column = self.expect(IDENT).text
                return N.col(f"{token.text}.{column}")
            return N.col(token.text)
        if token.kind == NUMBER:
            self.advance()
            return N.num(float(token.text))
        if token.kind == STRING:
            self.advance()
            return N.lit(token.text)
        raise self.error(f"expected expression, found {token.text!r}")

    def _table_list(self) -> N.Node:
        names = [self.expect(IDENT).text]
        while self.accept(PUNCT, ","):
            names.append(self.expect(IDENT).text)
        return N.from_tables(*names)

    def _col_list(self) -> List[N.Node]:
        cols = [N.col(self.expect(IDENT).text)]
        while self.accept(PUNCT, ","):
            cols.append(N.col(self.expect(IDENT).text))
        return cols

    def _order_list(self) -> N.Node:
        items = [self._order_item()]
        while self.accept(PUNCT, ","):
            items.append(self._order_item())
        return N.order_by(*items)

    def _order_item(self) -> N.Node:
        column = N.col(self.expect(IDENT).text)
        direction = "asc"
        if self.accept(KEYWORD, "asc"):
            direction = "asc"
        elif self.accept(KEYWORD, "desc"):
            direction = "desc"
        return N.order_item(column, direction)

    # -- predicates ----------------------------------------------------------

    def _pred(self) -> N.Node:
        return self._or_pred()

    def _or_pred(self) -> N.Node:
        parts = [self._and_pred()]
        while self.accept(KEYWORD, "or"):
            parts.append(self._and_pred())
        return N.or_(*parts)

    def _and_pred(self) -> N.Node:
        parts = [self._atom()]
        while self.accept(KEYWORD, "and"):
            parts.append(self._atom())
        return N.and_(*parts)

    def _atom(self) -> N.Node:
        if self.accept(KEYWORD, "not"):
            return N.not_(self._atom())
        if self.accept(PUNCT, "("):
            pred = self._pred()
            self.expect(PUNCT, ")")
            return pred
        left = self._expr()
        if self.accept(KEYWORD, "between"):
            lo = self._expr()
            self.expect(KEYWORD, "and")
            hi = self._expr()
            return N.between(left, lo, hi)
        if self.accept(KEYWORD, "in"):
            self.expect(PUNCT, "(")
            values = [self._expr()]
            while self.accept(PUNCT, ","):
                values.append(self._expr())
            self.expect(PUNCT, ")")
            return N.in_list(left, *values)
        if self.current.kind == OP:
            op = self.advance().text
            if op == "!=":
                op = "<>"
            right = self._expr()
            return N.biexpr(op, left, right)
        raise self.error(
            f"expected comparison operator, found {self.current.text!r}"
        )


#: ``sql text -> AST`` for exact repeats (interning makes the cached AST
#: shared structure, not a private copy).  Only successful parses are
#: cached; malformed input re-raises from a fresh parser run.
_PARSE_MEMO = _memo.memo_table(4096, name="sqlast.parse")


def parse(sql: str) -> N.Node:
    """Parse a single SQL query into its AST (memoized on exact text).

    Raises:
        ParseError or LexError on malformed input.
    """
    cached = _PARSE_MEMO.get(sql)
    if cached is not None:
        INGEST.parse_memo_hits += 1
        return cached
    INGEST.parses += 1
    ast = Parser(sql).parse_query()
    _PARSE_MEMO[sql] = ast
    return ast


def parse_many(sqls) -> List[N.Node]:
    """Parse a sequence of SQL strings into ASTs, in order."""
    return [parse(sql) for sql in sqls]
