"""Printer tests, including the parse∘print round-trip property."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.sqlast import parse, to_sql


class TestPrinter:
    @pytest.mark.parametrize(
        "sql,expected",
        [
            ("select a from t", "SELECT a FROM t"),
            ("select top 10 a from t", "SELECT TOP 10 a FROM t"),
            ("select a, b from t", "SELECT a, b FROM t"),
            ("select count(*) from t", "SELECT count(*) FROM t"),
            (
                "select a from t where x < 5",
                "SELECT a FROM t WHERE x < 5",
            ),
            (
                "select a from t where c = 'USA'",
                "SELECT a FROM t WHERE c = 'USA'",
            ),
            (
                "select a from t where u between 0 and 30",
                "SELECT a FROM t WHERE u BETWEEN 0 AND 30",
            ),
            (
                "select a from t group by a order by a desc limit 3",
                "SELECT a FROM t GROUP BY a ORDER BY a DESC LIMIT 3",
            ),
        ],
    )
    def test_known_renderings(self, sql, expected):
        assert to_sql(parse(sql)) == expected

    def test_string_escaping(self):
        ast = parse("select a from t where c = 'it''s'")
        rendered = to_sql(ast)
        assert "''" in rendered
        assert parse(rendered) == ast

    def test_or_precedence_parenthesized(self):
        sql = "select a from t where (x < 1 or y < 2) and z < 3"
        ast = parse(sql)
        assert parse(to_sql(ast)) == ast

    def test_in_list_rendering(self):
        sql = "select a from t where c in ('x', 'y')"
        assert "IN ('x', 'y')" in to_sql(parse(sql))


# -- property-based round-trip ---------------------------------------------------

_ident = st.sampled_from(["a", "b", "objid", "u", "g", "ra", "x1"])
_table = st.sampled_from(["t", "stars", "galaxies"])
_number = st.integers(min_value=0, max_value=1000)
_string = st.sampled_from(["USA", "EUR", "it's"])


def _atom():
    col = _ident.map(lambda c: f"{c} < 5")
    eq = st.tuples(_ident, _string).map(lambda p: f"{p[0]} = '{p[1]}'".replace("'it's'", "'it''s'"))
    between = st.tuples(_ident, _number, _number).map(
        lambda p: f"{p[0]} between {min(p[1], p[2])} and {max(p[1], p[2])}"
    )
    return st.one_of(col, eq, between)


_predicate = st.lists(_atom(), min_size=1, max_size=4).map(" and ".join)

_projection = st.one_of(
    st.just("*"),
    st.lists(_ident, min_size=1, max_size=3, unique=True).map(", ".join),
    st.just("count(*)"),
    _ident.map(lambda c: f"avg({c})"),
)


@st.composite
def _query(draw):
    parts = ["select"]
    if draw(st.booleans()):
        parts.append(f"top {draw(st.integers(min_value=1, max_value=999))}")
    parts.append(draw(_projection))
    parts.append(f"from {draw(_table)}")
    if draw(st.booleans()):
        parts.append(f"where {draw(_predicate)}")
    if draw(st.booleans()):
        parts.append(f"limit {draw(st.integers(min_value=1, max_value=99))}")
    return " ".join(parts)


class TestRoundTrip:
    @given(_query())
    @settings(max_examples=200, deadline=None)
    def test_parse_print_parse_fixpoint(self, sql):
        ast = parse(sql)
        rendered = to_sql(ast)
        assert parse(rendered) == ast

    @given(_query())
    @settings(max_examples=100, deadline=None)
    def test_print_is_deterministic(self, sql):
        ast = parse(sql)
        assert to_sql(ast) == to_sql(ast)

    @given(_query())
    @settings(max_examples=100, deadline=None)
    def test_ast_equality_is_structural(self, sql):
        assert parse(sql) == parse(sql)
        assert hash(parse(sql)) == hash(parse(sql))
