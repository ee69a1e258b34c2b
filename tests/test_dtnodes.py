"""Tests for difftree nodes, wrapping, and normalization."""

import pytest

from repro.difftree import (
    ALL,
    ANY,
    EMPTY,
    EMPTY_NODE,
    OPT,
    DTNode,
    all_node,
    any_node,
    initial_difftree,
    is_normalized,
    multi_node,
    normalize,
    opt_node,
    pretty,
    unwrap_ast,
    wrap_ast,
)
from repro.sqlast import parse


class TestDTNodeBasics:
    def test_all_requires_label(self):
        with pytest.raises(ValueError):
            DTNode(ALL)

    def test_opt_requires_single_child(self):
        with pytest.raises(ValueError):
            DTNode(OPT, children=())
        with pytest.raises(ValueError):
            DTNode(OPT, children=(EMPTY_NODE, EMPTY_NODE))

    def test_any_requires_alternatives(self):
        with pytest.raises(ValueError):
            DTNode(ANY, children=())

    def test_empty_must_be_bare(self):
        with pytest.raises(ValueError):
            DTNode(EMPTY, label="X")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            DTNode("WAT")

    def test_immutability(self):
        node = all_node("ColExpr", "a")
        with pytest.raises(AttributeError):
            node.kind = ANY

    def test_canonical_key_is_stable_and_structural(self):
        a = wrap_ast(parse("select a from t"))
        b = wrap_ast(parse("select a from t"))
        assert a.canonical_key == b.canonical_key
        assert a == b
        c = wrap_ast(parse("select b from t"))
        assert a.canonical_key != c.canonical_key

    def test_replace_at(self):
        tree = wrap_ast(parse("select a from t"))
        replaced = tree.replace_at((0, 0), all_node("ColExpr", "z"))
        assert replaced.at((0, 0)).value == "z"
        assert tree.at((0, 0)).value == "a"

    def test_choice_nodes_listing(self):
        tree = any_node([wrap_ast(parse("select a from t")), wrap_ast(parse("select b from t"))])
        choices = tree.choice_nodes()
        assert choices[0][0] == ()
        assert choices[0][1].kind == ANY

    def test_wrap_unwrap_roundtrip(self):
        ast = parse("select top 3 a from t where x < 1")
        assert unwrap_ast(wrap_ast(ast)) == ast

    def test_unwrap_choice_raises(self):
        with pytest.raises(ValueError):
            unwrap_ast(any_node([EMPTY_NODE, wrap_ast(parse("select a from t"))]))

    def test_pretty_contains_heads(self):
        text = pretty(wrap_ast(parse("select a from t")))
        assert "Select" in text
        assert "ColExpr='a'" in text


class TestNormalization:
    def col(self, name):
        return all_node("ColExpr", name)

    def test_singleton_any_collapses(self):
        assert normalize(any_node([self.col("a")])) == self.col("a")

    def test_duplicate_alternatives_removed(self):
        node = normalize(any_node([self.col("a"), self.col("a"), self.col("b")]))
        assert len(node.children) == 2

    def test_nested_any_flattened(self):
        inner = any_node([self.col("a"), self.col("b")])
        node = normalize(any_node([inner, self.col("c")]))
        assert node.kind == ANY
        assert all(c.kind == ALL for c in node.children)
        assert len(node.children) == 3

    def test_numeric_alternatives_sorted_numerically(self):
        node = normalize(
            any_node(
                [
                    all_node("Top", 1000),
                    all_node("Top", 10),
                    all_node("Top", 100),
                ]
            )
        )
        assert [c.value for c in node.children] == [10, 100, 1000]

    def test_empty_sorts_first(self):
        node = normalize(any_node([self.col("a"), EMPTY_NODE]))
        assert node.children[0].kind == EMPTY

    def test_opt_of_empty_is_empty(self):
        assert normalize(opt_node(EMPTY_NODE)) == EMPTY_NODE

    def test_opt_of_opt_collapses(self):
        assert normalize(opt_node(opt_node(self.col("a")))) == opt_node(self.col("a"))

    def test_opt_drops_empty_alternative_of_child_any(self):
        node = normalize(opt_node(any_node([EMPTY_NODE, self.col("a")])))
        assert node.kind == OPT
        assert node.children[0] == self.col("a")

    def test_multi_of_multi_collapses(self):
        assert normalize(multi_node(multi_node(self.col("a")))) == multi_node(
            self.col("a")
        )

    def test_multi_of_empty_is_empty(self):
        assert normalize(multi_node(EMPTY_NODE)) == EMPTY_NODE

    def test_normalize_idempotent(self):
        node = any_node(
            [
                any_node([self.col("a"), self.col("a")]),
                opt_node(opt_node(self.col("b"))),
            ]
        )
        once = normalize(node)
        assert normalize(once) == once
        assert is_normalized(once)


class TestInitialDifftree:
    def test_root_is_any_over_queries(self, fig1_queries):
        tree = initial_difftree(fig1_queries)
        assert tree.kind == ANY
        assert len(tree.children) == 3

    def test_single_query_is_wrapped_ast(self):
        tree = initial_difftree([parse("select a from t")])
        assert tree.kind == ALL

    def test_duplicates_removed(self):
        tree = initial_difftree(
            [parse("select a from t"), parse("select a from t"), parse("select b from t")]
        )
        assert len(tree.children) == 2

    def test_accepts_sql_strings(self):
        tree = initial_difftree(["select a from t", "select b from t"])
        assert tree.kind == ANY

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            initial_difftree([])

    def test_bad_type_raises(self):
        with pytest.raises(TypeError):
            initial_difftree([42])
