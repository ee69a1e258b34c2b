"""Tests for choice domains, the widget library, and tree derivation."""

import random

import pytest

from repro.difftree import (
    EMPTY_NODE,
    all_node,
    any_node,
    initial_difftree,
    multi_node,
    opt_node,
    wrap_ast,
)
from repro.rules import forward_engine
from repro.sqlast import parse
from repro.widgets import (
    BOOLEAN,
    COUNT,
    NUMERIC,
    RANGE,
    STRING,
    SUBTREE,
    WidgetDecision,
    candidates_for,
    decision_schema,
    derive_widget_tree,
    domain_of,
    enumerate_decision_vectors,
    widget_type,
)


def factored(queries):
    engine = forward_engine()
    tree = initial_difftree([parse(q) for q in queries])
    while True:
        moves = [m for m in engine.moves(tree) if m.rule_name != "Multi"]
        if not moves:
            return tree
        tree = engine.apply(tree, moves[0])


class TestDomains:
    def test_numeric_domain(self):
        node = any_node([all_node("Top", 10), all_node("Top", 100)])
        domain = domain_of(node)
        assert domain.kind == NUMERIC
        assert domain.numeric_values() == [10.0, 100.0]

    def test_string_domain(self):
        node = any_node([all_node("ColExpr", "a"), all_node("ColExpr", "b")])
        assert domain_of(node).kind == STRING

    def test_mixed_domain_is_subtree(self):
        node = any_node([all_node("ColExpr", "a"), all_node("NumExpr", 1)])
        assert domain_of(node).kind == SUBTREE

    def test_empty_option_sets_flag(self):
        node = any_node([EMPTY_NODE, all_node("ColExpr", "a"), all_node("ColExpr", "b")])
        domain = domain_of(node)
        assert domain.has_empty
        assert domain.labels[0] == "(none)"

    def test_range_domain_from_between_subtrees(self):
        a = wrap_ast(parse("select x from t where u between 0 and 30").at((2, 0)))
        b = wrap_ast(parse("select x from t where u between 5 and 25").at((2, 0)))
        domain = domain_of(any_node([a, b]))
        assert domain.kind == RANGE
        assert (0.0, 30.0) in domain.values

    def test_opt_domain_is_boolean(self):
        node = opt_node(all_node("ColExpr", "a"))
        assert domain_of(node).kind == BOOLEAN

    def test_multi_domain_is_count(self):
        node = multi_node(all_node("ColExpr", "a"))
        assert domain_of(node).kind == COUNT

    def test_complex_options_detected(self):
        inner = any_node([all_node("ColExpr", "a"), all_node("ColExpr", "b")])
        node = any_node(
            [all_node("Where", None, (inner,)), all_node("ColExpr", "c")]
        )
        assert domain_of(node).complex_options

    def test_non_choice_raises(self):
        with pytest.raises(ValueError):
            domain_of(all_node("ColExpr", "a"))

    def test_total_label_chars_uncapped(self):
        queries = [
            "select top 10 objid from stars where u between 0 and 30 and g between 0 and 30",
            "select top 100 objid from stars where u between 1 and 29 and g between 2 and 28",
        ]
        tree = initial_difftree([parse(q) for q in queries])
        domain = domain_of(tree)
        assert domain.total_label_chars > 2 * 50  # whole-SQL labels


class TestLibrary:
    def test_slider_requires_numeric(self):
        node = any_node([all_node("ColExpr", "a"), all_node("ColExpr", "b")])
        names = [w.name for w in candidates_for(domain_of(node))]
        assert "slider" not in names
        assert "dropdown" in names

    def test_slider_available_for_numeric(self):
        node = any_node([all_node("Top", 10), all_node("Top", 100), all_node("Top", 1000)])
        names = [w.name for w in candidates_for(domain_of(node))]
        assert "slider" in names

    def test_toggle_for_binary(self):
        node = any_node([all_node("ColExpr", "a"), all_node("ColExpr", "b")])
        names = [w.name for w in candidates_for(domain_of(node))]
        assert "toggle" in names

    def test_toggle_not_for_three_options(self):
        node = any_node(
            [all_node("ColExpr", "a"), all_node("ColExpr", "b"), all_node("ColExpr", "c")]
        )
        names = [w.name for w in candidates_for(domain_of(node))]
        assert "toggle" not in names

    def test_textbox_not_with_empty_option(self):
        node = any_node([EMPTY_NODE, all_node("NumExpr", 1), all_node("NumExpr", 2)])
        names = [w.name for w in candidates_for(domain_of(node))]
        assert "textbox" not in names

    def test_candidates_sorted_by_appropriateness(self):
        node = any_node([all_node("Top", 10), all_node("Top", 100), all_node("Top", 1000)])
        domain = domain_of(node)
        widgets = candidates_for(domain)
        costs = [w.appropriateness(domain) for w in widgets]
        assert costs == sorted(costs)

    def test_radio_penalized_beyond_five(self):
        small = domain_of(
            any_node([all_node("NumExpr", i) for i in range(3)])
        )
        big = domain_of(
            any_node([all_node("NumExpr", i) for i in range(10)])
        )
        radio = widget_type("radio")
        assert radio.appropriateness(big) > radio.appropriateness(small)

    def test_label_penalty_for_long_options(self):
        short = domain_of(
            any_node([all_node("ColExpr", "a"), all_node("ColExpr", "b")])
        )
        long = domain_of(
            any_node(
                [all_node("ColExpr", "a" * 60), all_node("ColExpr", "b" * 60)]
            )
        )
        buttons = widget_type("buttons")
        assert buttons.appropriateness(long) > buttons.appropriateness(short) + 2

    def test_size_classes_scale_size_and_effort(self):
        node = any_node([all_node("ColExpr", "a"), all_node("ColExpr", "b")])
        domain = domain_of(node)
        dropdown = widget_type("dropdown")
        w_s, _ = dropdown.size(domain, "S")
        w_l, _ = dropdown.size(domain, "L")
        assert w_s < w_l
        assert dropdown.effort(domain, "S") > dropdown.effort(domain, "L")

    def test_unknown_widget_raises(self):
        with pytest.raises(KeyError):
            widget_type("flux-capacitor")


class TestDerivation:
    def test_concrete_tree_yields_static_label(self):
        tree = wrap_ast(parse("select a from t"))
        root = derive_widget_tree(tree)
        assert root.widget == "label"

    def test_figure1_factored_derivation(self):
        tree = factored(
            [
                "SELECT sales FROM sales WHERE cty = 'USA'",
                "SELECT costs FROM sales WHERE cty = 'EUR'",
                "SELECT costs FROM sales",
            ]
        )
        root = derive_widget_tree(tree)
        controlled = [n for n in root.walk() if n.choice_path is not None]
        assert len(controlled) == 3  # projection, where-toggle, literal

    def test_opt_groups_toggle_with_body(self):
        tree = factored(
            [
                "SELECT a FROM t WHERE cty = 'USA'",
                "SELECT a FROM t WHERE cty = 'EUR'",
                "SELECT a FROM t",
            ]
        )
        root = derive_widget_tree(tree)
        # Find the layout box holding the toggle + inner widget (Fig 2b).
        boxes = [
            n
            for n in root.walk()
            if n.widget in ("vertical", "horizontal") and len(n.children) >= 2
        ]
        assert any(
            any(c.domain is not None and c.domain.kind == BOOLEAN for c in box.children)
            for box in boxes
        )

    def test_multi_derives_adder(self):
        tree = initial_difftree(
            [parse("select a from t where u between 0 and 30 and g between 0 and 30")]
        )
        from repro.rules import default_engine

        engine = default_engine()
        move = [m for m in engine.moves(tree) if m.rule_name == "Multi"][0]
        merged = engine.apply(tree, move)
        root = derive_widget_tree(merged)
        assert any(n.widget == "adder" for n in root.walk())

    def test_complex_any_derives_tabs(self):
        # Alternatives with nested choices force a tabs widget.
        tree = initial_difftree(
            [
                parse("select a from t where x < 1"),
                parse("select a from t where x < 2"),
                parse("select b from s order by b"),
            ]
        )
        from repro.rules import default_engine

        engine = default_engine()
        # Factor only the first two queries' difference, keeping the root ANY.
        root = derive_widget_tree(tree)
        assert root.widget in ("buttons", "radio", "dropdown", "tabs")

    def test_random_chooser_is_seed_deterministic(self, sdss_tree):
        _, schema = decision_schema(sdss_tree)
        a = derive_widget_tree(sdss_tree, schema.random_vector(random.Random(5)))
        b = derive_widget_tree(sdss_tree, schema.random_vector(random.Random(5)))
        assert [n.widget for n in a.walk()] == [n.widget for n in b.walk()]

    def test_replay_chooser_overrides(self):
        tree = factored(
            ["SELECT sales FROM sales", "SELECT costs FROM sales"]
        )
        _, schema = decision_schema(tree)
        index, decision = next(
            (i, d)
            for i, d in enumerate(schema.decisions)
            if isinstance(d, WidgetDecision)
        )
        assert len(decision.candidates) >= 2
        forced = decision.candidates[1]
        vector = schema.greedy_vector()
        vector[index] = (forced, "S")
        root = derive_widget_tree(tree, vector)
        node = [n for n in root.walk() if n.choice_path == decision.path][0]
        assert node.widget == forced
        assert node.size_class == "S"

    def test_vector_of_wrong_length_raises(self):
        tree = factored(["SELECT sales FROM sales", "SELECT costs FROM sales"])
        _, schema = decision_schema(tree)
        vector = schema.greedy_vector()
        assert vector
        with pytest.raises(ValueError, match="decision"):
            derive_widget_tree(tree, vector + ["vertical"])
        with pytest.raises(ValueError, match="decision"):
            derive_widget_tree(tree, vector[:-1])

    def test_greedy_vector_derives_the_skeleton(self, sdss_tree):
        skeleton, schema = decision_schema(sdss_tree)
        assert derive_widget_tree(sdss_tree) == skeleton
        assert derive_widget_tree(sdss_tree, schema.greedy_vector()) == skeleton

    def test_enumeration_covers_space_and_caps(self):
        tree = factored(["SELECT sales FROM sales", "SELECT costs FROM sales"])
        _, schema = decision_schema(tree)
        all_trees = [
            derive_widget_tree(tree, vector)
            for vector, _ in enumerate_decision_vectors(schema, cap=1000)
        ]
        assert 1 <= len(all_trees) <= 1000
        assert len(all_trees) == min(schema.num_assignments, 1000)
        widgets_seen = {
            n.widget for t in all_trees for n in t.walk() if n.choice_path is not None
        }
        assert len(widgets_seen) >= 2

    def test_every_choice_node_gets_a_widget(self, sdss_tree):
        from repro.rules import forward_engine as fwd

        engine = fwd()
        tree = sdss_tree
        while True:
            moves = [m for m in engine.moves(tree) if m.rule_name != "Multi"]
            if not moves:
                break
            tree = engine.apply(tree, moves[0])
        root = derive_widget_tree(tree)
        widget_paths = {n.choice_path for n in root.walk() if n.choice_path is not None}
        choice_paths = {p for p, _ in tree.choice_nodes()}
        # Choices nested under a MULTI template are handled by the adder.
        top_level = {
            p
            for p in choice_paths
            if not any(
                tree.at(p[:k]).kind == "MULTI" for k in range(1, len(p))
            )
        }
        assert top_level <= widget_paths
