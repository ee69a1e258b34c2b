"""Tests for the layout solver and the cost model."""

import math

import pytest

from repro.cost import (
    CostModel,
    CostWeights,
    coordinate_descent,
    exhaustive_evaluation,
    sampled_evaluation,
    worst_sampled_evaluation,
)
from repro.difftree import initial_difftree
from repro.layout import Box, Screen, fits, measure, overflow
from repro.rules import forward_engine
from repro.sqlast import parse
from repro.widgets import derive_widget_tree, domain_of
from repro.widgets.tree import WidgetNode as WN


def factored(queries):
    engine = forward_engine()
    tree = initial_difftree([parse(q) for q in queries])
    while True:
        moves = [m for m in engine.moves(tree) if m.rule_name != "Multi"]
        if not moves:
            return tree
        tree = engine.apply(tree, moves[0])


def leaf(widget="toggle", title=""):
    from repro.difftree import all_node, any_node, opt_node

    node = opt_node(all_node("ColExpr", "a"))
    return WN(widget=widget, choice_path=(0,), domain=domain_of(node), title=title)


class TestLayout:
    def test_vertical_stacks_heights(self):
        a, b = leaf(), leaf()
        box_v = measure(WN(widget="vertical", children=(a, b)))
        box_single = measure(a)
        assert box_v.height > 2 * box_single.height  # + gap + padding
        assert box_v.width >= box_single.width

    def test_horizontal_sums_widths(self):
        a, b = leaf(), leaf()
        box_h = measure(WN(widget="horizontal", children=(a, b)))
        single = measure(a)
        assert box_h.width > 2 * single.width
        assert box_h.height < box_h.width

    def test_empty_box_is_zero(self):
        assert measure(WN(widget="vertical")) == Box(0.0, 0.0)

    def test_title_adds_height(self):
        with_title = measure(leaf(title="WHERE"))
        without = measure(leaf())
        assert with_title.height > without.height

    def test_tabs_height_includes_header(self):
        page = WN(widget="vertical", children=(leaf(),))
        node = WN(widget="tabs", children=(page, page), domain=None)
        # tabs need a domain for header size; use a simple binary domain
        from repro.difftree import all_node, any_node

        domain = domain_of(
            any_node([all_node("ColExpr", "aa"), all_node("ColExpr", "bb")])
        )
        node = WN(widget="tabs", children=(page, page), domain=domain)
        assert measure(node).height > measure(page).height

    def test_adder_wraps_content(self):
        from repro.difftree import all_node, multi_node

        domain = domain_of(multi_node(all_node("ColExpr", "a")))
        node = WN(widget="adder", domain=domain, children=(leaf(),))
        assert measure(node).height > measure(leaf()).height

    def test_fits_and_overflow(self):
        node = WN(widget="vertical", children=(leaf(), leaf(), leaf()))
        box = measure(node)
        assert fits(node, Screen(box.width, box.height))
        assert not fits(node, Screen(box.width - 1, box.height))
        over_w, over_h = overflow(node, Screen(box.width - 10, box.height - 5))
        assert over_w == pytest.approx(10)
        assert over_h == pytest.approx(5)

    def test_size_class_affects_box(self):
        small = WN(widget="dropdown", size_class="S", domain=leaf().domain, choice_path=(0,))
        large = WN(widget="dropdown", size_class="L", domain=leaf().domain, choice_path=(0,))
        assert measure(small).width < measure(large).width


class TestCostModel:
    FIG1 = (
        "SELECT sales FROM sales WHERE cty = 'USA'",
        "SELECT costs FROM sales WHERE cty = 'EUR'",
        "SELECT costs FROM sales",
    )

    def model(self, queries=None, screen=None, **weights):
        queries = [parse(q) for q in (queries or self.FIG1)]
        return CostModel(
            queries, screen or Screen.wide(), weights=CostWeights(**weights)
        ), queries

    def test_requires_queries(self):
        with pytest.raises(ValueError):
            CostModel([], Screen.wide())

    def test_m_cost_sums_over_widgets(self):
        model, queries = self.model()
        tree = factored(self.FIG1)
        root = derive_widget_tree(tree)
        total = model.appropriateness(root)
        assert total > 0
        parts = [n.wtype.appropriateness(n.domain) for n in root.walk()]
        assert total == pytest.approx(sum(parts))

    def test_u_zero_for_identical_consecutive_queries(self):
        model, queries = self.model(
            queries=["select a from t", "select a from t"]
        )
        tree = initial_difftree(queries)
        root = derive_widget_tree(tree)
        u, steiner, effort, pairs = model.sequence_cost(tree, root)
        assert u == 0.0
        assert steiner == 0

    def test_u_counts_changed_widgets(self):
        model, queries = self.model()
        tree = factored(self.FIG1)
        root = derive_widget_tree(tree)
        u, steiner, effort, pairs = model.sequence_cost(tree, root)
        assert len(pairs) == 2
        assert all(p > 0 for p in pairs)
        # q1->q2 touches 2 widgets; q2->q3 touches the toggle only.
        assert pairs[0] > pairs[1]

    def test_infeasible_when_screen_too_small(self):
        model, queries = self.model(screen=Screen(50, 50))
        tree = factored(self.FIG1)
        root = derive_widget_tree(tree)
        breakdown = model.evaluate(tree, root)
        assert not breakdown.feasible
        assert math.isinf(breakdown.total)
        assert breakdown.rank[0] == 1
        assert breakdown.overflow_w > 0 or breakdown.overflow_h > 0

    def test_weights_scale_terms(self):
        tree = factored(self.FIG1)
        model1, _ = self.model(m=1.0, u=0.3)
        model2, _ = self.model(m=2.0, u=0.3)
        root = derive_widget_tree(tree)
        assert model2.evaluate(tree, root).m_cost == pytest.approx(
            2 * model1.evaluate(tree, root).m_cost
        )

    def test_steiner_single_widget_is_one(self):
        model, queries = self.model(
            queries=["select a from t where x < 1", "select a from t where x < 2"]
        )
        tree = factored(
            ["select a from t where x < 1", "select a from t where x < 2"]
        )
        root = derive_widget_tree(tree)
        _, steiner, _, pairs = model.sequence_cost(tree, root)
        assert steiner == 1  # one widget changes per step
        assert len(pairs) == 1


class TestEvaluation:
    FIG1 = TestCostModel.FIG1

    def test_sampled_beats_or_equals_any_single_sample(self):
        import random

        queries = [parse(q) for q in self.FIG1]
        model = CostModel(queries, Screen.wide())
        tree = factored(self.FIG1)
        best = sampled_evaluation(model, tree, k=8, rng=random.Random(0))
        greedy_only = sampled_evaluation(model, tree, k=1, rng=random.Random(0))
        assert best.rank <= greedy_only.rank

    def test_exhaustive_at_least_as_good_as_sampled(self):
        queries = [parse(q) for q in self.FIG1]
        model = CostModel(queries, Screen.wide())
        tree = factored(self.FIG1)
        exhaustive = exhaustive_evaluation(model, tree)
        sampled = sampled_evaluation(model, tree, k=10)
        assert exhaustive.rank <= sampled.rank

    def test_coordinate_descent_improves_over_greedy(self):
        queries = [parse(q) for q in self.FIG1]
        model = CostModel(queries, Screen.wide())
        tree = factored(self.FIG1)
        cd = coordinate_descent(model, tree)
        greedy = sampled_evaluation(model, tree, k=1)
        assert cd.rank <= greedy.rank

    def test_worst_sampled_is_worse_than_best(self):
        import random

        queries = [parse(q) for q in self.FIG1]
        model = CostModel(queries, Screen.wide())
        tree = factored(self.FIG1)
        worst = worst_sampled_evaluation(model, tree, k=15, rng=random.Random(1))
        best = sampled_evaluation(model, tree, k=15, rng=random.Random(1))
        assert worst.cost >= best.cost
