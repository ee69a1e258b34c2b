"""Tests for MCTS and the baseline search strategies."""

import math

import pytest

from repro.cost import CostModel
from repro.difftree import expresses_all, initial_difftree
from repro.layout import Screen
from repro.search import (
    MCTS,
    BeamSearchTask,
    ExhaustiveSearchTask,
    GreedySearchTask,
    MCTSConfig,
    RandomSearchTask,
    StateEvaluator,
    normalized_reward,
)
from repro.sqlast import parse

FIG1 = (
    "SELECT sales FROM sales WHERE cty = 'USA'",
    "SELECT costs FROM sales WHERE cty = 'EUR'",
    "SELECT costs FROM sales",
)


@pytest.fixture
def setup():
    queries = [parse(q) for q in FIG1]
    model = CostModel(queries, Screen.wide())
    tree = initial_difftree(queries)
    return queries, model, tree


class TestNormalizedReward:
    def test_best_maps_to_one(self):
        assert normalized_reward(10.0, 10.0, 50.0) == 1.0

    def test_worst_maps_to_zero(self):
        assert normalized_reward(50.0, 10.0, 50.0) == 0.0

    def test_infeasible_is_zero(self):
        assert normalized_reward(math.inf, 10.0, 50.0) == 0.0

    def test_degenerate_bounds(self):
        assert normalized_reward(10.0, 10.0, 10.0) == 1.0

    def test_clamped(self):
        assert 0.0 <= normalized_reward(70.0, 10.0, 50.0) <= 1.0


class TestStateEvaluator:
    def test_caches_by_state(self, setup):
        _, model, tree = setup
        evaluator = StateEvaluator(model, k_assignments=3, seed=0)
        first = evaluator.evaluate(tree)
        count = evaluator.stats.states_evaluated
        second = evaluator.evaluate(tree)
        assert first is second
        assert evaluator.stats.states_evaluated == count

    def test_tracks_incumbent_history(self, setup):
        _, model, tree = setup
        evaluator = StateEvaluator(model, seed=0)
        evaluator.evaluate(tree)
        assert evaluator.best is not None
        assert len(evaluator.history) == 1

    def test_finalize_requires_evaluation(self, setup):
        _, model, _ = setup
        with pytest.raises(RuntimeError):
            StateEvaluator(model).finalize()


class TestMCTS:
    def test_finds_valid_interface(self, setup):
        queries, model, tree = setup
        result = MCTS(model, config=MCTSConfig(time_budget_s=1.5, seed=1)).open(tree).run()
        assert result.best.breakdown.feasible
        assert expresses_all(result.best_state, queries)
        assert result.strategy == "mcts"

    def test_deterministic_under_iteration_cap(self, setup):
        queries, model, tree = setup
        config = MCTSConfig(time_budget_s=60.0, max_iterations=5, seed=7)
        a = MCTS(CostModel(queries, Screen.wide()), config=config).open(tree).run()
        b = MCTS(CostModel(queries, Screen.wide()), config=config).open(tree).run()
        assert a.best_cost == b.best_cost
        assert a.stats.states_evaluated == b.stats.states_evaluated

    def test_history_costs_monotone(self, setup):
        _, model, tree = setup
        result = MCTS(model, config=MCTSConfig(time_budget_s=1.0, seed=2)).open(tree).run()
        costs = [c for _, c in result.history]
        assert costs == sorted(costs, reverse=True)

    def test_improves_over_initial_state(self, setup):
        queries, model, tree = setup
        from repro.cost import sampled_evaluation

        initial_cost = sampled_evaluation(model, tree, k=5).cost
        result = MCTS(model, config=MCTSConfig(time_budget_s=2.0, seed=3)).open(tree).run()
        assert result.best_cost <= initial_cost

    def test_respects_iteration_cap(self, setup):
        _, model, tree = setup
        config = MCTSConfig(time_budget_s=60.0, max_iterations=2, seed=0)
        result = MCTS(model, config=config).open(tree).run()
        assert result.stats.iterations <= 2

    def test_fanout_recorded(self, setup):
        _, model, tree = setup
        result = MCTS(model, config=MCTSConfig(time_budget_s=1.0, seed=0)).open(tree).run()
        assert result.stats.max_fanout >= 1


class TestBaselines:
    def test_random_search_valid(self, setup):
        queries, model, tree = setup
        result = RandomSearchTask(model, tree, time_budget_s=1.0, seed=1).run()
        assert result.best.breakdown.feasible
        assert expresses_all(result.best_state, queries)
        assert result.strategy == "random"

    def test_greedy_descends(self, setup):
        queries, model, tree = setup
        from repro.cost import sampled_evaluation

        result = GreedySearchTask(model, tree, time_budget_s=2.0, seed=1).run()
        assert result.best_cost <= sampled_evaluation(model, tree, k=5).cost

    def test_beam_search_valid(self, setup):
        queries, model, tree = setup
        result = BeamSearchTask(
            model, tree, beam_width=4, max_depth=6, time_budget_s=3.0
        ).run()
        assert result.best.breakdown.feasible
        assert expresses_all(result.best_state, queries)

    def test_exhaustive_explores_dedicated_states(self, setup):
        _, model, tree = setup
        result = ExhaustiveSearchTask(model, tree, max_states=60).run()
        assert result.stats.states_evaluated >= 10

    def test_exhaustive_is_lower_bound_for_others(self, setup):
        """On this tiny log exhaustive BFS finds the optimum within its
        horizon; MCTS with a decent budget should match it."""
        queries, model, tree = setup
        exact = ExhaustiveSearchTask(
            CostModel(queries, Screen.wide()), tree, max_states=400
        ).run()
        mcts = MCTS(
            CostModel(queries, Screen.wide()),
            config=MCTSConfig(time_budget_s=4.0, seed=5),
        ).open(tree).run()
        assert mcts.best_cost <= exact.best_cost * 1.1 + 1e-9
