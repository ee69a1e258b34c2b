"""Tests for MCTS and the baseline search strategies.

Slicing parity: every strategy stepped in arbitrary slices equals its
monolithic run bit-for-bit at equal totals (seed-fixed), for cold
tasks and for warm-started session searches.
"""

import math

import pytest

from repro import Engine, GenerationConfig, generate_interface
from repro.core import open_search_task, prepare_search
from repro.cost import CostModel
from repro.difftree import expresses_all, initial_difftree
from repro.layout import Screen
from repro.rules import default_engine
from repro.search import (
    MCTS,
    BeamSearchTask,
    ExhaustiveSearchTask,
    GreedySearchTask,
    RandomSearchTask,
    SearchResult,
    SearchTask,
    StateEvaluator,
    normalized_reward,
)
from repro.sqlast import parse
from repro.workloads import listing1_sql, sdss_session_sql

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


def _mcts(model, tree, **settings) -> SearchResult:
    config = GenerationConfig(**settings)
    return MCTS(model, default_engine(), config).open(tree).run()


def _baseline(cls, model, tree, **settings) -> SearchTask:
    config = GenerationConfig(strategy=cls.strategy, **settings)
    return cls(model, tree, default_engine(), config)


def _until_states(task: SearchTask, states: int) -> SearchResult:
    """Step ``task`` one unit at a time until it has scored ``states`` states."""
    while task.evaluator.stats.states_evaluated < states and task.step(
        n_iterations=1
    ):
        pass
    return task.result()


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
        result = _mcts(model, tree, time_budget_s=1.5, seed=1)
        assert result.best.breakdown.feasible
        assert expresses_all(result.best_state, queries)
        assert result.strategy == "mcts"

    def test_deterministic_under_iteration_cap(self, setup):
        queries, model, tree = setup
        settings = dict(time_budget_s=60.0, max_iterations=5, seed=7)
        a = _mcts(CostModel(queries, Screen.wide()), tree, **settings)
        b = _mcts(CostModel(queries, Screen.wide()), tree, **settings)
        assert a.best_cost == b.best_cost
        assert a.stats.states_evaluated == b.stats.states_evaluated

    def test_history_costs_monotone(self, setup):
        _, model, tree = setup
        result = _mcts(model, tree, time_budget_s=1.0, seed=2)
        costs = [c for _, c in result.history]
        assert costs == sorted(costs, reverse=True)

    def test_improves_over_initial_state(self, setup):
        queries, model, tree = setup
        from repro.cost import sampled_evaluation

        initial_cost = sampled_evaluation(model, tree, k=5).cost
        result = _mcts(model, tree, time_budget_s=2.0, seed=3)
        assert result.best_cost <= initial_cost

    def test_respects_iteration_cap(self, setup):
        _, model, tree = setup
        result = _mcts(model, tree, time_budget_s=60.0, max_iterations=2, seed=0)
        assert result.stats.iterations <= 2

    def test_fanout_recorded(self, setup):
        _, model, tree = setup
        result = _mcts(model, tree, time_budget_s=1.0, seed=0)
        assert result.stats.max_fanout >= 1


class TestBaselines:
    def test_random_search_valid(self, setup):
        queries, model, tree = setup
        result = _baseline(
            RandomSearchTask, model, tree, time_budget_s=1.0, seed=1
        ).run()
        assert result.best.breakdown.feasible
        assert expresses_all(result.best_state, queries)
        assert result.strategy == "random"

    def test_greedy_descends(self, setup):
        queries, model, tree = setup
        from repro.cost import sampled_evaluation

        result = _baseline(
            GreedySearchTask, model, tree, time_budget_s=2.0, seed=1
        ).run()
        assert result.best_cost <= sampled_evaluation(model, tree, k=5).cost

    def test_beam_search_valid(self, setup):
        queries, model, tree = setup
        # 63 states: as many as a 4-wide beam scores in 6 levels here.
        result = _until_states(
            _baseline(BeamSearchTask, model, tree, time_budget_s=3.0), 63
        )
        assert result.best.breakdown.feasible
        assert expresses_all(result.best_state, queries)

    def test_exhaustive_explores_dedicated_states(self, setup):
        _, model, tree = setup
        result = _until_states(
            _baseline(ExhaustiveSearchTask, model, tree, time_budget_s=0), 60
        )
        assert result.stats.states_evaluated >= 10

    def test_exhaustive_is_lower_bound_for_others(self, setup):
        """On this tiny log exhaustive BFS finds the optimum within its
        horizon; MCTS with a decent budget should match it."""
        queries, model, tree = setup
        exact = _until_states(
            _baseline(
                ExhaustiveSearchTask,
                CostModel(queries, Screen.wide()),
                tree,
                time_budget_s=0,
            ),
            400,
        )
        mcts = _mcts(CostModel(queries, Screen.wide()), tree, time_budget_s=4.0, seed=5)
        assert mcts.best_cost <= exact.best_cost * 1.1 + 1e-9


#: Iteration-capped, seed-fixed: equal work regardless of wall clock.
DETERMINISTIC = GenerationConfig(
    time_budget_s=0.0, max_iterations=6, seed=0, final_cap=200
)

LOG = listing1_sql(1, 3)


def _open_task(config, log=LOG):
    asts, screen, model, initial, engine = prepare_search(log, config=config)
    return open_search_task(model, initial, engine, config)


class TestSlicingParity:
    def test_mcts_sliced_equals_monolithic(self):
        """step(1)+step(2)+... == one monolithic run at equal iterations."""
        mono = generate_interface(LOG, config=DETERMINISTIC)

        task = _open_task(DETERMINISTIC)
        slices = []
        while not task.done:
            slices.append(task.step(n_iterations=2))
        result = task.result()

        assert result.best_cost == mono.cost
        assert result.stats.iterations == mono.search.stats.iterations
        assert result.stats.states_evaluated == mono.search.stats.states_evaluated
        assert result.best_state.canonical_key == mono.best.tree.canonical_key
        assert sum(slices) == DETERMINISTIC.max_iterations
        assert len(slices) >= 3

    def test_mcts_one_iteration_slices(self):
        mono = generate_interface(LOG, config=DETERMINISTIC)
        task = _open_task(DETERMINISTIC)
        while not task.done:
            task.step(n_iterations=1)
        result = task.result()
        assert result.best_cost == mono.cost
        assert result.best_state.canonical_key == mono.best.tree.canonical_key

    def test_step_after_done_is_noop(self):
        task = _open_task(DETERMINISTIC)
        task.step()
        assert task.done
        assert task.step() == 0
        assert task.step(n_iterations=5) == 0

    def test_result_before_done_returns_incumbent(self):
        task = _open_task(DETERMINISTIC)
        task.step(n_iterations=1)
        assert not task.done
        early = task.result()
        assert early.best_cost > 0

    @pytest.mark.parametrize(
        "cls",
        [RandomSearchTask, GreedySearchTask, BeamSearchTask, ExhaustiveSearchTask],
        ids=["random", "greedy", "beam", "exhaustive"],
    )
    def test_baseline_sliced_equals_batched(self, cls):
        """One-unit slices equal one big slice at equal unit totals."""
        config = GenerationConfig(
            strategy=cls.strategy, time_budget_s=60.0, max_walk_steps=12, seed=3
        )

        def factory(model, initial, engine):
            return cls(model, initial, engine, config)

        asts, screen, model, initial, engine = prepare_search(
            LOG, config=DETERMINISTIC
        )
        _, _, model2, initial2, engine2 = prepare_search(
            LOG, config=DETERMINISTIC
        )

        sliced = factory(model, initial, engine)
        units = 0
        while units < 6 and not sliced.done:
            units += sliced.step(n_iterations=1)
        batched = factory(model2, initial2, engine2)
        batched_units = batched.step(n_iterations=units)

        assert batched_units == units
        a, b = sliced.result(), batched.result()
        assert a.best_cost == b.best_cost
        assert a.best_state.canonical_key == b.best_state.canonical_key
        assert a.stats.states_evaluated == b.stats.states_evaluated

    def test_exhaustive_task_matches_function(self):
        # 7 BFS expansions score about 60 of this log's states.
        config = GenerationConfig(strategy="exhaustive", time_budget_s=0)
        asts, screen, model, initial, engine = prepare_search(LOG, config=config)
        mono_task = ExhaustiveSearchTask(model, initial, engine, config)
        assert mono_task.step(n_iterations=7) == 7
        mono = mono_task.result()
        _, _, model2, initial2, engine2 = prepare_search(LOG, config=config)
        task = ExhaustiveSearchTask(model2, initial2, engine2, config)
        while task.iterations < 7:
            task.step(n_iterations=min(3, 7 - task.iterations))
        sliced = task.result()
        assert sliced.best_cost == mono.best_cost
        assert sliced.stats.iterations == mono.stats.iterations

    def test_incremental_open_search_sliced_parity(self):
        """Warm-started session searches slice identically too."""
        log = sdss_session_sql(6, seed=0)
        mono_engine = Engine(config=DETERMINISTIC)
        mono_session = mono_engine.session("a")
        sliced_engine = Engine(config=DETERMINISTIC)
        sliced_session = sliced_engine.session("a")
        sliced_service = sliced_engine._incremental_service()

        for start in (0, 3):
            chunk = log[start : start + 3]
            mono_session.append(*chunk)
            mono_report = mono_session.interface()

            sliced_session.append(*chunk)
            pending = sliced_service.open_search("a")
            assert pending.cached is None
            while not pending.task.done:
                pending.task.step(n_iterations=2)
            sliced_result = pending.finish()

            assert sliced_result.cost == mono_report.cost
            assert (
                sliced_result.difftree.canonical_key
                == mono_report.difftree.canonical_key
            )

    # -- monolithic vs sliced, full result ------------------------------------

    def _assert_identical(self, mono, sliced):
        assert mono.best_cost == sliced.best_cost
        assert mono.best.tree.canonical_key == sliced.best.tree.canonical_key
        assert mono.stats == sliced.stats
        assert [c for _, c in mono.history] == [c for _, c in sliced.history]

    def _drive(self, make_task, total=None):
        mono, sliced = make_task(), make_task()
        if total is None:  # self-terminating strategy
            mono.step()
            while not sliced.done:
                sliced.step(n_iterations=3)
        else:
            assert mono.step(n_iterations=total) == total
            run = 0
            while run < total:
                run += sliced.step(n_iterations=2)
        self._assert_identical(mono.result(), sliced.result())

    def _fixture(self, n=2):
        # The model is built inside each task factory call: kernel
        # counters are cumulative per model, so sharing one would make
        # the second run's stats snapshot include the first run's work.
        queries = [parse(q) for q in sdss_session_sql(n, seed=5)]
        initial = initial_difftree(queries)
        return (lambda: CostModel(queries, Screen.wide())), initial

    def test_random_sliced_matches_monolithic(self):
        # Short walks: unbiased 200-step walks grow large states, and
        # slicing is exercised by the walk count, not the walk length.
        make_model, initial = self._fixture()
        self._drive(
            lambda: _baseline(
                RandomSearchTask,
                make_model(),
                initial,
                time_budget_s=600.0,
                max_walk_steps=24,
                seed=3,
                final_cap=50,
            ),
            total=8,
        )

    def test_greedy_sliced_matches_monolithic(self):
        make_model, initial = self._fixture()
        self._drive(
            lambda: _baseline(
                GreedySearchTask,
                make_model(),
                initial,
                time_budget_s=600.0,
                seed=3,
                final_cap=50,
            )
        )

    def test_beam_sliced_matches_monolithic(self):
        make_model, initial = self._fixture()
        self._drive(
            lambda: _baseline(
                BeamSearchTask,
                make_model(),
                initial,
                time_budget_s=600.0,
                seed=3,
                final_cap=50,
            ),
            total=6,
        )

    def test_exhaustive_sliced_matches_monolithic(self):
        # 18 BFS expansions score about 120 of this log's states.
        make_model, initial = self._fixture()
        self._drive(
            lambda: _baseline(
                ExhaustiveSearchTask,
                make_model(),
                initial,
                time_budget_s=0,
                seed=3,
                final_cap=50,
            ),
            total=18,
        )
