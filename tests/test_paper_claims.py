"""The paper's evaluation claims, each a seed-fixed, iteration-capped check.

Every test names the figure or table of Chen & Wu, "Monte Carlo Tree
Search for Generating Interactive Data Analysis Interfaces" (SIGMOD
2020), that it checks.  All of them run on the paper's 10-query SDSS log
(Listing 1) and the wide screen unless they say otherwise.  Searches are
MCTS with ``GenerationConfig(time_budget_s=0, max_iterations=CAP,
seed=s)`` for each ``s`` in ``SEEDS``; each runs once, in a module-scoped
fixture, and the tests assert relations between results (feasible,
cheaper than, at least as costly as), never the measured values.

A claim that does not reproduce is a strict ``xfail`` whose reason gives
the measured number; should the claim start to hold, the unexpected pass
fails the run.  README.md's claims table lists every test here with its
outcome.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

import pytest

from repro import GenerationConfig
from repro.core import open_search_task
from repro.cost import (
    CostModel,
    CostWeights,
    exhaustive_evaluation,
    worst_sampled_evaluation,
)
from repro.difftree import initial_difftree
from repro.layout import Screen
from repro.mining import evaluate_mined, mine_interface
from repro.rules import default_engine, forward_engine
from repro.search import (
    BeamSearchTask,
    GreedySearchTask,
    RandomSearchTask,
    SearchResult,
    SearchTask,
)
from repro.widgets import domain_of
from repro.widgets.tree import WidgetNode
from repro.workloads import listing1_queries

SEEDS = (0, 1, 2)
#: MCTS iterations per search: every seed's Listing-1 search has reached
#: its final cost by this cap.
CAP = 8
#: Random-search walk length.  The default 200-step walks drift into
#: large states on this log: 4-7 s a walk on a 2-core box.
RANDOM_WALK_STEPS = 20
#: Steps per T-SS random walk: the paper's longest search path.
WALK_STEPS = 100
#: Widgets that lay out every option at once (Figure 6(a)'s wide choices).
ENUMERATING = ("buttons", "radio", "slider")


@dataclass
class Run:
    result: SearchResult
    #: The incumbent's cost after opening the search and after each
    #: one-iteration slice of it.
    incumbents: List[float]


def _model(queries, weights: CostWeights = CostWeights()) -> CostModel:
    return CostModel(queries, Screen.wide(), weights=weights)


def _mcts(queries, seed: int, weights: CostWeights = CostWeights()) -> Run:
    config = GenerationConfig(time_budget_s=0, max_iterations=CAP, seed=seed)
    task = open_search_task(
        _model(queries, weights), initial_difftree(queries), default_engine(), config
    )
    incumbents = [task.evaluator.best.cost]
    while task.step(n_iterations=1):
        incumbents.append(task.evaluator.best.cost)
    return Run(task.result(), incumbents)


def _until_states(task: SearchTask, states: int) -> SearchResult:
    """Step ``task`` one unit at a time until it has scored ``states`` states."""
    while task.evaluator.stats.states_evaluated < states and task.step(
        n_iterations=1
    ):
        pass
    return task.result()


def _widgets(result: SearchResult) -> List[str]:
    return [
        node.widget
        for node in result.best.widget_tree.walk()
        if node.choice_path is not None
    ]


def _walk_stats(seed: int):
    """Max ``moves()`` fanout and length of one random walk from the root."""
    engine = default_engine()
    rng = random.Random(seed)
    tree = initial_difftree(listing1_queries())
    max_fanout = steps = 0
    for _ in range(WALK_STEPS):
        moves = engine.moves(tree)
        max_fanout = max(max_fanout, len(moves))
        if not moves:
            break
        tree = engine.apply(tree, rng.choice(moves))
        steps += 1
    return max_fanout, steps


def _factored_difftree():
    """Listing 1's difftree with every forward rewrite but Multi applied."""
    engine = forward_engine()
    tree = initial_difftree(listing1_queries())
    while True:
        moves = [m for m in engine.moves(tree) if m.rule_name != "Multi"]
        if not moves:
            return tree
        tree = engine.apply(tree, moves[0])


def _sdss_form(tree) -> WidgetNode:
    """A widget tree shaped like the SkyServer search form (Figure 6(e)).

    One widget per top-level choice, stacked vertically: a textbox for a
    number (a dropdown when it can be absent), a checkbox for a flag and
    a dropdown for anything else.
    """
    widgets = []
    for path, node in tree.choice_nodes():
        if any(tree.at(path[:k]).kind == "MULTI" for k in range(1, len(path))):
            continue
        domain = domain_of(node)
        if domain.kind == "numeric":
            widget = "dropdown" if domain.has_empty else "textbox"
        elif domain.kind == "boolean":
            widget = "checkbox"
        else:
            widget = "dropdown"
        widgets.append(WidgetNode(widget=widget, choice_path=path, domain=domain))
    return WidgetNode(widget="vertical", children=tuple(widgets))


@pytest.fixture(scope="module")
def model():
    """The full cost model of Listing 1, for scoring outside a search."""
    return _model(listing1_queries())


@pytest.fixture(scope="module")
def wide():
    return {seed: _mcts(listing1_queries(), seed) for seed in SEEDS}


@pytest.fixture(scope="module")
def initial_cost(model):
    """Listing 1's initial state (one whole-query chooser), best widgets."""
    return exhaustive_evaluation(model, initial_difftree(model.queries)).cost


@pytest.mark.parametrize("seed", SEEDS)
def test_fig6a_wide_screen_uses_enumerating_widgets(wide, seed):
    """Figure 6(a): on the wide screen the winner fits and picks widgets
    that show their options at once."""
    result = wide[seed].result
    assert result.best.breakdown.feasible
    assert sum(w in ENUMERATING for w in _widgets(result)) >= 2


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="Figure 6(b) does not reproduce: the wide winner is 277x410 px "
    "on every seed, inside the 340x560 narrow screen, so the narrow "
    "screen never binds",
)
@pytest.mark.parametrize("seed", SEEDS)
def test_fig6b_wide_winner_overflows_narrow_screen(wide, seed):
    """Figure 6(b): the narrow screen forces more compact widgets, so the
    wide-screen winner must not fit it."""
    breakdown = wide[seed].result.best.breakdown
    narrow = Screen.narrow()
    assert breakdown.width > narrow.width or breakdown.height > narrow.height


@pytest.fixture(scope="module")
def subset():
    return {seed: _mcts(listing1_queries(6, 8), seed).result for seed in SEEDS}


@pytest.mark.parametrize("seed", SEEDS)
def test_fig6c_queries_6_to_8_give_a_simpler_interface(wide, subset, seed):
    """Figure 6(c): queries 6-8 need fewer widgets than the whole log, cost
    less, and keep the TOP 10/100/1000 chooser."""
    full, small = wide[seed].result, subset[seed]
    assert small.best.breakdown.feasible
    assert len(_widgets(small)) < len(_widgets(full))
    assert small.best_cost < full.best_cost
    assert any(
        node.domain is not None
        and {"10", "100", "1000"} <= set(node.domain.labels)
        for node in small.best.widget_tree.walk()
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_fig6d_random_widgets_give_a_low_reward_interface(model, wide, seed):
    """Figure 6(d): on the winning difftree, the worst of 30 random widget
    assignments costs well over the searched one."""
    result = wide[seed].result
    low = worst_sampled_evaluation(
        model, result.best_state, k=30, rng=random.Random(seed)
    )
    assert low.cost > 1.15 * result.best_cost


@pytest.fixture(scope="module")
def sdss_form_cost(model):
    tree = _factored_difftree()
    # A hand-built tree has no decision vector, so evaluate() scores it
    # through the reference evaluator.
    return model.evaluate(tree, _sdss_form(tree)).total


@pytest.mark.parametrize("seed", SEEDS)
def test_fig6e_sdss_form_costs_at_least_the_winner(wide, sdss_form_cost, seed):
    """Figure 6(e): the existing SDSS search form is no cheaper than the
    generated interface under the same cost model."""
    assert sdss_form_cost >= wide[seed].result.best_cost


@pytest.fixture(scope="module")
def walks():
    return {seed: _walk_stats(seed) for seed in SEEDS}


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="T-SS fanout does not reproduce: the walks reach 386, 197 and "
    "318 moves (339, 146 and 270 of them Distribute), not the paper's 50",
)
@pytest.mark.parametrize("seed", SEEDS)
def test_tss_fanout_is_at_most_50(walks, seed):
    """T-SS: "The fanout is as high as 50" along a random walk."""
    max_fanout, _ = walks[seed]
    assert max_fanout <= 50


@pytest.mark.parametrize("seed", SEEDS)
def test_tss_search_paths_reach_100_steps(walks, seed):
    """T-SS: "a search path can be as long as 100 steps"."""
    _, steps = walks[seed]
    assert steps >= 100


@pytest.mark.parametrize("seed", SEEDS)
def test_tcmp_mcts_beats_naive_search_and_the_miner(model, wide, initial_cost, seed):
    """T-CMP: MCTS finds an interface no worse than greedy, beam or random
    search given as many scored states, or than the bottom-up miner
    (Zhang et al. 2017), and better than the initial state."""
    mcts = wide[seed].result
    queries = listing1_queries()
    initial = initial_difftree(queries)
    states = mcts.stats.states_evaluated
    # A budget that never expires: the baselines stop on their own or
    # on the state count.
    budget = dict(time_budget_s=600.0, seed=seed)
    greedy = GreedySearchTask(
        _model(queries),
        initial,
        default_engine(),
        GenerationConfig(strategy="greedy", **budget),
    ).run()
    beam = _until_states(
        BeamSearchTask(
            _model(queries),
            initial,
            default_engine(),
            GenerationConfig(strategy="beam", **budget),
        ),
        states,
    )
    rand = _until_states(
        RandomSearchTask(
            _model(queries),
            initial,
            default_engine(),
            GenerationConfig(
                strategy="random", max_walk_steps=RANDOM_WALK_STEPS, **budget
            ),
        ),
        states,
    )
    assert beam.stats.states_evaluated >= states
    assert rand.stats.states_evaluated >= states
    for baseline in (greedy, beam, rand):
        assert mcts.best_cost <= baseline.best_cost
    assert mcts.best_cost < initial_cost
    mined = evaluate_mined(model, mine_interface(queries)).evaluation
    assert not mined.breakdown.feasible or mcts.best_cost <= mined.cost


@pytest.mark.parametrize("seed", SEEDS)
def test_trt_incumbent_never_rises(wide, initial_cost, seed):
    """T-RT: the best cost found never rises as the search runs longer, and
    ends below the initial state."""
    run = wide[seed]
    assert all(b <= a for a, b in zip(run.incumbents, run.incumbents[1:]))
    assert run.result.best_cost <= run.incumbents[-1]
    assert run.result.best_cost < initial_cost


@pytest.fixture(scope="module")
def m_only():
    return {
        seed: _mcts(listing1_queries(), seed, CostWeights(u=0)).result
        for seed in SEEDS
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_au_searching_without_u_costs_more(model, wide, m_only, seed):
    """A-U: a winner searched without the sequence term U (the prior work's
    objective) costs at least as much, under the full model, as the
    full-objective winner."""
    winner = m_only[seed]
    rescored = model.evaluate(winner.best_state, winner.best.widget_tree)
    assert rescored.total >= wide[seed].result.best_cost
