"""Ablations over the search's design choices.

* A-C    — UCT exploration constant ``c``
* A-K    — ``k`` random widget assignments per state reward
* A-U    — dropping the sequence term ``U`` (appropriateness-only, the
           Zhang-style objective) and re-scoring under the full model
* A-RULE — disabling rule families (inverse rules, Multi)
"""

from __future__ import annotations

from repro.cost import CostModel, CostWeights
from repro.difftree import initial_difftree
from repro.layout import Screen
from repro.rules import default_engine
from repro.search import MCTS, MCTSConfig
from repro.workloads import listing1_queries

BUDGET_S = 3.0
SEED = 31


def _run(queries, *, weights=None, engine=None, **config_kwargs):
    model = CostModel(queries, Screen.wide(), weights=weights or CostWeights())
    config = MCTSConfig(time_budget_s=BUDGET_S, seed=SEED, **config_kwargs)
    return MCTS(model, engine=engine, config=config).open(initial_difftree(queries)).run()


def test_exploration_constant(benchmark, table_printer):
    """A-C: sweep the UCT exploration constant."""
    queries = listing1_queries()
    values = (0.0, 0.7, 1.4, 2.8)

    def sweep():
        return {c: _run(queries, exploration_c=c).best_cost for c in values}

    costs = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table_printer(
        "A-C — UCT exploration constant",
        ["c", "best cost"],
        [(c, f"{cost:.2f}") for c, cost in costs.items()],
    )
    # Shape: all settings produce valid interfaces; the sweep itself is
    # the artifact (the paper calls c "a tunable exploration parameter").
    assert all(cost < float("inf") for cost in costs.values())


def test_reward_assignments(benchmark, table_printer):
    """A-K: number of sampled widget assignments per state reward."""
    queries = listing1_queries()
    values = (1, 3, 8)

    def sweep():
        return {k: _run(queries, k_assignments=k).best_cost for k in values}

    costs = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table_printer(
        "A-K — widget-assignment samples per reward",
        ["k", "best cost"],
        [(k, f"{cost:.2f}") for k, cost in costs.items()],
    )
    assert all(cost < float("inf") for cost in costs.values())


def test_cost_terms(benchmark, table_printer):
    """A-U: appropriateness-only objective vs the full cost model.

    Searching with u=0 (the prior work's objective) and re-scoring the
    winner under the full model shows what ignoring the query sequence
    costs.
    """
    queries = listing1_queries()

    def run_both():
        full = _run(queries)
        m_only = _run(queries, weights=CostWeights(u=0.0))
        # Re-score the M-only winner under the full model.
        full_model = CostModel(queries, Screen.wide())
        rescored = full_model.evaluate(m_only.best.tree, m_only.best.widget_tree)
        return full, m_only, rescored

    full, m_only, rescored = benchmark.pedantic(run_both, rounds=1, iterations=1)
    table_printer(
        "A-U — dropping the sequence term U",
        ["objective", "search cost", "cost under full model"],
        [
            ("full C = M + U", f"{full.best_cost:.2f}", f"{full.best_cost:.2f}"),
            (
                "M-only (Zhang-style)",
                f"{m_only.best_cost:.2f}",
                f"{rescored.total:.2f}" if rescored.feasible else "inf",
            ),
        ],
    )
    # Shape: optimizing without U cannot beat the full objective when
    # judged by the full objective.
    if rescored.feasible:
        assert full.best_cost <= rescored.total + 1e-6


def test_rule_families(benchmark, table_printer):
    """A-RULE: disabling rule families changes the reachable space."""
    queries = listing1_queries()
    variants = {
        "full rule set": None,
        "no inverse rules": ("UnOptional", "Distribute"),
        "no Multi": ("Multi",),
        "no Lift": ("Lift",),
    }

    def sweep():
        out = {}
        for name, excluded in variants.items():
            engine = default_engine(exclude=excluded)
            out[name] = _run(queries, engine=engine).best_cost
        return out

    costs = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table_printer(
        "A-RULE — rule-family ablation",
        ["rule set", "best cost"],
        [(name, f"{cost:.2f}") for name, cost in costs.items()],
    )
    assert all(cost < float("inf") for cost in costs.values())
