"""T-RT: cost versus wall-clock budget (the paper's ~1-minute searches).

The paper runs MCTS "for around 1 minute to generate each interface".
This bench sweeps the time budget and reports the best cost reached at
each budget — the convergence series behind that choice.  Budgets are
scaled down (laptop CI-friendly) but the shape is what matters: cost is
non-increasing in budget and most of the improvement arrives early.
"""

from __future__ import annotations

from repro.cost import CostModel, sampled_evaluation
from repro.difftree import initial_difftree
from repro.layout import Screen
from repro.search import MCTS, MCTSConfig
from repro.workloads import listing1_queries

BUDGETS_S = (0.5, 2.0, 6.0)
SEED = 4


def test_cost_vs_budget(benchmark, table_printer):
    queries = listing1_queries()
    initial = initial_difftree(queries)
    initial_cost = sampled_evaluation(
        CostModel(queries, Screen.wide()), initial, k=5
    ).cost

    def run_sweep():
        costs = []
        for budget in BUDGETS_S:
            model = CostModel(queries, Screen.wide())
            config = MCTSConfig(time_budget_s=budget, seed=SEED)
            result = MCTS(model, config=config).open(initial).run()
            costs.append((budget, result.best_cost, result.stats.iterations,
                          result.stats.states_evaluated))
        return costs

    costs = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    rows = [("0 (initial state)", f"{initial_cost:.2f}", "-", "-")]
    rows += [
        (f"{budget:.1f}s", f"{cost:.2f}", iters, evals)
        for budget, cost, iters, evals in costs
    ]
    table_printer(
        "T-RT — best cost vs MCTS wall-clock budget (Listing-1 log)",
        ["budget", "best cost", "iterations", "states evaluated"],
        rows,
    )
    series = [cost for _, cost, _, _ in costs]
    # Shape: non-increasing in budget, and better than the initial state.
    assert all(b <= a + 1e-9 for a, b in zip(series, series[1:]))
    assert series[-1] <= initial_cost


def test_incumbent_history_is_monotone(benchmark, table_printer):
    queries = listing1_queries()
    model = CostModel(queries, Screen.wide())
    initial = initial_difftree(queries)

    result = benchmark.pedantic(
        lambda: MCTS(model, config=MCTSConfig(time_budget_s=4.0, seed=SEED))
        .open(initial)
        .run(),
        rounds=1,
        iterations=1,
    )
    table_printer(
        "T-RT — incumbent improvements over time",
        ["elapsed (s)", "best cost"],
        [(f"{t:.2f}", f"{c:.2f}") for t, c in result.history],
    )
    costs = [c for _, c in result.history]
    assert costs == sorted(costs, reverse=True)
