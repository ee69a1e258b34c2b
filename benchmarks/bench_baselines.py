"""T-CMP: MCTS versus search baselines and the bottom-up miner.

The paper's implicit comparison: top-down MCTS search under the full cost
model versus (a) naive search in the same space and (b) the bottom-up
Zhang/Sellam/Wu 2017 miner that ignores layout and query order.  Equal
wall-clock budgets for the search strategies; the miner is deterministic
and effectively instant.
"""

from __future__ import annotations

from repro.cost import CostModel, sampled_evaluation
from repro.difftree import initial_difftree
from repro.layout import Screen
from repro.mining import evaluate_mined, mine_interface
from repro.search import (
    MCTS,
    BeamSearchTask,
    GreedySearchTask,
    MCTSConfig,
    RandomSearchTask,
)
from repro.workloads import listing1_queries

BUDGET_S = 5.0
SEED = 21


def test_strategies_on_sdss_log(benchmark, table_printer):
    queries = listing1_queries()
    initial = initial_difftree(queries)

    def run_all():
        results = {}
        results["mcts"] = MCTS(
            CostModel(queries, Screen.wide()),
            config=MCTSConfig(time_budget_s=BUDGET_S, seed=SEED),
        ).open(initial).run()
        results["random"] = RandomSearchTask(
            CostModel(queries, Screen.wide()),
            initial,
            time_budget_s=BUDGET_S,
            seed=SEED,
        ).run()
        results["greedy"] = GreedySearchTask(
            CostModel(queries, Screen.wide()),
            initial,
            time_budget_s=BUDGET_S,
            restarts=2,
            seed=SEED,
        ).run()
        results["beam"] = BeamSearchTask(
            CostModel(queries, Screen.wide()),
            initial,
            beam_width=6,
            max_depth=20,
            time_budget_s=BUDGET_S,
            seed=SEED,
        ).run()
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    model = CostModel(queries, Screen.wide())
    mined = evaluate_mined(model, mine_interface(queries))
    initial_cost = sampled_evaluation(model, initial, k=5).cost

    rows = [("initial state (whole-query chooser)", f"{initial_cost:.2f}", "-", "-")]
    for name in ("mcts", "random", "greedy", "beam"):
        result = results[name]
        rows.append(
            (
                name,
                f"{result.best_cost:.2f}",
                result.stats.states_evaluated,
                f"{result.elapsed:.1f}s",
            )
        )
    mined_cost = (
        f"{mined.evaluation.cost:.2f}"
        if mined.evaluation.breakdown.feasible
        else f"inf (M={mined.evaluation.breakdown.m_cost:.1f})"
    )
    rows.append(
        (
            f"bottom-up miner (expr {mined.expressible_fraction:.0%})",
            mined_cost,
            "-",
            "<0.1s",
        )
    )
    table_printer(
        "T-CMP — final cost by strategy (Listing-1 log, equal budgets)",
        ["strategy", "best cost", "states evaluated", "elapsed"],
        rows,
    )

    mcts_cost = results["mcts"].best_cost
    # Shape: MCTS is at least as good as every naive baseline, and the
    # search-based interfaces beat the whole-query initial state.
    assert mcts_cost <= results["random"].best_cost + 1e-6
    assert mcts_cost <= results["greedy"].best_cost + 1e-6
    assert mcts_cost < initial_cost


def test_mcts_beats_miner_under_full_objective(benchmark, table_printer):
    queries = listing1_queries()
    model = CostModel(queries, Screen.wide())

    mined = benchmark.pedantic(
        lambda: evaluate_mined(model, mine_interface(queries)),
        rounds=1,
        iterations=1,
    )
    searched = MCTS(
        CostModel(queries, Screen.wide()),
        config=MCTSConfig(time_budget_s=BUDGET_S, seed=SEED),
    ).open(initial_difftree(queries)).run()
    table_printer(
        "T-CMP — MCTS vs bottom-up miner",
        ["approach", "cost", "feasible", "expressible"],
        [
            (
                "MCTS (this paper)",
                f"{searched.best_cost:.2f}",
                searched.best.breakdown.feasible,
                "100%",
            ),
            (
                "Zhang et al. 2017 miner",
                f"{mined.evaluation.cost:.2f}",
                mined.evaluation.breakdown.feasible,
                f"{mined.expressible_fraction:.0%}",
            ),
        ],
    )
    if mined.evaluation.breakdown.feasible:
        assert searched.best_cost <= mined.evaluation.cost + 1e-6
