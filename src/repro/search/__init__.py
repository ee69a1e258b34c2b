"""Search strategies: MCTS (the paper's contribution) and baselines.

Every strategy is a resumable :class:`SearchTask` (``open`` → ``step`` →
``result``) built from the cost model, the rule engine and the one
:class:`~repro.core.GenerationConfig`; ``run()`` is the monolithic run,
one unbounded step.  Constructing a baseline opens it
(``RandomSearchTask(model, initial, engine, config).run()``); MCTS opens
explicitly, so a session can seed it with warm states
(``MCTS(model, engine, config).open(initial).run()``).
"""

from .carry import CarriedTree, CarryStats
from .baselines import (
    BeamSearchTask,
    ExhaustiveSearchTask,
    GreedySearchTask,
    RandomSearchTask,
)
from .common import (
    SearchResult,
    SearchStats,
    SearchTask,
    StateEvaluator,
    normalized_reward,
)
from .mcts import MCTS

__all__ = [
    "CarriedTree",
    "CarryStats",
    "MCTS",
    "RandomSearchTask",
    "GreedySearchTask",
    "BeamSearchTask",
    "ExhaustiveSearchTask",
    "SearchResult",
    "SearchStats",
    "SearchTask",
    "StateEvaluator",
    "normalized_reward",
]
