"""Search strategies: MCTS (the paper's contribution) and baselines.

Every strategy is a resumable :class:`SearchTask` (``open`` → ``step`` →
``result``); ``run()`` is the monolithic run, one unbounded step.
Construct a baseline task directly
(``RandomSearchTask(model, initial, ...).run()``); MCTS opens through its
search instance (``MCTS(model, config=...).open(initial).run()``).
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
from .mcts import MCTS, MCTSConfig, MCTSTask

__all__ = [
    "CarriedTree",
    "CarryStats",
    "MCTS",
    "MCTSConfig",
    "MCTSTask",
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
