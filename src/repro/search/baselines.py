"""Search baselines MCTS is compared against.

* :class:`RandomSearchTask` — repeated random walks, keep the best state
  seen.  Same move set, no statistics: isolates the value of UCT
  guidance.
* :class:`GreedySearchTask` — steepest-descent hill climbing on state
  cost; gets stuck in local minima the paper's bidirectional rules are
  designed to escape.
* :class:`BeamSearchTask` — breadth-limited systematic search.
* :class:`ExhaustiveSearchTask` — full BFS with state dedup up to a cap;
  the exact optimum within its horizon, tractable only for tiny logs
  (used to validate MCTS answer quality in tests).

Every baseline is a resumable :class:`~repro.search.common.SearchTask`
built as ``Cls(model, initial, engine, config)`` — constructing it opens
it — and stepped exactly like MCTS; ``run()`` is one unbounded step.
One unit of work per strategy: a full random walk, one hill-climbing
sweep, one beam level, one BFS expansion.
"""

from __future__ import annotations

import random
import time
from typing import TYPE_CHECKING, List, Optional, Set

from ..cost import CostModel
from ..difftree import DTNode
from ..rules import RuleEngine
from .common import SearchTask

if TYPE_CHECKING:
    from ..core import GenerationConfig

#: States the beam keeps at each depth.
BEAM_WIDTH = 8

#: Levels the beam descends before it stops.
BEAM_MAX_DEPTH = 30

#: Exhaustive search stops once it has discovered this many states.
EXHAUSTIVE_MAX_STATES = 2000


class RandomSearchTask(SearchTask):
    """Random walks from the initial state; evaluate every visited state."""

    strategy = "random"

    def __init__(
        self,
        model: CostModel,
        initial: DTNode,
        engine: RuleEngine,
        config: "GenerationConfig",
    ) -> None:
        super().__init__(model, engine, config)
        self._rng = random.Random(config.seed)
        self._initial = initial
        self.evaluator.evaluate(initial)

    def _iterate(self) -> bool:
        current = self._initial
        for _ in range(self.config.max_walk_steps):
            if time.perf_counter() >= self._deadline:
                break
            move = self.engine.random_move(current, self._rng)
            if move is None:
                break
            current = self.engine.apply(current, move)
            self.evaluator.evaluate(current)
            self.evaluator.stats.walk_steps += 1
        self.evaluator.stats.iterations += 1
        return True  # fresh walks are always available


class GreedySearchTask(SearchTask):
    """Steepest-descent hill climbing; a local minimum ends the task.

    One unit of work is one neighbor sweep: it moves to the cheapest
    improving neighbor or finds the local minimum.
    """

    strategy = "greedy"

    def __init__(
        self,
        model: CostModel,
        initial: DTNode,
        engine: RuleEngine,
        config: "GenerationConfig",
    ) -> None:
        super().__init__(model, engine, config)
        #: Current descent position (None once a sweep found the local
        #: minimum).
        self._current: Optional[DTNode] = initial
        self._current_cost = self.evaluator.evaluate(initial).cost

    def _iterate(self) -> bool:
        if self._current is None:
            return False
        evaluator = self.evaluator
        neighbors = self.engine.neighbors(self._current)
        evaluator.stats.max_fanout = max(
            evaluator.stats.max_fanout, len(neighbors)
        )
        best_state = None
        best_cost = self._current_cost
        for _, successor in neighbors:
            cost = evaluator.evaluate(successor).cost
            if cost < best_cost:
                best_cost = cost
                best_state = successor
        if best_state is None:
            # The sweep was work done, so it counts as a unit; the next
            # one ends the task.
            self._current = None
            return True
        self._current, self._current_cost = best_state, best_cost
        evaluator.stats.iterations += 1
        return True


class BeamSearchTask(SearchTask):
    """Keep the :data:`BEAM_WIDTH` cheapest states at each depth."""

    strategy = "beam"

    def __init__(
        self,
        model: CostModel,
        initial: DTNode,
        engine: RuleEngine,
        config: "GenerationConfig",
    ) -> None:
        super().__init__(model, engine, config)
        self._depth = 0
        self._beam: List[DTNode] = [initial]
        self._seen: Set[str] = {initial.canonical_key}
        self.evaluator.evaluate(initial)

    def _iterate(self) -> bool:
        if self._depth >= BEAM_MAX_DEPTH:
            return False
        evaluator = self.evaluator
        # Collect the level's unseen successors first, then score them as
        # one cohort: discovery order is evaluation order, so results are
        # bit-identical to the interleaved loop.
        frontier: List[DTNode] = []
        keys: List[str] = []
        for state in self._beam:
            for _, successor in self.engine.neighbors(state):
                key = successor.canonical_key
                if key in self._seen:
                    continue
                self._seen.add(key)
                frontier.append(successor)
                keys.append(key)
        evaluated = evaluator.evaluate_many(frontier)
        candidates = [
            (item.cost, key, state)
            for item, key, state in zip(evaluated, keys, frontier)
        ]
        if not candidates:
            return False
        candidates.sort(key=lambda item: (item[0], item[1]))
        self._beam = [state for _, _, state in candidates[:BEAM_WIDTH]]
        evaluator.stats.iterations += 1
        self._depth += 1
        evaluator.stats.max_depth = self._depth
        return True


class ExhaustiveSearchTask(SearchTask):
    """BFS over the whole (deduplicated) state space, up to
    :data:`EXHAUSTIVE_MAX_STATES`.

    Exact within its horizon; used on tiny logs to validate that MCTS
    finds the true optimum.  Terminates on its own (no time budget).
    """

    strategy = "exhaustive"

    def __init__(
        self,
        model: CostModel,
        initial: DTNode,
        engine: RuleEngine,
        config: "GenerationConfig",
    ) -> None:
        super().__init__(model, engine, config)
        self.time_budget_s = None
        self._queue: List[DTNode] = [initial]
        self._seen: Set[str] = {initial.canonical_key}
        self._index = 0
        self.evaluator.evaluate(initial)

    def _iterate(self) -> bool:
        if self._index >= len(self._queue) or len(self._seen) >= EXHAUSTIVE_MAX_STATES:
            return False
        evaluator = self.evaluator
        state = self._queue[self._index]
        self._index += 1
        neighbors = self.engine.neighbors(state)
        evaluator.stats.max_fanout = max(
            evaluator.stats.max_fanout, len(neighbors)
        )
        # Dedupe the expansion first, then score it as one cohort (same
        # order ⇒ same results; see BeamSearchTask._iterate).
        unseen: List[DTNode] = []
        for _, successor in neighbors:
            key = successor.canonical_key
            if key in self._seen:
                continue
            self._seen.add(key)
            unseen.append(successor)
        evaluator.evaluate_many(unseen)
        self._queue.extend(unseen)
        evaluator.stats.iterations += 1
        return True

