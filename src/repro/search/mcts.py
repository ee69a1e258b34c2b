"""Monte Carlo Tree Search over difftree states (the paper's search).

Faithful to the paper's description:

* UCT score per visited state: ``w/n + c·sqrt(ln N_parent / n)``.
* Each iteration picks the frontier state with the highest UCT, expands
  *all* of its immediate neighbor states, and performs one random walk of
  up to ``max_walk_steps`` (paper: 200) from each neighbor.
* The reward of a walk is the negated cost of its final state — we map
  costs onto [0, 1] with adaptive normalization so the exploration term
  stays on a comparable scale — and is backpropagated to every state on
  the path to the root.
* State costs are estimated by the best of ``k`` random widget
  assignments (greedy-seeded), scored through the compiled cost kernel
  (:mod:`repro.cost.kernel`): samples are decision vectors evaluated
  against per-state flat arrays, so a rollout step costs table lookups
  rather than widget-tree derivations and walks.
* The search stops on a wall-clock budget (paper: ~1 minute) or an
  iteration cap; the best difftree then receives an exhaustive widget
  enumeration pass.

States are deduplicated by canonical key (a transposition table), so the
UCT statistics of a state reached along two rewrite orders are shared.

Frontier selection uses a *lazy* max-heap keyed by UCT: entries are
pushed with the score current at push time, and a popped entry whose
stored score no longer matches the node's current UCT is re-pushed with
the fresh score instead of being selected.  Scores drift only through
visit-count updates (slowly, via the ``sqrt(ln N / n)`` term), so almost
all pops are exact and selection is O(log n) amortized instead of the
O(frontier) linear scan.

The search can be *warm-started* for incremental serving
(:mod:`repro.serve`): a prior node table can be injected at construction
and known-good states (e.g. the previous run's best difftree extended to
newly appended queries) can seed the transposition table and the
incumbent before the first iteration.

The search is a resumable :class:`~repro.search.common.SearchTask`,
built like every strategy from the cost model, the rule engine and the
:class:`~repro.core.GenerationConfig`: :meth:`MCTS.open` performs the
setup (root, frontier rebuild, warm seeding) and returns the task, whose
``step(n_iterations=...)`` runs bounded slices of the iteration loop.  A
monolithic run is ``open(...).run()``: one unbounded ``step`` +
``result``, so monolithic and sliced runs share every code path and are
bit-for-bit identical at equal iteration counts.
"""

from __future__ import annotations

import heapq
import math
import random
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..cost import CostModel
from ..difftree import DTNode
from ..rules import RuleEngine
from .common import SearchTask, normalized_reward

if TYPE_CHECKING:
    from ..core import GenerationConfig

#: The compressing (forward) rules used by the biased rollout policy.
_FORWARD_RULES = ("Lift", "Any2All", "Optional", "Multi")

#: Score drift below this is treated as exact when validating heap entries.
_SCORE_EPS = 1e-12

#: Per-step probability of ending a walk early — keeps walks well below
#: the cap on states whose neighborhoods never dry up (bidirectional rules).
WALK_STOP_PROB = 0.03

#: Probability that a rollout step samples only the *compressing* rules
#: (:data:`_FORWARD_RULES`).  Unbiased walks are dominated by Distribute
#: moves (hundreds per state) and rarely visit the well-factored region;
#: this informed-rollout bias restores signal while keeping inverse
#: moves available for escaping local structure.
ROLLOUT_FORWARD_BIAS = 0.75

#: Probability of also scoring an *intermediate* walk state (the paper scores
#: only the final one; this lets the incumbent catch states a walk passes).
WALK_EVAL_PROB = 0.3

#: Expansion samples at most this many neighbors (mid-space fanouts reach
#: the hundreds); the rest stay reachable by re-expanding their siblings.
MAX_CHILDREN = 24

#: At most this many of an expansion's new children get a random walk
#: (every child is still evaluated directly).  The paper walks from *all*
#: neighbors with a ~60 s budget; the cap suits second-scale budgets.
ROLLOUTS_PER_EXPANSION = 6

#: At most this fraction of the time budget may go to evaluating warm
#: states before the search loop, so seeding cannot starve the search.
WARM_SEED_BUDGET_FRAC = 0.5


@dataclass
class _TreeNode:
    state: DTNode
    parent_key: Optional[str]
    visits: int = 0
    reward_sum: float = 0.0
    expanded: bool = False
    depth: int = 0

    def mean_reward(self) -> float:
        return self.reward_sum / self.visits if self.visits else 0.0


class MCTS(SearchTask):
    """The paper's search over one query log, screen and config.

    One unit of work is one full MCTS iteration (selection, expansion,
    simulations, backpropagation), so ``step(3)`` + ``step(2)`` is
    bit-for-bit ``step(5)``.

    Args:
        model: cost model for the (full, current) query log.
        engine: rewrite-rule engine.
        config: the generation settings; MCTS reads ``exploration_c``
            and ``max_walk_steps`` beside the settings every task reads.
        node_table: optional transposition table to start from; every
            unexpanded entry re-enters the selection frontier.  Entries
            must describe states valid for *this* search's query log —
            :mod:`repro.serve` extends prior states to appended queries
            before injecting them.
    """

    strategy = "mcts"

    def __init__(
        self,
        model: CostModel,
        engine: RuleEngine,
        config: "GenerationConfig",
        node_table: Optional[Dict[str, _TreeNode]] = None,
    ) -> None:
        super().__init__(model, engine, config)
        self.rng = random.Random(config.seed)
        self.nodes: Dict[str, _TreeNode] = node_table if node_table is not None else {}
        #: Unexpanded node keys eligible for selection.
        self.frontier: set = set()
        self._heap: List[Tuple[float, int, str]] = []
        self._heap_seq = 0
        self._best_seen_cost = math.inf
        self._worst_seen_cost = -math.inf

    # -- public API ---------------------------------------------------------

    def open(self, initial: DTNode, warm_states: Sequence[DTNode] = ()) -> "MCTS":
        """Open the search from ``initial``; returns this task.

        Performs the whole pre-loop setup — root node, frontier rebuild,
        initial evaluation, warm-state seeding — so that ``step()`` runs
        only the iteration loop.  Setup time counts against the task's
        budget: the clock restarts when this call begins.  Open a task
        once.

        Args:
            initial: the root state (``ANY`` over the query log).
            warm_states: states expressing the full log that seed the
                transposition table and the incumbent before the first
                iteration (typically the previous run's best difftree
                extended to the appended queries).  Seeding costs budget
                like any other evaluation, so warm and cold runs at the
                same ``time_budget_s`` are directly comparable.
        """
        self.evaluator.restart_clock()

        root_key = initial.canonical_key
        root = self.nodes.get(root_key)
        if root is None:
            root = _TreeNode(state=initial, parent_key=None, depth=0)
            self.nodes[root_key] = root
        # Rebuild the frontier: every known-but-unexpanded state competes
        # for selection (covers both a fresh root and an injected table).
        self.frontier = set()
        self._heap = []
        for key, node in self.nodes.items():
            if not node.expanded:
                self._enter_frontier(key)
        self._observe_cost(self.evaluator.evaluate(initial).cost)
        self._backpropagate(root_key, self._reward_of(initial))

        self._seed_warm_states(root_key, warm_states)
        return self

    # -- internals -----------------------------------------------------------

    def _seed_warm_states(
        self, root_key: str, warm_states: Sequence[DTNode]
    ) -> None:
        """Inject known-good states as direct children of the root.

        At most :data:`WARM_SEED_BUDGET_FRAC` of a finite time budget may be
        spent here (measured from the clock restart in ``open``); an
        iteration-capped run without a time budget seeds every warm
        state — slicing must stay deterministic.
        """
        config = self.config
        seed_budget = (
            config.time_budget_s * WARM_SEED_BUDGET_FRAC
            if config.time_budget_s > 0
            else math.inf
        )
        primary = True
        for state in warm_states:
            if self.evaluator.elapsed >= seed_budget:
                break
            key = state.canonical_key
            if key == root_key:
                continue
            node = self.nodes.get(key)
            if node is None:
                node = _TreeNode(state=state, parent_key=root_key, depth=1)
                self.nodes[key] = node
                self._enter_frontier(key)
            if primary:
                # The first seed (the extended prior best) gets the
                # thorough widget pass: it is the incumbent *floor*, and
                # one unlucky sampled assignment must not let a weaker
                # state steal the incumbent from it.  Further seeds only
                # guide UCT — sampling is enough and far cheaper.
                primary = False
                evaluated = self.evaluator.seed_incumbent(
                    state, final_cap=config.final_cap
                )
                self._observe_cost(evaluated.cost)
                reward = normalized_reward(
                    evaluated.cost, self._best_seen_cost, self._worst_seen_cost
                )
            else:
                reward = self._reward_of(state)
            self._backpropagate(key, reward)
            self.evaluator.stats.warm_states_seeded += 1

    def _enter_frontier(self, key: str) -> None:
        self.frontier.add(key)
        self._push(key)
        self.evaluator.stats.frontier_peak = max(
            self.evaluator.stats.frontier_peak, len(self.frontier)
        )

    def _push(self, key: str) -> None:
        self._heap_seq += 1
        heapq.heappush(self._heap, (-self._uct(key), self._heap_seq, key))

    def _uct(self, key: str) -> float:
        node = self.nodes[key]
        if node.visits == 0:
            return math.inf
        parent = self.nodes.get(node.parent_key) if node.parent_key else None
        parent_visits = parent.visits if parent else node.visits
        explore = self.config.exploration_c * math.sqrt(
            math.log(max(parent_visits, 1) + 1) / node.visits
        )
        return node.mean_reward() + explore

    def _iterate(self) -> bool:
        if not self.frontier:
            return False
        key = self._select()
        node = self.nodes[key]
        node.expanded = True
        self.frontier.discard(key)
        self.evaluator.stats.states_expanded += 1

        # Sample moves *before* materializing successors: applying a move
        # costs O(subtree), so building every neighbor of a large serving
        # state (fanouts reach the thousands) just to sample MAX_CHILDREN
        # of them afterwards would dominate the iteration.
        moves = self.engine.moves(node.state)
        self.evaluator.stats.max_fanout = max(
            self.evaluator.stats.max_fanout, len(moves)
        )
        if len(moves) > MAX_CHILDREN:
            moves = self.rng.sample(moves, MAX_CHILDREN)
        # Phase 1 — materialize and dedupe the whole child cohort without
        # evaluating anything: applying moves is pure tree work, so the
        # expansion's evaluation demand is known up front.
        seen_children = {key}
        cohort: List[Tuple[str, DTNode]] = []
        for move in moves:
            successor = self.engine.apply(node.state, move)
            child_key = successor.canonical_key
            if child_key in seen_children:
                continue  # self-loop or duplicate under normalization
            seen_children.add(child_key)
            child = self.nodes.get(child_key)
            if child is None:
                child = _TreeNode(
                    state=successor, parent_key=key, depth=node.depth + 1
                )
                self.nodes[child_key] = child
                self._enter_frontier(child_key)
                self.evaluator.stats.max_depth = max(
                    self.evaluator.stats.max_depth, child.depth
                )
            cohort.append((child_key, successor))
        # Phase 2 — score the cohort in discovery order (see
        # StateEvaluator.evaluate_many).
        self.evaluator.evaluate_many([state for _, state in cohort])
        # Phase 3 — rewards, simulations, and backpropagation in cohort
        # order.  Direct evaluation keeps the incumbent exact for states
        # one move away; one simulation per child (paper: "a random walk
        # ... from all of its immediate neighbor states" — capped by
        # ROLLOUTS_PER_EXPANSION for small budgets).
        simulations_left = ROLLOUTS_PER_EXPANSION
        for child_key, successor in cohort:
            direct = self._reward_of(successor)
            if simulations_left > 0:
                simulations_left -= 1
                reward = self._simulate(successor)
            else:
                reward = direct
            self._backpropagate(child_key, reward)
            # Inner loops yield at the budget deadline step() computed.
            if time.perf_counter() >= self._deadline:
                break
        self.evaluator.stats.iterations += 1
        return True

    def _select(self) -> str:
        """Frontier state with the (approximately) highest UCT.

        Pops the best stored score; a stale entry (its node's UCT changed
        since the push, or the node already left the frontier) is
        discarded or re-pushed with the fresh score.  Within one call no
        statistics change, so each key is re-pushed at most once and the
        loop terminates.

        Laziness is one-sided: an entry whose current score *dropped* is
        always caught on pop, but one whose score *rose* (its parent's
        visit count grew through siblings) keeps its old, lower heap
        position until popped, so selection can briefly prefer another
        near-maximal node.  The rise is bounded by the slow-growing
        ``sqrt(ln N / n)`` term — and is identical for siblings sharing
        the parent, preserving their relative order — which is the
        trade accepted for O(log n) selection over the O(frontier) scan.
        """
        while self._heap:
            neg_score, _, key = heapq.heappop(self._heap)
            if key not in self.frontier:
                continue
            current = self._uct(key)
            if current == -neg_score or abs(current + neg_score) <= _SCORE_EPS:
                return key
            self.evaluator.stats.frontier_refreshes += 1
            self._push(key)
        # The heap only empties if the frontier did too; callers check
        # the frontier before iterating, so this is unreachable in the
        # search loop — kept as a hard failure for misuse.
        raise RuntimeError("selection on an empty frontier")

    def _simulate(self, state: DTNode) -> float:
        """Random walk of up to ``max_walk_steps``; reward of final state."""
        config = self.config
        current = state
        for _ in range(config.max_walk_steps):
            if self.rng.random() < WALK_STOP_PROB:
                break
            if time.perf_counter() >= self._deadline:
                break
            if self.rng.random() < ROLLOUT_FORWARD_BIAS:
                move = self.engine.random_move(
                    current, self.rng, rule_names=_FORWARD_RULES
                )
                if move is None:
                    move = self.engine.random_move(current, self.rng)
            else:
                move = self.engine.random_move(current, self.rng)
            if move is None:
                break
            current = self.engine.apply(current, move)
            self.evaluator.stats.walk_steps += 1
            if self.rng.random() < WALK_EVAL_PROB:
                self._reward_of(current)
        return self._reward_of(current)

    def _reward_of(self, state: DTNode) -> float:
        cost = self.evaluator.evaluate(state).cost
        self._observe_cost(cost)
        return normalized_reward(cost, self._best_seen_cost, self._worst_seen_cost)

    def _observe_cost(self, cost: float) -> None:
        if math.isinf(cost):
            return
        self._best_seen_cost = min(self._best_seen_cost, cost)
        self._worst_seen_cost = max(self._worst_seen_cost, cost)

    def _backpropagate(self, key: str, reward: float) -> None:
        cursor: Optional[str] = key
        seen = set()
        while cursor is not None and cursor not in seen:
            seen.add(cursor)
            node = self.nodes[cursor]
            node.visits += 1
            node.reward_sum += reward
            cursor = node.parent_key

