"""Shared search infrastructure: evaluation cache, results, and tasks.

Every search strategy (MCTS and the baselines) scores difftree states the
same way — best of ``k`` sampled widget assignments under the cost model —
so they are comparable head-to-head.  The :class:`StateEvaluator` caches
those scores by canonical state key, and a :class:`SearchResult` records
the winner plus a convergence history for the benchmark harness.

Strategies are *resumable*: each one is a :class:`SearchTask` state
machine (``open`` at construction → repeated :meth:`SearchTask.step` →
:meth:`SearchTask.result`) instead of a blocking run-to-completion
function.  Every task is built from the same three arguments — the cost
model, the rule engine and the :class:`~repro.core.GenerationConfig` —
so the strategies share one set of settings.  A task owns its RNG
(through its evaluator), so an iteration-capped run stepped in slices is
bit-for-bit identical to a monolithic one at equal totals.  Time budgets
count wall clock from the evaluator's :meth:`StateEvaluator.restart_clock`.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..cost import (
    BoundedLRU,
    CostModel,
    EvaluatedInterface,
    exhaustive_evaluation,
    sampled_evaluation,
)
from ..difftree import DTNode
from ..obs import REGISTRY as _OBS_REGISTRY
from ..obs import enabled as _obs_enabled
from ..obs import trace as _trace
from ..rules import RuleEngine

if TYPE_CHECKING:
    from ..core import GenerationConfig

#: Bound of the per-state evaluation cache (entries, LRU-evicted).
_STATE_CACHE_CAPACITY = 100_000


@dataclass
class SearchStats:
    """Counters shared by all strategies.

    ``frontier_peak`` / ``frontier_refreshes`` are MCTS-only: the largest
    unexpanded-frontier size seen, and how many stale heap entries the
    lazy UCT max-heap re-scored on pop (see ``MCTS._select``).
    ``warm_states_seeded`` counts warm-start states injected into the
    transposition table before the search loop (``repro.serve``).
    The ``kernel_*`` counters snapshot the cost model's compiled-kernel
    activity at the end of the run (see ``repro.cost.kernel``):
    candidate evaluations split into full vector loads and single-choice
    delta patches, plus how many widget trees had to fall back to the
    reference evaluator.
    """

    iterations: int = 0
    states_evaluated: int = 0
    states_expanded: int = 0
    walk_steps: int = 0
    max_fanout: int = 0
    max_depth: int = 0
    frontier_peak: int = 0
    frontier_refreshes: int = 0
    warm_states_seeded: int = 0
    kernel_compiles: int = 0
    # How candidates were *routed* (full loads vs delta patches) is not
    # a search outcome, so the split is excluded from equality:
    # ``SearchStats ==`` asserts search-outcome parity (the parity
    # oracles in tests compare stats across gate settings).
    kernel_full_evals: int = field(default=0, compare=False)
    kernel_delta_evals: int = field(default=0, compare=False)
    kernel_fallback_evals: int = 0
    kernel_sequences_extended: int = 0
    #: Always 0: candidates are scored one at a time.  Kept for its one
    #: reader, perfbench's trace (its ``cost.candidates.batched``).
    kernel_batched_evals: int = field(default=0, compare=False)


@dataclass
class SearchResult:
    """Outcome of one search run.

    Attributes:
        best: the final optimized interface (widget tree + cost).
        best_state: the winning difftree.
        history: ``(elapsed_seconds, best_cost_so_far)`` samples recorded
            every time the incumbent improves.
        stats: counters (iterations, evaluations, fanout, …).
        elapsed: total wall-clock seconds.
        strategy: name of the search strategy that produced this result.
    """

    best: EvaluatedInterface
    best_state: DTNode
    history: List[Tuple[float, float]]
    stats: SearchStats
    elapsed: float
    strategy: str

    @property
    def best_cost(self) -> float:
        return self.best.cost


class StateEvaluator:
    """Caches sampled state costs; tracks the global incumbent."""

    def __init__(
        self,
        model: CostModel,
        k_assignments: int = 5,
        seed: int = 0,
    ) -> None:
        self.model = model
        self.k_assignments = k_assignments
        self.rng = random.Random(seed)
        #: state canonical key -> sampled evaluation.  Bounded LRU: long
        #: serving sessions evict cold states one at a time instead of the
        #: previous wholesale ``.clear()`` that also dropped the incumbent.
        self._cache: BoundedLRU = BoundedLRU(
            _STATE_CACHE_CAPACITY, name="search.states"
        )
        #: Canonical keys already given the exhaustive widget pass (at the
        #: cap they were evaluated with) — lets finalize skip a recompute.
        self._exhaustive: Dict[str, int] = {}
        self.best: Optional[EvaluatedInterface] = None
        self.history: List[Tuple[float, float]] = []
        #: ``perf_counter`` stamp the search's time budget counts from.
        self._started = time.perf_counter()
        self.stats = SearchStats()

    def restart_clock(self) -> None:
        """Restart the search clock and its convergence history."""
        self._started = time.perf_counter()
        self.history = []

    @property
    def elapsed(self) -> float:
        """Wall-clock seconds since the clock (re)started."""
        return time.perf_counter() - self._started

    def evaluate(self, state: DTNode) -> EvaluatedInterface:
        """Sampled cost of a state (cached; updates the incumbent)."""
        key = state.canonical_key
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        evaluated = sampled_evaluation(
            self.model, state, k=self.k_assignments, rng=self.rng
        )
        self._cache[key] = evaluated
        self.stats.states_evaluated += 1
        if self.best is None or evaluated.rank < self.best.rank:
            self.best = evaluated
            self.history.append((self.elapsed, evaluated.cost))
        return evaluated

    def evaluate_many(self, states: List[DTNode]) -> List[EvaluatedInterface]:
        """Evaluate a cohort of states in argument order (cache-aware).

        Cohort order fixes the shared-RNG consumption order, so callers
        submitting the same cohort get bit-identical results whether they
        step members one at a time or all at once.
        """
        return [self.evaluate(state) for state in states]

    def seed_incumbent(self, state: DTNode, final_cap: int = 4000) -> EvaluatedInterface:
        """Thoroughly evaluate a known-good state before a search starts.

        The warm-start path of :mod:`repro.serve` calls this with the
        previous run's best difftree (extended to the appended queries)
        so the incumbent — and the adaptive reward normalization of any
        strategy sharing this evaluator — starts from the prior optimum
        instead of from scratch.  Uses the exhaustive widget pass rather
        than ``k`` samples: a seed's incumbent entry must reflect its
        true quality, or one unlucky sampled assignment lets a weaker
        state steal the incumbent and the warm start loses its floor.
        """
        key = state.canonical_key
        evaluated = exhaustive_evaluation(self.model, state, cap=final_cap)
        self._cache[key] = evaluated
        self._exhaustive[key] = final_cap
        self.stats.states_evaluated += 1
        if self.best is None or evaluated.rank < self.best.rank:
            self.best = evaluated
            self.history.append((self.elapsed, evaluated.cost))
        return evaluated

    def finalize(self, final_cap: int = 4000) -> EvaluatedInterface:
        """Paper's final phase: thorough widget optimization of the winner."""
        if self.best is None:
            raise RuntimeError("no state was evaluated")
        key = self.best.tree.canonical_key
        if self._exhaustive.get(key, 0) >= final_cap:
            # Already exhaustively optimized (a warm-start seed that kept
            # the incumbent) — the most expensive pass of a serving run
            # must not be paid twice for the same tree.
            return self.best
        optimized = exhaustive_evaluation(self.model, self.best.tree, cap=final_cap)
        self._exhaustive[key] = final_cap
        if optimized.rank < self.best.rank:
            self.best = optimized
            self.history.append((self.elapsed, optimized.cost))
        return self.best

    def snapshot_kernel_stats(self) -> None:
        """Copy the model's compiled-kernel counters into the stats."""
        kernel = self.model.kernel_stats
        self.stats.kernel_compiles = kernel.kernels_compiled
        self.stats.kernel_full_evals = kernel.full_evals
        self.stats.kernel_delta_evals = kernel.delta_evals
        self.stats.kernel_fallback_evals = kernel.fallback_evals
        self.stats.kernel_sequences_extended = kernel.sequences_extended


def _record_search_metrics(result: "SearchResult") -> None:
    """Absorb one finished run's :class:`SearchStats` into the registry.

    Called once per task (guarded by the task) when observability is
    enabled: the per-run dataclass counters stay exactly as they were —
    zero hot-path cost — and the process-wide ``search.*`` /
    ``cost.kernel.*`` dotted metrics accumulate across runs, which is
    what a dashboard wants.
    """
    reg = _OBS_REGISTRY
    stats = result.stats
    reg.counter("search.runs").inc()
    reg.counter("search.iterations").inc(stats.iterations)
    reg.counter("search.states_evaluated").inc(stats.states_evaluated)
    reg.counter("search.states_expanded").inc(stats.states_expanded)
    reg.counter("search.walk_steps").inc(stats.walk_steps)
    reg.counter("search.warm_states_seeded").inc(stats.warm_states_seeded)
    reg.counter("cost.kernel.compiles").inc(stats.kernel_compiles)
    reg.counter("cost.kernel.full_evals").inc(stats.kernel_full_evals)
    reg.counter("cost.kernel.delta_evals").inc(stats.kernel_delta_evals)
    reg.counter("cost.kernel.fallback_evals").inc(stats.kernel_fallback_evals)
    reg.counter("cost.kernel.sequences_extended").inc(
        stats.kernel_sequences_extended
    )
    reg.histogram("search.elapsed_s").observe(result.elapsed)
    if math.isfinite(result.best_cost):
        reg.histogram("search.best_cost").observe(result.best_cost)


def finish_search(
    evaluator: StateEvaluator, strategy: str, final_cap: int = 4000
) -> SearchResult:
    """Shared end-of-search phase for every strategy.

    Runs the paper's thorough widget pass on the incumbent, snapshots
    the compiled-kernel counters, and packages the :class:`SearchResult`.
    """
    best = evaluator.finalize(final_cap=final_cap)
    evaluator.snapshot_kernel_stats()
    return SearchResult(
        best=best,
        best_state=best.tree,
        history=list(evaluator.history),
        stats=evaluator.stats,
        elapsed=evaluator.elapsed,
        strategy=strategy,
    )


class SearchTask:
    """A resumable search: construct (open) → :meth:`step` → :meth:`result`.

    Every strategy is built from the cost model to score states under,
    the rule engine whose moves it explores, and the
    :class:`~repro.core.GenerationConfig` holding every setting (budget,
    iteration cap, ``k``, seed, walk length, final cap); a baseline also
    takes the initial state, MCTS takes it in ``open``.  Subclasses
    implement :meth:`_iterate` — one indivisible unit of work
    (an MCTS expansion, one random walk, one hill-climbing sweep, one
    beam level, one BFS expansion) — and the base class owns slicing,
    budget accounting, and termination:

    * ``step(n_iterations=...)`` runs at most that many units and
      returns how many ran.  Iteration-sliced stepping is bit-for-bit
      identical to a monolithic run at equal totals: all mutable state
      (RNG, evaluator cache, incumbent, frontier) lives in the task, and
      no stop decision of an iteration-capped run depends on the clock.
    * The time budget's end propagates into ``self._deadline`` so long
      inner loops (random walks) yield mid-unit.
    * The task is ``done`` when its strategy exhausts itself
      (:meth:`_iterate` returns False), its ``max_iterations`` cap is
      reached, or its time budget is spent.  A slice boundary never
      marks a task done.

    ``time_budget_s`` semantics: ``None`` means no time stop (strategies
    like exhaustive search that terminate on their own); ``<= 0`` means
    "iteration-capped only" when ``max_iterations > 0`` and "stop
    immediately" otherwise (the config refuses a strategy that would
    have no stop condition).

    :meth:`result` may be called at any time — before completion it
    packages the incumbent found so far.
    """

    #: Name recorded on the :class:`SearchResult` (subclasses override).
    strategy = "task"

    def __init__(
        self, model: CostModel, engine: RuleEngine, config: "GenerationConfig"
    ) -> None:
        self.engine = engine
        self.config = config
        self.evaluator = StateEvaluator(
            model, k_assignments=config.k_assignments, seed=config.seed
        )
        self.time_budget_s: Optional[float] = config.time_budget_s
        self.max_iterations = config.max_iterations
        self.final_cap = config.final_cap
        #: Wall-clock end of the time budget for the current unit's inner
        #: loops (``inf`` when unconstrained).
        self._deadline = math.inf
        self._finished = False
        #: Whether this task's stats were absorbed into the metrics
        #: registry (once per task, on :meth:`result`).
        self._metrics_recorded = False

    # -- introspection ------------------------------------------------------

    @property
    def done(self) -> bool:
        """Whether the task has terminated (stepping further is a no-op)."""
        return self._finished

    @property
    def iterations(self) -> int:
        """The strategy's iteration counter (drives ``max_iterations``)."""
        return self.evaluator.stats.iterations

    def _budget_left(self) -> float:
        if self.time_budget_s is None:
            return math.inf
        if self.time_budget_s <= 0:
            return math.inf if self.max_iterations > 0 else 0.0
        return self.time_budget_s - self.evaluator.elapsed

    # -- the state machine --------------------------------------------------

    def step(self, n_iterations: Optional[int] = None) -> int:
        """Run up to ``n_iterations`` units.

        Returns the number of units performed (0 once ``done``).  With no
        arguments, runs until the task terminates on its own stop
        conditions — the monolithic path.
        """
        if self._finished:
            return 0
        performed = 0
        with _trace("search.step", strategy=self.strategy):
            while True:
                if self.max_iterations and self.iterations >= self.max_iterations:
                    self._finished = True
                    break
                budget_left = self._budget_left()
                if budget_left <= 0:
                    self._finished = True
                    break
                if n_iterations is not None and performed >= n_iterations:
                    break
                self._deadline = time.perf_counter() + budget_left
                if not self._iterate():
                    self._finished = True
                    break
                performed += 1
        return performed

    def run(self) -> "SearchResult":
        """Monolithic convenience: step to completion and package."""
        self.step()
        return self.result()

    def result(self) -> "SearchResult":
        """Package the incumbent (thorough final widget pass included)."""
        outcome = finish_search(
            self.evaluator, self.strategy, final_cap=self.final_cap
        )
        if not self._metrics_recorded and _obs_enabled():
            self._metrics_recorded = True
            _record_search_metrics(outcome)
        return outcome

    # -- strategy body ------------------------------------------------------

    def _iterate(self) -> bool:
        """One unit of work; False when the strategy is exhausted.

        Implementations honor ``self._deadline`` in long inner loops and
        maintain their own :class:`SearchStats` exactly as the
        pre-refactor monolithic loops did.
        """
        raise NotImplementedError


def normalized_reward(cost: float, best: float, worst: float) -> float:
    """Map a cost onto [0, 1] rewards (1 = best seen, 0 = worst/infeasible)."""
    if math.isinf(cost):
        return 0.0
    if worst <= best:
        return 1.0
    return max(0.0, min(1.0, (worst - cost) / (worst - best)))
