"""The library front door: one call from query log to interface.

    from repro import generate_interface, Screen

    result = generate_interface(
        ["select a from t where x < 1", "select b from t where x < 2"],
        screen=Screen.wide(),
        config=GenerationConfig(time_budget_s=10.0),
    )
    print(result.ascii_art)

For repeated generation over a growing log — and for the structured
:class:`~repro.engine.GenerationReport` envelope — see the session-
oriented :class:`repro.engine.Engine`, which supersedes this module as
the primary entry point.  ``generate_interface`` remains as a thin
stable shim over the same search dispatch: the strategy is chosen by
name from :data:`STRATEGIES`, and every strategy's task is built from
the model, the rule engine and the one :class:`GenerationConfig`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from ..cost import CostModel, CostWeights, EvaluatedInterface
from ..database import Database
from ..difftree import DTNode, as_asts, initial_difftree
from ..interface import InterfaceSession, render_ascii, render_html
from ..layout import Screen
from ..rules import DEFAULT_RULE_NAMES, RuleEngine, default_engine
from ..search import (
    MCTS,
    BeamSearchTask,
    ExhaustiveSearchTask,
    GreedySearchTask,
    RandomSearchTask,
    SearchResult,
    SearchTask,
)
from ..sqlast import Node


@dataclass(frozen=True)
class GenerationConfig:
    """End-to-end generation settings.

    Invalid settings raise :class:`ValueError` at *construction* — a
    negative budget, a misspelled strategy/rule name or a search that
    cannot stop must not surface minutes later from inside a search.

    Attributes:
        strategy: search strategy, one of :data:`STRATEGIES` (``"mcts"``
            is the paper's; the others are its baselines).
        time_budget_s: wall-clock search budget (paper used ~60 s).
            Every strategy but ``"exhaustive"`` needs it positive, except
            ``"mcts"`` with a positive ``max_iterations``; the exhaustive
            search ignores it.
        k_assignments: widget-assignment samples per state reward.
        exploration_c: UCT exploration constant (MCTS only).
        max_walk_steps: random-walk cap (paper: 200; MCTS and random).
        max_iterations: hard cap on a task's units of work, 0 =
            unlimited (useful for deterministic equal-work comparisons);
            only ``"mcts"`` may use it as its sole stop condition.
        seed: RNG seed for reproducible generation.
        weights: cost-term weights.
        exclude_rules: rule names to disable (ablations).
        final_cap: widget-enumeration cap for the final phase.
    """

    strategy: str = "mcts"
    time_budget_s: float = 5.0
    k_assignments: int = 5
    exploration_c: float = 1.4
    max_walk_steps: int = 200
    max_iterations: int = 0
    seed: int = 0
    weights: CostWeights = field(default_factory=CostWeights)
    exclude_rules: Sequence[str] = ()
    final_cap: int = 4000

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r} "
                f"(have: {', '.join(STRATEGIES)})"
            )
        if not 0 <= self.time_budget_s < math.inf:
            raise ValueError(
                f"time_budget_s must be finite and >= 0, got {self.time_budget_s}"
            )
        if self.k_assignments < 1:
            raise ValueError(f"k_assignments must be >= 1, got {self.k_assignments}")
        if self.max_walk_steps < 1:
            raise ValueError(f"max_walk_steps must be >= 1, got {self.max_walk_steps}")
        if self.max_iterations < 0:
            raise ValueError(f"max_iterations must be >= 0, got {self.max_iterations}")
        if not 0 <= self.exploration_c < math.inf:
            raise ValueError(
                f"exploration_c must be finite and >= 0, got {self.exploration_c}"
            )
        if self.final_cap < 1:
            raise ValueError(f"final_cap must be >= 1, got {self.final_cap}")
        # Only MCTS may stop on max_iterations alone: the baselines are
        # compared with it at equal wall clock, and their units (a whole
        # walk, sweep or beam level) are not MCTS iterations.
        if self.time_budget_s <= 0 and self.strategy != "exhaustive":
            if self.strategy != "mcts":
                raise ValueError(
                    f"strategy {self.strategy!r} needs a stop condition: set "
                    "time_budget_s > 0 (it does not consume max_iterations as one)"
                )
            if self.max_iterations == 0:
                raise ValueError(
                    "strategy 'mcts' needs a stop condition: set "
                    "time_budget_s > 0 or max_iterations > 0"
                )
        unknown = set(self.exclude_rules) - set(DEFAULT_RULE_NAMES)
        if unknown:
            raise ValueError(
                f"unknown exclude_rules names: {sorted(unknown)} "
                f"(have: {', '.join(DEFAULT_RULE_NAMES)})"
            )


@dataclass
class GeneratedInterface:
    """Everything a caller needs from one generation run."""

    queries: List[Node]
    screen: Screen
    search: SearchResult
    best: EvaluatedInterface

    @property
    def cost(self) -> float:
        return self.best.cost

    @property
    def difftree(self) -> DTNode:
        return self.best.tree

    @property
    def widget_tree(self):
        return self.best.widget_tree

    @property
    def ascii_art(self) -> str:
        return render_ascii(self.best.widget_tree)

    def html(self, title: str = "Generated interface") -> str:
        return render_html(self.best.widget_tree, title=title)

    def session(self, db: Optional[Database] = None) -> InterfaceSession:
        """Open an interactive session on this interface."""
        return InterfaceSession(
            self.difftree,
            self.widget_tree,
            db=db,
            initial_query=self.queries[0],
        )


def prepare_search(
    queries: Sequence[Union[str, Node]],
    screen: Optional[Screen] = None,
    config: Optional[GenerationConfig] = None,
) -> Tuple[List[Node], Screen, CostModel, DTNode, RuleEngine]:
    """Build the shared search ingredients for a query log.

    The rule engine is the paper's full rule set minus
    ``config.exclude_rules``.  Used by :func:`generate_interface`,
    :class:`repro.engine.Engine`, and :mod:`repro.serve`, which drives
    the search itself (to warm-start and to keep the node table).
    """
    config = config or GenerationConfig()
    asts = as_asts(queries)
    screen = screen or Screen.wide()
    engine = default_engine(exclude=config.exclude_rules or None)
    model = CostModel(asts, screen, weights=config.weights)
    initial = initial_difftree(asts)
    return asts, screen, model, initial, engine


# -- strategies ----------------------------------------------------------------
#
# Each strategy opens one resumable, cold SearchTask from
# (model, initial, engine, config).  run_search() runs the task to
# completion in one step; a caller may also step it in slices.


def _open_mcts(model, initial, engine, config) -> MCTS:
    return MCTS(model, engine, config).open(initial)


#: Strategy name -> the callable opening its search task.
_OPENERS = {
    "mcts": _open_mcts,  # the paper's search; sessions warm-start it
    "random": RandomSearchTask,
    "greedy": GreedySearchTask,
    "beam": BeamSearchTask,
    "exhaustive": ExhaustiveSearchTask,  # stops on its own: tiny logs only
}

#: The ``GenerationConfig.strategy`` names.
STRATEGIES = tuple(_OPENERS)


def open_search_task(
    model: CostModel,
    initial: DTNode,
    engine: RuleEngine,
    config: GenerationConfig,
) -> SearchTask:
    """Open (but do not run) a cold, resumable search task for ``config``.

    The opened :class:`~repro.search.SearchTask` is returned for the
    caller — :func:`run_search`, or code stepping it in slices — to
    drive via ``step()``.  The config already guarantees a stop condition.
    Sessions open their warm-started MCTS tasks through
    :meth:`repro.serve.IncrementalGenerator.open_search` instead.
    """
    return _OPENERS[config.strategy](model, initial, engine, config)


def run_search(
    model: CostModel,
    initial: DTNode,
    engine: RuleEngine,
    config: GenerationConfig,
) -> SearchResult:
    """Run one search: the task :func:`open_search_task` opens, as one
    unbounded ``step()``."""
    return open_search_task(model, initial, engine, config).run()


def generate_interface(
    queries: Sequence[Union[str, Node]],
    screen: Optional[Screen] = None,
    config: Optional[GenerationConfig] = None,
) -> GeneratedInterface:
    """Generate an interactive interface for a SQL query log.

    This is the uncached library form of :meth:`repro.engine.Engine.generate`:
    the same cold search, without the engine's cache, sessions and
    structured reports.

    Args:
        queries: the input log — SQL strings or pre-parsed ASTs, in
            session order (order matters: the ``U`` cost models stepping
            through the log sequentially).
        screen: output screen constraint (default: wide).
        config: generation settings (default: ``GenerationConfig()``);
            ``config.exclude_rules`` selects the rule subset.

    Returns:
        A :class:`GeneratedInterface` bundling the winning difftree,
        widget tree, cost, and search diagnostics.
    """
    config = config or GenerationConfig()
    asts, screen, model, initial, engine = prepare_search(
        queries, screen=screen, config=config
    )
    result = run_search(model, initial, engine, config)
    return GeneratedInterface(
        queries=asts, screen=screen, search=result, best=result.best
    )
