"""State evaluation: the best widget tree (and cost) of a difftree.

During MCTS the reward of a difftree state is estimated by sampling ``k``
widget assignments and keeping the cheapest (paper: "we randomly assign
widgets to the difftree k times and select the lowest cost"); we seed the
samples with the greedy assignment, which empirically tightens the
estimate at no extra cost.  After the search, the winning difftree gets a
thorough optimization pass: exhaustive enumeration when the decision
product is small, coordinate descent otherwise.

All paths run through the compiled kernel (:mod:`repro.cost.kernel`):
candidates are *decision vectors*, scored against flat arrays with delta
re-evaluation between enumeration neighbors.  An evaluation keeps its
difftree and winning vector, and derives the widget tree
(``derive_widget_tree(tree, vector)``) only when
:attr:`EvaluatedInterface.widget_tree` is first read: of the thousands
of states a search scores, only the delivered winner pays for one.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from ..difftree import DTNode
from ..widgets.tree import ORIENTATIONS, SIZE_CLASSES, WidgetNode, derive_widget_tree
from .kernel import CostBreakdown, CostKernel
from .model import CostModel

#: Sweeps coordinate descent makes over the decisions before it stops,
#: fixpoint or not.
DESCENT_ROUNDS = 6


class EvaluatedInterface:
    """A widget tree together with its cost under a model.

    Built either from a widget tree (``EvaluatedInterface(tree,
    widget_tree, breakdown)``) or, by the evaluators here, with
    ``widget_tree=None`` and the winning decision vector; the widget
    tree is then ``derive_widget_tree(tree, vector)``, derived on the
    first read of :attr:`widget_tree` and kept.  Two threads reading at
    once may each derive it; the trees are equal.  Equality compares
    tree, widget tree and breakdown.
    """

    __slots__ = ("_tree", "_widget_tree", "_breakdown", "_vector")

    def __init__(
        self,
        tree: DTNode,
        widget_tree: Optional[WidgetNode],
        breakdown: CostBreakdown,
        *,
        vector: Optional[Tuple[object, ...]] = None,
    ) -> None:
        if widget_tree is None and vector is None:
            raise TypeError("EvaluatedInterface needs a widget_tree or a vector")
        self._tree = tree
        self._widget_tree = widget_tree
        self._breakdown = breakdown
        self._vector = vector

    @property
    def tree(self) -> DTNode:
        return self._tree

    @property
    def breakdown(self) -> CostBreakdown:
        return self._breakdown

    @property
    def vector(self) -> Optional[Tuple[object, ...]]:
        """The winning decision vector (``None`` when built from a widget
        tree)."""
        return self._vector

    @property
    def widget_tree(self) -> WidgetNode:
        built = self._widget_tree
        if built is None:
            built = derive_widget_tree(self._tree, self._vector)
            self._widget_tree = built
        return built

    @property
    def cost(self) -> float:
        return self.breakdown.total

    @property
    def rank(self):
        """Feasibility-aware comparison key (see CostBreakdown.rank)."""
        return self.breakdown.rank

    def _fields(self) -> Tuple[DTNode, WidgetNode, CostBreakdown]:
        return (self._tree, self.widget_tree, self._breakdown)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EvaluatedInterface):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"EvaluatedInterface(tree={self._tree!r}, "
            f"widget_tree={self.widget_tree!r}, breakdown={self._breakdown!r})"
        )


def _evaluated(
    kernel: CostKernel, vector: Tuple[object, ...], breakdown: CostBreakdown
) -> EvaluatedInterface:
    return EvaluatedInterface(kernel.tree, None, breakdown, vector=vector)


def sampled_evaluation(
    model: CostModel,
    tree: DTNode,
    k: int = 5,
    rng: Optional[random.Random] = None,
) -> EvaluatedInterface:
    """Best of ``k`` sampled widget assignments for ``tree``.

    The greedy vector is always the first sample; the other ``k - 1`` are
    :meth:`~repro.widgets.tree.DecisionSchema.random_vector` draws.
    """
    rng = rng or random.Random(0)
    kernel = model.kernel_for(tree)
    vectors: List[List[object]] = [kernel.schema.greedy_vector()]
    for _ in range(max(0, k - 1)):
        vectors.append(kernel.schema.random_vector(rng))
    best_vector: Optional[Tuple[object, ...]] = None
    best: Optional[CostBreakdown] = None
    for vector in vectors:
        breakdown = kernel.evaluate(vector)
        if best is None or breakdown.rank < best.rank:
            best = breakdown
            best_vector = tuple(vector)
    assert best is not None and best_vector is not None
    return _evaluated(kernel, best_vector, best)


def exhaustive_evaluation(
    model: CostModel, tree: DTNode, cap: int = 4000
) -> EvaluatedInterface:
    """Best widget tree over the (capped) full decision product.

    Enumerates decision vectors with per-candidate delta re-evaluation
    (the kernel patches only what each single choice change touched).
    Falls back to coordinate descent when the product exceeds ``cap`` —
    the cap keeps the paper's "enumerate all possible widget trees for
    the final difftree" tractable for large interfaces.
    """
    kernel = model.kernel_for(tree)
    if kernel.schema.num_assignments <= cap:
        best_vector: Optional[Tuple[object, ...]] = None
        best: Optional[CostBreakdown] = None
        for vector, breakdown in kernel.iter_enumeration(cap=cap):
            if best is None or breakdown.rank < best.rank:
                best = breakdown
                best_vector = vector
        assert best is not None and best_vector is not None
        return _evaluated(kernel, best_vector, best)
    return coordinate_descent(model, tree)


def coordinate_descent(model: CostModel, tree: DTNode) -> EvaluatedInterface:
    """Optimize decisions one at a time until a fixpoint (local optimum).

    Each trial move is one kernel delta (patch + breakdown), not a full
    rebuild.  Widget decisions are visited in choice-path order, then
    orientations in derivation order, for at most
    :data:`DESCENT_ROUNDS` sweeps.
    """
    kernel = model.kernel_for(tree)
    schema = kernel.schema
    widget_indices = schema.widget_indices
    orientation_indices = schema.orientation_indices
    vector = schema.greedy_vector()
    kernel.set_vector(vector)
    current = kernel.breakdown()
    best_vector = tuple(vector)
    for _ in range(DESCENT_ROUNDS):
        improved = False
        for index in widget_indices:
            original = vector[index]
            for name in schema.decisions[index].candidates:
                for size_class in SIZE_CLASSES:
                    if (name, size_class) == original:
                        continue
                    vector[index] = (name, size_class)
                    kernel.apply_delta(index, (name, size_class))
                    candidate = kernel.breakdown()
                    if candidate.rank < current.rank:
                        current = candidate
                        original = (name, size_class)
                        best_vector = tuple(vector)
                        improved = True
            vector[index] = original
            kernel.apply_delta(index, original)
        for index in orientation_indices:
            original = vector[index]
            for orientation in ORIENTATIONS:
                if orientation == original:
                    continue
                vector[index] = orientation
                kernel.apply_delta(index, orientation)
                candidate = kernel.breakdown()
                if candidate.rank < current.rank:
                    current = candidate
                    original = orientation
                    best_vector = tuple(vector)
                    improved = True
            vector[index] = original
            kernel.apply_delta(index, original)
        if not improved:
            break
    return _evaluated(kernel, best_vector, current)


def worst_sampled_evaluation(
    model: CostModel,
    tree: DTNode,
    k: int = 20,
    rng: Optional[random.Random] = None,
) -> EvaluatedInterface:
    """The *worst feasible* of ``k`` random widget assignments.

    Used to regenerate paper Figure 6(d): a low-reward interface showing
    that poor widget choices are easily possible.
    """
    rng = rng or random.Random(0)
    kernel = model.kernel_for(tree)
    sampled = [kernel.schema.random_vector(rng) for _ in range(k)]
    worst: Optional[CostBreakdown] = None
    worst_vector: Optional[Tuple[object, ...]] = None
    fallback: Optional[CostBreakdown] = None
    fallback_vector: Optional[Tuple[object, ...]] = None
    for vector in sampled:
        breakdown = kernel.evaluate(vector)
        if fallback is None or breakdown.total > fallback.total:
            fallback = breakdown
            fallback_vector = tuple(vector)
        if breakdown.feasible and (worst is None or breakdown.total > worst.total):
            worst = breakdown
            worst_vector = tuple(vector)
    breakdown = worst if worst is not None else fallback
    vector = worst_vector if worst_vector is not None else fallback_vector
    assert breakdown is not None and vector is not None
    return _evaluated(kernel, vector, breakdown)
