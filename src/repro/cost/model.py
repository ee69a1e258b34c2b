"""The interface cost function ``C(W, Q) = Σ U(qi, qi+1, W) + Σ M(w)``.

``M(w)`` measures whether each selected widget suits the domain it must
express (appropriateness, borrowed from Zhang, Sellam & Wu 2017; layout
boxes contribute a small layout-complexity constant after Comber & Maltby).

``U(qi, qi+1, W)`` measures how hard it is to *use* the interface to step
through the input query sequence: the minimum set of widgets whose values
must change to turn ``qi`` into ``qi+1``, charged as (a) the size of the
minimum spanning (Steiner) subtree of the widget tree connecting those
widgets — how far the user's attention/mouse must travel across the layout
hierarchy — plus (b) each touched widget's interaction effort.

A widget tree that does not fit the screen is invalid: infinite cost.

Evaluation is delegated to the compiled kernel (:mod:`repro.cost.kernel`):
per difftree, the query sequence is diffed once into interned
changed-choice sets and the widget topology flattened into arrays, so
scoring a candidate is table lookups instead of tree walks.  The original
walk-everything implementation survives as :meth:`CostModel.evaluate_reference`
— both the fallback for widget trees the kernel cannot adopt and the
ground truth the differential parity tests compare the kernel against.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..difftree import Assignment, DTNode, Path, assignment_for, changed_choices
from ..layout import Screen, measure
from ..sqlast import nodes as N
from ..widgets.tree import WidgetNode
from ..obs import trace as _trace
from .kernel import (
    BoundedLRU,
    CompiledSequence,
    CostBreakdown,
    CostKernel,
    CostWeights,
    KernelStats,
)

__all__ = ["CostModel", "CostWeights", "CostBreakdown"]

#: How many per-difftree compiled kernels a model keeps (bounded LRU —
#: long sessions evict cold kernels one at a time, never wholesale).
KERNEL_CACHE_SIZE = 512


class CostModel:
    """Evaluates widget trees against a query sequence and a screen.

    Args:
        queries: the input query log, in session order.
        screen: the output screen constraint.
        weights: linear weights of the cost terms.
    """

    def __init__(
        self,
        queries: Sequence[N.Node],
        screen: Screen,
        weights: CostWeights = CostWeights(),
    ) -> None:
        if not queries:
            raise ValueError("cost model needs at least one query")
        self.queries = list(queries)
        self.screen = screen
        self.weights = weights
        #: difftree canonical key -> compiled kernel (bounded LRU).
        self._kernels = BoundedLRU(KERNEL_CACHE_SIZE, name="cost.kernels")
        #: difftree canonical key -> prior-run CompiledSequence to extend
        #: (seeded by repro.serve across grafted generations).
        self._carried_sequences: Dict[str, CompiledSequence] = {}
        self.kernel_stats = KernelStats()

    # -- compiled kernel ------------------------------------------------------

    def kernel_for(self, tree: DTNode) -> CostKernel:
        """The compiled evaluation kernel of ``tree`` (cached)."""
        key = tree.canonical_key
        kernel = self._kernels.get(key)
        if kernel is None:
            with _trace("cost.kernel.compile"):
                kernel = CostKernel(
                    tree,
                    self._sequence_for(tree),
                    self.screen,
                    self.weights,
                    stats=self.kernel_stats,
                )
            self._kernels[key] = kernel
            self.kernel_stats.kernels_compiled += 1
        return kernel

    def _sequence_for(self, tree: DTNode) -> CompiledSequence:
        """Compile (or extend) the query sequence for ``tree``.

        When :mod:`repro.serve` carried a prior run's sequence for the
        same difftree and our query log extends its log, only the
        appended queries are matched and only the new pairs diffed.
        """
        key = tree.canonical_key
        carried = self._carried_sequences.get(key)
        if carried is not None:
            prefix = len(carried.queries)
            if prefix <= len(self.queries) and list(carried.queries) == self.queries[:prefix]:
                sequence = carried.extend(tree, self.queries[prefix:])
                if prefix < len(self.queries):
                    self.kernel_stats.sequences_extended += 1
                return sequence
        with _trace("cost.sequence.compile"):
            sequence = CompiledSequence.compile(
                tree, self.queries, assignments=self.assignments(tree)
            )
        self.kernel_stats.sequences_compiled += 1
        return sequence

    def compiled_sequence(self, tree: DTNode) -> CompiledSequence:
        """The compiled sequence of ``tree`` (for serve-layer carry-over)."""
        return self.kernel_for(tree).sequence

    def sequence_universe(self, tree: DTNode):
        """``tree``'s exercised choice-path set, if already compiled.

        A pure *peek* into the bounded kernel cache — never compiles.
        The search-tree carry (:mod:`repro.search.carry`) harvests these
        as each carried node's invalidation scope; ``None`` (state never
        evaluated, or its kernel already evicted) makes the carry treat
        the node's scope as unknown and invalidate it on any append.
        """
        kernel = self._kernels.get(tree.canonical_key)
        if (
            kernel is not None
            and kernel.sequence.ok
            and kernel.sequence.changes is not None
        ):
            return kernel.sequence.changes.path_set
        return None

    def adopt_sequences(self, carried: Mapping[str, CompiledSequence]) -> None:
        """Seed prior-run compiled sequences, keyed by difftree canonical key.

        Used by :class:`repro.serve.IncrementalGenerator`: when a warm
        session extends a previous log, the prior best difftree's
        sequence lets this model diff only the newly appended query
        pairs instead of recompiling the whole log.
        """
        self._carried_sequences.update(carried)

    # -- M term -------------------------------------------------------------

    def appropriateness(self, root: WidgetNode) -> float:
        """Σ M(w) over every widget in the tree."""
        total = 0.0
        for node in root.walk():
            total += node.wtype.appropriateness(node.domain)
        return total

    # -- U term -------------------------------------------------------------

    def assignments(self, tree: DTNode) -> Optional[List[Assignment]]:
        """Choice assignments of every input query under ``tree``.

        Returns ``None`` when some query is not expressible (an invalid
        state; rules never produce one, but callers stay defensive).
        Not cached here: a kernel compile, the one hot caller, is cached
        per tree, and ``assignment_for`` is memoized per (tree, query).
        """
        assignments: List[Assignment] = []
        for query in self.queries:
            assignment = assignment_for(tree, query)
            if assignment is None:
                return None
            assignments.append(assignment)
        return assignments

    def sequence_cost(
        self, tree: DTNode, root: WidgetNode
    ) -> Tuple[float, int, float, List[float]]:
        """Σ U over consecutive query pairs (reference implementation).

        Returns ``(u_total, steiner_nodes_total, effort_total, per_pair)``.
        """
        assignments = self.assignments(tree)
        if assignments is None:
            return (math.inf, 0, 0.0, [])
        by_path: Dict[Path, WidgetNode] = {
            node.choice_path: node
            for node in root.walk()
            if node.choice_path is not None
        }
        parents, depths = _tree_indexes(root)
        u_total = 0.0
        steiner_total = 0
        effort_total = 0.0
        per_pair: List[float] = []
        for a, b in zip(assignments, assignments[1:]):
            changed = changed_choices(a, b)
            touched = [by_path[p] for p in changed if p in by_path]
            steiner = _steiner_size(touched, parents, depths)
            effort = sum(n.wtype.effort(n.domain, n.size_class) for n in touched)
            pair = self.weights.steiner * steiner + self.weights.effort * effort
            per_pair.append(pair)
            u_total += pair
            steiner_total += steiner
            effort_total += effort
        return (u_total, steiner_total, effort_total, per_pair)

    # -- total -------------------------------------------------------------

    def evaluate(self, tree: DTNode, root: WidgetNode) -> CostBreakdown:
        """Full cost of one (difftree, widget tree) pair.

        Delegates to the compiled kernel when ``root`` shares the
        difftree's derivation topology (every tree derived from one of
        its decision vectors does); hand-built or foreign trees fall
        back to :meth:`evaluate_reference`.  Both paths return identical
        breakdowns — the kernel's parity invariant.
        """
        kernel = self.kernel_for(tree)
        vector = kernel.adopt(root)
        if vector is None:
            self.kernel_stats.fallback_evals += 1
            return self.evaluate_reference(tree, root)
        self.kernel_stats.adopted_evals += 1
        return kernel.evaluate(vector)

    def evaluate_reference(self, tree: DTNode, root: WidgetNode) -> CostBreakdown:
        """Walk-everything evaluation (pre-kernel reference semantics).

        Kept as the kernel's ground truth: ``evaluate`` must equal this
        on every breakdown field for any tree the kernel adopts.
        """
        box = measure(root)
        feasible = box.width <= self.screen.width and box.height <= self.screen.height
        m_cost = self.weights.m * self.appropriateness(root)
        u_cost, steiner_nodes, effort, per_pair = self.sequence_cost(tree, root)
        if math.isinf(u_cost):
            feasible = False
            u_cost = 0.0
        return CostBreakdown(
            m_cost=m_cost,
            u_cost=self.weights.u * u_cost,
            feasible=feasible,
            width=box.width,
            height=box.height,
            steiner_nodes=steiner_nodes,
            effort=effort,
            pair_costs=tuple(per_pair),
            overflow_w=max(0.0, box.width - self.screen.width),
            overflow_h=max(0.0, box.height - self.screen.height),
        )


# -- Steiner subtree on the widget tree (reference implementation) ---------------


def _tree_indexes(
    root: WidgetNode,
) -> Tuple[Dict[int, Optional[WidgetNode]], Dict[int, int]]:
    parents: Dict[int, Optional[WidgetNode]] = {id(root): None}
    depths: Dict[int, int] = {id(root): 0}
    stack = [root]
    while stack:
        node = stack.pop()
        for child in node.children:
            parents[id(child)] = node
            depths[id(child)] = depths[id(node)] + 1
            stack.append(child)
    return parents, depths


def _steiner_size(
    targets: List[WidgetNode],
    parents: Dict[int, Optional[WidgetNode]],
    depths: Dict[int, int],
) -> int:
    """Node count of the minimal subtree connecting ``targets``.

    In a tree, the minimal connected subgraph containing a node set equals
    the union of each target's path to the set's lowest common ancestor —
    computed exactly here (no approximation).
    """
    if not targets:
        return 0
    if len(targets) == 1:
        return 1
    lca = targets[0]
    for node in targets[1:]:
        lca = _lca(lca, node, parents, depths)
    nodes = set()
    for node in targets:
        cursor: Optional[WidgetNode] = node
        while cursor is not None and id(cursor) != id(lca):
            nodes.add(id(cursor))
            cursor = parents[id(cursor)]
    nodes.add(id(lca))
    return len(nodes)


def _lca(
    a: WidgetNode,
    b: WidgetNode,
    parents: Dict[int, Optional[WidgetNode]],
    depths: Dict[int, int],
) -> WidgetNode:
    while depths[id(a)] > depths[id(b)]:
        a = parents[id(a)]
    while depths[id(b)] > depths[id(a)]:
        b = parents[id(b)]
    while id(a) != id(b):
        a = parents[id(a)]
        b = parents[id(b)]
    return a
