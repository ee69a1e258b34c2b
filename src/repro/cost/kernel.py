"""Compiled cost-evaluation kernel: flat arrays + delta re-evaluation.

The search spends nearly all of its time scoring candidate widget trees,
and the reference implementation (:meth:`CostModel.evaluate_reference`)
recomputes everything from scratch per candidate: it re-walks the tree
for ``Σ M(w)``, re-diffs the per-query assignments into changed-choice
sets for every candidate, and chases parent pointers through dict-by-
``id()`` indexes for every Steiner term.  Almost none of that work
depends on the candidate: every widget tree derived from one difftree
shares the same *topology* (decisions only swap widget types/sizes and
box orientations — see :func:`repro.widgets.tree.decision_schema`), so
the per-pair changed-choice sets, the touched-widget sets, and even the
Steiner subtree sizes are invariants of the (difftree, query log) pair.

The kernel is a two-level pipeline:

* **Level 1 — :class:`CompiledSequence`** (per difftree × query log):
  choice assignments of every query plus the per-consecutive-pair
  changed choice-path sets, computed exactly once and interned as
  path→int ids (:class:`repro.difftree.CompiledChanges`).  Supports
  :meth:`CompiledSequence.extend` so an append-only serving session only
  diffs the newly appended pairs.

* **Level 2 — :class:`CostKernel`** (per difftree): the greedy skeleton
  flattened into parallel arrays (parent index, depth, preorder/Euler
  first-visit order — which *is* the flat index — plus per-node
  appropriateness/effort/size tables per widget-type option).
  ``set_vector()`` scores a full decision vector with array lookups
  (Steiner via sort-by-tour + pairwise LCA on int arrays, ``M`` and
  layout as running sums over the arrays), and ``apply_delta()``
  re-evaluates after a single decision change by patching only the node
  it touched, its ancestor chain of bounding boxes, and the query pairs
  whose changed-choice sets include it.

Both levels compile per difftree state, but most of their inputs are
memoized per interned subtree below them: the matcher reuses the first
assignment of every ``ALL`` slot across states
(:class:`repro.difftree.Matcher`), and the skeleton derivation reuses
``domain_of``, ``candidates_for`` and option labels
(:mod:`repro.widgets`), so a state pays mostly for the subtree its rule
move rewrote.  A scored state needs a cost, not a widget tree: its
winning decision vector goes through
:func:`repro.widgets.tree.derive_widget_tree` — the one derivation,
also behind :meth:`CostKernel.materialize` — only when a caller reads
:attr:`repro.cost.EvaluatedInterface.widget_tree`.

Bitwise-parity invariant
    ``apply_delta`` followed by :meth:`CostKernel.breakdown` must equal
    a from-scratch :meth:`CostModel.evaluate_reference` of the
    materialized widget tree on **every** :class:`CostBreakdown` field,
    bit for bit.  All float accumulations therefore replay the reference
    order: ``M`` sums in preorder, pair efforts in sorted-choice-path
    order, pair costs in pair order, and box arithmetic child-by-child.
    Patches never update a float total in place — they re-run the small
    affected sum over cached, bitwise-identical inputs.  The
    differential test suite (``tests/test_cost_kernel.py``) enforces
    this on randomized difftree/widget-tree/workload triples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..difftree import DTNode, Path, assignment_for
from ..difftree.express import (
    Assignment,
    CompiledChanges,
    changed_choice_sets,
    changed_choices,
)
from ..layout.boxes import BOX_GAP, BOX_PADDING, HEADER_HEIGHT, TITLE_HEIGHT, Screen
from ..memo import BoundedLRU
from ..sqlast import nodes as N
from ..widgets.domain import ChoiceDomain
from ..widgets.library import SIZE_CLASSES, widget_type
from ..widgets.tree import (
    ORIENTATIONS,
    WidgetDecision,
    WidgetNode,
    decision_schema,
    derive_widget_tree,
    enumerate_decision_vectors,
)

__all__ = [
    "BoundedLRU",  # re-exported from repro.memo (historical home)
    "CompiledSequence",
    "CostBreakdown",
    "CostKernel",
    "CostWeights",
    "KernelStats",
]


@dataclass(frozen=True)
class CostWeights:
    """Linear weights of the cost terms.

    Attributes:
        m: weight of the appropriateness sum Σ M(w).
        u: weight of the sequence-usability sum Σ U.  The default keeps
            one widget interaction roughly comparable to a fraction of an
            appropriateness point, so a fine-grained interface that takes
            a few more clicks per log step still beats one giant
            whole-query chooser (the paper's preferred trade-off, cf.
            Figure 6(a) versus Figure 2(a)-style interfaces).
        steiner: weight (inside U) of the connecting-subtree size.
        effort: weight (inside U) of per-widget interaction effort.

    Each weight must be finite and ``>= 0`` (``0`` drops its term): a NaN
    weight would score every interface NaN, and NaN compares as neither
    cheaper nor dearer, so no search could rank by it.
    """

    m: float = 1.0
    u: float = 0.3
    steiner: float = 0.25
    effort: float = 1.0

    def __post_init__(self) -> None:
        for name in ("m", "u", "steiner", "effort"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"weight {name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class CostBreakdown:
    """Itemized cost of one widget tree for one query sequence."""

    m_cost: float
    u_cost: float
    feasible: bool
    width: float
    height: float
    steiner_nodes: int = 0
    effort: float = 0.0
    pair_costs: Tuple[float, ...] = ()
    overflow_w: float = 0.0
    overflow_h: float = 0.0

    @property
    def total(self) -> float:
        if not self.feasible:
            return math.inf
        return self.m_cost + self.u_cost

    @property
    def rank(self) -> Tuple[int, float]:
        """Total order usable even among invalid interfaces.

        Feasible interfaces compare by cost, ahead of every infeasible
        one; infeasible ones compare by how far they overflow the screen
        plus their finite cost.  The widget-assignment optimizers in
        :mod:`repro.cost.evaluate` and ``StateEvaluator``'s incumbent
        compare by it.  MCTS rewards do not: they read :attr:`total`,
        which is infinite for every infeasible state, and
        ``normalized_reward`` maps that to 0.
        """
        if self.feasible:
            return (0, self.m_cost + self.u_cost)
        return (1, self.overflow_w + self.overflow_h + self.m_cost + self.u_cost)


@dataclass
class KernelStats:
    """Counters of compiled-kernel activity (one instance per model).

    Per-run totals are absorbed into the process-wide observability
    registry (``cost.kernel.*``) when a search task delivers its result
    — see ``repro.search.common`` — so the hot eval/delta paths keep
    bumping plain ints with no indirection.
    """

    kernels_compiled: int = 0
    sequences_compiled: int = 0
    sequences_extended: int = 0
    full_evals: int = 0
    delta_evals: int = 0
    adopted_evals: int = 0
    fallback_evals: int = 0

    def snapshot(self) -> Dict[str, int]:
        """Plain-dict snapshot (stable keys, JSON-native values)."""
        from dataclasses import fields

        return {f.name: getattr(self, f.name) for f in fields(self)}


# BoundedLRU moved to repro.memo (shared with the ingest memo tables);
# re-exported above for its historical importers.


# -- Level 1: the compiled query sequence ---------------------------------------


_UNSET = object()


@dataclass
class CompiledSequence:
    """Per-(difftree, query log) assignments and interned changed sets.

    Attributes:
        queries: the query log the sequence was compiled for.
        assignments: one choice assignment per query, or ``None`` when
            some query is not expressible by the difftree.
        changes: the per-consecutive-pair changed choice paths, interned
            as path→int ids (``None`` iff ``assignments`` is).
    """

    queries: Tuple[N.Node, ...]
    assignments: Optional[List[Assignment]]
    changes: Optional[CompiledChanges]

    @property
    def ok(self) -> bool:
        return self.assignments is not None

    @classmethod
    def compile(
        cls,
        tree: DTNode,
        queries: Sequence[N.Node],
        assignments: Any = _UNSET,
    ) -> "CompiledSequence":
        """Compile the sequence, reusing precomputed ``assignments`` if given."""
        if assignments is _UNSET:
            computed: Optional[List[Assignment]] = []
            for query in queries:
                assignment = assignment_for(tree, query)
                if assignment is None:
                    computed = None
                    break
                computed.append(assignment)
            assignments = computed
        if assignments is None:
            return cls(queries=tuple(queries), assignments=None, changes=None)
        assignments = list(assignments)
        return cls(
            queries=tuple(queries),
            assignments=assignments,
            changes=CompiledChanges.compile(assignments),
        )

    def extend(
        self, tree: DTNode, new_queries: Sequence[N.Node]
    ) -> "CompiledSequence":
        """Sequence for ``queries + new_queries``, diffing only new pairs.

        Valid only when ``tree`` is the same difftree this sequence was
        compiled for (the caller checks canonical keys): existing
        assignments and pair sets are reused verbatim; the appended
        queries are matched and the boundary + appended pairs diffed.
        Matching goes through the fingerprint-memoized
        :func:`~repro.difftree.assignment_for`, so appending a query
        shape this difftree has matched before re-walks nothing.
        """
        if not new_queries:
            return self
        all_queries = self.queries + tuple(new_queries)
        if not self.ok:
            return CompiledSequence(queries=all_queries, assignments=None, changes=None)
        tail: List[Assignment] = []
        for query in new_queries:
            assignment = assignment_for(tree, query)
            if assignment is None:
                return CompiledSequence(
                    queries=all_queries, assignments=None, changes=None
                )
            tail.append(assignment)
        assignments = list(self.assignments) + tail
        boundary = [self.assignments[-1]] + tail if self.assignments else tail
        tail_pairs = changed_choice_sets(boundary)
        changes = (
            self.changes.extended(tail_pairs)
            if self.changes is not None
            else CompiledChanges.compile(assignments)
        )
        return CompiledSequence(
            queries=all_queries, assignments=assignments, changes=changes
        )

    def without(
        self, indices: Sequence[int]
    ) -> Tuple["CompiledSequence", int]:
        """Sequence with the queries at ``indices`` removed.

        The retention-window primitive: surviving assignments and pair
        sets are reused verbatim; only the *rejoined* boundary pairs —
        consecutive survivors that were not adjacent before the removal
        — are re-diffed.  A retired prefix of ``k`` queries therefore
        recomputes at most one pair, however long the log.

        Returns ``(new_sequence, pairs_rediffed)``; pair order is
        preserved, so downstream float accumulations stay bitwise
        identical to a from-scratch compile of the surviving log.
        """
        dropped = {i for i in indices if 0 <= i < len(self.queries)}
        if not dropped:
            return self, 0
        keep = [i for i in range(len(self.queries)) if i not in dropped]
        queries = tuple(self.queries[i] for i in keep)
        if not self.ok:
            return (
                CompiledSequence(queries=queries, assignments=None, changes=None),
                0,
            )
        assignments = [self.assignments[i] for i in keep]
        pair_paths: List[Tuple[Path, ...]] = []
        rediffed = 0
        for a, b in zip(keep, keep[1:]):
            if b == a + 1:
                pair_paths.append(self.changes.pair_paths[a])
            else:
                pair_paths.append(
                    tuple(
                        changed_choices(
                            self.assignments[a], self.assignments[b]
                        )
                    )
                )
                rediffed += 1
        return (
            CompiledSequence(
                queries=queries,
                assignments=assignments,
                changes=CompiledChanges.from_pair_paths(pair_paths),
            ),
            rediffed,
        )


# -- Level 2: the flat widget-tree evaluator ------------------------------------


class CostKernel:
    """Flat-array evaluator for every widget tree of one difftree.

    Compile once per (difftree, query log, screen, weights); then score
    decision vectors via :meth:`set_vector` / :meth:`apply_delta` +
    :meth:`breakdown`, adopt externally derived widget trees via
    :meth:`adopt`, and materialize a winning vector back into a real
    :class:`~repro.widgets.tree.WidgetNode` tree via :meth:`materialize`.

    Invariant: for any reachable decision state, :meth:`breakdown`
    equals ``CostModel.evaluate_reference(tree, materialize(vector))``
    on every field — including after arbitrary chains of
    :meth:`apply_delta` (delta re-evaluation must equal full
    evaluation).
    """

    def __init__(
        self,
        tree: DTNode,
        sequence: CompiledSequence,
        screen: Screen,
        weights: CostWeights,
        stats: Optional[KernelStats] = None,
    ) -> None:
        self.tree = tree
        self.sequence = sequence
        self.screen = screen
        self.weights = weights
        self.stats = stats if stats is not None else KernelStats()
        skeleton, schema = decision_schema(tree)
        self.schema = schema
        self._flatten(skeleton)
        self._bind_decisions()
        self._compile_pairs()
        # Mutable candidate state: current decision vector + derived values.
        self._vector: List[object] = []
        self.set_vector(schema.greedy_vector())

    # -- compilation ---------------------------------------------------------

    def _flatten(self, skeleton: WidgetNode) -> None:
        """Preorder-flatten the skeleton into parallel arrays.

        The flat index is the DFS first-visit (Euler tour) order — the
        sort key of the Steiner computation — and matches the iteration
        order of ``WidgetNode.walk()`` so ``M`` sums accumulate in the
        reference order.
        """
        parent: List[int] = []
        depth: List[int] = []
        children: List[Tuple[int, ...]] = []
        titles: List[str] = []
        choice_paths: List[Optional[Path]] = []
        orientation_paths: List[Optional[Path]] = []
        domains: List[Optional[ChoiceDomain]] = []
        fixed_name: List[str] = []
        fixed_size: List[str] = []

        stack: List[Tuple[WidgetNode, int]] = [(skeleton, -1)]
        while stack:
            node, parent_idx = stack.pop()
            index = len(parent)
            parent.append(parent_idx)
            depth.append(0 if parent_idx < 0 else depth[parent_idx] + 1)
            children.append(())  # filled below once child indexes exist
            titles.append(node.title)
            choice_paths.append(node.choice_path)
            orientation_paths.append(node.orientation_path)
            domains.append(node.domain)
            fixed_name.append(node.widget)
            fixed_size.append(node.size_class)
            stack.extend((child, index) for child in reversed(node.children))

        kid_lists: List[List[int]] = [[] for _ in parent]
        for index, parent_idx in enumerate(parent):
            if parent_idx >= 0:
                kid_lists[parent_idx].append(index)
        # Reversed-push preorder emits a parent's children in order, so
        # the ascending flat indexes collected here are already in child
        # order — required for order-sensitive box sums.
        children = [tuple(kids) for kids in kid_lists]

        self._parent = parent
        self._depth = depth
        self._children = children
        self._title = titles
        self._choice_path = choice_paths
        self._orientation_path = orientation_paths
        self._domain = domains
        self._fixed_name = fixed_name
        self._fixed_size = fixed_size
        self._num_nodes = len(parent)
        #: Preallocated candidate-state buffers: ``set_vector`` refills
        #: these in place instead of reallocating four lists per call
        #: (every slot is overwritten on each full load, so no reset is
        #: needed between candidates).
        self._name: List[str] = list(fixed_name)
        self._size: List[str] = list(fixed_size)
        self._box_w: List[float] = [0.0] * self._num_nodes
        self._box_h: List[float] = [0.0] * self._num_nodes
        #: Per-node lazy caches: name -> M(w); (name, size) -> effort/box.
        self._m_table: List[Dict[str, float]] = [{} for _ in parent]
        self._eff_table: List[Dict[Tuple[str, str], float]] = [{} for _ in parent]
        self._size_table: List[Dict[Tuple[str, str], Tuple[float, float]]] = [
            {} for _ in parent
        ]

    def _bind_decisions(self) -> None:
        """Map schema decision indexes <-> flat node indexes."""
        by_choice_path = {
            path: i
            for i, path in enumerate(self._choice_path)
            if path is not None
        }
        by_orientation_path = {
            path: i
            for i, path in enumerate(self._orientation_path)
            if path is not None
        }
        self._widget_dec = [-1] * self._num_nodes
        self._orient_dec = [-1] * self._num_nodes
        self._dec_node: List[int] = []
        for d, decision in enumerate(self.schema.decisions):
            if isinstance(decision, WidgetDecision):
                node = by_choice_path[decision.path]
                self._widget_dec[node] = d
            else:
                node = by_orientation_path[decision.path]
                self._orient_dec[node] = d
            self._dec_node.append(node)

    def _compile_pairs(self) -> None:
        """Touched-widget sets and Steiner sizes per consecutive pair.

        Both are invariants of the (difftree, query log) pair: the
        changed choice paths come from the compiled sequence, the widget
        topology from the skeleton — no candidate ever changes them.
        """
        self._pair_touched: List[Tuple[int, ...]] = []
        self._pair_steiner: List[int] = []
        node_pairs: List[List[int]] = [[] for _ in range(self._num_nodes)]
        if self.sequence.ok and self.sequence.changes is not None:
            changes = self.sequence.changes
            by_choice_path = {
                path: i
                for i, path in enumerate(self._choice_path)
                if path is not None
            }
            # id -> flat node (or -1): ids ascend in lexicographic path
            # order, so iterating a pair's sorted ids visits widgets in
            # the reference (sorted changed-path) order.
            id_to_node = [by_choice_path.get(path, -1) for path in changes.paths]
            for p, pair in enumerate(changes.pair_ids):
                touched = tuple(
                    id_to_node[i] for i in pair if id_to_node[i] >= 0
                )
                self._pair_touched.append(touched)
                self._pair_steiner.append(self._steiner_size(touched))
                for node in touched:
                    node_pairs[node].append(p)
        self._node_pairs: List[Tuple[int, ...]] = [tuple(ps) for ps in node_pairs]
        self._num_pairs = len(self._pair_touched)
        # Preallocated pair buffers (refilled in place by set_vector —
        # every pair is refreshed on a full load).
        self._pair_effort: List[float] = [0.0] * self._num_pairs
        self._pair_cost: List[float] = [0.0] * self._num_pairs

    def _steiner_size(self, touched: Tuple[int, ...]) -> int:
        """Node count of the minimal subtree connecting ``touched``.

        Classic virtual-tree identity: sort targets by Euler first-visit
        order (the flat index), sum pairwise distances around the cycle;
        every Steiner edge is traversed exactly twice, so the node count
        is ``total // 2 + 1``.
        """
        k = len(touched)
        if k == 0:
            return 0
        if k == 1:
            return 1
        order = sorted(touched)
        total = 0
        for a, b in zip(order, order[1:]):
            total += self._distance(a, b)
        total += self._distance(order[-1], order[0])
        return total // 2 + 1

    def _distance(self, a: int, b: int) -> int:
        parent, depth = self._parent, self._depth
        da, db = depth[a], depth[b]
        dist = 0
        while da > db:
            a = parent[a]
            da -= 1
            dist += 1
        while db > da:
            b = parent[b]
            db -= 1
            dist += 1
        while a != b:
            a = parent[a]
            b = parent[b]
            dist += 2
        return dist

    # -- per-node value tables ------------------------------------------------

    def _m_of(self, i: int, name: str) -> float:
        table = self._m_table[i]
        value = table.get(name)
        if value is None:
            value = widget_type(name).appropriateness(self._domain[i])
            table[name] = value
        return value

    def _eff_of(self, i: int, name: str, size_class: str) -> float:
        table = self._eff_table[i]
        key = (name, size_class)
        value = table.get(key)
        if value is None:
            value = widget_type(name).effort(self._domain[i], size_class)
            table[key] = value
        return value

    def _wsize_of(self, i: int, name: str, size_class: str) -> Tuple[float, float]:
        table = self._size_table[i]
        key = (name, size_class)
        value = table.get(key)
        if value is None:
            value = widget_type(name).size(self._domain[i], size_class)
            table[key] = value
        return value

    # -- layout (mirrors repro.layout.boxes.measure, over arrays) -------------

    def _compute_box(self, i: int) -> Tuple[float, float]:
        name = self._name[i]
        kids = self._children[i]
        box_w, box_h = self._box_w, self._box_h
        if name in ("vertical", "horizontal"):
            if not kids:
                return (0.0, 0.0)
            gaps = BOX_GAP * (len(kids) - 1)
            if name == "vertical":
                width = max(box_w[k] for k in kids)
                height = sum(box_h[k] for k in kids) + gaps
            else:
                width = sum(box_w[k] for k in kids) + gaps
                height = max(box_h[k] for k in kids)
            width = width + 2 * BOX_PADDING
            height = height + 2 * BOX_PADDING
            if self._title[i]:
                height = height + TITLE_HEIGHT
            return (width, height)
        if name == "tabs":
            header = self._wsize_of(i, name, self._size[i])
            if kids:
                content_w = max(box_w[k] for k in kids)
                content_h = max(box_h[k] for k in kids)
            else:
                content_w = content_h = 0.0
            width = max(header[0], content_w)
            height = HEADER_HEIGHT + content_h
            return (width + 2 * BOX_PADDING, height + 2 * BOX_PADDING)
        if name == "adder":
            buttons = self._wsize_of(i, name, self._size[i])
            if kids:
                gaps = BOX_GAP * (len(kids) - 1)
                content_w = max(box_w[k] for k in kids)
                content_h = sum(box_h[k] for k in kids) + gaps
            else:
                content_w = content_h = 0.0
            width = max(buttons[0], content_w)
            height = buttons[1] + content_h + BOX_GAP
            return (width + 2 * BOX_PADDING, height + 2 * BOX_PADDING)
        width, height = self._wsize_of(i, name, self._size[i])
        if self._title[i]:
            height = height + TITLE_HEIGHT
            width = max(width, 7.0 * len(self._title[i]))
        return (width, height)

    def _refresh_box(self, i: int) -> None:
        width, height = self._compute_box(i)
        self._box_w[i] = width
        self._box_h[i] = height

    # -- candidate state ------------------------------------------------------

    def set_vector(self, vector: Sequence[object]) -> None:
        """Load a full decision vector and recompute the candidate state."""
        if len(vector) != len(self.schema.decisions):
            raise ValueError(
                f"vector length {len(vector)} != "
                f"{len(self.schema.decisions)} decisions"
            )
        self._vector = list(vector)
        n = self._num_nodes
        self._name[:] = self._fixed_name
        self._size[:] = self._fixed_size
        for d, value in enumerate(self._vector):
            node = self._dec_node[d]
            if isinstance(self.schema.decisions[d], WidgetDecision):
                name, size_class = value  # type: ignore[misc]
                self._name[node] = name
                self._size[node] = size_class
            else:
                self._name[node] = value  # type: ignore[assignment]
        self._m = [self._m_of(i, self._name[i]) for i in range(n)]
        self._eff = [
            self._eff_of(i, self._name[i], self._size[i])
            if self._choice_path[i] is not None
            else 0.0
            for i in range(n)
        ]
        for i in range(n - 1, -1, -1):
            self._refresh_box(i)
        for p in range(self._num_pairs):
            self._refresh_pair(p)
        self._m_total: Optional[float] = None
        self._u_totals: Optional[Tuple[float, int, float]] = None
        self.stats.full_evals += 1

    def _refresh_pair(self, p: int) -> None:
        # The touched tuple ascends in sorted-changed-path order, so the
        # effort sum accumulates exactly like the reference loop.
        effort = sum(self._eff[i] for i in self._pair_touched[p])
        self._pair_effort[p] = effort
        self._pair_cost[p] = (
            self.weights.steiner * self._pair_steiner[p]
            + self.weights.effort * effort
        )

    def apply_delta(self, index: int, value: object) -> None:
        """Re-evaluate after changing the single decision at ``index``.

        Patches the controlled node's tables, the bounding boxes of its
        ancestor chain, and (for widget decisions) the pairs whose
        changed-choice sets touch it.  Equal to a full
        :meth:`set_vector` of the updated vector on every breakdown
        field — the delta-equals-full invariant.

        Raises:
            ValueError: when ``index`` is outside the schema's decision
                range, or ``value`` does not have the decision's shape
                (a ``(name, size_class)`` pair for widget decisions, an
                orientation name for orientation decisions).
        """
        if not 0 <= index < len(self.schema.decisions):
            raise ValueError(
                f"decision index {index} out of range "
                f"(schema has {len(self.schema.decisions)} decisions)"
            )
        decision = self.schema.decisions[index]
        node = self._dec_node[index]
        if isinstance(decision, WidgetDecision):
            try:
                name, size_class = value  # type: ignore[misc]
            except (TypeError, ValueError):
                raise ValueError(
                    f"widget decision {index} expects a (name, size_class) "
                    f"pair, got {value!r}"
                ) from None
        elif value not in ORIENTATIONS:
            raise ValueError(
                f"orientation decision {index} expects one of "
                f"{ORIENTATIONS}, got {value!r}"
            )
        self._vector[index] = value
        if isinstance(decision, WidgetDecision):
            self._name[node] = name
            self._size[node] = size_class
            self._m[node] = self._m_of(node, name)
            self._m_total = None
            if self._choice_path[node] is not None:
                self._eff[node] = self._eff_of(node, name, size_class)
                for p in self._node_pairs[node]:
                    self._refresh_pair(p)
                if self._node_pairs[node]:
                    self._u_totals = None
        else:
            self._name[node] = value  # type: ignore[assignment]
            # Both orientations currently share one layout M(w), but the
            # parity invariant must not depend on that staying true.
            self._m[node] = self._m_of(node, self._name[node])
            self._m_total = None
        self._refresh_box(node)
        cursor = self._parent[node]
        while cursor >= 0:
            self._refresh_box(cursor)
            cursor = self._parent[cursor]
        self.stats.delta_evals += 1

    @property
    def vector(self) -> Tuple[object, ...]:
        """Snapshot of the current decision vector."""
        return tuple(self._vector)

    # -- evaluation -----------------------------------------------------------

    def breakdown(self) -> CostBreakdown:
        """The cost breakdown of the current candidate state."""
        if self._m_total is None:
            # Preorder accumulation — the reference M(w) walk order.
            total = 0.0
            for value in self._m:
                total += value
            self._m_total = total
        m_cost = self.weights.m * self._m_total
        width = self._box_w[0]
        height = self._box_h[0]
        feasible = width <= self.screen.width and height <= self.screen.height
        if not self.sequence.ok:
            u_cost = 0.0
            steiner_total = 0
            effort_total = 0.0
            pair_costs: Tuple[float, ...] = ()
            feasible = False
        else:
            if self._u_totals is None:
                u_total = 0.0
                steiner_total = 0
                effort_total = 0.0
                for p in range(self._num_pairs):
                    u_total += self._pair_cost[p]
                    steiner_total += self._pair_steiner[p]
                    effort_total += self._pair_effort[p]
                self._u_totals = (u_total, steiner_total, effort_total)
            u_total, steiner_total, effort_total = self._u_totals
            u_cost = self.weights.u * u_total
            pair_costs = tuple(self._pair_cost)
        return CostBreakdown(
            m_cost=m_cost,
            u_cost=u_cost,
            feasible=feasible,
            width=width,
            height=height,
            steiner_nodes=steiner_total,
            effort=effort_total,
            pair_costs=pair_costs,
            overflow_w=max(0.0, width - self.screen.width),
            overflow_h=max(0.0, height - self.screen.height),
        )

    def evaluate(self, vector: Sequence[object]) -> CostBreakdown:
        """Full evaluation of one decision vector."""
        self.set_vector(vector)
        return self.breakdown()

    # -- interop with real widget trees ---------------------------------------

    def adopt(self, root: WidgetNode) -> Optional[List[object]]:
        """Read the decision vector off an externally derived widget tree.

        Returns ``None`` when ``root`` does not share the skeleton's
        topology (e.g. a hand-built tree or one derived from another
        difftree) — callers fall back to the reference evaluator.
        """
        n = self._num_nodes
        vector: List[Optional[object]] = [None] * len(self.schema.decisions)
        stack = [root]
        i = 0
        while stack:
            node = stack.pop()
            if i >= n:
                return None
            if len(node.children) != len(self._children[i]):
                return None
            if (
                node.title != self._title[i]
                or node.choice_path != self._choice_path[i]
                or node.domain != self._domain[i]
            ):
                return None
            d = self._widget_dec[i]
            if d >= 0:
                decision = self.schema.decisions[d]
                if (
                    node.widget not in decision.candidates
                    or node.size_class not in SIZE_CLASSES
                ):
                    return None
                vector[d] = (node.widget, node.size_class)
            elif self._orient_dec[i] >= 0:
                if node.widget not in ORIENTATIONS:
                    return None
                vector[self._orient_dec[i]] = node.widget
            else:
                if (
                    node.widget != self._fixed_name[i]
                    or node.size_class != self._fixed_size[i]
                ):
                    return None
            i += 1
            stack.extend(reversed(node.children))
        if i != n or any(value is None for value in vector):
            return None
        return vector  # type: ignore[return-value]

    def materialize(self, vector: Sequence[object]) -> WidgetNode:
        """Derive the real widget tree behind a decision vector."""
        return derive_widget_tree(self.tree, vector)

    def iter_enumeration(
        self, cap: int = 5000
    ) -> Iterator[Tuple[Tuple[object, ...], CostBreakdown]]:
        """Score the full decision product via delta re-evaluation.

        Yields ``(vector_snapshot, breakdown)`` in the order of
        :func:`~repro.widgets.tree.enumerate_decision_vectors`, applying
        only each candidate's changed decisions after the first full
        evaluation.
        """
        for vector, changes in enumerate_decision_vectors(self.schema, cap=cap):
            if changes is None:
                self.set_vector(vector)
            else:
                for index, value in changes:
                    self.apply_delta(index, value)
            yield tuple(vector), self.breakdown()
