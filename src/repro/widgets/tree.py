"""Widget trees: the renderable interface derived from a difftree.

The derivation follows the paper ("Creating Widget Trees"): each choice
node maps to one interaction widget, and each ``ALL`` node with ≥2 visible
children maps to a layout widget (vertical or horizontal box).  ``ANY``
nodes whose alternatives contain nested choices map to *tabs* — one tab
per alternative, each holding that alternative's sub-interface.  ``OPT``
maps to a toggle/checkbox grouped with the widgets of its optional body
(the toggle-and-dropdown grouping of paper Figure 2(b)), and ``MULTI``
maps to an *adder* wrapping its template's widgets.

Deriving a widget tree requires decisions — which widget type and size
class for each choice node, which orientation for each layout box.  A
*decision vector* supplies them, one value per decision in derivation
order; :func:`decision_schema` records those decisions through the same
derivation, and the search samples, enumerates and descends over
vectors (random assignments during MCTS rollouts, exhaustive or
coordinate-descent optimization at the end).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from ..difftree import ANY, EMPTY, MULTI, OPT, DTNode, Path
from ..difftree.dtnodes import ALL
from ..sqlast import nodes as N
from .domain import ChoiceDomain, domain_of, option_label
from .library import (
    INTERACTION_WIDGETS,
    SIZE_CLASSES,
    WidgetType,
    candidates_for,
    widget_type,
)

ORIENTATIONS = ("vertical", "horizontal")


@dataclass(frozen=True)
class WidgetNode:
    """One node of the widget tree.

    Attributes:
        widget: widget type name (see :mod:`repro.widgets.library`).
        size_class: ``"S"``/``"M"``/``"L"`` template.
        choice_path: path of the controlled difftree choice node, or
            ``None`` for pure layout boxes.
        domain: the controlled choice's domain (``None`` for layout).
        children: nested widget nodes (tab pages, grouped widgets, the
            adder's content, a layout box's members).
        title: short caption giving AST context (e.g. ``"cty ="``).
        orientation_path: for layout boxes whose orientation is a free
            derivation decision, the decision's path
            (:attr:`OrientationDecision.path`); ``None`` for fixed boxes
            and non-layout widgets.  Provenance recorded so the compiled
            cost kernel can map box nodes back to decisions.
    """

    widget: str
    size_class: str = "M"
    choice_path: Optional[Path] = None
    domain: Optional[ChoiceDomain] = None
    children: Tuple["WidgetNode", ...] = ()
    title: str = ""
    orientation_path: Optional[Path] = None

    @property
    def wtype(self) -> WidgetType:
        return widget_type(self.widget)

    def walk(self) -> Iterator["WidgetNode"]:
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def widget_count(self) -> int:
        return sum(1 for _ in self.walk())


# -- derivation -------------------------------------------------------------------


@dataclass(frozen=True)
class WidgetDecision:
    """One free widget choice: which ``(name, size_class)`` at ``path``."""

    path: Path
    candidates: Tuple[str, ...]


@dataclass(frozen=True)
class OrientationDecision:
    """One free layout choice: box orientation at ``path``."""

    path: Path
    num_children: int


Decision = Union[WidgetDecision, OrientationDecision]


def _greedy(decision: Decision) -> object:
    """Minimum-``M`` widget at medium size, vertical boxes."""
    if isinstance(decision, WidgetDecision):
        return (decision.candidates[0], "M")
    return "vertical"


class _Decide:
    """Supplies the decisions of one derivation, recording each one.

    A decision takes the next value of ``vector``, in derivation order,
    or its greedy value when ``vector`` is ``None``.
    """

    __slots__ = ("vector", "decisions")

    def __init__(self, vector: Optional[Sequence[object]]) -> None:
        self.vector = vector
        self.decisions: List[Decision] = []

    def __call__(self, decision: Decision) -> object:
        index = len(self.decisions)
        self.decisions.append(decision)
        if self.vector is None:
            return _greedy(decision)
        if index >= len(self.vector):
            raise ValueError(
                f"decision vector has {len(self.vector)} values; "
                "the tree has more decisions"
            )
        return self.vector[index]


def _derive(
    tree: DTNode, vector: Optional[Sequence[object]]
) -> Tuple[WidgetNode, Tuple[Decision, ...]]:
    decide = _Decide(vector)
    widgets = _build(tree, (), decide, _context_for(tree, ""))
    if not widgets:
        root = WidgetNode(widget="label", title="(static query)")
    elif len(widgets) == 1:
        root = widgets[0]
    else:
        orientation = decide(OrientationDecision((), len(widgets)))
        root = WidgetNode(
            widget=orientation, children=tuple(widgets), orientation_path=()
        )
    if vector is not None and len(vector) != len(decide.decisions):
        raise ValueError(
            f"decision vector has {len(vector)} values; "
            f"the tree has {len(decide.decisions)} decisions"
        )
    return root, tuple(decide.decisions)


def derive_widget_tree(
    tree: DTNode, vector: Optional[Sequence[object]] = None
) -> WidgetNode:
    """Derive the widget tree of ``tree`` under one decision vector.

    ``vector`` holds one value per decision of :func:`decision_schema`,
    in derivation order: a ``(name, size_class)`` pair for a widget
    decision, an orientation for a box.  ``None`` takes every decision's
    greedy value.  Raises :class:`ValueError` when the vector has more or
    fewer values than the tree has decisions.  A fully-concrete difftree
    (no choices — a one-query log) yields a bare label widget.
    """
    return _derive(tree, vector)[0]


def _build(node: DTNode, path: Path, decide: _Decide, context: str) -> List[WidgetNode]:
    if node.kind == EMPTY:
        return []
    if node.kind == ALL:
        collected: List[WidgetNode] = []
        for i, child in enumerate(node.children):
            child_context = _child_context(node, i, context)
            collected.extend(_build(child, path + (i,), decide, child_context))
        if len(collected) >= 2:
            orientation = decide(OrientationDecision(path, len(collected)))
            return [
                WidgetNode(
                    widget=orientation,
                    children=tuple(collected),
                    title=_box_title(node),
                    orientation_path=path,
                )
            ]
        return collected
    if node.kind == ANY:
        domain = domain_of(node)
        if domain.complex_options:
            pages: List[WidgetNode] = []
            for i, alt in enumerate(node.children):
                inner = _build(alt, path + (i,), decide, context)
                page_title = option_label(alt, limit=18)
                if not inner:
                    page = WidgetNode(widget="label", title=page_title)
                elif len(inner) == 1:
                    page = inner[0]
                else:
                    orientation = decide(OrientationDecision(path + (i,), len(inner)))
                    page = WidgetNode(
                        widget=orientation,
                        children=tuple(inner),
                        orientation_path=path + (i,),
                    )
                pages.append(
                    WidgetNode(
                        widget="vertical",
                        children=(page,),
                        title=page_title,
                    )
                )
            return [
                WidgetNode(
                    widget="tabs",
                    choice_path=path,
                    domain=domain,
                    children=tuple(pages),
                    title=context,
                )
            ]
        candidates = candidates_for(domain)
        if not candidates:
            candidates = (INTERACTION_WIDGETS["dropdown"],)
        name, size_class = decide(_widget_decision(path, candidates))
        return [
            WidgetNode(
                widget=name,
                size_class=size_class,
                choice_path=path,
                domain=domain,
                title=context,
            )
        ]
    if node.kind == OPT:
        domain = domain_of(node)
        name, size_class = decide(_widget_decision(path, candidates_for(domain)))
        toggle = WidgetNode(
            widget=name,
            size_class=size_class,
            choice_path=path,
            domain=domain,
            title=context,
        )
        body = _build(node.children[0], path + (0,), decide, context)
        if not body:
            return [toggle]
        orientation = decide(OrientationDecision(path, 1 + len(body)))
        return [
            WidgetNode(
                widget=orientation,
                children=(toggle,) + tuple(body),
                title=_box_title(node),
                orientation_path=path,
            )
        ]
    if node.kind == MULTI:
        domain = domain_of(node)
        body = _build(node.children[0], path + (0,), decide, context)
        return [
            WidgetNode(
                widget="adder",
                choice_path=path,
                domain=domain,
                children=tuple(body),
                title=context,
            )
        ]
    raise AssertionError(f"unreachable kind {node.kind!r}")


def _widget_decision(path: Path, candidates: Sequence[WidgetType]) -> WidgetDecision:
    return WidgetDecision(path=path, candidates=tuple(c.name for c in candidates))


def _context_for(node: DTNode, inherited: str) -> str:
    if node.kind == ALL and node.label == N.SELECT:
        return ""
    return inherited


_CLAUSE_TITLES = {
    N.TOP: "TOP",
    N.PROJECT: "SELECT",
    N.WHERE: "WHERE",
    N.FROM: "FROM",
    N.GROUPBY: "GROUP BY",
    N.ORDERBY: "ORDER BY",
    N.LIMIT: "LIMIT",
}


def _child_context(node: DTNode, index: int, inherited: str) -> str:
    """Best-effort caption for widgets appearing under ``node``."""
    if node.kind != ALL:
        return inherited
    if node.label == N.SELECT:
        child = node.children[index]
        if child.kind == ALL:
            return _CLAUSE_TITLES.get(child.label, inherited)
        return inherited
    if node.label in _CLAUSE_TITLES:
        return _CLAUSE_TITLES[node.label]
    if node.label == N.BIEXPR:
        left = node.children[0]
        if left.kind == ALL and left.label == N.COLEXPR and index != 0:
            return f"{left.value} {node.value}"
        return inherited
    if node.label == N.BETWEEN:
        column = node.children[0]
        if column.kind == ALL and column.label == N.COLEXPR and index != 0:
            return str(column.value)
        return inherited
    return inherited


def _box_title(node: DTNode) -> str:
    if node.kind == ALL and node.label in _CLAUSE_TITLES:
        return _CLAUSE_TITLES[node.label]
    return ""


# -- the decision schema -----------------------------------------------------


@dataclass(frozen=True)
class DecisionSchema:
    """All free decisions of a difftree's derivation, in derivation order.

    A *decision vector* is a list parallel to :attr:`decisions`:
    ``(name, size_class)`` tuples at widget positions and orientation
    names at orientation positions — the values
    :func:`derive_widget_tree` consumes.  The schema is the compile-once
    artifact the cost kernel scores vectors against without ever
    materializing the intermediate widget trees.
    """

    decisions: Tuple[Decision, ...]

    @cached_property
    def widget_indices(self) -> Tuple[int, ...]:
        """Widget-decision positions, sorted by choice path.

        This is the canonical optimizer visit order (the outer digits of
        :func:`enumerate_decision_vectors` and the outer loop of
        coordinate descent) — keep every consumer on this single
        definition so candidate orders and tie-breaks never drift apart.
        """
        return tuple(
            sorted(
                (
                    i
                    for i, d in enumerate(self.decisions)
                    if isinstance(d, WidgetDecision)
                ),
                key=lambda i: self.decisions[i].path,
            )
        )

    @cached_property
    def orientation_indices(self) -> Tuple[int, ...]:
        """Orientation-decision positions, in derivation order."""
        return tuple(
            i
            for i, d in enumerate(self.decisions)
            if isinstance(d, OrientationDecision)
        )

    @cached_property
    def enumeration_indices(self) -> Tuple[int, ...]:
        """Digit order of :func:`enumerate_decision_vectors` (rightmost
        fastest): widget decisions sorted by path, then orientation
        decisions in derivation order."""
        return self.widget_indices + self.orientation_indices

    @property
    def num_assignments(self) -> int:
        total = 1
        for decision in self.decisions:
            if isinstance(decision, WidgetDecision):
                total *= len(decision.candidates) * len(SIZE_CLASSES)
            else:
                total *= len(ORIENTATIONS)
        return total

    def options_for(self, index: int) -> Tuple[object, ...]:
        """All values of one decision, in enumeration order."""
        decision = self.decisions[index]
        if isinstance(decision, WidgetDecision):
            return tuple(
                (name, size_class)
                for name in decision.candidates
                for size_class in SIZE_CLASSES
            )
        return ORIENTATIONS

    def greedy_vector(self) -> List[object]:
        """Every decision's greedy value: what ``derive_widget_tree(tree)``
        derives."""
        return [_greedy(d) for d in self.decisions]

    def random_vector(self, rng: random.Random) -> List[object]:
        """A uniformly random assignment (the paper's random widgets).

        Draws from ``rng`` decision by decision, in derivation order: a
        widget and then a size class for a widget decision, an
        orientation for a box.  Sampled evaluation depends on this draw
        order; ``tools/parity_snapshot.py`` pins it.
        """
        vector: List[object] = []
        for decision in self.decisions:
            if isinstance(decision, WidgetDecision):
                name = rng.choice(decision.candidates)
                vector.append((name, rng.choice(SIZE_CLASSES)))
            else:
                vector.append(rng.choice(ORIENTATIONS))
        return vector


def decision_schema(tree: DTNode) -> Tuple[WidgetNode, DecisionSchema]:
    """Record a difftree's decision schema (and its greedy skeleton tree).

    The skeleton is the greedy derivation: it fixes the topology every
    candidate of the decision space shares (decisions only swap widget
    types/sizes and box orientations; they never change the tree shape).
    """
    skeleton, decisions = _derive(tree, None)
    return skeleton, DecisionSchema(decisions=decisions)


def enumerate_decision_vectors(
    schema: DecisionSchema, cap: int = 5000
) -> Iterator[Tuple[List[object], Optional[Tuple[Tuple[int, object], ...]]]]:
    """Yield up to ``cap`` decision vectors over the full product.

    Odometer order over :attr:`DecisionSchema.enumeration_indices`, each
    decision's values in :meth:`DecisionSchema.options_for` order.  The
    first yield carries ``None`` changes (a full assignment); every
    later yield carries the ``(index, value)`` pairs that changed since
    the previous vector (usually one — odometer rollovers change a few).
    The yielded vector is reused in place: snapshot it before storing.
    """
    if cap < 1:
        return
    order = schema.enumeration_indices
    options = [schema.options_for(i) for i in order]
    vector: List[object] = [None] * len(schema.decisions)
    for pos, opts in zip(order, options):
        vector[pos] = opts[0]
    yield vector, None
    produced = 1
    digits = [0] * len(order)
    while produced < cap:
        changed: List[int] = []
        i = len(order) - 1
        while i >= 0:
            digits[i] += 1
            changed.append(i)
            if digits[i] < len(options[i]):
                break
            digits[i] = 0
            i -= 1
        else:
            return  # every digit rolled over: enumeration complete
        changes = []
        for j in sorted(changed):
            pos = order[j]
            value = options[j][digits[j]]
            vector[pos] = value
            changes.append((pos, value))
        yield vector, tuple(changes)
        produced += 1
