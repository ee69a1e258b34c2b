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
:class:`Chooser` supplies them; random, greedy and replay choosers cover
the search's needs (random assignments during MCTS rollouts, exhaustive
or coordinate-descent optimization at the end).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Protocol, Sequence, Tuple, Union

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
            derivation decision, the decision point's path (the argument
            passed to ``Chooser.choose_orientation``); ``None`` for fixed
            boxes and non-layout widgets.  Provenance recorded so the
            compiled cost kernel can map box nodes back to decisions.
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

    def interaction_nodes(self) -> List["WidgetNode"]:
        return [n for n in self.walk() if n.choice_path is not None]

    def widget_count(self) -> int:
        return sum(1 for _ in self.walk())


# -- choosers -------------------------------------------------------------------


class Chooser(Protocol):
    """Supplies the free decisions of widget-tree derivation."""

    def choose_widget(
        self, path: Path, domain: ChoiceDomain, candidates: Sequence[WidgetType]
    ) -> Tuple[str, str]:
        """Return ``(widget_name, size_class)`` for a choice node."""
        ...

    def choose_orientation(self, path: Path, num_children: int) -> str:
        """Return ``"vertical"`` or ``"horizontal"`` for a layout box."""
        ...


class GreedyChooser:
    """Minimum-``M`` widget, medium size, vertical boxes (a strong default)."""

    def choose_widget(self, path, domain, candidates):
        return (candidates[0].name, "M")

    def choose_orientation(self, path, num_children):
        return "vertical"


class RandomChooser:
    """Uniformly random decisions — the paper's random widget assignment."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def choose_widget(self, path, domain, candidates):
        widget = self.rng.choice(list(candidates))
        return (widget.name, self.rng.choice(SIZE_CLASSES))

    def choose_orientation(self, path, num_children):
        return self.rng.choice(ORIENTATIONS)


class ReplayChooser:
    """Replays a recorded decision table (used by enumeration/optimizers).

    Missing entries fall back to the greedy decision, so a partial table
    is valid.
    """

    def __init__(
        self,
        widgets: Optional[Dict[Path, Tuple[str, str]]] = None,
        orientations: Optional[Dict[Path, str]] = None,
    ) -> None:
        self.widgets = dict(widgets or {})
        self.orientations = dict(orientations or {})

    def choose_widget(self, path, domain, candidates):
        if path in self.widgets:
            name, size_class = self.widgets[path]
            allowed = {c.name for c in candidates}
            if name in allowed:
                return (name, size_class)
        return (candidates[0].name, "M")

    def choose_orientation(self, path, num_children):
        return self.orientations.get(path, "vertical")


class RecordingChooser:
    """Greedy decisions that also record every decision point and its options."""

    def __init__(self) -> None:
        self.widget_options: Dict[Path, Tuple[str, ...]] = {}
        self.orientation_points: List[Path] = []

    def choose_widget(self, path, domain, candidates):
        self.widget_options[path] = tuple(c.name for c in candidates)
        return (candidates[0].name, "M")

    def choose_orientation(self, path, num_children):
        self.orientation_points.append(path)
        return "vertical"


# -- derivation -------------------------------------------------------------------


def derive_widget_tree(tree: DTNode, chooser: Chooser) -> WidgetNode:
    """Derive a widget tree for a difftree under the given decisions.

    Returns a single root widget node.  A fully-concrete difftree (no
    choices — a one-query log) yields a bare label widget.
    """
    widgets = _build(tree, (), chooser, _context_for(tree, ""))
    if not widgets:
        return WidgetNode(widget="label", title="(static query)")
    if len(widgets) == 1:
        return widgets[0]
    orientation = chooser.choose_orientation((), len(widgets))
    return WidgetNode(widget=orientation, children=tuple(widgets), orientation_path=())


def _build(
    node: DTNode, path: Path, chooser: Chooser, context: str
) -> List[WidgetNode]:
    if node.kind == EMPTY:
        return []
    if node.kind == ALL:
        collected: List[WidgetNode] = []
        for i, child in enumerate(node.children):
            child_context = _child_context(node, i, context)
            collected.extend(_build(child, path + (i,), chooser, child_context))
        if len(collected) >= 2:
            orientation = chooser.choose_orientation(path, len(collected))
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
                inner = _build(alt, path + (i,), chooser, context)
                page_title = option_label(alt, limit=18)
                if not inner:
                    page = WidgetNode(widget="label", title=page_title)
                elif len(inner) == 1:
                    page = inner[0]
                else:
                    orientation = chooser.choose_orientation(path + (i,), len(inner))
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
        name, size_class = chooser.choose_widget(path, domain, candidates)
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
        candidates = candidates_for(domain)
        name, size_class = chooser.choose_widget(path, domain, candidates)
        toggle = WidgetNode(
            widget=name,
            size_class=size_class,
            choice_path=path,
            domain=domain,
            title=context,
        )
        body = _build(node.children[0], path + (0,), chooser, context)
        if not body:
            return [toggle]
        orientation = chooser.choose_orientation(path, 1 + len(body))
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
        body = _build(node.children[0], path + (0,), chooser, context)
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


# -- assignment enumeration ---------------------------------------------------------


@dataclass
class DecisionSpace:
    """All free decisions of a difftree's widget derivation."""

    widget_options: Dict[Path, Tuple[str, ...]] = field(default_factory=dict)
    orientation_points: Tuple[Path, ...] = ()

    @property
    def num_assignments(self) -> int:
        total = 1
        for options in self.widget_options.values():
            total *= len(options) * len(SIZE_CLASSES)
        total *= len(ORIENTATIONS) ** len(self.orientation_points)
        return total


def decision_space(tree: DTNode) -> DecisionSpace:
    """Discover the decision points of ``tree`` via a recording dry run."""
    recorder = RecordingChooser()
    derive_widget_tree(tree, recorder)
    return DecisionSpace(
        widget_options=recorder.widget_options,
        orientation_points=tuple(recorder.orientation_points),
    )


# -- the decision schema (compiled derivation) -----------------------------------


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


@dataclass(frozen=True)
class DecisionDelta:
    """One decision change between consecutive candidate widget trees.

    Emitted by :func:`enumerate_decision_vectors` (and the ``_with_deltas``
    tree enumerator) so a compiled evaluator can patch only the widgets a
    single choice change touched instead of re-scoring the whole tree.
    """

    index: int
    path: Path
    kind: str  # "widget" | "orientation"
    value: object  # (name, size_class) for widgets, orientation name else


class SchemaChooser:
    """Greedy decisions that record the *interleaved* decision sequence.

    Unlike :class:`RecordingChooser` (which keeps widget and orientation
    points in separate containers), this preserves the exact derivation
    call order — required to replay :class:`RandomChooser`'s RNG
    consumption decision-for-decision.
    """

    def __init__(self) -> None:
        self.decisions: List[Decision] = []

    def choose_widget(self, path, domain, candidates):
        self.decisions.append(
            WidgetDecision(path=path, candidates=tuple(c.name for c in candidates))
        )
        return (candidates[0].name, "M")

    def choose_orientation(self, path, num_children):
        self.decisions.append(
            OrientationDecision(path=path, num_children=num_children)
        )
        return "vertical"


@dataclass(frozen=True)
class DecisionSchema:
    """All free decisions of a difftree's derivation, in derivation order.

    A *decision vector* is a list parallel to :attr:`decisions`:
    ``(name, size_class)`` tuples at widget positions and orientation
    names at orientation positions.  The schema is the compile-once
    artifact the cost kernel scores vectors against without ever
    materializing the intermediate widget trees.
    """

    decisions: Tuple[Decision, ...]

    @cached_property
    def widget_indices(self) -> Tuple[int, ...]:
        """Widget-decision positions, sorted by choice path.

        This is the canonical optimizer visit order (the outer loops of
        the legacy enumerator and of coordinate descent) — keep every
        consumer on this single definition so candidate orders and
        tie-breaks never drift apart.
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
        """Digit order of the legacy tree enumeration (rightmost fastest).

        Widget decisions sorted by path come first, then orientation
        decisions in derivation order — matching the loop nesting of the
        original recursive enumerator so winners and tie-breaks agree.
        """
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
        """All values of one decision, in legacy enumeration order."""
        decision = self.decisions[index]
        if isinstance(decision, WidgetDecision):
            return tuple(
                (name, size_class)
                for name in decision.candidates
                for size_class in SIZE_CLASSES
            )
        return ORIENTATIONS

    def greedy_vector(self) -> List[object]:
        """The decisions :class:`GreedyChooser` would make."""
        return [
            (d.candidates[0], "M") if isinstance(d, WidgetDecision) else "vertical"
            for d in self.decisions
        ]

    def random_vector(self, rng: random.Random) -> List[object]:
        """The decisions :class:`RandomChooser` would make.

        Consumes ``rng`` exactly like a :class:`RandomChooser`-driven
        derivation (same calls, same order), so sampling through the
        kernel reproduces legacy sampled evaluation bit-for-bit.
        """
        vector: List[object] = []
        for decision in self.decisions:
            if isinstance(decision, WidgetDecision):
                name = rng.choice(decision.candidates)
                vector.append((name, rng.choice(SIZE_CLASSES)))
            else:
                vector.append(rng.choice(ORIENTATIONS))
        return vector

    def tables(
        self, vector: Sequence[object]
    ) -> Tuple[Dict[Path, Tuple[str, str]], Dict[Path, str]]:
        """Split a decision vector into :class:`ReplayChooser` tables."""
        widgets: Dict[Path, Tuple[str, str]] = {}
        orientations: Dict[Path, str] = {}
        for decision, value in zip(self.decisions, vector):
            if isinstance(decision, WidgetDecision):
                widgets[decision.path] = value  # type: ignore[assignment]
            else:
                orientations[decision.path] = value  # type: ignore[assignment]
        return widgets, orientations

    def delta(self, index: int, value: object) -> DecisionDelta:
        decision = self.decisions[index]
        kind = "widget" if isinstance(decision, WidgetDecision) else "orientation"
        return DecisionDelta(index=index, path=decision.path, kind=kind, value=value)


def decision_schema(tree: DTNode) -> Tuple[WidgetNode, DecisionSchema]:
    """Record a difftree's decision schema (and its greedy skeleton tree).

    The skeleton is the greedy derivation: it fixes the topology every
    candidate of the decision space shares (decisions only swap widget
    types/sizes and box orientations; they never change the tree shape).
    """
    chooser = SchemaChooser()
    skeleton = derive_widget_tree(tree, chooser)
    return skeleton, DecisionSchema(decisions=tuple(chooser.decisions))


def enumerate_decision_vectors(
    schema: DecisionSchema, cap: int = 5000
) -> Iterator[Tuple[List[object], Optional[Tuple[DecisionDelta, ...]]]]:
    """Yield decision vectors over the full product, with change deltas.

    Candidates appear in exactly the legacy :func:`enumerate_widget_trees`
    order.  The first yield carries ``None`` deltas (a full assignment);
    every later yield carries the decisions that changed since the
    previous candidate (usually one — odometer rollovers change a few).
    The yielded vector is reused in place: snapshot it before storing.
    """
    order = schema.enumeration_indices
    options = [schema.options_for(i) for i in order]
    vector: List[object] = schema.greedy_vector()
    for pos, opts in zip(order, options):
        vector[pos] = opts[0]
    produced = 0
    if produced >= cap:
        return
    yield vector, None
    produced += 1
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
        deltas = []
        for j in sorted(changed):
            pos = order[j]
            value = options[j][digits[j]]
            vector[pos] = value
            deltas.append(schema.delta(pos, value))
        yield vector, tuple(deltas)
        produced += 1


def enumerate_widget_trees_with_deltas(
    tree: DTNode, cap: int = 5000
) -> Iterator[Tuple[WidgetNode, Optional[Tuple[DecisionDelta, ...]]]]:
    """Yield ``(widget_tree, deltas)`` over the decision product.

    The deltas describe what changed relative to the previously yielded
    tree (``None`` for the first), letting delta-aware evaluators patch
    instead of recompute; plain consumers can ignore them.
    """
    _, schema = decision_schema(tree)
    for vector, deltas in enumerate_decision_vectors(schema, cap=cap):
        widgets, orientations = schema.tables(vector)
        yield derive_widget_tree(tree, ReplayChooser(widgets, orientations)), deltas


def enumerate_widget_trees(tree: DTNode, cap: int = 5000) -> Iterator[WidgetNode]:
    """Yield widget trees over the full decision product, up to ``cap``.

    The paper enumerates all widget trees of the final difftree; ``cap``
    guards against pathological products (callers fall back to
    coordinate descent via the search layer when the cap is hit).
    """
    for root, _ in enumerate_widget_trees_with_deltas(tree, cap=cap):
        yield root
