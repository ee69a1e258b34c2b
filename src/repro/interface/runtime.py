"""The interaction runtime: widgets as functions ``w(q, u) → q'``.

A :class:`InterfaceSession` holds a generated interface's difftree and
widget tree plus the *current choice assignment* (= current query).  Every
widget interaction updates one choice, re-instantiates the query from the
difftree, re-executes it against the database, and refreshes the
visualization — the full loop the paper describes for its interfaces.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..database import Database, ResultSet, execute
from ..difftree import (
    ALL,
    ANY,
    Assignment,
    DTNode,
    EMPTY,
    MULTI,
    OPT,
    Path,
    assignment_for,
)
from ..sqlast import Node, to_sql
from ..vis import ChartSpec, recommend_chart
from ..widgets.tree import WidgetNode


class InteractionError(Exception):
    """Raised for interactions that the interface cannot express."""


def instantiate(tree: DTNode, assignment: Assignment, path: Path = ()) -> Node:
    """Resolve every choice in ``tree`` using ``assignment`` into an AST.

    Choices missing from the assignment default to the first alternative
    (``ANY``), absent (``OPT``), and one repetition (``MULTI``) — the
    defaults a freshly rendered widget would show.
    """
    nodes = _instantiate_seq(tree, assignment, path)
    if len(nodes) != 1:
        raise InteractionError(
            f"difftree root resolved to {len(nodes)} nodes (expected 1)"
        )
    return nodes[0]


def _instantiate_seq(
    node: DTNode, assignment: Assignment, path: Path
) -> Tuple[Node, ...]:
    kind = node.kind
    if kind == EMPTY:
        return ()
    if kind == ALL:
        children: List[Node] = []
        for i, child in enumerate(node.children):
            children.extend(_instantiate_seq(child, assignment, path + (i,)))
        return (Node(node.label, node.value, tuple(children)),)
    if kind == ANY:
        index = assignment.get(path, 0)
        if not isinstance(index, int) or not (0 <= index < len(node.children)):
            raise InteractionError(f"invalid ANY choice {index!r} at {path}")
        return _instantiate_seq(node.children[index], assignment, path + (index,))
    if kind == OPT:
        present = assignment.get(path, False)
        if present:
            return _instantiate_seq(node.children[0], assignment, path + (0,))
        return ()
    if kind == MULTI:
        reps = assignment.get(path, None)
        template = node.children[0]
        if reps is None:
            return _instantiate_seq(template, {}, path + (0,))
        out: List[Node] = []
        for rep in reps:
            sub_assignment = {
                path + (0,) + rel: value for rel, value in dict(rep).items()
            }
            out.extend(_instantiate_seq(template, sub_assignment, path + (0,)))
        return tuple(out)
    raise AssertionError(kind)


class InterfaceSession:
    """A live, scriptable instance of a generated interface.

    Args:
        tree: the difftree behind the interface.
        widget_tree: the rendered widget tree.
        db: database the current query executes against (optional; without
            it the session still tracks the current query, it just cannot
            produce results/charts).
        initial_query: starting query; defaults to the difftree's default
            choices.
    """

    def __init__(
        self,
        tree: DTNode,
        widget_tree: WidgetNode,
        db: Optional[Database] = None,
        initial_query: Optional[Node] = None,
    ) -> None:
        self.tree = tree
        self.widget_tree = widget_tree
        self.db = db
        self._widgets_by_path: Dict[Path, WidgetNode] = {
            n.choice_path: n
            for n in widget_tree.walk()
            if n.choice_path is not None
        }
        if initial_query is not None:
            assignment = assignment_for(tree, initial_query)
            if assignment is None:
                raise InteractionError(
                    f"interface cannot express {to_sql(initial_query)!r}"
                )
            self.assignment: Assignment = assignment
        else:
            self.assignment = {}
        self.interaction_log: List[Tuple[Path, Any]] = []

    # -- state -----------------------------------------------------------------

    @property
    def current_query(self) -> Node:
        return instantiate(self.tree, self.assignment)

    @property
    def current_sql(self) -> str:
        return to_sql(self.current_query)

    def widget_at(self, path: Path) -> WidgetNode:
        try:
            return self._widgets_by_path[path]
        except KeyError:
            raise InteractionError(f"no widget controls choice {path}") from None

    def widgets(self) -> List[WidgetNode]:
        """All interaction widgets, stable order (by choice path)."""
        return [self._widgets_by_path[p] for p in sorted(self._widgets_by_path)]

    # -- interactions ------------------------------------------------------------

    def set_choice(self, path: Path, value: Any) -> Node:
        """Set a choice directly (ANY index / OPT bool / MULTI reps)."""
        widget = self.widget_at(path)
        node = self.tree.at(path)
        if node.kind == ANY:
            if not isinstance(value, int) or not (0 <= value < len(node.children)):
                raise InteractionError(
                    f"widget {widget.widget!r} at {path} needs an option index "
                    f"in [0, {len(node.children)}), got {value!r}"
                )
        elif node.kind == OPT:
            value = bool(value)
        self.assignment = dict(self.assignment)
        self.assignment[path] = value
        self.interaction_log.append((path, value))
        return self.current_query

    def select_option(self, path: Path, label: str) -> Node:
        """Pick an option of an enumerating widget by its display label."""
        widget = self.widget_at(path)
        if widget.domain is None:
            raise InteractionError(f"widget at {path} has no option domain")
        try:
            index = widget.domain.labels.index(label)
        except ValueError:
            raise InteractionError(
                f"option {label!r} not in {widget.domain.labels}"
            ) from None
        return self.set_choice(path, index)

    def toggle(self, path: Path) -> Node:
        """Flip an OPT toggle/checkbox."""
        node = self.tree.at(path)
        if node.kind != OPT:
            raise InteractionError(f"node at {path} is {node.kind}, not OPT")
        current = bool(self.assignment.get(path, False))
        return self.set_choice(path, not current)

    def load_query(self, query: Node) -> Node:
        """Set every widget so the interface shows ``query``."""
        assignment = assignment_for(self.tree, query)
        if assignment is None:
            raise InteractionError(f"interface cannot express {to_sql(query)!r}")
        self.assignment = assignment
        self.interaction_log.append(((), "load"))
        return self.current_query

    def can_express(self, query: Node) -> bool:
        return assignment_for(self.tree, query) is not None

    # -- execution ----------------------------------------------------------------

    def run(self) -> ResultSet:
        """Execute the current query against the session database."""
        if self.db is None:
            raise InteractionError("session has no database attached")
        return execute(self.db, self.current_query)

    def chart(self) -> ChartSpec:
        """Visualization spec for the current result (Show-Me style)."""
        return recommend_chart(self.run(), self.current_query)
