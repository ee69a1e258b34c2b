"""Typed, immutable abstract-syntax-tree nodes for the SQL subset.

The paper models every query as its AST (Figure 1).  We use one generic
:class:`Node` class parameterized by a *label* (the grammar rule, e.g.
``Select``, ``ColExpr``), an optional scalar *value* (column name, literal,
operator) and a tuple of children.  Nodes are immutable and hashable so they
can be shared freely between difftrees, used as dictionary keys, and
structurally deduplicated.

Nodes are **hash-consed**: constructing a node whose ``(label, value,
children)`` triple matches a live instance returns that instance, so
structurally equal subtrees built anywhere in the process are the *same*
object and equality is usually one identity check.  The intern table is
weak — nodes are collected normally once unreferenced — and pickling
re-interns in the receiving process (``__reduce__`` rebuilds through the
constructor).
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Sequence, Tuple
from weakref import WeakValueDictionary

from ..memo import INGEST

# ---------------------------------------------------------------------------
# Grammar labels.  Using plain strings (not an enum) keeps nodes lightweight
# and lets the difftree layer treat labels fully generically.
# ---------------------------------------------------------------------------

SELECT = "Select"
TOP = "Top"
PROJECT = "Project"
COLEXPR = "ColExpr"
STAR = "Star"
FUNC = "Func"
ALIAS = "Alias"
FROM = "From"
TABLE = "Table"
WHERE = "Where"
AND = "And"
OR = "Or"
NOT = "Not"
BIEXPR = "BiExpr"
BETWEEN = "Between"
INLIST = "InList"
NUMEXPR = "NumExpr"
STREXPR = "StrExpr"
GROUPBY = "GroupBy"
ORDERBY = "OrderBy"
ORDERITEM = "OrderItem"
LIMIT = "Limit"

#: Labels whose nodes carry a scalar payload in ``value``.
VALUE_LABELS = frozenset(
    {TOP, COLEXPR, FUNC, ALIAS, TABLE, BIEXPR, NUMEXPR, STREXPR, ORDERITEM, LIMIT}
)

#: The hash-consing table: ``(label, value, children) -> live Node``.
#: Values are weak, so interning never extends a node's lifetime.
_INTERN: "WeakValueDictionary[Tuple[str, Any, Tuple['Node', ...]], Node]" = (
    WeakValueDictionary()
)


class Node:
    """An immutable AST node.

    Args:
        label: grammar-rule name (one of the module-level label constants).
        value: optional scalar payload (e.g. a column name for ``ColExpr``,
            the operator string for ``BiExpr``, a number for ``NumExpr``).
        children: child nodes, stored as a tuple.

    Equality and hashing are structural and O(1) after construction: the
    hash is computed bottom-up once and cached, and interning makes most
    equality checks a single identity comparison (equal structures are
    the same object; unequal ones almost always differ in cached hash).
    """

    __slots__ = ("label", "value", "children", "_hash", "_size", "__weakref__")

    def __new__(
        cls,
        label: str,
        value: Any = None,
        children: Sequence["Node"] = (),
    ) -> "Node":
        children = tuple(children)
        key = (label, value, children)
        cached = _INTERN.get(key)
        if cached is not None:
            INGEST.node_intern_hits += 1
            return cached
        for child in children:
            if not isinstance(child, Node):
                raise TypeError(f"child of {label} is not a Node: {child!r}")
        self = object.__new__(cls)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "_hash", hash(key))
        object.__setattr__(
            self, "_size", 1 + sum(c._size for c in children)
        )
        _INTERN[key] = self
        return self

    # -- immutability -------------------------------------------------------

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Node is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("Node is immutable")

    # -- identity -----------------------------------------------------------

    def __reduce__(self):
        # Slotted + immutable blocks pickle's default setattr-based path;
        # rebuild through __init__, which re-interns an unpickled node.
        return (Node, (self.label, self.value, self.children))

    def __hash__(self) -> int:
        return self._hash

    @property
    def fingerprint(self) -> int:
        """Cached structural fingerprint (process-local).

        Interning makes equal fingerprints of live nodes coincide with
        object identity; use :meth:`repro.difftree.wrap_ast` canonical
        keys when a cross-process-stable digest is needed.
        """
        return self._hash

    def __eq__(self, other: object) -> bool:
        # Interning makes the identity check decide almost every
        # comparison; the structural fallback only runs for the rare
        # un-interned twin (e.g. built concurrently on another thread).
        if self is other:
            return True
        if not isinstance(other, Node):
            return NotImplemented
        if self._hash != other._hash:
            return False
        return (
            self.label == other.label
            and self.value == other.value
            and self.children == other.children
        )

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __repr__(self) -> str:
        parts = [self.label]
        if self.value is not None:
            parts.append(f"value={self.value!r}")
        if self.children:
            parts.append(f"children={list(self.children)!r}")
        return f"Node({', '.join(parts)})"

    # -- structure ----------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of nodes in this subtree (including this node)."""
        return self._size

    def walk(self) -> Iterator["Node"]:
        """Yield this node and all descendants in pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def walk_paths(
        self, prefix: Tuple[int, ...] = ()
    ) -> Iterator[Tuple[Tuple[int, ...], "Node"]]:
        """Yield ``(path, node)`` pairs in pre-order.

        A *path* is a tuple of child indices from the root; the root's path
        is the empty tuple.
        """
        yield prefix, self
        for i, child in enumerate(self.children):
            yield from child.walk_paths(prefix + (i,))

    def at(self, path: Sequence[int]) -> "Node":
        """Return the descendant at ``path`` (root for an empty path)."""
        node = self
        for index in path:
            node = node.children[index]
        return node

    def replace_at(self, path: Sequence[int], new: Optional["Node"]) -> "Node":
        """Return a copy with the subtree at ``path`` replaced by ``new``.

        If ``new`` is ``None`` the subtree is deleted.  Replacing the root
        (empty path) with ``None`` is an error.
        """
        if not path:
            if new is None:
                raise ValueError("cannot delete the root node")
            return new
        index = path[0]
        child = self.children[index]
        if len(path) == 1:
            replacement = new
        else:
            replacement = child.replace_at(path[1:], new)
        if replacement is None:
            new_children = self.children[:index] + self.children[index + 1 :]
        else:
            new_children = (
                self.children[:index] + (replacement,) + self.children[index + 1 :]
            )
        return Node(self.label, self.value, new_children)

    def child_by_label(self, label: str) -> Optional["Node"]:
        """Return the first direct child with the given label, if any."""
        for child in self.children:
            if child.label == label:
                return child
        return None

    def signature(self) -> Tuple[str, Any]:
        """Return the ``(label, value)`` pair identifying this node's head."""
        return (self.label, self.value)


# ---------------------------------------------------------------------------
# Constructors.  These tiny helpers make building ASTs in tests and data
# generators readable and enforce canonical shapes.
# ---------------------------------------------------------------------------


def select(
    *,
    project: Node,
    from_: Node,
    top: Optional[Node] = None,
    where: Optional[Node] = None,
    group_by: Optional[Node] = None,
    order_by: Optional[Node] = None,
    limit: Optional[Node] = None,
) -> Node:
    """Build a ``Select`` node with clauses in canonical order."""
    clauses = [top, project, from_, where, group_by, order_by, limit]
    children = [c for c in clauses if c is not None]
    return Node(SELECT, None, children)


def top(n: int) -> Node:
    return Node(TOP, int(n))


def project(*exprs: Node) -> Node:
    return Node(PROJECT, None, exprs)


def col(name: str) -> Node:
    return Node(COLEXPR, name)


def star() -> Node:
    return Node(STAR)


def func(name: str, arg: Node) -> Node:
    return Node(FUNC, name.lower(), (arg,))


def alias(expr: Node, name: str) -> Node:
    return Node(ALIAS, name, (expr,))


def from_tables(*names: str) -> Node:
    return Node(FROM, None, tuple(Node(TABLE, n) for n in names))


def where(predicate: Node) -> Node:
    return Node(WHERE, None, (predicate,))


def and_(*preds: Node) -> Node:
    if len(preds) == 1:
        return preds[0]
    return Node(AND, None, preds)


def or_(*preds: Node) -> Node:
    if len(preds) == 1:
        return preds[0]
    return Node(OR, None, preds)


def not_(pred: Node) -> Node:
    return Node(NOT, None, (pred,))


def biexpr(op: str, left: Node, right: Node) -> Node:
    return Node(BIEXPR, op, (left, right))


def between(column: Node, lo: Node, hi: Node) -> Node:
    return Node(BETWEEN, None, (column, lo, hi))


def in_list(column: Node, *values: Node) -> Node:
    return Node(INLIST, None, (column,) + tuple(values))


def num(value: float) -> Node:
    if isinstance(value, bool):
        raise TypeError("boolean literals are not supported")
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return Node(NUMEXPR, value)


def lit(value: str) -> Node:
    return Node(STREXPR, value)


def group_by(*cols: Node) -> Node:
    return Node(GROUPBY, None, cols)


def order_by(*items: Node) -> Node:
    return Node(ORDERBY, None, items)


def order_item(column: Node, direction: str = "asc") -> Node:
    direction = direction.lower()
    if direction not in ("asc", "desc"):
        raise ValueError(f"invalid order direction: {direction!r}")
    return Node(ORDERITEM, direction, (column,))


def limit(n: int) -> Node:
    return Node(LIMIT, int(n))
