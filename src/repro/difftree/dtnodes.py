"""The ``difftree`` data structure (paper, "The Interface Generation Problem").

A difftree jointly encodes the structural differences between the input
query ASTs *and* the hierarchical layout of the interface.  Node kinds:

* ``ALL``  — a concrete AST head; all child slots are present.  An AST is
  the special case of a difftree in which every node is ``ALL``.
* ``ANY``  — choose exactly one of the children.
* ``OPT``  — the single child is optional (present or absent).
* ``MULTI``— the single child may be instantiated zero or more times.
* ``EMPTY``— the absent subtree ∅ (used as an ``ANY`` alternative).

``ANY``, ``OPT`` and ``MULTI`` are the *choice nodes*; each maps to one or
more interaction widgets, while ``ALL`` nodes with choice descendants map
to layout widgets.

Difftree nodes are immutable; every rewrite produces a new tree.  Each node
caches a *canonical key* — a deterministic structural fingerprint used for
state deduplication in the search transposition table (Python's built-in
``hash`` is randomized per process, so it cannot identify states across
runs).

Like AST nodes, difftree nodes are **hash-consed**: constructing a node
whose ``(kind, label, value, children)`` matches a live instance returns
that instance, so structural equality is usually one identity check and
every pure function over trees (``normalize``, ``anti_unify``, ``graft``,
``expresses``) can memoize on node identity.  The md5 canonical key is
computed lazily on first use — interning shares it across every context
that reaches the same subtree.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterator, List, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary, WeakValueDictionary

from .. import memo as _memo
from ..memo import INGEST
from ..sqlast import nodes as N
from ..sqlast.align import STRUCTURAL_VALUE_LABELS

ALL = "ALL"
ANY = "ANY"
OPT = "OPT"
MULTI = "MULTI"
EMPTY = "EMPTY"

CHOICE_KINDS = frozenset({ANY, OPT, MULTI})

#: A path into a difftree: tuple of child indices from the root.
Path = Tuple[int, ...]

#: The hash-consing table: ``(kind, label, value, children) -> live DTNode``.
_INTERN: "WeakValueDictionary[Tuple, DTNode]" = WeakValueDictionary()


class DTNode:
    """One immutable difftree node.

    Args:
        kind: one of ``ALL``/``ANY``/``OPT``/``MULTI``/``EMPTY``.
        label: for ``ALL`` nodes, the AST grammar label; ``None`` otherwise.
        value: for ``ALL`` nodes, the AST node's scalar payload.
        children: child difftree nodes.  ``OPT`` and ``MULTI`` have exactly
            one child; ``EMPTY`` has none; ``ANY`` has one child per
            alternative.
    """

    __slots__ = (
        "kind",
        "label",
        "value",
        "children",
        "_key",
        "_hash",
        "_size",
        "_norm",
        "__weakref__",
    )

    def __new__(
        cls,
        kind: str,
        label: Optional[str] = None,
        value: Any = None,
        children: Sequence["DTNode"] = (),
    ) -> "DTNode":
        children = tuple(children)
        key = (kind, label, value, children)
        cached = _INTERN.get(key)
        if cached is not None:
            INGEST.dtnode_intern_hits += 1
            return cached
        if kind == ALL:
            if label is None:
                raise ValueError("ALL node requires a label")
        elif kind == EMPTY:
            if label is not None or value is not None or children:
                raise ValueError("EMPTY node must be bare")
        elif kind in (OPT, MULTI):
            if len(children) != 1:
                raise ValueError(f"{kind} node requires exactly one child")
            if label is not None or value is not None:
                raise ValueError(f"{kind} node carries no label/value")
        elif kind == ANY:
            if len(children) < 1:
                raise ValueError("ANY node requires at least one alternative")
            if label is not None or value is not None:
                raise ValueError("ANY node carries no label/value")
        else:
            raise ValueError(f"unknown difftree kind {kind!r}")
        self = object.__new__(cls)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "children", children)
        # Process-local structural fingerprint: child hashes are cached
        # ints, so hashing stays O(fanout) per node.  The deterministic
        # md5 canonical key (stable across processes) is computed lazily
        # on first use — see :attr:`canonical_key`.
        object.__setattr__(self, "_key", None)
        object.__setattr__(self, "_hash", hash(key))
        object.__setattr__(self, "_size", 1 + sum(c._size for c in children))
        # Memoized normalize() result (None = not yet normalized).
        object.__setattr__(self, "_norm", None)
        _INTERN[key] = self
        return self

    # -- immutability / identity ---------------------------------------------

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("DTNode is immutable")

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Slotted + immutable blocks pickle's default setattr-based path;
        # rebuilding through __init__ re-interns an unpickled node and
        # recomputes the cached key.
        return (DTNode, (self.kind, self.label, self.value, self.children))

    def __eq__(self, other: object) -> bool:
        # Interning makes the identity check decide almost every
        # comparison; the structural fallback only runs for the rare
        # un-interned twin (e.g. built concurrently on another thread).
        if self is other:
            return True
        if not isinstance(other, DTNode):
            return NotImplemented
        if self._hash != other._hash:
            return False
        return (
            self.kind == other.kind
            and self.label == other.label
            and self.value == other.value
            and self.children == other.children
        )

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    @property
    def fingerprint(self) -> int:
        """Cached structural fingerprint (process-local; O(1) equality)."""
        return self._hash

    @property
    def canonical_key(self) -> str:
        """Deterministic structural fingerprint (stable across processes).

        Computed lazily on first access and cached on the interned node,
        so the md5 cost is paid once per *distinct* subtree per process.
        The digest text is identical to the historical eager computation,
        so keys (and everything keyed by them — the interface cache, the
        MCTS transposition table) are unchanged.
        """
        key = self._key
        if key is None:
            text = "{}:{}:{!r}({})".format(
                self.kind,
                self.label or "",
                self.value,
                ",".join(c.canonical_key for c in self.children),
            )
            key = hashlib.md5(text.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_key", key)
        return key

    def __repr__(self) -> str:
        if self.kind == ALL:
            head = self.label if self.value is None else f"{self.label}={self.value!r}"
            if not self.children:
                return f"DT[{head}]"
            return f"DT[{head}]({', '.join(map(repr, self.children))})"
        if self.kind == EMPTY:
            return "DT[∅]"
        return f"DT[{self.kind}]({', '.join(map(repr, self.children))})"

    # -- structure -------------------------------------------------------------

    @property
    def size(self) -> int:
        return self._size

    @property
    def is_choice(self) -> bool:
        return self.kind in CHOICE_KINDS

    @property
    def head(self) -> Tuple[Optional[str], Any]:
        """The AST head ``(label, value)`` of an ``ALL`` node."""
        return (self.label, self.value)

    def align_key(self) -> Tuple[str, Any]:
        """Key on which two ALL nodes may be aligned (cf. sqlast.align)."""
        if self.kind != ALL:
            return (self.kind, None)
        if self.label in STRUCTURAL_VALUE_LABELS:
            return (self.label, self.value)
        return (self.label, None)

    def walk(self) -> Iterator["DTNode"]:
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def walk_paths(self, prefix: Path = ()) -> Iterator[Tuple[Path, "DTNode"]]:
        yield prefix, self
        for i, child in enumerate(self.children):
            yield from child.walk_paths(prefix + (i,))

    def at(self, path: Sequence[int]) -> "DTNode":
        node = self
        for index in path:
            node = node.children[index]
        return node

    def replace_at(self, path: Sequence[int], new: "DTNode") -> "DTNode":
        """Return a copy with the node at ``path`` replaced by ``new``."""
        if not path:
            return new
        index = path[0]
        child = self.children[index].replace_at(path[1:], new)
        children = self.children[:index] + (child,) + self.children[index + 1 :]
        return DTNode(self.kind, self.label, self.value, children)

    def choice_nodes(self) -> List[Tuple[Path, "DTNode"]]:
        """All choice nodes with their paths, in pre-order."""
        return [(p, n) for p, n in self.walk_paths() if n.is_choice]

    def has_choice_descendant(self) -> bool:
        return any(n.is_choice for n in self.walk())


#: The singleton absent subtree.
EMPTY_NODE = DTNode(EMPTY)


def all_node(label: str, value: Any = None, children: Sequence[DTNode] = ()) -> DTNode:
    return DTNode(ALL, label, value, children)


def any_node(alternatives: Sequence[DTNode]) -> DTNode:
    return DTNode(ANY, None, None, alternatives)


def any_merge(members: Sequence[DTNode]) -> DTNode:
    """ANY over ``members``, flattening nested ANY alternatives eagerly.

    The final ``normalize`` would flatten too, but grafting compares
    subtree sizes mid-merge to pick the cheapest insertion point — an
    unflattened nested ANY would overstate the growth of exactly the
    merges that reuse an existing choice domain.
    """
    alternatives: List[DTNode] = []
    for member in members:
        if member.kind == ANY:
            alternatives.extend(member.children)
        else:
            alternatives.append(member)
    return any_node(alternatives)


def opt_node(child: DTNode) -> DTNode:
    return DTNode(OPT, None, None, (child,))


def multi_node(child: DTNode) -> DTNode:
    return DTNode(MULTI, None, None, (child,))


#: ``interned AST node -> its pure-ALL difftree`` (weak keys: dies with
#: the AST).  Interned ASTs make this a structural memo.
_WRAP_MEMO: "WeakKeyDictionary[N.Node, DTNode]" = WeakKeyDictionary()
_memo.register_cache(_WRAP_MEMO.clear)


def wrap_ast(ast: N.Node) -> DTNode:
    """Embed a concrete AST as a pure-``ALL`` difftree (memoized)."""
    cached = _WRAP_MEMO.get(ast)
    if cached is not None:
        INGEST.wrap_memo_hits += 1
        return cached
    node = DTNode(ALL, ast.label, ast.value, tuple(wrap_ast(c) for c in ast.children))
    _WRAP_MEMO[ast] = node
    return node


def unwrap_ast(node: DTNode) -> N.Node:
    """Convert a choice-free difftree back to an AST.

    Raises:
        ValueError: if the subtree contains any choice or EMPTY node.
    """
    if node.kind != ALL:
        raise ValueError(f"cannot unwrap {node.kind} node to an AST")
    return N.Node(node.label, node.value, tuple(unwrap_ast(c) for c in node.children))


def pretty(node: DTNode, indent: int = 0) -> str:
    """Human-readable multi-line rendering (used in docs and debugging)."""
    pad = "  " * indent
    if node.kind == ALL:
        head = node.label if node.value is None else f"{node.label}={node.value!r}"
        line = f"{pad}{head}"
    elif node.kind == EMPTY:
        return f"{pad}∅"
    else:
        line = f"{pad}{node.kind}"
    if not node.children:
        return line
    body = "\n".join(pretty(c, indent + 1) for c in node.children)
    return f"{line}\n{body}"
