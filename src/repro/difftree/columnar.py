"""Tree wire format: an interned tree as JSON-native preorder columns.

Session snapshots and the carried MCTS tree they hold write difftrees
(:class:`~repro.difftree.dtnodes.DTNode`) and ASTs
(:class:`~repro.sqlast.nodes.Node`) with :func:`tree_payload`: per node
in preorder, an index into the distinct ``[kind, label, value]``
``heads`` (AST nodes use kind ``ALL``), the ``parent`` index (``-1`` at
the root) and ``absent`` (1 if the slot can consume zero AST children).
:func:`tree_from_payload` rebuilds the tree through the interning
constructors, so a decoded tree *is* the natively built object, and
rejects a payload whose columns are inconsistent or whose shipped
``absent`` column disagrees with the decoded tree.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple, Union

from ..sqlast import nodes as N
from .dtnodes import ALL, ANY, DTNode

__all__ = ["tree_payload", "tree_from_payload"]

#: The payload version this module writes and reads.
PAYLOAD_VERSION = 2

#: Node union the format encodes: difftrees, or raw ASTs (pure-``ALL``).
TreeNode = Union[DTNode, N.Node]


def tree_payload(node: TreeNode) -> Dict[str, Any]:
    """JSON-native encoding of ``node`` (the snapshot wire format)."""
    is_ast = isinstance(node, N.Node)
    local: Dict[Tuple[Any, ...], int] = {}
    heads: List[List[Any]] = []
    head: List[int] = []
    parent: List[int] = []
    stack: List[Tuple[TreeNode, int]] = [(node, -1)]
    while stack:
        current, up = stack.pop()
        i = len(head)
        kind = ALL if is_ast else current.kind
        symbol = (kind, current.label, current.value)
        index = local.get(symbol)
        if index is None:
            index = local[symbol] = len(heads)
            heads.append(list(symbol))
        head.append(index)
        parent.append(up)
        stack.extend((child, i) for child in reversed(current.children))
    return {
        "version": PAYLOAD_VERSION,
        "ast": is_ast,
        "n": len(head),
        "heads": heads,
        "head": head,
        "parent": parent,
        "absent": _absent_column(heads, head, parent),
    }


def tree_from_payload(payload: Dict[str, Any]) -> TreeNode:
    """Rebuild (and re-intern) the tree a :func:`tree_payload` encoded.

    Raises ``ValueError`` on a malformed or corrupt payload.
    """
    version = payload.get("version")
    if version != PAYLOAD_VERSION:
        raise ValueError(f"unsupported payload version {version!r}")
    n = payload["n"]
    parent = payload["parent"]
    head = payload["head"]
    if n == 0 or len(parent) != n or len(head) != n:
        raise ValueError("malformed payload: inconsistent column lengths")
    heads = [tuple(_json_value(part) for part in raw) for raw in payload["heads"]]
    if not all(0 <= index < len(heads) for index in head):
        raise ValueError(f"malformed payload: head index outside [0, {len(heads)})")
    if parent[0] != -1:
        raise ValueError(f"malformed payload: root parent {parent[0]!r} is not -1")
    kids: List[List[int]] = [[] for _ in range(n)]
    for i in range(1, n):
        if not 0 <= parent[i] < i:
            raise ValueError("malformed payload: parent array not preorder")
        kids[parent[i]].append(i)
    is_ast = payload["ast"]
    built: List[Any] = [None] * n
    for i in range(n - 1, -1, -1):
        kind, label, value = heads[head[i]]
        children = tuple(built[j] for j in kids[i])
        built[i] = (
            N.Node(label, value, children) if is_ast
            else DTNode(kind, label, value, children)
        )
    absent = payload.get("absent")
    if absent is not None and list(absent) != _absent_column(heads, head, parent):
        raise ValueError(
            "corrupt payload: shipped absent column disagrees with "
            "the re-derived one"
        )
    return built[0]


def _absent_column(
    heads: Sequence[Sequence[Any]], head: Sequence[int], parent: Sequence[int]
) -> List[int]:
    """Per preorder index: 1 if the slot can consume zero AST children.

    One reverse-preorder sweep (children follow their parent in
    preorder): ``ALL`` never absorbs, ``ANY`` absorbs when one of its
    alternatives does, ``OPT``/``MULTI``/``EMPTY`` always do.
    """
    n = len(head)
    absent = [0] * n
    child_absent = [False] * n
    for i in range(n - 1, -1, -1):
        kind = heads[head[i]][0]
        if kind == ANY:
            absent[i] = int(child_absent[i])
        elif kind != ALL:
            absent[i] = 1
        if absent[i] and parent[i] >= 0:
            child_absent[parent[i]] = True
    return absent


def _json_value(value: Any) -> Any:
    """Normalize a JSON-round-tripped head component (lists -> tuples)."""
    if isinstance(value, list):
        return tuple(_json_value(part) for part in value)
    return value
