"""Columnar difftree wire format: interned trees as parallel integer arrays.

Session snapshots and the carried MCTS tree they hold ship difftrees
(and ASTs) between processes in one encoding: an interned
:class:`~repro.difftree.dtnodes.DTNode` (or
:class:`~repro.sqlast.nodes.Node`) tree flattened once into parallel
preorder columns:

======== ==================================================================
column   meaning (index = preorder rank)
======== ==================================================================
kind     small int kind id (``ALL``/``ANY``/``OPT``/``MULTI``/``EMPTY``)
head     head-symbol id: ``(kind, label, value)`` interned process-wide
         in :data:`repro.sqlast.symbols.SYMBOLS`
size     subtree size — the subtree of ``i`` is the range ``[i, i+size[i])``
parent   preorder index of the parent (``-1`` at the root)
absent   1 if the slot can consume zero AST children
nodes    the interned node objects, for O(1) materialization
======== ==================================================================

:meth:`ColumnarTree.to_payload` / :meth:`ColumnarTree.from_payload`
round-trip the encoding through JSON-native data.  Symbol ids are
process-local, so payloads ship resolved symbols and re-intern on load;
a decoded tree lands on the *same* interned objects as one built natively
in the receiving process.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, Union

from .. import memo as _memo
from ..obs import REGISTRY as _OBS_REGISTRY
from ..obs import trace
from ..sqlast import nodes as N
from ..sqlast.symbols import SYMBOLS
from .dtnodes import ALL, ANY, EMPTY, MULTI, OPT, DTNode

__all__ = [
    "ColumnarTree",
    "STATS",
]

#: Dense kind ids for the ``kind`` column.
K_ALL, K_ANY, K_OPT, K_MULTI, K_EMPTY = range(5)

_KIND_ID = {ALL: K_ALL, ANY: K_ANY, OPT: K_OPT, MULTI: K_MULTI, EMPTY: K_EMPTY}

#: Node union the store encodes: difftrees, or raw ASTs (pure-``ALL``).
TreeNode = Union[DTNode, N.Node]


class ColumnarStats:
    """Process-wide columnar instrumentation (see :data:`STATS`).

    Plain unlocked ints like :class:`~repro.memo.IngestCounters`:
    approximate under concurrency, absorbed into the observability
    registry as ``difftree.columnar.<field>`` at snapshot time.
    """

    __slots__ = ("encodes", "encode_nodes")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def snapshot(self) -> Dict[str, int]:
        """Uniform snapshot for the observability registry."""
        return {name: getattr(self, name) for name in self.__slots__}


#: The process-wide columnar counters (``difftree.columnar.*`` metrics).
STATS = ColumnarStats()

_OBS_REGISTRY.register_source("difftree.columnar", STATS.snapshot)

#: ``root node -> ColumnarTree`` so repeated encodings of the same
#: interned tree (a session snapshotting an unchanged best tree) reuse
#: one encoding.  Registered with ``clear_memo_caches`` and the registry
#: like every other memo table.
_ENCODE_MEMO = _memo.memo_table(512, name="difftree.columnar.encode")


class ColumnarTree:
    """One interned tree, encoded as parallel columns (see module doc).

    Instances are immutable snapshots; columns are plain Python lists.
    """

    __slots__ = (
        "kind",
        "head",
        "size",
        "parent",
        "absent",
        "nodes",
        "is_ast",
        "__weakref__",
    )

    def __init__(self) -> None:
        # Built by the classmethod constructors; not for direct use.
        self.kind: List[int] = []
        self.head: List[int] = []
        self.size: List[int] = []
        self.parent: List[int] = []
        self.absent: List[int] = []
        self.nodes: List[TreeNode] = []
        self.is_ast = False

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_node(cls, root: TreeNode) -> "ColumnarTree":
        """Encode ``root`` (memoized on the interned root object)."""
        cached = _ENCODE_MEMO.get(root)
        if cached is not None:
            return cached
        tree = cls._encode(root)
        _ENCODE_MEMO[root] = tree
        return tree

    @classmethod
    def _encode(cls, root: TreeNode) -> "ColumnarTree":
        with trace("difftree.columnar.encode", nodes=root.size):
            self = cls()
            is_ast = isinstance(root, N.Node)
            self.is_ast = is_ast
            n = root.size
            kind = self.kind = [0] * n
            head = self.head = [0] * n
            size = self.size = [0] * n
            parent = self.parent = [0] * n
            nodes = self.nodes = [root] * n
            id_of = SYMBOLS.id_of
            # Preorder walk assigning ranks; parent rides along.
            index = 0
            stack: List[Tuple[TreeNode, int]] = [(root, -1)]
            while stack:
                node, parent_index = stack.pop()
                i = index
                index += 1
                nodes[i] = node
                parent[i] = parent_index
                size[i] = node._size
                if is_ast:
                    kind[i] = K_ALL
                    head[i] = id_of((ALL, node.label, node.value))
                else:
                    kind[i] = _KIND_ID[node.kind]
                    head[i] = id_of((node.kind, node.label, node.value))
                stack.extend((child, i) for child in reversed(node.children))
            self._fill_absent()
            STATS.encodes += 1
            STATS.encode_nodes += n
            return self

    def _fill_absent(self) -> None:
        """Compute the ``absent`` column in one reverse-preorder sweep.

        Absorbability is synthesized from a node's children, and children
        precede their parent in reverse preorder.
        """
        kind = self.kind
        size = self.size
        n = len(kind)
        absent = self.absent = [0] * n
        for i in range(n - 1, -1, -1):
            k = kind[i]
            if k == K_ANY:
                end = i + size[i]
                j = i + 1
                while j < end and not absent[j]:
                    j += size[j]
                absent[i] = int(j < end)
            elif k != K_ALL:  # OPT, MULTI, EMPTY
                absent[i] = 1

    # -- basic structure -------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of encoded nodes."""
        return len(self.kind)

    def to_node(self) -> TreeNode:
        """The interned root object (O(1): the encoding keeps it)."""
        return self.nodes[0]

    # -- wire format -----------------------------------------------------------

    def to_payload(self, root: int = 0) -> Dict[str, Any]:
        """JSON-native encoding of the tree (the snapshot wire format).

        Symbol ids are process-local, so the payload ships the resolved
        head symbols in a local dictionary; :meth:`from_payload`
        re-interns them through the process-wide :data:`SYMBOLS` table.
        The ``kind``/``size`` columns and the node objects are
        reconstructed on load, not shipped; the ``absent`` column *is*
        shipped (version 2) so the receiver can cross-check its
        re-derivation — a cheap integrity gate against truncated or
        hand-edited payloads.

        Args:
            root: preorder index to encode from — a non-zero value ships
                only that subtree (*partial state*: e.g. one alternative
                of a session's difftree), rebased to its own preorder.
        """
        if not 0 <= root < self.n:
            raise ValueError(f"root index {root} outside [0, {self.n})")
        end = root + self.size[root]
        local: Dict[int, int] = {}
        heads: List[List[Any]] = []
        head_local: List[int] = []
        for sid in self.head[root:end]:
            li = local.get(sid)
            if li is None:
                li = len(heads)
                local[sid] = li
                heads.append(list(SYMBOLS.symbol_of(sid)))
            head_local.append(li)
        return {
            "version": 2,
            "ast": self.is_ast,
            "n": end - root,
            "heads": heads,
            "head": head_local,
            "parent": [
                -1 if i == root else p - root for i, p in
                zip(range(root, end), self.parent[root:end])
            ],
            "absent": list(self.absent[root:end]),
        }

    @classmethod
    def payload_of(cls, node: Optional[TreeNode]) -> Dict[str, Any]:
        """Payload of an *optional* tree (``None`` = absent state).

        Session snapshots carry slots that may legitimately be empty (a
        session that has never searched has no best tree); the absent
        marker keeps "no state" distinguishable from a corrupt payload.
        """
        if node is None:
            return {"version": 2, "absent_state": True}
        return cls.from_node(node).to_payload()

    @classmethod
    def node_of(cls, payload: Optional[Dict[str, Any]]) -> Optional[TreeNode]:
        """Inverse of :meth:`payload_of` (``None`` / absent marker => None)."""
        if payload is None or payload.get("absent_state"):
            return None
        return cls.from_payload(payload).to_node()

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "ColumnarTree":
        """Rebuild (and re-intern) a tree from :meth:`to_payload` output.

        Every head triple is re-interned through the process-wide
        :data:`repro.sqlast.symbols.SYMBOLS` table (values normalized
        from their JSON round-trip first), so trees decoded from
        payloads share head ids — and, via hash-consing, node identity —
        with trees built natively in this process, no matter how many
        payloads from how many senders were decoded before.
        """
        version = payload.get("version")
        if version not in (1, 2):
            raise ValueError(f"unsupported payload version {version!r}")
        n = payload["n"]
        parent = payload["parent"]
        head = payload["head"]
        if n == 0 or len(parent) != n or len(head) != n:
            raise ValueError("malformed payload: inconsistent column lengths")
        heads: List[Tuple[Any, ...]] = []
        for raw in payload["heads"]:
            kind, label, value = (_json_value(part) for part in raw)
            # Re-intern on receive: the canonical (identity-stable) head
            # tuple is the one the process-wide table hands back.
            heads.append(SYMBOLS.symbol_of(SYMBOLS.id_of((kind, label, value))))
        kids: List[List[int]] = [[] for _ in range(n)]
        for i in range(1, n):
            if not 0 <= parent[i] < i:
                raise ValueError("malformed payload: parent array not preorder")
            kids[parent[i]].append(i)
        is_ast = payload["ast"]
        built: List[Optional[TreeNode]] = [None] * n
        for i in range(n - 1, -1, -1):
            kind, label, value = heads[head[i]]
            children = tuple(built[j] for j in kids[i])
            if is_ast:
                built[i] = N.Node(label, value, children)
            else:
                built[i] = DTNode(kind, label, value, children)
        tree = cls.from_node(built[0])
        shipped_absent = payload.get("absent")
        if version >= 2 and shipped_absent is not None:
            if list(shipped_absent) != tree.absent:
                raise ValueError(
                    "corrupt payload: shipped absent column disagrees with "
                    "the re-derived one"
                )
        return tree


def _json_value(value: Any) -> Any:
    """Normalize a JSON-round-tripped head component (lists -> tuples)."""
    if isinstance(value, list):
        return tuple(_json_value(part) for part in value)
    return value
