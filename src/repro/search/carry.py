"""Cross-append carry of the MCTS search tree, with delta-scoped invalidation.

Warm start (:mod:`repro.serve.incremental`) reseeds each append's search
with the prior incumbent and elites, but the *search tree itself* — UCT
visit counts, mean rewards, the unexpanded frontier — was rebuilt from
scratch every run, so per-append search work grew with log size even
though :meth:`repro.cost.kernel.CompiledSequence.extend` already knows
exactly which choice-sets an append touches.

This module makes the session's search state maintainable in the
FO+MOD-under-updates sense (Berkholz et al.: maintain answers under
updates with bounded recompute instead of re-evaluating from scratch):

* :meth:`CarriedTree.harvest` — at the end of a run, keep the (capped,
  parent-closed) transposition table together with each kept state's
  *choice-path universe*: the set of choice paths its compiled query
  sequence exercises, peeked from the cost model's kernel cache.
* :meth:`CarriedTree.rebase` — at the next run, diff the appended
  queries' changed choice-paths *per carried state* (through the
  fingerprint-memoized matcher, so repeated query shapes re-walk
  nothing) and re-key the survivors onto the grown difftree:

  - the **root** always survives — it is re-keyed to the new run's
    initial state (the ``ANY`` over the grown log) but restarts
    *stat-free*: its carried visit count (one per backpropagation of
    the prior run) would crush the UCT exploration bonus and starve
    the root re-expansion the append makes necessary;
  - a non-root node survives iff its parent survived, its state already
    expresses every appended query (the difftree extension is an
    identity graft for it, so its canonical key — and hence its
    transposition identity — is unchanged), **and** the appended pairs'
    changed choice-paths fall inside its harvested universe (the append
    only re-weights decision territory its statistics already cover);
  - everything else is invalidated; a surviving parent that lost a
    child — and any survivor the append touched (non-empty delta, or
    the re-anchored root) — is reopened (``expanded`` cleared) so the
    search can re-derive the changed subtree under the new cost surface.

  Invalidation therefore propagates downward — the carried table stays
  parent-closed, which ``MCTS._backpropagate`` requires — and the
  surviving nodes re-enter :meth:`repro.search.mcts.MCTS.open`'s
  frontier rebuild with their mean rewards intact and their visit mass
  decayed by :data:`STAT_DECAY` (ranking survives, exploration
  pressure returns).

Retention windows (:meth:`repro.serve.stream.LogStream.retain` /
``remove``) use the same bounded-recompute story: the serve layer
retracts removed queries from the carried compiled sequences
(:meth:`repro.cost.kernel.CompiledSequence.without` re-diffs only the
rejoined boundary pairs) and shrinks the carried universes accordingly;
the counters here let the maintenance benchmark assert that only
choice-sets anchored in dropped queries were recomputed.

Everything is gated by :func:`repro.memo.carry_enabled` — disabling the
gate restores the rebuild-from-scratch reference path, which the maintenance benchmark uses as its parity
oracle, per the established gate idiom.

Rewards carried across an append were normalized against the *old* log's
cost range; they are heuristic guidance for UCT (like warm seeds), not
ground truth — state costs themselves are always re-evaluated against
the current log, so carrying never changes which interface a converged
search reports, only how fast it converges.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..difftree import DTNode, Path, assignment_for, tree_from_payload, tree_payload
from ..difftree.express import changed_choices
from ..obs import REGISTRY as _OBS_REGISTRY
from ..sqlast import nodes as N
from .mcts import MCTS, _TreeNode

__all__ = ["CarriedTree", "CarryStats", "STATS", "STAT_DECAY"]


@dataclass
class CarryStats:
    """Process-wide carry/invalidation counters (see :data:`STATS`).

    Attributes:
        trees_harvested: finished runs whose table was carried.
        trees_rebased: carried tables re-keyed onto a grown difftree.
        nodes_harvested: nodes kept at harvest time (post-cap).
        nodes_capped: nodes dropped by the harvest size cap.
        nodes_carried: nodes that survived a rebase (mean rewards kept,
            visit mass decayed; the re-anchored root restarts stat-free).
        nodes_invalidated: nodes dropped by a rebase (parent gone, new
            query inexpressible, or delta outside the universe).
        nodes_rekeyed: survivors whose parent link was re-keyed (root
            re-anchoring included).
        nodes_reopened: survivors re-entered into the frontier — parents
            whose invalidated child left their subtree incomplete, and
            nodes the append touched (non-empty delta or the re-anchored
            root), whose move set may have gained actions.
        retention_removals: queries dropped by ``remove()``/``retain()``.
        retention_retracts: carried compiled sequences retracted in
            place after a removal (instead of a full recompile).
        retention_pairs_rediffed: rejoined boundary pairs re-diffed by
            those retractions — the *only* changed-choice recompute a
            retention window is allowed to pay.
    """

    trees_harvested: int = 0
    trees_rebased: int = 0
    nodes_harvested: int = 0
    nodes_capped: int = 0
    nodes_carried: int = 0
    nodes_invalidated: int = 0
    nodes_rekeyed: int = 0
    nodes_reopened: int = 0
    retention_removals: int = 0
    retention_retracts: int = 0
    retention_pairs_rediffed: int = 0

    def snapshot(self) -> Dict[str, int]:
        """Plain-dict snapshot (stable keys, JSON-native values)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0)


#: The process-wide counter instance; registered as ``search.carry.*``.
#: Plain unlocked ints, like :data:`repro.memo.INGEST` — monotone and
#: approximate under concurrency, exact in the single-threaded benches.
STATS = CarryStats()

_OBS_REGISTRY.register_source("search.carry", STATS.snapshot)


#: How much of a node's visit mass survives a rebase.  Carried rewards
#: were normalized against the *previous* run's cost range, so their
#: means still rank siblings usefully but their visit counts overstate
#: how much the statistics say about the *grown* log's cost surface.
#: Decaying visits (mean rewards preserved) restores UCT's exploration
#: pressure — without it the re-anchored root's huge carried visit count
#: starves the very re-expansion the append made necessary.
STAT_DECAY = 0.25


def _copy_node(
    node: _TreeNode, parent_key: Optional[str], decay: float = 1.0
) -> _TreeNode:
    """A detached copy of one tree node (carried tables own their nodes).

    ``decay`` < 1 shrinks the visit count (floor 1) while preserving the
    mean reward, so a rebased node keeps its ranking but regains an
    exploration bonus under UCT.
    """
    visits = node.visits
    reward_sum = node.reward_sum
    if decay < 1.0 and visits:
        mean = reward_sum / visits
        visits = max(1, int(visits * decay))
        reward_sum = mean * visits
    return _TreeNode(
        state=node.state,
        parent_key=parent_key,
        visits=visits,
        reward_sum=reward_sum,
        expanded=node.expanded,
        depth=node.depth,
    )


@dataclass
class CarriedTree:
    """One session's search tree, carried between runs.

    Attributes:
        nodes: canonical key -> node, in insertion order.  MCTS creates
            parents before children, so iteration order is topological —
            the invariant both :meth:`rebase` (parent-before-child
            survival) and determinism (the frontier heap's tie-breaking
            sequence numbers follow insertion order) rely on.
        universes: canonical key -> the choice-path set the state's
            compiled query sequence exercises, where the model's kernel
            cache still held it at harvest time (``None`` entries are
            treated as *unknown* and invalidated on any non-empty
            append delta).
        log_len: how many leading queries of the session's stream the
            carried statistics reflect.  Maintained by the serve layer
            across appends *and* retention removals.
    """

    nodes: Dict[str, _TreeNode]
    universes: Dict[str, Optional[FrozenSet[Path]]]
    log_len: int

    # -- harvest -------------------------------------------------------------

    @classmethod
    def harvest(
        cls,
        mcts: MCTS,
        model,
        log_len: int,
        max_nodes: int = 256,
    ) -> "CarriedTree":
        """Carry a finished run's transposition table.

        Keeps at most ``max_nodes`` nodes: the root plus the most-visited
        states, closed under parents (a kept node's whole ancestor chain
        is kept — backpropagation walks it), in original insertion order.
        Universes are *peeked* from the model's bounded kernel cache —
        harvesting compiles nothing.
        """
        source = mcts.nodes
        keep: set = set()
        if len(source) <= max_nodes:
            keep.update(source)
        else:
            ranked = sorted(
                source.items(), key=lambda item: item[1].visits, reverse=True
            )
            for key, node in ranked:
                if len(keep) >= max_nodes:
                    break
                chain = []
                cursor: Optional[str] = key
                while cursor is not None and cursor not in keep:
                    chain.append(cursor)
                    cursor = source[cursor].parent_key
                # All-or-nothing per ancestor chain: partial chains would
                # orphan the node under the cap.
                if len(keep) + len(chain) <= max_nodes:
                    keep.update(chain)
        nodes: Dict[str, _TreeNode] = {}
        universes: Dict[str, Optional[FrozenSet[Path]]] = {}
        for key, node in source.items():  # insertion order preserved
            if key not in keep:
                continue
            nodes[key] = _copy_node(node, node.parent_key)
            universes[key] = model.sequence_universe(node.state)
        STATS.trees_harvested += 1
        STATS.nodes_harvested += len(nodes)
        STATS.nodes_capped += len(source) - len(nodes)
        return cls(nodes=nodes, universes=universes, log_len=log_len)

    # -- rebase --------------------------------------------------------------

    def rebase(
        self,
        new_initial: DTNode,
        boundary: Optional[N.Node],
        appended: Sequence[N.Node],
    ) -> Tuple[Dict[str, _TreeNode], Dict[str, int]]:
        """Re-key the carried table onto the grown difftree.

        Args:
            new_initial: the next run's initial state (``ANY`` over the
                grown log) — the carried root is re-anchored to it.
            boundary: the last query the carried statistics covered
                (``None`` only for degenerate empty carries) — the
                append's first changed pair straddles it.
            appended: the queries appended since harvest.

        Returns ``(node_table, provenance)``: a fresh parent-closed
        table ready for ``MCTS(node_table=...)`` plus the per-run
        counters (also accumulated into :data:`STATS`).
        """
        table: Dict[str, _TreeNode] = {}
        survived: Dict[str, str] = {}  # old key -> key in the new table
        carried = invalidated = rekeyed = reopened = 0
        lost_child: set = set()  # new keys of parents with invalidated kids
        touched: set = set()  # new keys whose state the append extended
        appended = tuple(appended)
        new_root_key = new_initial.canonical_key

        for key, node in self.nodes.items():
            if node.parent_key is None:
                # The root: always survives, re-anchored to the grown
                # log's initial state — but with its statistics dropped.
                # Root visits count *every* backpropagation of the prior
                # run, normalized against the prior cost range; carrying
                # them would crush the root's UCT exploration bonus and
                # starve the re-expansion the append made necessary.  A
                # stat-free reopened root makes a root-only rebase
                # behave exactly like a from-scratch rebuild.
                root = _copy_node(node, None)
                root.state = new_initial
                root.visits = 0
                root.reward_sum = 0.0
                table[new_root_key] = root
                survived[key] = new_root_key
                carried += 1
                if key != new_root_key:
                    rekeyed += 1
                    touched.add(new_root_key)
                continue
            parent_key = survived.get(node.parent_key)
            if parent_key is None:
                invalidated += 1
                continue
            if key in table:
                # The new initial (or an earlier survivor) already owns
                # this canonical key — transpositions merge, never clash.
                invalidated += 1
                lost_child.add(parent_key)
                continue
            delta = self._append_delta(node.state, boundary, appended)
            if delta is None:
                # Some appended query is inexpressible: the extension
                # grafts new structure into this state, shifting its
                # choice paths — its statistics describe a tree that no
                # longer exists.
                invalidated += 1
                lost_child.add(parent_key)
                continue
            if delta:
                universe = self.universes.get(key)
                if universe is None or not delta <= universe:
                    # The append exercises decision territory this
                    # state's statistics never saw (or the universe is
                    # unknown): the carried reward mean is untrustworthy.
                    invalidated += 1
                    lost_child.add(parent_key)
                    continue
            table[key] = _copy_node(node, parent_key, STAT_DECAY)
            survived[key] = key
            carried += 1
            if delta:
                touched.add(key)
            if parent_key != node.parent_key:
                rekeyed += 1

        # Two kinds of survivors re-enter the frontier (MCTS only expands
        # frontier nodes): parents that lost a child, whose invalidated
        # subtree must be re-derivable under the new cost surface; and
        # nodes the append touched (non-empty delta, or the re-anchored
        # root), whose move set may have gained actions the closed node
        # would otherwise never enumerate.  Their statistics still carry,
        # so UCT keeps steering — only the "fully explored" mark resets.
        for key in lost_child | touched:
            node = table.get(key)
            if node is not None and node.expanded:
                node.expanded = False
                reopened += 1

        STATS.trees_rebased += 1
        STATS.nodes_carried += carried
        STATS.nodes_invalidated += invalidated
        STATS.nodes_rekeyed += rekeyed
        STATS.nodes_reopened += reopened
        return table, {
            "nodes_harvested": len(self.nodes),
            "nodes_carried": carried,
            "nodes_invalidated": invalidated,
            "nodes_rekeyed": rekeyed,
            "nodes_reopened": reopened,
            "appended": len(appended),
        }

    @staticmethod
    def _append_delta(
        state: DTNode,
        boundary: Optional[N.Node],
        appended: Tuple[N.Node, ...],
    ) -> Optional[set]:
        """Changed choice-paths the append induces under ``state``.

        ``None`` when some appended query is not expressible by the
        state (the caller must invalidate).  Matching goes through the
        fingerprint-memoized :func:`~repro.difftree.assignment_for`, so
        across the whole carried table a repeated (state, query) shape
        is matched once.
        """
        if not appended:
            return set()
        chain: List = []
        if boundary is not None:
            prev = assignment_for(state, boundary)
            if prev is not None:
                chain.append(prev)
        for query in appended:
            assignment = assignment_for(state, query)
            if assignment is None:
                return None
            chain.append(assignment)
        delta: set = set()
        for a, b in zip(chain, chain[1:]):
            delta.update(changed_choices(a, b))
        return delta

    # -- wire format (snapshot persistence) ----------------------------------

    def to_payload(self) -> Dict[str, Any]:
        """JSON-native encoding (tree-payload states, parent links by index).

        Node order is preserved — the restore side must rebuild the
        table in the same insertion order or the frontier heap's
        deterministic tie-breaking drifts.
        """
        index_of = {key: i for i, key in enumerate(self.nodes)}
        encoded: List[Dict[str, Any]] = []
        for key, node in self.nodes.items():
            universe = self.universes.get(key)
            encoded.append(
                {
                    "state": tree_payload(node.state),
                    "parent": (
                        index_of[node.parent_key]
                        if node.parent_key is not None
                        else -1
                    ),
                    "visits": node.visits,
                    "reward_sum": node.reward_sum,
                    "expanded": node.expanded,
                    "depth": node.depth,
                    "universe": (
                        None
                        if universe is None
                        else sorted(list(path) for path in universe)
                    ),
                }
            )
        return {"log_len": self.log_len, "nodes": encoded}

    @classmethod
    def from_payload(cls, payload: Any) -> "CarriedTree":
        """Inverse of :meth:`to_payload` (raises ``ValueError`` on corruption)."""
        if not isinstance(payload, dict) or "nodes" not in payload:
            raise ValueError("carried-tree payload must be a dict with nodes")
        log_len = payload.get("log_len")
        if not isinstance(log_len, int) or log_len < 0:
            raise ValueError(f"carried-tree log_len {log_len!r} invalid")
        raw_nodes = payload["nodes"]
        if not isinstance(raw_nodes, list):
            raise ValueError("carried-tree nodes must be a list")
        keys: List[str] = []
        nodes: Dict[str, _TreeNode] = {}
        universes: Dict[str, Optional[FrozenSet[Path]]] = {}
        for i, raw in enumerate(raw_nodes):
            state = tree_from_payload(raw["state"])
            key = state.canonical_key
            parent = raw["parent"]
            if not isinstance(parent, int) or parent >= i or parent < -1:
                raise ValueError(
                    f"carried node {i} has out-of-order parent {parent!r}"
                )
            nodes[key] = _TreeNode(
                state=state,
                parent_key=None if parent < 0 else keys[parent],
                visits=int(raw["visits"]),
                reward_sum=float(raw["reward_sum"]),
                expanded=bool(raw["expanded"]),
                depth=int(raw["depth"]),
            )
            raw_universe = raw.get("universe")
            universes[key] = (
                None
                if raw_universe is None
                else frozenset(tuple(path) for path in raw_universe)
            )
            keys.append(key)
        return cls(nodes=nodes, universes=universes, log_len=log_len)
