"""Anti-unification and incremental grafting of difftree subtrees.

``anti_unify(a, b)`` computes the least-general difftree expressing both
inputs: shared structure stays concrete, differing parts become ``ANY``
choices.  This is the merge primitive behind the ``Multi`` rule (merging
repeated predicate conjuncts into one ``MULTI`` template) and is also used
by the bottom-up mining baseline.

``graft(tree, query)`` is the *incremental* variant used by the serving
layer (:mod:`repro.serve`): it merges one concrete query into an
already-optimized difftree by extending existing choice domains in place
— a drifting literal lands as one new ``ANY`` alternative deep in the
tree, a newly appearing clause becomes an ``OPT`` column — rather than
anti-unification's root-level ``ANY`` fallback, which would demote the
whole optimized structure to one alternative among raw queries.
"""

from __future__ import annotations

from functools import reduce
from typing import List, Optional, Sequence, Tuple

from .. import memo as _memo
from ..memo import INGEST
from .dtnodes import (
    ALL,
    ANY,
    EMPTY,
    MULTI,
    OPT,
    DTNode,
    any_merge as _any_merge,
    any_node,
    multi_node,
    opt_node,
)
from .normalize import normalize

#: ``(a, b) -> _au(a, b)`` over interned subtree pairs.  Repeated template
#: collisions (the dominant pattern in real logs) become O(1) lookups.
_AU_MEMO = _memo.memo_table(8192, name="difftree.anti_unify")

#: ``(tree, query) -> graft(tree, query)`` for whole-merge reuse.
_GRAFT_MEMO = _memo.memo_table(8192, name="difftree.graft")


def anti_unify(a: DTNode, b: DTNode) -> DTNode:
    """Least-general generalization of two difftree subtrees (memoized)."""
    return normalize(_au(a, b))


def anti_unify_all(subtrees: Sequence[DTNode]) -> DTNode:
    """Fold :func:`anti_unify` over a non-empty sequence of subtrees."""
    if not subtrees:
        raise ValueError("anti_unify_all requires at least one subtree")
    return normalize(reduce(_au, subtrees))


def _au(a: DTNode, b: DTNode) -> DTNode:
    if a == b:
        return a
    cached = _AU_MEMO.get((a, b))
    if cached is not None:
        INGEST.au_memo_hits += 1
        return cached
    if (
        a.kind == ALL
        and b.kind == ALL
        and a.head == b.head
        and len(a.children) == len(b.children)
    ):
        children = tuple(_au(x, y) for x, y in zip(a.children, b.children))
        result = DTNode(ALL, a.label, a.value, children)
    else:
        # Heads differ (including same label, different leaf value) or
        # arity differs: fall back to an explicit choice between the two
        # subtrees.
        alternatives = []
        for node in (a, b):
            if node.kind == ANY:
                alternatives.extend(node.children)
            else:
                alternatives.append(node)
        result = any_node(alternatives)
    _AU_MEMO[(a, b)] = result
    return result


# -- incremental grafting ----------------------------------------------------


def graft(tree: DTNode, query: DTNode) -> DTNode:
    """Merge one concrete query (a pure-``ALL`` difftree) into ``tree``.

    The result expresses everything ``tree`` expresses plus the query,
    like ``anti_unify`` — but differences are absorbed at the *deepest*
    aligned position instead of the highest: existing ``ANY`` domains
    gain one alternative, missing clauses become ``OPT`` columns, and
    only unalignable structure falls back to a local ``ANY``.

    Callers that must guarantee expressibility (``extend_difftree``)
    verify the result and fall back to :func:`anti_unify`; grafting
    through ``MULTI`` repetition runs is intentionally approximate.

    Memoized on the interned ``(tree, query)`` pair — a session
    re-grafting a familiar query shape into the same optimized tree
    reuses the merge wholesale.
    """
    cached = _GRAFT_MEMO.get((tree, query))
    if cached is not None:
        INGEST.graft_memo_hits += 1
        return cached
    result = normalize(_graft(tree, query))
    _GRAFT_MEMO[(tree, query)] = result
    return result


def _graft(t: DTNode, q: DTNode) -> DTNode:
    if t == q:
        return t
    if t.kind == EMPTY:
        return _any_merge([t, q])
    if t.kind == OPT:
        return opt_node(_graft(t.children[0], q))
    if t.kind == MULTI:
        # Treat the query subtree as one instance of the template; runs
        # of several instances are caught by the caller's fallback.
        template = t.children[0]
        key = _graft_key(template)
        if key is not None and key == _graft_key(q):
            return multi_node(_graft(template, q))
        return _any_merge([t, q])
    if t.kind == ANY:
        return _graft_into_any(t, q)
    # t is ALL.
    if q.kind != ALL or t.head != q.head:
        return _any_merge([t, q])
    columns = _align_graft_columns(t.children, q.children)
    if columns is not None:
        children: List[DTNode] = []
        for t_child, q_child in columns:
            if t_child is None:
                # Clause the query has but the tree lacks: optional column
                # — previously expressed queries take the absent branch.
                children.append(opt_node(q_child))
            elif q_child is None:
                # Clause the tree has but the query lacks: it must be able
                # to match zero AST children for the query's assignment.
                children.append(
                    t_child if _can_be_absent(t_child) else opt_node(t_child)
                )
            else:
                children.append(_graft(t_child, q_child))
        return DTNode(ALL, t.label, t.value, tuple(children))
    if len(t.children) == len(q.children):
        # No key-based alignment (e.g. repeated Between conjuncts), but
        # matching arity: positional pairing.
        return DTNode(
            ALL,
            t.label,
            t.value,
            tuple(_graft(tc, qc) for tc, qc in zip(t.children, q.children)),
        )
    return _any_merge([t, q])


def _graft_into_any(t: DTNode, q: DTNode) -> DTNode:
    """Extend the best-aligned alternative; append ``q`` if none aligns."""
    q_key = _graft_key(q)
    best: Optional[DTNode] = None
    best_index = -1
    best_growth = 0
    if q_key is not None:
        for index, alt in enumerate(t.children):
            key = _graft_key(alt)
            if key is None or key != q_key:
                continue
            candidate = _graft(alt, q)
            # Minimize *growth*, not candidate size: the alternative that
            # absorbs the query most cheaply (e.g. one new value in an
            # existing ANY domain) wins, even if it is the larger subtree.
            growth = candidate.size - alt.size
            if best is None or growth < best_growth:
                best = candidate
                best_index = index
                best_growth = growth
    if best is None:
        return _any_merge(t.children + (q,))
    children = t.children[:best_index] + (best,) + t.children[best_index + 1 :]
    return _any_merge(children)


def _graft_key(node: DTNode):
    """Alignment key of a difftree slot, or None when it has no stable one.

    An ``ANY`` slot is keyed when all its (non-``EMPTY``) alternatives
    agree on one key — an optimized tree's per-clause choice slots (an
    ``ANY`` of ``Top`` values, of ``Where`` variants, …) then align with
    the corresponding clause of a raw query.
    """
    if node.kind == ALL:
        return node.align_key()
    if node.kind in (OPT, MULTI):
        return _graft_key(node.children[0])
    if node.kind == ANY:
        keys = {
            _graft_key(alt) for alt in node.children if alt.kind != EMPTY
        }
        if len(keys) == 1:
            return next(iter(keys))
    return None


def _can_be_absent(node: DTNode) -> bool:
    """Can this slot consume zero AST children (cf. ``express.Matcher``)?"""
    if node.kind in (OPT, MULTI, EMPTY):
        return True
    if node.kind == ANY:
        return any(_can_be_absent(alt) for alt in node.children)
    return False


def _align_graft_columns(
    t_children: Sequence[DTNode], q_children: Sequence[DTNode]
) -> Optional[List[Tuple[Optional[DTNode], Optional[DTNode]]]]:
    """Order-preserving column alignment of two child rows by graft key.

    Mirrors :func:`repro.sqlast.align.align_children` but over difftree
    slots.  Returns ``None`` when any slot lacks a stable key, a key
    repeats within a row, or the rows order their shared keys
    differently — callers then fall back to a local ``ANY``.
    """
    t_keys = [_graft_key(child) for child in t_children]
    q_keys = [_graft_key(child) for child in q_children]
    if None in t_keys or None in q_keys:
        return None
    if len(set(t_keys)) != len(t_keys) or len(set(q_keys)) != len(q_keys):
        return None
    order: List = []
    for keys in (t_keys, q_keys):
        position = 0
        for key in keys:
            if key in order:
                existing = order.index(key)
                if existing < position:
                    return None
                position = existing + 1
            else:
                order.insert(position, key)
                position += 1
    t_by_key = dict(zip(t_keys, t_children))
    q_by_key = dict(zip(q_keys, q_children))
    return [(t_by_key.get(key), q_by_key.get(key)) for key in order]
