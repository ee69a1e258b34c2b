"""Difftree normalization (the paper's ``Noop`` rule family).

Normalization removes redundant structure that does not change the set of
expressible queries and would otherwise bloat the search space with
trivially-equivalent states:

* nested ``ANY`` alternatives are flattened,
* duplicate ``ANY`` alternatives are removed,
* a single-alternative ``ANY`` collapses to its alternative,
* an ``EMPTY`` alternative inside an ``OPT``'s child ``ANY`` is dropped
  (the ``OPT`` already expresses absence),
* ``OPT(OPT(x))`` → ``OPT(x)``, ``OPT(EMPTY)`` → ``EMPTY``,
* ``MULTI(MULTI(x))`` → ``MULTI(x)``, ``MULTI(EMPTY)`` → ``EMPTY``,
* ``ANY`` alternatives are put in canonical (deterministic) order.

Normalization is applied automatically after every transformation rule, so
two rewrite sequences that reach trivially-equivalent trees reach the
*same* state (and share statistics in the MCTS transposition table).
"""

from __future__ import annotations

from typing import List

from .dtnodes import ALL, ANY, EMPTY, EMPTY_NODE, MULTI, OPT, DTNode


def normalize(node: DTNode) -> DTNode:
    """Return the canonical form of ``node`` (bottom-up).

    Memoized on the interned node: each distinct subtree is normalized
    once per process, and already-normal trees (the common case when
    serving appends of already-expressed queries) return in O(1).  The
    result is marked as its own normal form, so ``normalize`` over a
    previously-normalized tree never recurses.
    """
    cached = node._norm
    if cached is not None:
        return cached
    children = tuple(normalize(c) for c in node.children)
    result = normalize_shallow(node, children)
    # normalize_shallow over normalized children yields a fully
    # normalized tree, so the result is its own fixed point.
    object.__setattr__(result, "_norm", result)
    object.__setattr__(node, "_norm", result)
    return result


def normalize_shallow(node: DTNode, children=None) -> DTNode:
    """Normalize one level, assuming the children are already normalized.

    ``normalize(x) == normalize_shallow(x with normalized children)`` by
    construction; rule application uses this to renormalize only the
    spine from a rewrite site to the root instead of the whole tree.
    """
    if children is None:
        children = node.children

    if node.kind == ALL:
        if children == node.children:
            return node
        return DTNode(ALL, node.label, node.value, children)

    if node.kind == EMPTY:
        return EMPTY_NODE

    if node.kind == ANY:
        alternatives: List[DTNode] = []
        for child in children:
            if child.kind == ANY:
                alternatives.extend(child.children)  # flatten nested ANY
            else:
                alternatives.append(child)
        seen = set()
        unique: List[DTNode] = []
        for alt in alternatives:
            if alt.canonical_key not in seen:
                seen.add(alt.canonical_key)
                unique.append(alt)
        unique.sort(key=_alt_sort_key)
        if len(unique) == 1:
            return unique[0]
        return DTNode(ANY, None, None, unique)

    if node.kind == OPT:
        child = children[0]
        if child.kind == EMPTY:
            return EMPTY_NODE
        if child.kind == OPT:
            child = child.children[0]
        if child.kind == ANY:
            non_empty = [a for a in child.children if a.kind != EMPTY]
            if len(non_empty) != len(child.children):
                child = (
                    non_empty[0]
                    if len(non_empty) == 1
                    else DTNode(ANY, None, None, non_empty)
                )
        return DTNode(OPT, None, None, (child,))

    if node.kind == MULTI:
        child = children[0]
        if child.kind == EMPTY:
            return EMPTY_NODE
        if child.kind == MULTI:
            child = child.children[0]
        return DTNode(MULTI, None, None, (child,))

    raise AssertionError(f"unreachable kind {node.kind!r}")


def _alt_sort_key(alt: DTNode):
    """Deterministic, *semantic* ordering for ANY alternatives.

    EMPTY sorts first (so "no clause" appears as the first option); leaf
    alternatives sort by label then value (numbers numerically), so e.g.
    ``TOP 10 / 100 / 1000`` options appear in numeric order in widgets;
    everything else falls back to the canonical fingerprint.  This
    ordering is what makes ``ANY`` choice indices stable across runs.
    """
    if alt.kind == EMPTY:
        return (0, "", 0, 0.0, "", "")
    if alt.kind == ALL and not alt.children:
        value = alt.value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return (1, alt.label or "", 2, 0.0, str(value), alt.canonical_key)
        return (1, alt.label or "", 1, float(value), "", alt.canonical_key)
    return (2, alt.label or "", 0, 0.0, "", alt.canonical_key)


def is_normalized(node: DTNode) -> bool:
    """True if ``normalize`` would return ``node`` unchanged."""
    return normalize(node) == node
