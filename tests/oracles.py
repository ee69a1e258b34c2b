"""Unmemoized parity oracles for the memoized library functions.

``src/`` keeps one implementation per function: the memoized one.  The
parity tests compare it against these from-scratch versions, which
consult no memo table, no per-node cache and no lazily computed key.
Run them with the memo tables cleared (``memo.clear_memo_caches()``) so
the memoized side starts cold too.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Any, Iterator, List, Optional, Tuple, Union

from repro.difftree import ALL, ANY, EMPTY, MULTI, OPT, Assignment, DTNode, Path, any_node
from repro.difftree.antiunify import _graft
from repro.difftree.normalize import normalize_shallow
from repro.sqlast import nodes as N


def normalize(node: DTNode) -> DTNode:
    """Bottom-up canonical form, recomputed without the ``_norm`` cache."""
    return normalize_shallow(node, tuple(normalize(c) for c in node.children))


def _au_reference(a: DTNode, b: DTNode) -> DTNode:
    if a == b:
        return a
    if (
        a.kind == ALL
        and b.kind == ALL
        and a.head == b.head
        and len(a.children) == len(b.children)
    ):
        children = tuple(_au_reference(x, y) for x, y in zip(a.children, b.children))
        return DTNode(ALL, a.label, a.value, children)
    alternatives = []
    for node in (a, b):
        if node.kind == ANY:
            alternatives.extend(node.children)
        else:
            alternatives.append(node)
    return any_node(alternatives)


def anti_unify_reference(a: DTNode, b: DTNode) -> DTNode:
    """Unmemoized :func:`repro.difftree.anti_unify`."""
    return normalize(_au_reference(a, b))


def graft_reference(tree: DTNode, query: DTNode) -> DTNode:
    """Unmemoized :func:`repro.difftree.graft` (the merge walk itself is
    unmemoized in the library too; only the top-level pair is cached)."""
    return normalize(_graft(tree, query))


def canonical_key_reference(node: Union[DTNode, N.Node]) -> str:
    """Cache-free recursive canonical key of a difftree or an AST."""
    is_ast = isinstance(node, N.Node)
    text = "{}:{}:{!r}({})".format(
        ALL if is_ast else node.kind,
        node.label or "",
        node.value,
        ",".join(canonical_key_reference(c) for c in node.children),
    )
    return hashlib.md5(text.encode("utf-8")).hexdigest()


def enumerate_queries_reference(
    tree: DTNode, limit: int = 1000, multi_cap: int = 2
) -> List[N.Node]:
    """Eager :func:`repro.difftree.enumerate_queries`: every child of an
    ``ALL`` node (and every ``MULTI`` repetition) is materialized before
    the product over them yields anything."""

    def gen(node: DTNode) -> Iterator[Tuple[N.Node, ...]]:
        if node.kind == EMPTY:
            yield ()
            return
        if node.kind == ALL:
            child_options = [list(gen(c)) for c in node.children]
            for combo in itertools.product(*child_options):
                flat = tuple(itertools.chain.from_iterable(combo))
                yield (N.Node(node.label, node.value, flat),)
            return
        if node.kind == ANY:
            for alt in node.children:
                yield from gen(alt)
            return
        if node.kind == OPT:
            yield ()
            yield from gen(node.children[0])
            return
        if node.kind == MULTI:
            repetitions = list(gen(node.children[0]))
            for k in range(multi_cap + 1):
                for combo in itertools.product(repetitions, repeat=k):
                    yield tuple(itertools.chain.from_iterable(combo))
            return
        raise AssertionError(node.kind)

    results: List[N.Node] = []
    seen = set()
    for sequence in gen(tree):
        if len(sequence) != 1:
            continue
        ast = sequence[0]
        if ast not in seen:
            seen.add(ast)
            results.append(ast)
        if len(results) >= limit:
            break
    return results


class _ReferenceMatcher:
    """The matcher without the ``ALL``-slot memo: every inner alternative
    of every slot is enumerated lazily, in the canonical order."""

    def __init__(self, root: DTNode, ast: N.Node) -> None:
        self.root = root
        self.ast = ast
        self._fail: set = set()

    def _assign_one(
        self, slot: DTNode, nodes: Tuple[N.Node, ...], j: int, path: Path
    ) -> Iterator[Tuple[int, Tuple[Tuple[Path, Any], ...]]]:
        kind = slot.kind
        if kind == EMPTY:
            yield j, ()
            return
        if kind == ALL:
            if j >= len(nodes):
                return
            node = nodes[j]
            if node.label != slot.label or node.value != slot.value:
                return
            for choices in self._assign_seq(slot.children, node.children, 0, 0, path):
                yield j + 1, choices
            return
        if kind == ANY:
            for index, alt in enumerate(slot.children):
                for end, choices in self._assign_one(alt, nodes, j, path + (index,)):
                    yield end, choices + ((path, index),)
            return
        if kind == OPT:
            yield j, ((path, False),)
            for end, choices in self._assign_one(slot.children[0], nodes, j, path + (0,)):
                yield end, choices + ((path, True),)
            return
        if kind == MULTI:
            template = slot.children[0]
            yield j, ((path, ()),)
            frontier = [(j, ())]
            seen = {j}
            while frontier:
                position, reps = frontier.pop(0)
                for end, choices in self._assign_one(template, nodes, position, path + (0,)):
                    if end == position:
                        continue
                    relative = frozenset(
                        (sub_path[len(path) + 1 :], value) for sub_path, value in choices
                    )
                    new_reps = reps + (relative,)
                    yield end, ((path, new_reps),)
                    if end not in seen:
                        seen.add(end)
                        frontier.append((end, new_reps))
            return
        raise AssertionError(f"unreachable kind {kind!r}")

    def _assign_seq(
        self,
        slots: Tuple[DTNode, ...],
        nodes: Tuple[N.Node, ...],
        i: int,
        j: int,
        parent_path: Path,
    ) -> Iterator[Tuple[Tuple[Path, Any], ...]]:
        key = (id(slots), id(nodes), i, j)
        if key in self._fail:
            return
        if i == len(slots):
            if j == len(nodes):
                yield ()
            else:
                self._fail.add(key)
            return
        produced = False
        for end, choices in self._assign_one(slots[i], nodes, j, parent_path + (i,)):
            for rest in self._assign_seq(slots, nodes, i + 1, end, parent_path):
                produced = True
                yield choices + rest
        if not produced:
            self._fail.add(key)


def first_assignment_reference(tree: DTNode, ast: N.Node) -> Optional[Assignment]:
    """Unmemoized :func:`repro.difftree.assignment_for`: the first
    (canonical) choice assignment expressing ``ast``, or None."""
    matcher = _ReferenceMatcher(tree, ast)
    for end, choices in matcher._assign_one(tree, (ast,), 0, ()):
        if end == 1:
            return dict(choices)
    return None
