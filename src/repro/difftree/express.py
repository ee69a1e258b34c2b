"""Expressibility: which queries can a difftree express, and how?

A difftree expresses a query when there is a way to resolve every choice
node (pick an ``ANY`` alternative, include/exclude each ``OPT``, choose a
repetition count and per-repetition content for each ``MULTI``) such that
the resolved tree equals the query's AST.  The set of choices made is the
*choice assignment* — it is exactly the widget state that shows the query
in the generated interface, and it is what the sequence-usability cost
``U(qi, qi+1, W)`` compares between consecutive queries.

Matching is sequence-based: the children of an ``ALL`` node form a list of
*slots*, and each slot can consume zero (``EMPTY``, absent ``OPT``,
``MULTI`` with count 0), one (``ALL``), or many (``MULTI``) of the AST
node's children, like a small regular expression over child lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from .. import memo as _memo
from ..memo import INGEST
from ..sqlast import nodes as N
from .dtnodes import ALL, ANY, EMPTY, MULTI, OPT, DTNode, Path

#: A choice assignment: choice-node path -> chosen value.
#:  * ANY   -> int index of the chosen alternative
#:  * OPT   -> bool (present?)
#:  * MULTI -> tuple of per-repetition frozen sub-assignments
Assignment = Dict[Path, Any]

#: Frozen form of a nested (per-repetition) assignment.
FrozenAssignment = FrozenSet[Tuple[Path, Any]]


class Matcher:
    """Single-use matcher binding one difftree to one query AST.

    An ``ALL`` slot consumes exactly one AST node, so every way of
    matching it ends at the same position, and what follows it in the
    enclosing sequence depends only on that position: if its first inner
    assignment leads to no full match, no later one does, and only the
    first can appear in the canonical first assignment.  That first
    assignment depends only on the interned ``(slot, node)`` pair, so it
    is memoized path-relative and prefixed with the caller's path on use
    — every difftree state that shares the subtree reuses it.  The
    unmemoized matcher lives with the tests as the parity oracle
    (``tests/oracles.py``).
    """

    def __init__(self, root: DTNode, ast: N.Node) -> None:
        self.root = root
        self.ast = ast
        self._fail: set = set()

    def first_assignment(self) -> Optional[Assignment]:
        """Return the first (canonical) choice assignment, or None."""
        for end, choices in self._assign_one(self.root, (self.ast,), 0, ()):
            if end == 1:
                return dict(choices)
        return None

    def matches(self) -> bool:
        return self.first_assignment() is not None

    # -- internals -----------------------------------------------------------

    def _assign_one(
        self,
        slot: DTNode,
        nodes: Tuple[N.Node, ...],
        j: int,
        path: Path,
    ) -> Iterator[Tuple[int, Tuple[Tuple[Path, Any], ...]]]:
        """Yield ``(next_j, choices)`` for each way ``slot`` can consume
        children of ``nodes`` starting at position ``j``."""
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
            first = _SLOT_MEMO.get((slot, node), _ASSIGN_MISS)
            if first is _ASSIGN_MISS:
                first = next(
                    self._assign_seq(slot.children, node.children, 0, 0, ()), None
                )
                _SLOT_MEMO[(slot, node)] = first
            if first is None:
                return
            if path:
                first = tuple((path + sub_path, value) for sub_path, value in first)
            yield j + 1, first
            return
        if kind == ANY:
            for index, alt in enumerate(slot.children):
                for end, choices in self._assign_one(alt, nodes, j, path + (index,)):
                    yield end, choices + ((path, index),)
            return
        if kind == OPT:
            yield j, ((path, False),)
            for end, choices in self._assign_one(
                slot.children[0], nodes, j, path + (0,)
            ):
                yield end, choices + ((path, True),)
            return
        if kind == MULTI:
            template = slot.children[0]
            yield j, ((path, ()),)
            # Breadth-first over repetition counts; each repetition records
            # its own sub-assignment with paths relative to the template.
            frontier: List[Tuple[int, Tuple[FrozenAssignment, ...]]] = [(j, ())]
            seen = {j}
            while frontier:
                position, reps = frontier.pop(0)
                for end, choices in self._assign_one(
                    template, nodes, position, path + (0,)
                ):
                    if end == position:
                        continue  # zero-width repetition would loop forever
                    relative = frozenset(
                        (sub_path[len(path) + 1 :], value)
                        for sub_path, value in choices
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
        """Yield choice tuples for matching ``slots[i:]`` against
        ``nodes[j:]`` exactly (all nodes consumed)."""
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
        slot = slots[i]
        for end, choices in self._assign_one(slot, nodes, j, parent_path + (i,)):
            for rest in self._assign_seq(slots, nodes, i + 1, end, parent_path):
                produced = True
                yield choices + rest
        if not produced:
            self._fail.add(key)


#: ``(difftree, ast) -> frozen assignment items`` (or None when the tree
#: cannot express the query).  Interned nodes make the key a fingerprint
#: pair; the bounded table holds strong refs, so capacity bounds memory.
_ASSIGN_MEMO = _memo.memo_table(16384, name="difftree.assign")
#: ``(ALL slot, AST node) -> first inner choice items``, paths relative
#: to the slot (or None when the slot cannot match the node).  One
#: sdss-grow serving session fills about 13,000 entries.
_SLOT_MEMO = _memo.memo_table(65536, name="difftree.slot")
_ASSIGN_MISS = object()


def expresses(tree: DTNode, ast: N.Node) -> bool:
    """True if the difftree can express the query AST (memoized)."""
    return assignment_for(tree, ast) is not None


def expresses_all(tree: DTNode, asts: Sequence[N.Node]) -> bool:
    """True if the difftree expresses every query in ``asts``."""
    return all(expresses(tree, ast) for ast in asts)


def assignment_for(tree: DTNode, ast: N.Node) -> Optional[Assignment]:
    """The canonical widget-state assignment expressing ``ast``, or None.

    Memoized on the interned ``(tree, ast)`` pair: re-serving a repeated
    query against the same difftree skips the matcher entirely.  Each
    hit returns a *fresh* dict (assignments are mutable), rebuilt from
    the frozen cached items in their canonical order.
    """
    cached = _ASSIGN_MEMO.get((tree, ast), _ASSIGN_MISS)
    if cached is not _ASSIGN_MISS:
        INGEST.express_memo_hits += 1
        return None if cached is None else dict(cached)
    result = Matcher(tree, ast).first_assignment()
    _ASSIGN_MEMO[(tree, ast)] = None if result is None else tuple(result.items())
    return result


def changed_choices(a: Assignment, b: Assignment) -> List[Path]:
    """Choice paths whose values differ between two assignments.

    This is the set of widgets the user must touch to move from the query
    behind ``a`` to the query behind ``b`` — the inner quantity of the
    paper's ``U`` cost.
    """
    paths = set(a) | set(b)
    return sorted(p for p in paths if a.get(p) != b.get(p))


def changed_choice_sets(assignments: Sequence[Assignment]) -> List[Tuple[Path, ...]]:
    """Per-consecutive-pair changed choice paths, each sorted.

    ``changed_choice_sets(a)[i] == tuple(changed_choices(a[i], a[i+1]))``;
    computing them in one pass lets the cost kernel diff a query sequence
    exactly once per difftree instead of once per candidate widget tree.
    """
    return [
        tuple(changed_choices(a, b)) for a, b in zip(assignments, assignments[1:])
    ]


@dataclass(frozen=True)
class CompiledChanges:
    """Interned changed-choice sets of one per-query assignment sequence.

    Choice paths are interned to dense int ids assigned in lexicographic
    path order, so iterating a pair's ids ascending visits its paths in
    the exact order :func:`changed_choices` reports them — downstream
    float accumulations (widget-effort sums) stay bitwise identical to
    the path-at-a-time reference implementation.

    Attributes:
        paths: id -> path (lexicographically sorted, so ids are ordered).
        ids: path -> id.
        pair_paths: per consecutive query pair, the sorted changed paths.
        pair_ids: the same pairs as sorted int-id tuples.
    """

    paths: Tuple[Path, ...]
    ids: Dict[Path, int]
    pair_paths: Tuple[Tuple[Path, ...], ...]
    pair_ids: Tuple[Tuple[int, ...], ...]

    @classmethod
    def from_pair_paths(
        cls, pair_paths: Sequence[Tuple[Path, ...]]
    ) -> "CompiledChanges":
        """Intern an explicit list of per-pair changed-path sets."""
        universe = sorted({p for pair in pair_paths for p in pair})
        ids = {path: i for i, path in enumerate(universe)}
        return cls(
            paths=tuple(universe),
            ids=ids,
            pair_paths=tuple(tuple(pair) for pair in pair_paths),
            pair_ids=tuple(
                tuple(ids[p] for p in pair) for pair in pair_paths
            ),
        )

    @classmethod
    def compile(cls, assignments: Sequence[Assignment]) -> "CompiledChanges":
        """Diff a whole assignment sequence once and intern the result."""
        return cls.from_pair_paths(changed_choice_sets(assignments))

    def extended(
        self, tail_pair_paths: Sequence[Tuple[Path, ...]]
    ) -> "CompiledChanges":
        """New compilation with extra trailing pairs (appended queries).

        Only the appended pairs are diffed by the caller; the existing
        pair sets are reused verbatim and merely re-interned (id
        assignment must stay lexicographic over the grown path universe).
        """
        return CompiledChanges.from_pair_paths(
            self.pair_paths + tuple(tuple(pair) for pair in tail_pair_paths)
        )

    @property
    def path_set(self) -> FrozenSet[Path]:
        """Every choice path any pair of this sequence touches.

        The *compiled choice-set* of the (difftree, query log) pair: the
        decision territory the log has actually exercised.  The carried
        search tree (:mod:`repro.search.carry`) compares an append's
        changed paths against this set to decide whether a carried
        node's statistics are still trustworthy.
        """
        return frozenset(self.paths)


# -- enumeration / counting ----------------------------------------------------


def count_queries(tree: DTNode, multi_cap: int = 3) -> int:
    """Upper bound on the number of distinct queries the tree expresses.

    ``MULTI`` nodes are capped at ``multi_cap`` repetitions.  Overlapping
    ``ANY`` alternatives may be double-counted, so this is an upper bound
    (exact for trees produced from disjoint query sets).
    """

    def count(node: DTNode) -> int:
        if node.kind == EMPTY:
            return 1
        if node.kind == ALL:
            product = 1
            for child in node.children:
                product *= count(child)
            return product
        if node.kind == ANY:
            return sum(count(c) for c in node.children)
        if node.kind == OPT:
            return 1 + count(node.children[0])
        if node.kind == MULTI:
            per = count(node.children[0])
            return sum(per**k for k in range(multi_cap + 1))
        raise AssertionError(node.kind)

    return count(tree)


def enumerate_queries(
    tree: DTNode, limit: int = 1000, multi_cap: int = 2
) -> List[N.Node]:
    """Materialize up to ``limit`` distinct query ASTs the tree expresses.

    ``MULTI`` nodes are expanded up to ``multi_cap`` repetitions.  The
    enumeration is lazy, so the work is bounded by ``limit`` rather than
    by the (possibly huge) number of queries the tree expresses.
    """

    def gen(node: DTNode) -> Iterator[Tuple[N.Node, ...]]:
        if node.kind == EMPTY:
            yield ()
        elif node.kind == ALL:
            for flat in product(node.children):
                yield (N.Node(node.label, node.value, flat),)
        elif node.kind == ANY:
            for alt in node.children:
                yield from gen(alt)
        elif node.kind == OPT:
            yield ()
            yield from gen(node.children[0])
        elif node.kind == MULTI:
            for k in range(multi_cap + 1):
                yield from product((node.children[0],) * k)
        else:
            raise AssertionError(node.kind)

    def product(slots: Sequence[DTNode]) -> Iterator[Tuple[N.Node, ...]]:
        # ``itertools.product`` order (the last slot varies fastest), but
        # each slot is re-generated lazily instead of materialized first.
        if not slots:
            yield ()
            return
        for head in gen(slots[0]):
            for rest in product(slots[1:]):
                yield head + rest

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
