"""``Multi`` rule (paper Figure 5, top middle) — merge repeated siblings.

When an ``ALL`` node has a run of adjacent children with the same root
structure (e.g. the four ``BETWEEN`` conjuncts ``u BETWEEN …``,
``g BETWEEN …``, … in the SDSS log), the run collapses into a single
``MULTI`` whose template is the anti-unification of the run members.
The template's widgets render inside an *adder* widget, letting the user
instantiate as many copies as needed (e.g. to add predicates).

This is the one rule the paper marks as unidirectional: splitting a
``MULTI`` back into a fixed number of copies would have to invent a count.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from ..difftree import DTNode, Path, anti_unify_all, multi_node
from ..difftree.dtnodes import ALL
from ..sqlast import nodes as N
from .base import Move, Rule

#: Grammar labels whose children genuinely repeat (Kleene positions).
#: Merging runs anywhere else (e.g. a BETWEEN's lo/hi bounds) would
#: produce difftrees that express structurally invalid SQL.
VARIADIC_LABELS = frozenset(
    {N.AND, N.OR, N.PROJECT, N.FROM, N.GROUPBY, N.ORDERBY, N.INLIST}
)


def _mergeable_runs(node: DTNode) -> List[Tuple[int, int]]:
    """Maximal runs ``[start, end)`` of ≥2 adjacent same-head ``ALL`` children.

    Only concrete (``ALL``) siblings merge: choice nodes all share the
    same degenerate align key, and merging e.g. a Select's Top/Project/
    From slots into one MULTI would be structurally valid but semantic
    nonsense.  Repetition in query logs happens at concrete nodes
    (predicate conjuncts, projection items), which is what this captures.
    """
    runs: List[Tuple[int, int]] = []
    children = node.children
    i = 0
    while i < len(children):
        if children[i].kind != ALL:
            i += 1
            continue
        j = i + 1
        key = children[i].align_key()
        while (
            j < len(children)
            and children[j].kind == ALL
            and children[j].align_key() == key
        ):
            j += 1
        if j - i >= 2:
            runs.append((i, j))
        i = j
    return runs


class MultiMergeRule(Rule):
    """Collapse a run of similar siblings into ``MULTI[template]``."""

    name = "Multi"

    def moves_at(self, node: DTNode, path: Path) -> Iterator[Move]:
        if node.kind != ALL or node.label not in VARIADIC_LABELS:
            return
        for start, end in _mergeable_runs(node):
            yield Move(self.name, path, (("start", start), ("end", end)))

    def rewrite(self, node: DTNode, move: Move) -> DTNode:
        start = move.param("start")
        end = move.param("end")
        run = node.children[start:end]
        template = anti_unify_all(list(run))
        merged = multi_node(template)
        children = node.children[:start] + (merged,) + node.children[end:]
        return DTNode(ALL, node.label, node.value, children)
