"""Reimplementation of the bottom-up interface miner of Zhang, Sellam &
Wu, "Mining Precision Interfaces from Query Logs" (SIGMOD 2017) — the
prior work the paper improves on.

The bottom-up approach, as characterized by the paper:

1. enumerate subtree differences between pairs of query ASTs,
2. group differences occurring at the *same AST path*,
3. map each group to the widget that best expresses its subtree set
   (appropriateness ``M`` only).

It does **not** search over groupings, does not consider layout or screen
constraints (widgets are simply stacked), and ignores the sequential
order of the log — precisely the three limitations motivating the MCTS
approach.  We keep those limitations faithfully: the result can be
evaluated under the full cost model for comparison, and on logs with
correlated changes it may not even express every input query (each widget
varies independently).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..cost import CostModel, EvaluatedInterface
from ..difftree import (
    DTNode,
    EMPTY_NODE,
    any_node,
    expresses,
    normalize,
    wrap_ast,
)
from ..sqlast import Node, diff_paths
from ..widgets import derive_widget_tree
from ..widgets.tree import WidgetNode


@dataclass
class MiningResult:
    """Output of the bottom-up miner.

    Attributes:
        tree: difftree assembled from the path-grouped differences.
        widget_tree: greedily chosen widgets, stacked vertically.
        expressible_fraction: share of input queries the interface can
            express (the bottom-up approach does not guarantee 1.0).
        evaluation: cost under the full model (None until evaluated).
    """

    tree: DTNode
    widget_tree: WidgetNode
    expressible_fraction: float
    evaluation: Optional[EvaluatedInterface] = None


def mine_interface(queries: Sequence[Node]) -> MiningResult:
    """Run the bottom-up pipeline on a query log."""
    if not queries:
        raise ValueError("need at least one query")
    base = queries[0]
    replacements: Dict[Tuple[int, ...], List[Optional[Node]]] = {}
    insertions: Dict[Tuple[int, ...], List[Optional[Node]]] = {}

    for other in queries[1:]:
        for path, base_sub, other_sub in diff_paths(base, other):
            if base_sub is None:
                # ``other`` has a subtree that ``base`` lacks: an optional
                # insertion grouped under the insertion position.
                bucket = insertions.setdefault(path, [None])
            else:
                bucket = replacements.setdefault(path, [base_sub])
            if not any(_same(existing, other_sub) for existing in bucket):
                bucket.append(other_sub)

    tree = normalize(_assemble(base, (), replacements, insertions))
    widget_tree = derive_widget_tree(tree)
    expressible = sum(1 for q in queries if expresses(tree, q)) / len(queries)
    return MiningResult(
        tree=tree,
        widget_tree=widget_tree,
        expressible_fraction=expressible,
    )


def evaluate_mined(model: CostModel, result: MiningResult) -> MiningResult:
    """Score a mined interface under the full cost model (for comparison)."""
    breakdown = model.evaluate(result.tree, result.widget_tree)
    result.evaluation = EvaluatedInterface(
        result.tree, result.widget_tree, breakdown
    )
    return result


def _same(a: Optional[Node], b: Optional[Node]) -> bool:
    if a is None or b is None:
        return a is b
    return a == b


def _assemble(
    node: Node,
    path: Tuple[int, ...],
    replacements: Dict[Tuple[int, ...], List[Optional[Node]]],
    insertions: Dict[Tuple[int, ...], List[Optional[Node]]],
) -> DTNode:
    """Rebuild the base AST as a difftree with ANY groups at diff paths."""
    group = replacements.get(path)
    if group is not None:
        alternatives = [
            EMPTY_NODE if sub is None else wrap_ast(sub) for sub in group
        ]
        return any_node(alternatives)
    children: List[DTNode] = []
    for index, child in enumerate(node.children):
        child_path = path + (index,)
        inserted = insertions.get(child_path)
        if inserted is not None:
            children.append(_insertion_group(inserted))
        children.append(_assemble(child, child_path, replacements, insertions))
    # Insertions at or beyond the end of the child list.
    for insert_path, group in insertions.items():
        if (
            len(insert_path) == len(path) + 1
            and insert_path[: len(path)] == path
            and insert_path[-1] >= len(node.children)
        ):
            children.append(_insertion_group(group))
    return DTNode("ALL", node.label, node.value, children)


def _insertion_group(group: List[Optional[Node]]) -> DTNode:
    alternatives = [EMPTY_NODE if sub is None else wrap_ast(sub) for sub in group]
    return any_node(alternatives)
