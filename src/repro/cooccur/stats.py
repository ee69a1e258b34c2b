"""Choice co-occurrence statistics (the paper's "Ongoing Work").

The paper notes that "some combinations of widget choices may not make
semantic sense" and proposes to "leverage co-occurrence of subtrees in
the query log to identify likely and unlikely combinations of widget
choices".  This module implements that extension:

* fit a pairwise co-occurrence model over the choice assignments of the
  input log under a difftree,
* score any assignment (= interface state) by the support of its choice
  pairs,
* flag *unlikely* states — combinations never witnessed in the log —
  which an interface can surface as a gentle warning, and which could
  prune widget-choice enumeration during search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from ..difftree import Assignment, DTNode, Path, assignment_for
from ..sqlast import Node


def _freeze(value: Any) -> Any:
    """Choice values are already hashable (ints/bools/tuples of frozensets)."""
    return value


@dataclass
class CooccurrenceModel:
    """Pairwise support statistics over choice assignments.

    Attributes:
        tree: the difftree the statistics are defined over.
        num_queries: size of the fitted log.
        singleton_counts: per-choice value counts.
        pair_counts: per-choice-pair joint value counts.
    """

    tree: DTNode
    num_queries: int
    singleton_counts: Dict[Tuple[Path, Any], int] = field(default_factory=dict)
    pair_counts: Dict[Tuple[Path, Any, Path, Any], int] = field(default_factory=dict)

    @classmethod
    def from_log(cls, tree: DTNode, queries: Sequence[Node]) -> "CooccurrenceModel":
        """Fit the model from the log's canonical choice assignments.

        Queries the tree cannot express are skipped (callers using rule
        outputs never hit this, but the mining baseline can).
        """
        model = cls(tree=tree, num_queries=0)
        for query in queries:
            assignment = assignment_for(tree, query)
            if assignment is None:
                continue
            model._observe(assignment)
        return model

    def _observe(self, assignment: Assignment) -> None:
        self.num_queries += 1
        items = sorted(assignment.items())
        for path, value in items:
            key = (path, _freeze(value))
            self.singleton_counts[key] = self.singleton_counts.get(key, 0) + 1
        for i, (path_a, value_a) in enumerate(items):
            for path_b, value_b in items[i + 1 :]:
                pair = (path_a, _freeze(value_a), path_b, _freeze(value_b))
                self.pair_counts[pair] = self.pair_counts.get(pair, 0) + 1

    # -- scoring -----------------------------------------------------------------

    def pair_support(self, path_a: Path, value_a: Any, path_b: Path, value_b: Any) -> int:
        """How many log queries used both choices together."""
        if (path_a, value_a) > (path_b, value_b):
            path_a, value_a, path_b, value_b = path_b, value_b, path_a, value_a
        return self.pair_counts.get((path_a, _freeze(value_a), path_b, _freeze(value_b)), 0)

    def assignment_support(self, assignment: Assignment) -> int:
        """Minimum pairwise support across the assignment's choice pairs.

        0 means at least one pair of choices was never observed together;
        such states are *unlikely* (though still expressible — the
        interface generalizes the log by design).
        """
        items = sorted(assignment.items())
        if len(items) < 2:
            key = items[0] if items else None
            if key is None:
                return self.num_queries
            return self.singleton_counts.get((key[0], _freeze(key[1])), 0)
        support = self.num_queries
        for i, (path_a, value_a) in enumerate(items):
            for path_b, value_b in items[i + 1 :]:
                support = min(
                    support, self.pair_support(path_a, value_a, path_b, value_b)
                )
                if support == 0:
                    return 0
        return support

    def is_likely(self, assignment: Assignment) -> bool:
        """True when every choice pair was witnessed at least once."""
        return self.assignment_support(assignment) > 0

    def unlikely_pairs(self, assignment: Assignment) -> List[Tuple[Path, Any, Path, Any]]:
        """The never-observed choice pairs of an assignment (for warnings)."""
        items = sorted(assignment.items())
        out = []
        for i, (path_a, value_a) in enumerate(items):
            for path_b, value_b in items[i + 1 :]:
                if self.pair_support(path_a, value_a, path_b, value_b) == 0:
                    out.append((path_a, value_a, path_b, value_b))
        return out

    def generalization_ratio(self, sample: Sequence[Assignment]) -> float:
        """Fraction of ``sample`` assignments that are likely under the log.

        Low values mean the difftree generalizes far beyond the observed
        session (many expressible-but-unwitnessed states).
        """
        if not sample:
            return 1.0
        likely = sum(1 for a in sample if self.is_likely(a))
        return likely / len(sample)
