"""Choice-node domains: what a widget must let the user choose.

Each choice node in a difftree exposes a *domain*:

* ``ANY``   — one option per alternative (possibly including ∅),
* ``OPT``   — a boolean (present / absent),
* ``MULTI`` — a repetition count (the adder widget's +/-).

The domain also classifies its options (numeric literals, string literals,
numeric ranges, or arbitrary subtrees) — widget applicability and the
appropriateness cost ``M(w)`` depend on this classification (a slider can
express ``TOP 10/100/1000`` but not ``objid``-vs-``count(*)``).

A domain and an option label are pure functions of a hash-consed
subtree, so both are memoized per interned node: a rule move rewrites
one subtree, and every state derived from it reuses the domains and
labels of the subtrees the move did not touch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..difftree import ANY, EMPTY, MULTI, OPT, DTNode
from ..difftree.dtnodes import ALL
from ..memo import memo_table
from ..sqlast import nodes as N

#: Option kinds.
NUMERIC = "numeric"
STRING = "string"
RANGE = "range"  # (lo, hi) numeric pairs, e.g. whole BETWEEN subtrees
SUBTREE = "subtree"
BOOLEAN = "boolean"  # OPT domains
COUNT = "count"  # MULTI domains

#: AST labels whose scalar value is numeric.
_NUMERIC_LEAF_LABELS = frozenset({N.NUMEXPR, N.TOP, N.LIMIT})
#: AST labels whose scalar value is a string.
_STRING_LEAF_LABELS = frozenset({N.STREXPR, N.COLEXPR, N.TABLE})


@dataclass(frozen=True)
class ChoiceDomain:
    """The user-facing domain of one choice node.

    Attributes:
        kind: one of NUMERIC/STRING/RANGE/SUBTREE/BOOLEAN/COUNT.
        labels: display label per option, in alternative order.
        values: payload per option — numbers for NUMERIC, strings for
            STRING, (lo, hi) tuples for RANGE, None for SUBTREE options.
        has_empty: True when one option is the absent subtree ∅.
        complex_options: True when at least one option contains nested
            choice nodes (such an ANY needs a tabs-style widget).
        total_label_chars: sum of *uncapped* option-label lengths.  Long
            labels (whole SQL statements) are a usability cost: widgets
            that enumerate them are penalized in ``M`` even though the
            rendered labels are truncated.
    """

    kind: str
    labels: Tuple[str, ...]
    values: Tuple[object, ...] = ()
    has_empty: bool = False
    complex_options: bool = False
    total_label_chars: int = 0

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def max_label_len(self) -> int:
        return max((len(label) for label in self.labels), default=0)

    def numeric_values(self) -> List[float]:
        if self.kind != NUMERIC:
            raise ValueError(f"domain is {self.kind}, not numeric")
        return [float(v) for v in self.values if v is not None]


_OPT_DOMAIN = ChoiceDomain(kind=BOOLEAN, labels=("off", "on"), values=(False, True))
_MULTI_DOMAIN = ChoiceDomain(kind=COUNT, labels=("0", "1", "..."), values=(0, 1))

#: Interned ``ANY`` node -> its domain (one sdss-grow serving session
#: fills about 850 entries).
_DOMAIN_MEMO = memo_table(8192, name="widgets.domain")


def domain_of(node: DTNode) -> ChoiceDomain:
    """Extract the domain of a choice node (memoized per interned node).

    Raises:
        ValueError: for non-choice nodes.
    """
    if node.kind == OPT:
        return _OPT_DOMAIN
    if node.kind == MULTI:
        return _MULTI_DOMAIN
    if node.kind != ANY:
        raise ValueError(f"node kind {node.kind!r} has no domain")
    domain = _DOMAIN_MEMO.get(node)
    if domain is None:
        domain = _DOMAIN_MEMO[node] = _any_domain(node)
    return domain


def _any_domain(node: DTNode) -> ChoiceDomain:
    labels: List[str] = []
    values: List[object] = []
    has_empty = False
    complex_options = False
    total_chars = 0
    kinds: List[str] = []
    for alt in node.children:
        if alt.kind == EMPTY:
            has_empty = True
            labels.append("(none)")
            values.append(None)
            continue
        full_label = option_label(alt, limit=10_000)
        total_chars += len(full_label)
        if alt.has_choice_descendant() or alt.kind in (OPT, MULTI, ANY):
            complex_options = True
            labels.append(option_label(alt))
            values.append(None)
            kinds.append(SUBTREE)
            continue
        labels.append(option_label(alt))
        kind, value = _classify_concrete(alt)
        kinds.append(kind)
        values.append(value)

    if complex_options:
        overall = SUBTREE
    elif kinds and all(k == NUMERIC for k in kinds):
        overall = NUMERIC
    elif kinds and all(k == RANGE for k in kinds):
        overall = RANGE
    elif kinds and all(k == STRING for k in kinds):
        overall = STRING
    else:
        overall = SUBTREE
    return ChoiceDomain(
        kind=overall,
        labels=tuple(labels),
        values=tuple(values),
        has_empty=has_empty,
        complex_options=complex_options,
        total_label_chars=total_chars,
    )


def _classify_concrete(alt: DTNode) -> Tuple[str, object]:
    """Classify one concrete (choice-free) alternative."""
    if not alt.children and alt.label in _NUMERIC_LEAF_LABELS:
        return NUMERIC, alt.value
    if not alt.children and alt.label in _STRING_LEAF_LABELS:
        return STRING, alt.value
    pair = _between_pair(alt)
    if pair is not None:
        return RANGE, pair
    return SUBTREE, None


def _between_pair(alt: DTNode) -> Optional[Tuple[float, float]]:
    """``(lo, hi)`` when ``alt`` is a concrete BETWEEN with numeric bounds."""
    if alt.kind != ALL or alt.label != N.BETWEEN or len(alt.children) != 3:
        return None
    _, lo, hi = alt.children
    for bound in (lo, hi):
        if bound.children or bound.label != N.NUMEXPR:
            return None
    return (float(lo.value), float(hi.value))


# -- display labels -------------------------------------------------------------


def option_label(node: DTNode, limit: int = 40) -> str:
    """Short human-readable label for a difftree subtree (widget option)."""
    text = _label(node)
    if len(text) > limit:
        text = text[: limit - 1] + "…"
    return text


#: Interned subtree -> its uncapped label (about 1,700 entries per
#: sdss-grow serving session).
_LABEL_MEMO = memo_table(16384, name="widgets.label")


def _label(node: DTNode) -> str:
    text = _LABEL_MEMO.get(node)
    if text is None:
        text = _LABEL_MEMO[node] = _compose_label(node)
    return text


def _compose_label(node: DTNode) -> str:
    if node.kind == EMPTY:
        return "(none)"
    if node.kind == ANY:
        return " | ".join(_label(c) for c in node.children)
    if node.kind == OPT:
        return f"[{_label(node.children[0])}]"
    if node.kind == MULTI:
        return f"{_label(node.children[0])}*"
    label, value = node.label, node.value
    if label in (N.NUMEXPR, N.STREXPR, N.COLEXPR, N.TABLE):
        return str(value)
    if label in (N.TOP, N.LIMIT):
        return str(value)
    if label == N.STAR:
        return "*"
    if label == N.FUNC:
        return f"{value}({', '.join(_label(c) for c in node.children)})"
    if label == N.ALIAS:
        inner = " ".join(_label(c) for c in node.children)
        return f"{inner} AS {value}"
    if label == N.BIEXPR:
        # Rule rewrites can change slot arity; join whatever slots exist.
        return f" {value} ".join(_label(c) for c in node.children)
    if label == N.BETWEEN:
        parts = [_label(c) for c in node.children]
        if len(parts) == 3:
            return f"{parts[0]} BETWEEN {parts[1]} AND {parts[2]}"
        return f"BETWEEN({', '.join(parts)})"
    if label == N.INLIST:
        parts = [_label(c) for c in node.children]
        if len(parts) >= 2:
            return f"{parts[0]} IN ({', '.join(parts[1:])})"
        return f"IN({', '.join(parts)})"
    if label == N.AND:
        return " AND ".join(_label(c) for c in node.children)
    if label == N.OR:
        return " OR ".join(_label(c) for c in node.children)
    if label == N.NOT:
        return "NOT " + " ".join(_label(c) for c in node.children)
    if label == N.WHERE:
        return "WHERE " + " ".join(_label(c) for c in node.children)
    if label == N.PROJECT:
        return ", ".join(_label(c) for c in node.children)
    if label == N.FROM:
        return f"FROM {', '.join(_label(c) for c in node.children)}"
    if label == N.GROUPBY:
        return f"GROUP BY {', '.join(_label(c) for c in node.children)}"
    if label == N.ORDERBY:
        return f"ORDER BY {', '.join(_label(c) for c in node.children)}"
    if label == N.ORDERITEM:
        direction = " DESC" if value == "desc" else ""
        inner = " ".join(_label(c) for c in node.children)
        return f"{inner}{direction}"
    if label == N.SELECT:
        return "SELECT " + " ".join(_label(c) for c in node.children)
    if value is not None:
        return f"{label}={value}"
    return label
