"""Pretty-printer turning ASTs back into SQL text.

``parse(to_sql(ast)) == ast`` holds for every AST the parser can produce;
this round-trip is exercised by property tests.
"""

from __future__ import annotations

from .. import memo as _memo
from . import nodes as N

#: ``interned AST -> rendered SQL``; rendering the same (sub)tree twice —
#: e.g. interface runtimes re-displaying the current query per widget
#: interaction — is a lookup instead of a tree walk.
_RENDER_MEMO = _memo.memo_table(4096, name="sqlast.render")


def to_sql(node: N.Node) -> str:
    """Render an AST back to SQL text (memoized on the interned node)."""
    cached = _RENDER_MEMO.get(node)
    if cached is not None:
        return cached
    text = _render(node)
    _RENDER_MEMO[node] = text
    return text


def _render(node: N.Node) -> str:
    if node.label == N.SELECT:
        return _select_to_sql(node)
    return _expr_to_sql(node, parent=None)


def _select_to_sql(node: N.Node) -> str:
    parts = ["SELECT"]
    top = node.child_by_label(N.TOP)
    if top is not None:
        parts.append(f"TOP {top.value}")
    proj = node.child_by_label(N.PROJECT)
    if proj is None:
        raise ValueError("Select node is missing its Project clause")
    parts.append(", ".join(_expr_to_sql(c, parent=None) for c in proj.children))
    from_ = node.child_by_label(N.FROM)
    if from_ is None:
        raise ValueError("Select node is missing its From clause")
    parts.append("FROM")
    parts.append(", ".join(str(t.value) for t in from_.children))
    where = node.child_by_label(N.WHERE)
    if where is not None:
        parts.append("WHERE")
        parts.append(_expr_to_sql(where.children[0], parent=None))
    group = node.child_by_label(N.GROUPBY)
    if group is not None:
        parts.append("GROUP BY")
        parts.append(", ".join(str(c.value) for c in group.children))
    order = node.child_by_label(N.ORDERBY)
    if order is not None:
        parts.append("ORDER BY")
        items = []
        for item in order.children:
            suffix = " DESC" if item.value == "desc" else ""
            items.append(f"{item.children[0].value}{suffix}")
        parts.append(", ".join(items))
    lim = node.child_by_label(N.LIMIT)
    if lim is not None:
        parts.append(f"LIMIT {lim.value}")
    return " ".join(parts)


def _expr_to_sql(node: N.Node, parent) -> str:
    label = node.label
    if label == N.COLEXPR:
        return str(node.value)
    if label == N.STAR:
        return "*"
    if label == N.NUMEXPR:
        return repr(node.value)
    if label == N.STREXPR:
        escaped = str(node.value).replace("'", "''")
        return f"'{escaped}'"
    if label == N.FUNC:
        return f"{node.value}({_expr_to_sql(node.children[0], node)})"
    if label == N.ALIAS:
        return f"{_expr_to_sql(node.children[0], node)} AS {node.value}"
    if label == N.BIEXPR:
        left = _expr_to_sql(node.children[0], node)
        right = _expr_to_sql(node.children[1], node)
        return f"{left} {node.value} {right}"
    if label == N.BETWEEN:
        column = _expr_to_sql(node.children[0], node)
        lo = _expr_to_sql(node.children[1], node)
        hi = _expr_to_sql(node.children[2], node)
        return f"{column} BETWEEN {lo} AND {hi}"
    if label == N.INLIST:
        column = _expr_to_sql(node.children[0], node)
        values = ", ".join(_expr_to_sql(c, node) for c in node.children[1:])
        return f"{column} IN ({values})"
    if label == N.AND:
        parts = [_expr_to_sql(c, node) for c in node.children]
        text = " AND ".join(
            f"({p})" if c.label == N.OR else p
            for p, c in zip(parts, node.children)
        )
        return text
    if label == N.OR:
        return " OR ".join(_expr_to_sql(c, node) for c in node.children)
    if label == N.NOT:
        inner = node.children[0]
        body = _expr_to_sql(inner, node)
        if inner.label in (N.AND, N.OR):
            body = f"({body})"
        return f"NOT {body}"
    if label == N.SELECT:
        return f"({_select_to_sql(node)})"
    raise ValueError(f"cannot print node label {label!r}")
