"""Query executor for the SQL subset over in-memory tables.

Supports the full AST the parser produces: projections (columns, ``*``,
aggregate functions, aliases), TOP/LIMIT, WHERE with AND/OR/NOT,
comparisons, BETWEEN and IN, GROUP BY, and ORDER BY.  Multi-table FROM
clauses are executed as cross products (sufficient for the paper's
workloads, which are single-table).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..sqlast import nodes as N
from .storage import Database, ResultSet, Table


class ExecutionError(Exception):
    """Raised when a semantically invalid query is executed."""


AGGREGATES: Dict[str, Callable[[List[Any]], Any]] = {
    "count": len,
    "sum": lambda xs: sum(xs) if xs else 0,
    "avg": lambda xs: (sum(xs) / len(xs)) if xs else None,
    "min": lambda xs: min(xs) if xs else None,
    "max": lambda xs: max(xs) if xs else None,
}


def execute(db: Database, query: N.Node) -> ResultSet:
    """Execute a ``Select`` AST against ``db`` and return a result set."""
    if query.label != N.SELECT:
        raise ExecutionError(f"can only execute Select, got {query.label}")
    from_ = query.child_by_label(N.FROM)
    if from_ is None or not from_.children:
        raise ExecutionError("query has no FROM clause")
    rows = _scan(db, from_)

    where = query.child_by_label(N.WHERE)
    if where is not None:
        predicate = where.children[0]
        rows = [row for row in rows if _eval_pred(predicate, row)]

    project = query.child_by_label(N.PROJECT)
    if project is None:
        raise ExecutionError("query has no projection")
    group = query.child_by_label(N.GROUPBY)
    if group is not None or _has_aggregate(project):
        header, out_rows = _aggregate(project, group, rows)
    else:
        header, out_rows = _project(project, rows)

    order = query.child_by_label(N.ORDERBY)
    if order is not None:
        out_rows = _order(order, header, out_rows)

    top = query.child_by_label(N.TOP)
    if top is not None:
        out_rows = out_rows[: int(top.value)]
    lim = query.child_by_label(N.LIMIT)
    if lim is not None:
        out_rows = out_rows[: int(lim.value)]
    return ResultSet(header, out_rows)


# -- scanning ----------------------------------------------------------------


def _scan(db: Database, from_: N.Node) -> List[Dict[str, Any]]:
    tables = [db.table(str(t.value)) for t in from_.children]
    rows: List[Dict[str, Any]] = [{}]
    for table in tables:
        rows = [
            {**left, **_qualify(table, i)}
            for left in rows
            for i in range(table.num_rows)
        ]
    return rows


def _qualify(table: Table, index: int) -> Dict[str, Any]:
    row = table.row(index)
    qualified = {f"{table.name}.{col}": val for col, val in row.items()}
    qualified.update(row)
    return qualified


# -- expressions -------------------------------------------------------------


def _eval_expr(expr: N.Node, row: Dict[str, Any]) -> Any:
    label = expr.label
    if label == N.COLEXPR:
        name = str(expr.value)
        if name not in row:
            raise ExecutionError(f"unknown column {name!r}")
        return row[name]
    if label == N.NUMEXPR or label == N.STREXPR:
        return expr.value
    raise ExecutionError(f"cannot evaluate expression node {label!r}")


def _eval_pred(pred: N.Node, row: Dict[str, Any]) -> bool:
    label = pred.label
    if label == N.AND:
        return all(_eval_pred(c, row) for c in pred.children)
    if label == N.OR:
        return any(_eval_pred(c, row) for c in pred.children)
    if label == N.NOT:
        return not _eval_pred(pred.children[0], row)
    if label == N.BIEXPR:
        left = _eval_expr(pred.children[0], row)
        right = _eval_expr(pred.children[1], row)
        return _compare(str(pred.value), left, right)
    if label == N.BETWEEN:
        value = _eval_expr(pred.children[0], row)
        lo = _eval_expr(pred.children[1], row)
        hi = _eval_expr(pred.children[2], row)
        if value is None:
            return False
        return lo <= value <= hi
    if label == N.INLIST:
        value = _eval_expr(pred.children[0], row)
        options = [_eval_expr(c, row) for c in pred.children[1:]]
        return value in options
    raise ExecutionError(f"cannot evaluate predicate node {label!r}")


def _compare(op: str, left: Any, right: Any) -> bool:
    if left is None or right is None:
        return False
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise ExecutionError(f"unknown operator {op!r}")


# -- projection / aggregation --------------------------------------------------


def _has_aggregate(project: N.Node) -> bool:
    return any(
        node.label == N.FUNC and str(node.value) in AGGREGATES
        for node in project.walk()
    )


def _item_name(item: N.Node) -> str:
    if item.label == N.ALIAS:
        return str(item.value)
    if item.label == N.COLEXPR:
        return str(item.value)
    if item.label == N.FUNC:
        inner = item.children[0]
        arg = "*" if inner.label == N.STAR else str(inner.value)
        return f"{item.value}({arg})"
    if item.label == N.STAR:
        return "*"
    if item.label in (N.NUMEXPR, N.STREXPR):
        return str(item.value)
    raise ExecutionError(f"cannot name projection item {item.label!r}")


def _project(
    project: N.Node, rows: List[Dict[str, Any]]
) -> Tuple[List[str], List[Tuple[Any, ...]]]:
    items = list(project.children)
    if any(item.label == N.STAR for item in items):
        if rows:
            header = sorted(k for k in rows[0] if "." not in k)
        else:
            header = []
        non_star = [i for i in items if i.label != N.STAR]
        header = header + [_item_name(i) for i in non_star]
        out = [
            tuple(row[c] for c in header[: len(header) - len(non_star)])
            + tuple(_eval_expr(_unalias(i), row) for i in non_star)
            for row in rows
        ]
        return header, out
    header = [_item_name(i) for i in items]
    out = [tuple(_eval_expr(_unalias(i), row) for i in items) for row in rows]
    return header, out


def _unalias(item: N.Node) -> N.Node:
    return item.children[0] if item.label == N.ALIAS else item


def _aggregate(
    project: N.Node, group: Optional[N.Node], rows: List[Dict[str, Any]]
) -> Tuple[List[str], List[Tuple[Any, ...]]]:
    group_cols = [str(c.value) for c in group.children] if group is not None else []
    groups: Dict[Tuple[Any, ...], List[Dict[str, Any]]] = {}
    if group_cols:
        for row in rows:
            key = tuple(row.get(c) for c in group_cols)
            groups.setdefault(key, []).append(row)
    else:
        groups[()] = rows

    header = [_item_name(i) for i in project.children]
    out_rows: List[Tuple[Any, ...]] = []
    for key in sorted(groups, key=_sort_key):
        bucket = groups[key]
        out_row = []
        for item in project.children:
            expr = _unalias(item)
            out_row.append(_eval_agg_item(expr, group_cols, key, bucket))
        out_rows.append(tuple(out_row))
    return header, out_rows


def _eval_agg_item(
    expr: N.Node,
    group_cols: List[str],
    key: Tuple[Any, ...],
    bucket: List[Dict[str, Any]],
) -> Any:
    if expr.label == N.COLEXPR:
        name = str(expr.value)
        if name not in group_cols:
            raise ExecutionError(
                f"column {name!r} must appear in GROUP BY or an aggregate"
            )
        return key[group_cols.index(name)]
    if expr.label == N.FUNC:
        fname = str(expr.value)
        if fname not in AGGREGATES:
            raise ExecutionError(f"unknown aggregate {fname!r}")
        arg = expr.children[0]
        if arg.label == N.STAR:
            values: List[Any] = [1] * len(bucket)
        else:
            values = [
                row[str(arg.value)]
                for row in bucket
                if row.get(str(arg.value)) is not None
            ]
        return AGGREGATES[fname](values)
    if expr.label in (N.NUMEXPR, N.STREXPR):
        return expr.value
    raise ExecutionError(f"cannot aggregate over node {expr.label!r}")


def _order(
    order: N.Node, header: List[str], rows: List[Tuple[Any, ...]]
) -> List[Tuple[Any, ...]]:
    for item in reversed(order.children):
        name = str(item.children[0].value)
        if name not in header:
            raise ExecutionError(f"ORDER BY column {name!r} not in output")
        index = header.index(name)
        rows = sorted(
            rows,
            key=lambda row: _sort_key((row[index],)),
            reverse=(item.value == "desc"),
        )
    return rows


def _sort_key(values: Tuple[Any, ...]) -> Tuple[Any, ...]:
    """Total-order key tolerant of None and mixed types."""
    out = []
    for v in values:
        if v is None:
            out.append((0, 0, ""))
        elif isinstance(v, (int, float)) and not isinstance(v, bool):
            out.append((1, v if not math.isnan(v) else math.inf, ""))
        else:
            out.append((2, 0, str(v)))
    return tuple(out)
