"""A TPC-H-style analytic session workload (grouping/aggregate-heavy).

The SDSS log (:mod:`repro.workloads.sdss`) exercises range predicates on
a flat projection; analytic dashboards stress a different part of the
interface space: aggregate functions, GROUP BY column sets, ORDER BY
direction, and LIMIT — the knobs a TPC-H-style pricing-summary session
(in the spirit of TPC-H Q1/Q5/Q10) keeps revisiting.  The generators
here mirror the SDSS ones deterministically: every query keeps one
shared shape so anti-unification factors the session well, while the
aggregate, grouping, filter bounds, and row limit drift over a *small*
palette of revisited values the way an analyst's session does.

``tpch_session_sql`` is the growing-log variant (like
``sdss_session_sql``) used by the incremental-serving and cost-kernel
benchmarks for scenario diversity.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from ..sqlast import Node, parse

#: The measure columns an analyst aggregates over, and the aggregates.
_MEASURES = ("l_quantity", "l_extendedprice", "l_discount")
_AGGREGATES = ("sum", "avg", "min", "max")
#: Grouping column sets the session cycles through (kept to two so the
#: GROUP BY clause factors into a compact choice, like Listing 1's
#: six bound sets).
_GROUPINGS = ("l_returnflag", "l_linestatus")
#: (lo, hi) palettes per filter column — revisited, SDSS-style.
_QTY_BOUNDS = ((1, 24), (5, 30), (10, 40))
_PRICE_BOUNDS = ((100, 900), (200, 800), (300, 700))
_LIMITS: Tuple[Optional[int], ...] = (None, 10, 100)
_DIRECTIONS = ("", " desc")


def _build_sql(
    aggregate: str,
    measure: str,
    grouping: str,
    qty: Tuple[int, int],
    price: Tuple[int, int],
    direction: str,
    limit: Optional[int],
) -> str:
    limit_clause = f" limit {limit}" if limit is not None else ""
    return (
        f"select {grouping}, {aggregate}({measure}) from lineitem"
        f" where l_quantity between {qty[0]} and {qty[1]}"
        f" and l_extendedprice between {price[0]} and {price[1]}"
        f" group by {grouping}"
        f" order by {grouping}{direction}"
        f"{limit_clause}"
    )


#: A fixed ten-query pricing-summary session (the TPC-H analogue of
#: Listing 1): same shape throughout, drifting aggregate/grouping/bounds.
_SPEC: Tuple[Tuple[str, str, str, int, int, str, Optional[int]], ...] = (
    ("sum", "l_quantity", "l_returnflag", 0, 0, "", 10),
    ("sum", "l_extendedprice", "l_returnflag", 0, 0, "", 10),
    ("avg", "l_extendedprice", "l_returnflag", 0, 1, "", 100),
    ("avg", "l_discount", "l_linestatus", 1, 1, " desc", 100),
    ("sum", "l_quantity", "l_linestatus", 1, 0, " desc", None),
    ("min", "l_extendedprice", "l_returnflag", 2, 0, "", None),
    ("max", "l_extendedprice", "l_returnflag", 2, 2, "", 10),
    ("sum", "l_discount", "l_linestatus", 0, 2, " desc", 10),
    ("avg", "l_quantity", "l_returnflag", 0, 0, "", 100),
    ("sum", "l_extendedprice", "l_linestatus", 1, 1, "", 10),
)

PRICING_SUMMARY_SQL: Tuple[str, ...] = tuple(
    _build_sql(
        agg,
        measure,
        grouping,
        _QTY_BOUNDS[qty],
        _PRICE_BOUNDS[price],
        direction,
        limit,
    )
    for agg, measure, grouping, qty, price, direction, limit in _SPEC
)


def pricing_summary_sql(start: int = 1, end: int = 10) -> List[str]:
    """Queries ``start``..``end`` of the fixed session (1-indexed, incl.)."""
    if not (1 <= start <= end <= len(PRICING_SUMMARY_SQL)):
        raise ValueError(f"invalid pricing-summary range [{start}, {end}]")
    return list(PRICING_SUMMARY_SQL[start - 1 : end])


def pricing_summary_queries(start: int = 1, end: int = 10) -> List[Node]:
    """Parsed ASTs of the fixed session queries (1-indexed, inclusive)."""
    return [parse(sql) for sql in pricing_summary_sql(start, end)]


def tpch_session_sql(num_queries: int = 20, seed: int = 0) -> List[str]:
    """An arbitrarily long TPC-H-style session log (growing-log variant).

    Deterministic given a seed: every query keeps the pricing-summary
    shape — ``SELECT g, agg(m) FROM lineitem WHERE`` two ``BETWEEN``
    filters ``GROUP BY g ORDER BY g [DESC] [LIMIT n]`` — while the
    aggregate, measure, grouping column, per-filter bounds, sort
    direction, and limit drift over small revisited palettes.  One knob
    is nudged per step (the analyst refines the previous query), which
    keeps consecutive-pair diffs realistic for the ``U`` cost.
    """
    rng = random.Random(seed)
    state = {
        "aggregate": _AGGREGATES[0],
        "measure": _MEASURES[0],
        "grouping": _GROUPINGS[0],
        "qty": _QTY_BOUNDS[0],
        "price": _PRICE_BOUNDS[0],
        "direction": _DIRECTIONS[0],
        "limit": _LIMITS[1],
    }
    nudges: Sequence[Tuple[str, Sequence[object]]] = (
        ("aggregate", _AGGREGATES),
        ("measure", _MEASURES),
        ("grouping", _GROUPINGS),
        ("qty", _QTY_BOUNDS),
        ("price", _PRICE_BOUNDS),
        ("direction", _DIRECTIONS),
        ("limit", _LIMITS),
    )
    queries: List[str] = []
    for _ in range(num_queries):
        knob, palette = nudges[rng.randrange(len(nudges))]
        state[knob] = palette[rng.randrange(len(palette))]
        queries.append(
            _build_sql(
                state["aggregate"],
                state["measure"],
                state["grouping"],
                state["qty"],
                state["price"],
                state["direction"],
                state["limit"],
            )
        )
    return queries


def tpch_session_queries(num_queries: int = 20, seed: int = 0) -> List[Node]:
    """Parsed ASTs of :func:`tpch_session_sql`."""
    return [parse(sql) for sql in tpch_session_sql(num_queries, seed=seed)]
