"""Parameterized synthetic query-log generators.

The paper motivates interface generation with ad-hoc analysis sessions:
an analyst re-runs near-identical queries while varying literals, toggling
clauses, and adding predicates.  These generators produce logs with
exactly those change patterns, at controllable sizes, for scaling and
ablation benchmarks.  All are deterministic given a seed.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from ..sqlast import Node, parse

_DEFAULT_COLUMNS = ("u", "g", "r", "i", "z")
_DEFAULT_TABLES = ("stars", "galaxies", "quasars")


def value_drift_log(
    num_queries: int = 8,
    table: str = "stars",
    column: str = "u",
    seed: int = 0,
) -> List[Node]:
    """The same query with one numeric literal drifting (slider material)."""
    rng = random.Random(seed)
    threshold = rng.randrange(5, 15)
    queries = []
    for _ in range(num_queries):
        queries.append(parse(f"select objid from {table} where {column} < {threshold}"))
        threshold += rng.randrange(1, 4)
    return queries


def clause_toggle_log(
    num_queries: int = 8,
    table: str = "galaxies",
    seed: int = 0,
) -> List[Node]:
    """Queries that keep appearing with and without optional clauses."""
    rng = random.Random(seed)
    queries = []
    for _ in range(num_queries):
        parts = [f"select objid from {table}"]
        if rng.random() < 0.6:
            column = rng.choice(_DEFAULT_COLUMNS)
            parts.append(f"where {column} between 0 and {rng.randrange(10, 30)}")
        if rng.random() < 0.4:
            parts.append(f"order by {rng.choice(('ra', 'dec'))}")
        queries.append(parse(" ".join(parts)))
    return queries


def predicate_add_log(
    num_queries: int = 6,
    table: str = "quasars",
    columns: Sequence[str] = _DEFAULT_COLUMNS[:4],
    seed: int = 0,
) -> List[Node]:
    """A growing AND-chain of BETWEEN conjuncts (MULTI/adder material)."""
    rng = random.Random(seed)
    queries = []
    for i in range(num_queries):
        count = 1 + (i % len(columns))
        conjuncts = []
        for column in columns[:count]:
            lo = rng.randrange(0, 10)
            hi = lo + rng.randrange(10, 20)
            conjuncts.append(f"{column} between {lo} and {hi}")
        queries.append(
            parse(f"select objid from {table} where {' and '.join(conjuncts)}")
        )
    return queries


def projection_cycle_log(
    num_queries: int = 9,
    table: str = "stars",
    seed: int = 0,
) -> List[Node]:
    """Cycling projections and aggregates (Figure 6(a)'s radio-button axis)."""
    rng = random.Random(seed)
    items = ("objid", "count(*)", "ra", "dec")
    tops = (None, 10, 100, 1000)
    queries = []
    for _ in range(num_queries):
        item = rng.choice(items)
        top = rng.choice(tops)
        top_clause = f"top {top} " if top is not None else ""
        queries.append(parse(f"select {top_clause}{item} from {table}"))
    return queries


def mixed_session_log(
    num_queries: int = 12,
    seed: int = 0,
    tables: Sequence[str] = _DEFAULT_TABLES,
) -> List[Node]:
    """A realistic mixed session: drifting literals, clause toggles,
    changing tables and projections."""
    rng = random.Random(seed)
    queries: List[Node] = []
    threshold = rng.randrange(10, 20)
    for _ in range(num_queries):
        table = rng.choice(list(tables))
        item = rng.choice(("objid", "count(*)"))
        top: Optional[int] = rng.choice((None, 10, 100))
        parts = ["select"]
        if top is not None:
            parts.append(f"top {top}")
        parts.append(item)
        parts.append(f"from {table}")
        if rng.random() < 0.7:
            column = rng.choice(_DEFAULT_COLUMNS)
            parts.append(f"where {column} < {threshold}")
            threshold += rng.randrange(0, 3)
        queries.append(parse(" ".join(parts)))
    return queries
