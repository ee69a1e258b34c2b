"""The paper's evaluation workload: the SDSS-derived query log (Listing 1).

The paper prints only the first two queries in full and notes that *all*
queries share the same WHERE-clause structure (four BETWEEN conjuncts on
the photometric bands u, g, r, i) and that queries 6–8 share *identical*
WHERE clauses (which is why Figure 6(c), generated from queries 6–8 alone,
only asks the user to pick TOP 10/100/1000).  We reconstruct the remaining
bounds deterministically under exactly those constraints.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from ..sqlast import Node, parse

#: (table, select item, top-n or None, ((u), (g), (r), (i)) bounds)
_SHARED_678: Tuple[Tuple[int, int], ...] = ((0, 30), (5, 25), (2, 28), (1, 29))

_SPEC: Tuple[Tuple[str, str, object, Tuple[Tuple[int, int], ...]], ...] = (
    # 1-2 are printed verbatim in the paper's Listing 1.
    ("stars", "objid", 10, ((0, 30), (0, 30), (0, 30), (0, 30))),
    ("galaxies", "objid", 100, ((1, 29), (10, 30), (9, 30), (3, 28))),
    ("quasars", "objid", 1000, ((2, 28), (6, 26), (0, 30), (1, 27))),
    ("stars", "count(*)", None, ((0, 28), (4, 26), (2, 29), (0, 25))),
    ("galaxies", "objid", None, ((3, 27), (1, 30), (6, 24), (2, 26))),
    ("quasars", "objid", 10, _SHARED_678),
    ("stars", "objid", 100, _SHARED_678),
    ("galaxies", "objid", 1000, _SHARED_678),
    ("quasars", "count(*)", None, ((2, 26), (3, 27), (4, 28), (5, 29))),
    ("stars", "objid", None, ((1, 25), (2, 30), (3, 29), (4, 26))),
)

_BANDS = ("u", "g", "r", "i")


def _build_sql(
    table: str, item: str, top: object, bounds: Sequence[Tuple[int, int]]
) -> str:
    top_clause = f"top {top} " if top is not None else ""
    preds = " and ".join(
        f"{band} between {lo} and {hi}" for band, (lo, hi) in zip(_BANDS, bounds)
    )
    return f"select {top_clause}{item} from {table} where {preds}"


#: The ten SQL strings of Listing 1 (1-indexed in the paper).
LISTING1_SQL: Tuple[str, ...] = tuple(_build_sql(*spec) for spec in _SPEC)


def listing1_sql(start: int = 1, end: int = 10) -> List[str]:
    """Queries ``start``..``end`` of Listing 1 (1-indexed, inclusive)."""
    if not (1 <= start <= end <= len(LISTING1_SQL)):
        raise ValueError(f"invalid Listing-1 range [{start}, {end}]")
    return list(LISTING1_SQL[start - 1 : end])


def listing1_queries(start: int = 1, end: int = 10) -> List[Node]:
    """Parsed ASTs of Listing-1 queries ``start``..``end`` (inclusive)."""
    return [parse(sql) for sql in listing1_sql(start, end)]


def sdss_session_sql(num_queries: int = 20, seed: int = 0) -> List[str]:
    """An arbitrarily long SDSS-style session log (Listing-1 shaped).

    Deterministic given a seed: every query keeps Listing 1's exact
    shape — ``SELECT [TOP n] item FROM table WHERE`` four ``BETWEEN``
    conjuncts on the photometric bands — while the table, projection,
    TOP value, and per-band bounds drift the way an analyst's session
    does: over a *small* palette of revisited values (Listing 1 itself
    uses only six distinct bound sets across ten queries).  Used by the
    incremental-serving benchmark, which needs logs that keep growing
    past the ten queries the paper prints.
    """
    rng = random.Random(seed)
    tables = ("stars", "galaxies", "quasars")
    items = ("objid", "count(*)")
    tops: Tuple[object, ...] = (None, 10, 100, 1000)
    #: Per-band palettes the session keeps coming back to.
    palettes: Tuple[Tuple[Tuple[int, int], ...], ...] = tuple(
        (pair, (pair[0] + 1, pair[1] - 1), (pair[0] + 2, pair[1]))
        for pair in _SHARED_678
    )
    bounds = [palette[0] for palette in palettes]
    queries: List[str] = []
    for _ in range(num_queries):
        # Nudge one band per step (the analyst revisits a known range).
        band = rng.randrange(len(bounds))
        bounds[band] = rng.choice(palettes[band])
        queries.append(
            _build_sql(
                rng.choice(tables),
                rng.choice(items),
                rng.choice(tops),
                tuple(bounds),
            )
        )
    return queries
