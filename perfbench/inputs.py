"""Benchmark inputs, generated from the seed argument.

Every stream is filtered to *distinct* queries.  Today a session drops an
exact repeat and serves it from the interface cache, so a stream with
repeats would time cache hits as writes; once sequence-correct serving
lands, repeats become real work and the same stream would measure
something else.  Dropping repeats keeps the benchmark's work independent
of that behaviour.  The share dropped is recorded per run.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

#: Draws taken from a workload generator before giving up on distinctness.
MAX_DRAWS = 2000


def distinct_queries(
    generator: Callable[..., List[str]],
    count: int,
    seed: int,
    exclude: Sequence[str] = (),
) -> Tuple[List[str], int, int]:
    """The first ``count`` distinct queries of ``generator``'s stream.

    Queries in ``exclude`` count as already seen.  Returns ``(queries,
    draws, dropped)``: how many draws the stream took to yield ``count``
    distinct queries and how many of those repeated an earlier query.
    """
    seen = set(exclude)
    queries: List[str] = []
    draws = 0
    for sql in generator(MAX_DRAWS, seed=seed):
        draws += 1
        if sql in seen:
            continue
        seen.add(sql)
        queries.append(sql)
        if len(queries) == count:
            return queries, draws, draws - count
    raise ValueError(
        f"stream with seed {seed} has fewer than {count} distinct queries "
        f"in {MAX_DRAWS} draws"
    )


def sub_seed(seed: int, unit: int) -> int:
    """Generator seed of a run's unit drawn from ``seed``.

    Offset past the small generator seeds of the reference sessions, so a
    drawn stream never repeats a reference one.
    """
    return 1_000_000 + seed * 1000 + unit


def stream(
    workload: str,
    count: int,
    seed: int,
    fill: int = 0,
    fill_seed: Optional[int] = None,
) -> Tuple[List[str], int, int]:
    """Distinct queries of the ``sdss`` or ``tpch`` session generator.

    With a ``fill_seed`` other than ``seed``, the first ``fill`` queries
    come from the generator at ``fill_seed`` and the rest from ``seed``.
    """
    from repro.workloads import sdss_session_sql, tpch_session_sql

    generator = {"sdss": sdss_session_sql, "tpch": tpch_session_sql}[workload]
    if fill_seed is None or fill_seed == seed:
        return distinct_queries(generator, count, seed)
    prefix, draws, dropped = distinct_queries(generator, fill, fill_seed)
    rest, more_draws, more_dropped = distinct_queries(
        generator, count - fill, seed, exclude=prefix
    )
    return prefix + rest, draws + more_draws, dropped + more_dropped
