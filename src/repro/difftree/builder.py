"""Building the initial difftree search state.

The paper's initial state is "the list of input queries connected with an
ANY node as the root" (Figure 1 with the top ANY): a trivially valid
interface where each query is one button.
"""

from __future__ import annotations

from typing import List, Sequence, Union

from ..memo import INGEST
from ..sqlast import nodes as N
from ..sqlast.parser import parse
from .antiunify import anti_unify, graft
from .dtnodes import DTNode, any_node, wrap_ast
from .express import expresses
from .normalize import normalize

QueryLike = Union[str, N.Node]


def as_asts(queries: Sequence[QueryLike]) -> List[N.Node]:
    """Coerce a mixed list of SQL strings / ASTs into ASTs.

    Raises:
        TypeError: if ``queries`` is a bare string (a log is a sequence
            of queries, not one query's characters) or holds a value
            that is neither SQL text nor an AST.
    """
    if isinstance(queries, str):
        raise TypeError(
            "a log is a sequence of queries, got a bare string; "
            "wrap a single query in a list"
        )
    asts: List[N.Node] = []
    for query in queries:
        if isinstance(query, N.Node):
            asts.append(query)
        elif isinstance(query, str):
            asts.append(parse(query))
        else:
            raise TypeError(f"query must be SQL text or AST, got {type(query)}")
    return asts


def initial_difftree(queries: Sequence[QueryLike]) -> DTNode:
    """The root search state: ``ANY`` over the (deduplicated) query ASTs.

    Raises:
        ValueError: if ``queries`` is empty.
    """
    asts = as_asts(queries)
    if not asts:
        raise ValueError("need at least one input query")
    seen = set()
    unique: List[N.Node] = []
    for ast in asts:
        if ast not in seen:
            seen.add(ast)
            unique.append(ast)
    if len(unique) == 1:
        return normalize(wrap_ast(unique[0]))
    return normalize(any_node([wrap_ast(ast) for ast in unique]))


def extend_difftree(tree: DTNode, new_queries: Sequence[QueryLike]) -> DTNode:
    """Incrementally extend ``tree`` to also express appended queries.

    The incremental-serving primitive (:mod:`repro.serve`): instead of
    rebuilding the initial state from the full log and searching from
    scratch, merge only the *new* queries into an already-optimized
    difftree.  Queries the tree already expresses are skipped, so
    appending duplicates (the common case in real session logs) returns
    ``tree`` unchanged — same canonical key, zero structural churn.

    Each unexpressed query is :func:`~repro.difftree.antiunify.graft`-ed
    in (deep choice-domain extension, preserving the optimized layout);
    if the graft misses — repetition runs are approximate — the sound
    but coarser :func:`anti_unify` root merge is used instead.  Either
    way the result expresses everything ``tree`` expressed plus every
    new query, making it a valid warm-start state for the grown log.
    """
    current = tree
    for ast in as_asts(new_queries):
        if expresses(current, ast):
            INGEST.dedup_skipped_appends += 1
            continue
        wrapped = wrap_ast(ast)
        merged = graft(current, wrapped)
        if not expresses(merged, ast):
            merged = anti_unify(current, wrapped)
        current = merged
    return current
