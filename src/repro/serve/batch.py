"""Fan many independent query logs across a worker pool.

Interface generation is CPU-bound (widget enumeration + cost scoring),
so throughput over many logs wants *processes*, not threads.
:func:`generate_interfaces_batch` maps logs over a
:class:`concurrent.futures` pool with one shared config, preserving
input order.

Results cross process boundaries on the **columnar wire path**: workers
return plain-data dicts — the winning difftree as a
:meth:`~repro.difftree.columnar.ColumnarTree.to_payload` column set and
the widget tree as its decision vector — and the parent replays the
vector through its own compiled cost kernel (one ``evaluate`` + one
``materialize``, cross-checked against the shipped cost).  That skips
pickling per-node ``__reduce__`` object graphs, and the re-interning
inside :meth:`~repro.difftree.columnar.ColumnarTree.from_payload` lands
the received trees in the parent's hash-cons tables directly.  The
legacy pickle path is kept as the parity oracle behind
``memo.fast_paths(False)``.

Sandboxed or single-core environments where process pools cannot start
fall back to threads (same results, reduced parallelism) rather than
failing the batch.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, List, Optional, Sequence, Union

from .. import memo as _memo
from ..core import GeneratedInterface, GenerationConfig, generate_interface, prepare_search
from ..difftree import as_asts
from ..difftree.columnar import ColumnarTree
from ..layout import Screen
from ..search.common import SearchResult, SearchStats
from .snapshot import _decode_vector, _encode_vector
from .stream import QueryLike

#: Executor choices for :func:`generate_interfaces_batch`.
EXECUTORS = ("process", "thread", "serial")


def _generate_one(job) -> GeneratedInterface:
    """Module-level worker (must be picklable by qualified name)."""
    queries, screen, config = job
    return generate_interface(queries, screen=screen, config=config)


def _generate_one_wire(job) -> Union[Dict[str, Any], GeneratedInterface]:
    """Worker for the columnar wire path: plain data out, no node graphs.

    Falls back to returning the full object (pickle path) when the
    winner's widget tree cannot be expressed as a kernel decision
    vector — correctness over wire discipline.
    """
    import dataclasses

    queries, screen, config = job
    generated = generate_interface(queries, screen=screen, config=config)
    search = generated.search
    _, _, model, _initial, _rules = prepare_search(
        generated.queries, screen=screen, config=config
    )
    kernel = model.kernel_for(search.best.tree)
    vector = kernel.adopt(search.best.widget_tree)
    if vector is None:  # pragma: no cover - defensive
        return generated
    return {
        "difftree": ColumnarTree.from_node(search.best.tree).to_payload(),
        "vector": _encode_vector(vector),
        "cost": search.best.breakdown.total,
        "history": [list(point) for point in search.history],
        "stats": dataclasses.asdict(search.stats),
        "elapsed": search.elapsed,
        "strategy": search.strategy,
    }


def _decode_wire(
    result: Union[Dict[str, Any], GeneratedInterface],
    log: Sequence[QueryLike],
    screen: Screen,
    config: GenerationConfig,
) -> GeneratedInterface:
    """Replay a worker's wire dict through the parent's own kernel."""
    if isinstance(result, GeneratedInterface):
        return result  # worker fell back to the pickle path
    from ..cost import EvaluatedInterface

    asts, screen, model, _initial, _rules = prepare_search(
        as_asts(log), screen=screen, config=config
    )
    tree = ColumnarTree.from_payload(result["difftree"]).to_node()
    kernel = model.kernel_for(tree)
    vector = _decode_vector(result["vector"])
    breakdown = kernel.evaluate(vector)
    widget_tree = kernel.materialize(vector)
    if breakdown.total != result["cost"]:
        raise RuntimeError(
            f"wire-transferred interface replays to cost {breakdown.total!r} "
            f"but the worker scored {result['cost']!r}; refusing to return "
            "drifted state"
        )
    best = EvaluatedInterface(
        tree=tree, widget_tree=widget_tree, breakdown=breakdown
    )
    search = SearchResult(
        best=best,
        best_state=tree,
        history=[tuple(point) for point in result["history"]],
        stats=SearchStats(**result["stats"]),
        elapsed=result["elapsed"],
        strategy=result["strategy"],
    )
    return GeneratedInterface(
        queries=list(asts), screen=screen, search=search, best=best
    )


def generate_interfaces_batch(
    logs: Sequence[Sequence[QueryLike]],
    screen: Optional[Screen] = None,
    config: Optional[GenerationConfig] = None,
    max_workers: Optional[int] = None,
    executor: str = "process",
) -> List[GeneratedInterface]:
    """Generate one interface per log, in parallel, with a shared config.

    Args:
        logs: the query logs; each is a sequence of SQL strings or ASTs.
        screen: shared screen constraint (default wide).
        config: shared generation settings.
        max_workers: pool size (default: the executor's own default,
            typically the CPU count for processes).
        executor: ``"process"`` (default), ``"thread"``, or ``"serial"``.

    Returns:
        Generated interfaces in the same order as ``logs``.
    """
    if executor not in EXECUTORS:
        raise ValueError(f"executor must be one of {EXECUTORS}, got {executor!r}")
    config = config or GenerationConfig()
    screen = screen or Screen.wide()
    jobs = [(list(log), screen, config) for log in logs]

    if executor == "serial" or len(jobs) <= 1:
        return [_generate_one(job) for job in jobs]

    # The columnar wire path only pays off (and only matters) across a
    # process boundary; threads share the parent's heap, and the gated
    # reference mode keeps the pickle path as the parity oracle.
    wire = executor == "process" and _memo.fast_paths_enabled()
    worker = _generate_one_wire if wire else _generate_one

    pool_cls = ProcessPoolExecutor if executor == "process" else ThreadPoolExecutor
    # Pool threads start from the default gates: bind the caller's.
    threaded = _memo.bind_gates(worker)
    try:
        with pool_cls(max_workers=max_workers) as pool:
            results = list(
                pool.map(worker if executor == "process" else threaded, jobs)
            )
    except (OSError, PermissionError, BrokenProcessPool):
        if executor != "process":
            raise
        # Process pools need working semaphores/fork, and their workers
        # can be killed under us (sandbox limits, OOM): both surface
        # here.  Generation itself is deterministic pure computation, so
        # a thread-pool re-run is a safe (if slower) recovery and honors
        # the no-fail contract of this fallback.
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            results = list(pool.map(threaded, jobs))
    if not wire:
        return results
    return [
        _decode_wire(result, log, screen, config)
        for result, log in zip(results, logs)
    ]
