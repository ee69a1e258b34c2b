"""Fan many independent query logs across a worker pool.

Interface generation is CPU-bound (widget enumeration + cost scoring),
so throughput over many logs wants *processes*, not threads.
:func:`generate_interfaces_batch` maps logs over a
:class:`concurrent.futures` pool with one shared config, preserving
input order.

Process-pool workers return their :class:`~repro.core.GeneratedInterface`
by pickle, exactly as the thread and serial executors return it in
memory; ``Node``/``DTNode.__reduce__`` rebuild every tree through the
interning constructor, so results land on the parent's canonical nodes.

Sandboxed or single-core environments where process pools cannot start
fall back to threads (same results, reduced parallelism) rather than
failing the batch.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core import GeneratedInterface, GenerationConfig, generate_interface
from ..layout import Screen
from .stream import QueryLike

#: Executor choices for :func:`generate_interfaces_batch`.
EXECUTORS = ("process", "thread", "serial")


def _generate_one(job) -> GeneratedInterface:
    """Module-level worker (must be picklable by qualified name)."""
    queries, screen, config = job
    return generate_interface(queries, screen=screen, config=config)


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

    Raises:
        ValueError: on an unknown executor or an empty log.
        TypeError: when a log is a bare string instead of a sequence of
            queries.  Logs are checked before any pool starts, and the
            error names the bad log's index.
    """
    if executor not in EXECUTORS:
        raise ValueError(f"executor must be one of {EXECUTORS}, got {executor!r}")
    config = config or GenerationConfig()
    screen = screen or Screen.wide()
    jobs = []
    for index, log in enumerate(logs):
        if isinstance(log, str):
            raise TypeError(
                f"log {index} is a bare string; a log is a sequence of queries"
            )
        queries = list(log)
        if not queries:
            raise ValueError(f"log {index} is empty; a log needs at least one query")
        jobs.append((queries, screen, config))

    if executor == "serial" or len(jobs) <= 1:
        return [_generate_one(job) for job in jobs]

    # Imported here so ``import repro`` does not load multiprocessing.
    from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    if executor == "thread":
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            return list(pool.map(_generate_one, jobs))
    try:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            return list(pool.map(_generate_one, jobs))
    except (OSError, BrokenProcessPool):
        # Process pools need working semaphores/fork, and their workers
        # can be killed under us (sandbox limits, OOM): both surface
        # here.  Generation itself is deterministic pure computation, so
        # a thread-pool re-run is a safe (if slower) recovery and honors
        # the no-fail contract of this fallback.
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            return list(pool.map(_generate_one, jobs))
