"""repro.serve — incremental, cached interface generation.

The serving layer over the one-shot :func:`repro.generate_interface`
pipeline:

* :class:`LogStream` — one session's append-only log, parsed through
  ``parse``'s memo (the one parse cache) and keyed by :func:`log_key`.
* :class:`SessionRouter` — the one session table: per session id, one
  :class:`SessionRecord` holding the log, the warm state its next search
  starts from, and its report history, in least-recently-used order
  under one lock.
* :class:`InterfaceCache` — LRU keyed by the log's query sequence;
  exact hits skip search entirely.
* :class:`IncrementalGenerator` — extends a session's previous difftree
  to appended queries by anti-unification and warm-starts MCTS from its
  prior run's transposition table and incumbent.
"""

from .cache import (
    CacheStats,
    InterfaceCache,
    context_key,
    log_key,
    query_key,
)
from .incremental import IncrementalGenerator, PendingSearch
from .stream import DEFAULT_SESSION, LogStream, SessionRecord, SessionRouter

__all__ = [
    "LogStream",
    "SessionRecord",
    "SessionRouter",
    "InterfaceCache",
    "CacheStats",
    "log_key",
    "query_key",
    "context_key",
    "IncrementalGenerator",
    "PendingSearch",
    "DEFAULT_SESSION",
]
