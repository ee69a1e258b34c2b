"""repro.serve — incremental, cached interface generation.

The serving layer over the one-shot :func:`repro.generate_interface`
pipeline:

* :class:`LogStream` / :class:`SessionRouter` — per-session append-only
  logs, parsed through ``parse``'s memo (the one parse cache) and keyed
  by :func:`log_key`.
* :class:`InterfaceCache` — LRU keyed by the log's query sequence;
  exact hits skip search entirely, prefix hits feed warm starts.
* :class:`IncrementalGenerator` — extends the previous difftree to
  appended queries by anti-unification and warm-starts MCTS from the
  prior run's transposition table and incumbent.
"""

from .cache import (
    CacheStats,
    InterfaceCache,
    PrefixMatch,
    context_key,
    log_key,
    query_key,
)
from .incremental import DEFAULT_SESSION, IncrementalGenerator, PendingSearch
from .stream import LogStream, SessionRouter

__all__ = [
    "LogStream",
    "SessionRouter",
    "InterfaceCache",
    "CacheStats",
    "PrefixMatch",
    "log_key",
    "query_key",
    "context_key",
    "IncrementalGenerator",
    "PendingSearch",
    "DEFAULT_SESSION",
]
