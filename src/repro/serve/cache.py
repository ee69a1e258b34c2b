"""LRU interface cache keyed by a fingerprint of the query sequence.

The cache key is :func:`log_key`, built from the per-query fingerprints
(:func:`query_key` — the wrapped AST's canonical key, memoized on the
interned AST) in log order.  The cost ``C(W, Q)`` sums the usability
term over *consecutive pairs* of the sequence, so two logs share an
entry only when they are the same sequence: a reordered log, or one that
repeats queries, is a different log with its own cost and its own entry.
A probe costs a few dict lookups instead of rebuilding and normalizing
an initial difftree over the full log.  Sessions key through the same
function, cached per :class:`~repro.serve.LogStream`.

Screen geometry and generation settings are folded into the key too —
the same log on a phone screen is a different interface.

Entries also carry the per-query canonical keys in log order, enabling
*longest-prefix* lookup: a session that grew by a few queries can warm-
start from the cached interface of its longest cached prefix instead of
searching from scratch (see :class:`~repro.serve.incremental.IncrementalGenerator`).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..core import GeneratedInterface, GenerationConfig
from ..difftree import wrap_ast
from ..layout import Screen
from ..sqlast import Node


@dataclass
class CacheStats:
    """Hit/miss/eviction counters (``prefix_hits`` counts warm-start reuse)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    prefix_hits: int = 0


@dataclass(frozen=True)
class _Entry:
    context_key: str
    query_keys: Tuple[str, ...]
    result: GeneratedInterface


@dataclass(frozen=True)
class PrefixMatch:
    """A cached interface covering a proper prefix of the requested log."""

    result: GeneratedInterface
    matched: int  #: how many leading queries of the request are covered


def query_key(ast: Node) -> str:
    """Stable per-query fingerprint (the wrapped AST's canonical key).

    ``wrap_ast`` is memoized on the interned AST, so repeated keying of
    the same query — every cache probe of a growing session re-keys its
    whole log — costs one dict lookup after first sight.
    """
    return wrap_ast(ast).canonical_key


def log_key(queries: Sequence[Node]) -> str:
    """Deterministic fingerprint of the query *sequence* — the one log key.

    The per-query fingerprints (:func:`query_key`) in log order, repeats
    kept, hashed: every hit is the exact log that was served, and the
    key is stable across runs and processes.
    :meth:`repro.serve.LogStream.log_key` caches it per stream.
    """
    if not queries:
        raise ValueError("need at least one input query")
    keys = [query_key(ast) for ast in queries]
    return hashlib.md5("|".join(keys).encode("utf-8")).hexdigest()


def context_key(screen: Screen, config: GenerationConfig) -> str:
    """Fingerprint of everything besides the log that shapes the output."""
    text = repr((screen, config))
    return hashlib.md5(text.encode("utf-8")).hexdigest()


class InterfaceCache:
    """Thread-safe LRU of generated interfaces.

    Args:
        capacity: maximum entries; the least recently *used* entry is
            evicted first (lookups refresh recency).
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._lock = threading.Lock()
        from ..obs import REGISTRY

        REGISTRY.register_source("serve.cache", self.snapshot, weak=True)

    def __len__(self) -> int:
        return len(self._entries)

    def snapshot(self) -> dict:
        """Uniform counter snapshot (same shape as ``BoundedLRU.stats``)."""
        with self._lock:
            return {
                "hits": self.stats.hits,
                "misses": self.stats.misses,
                "evictions": self.stats.evictions,
                "prefix_hits": self.stats.prefix_hits,
                "entries": len(self._entries),
                "capacity": self.capacity,
            }

    @staticmethod
    def key_for(
        queries: Sequence[Node], screen: Screen, config: GenerationConfig
    ) -> str:
        return f"{log_key(queries)}:{context_key(screen, config)}"

    def get(self, key: str) -> Optional[GeneratedInterface]:
        """Exact lookup; refreshes recency and counts hit/miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry.result

    def peek(self, key: str) -> Optional[GeneratedInterface]:
        """Exact lookup that touches neither recency nor hit/miss stats.

        The snapshot capture path: reading a session's current entry to
        serialize it must not perturb the LRU order or the counters the
        serving metrics report.
        """
        with self._lock:
            entry = self._entries.get(key)
            return entry.result if entry is not None else None

    def put(
        self,
        key: str,
        result: GeneratedInterface,
        query_keys: Sequence[str] = (),
        ctx: str = "",
    ) -> None:
        """Insert (or refresh) an entry, evicting LRU entries beyond capacity."""
        with self._lock:
            self._entries[key] = _Entry(
                context_key=ctx, query_keys=tuple(query_keys), result=result
            )
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def longest_prefix(
        self, query_keys: Sequence[str], ctx: str
    ) -> Optional[PrefixMatch]:
        """Best cached entry whose log is a proper prefix of ``query_keys``.

        Linear scan over entries (capacity is small by design); ties on
        match length break toward the most recently used entry.  Does not
        refresh recency — a prefix match feeds a warm start, and the new
        log's own entry will be inserted right after.
        """
        request = tuple(query_keys)
        best: Optional[PrefixMatch] = None
        with self._lock:
            for entry in reversed(self._entries.values()):
                if entry.context_key != ctx or not entry.query_keys:
                    continue
                n = len(entry.query_keys)
                if n >= len(request):
                    continue
                if entry.query_keys == request[:n]:
                    if best is None or n > best.matched:
                        best = PrefixMatch(result=entry.result, matched=n)
        if best is not None:
            self.stats.prefix_hits += 1
        return best

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
