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
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence

from ..core import GeneratedInterface, GenerationConfig
from ..difftree import wrap_ast
from ..layout import Screen
from ..sqlast import Node


@dataclass
class CacheStats:
    """Hit/miss/eviction counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0


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
        # A bool is an int to Python but no count.
        if (
            not isinstance(capacity, int)
            or isinstance(capacity, bool)
            or capacity < 1
        ):
            raise ValueError(f"capacity must be an int >= 1, got {capacity!r}")
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, GeneratedInterface]" = OrderedDict()
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
            result = self._entries.get(key)
            if result is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return result

    def put(self, key: str, result: GeneratedInterface) -> None:
        """Insert (or refresh) an entry, evicting LRU entries beyond capacity."""
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
