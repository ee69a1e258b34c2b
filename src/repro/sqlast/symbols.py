"""Process-wide symbol interning: head tuples <-> dense integer ids.

The columnar difftree store (:mod:`repro.difftree.columnar`) encodes a
tree's per-node *head* — the ``(kind, label, value)`` triple of a difftree
node, or the ``(label, value)`` pair of an AST node — as one integer.

:class:`SymbolTable` is the bidirectional interner behind those ids.  Ids
are dense (0, 1, 2, ...) in first-seen order and never recycled, which
makes them valid array indexes into side tables and stable for the
lifetime of the process.  Two symbols are equal iff their ids are equal.

Ids are **process-local** (like ``DTNode.fingerprint``); the wire format
(:meth:`repro.difftree.columnar.ColumnarTree.to_payload`) therefore ships
the resolved symbols, not the ids, and re-interns on load.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Hashable, List, Tuple


class SymbolTable:
    """A thread-safe bidirectional ``symbol <-> dense int id`` interner.

    Symbols may be any hashable value (the columnar store uses tuples of
    strings/scalars).  Lookups of known symbols are lock-free dict reads;
    only first-sight insertion takes the lock.
    """

    __slots__ = ("_ids", "_symbols", "_lock", "__weakref__")

    def __init__(self) -> None:
        self._ids: Dict[Hashable, int] = {}
        self._symbols: List[Hashable] = []
        self._lock = threading.Lock()

    def id_of(self, symbol: Hashable) -> int:
        """The dense id of ``symbol``, interning it on first sight."""
        sid = self._ids.get(symbol)
        if sid is None:
            with self._lock:
                sid = self._ids.get(symbol)
                if sid is None:
                    sid = len(self._symbols)
                    self._symbols.append(symbol)
                    self._ids[symbol] = sid
        return sid

    def symbol_of(self, sid: int) -> Hashable:
        """The symbol behind a previously assigned id."""
        return self._symbols[sid]

    def __len__(self) -> int:
        return len(self._symbols)

    def __contains__(self, symbol: Hashable) -> bool:
        return symbol in self._ids

    def stats(self) -> Dict[str, int]:
        """Uniform snapshot for the observability registry."""
        return {"symbols": len(self._symbols)}


#: The process-wide interner every columnar encoding shares, so head ids
#: are comparable *between* trees.
SYMBOLS = SymbolTable()

# Absorb the table size into the observability registry (appears as
# ``sqlast.symbols.symbols`` in snapshots / Prometheus scrapes).
from ..obs import REGISTRY as _OBS_REGISTRY  # noqa: E402  (after SYMBOLS exists)

_OBS_REGISTRY.register_source("sqlast.symbols", SYMBOLS.stats)


def head_symbol(kind: str, label: Any, value: Any) -> int:
    """Intern a difftree head triple (the columnar ``head`` column unit)."""
    return SYMBOLS.id_of((kind, label, value))
