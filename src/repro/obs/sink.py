"""Durable telemetry sinks: the JSONL log and the in-memory buffer.

A sink is anything with ``write(record: dict)``.  Two implementations:

* :class:`TelemetryLog` — appends one compact JSON object per line to a
  file: every span and every delivered
  :class:`~repro.engine.GenerationReport` lands here in arrival order,
  and a ``report`` record's payload *is* ``report.to_dict()`` — reading
  the line back replays the identical envelope (the contract checked by
  ``benchmarks/bench_obs.py``).

* :class:`MemoryTelemetry` — an in-process list of records, for tests
  and short-lived introspection.

Writes are serialized under a lock and each record is dumped to a single
string before writing, so threads writing one log can never interleave
partial lines — every line of the log parses on its own.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict, List, Optional


class TelemetryLog:
    """Append-only JSONL telemetry writer.

    Args:
        path: file to append to (created if missing).
        flush_every: flush after this many records (1 = every record).
            The file is always flushed on :meth:`close` / context exit.
    """

    def __init__(self, path: str, flush_every: int = 64) -> None:
        if flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        self.path = str(path)
        self.flush_every = flush_every
        self.records_written = 0
        self._since_flush = 0
        self._lock = threading.Lock()
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")

    def write(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, separators=(",", ":"), sort_keys=True)
        with self._lock:
            if self._fh.closed:
                return
            self._fh.write(line + "\n")
            self.records_written += 1
            self._since_flush += 1
            if self._since_flush >= self.flush_every:
                self._fh.flush()
                self._since_flush = 0

    def flush(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.flush()
                self._since_flush = 0

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.flush()
                self._fh.close()

    def __enter__(self) -> "TelemetryLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class MemoryTelemetry:
    """An in-memory sink (``.records`` is the list, oldest first)."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self._lock = threading.Lock()

    def write(self, record: Dict[str, Any]) -> None:
        with self._lock:
            self.records.append(record)

    def flush(self) -> None:  # sink-protocol compatibility
        pass

    def close(self) -> None:
        pass

    def of_type(self, record_type: str) -> List[Dict[str, Any]]:
        """The recorded entries of one type (``"span"`` / ``"report"``)."""
        with self._lock:
            return [r for r in self.records if r.get("type") == record_type]


def read_telemetry(path: str, record_type: Optional[str] = None) -> List[Dict[str, Any]]:
    """Parse a JSONL telemetry file back into records (the replay reader).

    Args:
        path: the file written by :class:`TelemetryLog`.
        record_type: keep only records of this type (``None`` = all).
    """
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record_type is None or record.get("type") == record_type:
                records.append(record)
    return records
