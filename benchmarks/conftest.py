"""Shared benchmark helpers: table printing and common setups.

Each benchmark regenerates one artifact of the paper's evaluation, named
in its module docstring.  Benches print the same rows/series the paper
reports; pytest-benchmark records the wall-clock of the core operation.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import pytest


def print_table(title: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Print an aligned results table (the bench's paper-style output)."""
    rows = [tuple(str(c) for c in row) for row in rows]
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(h.ljust(w) for h, w in zip(header, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


class _Printer:
    """Table/text printer that bypasses pytest's output capture, so the
    paper-style result tables land in the terminal (and any tee'd log)
    even on passing runs."""

    def __init__(self, capsys) -> None:
        self._capsys = capsys

    def __call__(self, title, header, rows) -> None:
        with self._capsys.disabled():
            print_table(title, header, rows)

    def text(self, body: str) -> None:
        with self._capsys.disabled():
            print(body)


@pytest.fixture
def table_printer(capsys):
    return _Printer(capsys)
