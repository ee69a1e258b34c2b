#!/usr/bin/env python
"""Lint rule: no new ad-hoc module-level counters outside ``repro.obs``.

PR 6 unified the stack's telemetry behind :mod:`repro.obs` — counters,
gauges, histograms, and absorbed snapshot sources all live in (or are
registered with) the process-wide registry.  This checker keeps the
unification from eroding: new instrumentation must go through
``repro.obs`` (a native metric, or a ``register_source`` snapshot of a
per-instance stats object), not reinvent module-level tallies.

Two patterns are flagged in ``src/repro`` outside ``repro/obs/``:

1. **Mutated module globals** — a function declaring ``global NAME``
   and augmenting it (``NAME += 1``).  Plain reassignment (a mode
   switch) is fine; accumulation is a counter.
2. **Module-level counter singletons** — a module-scope assignment
   instantiating a class whose name ends in ``Counter``/``Counters``
   / ``Stats``.  Per-instance stats dataclasses (``CacheStats`` on a
   cache, ``KernelStats`` on a model) are fine — they are absorbed via
   registry sources; a fresh *module-level* singleton is a parallel
   telemetry channel.

The allowlist pins the grandfathered singletons (``repro.memo.INGEST``,
itself registered as the ``ingest.*`` source, and the registered
per-module ``STATS`` records).  Exit code 1 on any new finding, and on
any allowlist entry that no longer matches a finding (a stale entry
would silently pre-approve a future counter of the same name) — wired
into the CI lint job.
"""

from __future__ import annotations

import ast
import pathlib
import sys
from typing import List, Tuple

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: (path relative to src/, global name) pairs allowed to remain.
ALLOWLIST = {
    ("repro/memo.py", "INGEST"),
    # Registered via register_source("search.carry", ...); plain-field
    # singleton because harvest/rebase/retention paths bump it per node.
    ("repro/search/carry.py", "STATS"),
}

#: Class-name suffixes that mark a counter-ish singleton.
COUNTER_SUFFIXES = ("Counter", "Counters", "Stats")


def _mutated_globals(tree: ast.AST) -> List[Tuple[str, int]]:
    """(name, line) of module globals augmented inside functions."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        declared = set()
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.Global):
                declared.update(stmt.names)
        if not declared:
            continue
        for stmt in ast.walk(node):
            if (
                isinstance(stmt, ast.AugAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id in declared
            ):
                found.append((stmt.target.id, stmt.lineno))
    return found


def _counter_singletons(tree: ast.AST) -> List[Tuple[str, int]]:
    """(name, line) of module-level ``NAME = SomethingCounter(...)``."""
    found = []
    for stmt in tree.body if isinstance(tree, ast.Module) else []:
        if not isinstance(stmt, ast.Assign) or not isinstance(stmt.value, ast.Call):
            continue
        func = stmt.value.func
        cls = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else ""
        )
        if not cls.endswith(COUNTER_SUFFIXES):
            continue
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                found.append((target.id, stmt.lineno))
    return found


def main() -> int:
    failures = []
    allowed = set()
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC.parent).as_posix()
        if rel.startswith("repro/obs/"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=rel)
        for name, line in _mutated_globals(tree) + _counter_singletons(tree):
            if (rel, name) in ALLOWLIST:
                allowed.add((rel, name))
                continue
            failures.append(f"{rel}:{line}: ad-hoc module-level counter {name!r}")
    stale = sorted(ALLOWLIST - allowed)
    if failures:
        print(
            "New module-level counters must go through repro.obs "
            "(REGISTRY.counter/histogram or register_source):",
            file=sys.stderr,
        )
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
    if stale:
        print("ALLOWLIST entries that match no finding (delete them):", file=sys.stderr)
        for rel, name in stale:
            print(f"  {rel}: {name!r}", file=sys.stderr)
    if failures or stale:
        return 1
    print(f"check_no_adhoc_counters: OK ({SRC})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
