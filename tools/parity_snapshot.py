"""Print a seed-fixed, iteration-capped snapshot of search outcomes.

Compares two commits for bit-identical behaviour: run it in both trees
and compare the outputs (or just the sha256 it prints on stderr).

    PYTHONPATH=src python tools/parity_snapshot.py > snapshot.json

At ``time_budget_s=0, max_iterations=4, seed=0`` it records the cost,
the difftree canonical key and the full ``SearchStats`` of

* ``Engine.generate`` on 12-query sdss and tpch logs, with the delivered
  widget tree's repr,
* a growing session on the same logs (four appends of three queries),
  with each delivered widget tree's repr,
* random, greedy, beam and exhaustive search opened through
  ``open_search_task`` on the Listing-1 log and stepped one unit at a
  time for four units (these need a wall-clock budget to be dispatched,
  so they get a generous one that never expires, and 24-step walks).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys

from repro import Engine, GenerationConfig
from repro.core import open_search_task, prepare_search
from repro.workloads import listing1_sql, sdss_session_sql, tpch_session_sql

CONFIG = GenerationConfig(time_budget_s=0, max_iterations=4, seed=0)


def _outcome(cost, tree, result) -> dict:
    return {
        "cost": repr(cost),
        "key": tree.canonical_key,
        "stats": dataclasses.asdict(result.stats),
    }


def snapshot() -> dict:
    out = {}
    for name, workload in (("sdss", sdss_session_sql), ("tpch", tpch_session_sql)):
        log = workload(12, seed=0)
        report = Engine(config=CONFIG).generate(log)
        out[f"{name}.generate"] = _outcome(
            report.cost, report.difftree, report.result.search
        )
        out[f"{name}.generate"]["widget_tree"] = repr(report.widget_tree)
        session = Engine(config=CONFIG).session("s")
        steps = []
        for start in range(0, 12, 3):
            session.append(*log[start : start + 3])
            report = session.interface()
            entry = _outcome(report.cost, report.difftree, report.result.search)
            entry["widget_tree"] = repr(report.widget_tree)
            steps.append(entry)
        out[f"{name}.session"] = steps

    for strategy in ("random", "greedy", "beam", "exhaustive"):
        config = dataclasses.replace(
            CONFIG, strategy=strategy, time_budget_s=600.0, max_walk_steps=24
        )
        _, _, model, initial, engine = prepare_search(listing1_sql(), config=config)
        task = open_search_task(model, initial, engine, config)
        units = 0
        while units < 4 and not task.done:
            units += task.step(n_iterations=1)
        result = task.result()
        entry = _outcome(result.best_cost, result.best_state, result)
        entry["units"] = units
        entry["history"] = [repr(cost) for _, cost in result.history]
        out[f"listing1.{strategy}"] = entry

    return out


def main() -> None:
    text = json.dumps(snapshot(), sort_keys=True)
    print(text)
    print("sha256", hashlib.sha256(text.encode()).hexdigest(), file=sys.stderr)


if __name__ == "__main__":
    main()
