"""Delivery check: every served interface against a spec outside the server.

The spec is the benchmark's own record of the log it sent — the queries
appended, in order, minus any a retention window dropped.  A write's
delivered difftree and widget tree are re-scored with a fresh
:class:`~repro.cost.CostModel` over that log; the served payload must
report the same cost, feasibility and log length, and the difftree must
express every query.  A read must return the last write's interface.
All of this runs outside the timed region.
"""

from __future__ import annotations

import math
from typing import List, Sequence


def check_write(payload: dict, report, expected_sql: Sequence[str], engine) -> List[str]:
    """Problems with one write's delivery (empty when it is correct)."""
    from repro.cost import CostModel
    from repro.sqlast import parse

    problems = []
    if payload["log_size"] != len(expected_sql):
        problems.append(
            f"log_size {payload['log_size']} != expected {len(expected_sql)}"
        )
    model = CostModel(
        [parse(sql) for sql in expected_sql],
        engine.screen,
        weights=engine.config.weights,
    )
    if model.assignments(report.difftree) is None:
        problems.append("difftree does not express every query of the log")
    rescored = model.evaluate(report.difftree, report.widget_tree)
    if not math.isclose(payload["cost"], rescored.total, rel_tol=1e-9, abs_tol=1e-9):
        problems.append(f"cost {payload['cost']!r} != re-scored {rescored.total!r}")
    if payload["feasible"] != rescored.feasible:
        problems.append(
            f"feasible {payload['feasible']} != re-scored {rescored.feasible}"
        )
    return problems


#: Payload fields a read must share with the write it re-serves.
READ_FIELDS = ("log_size", "cost", "feasible", "ascii_art", "breakdown")


def check_read(payload: dict, report, last_payload: dict, last_report) -> List[str]:
    """Problems with one read (it must re-serve the last write's interface)."""
    problems = [
        f"read {name} differs from the last write"
        for name in READ_FIELDS
        if payload[name] != last_payload[name]
    ]
    if report.difftree.canonical_key != last_report.difftree.canonical_key:
        problems.append("read difftree differs from the last write")
    return problems


def check_catches_tampering(
    payload: dict, report, expected_sql: Sequence[str], engine
) -> bool:
    """Self-test: a tampered cost or log length must fail the check."""
    tampered_cost = dict(payload, cost=payload["cost"] + 1.0)
    tampered_size = dict(payload, log_size=payload["log_size"] + 1)
    return all(
        check_write(tampered, report, expected_sql, engine)
        for tampered in (tampered_cost, tampered_size)
    )
