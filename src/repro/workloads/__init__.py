"""Evaluation workloads: the paper's SDSS log, TPC-H-style analytic
sessions, and synthetic generators.

:data:`WORKLOADS` names the log generators, and :func:`get_workload`
looks one up (as :meth:`repro.engine.Engine.workload` does).  The
growing-log session generators ``"sdss"`` and ``"tpch"`` return SQL
strings and take ``(num_queries, seed=...)``; they power the serving
benches.  The ``"synthetic.*"`` pattern logs return parsed ASTs and
power the scaling/ablation benches.
"""

from typing import Callable, Dict

from .sdss import LISTING1_SQL, listing1_queries, listing1_sql, sdss_session_sql
from .synthetic import (
    clause_toggle_log,
    mixed_session_log,
    predicate_add_log,
    projection_cycle_log,
    value_drift_log,
)
from .tpch import (
    PRICING_SUMMARY_SQL,
    pricing_summary_queries,
    pricing_summary_sql,
    tpch_session_queries,
    tpch_session_sql,
)

__all__ = [
    "LISTING1_SQL",
    "listing1_sql",
    "listing1_queries",
    "sdss_session_sql",
    "PRICING_SUMMARY_SQL",
    "pricing_summary_sql",
    "pricing_summary_queries",
    "tpch_session_sql",
    "tpch_session_queries",
    "value_drift_log",
    "clause_toggle_log",
    "predicate_add_log",
    "projection_cycle_log",
    "mixed_session_log",
    "WORKLOADS",
    "get_workload",
]

#: Workload name -> log generator.
WORKLOADS: Dict[str, Callable] = {
    "sdss": sdss_session_sql,
    "tpch": tpch_session_sql,
    "synthetic.value_drift": value_drift_log,
    "synthetic.clause_toggle": clause_toggle_log,
    "synthetic.predicate_add": predicate_add_log,
    "synthetic.projection_cycle": projection_cycle_log,
    "synthetic.mixed_session": mixed_session_log,
}


def get_workload(name: str) -> Callable:
    """The log generator named ``name``; raises listing the known names."""
    try:
        return WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r} (have: {', '.join(WORKLOADS)})"
        ) from None
