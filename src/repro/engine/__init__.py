"""repro.engine — the session-oriented front door.

One :class:`Engine` owns the rule engine, parse caches, interface
cache, warm-start state, and worker pool, and exposes the three verbs
of the serving story::

    from repro.engine import Engine

    engine = Engine()
    report = engine.generate(log)              # one-shot (cache-aware)

    session = engine.session("analyst-42")     # long-lived handle
    session.append("select objid from stars where u between 0 and 30")
    report = session.interface()               # incremental + warm-started
    print(report.ascii_art, report.to_dict()["provenance"])

    reports = engine.generate_batch([log_a, log_b])   # process-pool fan-out

    scheduler = engine.scheduler()             # many sessions, sliced in turn
    scheduler.submit("analyst-1", [log_a[:5], log_a[5:]])
    scheduler.submit("analyst-2", [log_b])
    tickets = scheduler.run()                  # round-robin, warm-started

Every verb returns a :class:`GenerationReport` — the uniform
JSON-serializable envelope (scheduler deliveries add scheduling
provenance).  Strategies and workloads are resolved through the
pluggable registries in :mod:`repro.registry`.
"""

from ..registry import (
    StrategySpec,
    WorkloadSpec,
    get_workload,
    register_strategy,
    register_workload,
    strategy_names,
    strategy_spec,
    workload_names,
    workload_spec,
)
from .core import Engine, LogSession
from .report import REPORT_SCHEMA_VERSION, SOURCES, GenerationReport
from .scheduler import POLICIES, TICKET_STATES, SessionScheduler, SessionTicket

__all__ = [
    "Engine",
    "LogSession",
    "GenerationReport",
    "REPORT_SCHEMA_VERSION",
    "SOURCES",
    "SessionScheduler",
    "SessionTicket",
    "POLICIES",
    "TICKET_STATES",
    "StrategySpec",
    "WorkloadSpec",
    "register_strategy",
    "register_workload",
    "strategy_spec",
    "strategy_names",
    "workload_spec",
    "workload_names",
    "get_workload",
]
