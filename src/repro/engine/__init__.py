"""repro.engine — the session-oriented front door.

One :class:`Engine` owns the session logs, interface cache and
warm-start state, and exposes the three verbs of the serving story::

    from repro.engine import Engine

    engine = Engine()
    report = engine.generate(log)              # one-shot (cache-aware)

    session = engine.session("analyst-42")     # long-lived handle
    session.append("select objid from stars where u between 0 and 30")
    report = session.interface()               # incremental + warm-started
    print(report.ascii_art, report.to_dict()["provenance"])

    scheduler = engine.scheduler()             # many sessions, sliced in turn
    scheduler.submit("analyst-1", [log_a[:5], log_a[5:]])
    scheduler.submit("analyst-2", [log_b])
    tickets = scheduler.run()                  # round-robin, warm-started

Every verb returns a :class:`GenerationReport` — the uniform
JSON-serializable envelope (scheduler deliveries add scheduling
provenance).  The search strategy is named by ``config.strategy`` (one
of :data:`repro.core.STRATEGIES`); sessions and the scheduler need
``"mcts"``.  Workload logs come from :func:`repro.workloads.get_workload`.
"""

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
]
