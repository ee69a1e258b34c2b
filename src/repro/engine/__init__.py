"""repro.engine — the session-oriented front door.

One :class:`Engine` owns the session logs, interface cache and
warm-start state, and exposes the two verbs of the serving story::

    from repro.engine import Engine

    engine = Engine()
    report = engine.generate(log)              # one-shot (cache-aware)

    session = engine.session("analyst-42")     # long-lived handle
    session.append("select objid from stars where u between 0 and 30")
    report = session.interface()               # incremental + warm-started
    print(report.ascii_art, report.to_dict()["provenance"])

Every verb returns a :class:`GenerationReport` — the uniform
JSON-serializable envelope.  The search strategy is named by
``config.strategy`` (one of :data:`repro.core.STRATEGIES`); sessions
need ``"mcts"``.  Workload logs come from
:func:`repro.workloads.get_workload`.
"""

from .core import Engine, LogSession
from .report import REPORT_SCHEMA_VERSION, SOURCES, GenerationReport

__all__ = [
    "Engine",
    "LogSession",
    "GenerationReport",
    "REPORT_SCHEMA_VERSION",
    "SOURCES",
]
