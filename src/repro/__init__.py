"""repro — reproduction of *Monte Carlo Tree Search for Generating
Interactive Data Analysis Interfaces* (Chen & Wu, 2020).

Given a SQL query log, synthesize an interactive analysis interface:
a hierarchical layout of widgets (dropdowns, sliders, buttons, toggles,
tabs, adders) that can express every query in the log, selected by MCTS
over *difftree* states under a usability cost model.

The primary entry point is the session-oriented :class:`Engine`
(:mod:`repro.engine`)::

    from repro import Engine

    engine = Engine()
    session = engine.session()
    session.append(
        "select top 10 objid from stars where u between 0 and 30",
        "select top 100 objid from stars where u between 5 and 25",
    )
    report = session.interface()      # cold search
    print(report.ascii_art)

    session.append("select top 10 objid from galaxies where g between 1 and 9")
    report = session.interface()      # warm-started incremental search
    print(report.to_dict()["provenance"])

:func:`generate_interface` is the uncached form of ``Engine.generate``.
The :mod:`repro.serve` classes are the parts the Engine is built from:
the session table, the interface cache, and the warm-started search
over a session's log.
"""

from . import obs
from .core import (
    GeneratedInterface,
    GenerationConfig,
    generate_interface,
)
from .engine import Engine, GenerationReport, LogSession
from .layout import Screen
from .serve import (
    IncrementalGenerator,
    InterfaceCache,
    LogStream,
    SessionRouter,
)

__version__ = "1.2.0"

__all__ = [
    "Engine",
    "LogSession",
    "GenerationReport",
    "generate_interface",
    "GenerationConfig",
    "GeneratedInterface",
    "Screen",
    "IncrementalGenerator",
    "InterfaceCache",
    "LogStream",
    "SessionRouter",
    "obs",
    "__version__",
]
