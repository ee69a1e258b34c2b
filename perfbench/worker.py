"""One unit of a benchmark run, in a fresh interpreter.

``repro.memo`` and the intern tables are process-wide, so every unit (a
session, or one cold log) runs in its own interpreter: no unit warms
another's caches.  The unit is a closed loop with one client — the next
request goes out only after the previous interface arrived.

Usage (spawned by ``run.py``)::

    python3 perfbench/worker.py '<json unit spec>'
    python3 perfbench/worker.py setup

The unit prints one JSON line: request latencies, served costs, failure
counts, report counters and, when traced, the layer summary.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from check import check_catches_tampering, check_read, check_write  # noqa: E402

#: Seed-fixed, iteration-capped MCTS: the ROADMAP baseline.
ITERATIONS = 4
SESSION = "bench"

_clock = time.perf_counter


def probe() -> float:
    """Seconds a fixed pure-Python task takes now: a machine-speed probe.

    Small and allocation-heavy like a read (tuples, strings, dicts) and
    untouched by any change to the program, so a read's time over the
    probe's tracks the program while both move with the machine.
    """
    started = _clock()
    table = {}
    for i in range(3000):
        key = (i % 97, str(i))
        table[key] = [key, i * 0.5]
    sum(len(value[0][1]) for value in table.values())
    return _clock() - started


def _engine():
    import repro
    from repro import GenerationConfig
    from repro.engine import Engine

    # Refuse a ``repro`` installed elsewhere: the benchmark measures the
    # program in its own checkout.
    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(repro.__file__).resolve().parents:
        raise ImportError(f"repro imported from {repro.__file__}, not from {src}")
    return Engine(config=GenerationConfig(time_budget_s=0, max_iterations=ITERATIONS))


class Unit:
    """Times requests, checks every delivery and keeps the counters."""

    def __init__(self, engine, tracer=None) -> None:
        self.engine = engine
        self.tracer = tracer
        self.write_s: list = []
        self.read_s: list = []
        #: Machine-speed probe, taken before every read.
        self.probe_s: list = []
        self.costs: list = []
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.selftest = None
        self.stats: Counter = Counter()
        self.carry: Counter = Counter()
        self.sources: Counter = Counter()
        self._last = None  # (payload, report) of the last write

    def _serve(self, kind: str, request):
        """Run one request; returns (seconds, report, payload text)."""
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.request = self.attempted

        def timed():
            started = _clock()
            report = request()
            text = json.dumps(report.to_dict())
            return _clock() - started, report, text

        if tracer is None:
            return timed()
        return tracer.span(f"request.{kind}", timed)

    def _fail(self, problems) -> None:
        self.failed += 1
        if len(self.problems) < 8:
            self.problems.extend(problems)

    def write(self, request, expected_sql, timed: bool = True) -> None:
        try:
            seconds, report, text = self._serve("write", request)
        except Exception as exc:  # a failed request is counted, not fatal
            self._fail([f"write raised {exc!r}"])
            self._last = None
            return
        payload = json.loads(text)
        problems = check_write(payload, report, expected_sql, self.engine)
        if self.selftest is None and not problems:
            self.selftest = check_catches_tampering(
                payload, report, expected_sql, self.engine
            )
        if problems:
            self._fail(problems)
            self._last = None
            return
        self._last = (payload, report)
        self.sources[report.source] += 1
        if report.source == "search":
            self.stats.update(dataclasses.asdict(report.search.stats))
            if report.carry:
                self.carry.update(report.carry)
        if timed:
            self.write_s.append(seconds)
            self.costs.append(payload["cost"])

    def read(self, request) -> None:
        if self._last is None:
            self.attempted += 1
            self._fail(["read after a failed write"])
            return
        self.probe_s.append(probe())
        try:
            seconds, report, text = self._serve("read", request)
        except Exception as exc:
            self._fail([f"read raised {exc!r}"])
            return
        problems = check_read(json.loads(text), report, *self._last)
        if problems:
            self._fail(problems)
            return
        self.read_s.append(seconds)

    def reads(self, session, expected_sql, count: int) -> None:
        """Re-serve the unchanged log, alternating session and one-shot.

        With ``session=None`` every read is a one-shot ``Engine.generate``,
        which leaves the session's warm state alone (a session read that
        hits the cache drops the elite states the next write would seed).
        """
        engine = self.engine
        for i in range(count):
            if session is not None and i % 2 == 0:
                self.read(session.interface)
            else:
                self.read(lambda: engine.generate(expected_sql))


def sdss_grow(unit: Unit, spec: dict) -> dict:
    from inputs import stream

    fill = spec["fill"]
    queries, draws, dropped = stream(
        "sdss", spec["queries"], spec["seed"], fill, spec["fill_seed"]
    )
    session = unit.engine.session(SESSION)
    expected: list = list(queries[:fill])

    def load():
        session.append(*expected)
        return session.interface()

    unit.write(load, list(expected), timed=False)
    for i in range(fill, len(queries), 2):
        batch = queries[i : i + 2]
        expected.extend(batch)

        def request(batch=batch):
            session.append(*batch)
            return session.interface()

        unit.write(request, list(expected))
        unit.reads(None, expected, spec["reads"])
    return {"draws": draws, "dropped": dropped}


def tpch_window(unit: Unit, spec: dict) -> dict:
    from inputs import stream

    window = spec["window"]
    queries, draws, dropped = stream(
        "tpch", window + spec["writes"], spec["seed"], window, spec["fill_seed"]
    )
    session = unit.engine.session(SESSION)
    expected = queries[:window]

    def fill():
        session.append(*expected)
        return session.interface()

    unit.write(fill, expected, timed=False)
    for sql in queries[window:]:
        expected = (expected + [sql])[-window:]

        def request(sql=sql):
            session.append(sql)
            session.retain(last_n=window)
            return session.interface()

        unit.write(request, expected)
        unit.reads(session, expected, spec["reads"])
    return {"draws": draws, "dropped": dropped}


def cold_generate(unit: Unit, spec: dict) -> dict:
    from inputs import stream
    from repro.workloads import listing1_sql, pricing_summary_sql

    source = spec["log"]
    draws = dropped = 0
    if source == "listing1":
        log = listing1_sql()
    elif source == "pricing-summary":
        log = pricing_summary_sql()
    else:
        log, draws, dropped = stream(source, spec["queries"], spec["seed"])
    engine = unit.engine
    unit.write(lambda: engine.generate(log), log)
    unit.reads(None, log, spec["reads"])
    return {"draws": draws, "dropped": dropped}


UNITS = {"sdss-grow": sdss_grow, "tpch-window": tpch_window, "cold-generate": cold_generate}


def run_unit(spec: dict) -> dict:
    engine = _engine()
    tracer = None
    if spec.get("trace"):
        from layers import Tracer, install

        tracer = Tracer()
        install(tracer)
    unit = Unit(engine, tracer)
    inputs = UNITS[spec["workload"]](unit, spec)
    if tracer is not None:
        tracer.stop_gc()
        if spec.get("spans"):
            tracer.write(spec["spans"])
    return {
        "write_s": unit.write_s,
        "read_s": unit.read_s,
        "probe_s": unit.probe_s,
        "costs": unit.costs,
        "attempted": unit.attempted,
        "failed": unit.failed,
        "problems": unit.problems,
        "selftest": bool(unit.selftest),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "inputs": inputs,
        "stats": dict(unit.stats),
        "carry": dict(unit.carry),
        "sources": dict(unit.sources),
        "cache": engine.cache_stats,
        "trace": tracer.summary() if tracer is not None else None,
    }


def main() -> None:
    if sys.argv[1] == "setup":
        # Fresh interpreter -> ``import repro``, Engine and session ready.
        _engine().session(SESSION)
        print("ready", flush=True)
        return
    print(json.dumps(run_unit(json.loads(sys.argv[1]))), flush=True)


if __name__ == "__main__":
    main()
