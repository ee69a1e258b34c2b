"""Tests for the repro.obs observability subsystem (PR 6).

Three contracts:

* **Unification** — counters, gauges, bounded histograms, and the
  absorbed ad-hoc sources (memo tables, caches, ingest/kernel counters)
  all surface through one registry snapshot under stable dotted names.
* **Attribution** — spans collected while producing a report belong to
  exactly that report, including when one thread serves many sessions
  in turn (the lossless / non-interleaved guarantee).
* **Replay** — every Engine verb's telemetry ``report`` record equals
  ``report.to_dict()`` byte-for-byte, and the JSONL log parses line by
  line even when written from concurrent threads.
"""

import gc
import json
import threading

import pytest

from repro import Engine, GenerationConfig, obs
from repro.engine.report import REPORT_SCHEMA_VERSION, TIMING_PHASES
from repro.memo import BoundedLRU
from repro.obs import (
    MemoryTelemetry,
    MetricsRegistry,
    TelemetryLog,
    read_telemetry,
)
from repro.workloads import listing1_sql, sdss_session_sql

TINY = GenerationConfig(time_budget_s=0.0, max_iterations=2, seed=0, final_cap=50)

LOG = listing1_sql(1, 3)


@pytest.fixture(autouse=True)
def _obs_off_between_tests():
    """Every test starts and ends disabled with no sink attached."""
    obs.configure(enabled=False, telemetry=None)
    yield
    obs.configure(enabled=False, telemetry=None)


class TestMetricsRegistry:
    def test_counter_gauge_histogram_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("a.hits").inc()
        reg.counter("a.hits").inc(2)
        reg.gauge("a.depth").set(7)
        for v in range(100):
            reg.histogram("a.lat").observe(float(v))
        snap = reg.snapshot()
        assert snap["a.hits"] == 3
        assert snap["a.depth"] == 7
        assert snap["a.lat.count"] == 100
        assert snap["a.lat.min"] == 0.0
        assert snap["a.lat.max"] == 99.0
        assert snap["a.lat.p50"] == pytest.approx(49.0, abs=2.0)
        assert snap["a.lat.p95"] == pytest.approx(94.0, abs=2.0)
        assert snap["a.lat.p99"] == pytest.approx(98.0, abs=2.0)

    def test_get_or_create_is_stable_and_type_checked(self):
        reg = MetricsRegistry()
        c = reg.counter("x.n")
        assert reg.counter("x.n") is c
        with pytest.raises(TypeError):
            reg.gauge("x.n")

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        for bad in ("", "Upper.case", "spaces in", "trailing.", ".leading"):
            with pytest.raises(ValueError):
                reg.counter(bad)

    def test_histogram_reservoir_is_bounded(self):
        reg = MetricsRegistry()
        h = reg.histogram("b.lat", reservoir_size=16)
        for v in range(1000):
            h.observe(float(v))
        snap = h.snapshot()
        assert snap["count"] == 1000  # exact even past the reservoir
        assert snap["max"] == 999.0
        assert snap["p50"] >= 900.0  # reservoir keeps the recent tail

    def test_prometheus_text_exposition(self):
        reg = MetricsRegistry()
        reg.counter("serve.hits").inc(5)
        reg.histogram("span.engine.generate").observe(0.5)
        text = reg.prometheus_text()
        assert "# TYPE serve_hits counter" in text
        assert "serve_hits 5" in text
        assert "span_engine_generate_count 1" in text

    def test_reset_keeps_sources(self):
        reg = MetricsRegistry()
        reg.counter("x.n").inc()
        reg.register_source("src", lambda: {"v": 1})
        reg.reset()
        snap = reg.snapshot()
        assert "x.n" not in snap
        assert snap["src.v"] == 1


class TestAbsorbedSources:
    def test_bounded_lru_registers_and_reports_uniformly(self):
        lru = BoundedLRU(2, name="test_obs.lru")
        lru["a"] = 1
        lru.get("a")
        lru.get("zzz")
        lru["b"] = 2
        lru["c"] = 3  # evicts "a"
        snap = obs.snapshot()
        stats = {
            k.rsplit(".", 1)[-1]: v
            for k, v in snap.items()
            if k.startswith("cache.test_obs.lru.")
        }
        assert stats == {
            "hits": 1,
            "misses": 1,
            "evictions": 1,
            "entries": 2,
            "capacity": 2,
        }

    def test_builtin_memo_tables_present_in_snapshot(self):
        # An engine an earlier test left in a reference cycle still holds
        # the "serve.cache" name until the collector runs, so this
        # engine's cache would register as "#2" and the plain name would
        # vanish if that collection happened mid-test.
        gc.collect()
        engine = Engine(config=TINY)  # kept alive: its cache is a weak source
        engine.generate(LOG)
        snap = obs.snapshot()
        for name in (
            "cache.sqlast.parse.hits",
            "cache.difftree.anti_unify.hits",
            "ingest.parses",
            "ingest.parse_memo_hits",
            "serve.cache.hits",
        ):
            assert name in snap, f"missing {name}"
        assert not any(name.startswith("serve.router") for name in snap)

    def test_live_cost_model_caches_registered(self):
        """Per-instance caches appear while their owner lives and vanish
        with it (weak sources — registration cannot leak models)."""
        from repro.core import prepare_search

        asts, screen, model, initial, rules = prepare_search(LOG, config=TINY)
        snap = obs.snapshot()
        assert any(k.startswith("cache.cost.kernels") for k in snap)
        del model
        snap = obs.snapshot()
        assert not any(k.startswith("cache.cost.kernels") for k in snap)

    def test_dead_instance_sources_are_pruned(self):
        before = {n for n in obs.snapshot() if n.startswith("cache.test_obs.dead")}
        assert not before
        lru = BoundedLRU(4, name="test_obs.dead")
        assert any(n.startswith("cache.test_obs.dead") for n in obs.snapshot())
        del lru
        assert not any(n.startswith("cache.test_obs.dead") for n in obs.snapshot())

    def test_name_collisions_get_suffixes(self):
        a = BoundedLRU(4, name="test_obs.dup")
        b = BoundedLRU(4, name="test_obs.dup")
        names = {n for n in obs.snapshot() if n.startswith("cache.test_obs.dup")}
        assert any(".hits" in n and "#2" not in n for n in names)
        assert any("#2" in n for n in names)
        del a, b


class TestTracer:
    def test_disabled_trace_is_shared_noop(self):
        assert obs.trace("x") is obs.trace("y")

    def test_enabled_spans_collect_and_measure(self):
        obs.configure(enabled=True)
        with obs.collecting() as spans:
            with obs.trace("unit.outer", k="v"):
                with obs.trace("unit.inner"):
                    pass
        assert [s["name"] for s in spans] == ["unit.inner", "unit.outer"]
        assert spans[1]["tags"] == {"k": "v"}
        assert all(s["duration_s"] >= 0.0 for s in spans)
        snap = obs.snapshot()
        assert snap["span.unit.inner.count"] >= 1

    def test_collectors_nest_without_stealing(self):
        obs.configure(enabled=True)
        with obs.collecting() as outer:
            with obs.collecting() as inner:
                with obs.trace("unit.nested"):
                    pass
        assert len(outer) == 1 and len(inner) == 1
        assert outer[0] is inner[0]

    def test_collectors_are_thread_local(self):
        obs.configure(enabled=True)
        leaked = []
        done = threading.Event()
        with obs.collecting(leaked):

            def other():
                with obs.trace("unit.other_thread"):
                    pass
                done.set()

            t = threading.Thread(target=other)
            t.start()
            t.join()
        assert done.is_set()
        assert leaked == []


class TestSinks:
    def test_telemetry_log_roundtrip(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with TelemetryLog(path, flush_every=1) as log:
            log.write({"type": "span", "name": "a"})
            log.write({"type": "report", "verb": "generate"})
        records = read_telemetry(path)
        assert [r["type"] for r in records] == ["span", "report"]
        assert read_telemetry(path, record_type="report")[0]["verb"] == "generate"

    def test_configure_with_path_owns_and_closes_sink(self, tmp_path):
        path = str(tmp_path / "owned.jsonl")
        obs.configure(enabled=True, telemetry=path)
        sink = obs.telemetry_sink()
        assert isinstance(sink, TelemetryLog)
        with obs.trace("unit.owned"):
            pass
        obs.configure(telemetry=None)  # detaching closes the owned file
        assert sink._fh.closed
        assert read_telemetry(path, record_type="span")[0]["name"] == "unit.owned"

    def test_concurrent_jsonl_lines_all_parse(self, tmp_path):
        """Threads writing one file: every line is valid JSON (single-
        string dump + single locked write — no interleaving)."""
        path = str(tmp_path / "threads.jsonl")
        payload = Engine(config=TINY).generate(LOG).to_dict()
        threads, per_thread = 4, 25
        with TelemetryLog(path, flush_every=1) as log:

            def writer(worker: int) -> None:
                for seq in range(per_thread):
                    log.write(
                        {"type": "report", "worker": worker, "seq": seq,
                         "report": payload}
                    )

            pool = [
                threading.Thread(target=writer, args=(worker,))
                for worker in range(threads)
            ]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
                assert not thread.is_alive()
        records = read_telemetry(path, record_type="report")
        assert len(records) == threads * per_thread
        for worker in range(threads):
            mine = [r for r in records if r["worker"] == worker]
            assert [r["seq"] for r in mine] == list(range(per_thread))
        assert all(r["report"] == payload for r in records)

    def test_observed_restores_prior_state(self):
        sink = MemoryTelemetry()
        assert not obs.enabled()
        with obs.observed(True, telemetry=sink):
            assert obs.enabled()
            with obs.trace("unit.observed"):
                pass
        assert not obs.enabled()
        assert obs.telemetry_sink() is None
        assert [r["name"] for r in sink.of_type("span")] == ["unit.observed"]


class TestReportIntegration:
    def test_schema_has_trace_and_phase_timings(self):
        report = Engine(config=TINY).generate(LOG)
        payload = report.to_dict()
        assert payload["schema_version"] == REPORT_SCHEMA_VERSION == 8
        assert payload["trace"] == []  # disabled -> no spans, key present
        for phase in TIMING_PHASES:
            assert phase in payload["timings"]

    def test_generate_trace_and_replay_record(self):
        sink = MemoryTelemetry()
        with obs.observed(True, telemetry=sink):
            report = Engine(config=TINY).generate(LOG)
        names = [s["name"] for s in report.trace]
        assert "engine.generate" in names
        assert any(n.startswith("search.step") for n in names)
        timings = report.timings
        assert timings["parse_s"] > 0.0
        assert timings["search_s"] > 0.0
        records = sink.of_type("report")
        assert len(records) == 1
        assert records[0]["verb"] == "generate"
        assert records[0]["report"] == report.to_dict()

    def test_session_interface_trace_and_phases(self):
        sink = MemoryTelemetry()
        with obs.observed(True, telemetry=sink):
            engine = Engine(config=TINY)
            session = engine.session("obs-test")
            session.append(*LOG)
            report = session.interface()
        names = [s["name"] for s in report.trace]
        for expected in (
            "engine.session.interface",
            "serve.open_search",
            "search.step",
            "serve.finish",
        ):
            assert expected in names, f"missing span {expected} in {names}"
        assert report.timings["search_s"] > 0.0
        record = sink.of_type("report")[-1]
        assert record["verb"] == "session.interface"
        assert record["report"] == report.to_dict()

    def test_cache_hit_report_emitted_with_zero_search(self):
        sink = MemoryTelemetry()
        engine = Engine(config=TINY)
        engine.generate(LOG)  # populate the cache while disabled
        with obs.observed(True, telemetry=sink):
            report = engine.generate(LOG)
        assert report.source == "cache"
        assert report.timings["search_s"] == 0.0
        assert sink.of_type("report")[0]["report"]["source"] == "cache"

    def test_search_metrics_absorbed_after_run(self):
        obs.reset_metrics()
        with obs.observed(True):
            Engine(config=TINY).generate(LOG)
        snap = obs.snapshot()
        assert snap["search.runs"] >= 1
        assert snap["search.iterations"] >= 1
        assert snap["cost.kernel.full_evals"] >= 1
        assert snap["search.elapsed_s.count"] >= 1

    def test_enabled_vs_disabled_costs_identical(self):
        cold = Engine(config=TINY).generate(LOG)
        with obs.observed(True):
            warm = Engine(config=TINY).generate(LOG)
        assert warm.cost == cold.cost
        assert warm.difftree.canonical_key == cold.difftree.canonical_key


def _scripts(n):
    """``n`` sessions, each a script of two one-query appends."""
    return {
        f"s{i}": [(query,) for query in sdss_session_sql(2, seed=i)]
        for i in range(n)
    }


def _serve_in_turn(scripts):
    """Serve the scripts on one engine in turn: each round, every session
    appends its next chunk and is served before the next one's turn.
    Returns each session's reports in delivery order."""
    engine = Engine(config=TINY)
    reports = {sid: [] for sid in scripts}
    for turn in range(2):
        for sid, chunks in scripts.items():
            session = engine.session(sid)
            session.append(*chunks[turn])
            reports[sid].append(session.interface())
    return reports


class TestInterleavedSessions:
    def test_observability_does_not_perturb_results(self):
        """Eight sessions served in turn with tracing + telemetry on
        deliver bit-for-bit the disabled run's costs, and each report's
        trace holds only its own session's spans."""
        scripts = _scripts(8)
        baseline = _serve_in_turn(scripts)
        sink = MemoryTelemetry()
        with obs.observed(True, telemetry=sink):
            served = _serve_in_turn(scripts)
        for sid, reports in served.items():
            assert [r.cost for r in reports] == [r.cost for r in baseline[sid]]
            for report in reports:
                assert report.trace, "instrumented run must carry spans"
                for span in report.trace:
                    session = span.get("tags", {}).get("session")
                    if session is not None:
                        assert session == sid
        # Telemetry carried one replayable record per delivered report.
        assert len(sink.of_type("report")) == sum(map(len, served.values()))

    def test_interleaved_spans_lossless_and_attributed(self):
        """Sessions served in turn on one thread: every delivered report
        carries exactly its own session's spans — no losses, none from
        another session's serve."""
        with obs.observed(True):
            served = _serve_in_turn(_scripts(6))
        for sid, reports in served.items():
            assert len(reports) == 2
            for report in reports:
                names = [s["name"] for s in report.trace]
                # Attribution: every tagged span names this session only.
                for span in report.trace:
                    session = span.get("tags", {}).get("session")
                    if session is not None:
                        assert session == sid
                # Lossless: one open + one finish per delivered report.
                assert names.count("serve.open_search") == 1
                assert names.count("serve.finish") == 1

    def test_interleaved_replay_records_match_reports(self):
        sink = MemoryTelemetry()
        with obs.observed(True, telemetry=sink):
            served = _serve_in_turn(_scripts(4))
        expected = [
            json.dumps(r.to_dict(), sort_keys=True)
            for reports in served.values()
            for r in reports
        ]
        recorded = [
            json.dumps(rec["report"], sort_keys=True)
            for rec in sink.of_type("report")
        ]
        assert sorted(recorded) == sorted(expected)
