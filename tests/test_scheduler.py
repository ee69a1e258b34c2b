"""Tests for resumable search tasks and the multi-session scheduler.

Two contracts:

* **Slicing parity** — every strategy stepped in arbitrary slices equals
  its monolithic run bit-for-bit at equal totals (seed-fixed).
* **Scheduler parity** — sessions served through the slicing scheduler
  (either policy) produce exactly the reports a serial engine produces,
  while fairness, accounting and failure handling behave as declared.
"""

import threading

import pytest

from repro import Engine, GenerationConfig, generate_interface
from repro.cost import BoundedLRU, CostModel
from repro.core import open_search_task, prepare_search
from repro.difftree import initial_difftree
from repro.engine import POLICIES
from repro.layout import Screen
from repro.search import (
    BeamSearchTask,
    ExhaustiveSearchTask,
    GreedySearchTask,
    RandomSearchTask,
    TaskClock,
)
from repro.sqlast import parse
from repro.workloads import get_workload, listing1_sql, sdss_session_sql

#: Iteration-capped, seed-fixed: equal work regardless of wall clock.
DETERMINISTIC = GenerationConfig(
    time_budget_s=0.0, max_iterations=6, seed=0, final_cap=200
)
#: Tiny config for scheduler-mechanics tests (search quality irrelevant).
TINY = GenerationConfig(time_budget_s=0.0, max_iterations=2, seed=0, final_cap=50)

LOG = listing1_sql(1, 3)


def _open_task(config, log=LOG):
    asts, screen, model, initial, engine = prepare_search(log, config=config)
    return open_search_task(model, initial, engine, config)


class TestTaskClock:
    def test_pause_stops_accumulation(self):
        clock = TaskClock()
        clock.pause()
        frozen = clock.elapsed
        assert clock.elapsed == frozen
        clock.resume()
        assert clock.running

    def test_restart_zeroes(self):
        clock = TaskClock()
        clock.pause()
        clock.restart()
        assert clock.running
        assert clock.elapsed < 1.0


class TestSlicingParity:
    def test_mcts_sliced_equals_monolithic(self):
        """step(1)+step(2)+... == one monolithic run at equal iterations."""
        mono = generate_interface(LOG, config=DETERMINISTIC)

        task = _open_task(DETERMINISTIC)
        slices = []
        while not task.done:
            slices.append(task.step(n_iterations=2))
        result = task.result()

        assert result.best_cost == mono.cost
        assert result.stats.iterations == mono.search.stats.iterations
        assert result.stats.states_evaluated == mono.search.stats.states_evaluated
        assert result.best_state.canonical_key == mono.best.tree.canonical_key
        assert sum(slices) == DETERMINISTIC.max_iterations
        assert task.slices >= 3

    def test_mcts_one_iteration_slices(self):
        mono = generate_interface(LOG, config=DETERMINISTIC)
        task = _open_task(DETERMINISTIC)
        while not task.done:
            task.step(n_iterations=1)
        result = task.result()
        assert result.best_cost == mono.cost
        assert result.best_state.canonical_key == mono.best.tree.canonical_key

    def test_step_after_done_is_noop(self):
        task = _open_task(DETERMINISTIC)
        task.step()
        assert task.done
        assert task.step() == 0
        assert task.step(n_iterations=5) == 0

    def test_result_before_done_returns_incumbent(self):
        task = _open_task(DETERMINISTIC)
        task.step(n_iterations=1)
        assert not task.done
        early = task.result()
        assert early.best_cost > 0

    @pytest.mark.parametrize(
        "factory",
        [
            lambda model, initial, engine: RandomSearchTask(
                model, initial, engine=engine, time_budget_s=60.0,
                max_walk_steps=12, seed=3,
            ),
            lambda model, initial, engine: GreedySearchTask(
                model, initial, engine=engine, time_budget_s=60.0, seed=3
            ),
            lambda model, initial, engine: BeamSearchTask(
                model, initial, engine=engine, time_budget_s=60.0,
                beam_width=3, max_depth=4, seed=3,
            ),
            lambda model, initial, engine: ExhaustiveSearchTask(
                model, initial, engine=engine, max_states=60, seed=3
            ),
        ],
        ids=["random", "greedy", "beam", "exhaustive"],
    )
    def test_baseline_sliced_equals_batched(self, factory):
        """One-unit slices equal one big slice at equal unit totals."""
        asts, screen, model, initial, engine = prepare_search(
            LOG, config=DETERMINISTIC
        )
        _, _, model2, initial2, engine2 = prepare_search(
            LOG, config=DETERMINISTIC
        )

        sliced = factory(model, initial, engine)
        units = 0
        while units < 6 and not sliced.done:
            units += sliced.step(n_iterations=1)
        batched = factory(model2, initial2, engine2)
        batched_units = batched.step(n_iterations=units)

        assert batched_units == units
        a, b = sliced.result(), batched.result()
        assert a.best_cost == b.best_cost
        assert a.best_state.canonical_key == b.best_state.canonical_key
        assert a.stats.states_evaluated == b.stats.states_evaluated

    def test_exhaustive_task_matches_function(self):
        asts, screen, model, initial, engine = prepare_search(
            LOG, config=DETERMINISTIC
        )
        mono = ExhaustiveSearchTask(
            model, initial, engine=engine, max_states=60
        ).run()
        _, _, model2, initial2, engine2 = prepare_search(
            LOG, config=DETERMINISTIC
        )
        task = ExhaustiveSearchTask(model2, initial2, engine=engine2, max_states=60)
        while not task.done:
            task.step(n_iterations=3)
        sliced = task.result()
        assert sliced.best_cost == mono.best_cost
        assert sliced.stats.iterations == mono.stats.iterations

    def test_incremental_open_search_sliced_parity(self):
        """Warm-started session searches slice identically too."""
        log = sdss_session_sql(6, seed=0)
        mono_engine = Engine(config=DETERMINISTIC)
        mono_session = mono_engine.session("a")
        sliced_engine = Engine(config=DETERMINISTIC)
        sliced_service = sliced_engine._incremental_service()

        for start in (0, 3):
            chunk = log[start : start + 3]
            mono_session.append(*chunk)
            mono_report = mono_session.interface()

            sliced_service.append(*chunk, session_id="a")
            pending = sliced_service.open_search("a")
            assert pending.cached is None
            while not pending.task.done:
                pending.task.step(n_iterations=2)
            sliced_result = pending.finish()

            assert sliced_result.cost == mono_report.cost
            assert (
                sliced_result.difftree.canonical_key
                == mono_report.difftree.canonical_key
            )

    # -- monolithic vs sliced, full result ------------------------------------

    def _assert_identical(self, mono, sliced):
        assert mono.best_cost == sliced.best_cost
        assert mono.best.tree.canonical_key == sliced.best.tree.canonical_key
        assert mono.stats == sliced.stats
        assert [c for _, c in mono.history] == [c for _, c in sliced.history]

    def _drive(self, make_task, total=None):
        mono, sliced = make_task(), make_task()
        if total is None:  # self-terminating strategy
            mono.step()
            while not sliced.done:
                sliced.step(n_iterations=3)
        else:
            assert mono.step(n_iterations=total) == total
            run = 0
            while run < total:
                run += sliced.step(n_iterations=2)
        self._assert_identical(mono.result(), sliced.result())

    def _fixture(self, n=2):
        # The model is built inside each task factory call: kernel
        # counters are cumulative per model, so sharing one would make
        # the second run's stats snapshot include the first run's work.
        queries = [parse(q) for q in sdss_session_sql(n, seed=5)]
        initial = initial_difftree(queries)
        return (lambda: CostModel(queries, Screen.wide())), initial

    def test_random_sliced_matches_monolithic(self):
        # Short walks: unbiased 200-step walks grow large states, and
        # slicing is exercised by the walk count, not the walk length.
        make_model, initial = self._fixture()
        self._drive(
            lambda: RandomSearchTask(
                make_model(),
                initial,
                time_budget_s=None,
                max_walk_steps=24,
                seed=3,
                final_cap=50,
            ),
            total=8,
        )

    def test_greedy_sliced_matches_monolithic(self):
        make_model, initial = self._fixture()
        self._drive(
            lambda: GreedySearchTask(
                make_model(), initial, time_budget_s=None, seed=3, final_cap=50
            )
        )

    def test_beam_sliced_matches_monolithic(self):
        make_model, initial = self._fixture()
        self._drive(
            lambda: BeamSearchTask(
                make_model(),
                initial,
                time_budget_s=None,
                beam_width=4,
                max_depth=6,
                seed=3,
                final_cap=50,
            )
        )

    def test_exhaustive_sliced_matches_monolithic(self):
        make_model, initial = self._fixture()
        self._drive(
            lambda: ExhaustiveSearchTask(
                make_model(), initial, max_states=120, seed=3, final_cap=50
            )
        )


class TestSchedulerMechanics:
    def _scripts(self, n, chunks=2, size=1):
        return {
            f"s{i}": [
                tuple(sdss_session_sql(chunks * size, seed=i)[c * size : (c + 1) * size])
                for c in range(chunks)
            ]
            for i in range(n)
        }

    def test_policies_exposed(self):
        assert POLICIES == ("round_robin", "fifo")

    def test_validation(self):
        engine = Engine(config=TINY)
        with pytest.raises(ValueError, match="policy"):
            engine.scheduler(policy="lifo")
        with pytest.raises(ValueError, match="slice_iterations"):
            engine.scheduler(slice_iterations=0)
        scheduler = engine.scheduler()
        with pytest.raises(ValueError, match="non-empty chunk"):
            scheduler.submit("a", [])
        scheduler.submit("a", [LOG])
        with pytest.raises(ValueError, match="unfinished ticket"):
            scheduler.submit("a", [LOG])

    def test_scheduler_requires_warm_capable_strategy(self):
        engine = Engine(config=GenerationConfig(strategy="random", time_budget_s=0.2))
        with pytest.raises(ValueError, match="needs the warm-starting 'mcts'"):
            engine.scheduler()

    def test_round_robin_drains_and_accounts(self):
        engine = Engine(config=TINY)
        scheduler = engine.scheduler(slice_iterations=1)
        for sid, chunks in self._scripts(3).items():
            scheduler.submit(sid, chunks)
        tickets = scheduler.run()
        assert [t.state for t in tickets] == ["done"] * 3
        for ticket in tickets:
            assert len(ticket.reports) == 2
            assert ticket.first_interface_s is not None
            assert ticket.iterations == 2 * TINY.max_iterations
            assert ticket.slices >= 2
            scheduling = ticket.reports[0].scheduling
            assert set(scheduling) == {
                "policy", "latency_s", "preemptions", "slices", "iterations"
            }
            assert scheduling["policy"] == "round_robin"
            assert scheduling["latency_s"] >= 0.0
            wire = ticket.reports[0].to_dict()
            assert wire["scheduling"]["policy"] == "round_robin"
            assert wire["session_id"] == ticket.session_id

    def test_fifo_serves_in_submission_order(self):
        engine = Engine(config=TINY)
        scheduler = engine.scheduler(policy="fifo")
        for sid, chunks in self._scripts(3).items():
            scheduler.submit(sid, chunks)
        tickets = scheduler.run()
        firsts = [t.first_interface_s for t in tickets]
        assert firsts == sorted(firsts)
        assert all(t.preemptions == 0 for t in tickets)

    def test_failed_chunk_leaves_log_unchanged(self):
        """A parse error mid-chunk must not leak a partial chunk into the
        session's append-only log (LogStream.append is atomic)."""
        engine = Engine(config=TINY)
        scheduler = engine.scheduler()
        good = sdss_session_sql(1, seed=0)[0]
        scheduler.submit("bad", [(good, "SELECT !!! garbage $$$")])
        (ticket,) = scheduler.run()
        assert ticket.state == "failed"
        assert ticket.error is not None
        assert len(engine.router.stream("bad")) == 0

    def test_cache_hit_delivered_without_search(self):
        engine = Engine(config=TINY)
        log = tuple(sdss_session_sql(2, seed=0))
        first = engine.scheduler()
        first.submit("warmup", [log])
        first.run()
        searches = engine.searches_run
        second = engine.scheduler()
        second.submit("repeat", [log])
        (ticket,) = second.run()
        assert ticket.state == "done"
        assert ticket.reports[0].source == "cache"
        assert engine.searches_run == searches

    def test_scheduler_matches_serial_engine(self):
        """Round-robin slicing must not change any session's results."""
        scripts = self._scripts(3, chunks=2)
        serial_engine = Engine(config=TINY)
        expected = {}
        for sid, chunks in scripts.items():
            session = serial_engine.session(sid)
            costs = []
            for chunk in chunks:
                session.append(*chunk)
                costs.append(session.interface().cost)
            expected[sid] = costs

        engine = Engine(config=TINY)
        scheduler = engine.scheduler(slice_iterations=1)
        for sid, chunks in scripts.items():
            scheduler.submit(sid, chunks)
        tickets = scheduler.run()
        for ticket in tickets:
            assert [r.cost for r in ticket.reports] == expected[ticket.session_id]

    def test_reports_carry_session_provenance(self):
        """A scheduled delivery reports what a session read of the same
        script reports: the carried tree's provenance and the ingest
        counters."""
        log = get_workload("sdss")(6, seed=0)
        chunks = [tuple(log[:4]), tuple(log[4:])]
        config = GenerationConfig(time_budget_s=0, max_iterations=2, seed=0)
        session = Engine(config=config).session("s")
        expected = []
        for chunk in chunks:
            session.append(*chunk)
            expected.append(session.interface())
        scheduler = Engine(config=config).scheduler(slice_iterations=1)
        scheduler.submit("s", chunks)
        (ticket,) = scheduler.run()
        assert [r.cost for r in ticket.reports] == [r.cost for r in expected]
        assert expected[0].carry is None and expected[1].carry is not None
        assert [r.carry for r in ticket.reports] == [r.carry for r in expected]
        assert [set(r.ingest_stats) for r in ticket.reports] == [
            set(r.ingest_stats) for r in expected
        ]
        assert all(r.ingest_stats for r in ticket.reports)


class TestObservedCohort:
    def test_observability_does_not_perturb_results(self):
        """An 8-session round-robin cohort with tracing + telemetry on
        must deliver bit-for-bit the disabled run's costs, and each
        report's trace must contain only its own session's spans."""
        from repro import obs

        scripts = {
            f"s{i}": [
                tuple(sdss_session_sql(2, seed=i)[:1]),
                tuple(sdss_session_sql(2, seed=i)[1:]),
            ]
            for i in range(8)
        }

        def run_cohort():
            engine = Engine(config=TINY)
            scheduler = engine.scheduler(slice_iterations=1)
            for sid, chunks in scripts.items():
                scheduler.submit(sid, chunks)
            return scheduler.run()

        obs.configure(enabled=False, telemetry=None)
        baseline = {
            t.session_id: [r.cost for r in t.reports] for t in run_cohort()
        }
        sink = obs.MemoryTelemetry()
        try:
            with obs.observed(True, telemetry=sink):
                tickets = run_cohort()
        finally:
            obs.configure(enabled=False, telemetry=None)

        assert all(t.state == "done" for t in tickets)
        for ticket in tickets:
            assert [r.cost for r in ticket.reports] == baseline[ticket.session_id]
            for report in ticket.reports:
                assert report.trace, "instrumented run must carry spans"
                for span in report.trace:
                    session = span.get("tags", {}).get("session")
                    if session is not None:
                        assert session == ticket.session_id
        # Telemetry carried one replayable record per delivered report.
        assert len(sink.of_type("report")) == sum(
            len(t.reports) for t in tickets
        )


class TestSessionEviction:
    def test_evicted_session_releases_warm_state(self):
        """Past max_sessions the LRU session's warm-start carry and log
        stream are dropped too — the regression was leaking
        IncrementalGenerator state for evicted handles."""
        engine = Engine(config=TINY, max_sessions=2)
        for i in range(3):
            session = engine.session(f"s{i}")
            session.append(*sdss_session_sql(1, seed=i))
            session.interface()
        service = engine._incremental
        assert "s0" not in engine._sessions
        assert "s0" not in service._sessions
        assert "s0" not in engine.router.sessions()
        # Survivors keep their carry.
        assert "s1" in service._sessions
        assert "s2" in service._sessions

    def test_lookup_refreshes_recency(self):
        engine = Engine(config=TINY, max_sessions=2)
        engine.session("a")
        engine.session("b")
        engine.session("a")  # refresh: 'b' is now the LRU entry
        engine.session("c")
        assert "b" not in engine._sessions
        assert "a" in engine._sessions and "c" in engine._sessions

    def test_use_through_retained_handle_refreshes_recency(self):
        """Appends/serves via a retained handle count as use — an
        actively-served session must not be evicted in favor of an idle
        one that was merely looked up later."""
        engine = Engine(config=TINY, max_sessions=2)
        active = engine.session("active")
        engine.session("idle")
        active.append(*sdss_session_sql(1, seed=0))  # touches 'active'
        engine.session("new")  # evicts 'idle', not 'active'
        assert "idle" not in engine._sessions
        assert "active" in engine._sessions
        assert active.log_length == 1

    def test_stale_handle_reregisters_within_bound(self):
        """A handle kept past its session's eviction re-registers the
        session when it writes or serves, so the router and the
        incremental service never hold more than max_sessions logs."""
        engine = Engine(config=TINY, max_sessions=1)
        stale = engine.session("a")
        stale.append(*sdss_session_sql(1, seed=0))
        stale.interface()
        engine.session("b")  # evicts 'a'
        stale.append(*sdss_session_sql(2, seed=0)[1:])
        assert stale.interface().log_size == 1
        for i, sid in enumerate(("c", "d"), start=1):
            handle = engine.session(sid)
            handle.append(*sdss_session_sql(1, seed=i))
            handle.interface()
        assert list(engine._sessions) == ["d"]
        assert engine.router.sessions() == ["d"]
        assert sorted(engine._incremental._sessions) == ["d"]

    def test_stale_handle_keeps_its_history(self):
        """A handle kept past its session's eviction registers itself:
        the registered handle is the kept one, and its history holds
        the reports served through it before and after the eviction."""
        engine = Engine(
            max_sessions=1,
            config=GenerationConfig(time_budget_s=0, max_iterations=1, seed=0),
        )
        queries = Engine.workload("sdss", 6, seed=0)
        a = engine.session("a")
        a.append(*queries[:2])
        a.interface()
        engine.session("b")  # evicts 'a' with its log
        a.append(*queries[2:4])
        a.interface()
        assert engine.session("a") is a
        engine.session("a").append(queries[4])
        engine.session("a").interface()
        assert [report.log_size for report in a.history()] == [2, 2, 3]

    def test_evicted_session_restarts_cleanly(self):
        engine = Engine(config=TINY, max_sessions=1)
        first = engine.session("a")
        first.append(*sdss_session_sql(1, seed=0))
        engine.session("b")  # evicts 'a'
        fresh = engine.session("a")  # evicts 'b', creates a fresh 'a'
        assert fresh.log_length == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="max_sessions"):
            Engine(config=TINY, max_sessions=0)

    def test_scheduled_sessions_obey_max_sessions(self):
        engine = Engine(config=TINY, max_sessions=2)
        scheduler = engine.scheduler(slice_iterations=1)
        for i in range(6):
            scheduler.submit(f"s{i}", [sdss_session_sql(1, seed=i)])
        tickets = scheduler.run()
        assert all(t.state == "done" for t in tickets)
        assert sorted(engine.router.sessions()) == ["s4", "s5"]
        assert sorted(engine._incremental._sessions) == ["s4", "s5"]

    def test_running_scripts_are_not_evicted(self):
        """Short scripts end (and register) while long ones still run;
        the long ones must keep their logs through every chunk, also
        when the caller holds a handle for one of them."""
        engine = Engine(config=TINY, max_sessions=1)
        engine.session("long0")
        scheduler = engine.scheduler(slice_iterations=1)
        short = {f"short{i}": [sdss_session_sql(1, seed=i)] for i in range(3)}
        long = {
            f"long{i}": [sdss_session_sql(2, seed=10 + i)[j:j + 1] for j in range(2)]
            for i in range(2)
        }
        for sid, chunks in {**long, **short}.items():
            scheduler.submit(sid, chunks)
        tickets = {t.session_id: t for t in scheduler.run()}
        assert all(t.state == "done" for t in tickets.values())
        for sid in long:
            assert [r.log_size for r in tickets[sid].reports] == [1, 2]
        assert len(engine.router.sessions()) == 1


class TestBoundedLRUThreadSafety:
    def test_concurrent_hammer_preserves_bound(self):
        cache = BoundedLRU(64)
        errors = []

        def hammer(worker: int) -> None:
            try:
                for i in range(2000):
                    key = (worker * 7 + i) % 200
                    cache[key] = i
                    cache.get((i * 13) % 200)
                    if i % 50 == 0:
                        len(cache), list(cache.items())
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(worker,)) for worker in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 64
