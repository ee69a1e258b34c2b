"""Tests for the Engine facade, strategy and workload names, the
strategy constraints, early config validation, session eviction, and
the report envelope."""

import dataclasses
import json
import math
import threading

import pytest

from repro import (
    Engine,
    GenerationConfig,
    GenerationReport,
    IncrementalGenerator,
    Screen,
    generate_interface,
)
from repro.core import STRATEGIES, open_search_task, prepare_search
from repro.cost import CostModel, CostWeights
from repro.difftree import as_asts, expresses_all
from repro.search import (
    MCTS,
    BeamSearchTask,
    ExhaustiveSearchTask,
    GreedySearchTask,
    RandomSearchTask,
)
from repro.sqlast import parse
from repro.workloads import WORKLOADS, get_workload, listing1_sql, sdss_session_sql

#: A fast config for tests that exercise plumbing, not search quality.
FAST = GenerationConfig(time_budget_s=0.3, seed=0)

#: A deterministic config: iteration-capped, generous wall clock, so two
#: runs with the same seed do identical work regardless of machine load.
DETERMINISTIC = GenerationConfig(time_budget_s=30.0, max_iterations=2, seed=0)

#: Tiny config for session-mechanics tests (search quality irrelevant).
TINY = GenerationConfig(time_budget_s=0.0, max_iterations=2, seed=0, final_cap=50)


class TestStrategyRegistry:
    def test_builtins_registered(self):
        assert STRATEGIES == ("mcts", "random", "greedy", "beam", "exhaustive")

    def test_unknown_strategy_lists_known(self):
        with pytest.raises(ValueError, match="mcts"):
            GenerationConfig(strategy="simulated-annealing")

    def test_each_name_opens_its_task(self, fig1_queries):
        # Each name opens its own task class, built from the config's
        # settings; opening runs no search step.
        classes = (
            MCTS,
            RandomSearchTask,
            GreedySearchTask,
            BeamSearchTask,
            ExhaustiveSearchTask,
        )
        for name, cls in zip(STRATEGIES, classes, strict=True):
            config = GenerationConfig(
                strategy=name,
                time_budget_s=60.0,
                max_iterations=7,
                k_assignments=3,
                final_cap=90,
            )
            _, _, model, initial, rules = prepare_search(fig1_queries, config=config)
            task = open_search_task(model, initial, rules, config)
            assert task.strategy == name
            assert type(task) is cls
            assert task.max_iterations == 7
            assert task.final_cap == 90
            assert task.time_budget_s == (None if name == "exhaustive" else 60.0)
            assert task.evaluator.k_assignments == 3
            assert task.iterations == 0


class TestWorkloadRegistry:
    def test_builtins_registered(self):
        assert set(WORKLOADS) == {
            "sdss",
            "tpch",
            "synthetic.value_drift",
            "synthetic.clause_toggle",
            "synthetic.predicate_add",
            "synthetic.projection_cycle",
            "synthetic.mixed_session",
        }

    def test_factory_resolves(self):
        log = get_workload("sdss")(4, seed=0)
        assert len(log) == 4
        assert all(isinstance(sql, str) for sql in log)

    def test_unknown_workload_lists_known(self):
        with pytest.raises(ValueError, match="sdss"):
            get_workload("imdb")


class TestConfigValidation:
    def test_negative_time_budget(self):
        with pytest.raises(ValueError, match="time_budget_s"):
            GenerationConfig(time_budget_s=-0.5)

    def test_zero_k_assignments(self):
        with pytest.raises(ValueError, match="k_assignments"):
            GenerationConfig(k_assignments=0)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            GenerationConfig(strategy="anealing")

    def test_misspelled_exclude_rules(self):
        with pytest.raises(ValueError, match="exclude_rules"):
            GenerationConfig(exclude_rules=("Lift", "Disribute"))

    def test_negative_max_iterations(self):
        with pytest.raises(ValueError, match="max_iterations"):
            GenerationConfig(max_iterations=-1)

    def test_zero_final_cap(self):
        with pytest.raises(ValueError, match="final_cap"):
            GenerationConfig(final_cap=0)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("k_assignments", 2.0),
            ("max_walk_steps", 2.5),
            ("max_iterations", 2.5),
            ("max_iterations", True),
            ("seed", 1.5),
            ("seed", False),
            ("final_cap", 50.5),
            ("final_cap", "50"),
        ],
    )
    def test_integer_settings_must_be_ints(self, name, value):
        # A float count fails deep inside the search, or is served
        # silently; a bool is an int to Python but no count or seed.
        settings = {"time_budget_s": 0, "max_iterations": 2, name: value}
        with pytest.raises(ValueError, match=f"{name} must be an int"):
            GenerationConfig(**settings)

    def test_replace_revalidates(self):
        with pytest.raises(ValueError, match="time_budget_s"):
            dataclasses.replace(FAST, time_budget_s=-1.0)
        assert dataclasses.replace(FAST, seed=7).seed == 7

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_time_budget(self, value):
        # A NaN budget never compares as spent, so the search never stops.
        with pytest.raises(ValueError, match="time_budget_s"):
            GenerationConfig(strategy="random", time_budget_s=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_exploration_c(self, value):
        # A NaN UCT score never equals its heap entry: selection re-pushes
        # it forever.
        with pytest.raises(ValueError, match="exploration_c"):
            GenerationConfig(exploration_c=value, max_iterations=3)

    @pytest.mark.parametrize("term", ["m", "u", "steiner", "effort"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -0.5])
    def test_cost_weight_must_be_finite_and_non_negative(self, term, value):
        with pytest.raises(ValueError, match=f"weight {term} "):
            CostWeights(**{term: value})

    def test_zero_cost_weight_is_legal(self):
        assert CostWeights(u=0).u == 0


class TestCapabilityEnforcement:
    def test_incremental_requires_warm_capable_strategy(self):
        with pytest.raises(ValueError, match="needs the warm-starting 'mcts'"):
            IncrementalGenerator(config=GenerationConfig(strategy="beam"))

    def test_session_requires_warm_capable_strategy(self):
        engine = Engine(config=GenerationConfig(strategy="random", time_budget_s=0.2))
        with pytest.raises(ValueError, match="needs the warm-starting 'mcts'"):
            engine.session("a")

    def test_time_budget_required_when_declared(self):
        # A config that cannot stop fails at construction, so no session
        # can be built on it either.
        with pytest.raises(ValueError, match="stop condition"):
            GenerationConfig(time_budget_s=0.0, max_iterations=0)

    def test_iteration_cap_only_accepted_where_consumed(self):
        # MCTS consumes max_iterations: a zero budget with a cap is fine.
        capped = GenerationConfig(time_budget_s=0.0, max_iterations=1)
        result = generate_interface(listing1_sql(1, 2), config=capped)
        assert result.best.breakdown.feasible
        # The walk baselines ignore max_iterations — a zero budget would
        # silently evaluate only the initial state, so it must raise.
        with pytest.raises(ValueError, match="does not consume max_iterations"):
            GenerationConfig(strategy="random", time_budget_s=0.0, max_iterations=500)

    def test_exhaustive_runs_without_budget(self):
        config = GenerationConfig(strategy="exhaustive", time_budget_s=0.0)
        result = generate_interface(listing1_sql(1, 2), config=config)
        assert result.best.breakdown.feasible


class TestEngineParity:
    def test_generate_matches_legacy_exactly(self):
        """Seed-fixed, iteration-capped: Engine.generate and the legacy
        generate_interface must produce identical ascii art and cost."""
        log = listing1_sql(1, 4)
        legacy = generate_interface(log, config=DETERMINISTIC)
        report = Engine(config=DETERMINISTIC).generate(log)
        assert report.cost == legacy.cost
        assert report.ascii_art == legacy.ascii_art


class TestEngine:
    def test_one_shot_caches(self):
        engine = Engine(config=FAST)
        first = engine.generate(listing1_sql(1, 3))
        assert first.source == "search"
        assert engine.searches_run == 1
        again = engine.generate(listing1_sql(1, 3))
        assert again.source == "cache"
        assert again.result is first.result
        assert engine.searches_run == 1

    def test_session_flow(self):
        engine = Engine(config=FAST)
        session = engine.session("a")
        session.append(*listing1_sql(1, 3))
        assert session.log_length == 3
        first = session.interface()
        assert first.source == "search"
        assert first.session_id == "a"
        repeat = session.interface()
        assert repeat.source == "cache"
        assert repeat.result is first.result
        session.append(*listing1_sql(4, 5))
        warm = session.interface()
        assert warm.source == "search"
        assert warm.warm_states_seeded >= 1
        assert expresses_all(warm.difftree, as_asts(listing1_sql(1, 5)))
        assert [r.source for r in session.history()] == ["search", "cache", "search"]

    def test_session_handle_is_shared(self):
        # Handles are views over one record: they share one log and one
        # history.
        engine = Engine(config=FAST)
        first, second = engine.session("a"), engine.session("a")
        first.append(*listing1_sql(1, 2))
        assert second.log_length == 2
        report = second.interface()
        assert first.history() == second.history() == (report,)

    def test_sessions_isolated(self):
        engine = Engine(config=FAST)
        a = engine.session("a")
        b = engine.session("b")
        a.append(*listing1_sql(1, 2))
        b.append(*listing1_sql(3, 4))
        ra, rb = a.interface(), b.interface()
        assert expresses_all(ra.difftree, as_asts(listing1_sql(1, 2)))
        assert expresses_all(rb.difftree, as_asts(listing1_sql(3, 4)))

    def test_one_shot_result_feeds_session_cache(self):
        engine = Engine(config=FAST)
        log = listing1_sql(1, 3)
        engine.generate(log)
        session = engine.session("a")
        session.append(*log)
        report = session.interface()
        assert report.source == "cache"
        assert engine.searches_run == 1

    def test_drop_session(self):
        engine = Engine(config=FAST)
        session = engine.session("a")
        session.append(*listing1_sql(1, 2))
        session.interface()
        assert session.drop()
        assert not session.drop()
        # A dropped session reads as an empty log.
        assert session.log_length == 0

    def test_reads_do_not_create_sessions(self):
        engine = Engine(config=FAST, max_sessions=2)
        session = engine.session("a")
        session.append(*listing1_sql(1, 2))
        engine.drop_session("a")
        assert session.log_length == 0
        assert engine.sessions() == []
        # Only an append registers a session, within max_sessions.
        for sid in ("e", "f", "g"):
            engine.session(sid).append(listing1_sql()[0])
        assert sorted(engine.sessions()) == ["f", "g"]

    def test_empty_session_raises(self):
        engine = Engine(config=FAST)
        with pytest.raises(ValueError, match="empty"):
            engine.session("a").interface()

    def test_malformed_logs_fail_fast(self):
        # One SQL string is not a log: it must not be read one character
        # at a time and fail deep inside the parser.
        engine = Engine(config=FAST)
        with pytest.raises(TypeError, match="sequence of queries"):
            engine.generate("SELECT a FROM t")
        with pytest.raises(TypeError, match="sequence of queries"):
            as_asts("SELECT a FROM t")
        # An empty log is refused before any search machinery is built.
        with pytest.raises(ValueError, match="at least one input query"):
            engine.generate([])
        assert engine.searches_run == 0

    def test_workload_helper(self):
        log = Engine.workload("tpch", 3, seed=1)
        assert len(log) == 3

    def test_history_is_bounded(self):
        engine = Engine(config=FAST, max_history=2)
        session = engine.session("a")
        session.append(*listing1_sql(1, 2))
        first = session.interface()
        for _ in range(3):
            session.interface()  # cache hits, but each yields a report
        history = session.history()
        assert len(history) == 2
        assert first not in history

    def test_negative_max_history_rejected(self):
        with pytest.raises(ValueError, match="max_history"):
            Engine(max_history=-1)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("max_history", 2.5),
            ("max_history", "3"),
            ("max_history", True),
            ("max_sessions", 1.5),
            ("max_sessions", True),
            ("max_sessions", "3"),
        ],
    )
    def test_bounds_must_be_ints(self, name, value):
        # A float bound used to fail at the first session, inside
        # ``deque``, or to be served; a string failed at a comparison.
        with pytest.raises(ValueError, match=f"{name} must be an int"):
            Engine(config=FAST, **{name: value})

    def test_unbounded_is_legal(self):
        engine = Engine(config=FAST, max_history=None, max_sessions=None)
        engine.session("a").append(*listing1_sql(1, 2))
        assert engine.sessions() == ["a"]


class TestSessionEviction:
    def test_evicted_session_releases_warm_state(self):
        """Past max_sessions the LRU session's record — log, warm state
        and history — leaves the table; survivors keep theirs."""
        engine = Engine(config=TINY, max_sessions=2)
        for i in range(3):
            session = engine.session(f"s{i}")
            session.append(*sdss_session_sql(1, seed=i))
            session.interface()
        assert engine.router.touch("s0") is None
        assert engine.sessions() == ["s1", "s2"]
        for sid in ("s1", "s2"):
            record = engine.router.touch(sid)
            assert record.best is not None
            assert record.sequences
            assert len(record.history) == 1

    def test_lookup_evicts_nothing(self):
        """A lookup registers nothing and evicts nothing: an unused id
        must not push out a session that holds a log."""
        engine = Engine(config=TINY, max_sessions=1)
        a = engine.session("a")
        a.append(*sdss_session_sql(1, seed=0))
        engine.session("x")
        assert engine.sessions() == ["a"]
        assert a.log_length == 1

    def test_use_through_retained_handle_refreshes_recency(self):
        """Appends and serves through a retained handle count as use —
        an actively-served session must not be evicted in favor of an
        idle one that was written to later."""
        engine = Engine(config=TINY, max_sessions=2)
        active = engine.session("active")
        active.append(*sdss_session_sql(1, seed=0))
        engine.session("idle").append(*sdss_session_sql(1, seed=1))
        active.interface()  # a serve touches 'active'
        engine.session("new").append(*sdss_session_sql(1, seed=2))
        assert engine.sessions() == ["active", "new"]
        active.append(*sdss_session_sql(2, seed=0)[1:])  # an append too
        engine.session("newer").append(*sdss_session_sql(1, seed=3))
        assert engine.sessions() == ["active", "newer"]
        assert active.log_length == 2

    def test_evicted_session_restarts_cleanly(self):
        engine = Engine(config=TINY, max_sessions=1)
        first = engine.session("a")
        first.append(*sdss_session_sql(1, seed=0))
        first.interface()
        engine.session("b").append(*sdss_session_sql(1, seed=1))  # evicts 'a'
        assert first.log_length == 0
        assert first.history() == ()
        # A kept handle that writes again starts a fresh session.
        first.append(*sdss_session_sql(2, seed=0)[1:])
        assert engine.sessions() == ["a"]
        report = first.interface()
        assert report.log_size == 1
        assert report.warm_states_seeded == 0
        assert first.history() == (report,)

    def test_validation(self):
        with pytest.raises(ValueError, match="max_sessions"):
            Engine(config=TINY, max_sessions=0)


class TestConcurrentSessions:
    def test_threads_share_one_engine(self):
        """Four threads serve their own sessions through one bounded
        engine: each serve delivers an interface for exactly the log its
        session held (a suffix of what the thread sent: eviction
        restarts a log, retention drops its oldest queries), and the
        table never holds more than ``max_sessions``."""
        engine = Engine(config=TINY, max_sessions=2)
        errors, sizes, served = [], [], []

        def client(index):
            try:
                session = engine.session(f"t{index}")
                sent = []
                log = sdss_session_sql(6, seed=index)
                for start in range(0, 6, 2):
                    session.append(*log[start : start + 2])
                    sent.extend(as_asts(log[start : start + 2]))
                    if index % 2:
                        session.retain(last_n=3)
                    report = session.interface()
                    sizes.append(len(engine.sessions()))
                    served.append((report, sent[-report.log_size :]))
            except Exception as exc:  # reported below, with its thread
                errors.append((index, exc))

        threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert errors == []
        assert len(served) == 12
        assert max(sizes) <= 2
        for report, expected in served:
            assert list(report.result.queries) == expected
            assert expresses_all(report.difftree, expected)


class TestGenerationReport:
    def test_to_dict_is_json_serializable(self):
        report = Engine(config=FAST).generate(listing1_sql(1, 3))
        payload = report.to_dict()
        roundtrip = json.loads(json.dumps(payload))
        assert roundtrip["schema_version"] == 8
        assert "scheduling" not in roundtrip
        assert "snapshot" not in roundtrip["provenance"]
        assert roundtrip["source"] == "search"
        assert roundtrip["strategy"] == "mcts"
        assert roundtrip["log_size"] == 3
        assert roundtrip["feasible"] is True
        assert roundtrip["cost"] == pytest.approx(report.cost)
        assert roundtrip["ascii_art"] == report.ascii_art
        assert roundtrip["breakdown"]["m_cost"] >= 0
        assert roundtrip["search"]["stats"]["iterations"] >= 1
        assert roundtrip["provenance"]["cache"]["misses"] >= 1
        assert roundtrip["timings"]["total_s"] > 0
        assert roundtrip["screen"] == {"width": 1100.0, "height": 700.0}

    def test_session_search_s_is_the_search_elapsed(self):
        """A session search reports one number for its search time, as
        ``Engine.generate`` does: the delivered result's ``elapsed``."""
        log = get_workload("sdss")(6, seed=0)
        engine = Engine(
            config=GenerationConfig(time_budget_s=0, max_iterations=2, seed=0)
        )
        session = engine.session("s")
        for chunk in (log[:4], log[4:]):
            session.append(*chunk)
            report = session.interface()
            assert report.source == "search"
            assert report.timings["search_s"] == report.search.elapsed

    def test_invalid_source_rejected(self):
        report = Engine(config=FAST).generate(listing1_sql(1, 2))
        with pytest.raises(ValueError, match="source"):
            GenerationReport(result=report.result, source="oracle")

    def test_passthroughs_match_result(self):
        report = Engine(config=FAST).generate(listing1_sql(1, 2))
        assert report.cost == report.result.cost
        assert report.widget_tree is report.result.widget_tree
        assert "<html" in report.html().lower()


class TestScreenInKey:
    def test_different_screen_is_a_different_entry(self):
        log = listing1_sql(1, 3)
        wide = Engine(config=FAST, screen=Screen.wide())
        narrow = Engine(config=FAST, screen=Screen.narrow(), cache=wide.cache)
        wide.generate(log)
        assert narrow.generate(log).source == "search"


class TestSequenceKey:
    """A served report is right for the exact query sequence it was
    served for: ``C(W, Q)`` sums over consecutive pairs, so a log that
    repeats queries is a different log from its distinct set."""

    CONFIG = GenerationConfig(time_budget_s=0, max_iterations=2, seed=0)

    def _distinct(self, n):
        distinct = []
        for sql in Engine.workload("sdss", 12, seed=0):
            if sql not in distinct:
                distinct.append(sql)
        assert len(distinct) >= n
        return distinct[:n]

    def _rescore(self, engine, sqls, report):
        model = CostModel(
            [parse(sql) for sql in sqls], engine.screen, weights=engine.config.weights
        )
        return model.evaluate(report.difftree, report.widget_tree).total

    def test_repeated_log_is_served_for_its_own_sequence(self):
        log = self._distinct(4)
        engine = Engine(config=self.CONFIG)
        session = engine.session("s")
        session.append(*log)
        first = session.interface()
        assert first.source == "search"
        assert first.cost == self._rescore(engine, log, first)

        session.append(*log)
        second = session.interface()
        assert second.source == "search"
        assert second.log_size == session.log_length == 8
        assert second.cost == self._rescore(engine, log + log, second)

        fresh = Engine(config=self.CONFIG).generate(log + log)
        assert engine.generate(log + log).cost == fresh.cost
