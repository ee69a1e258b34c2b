"""Tests for the serving layer: streams, cache, incremental generation,
and warm-started search."""

import pytest

from repro import Engine, GenerationConfig, Screen, generate_interface
from repro.cost import CostModel
from repro.difftree import (
    as_asts,
    expresses_all,
    extend_difftree,
    graft,
    initial_difftree,
    wrap_ast,
)
from repro.memo import INGEST
from repro.rules import default_engine
from repro.search import MCTS
from repro.serve import (
    InterfaceCache,
    IncrementalGenerator,
    LogStream,
    SessionRouter,
    context_key,
)
from repro.sqlast import SqlError, parse
from repro.workloads import get_workload, listing1_sql, sdss_session_sql

#: A fast config for tests that exercise plumbing, not search quality.
FAST = GenerationConfig(time_budget_s=0.3, seed=0)


def unique_sql(n):
    """A query text no other test parses (``parse``'s memo is process-wide)."""
    return f"select objid from stars where u < {n}.0625"


class TestLogStream:
    def test_append_returns_length(self):
        stream = LogStream()
        assert len(stream) == 0
        assert stream.append(listing1_sql()[0]) == 1
        assert stream.append(*listing1_sql(1, 2)) == 3
        assert len(stream) == 3

    def test_parse_once(self):
        stream = LogStream()
        sql = unique_sql(7301)
        parses, hits = INGEST.parses, INGEST.parse_memo_hits
        stream.append(sql, sql, sql)
        assert INGEST.parses - parses == 1
        assert INGEST.parse_memo_hits - hits == 2
        assert len(stream) == 3
        assert len(set(map(id, stream.asts()))) == 1

    def test_streams_share_one_parse(self):
        # parse's memo is the one parse cache: a text parsed for one
        # stream is not parsed again for another.
        a, b = LogStream(), LogStream()
        sql = unique_sql(7302)
        parses = INGEST.parses
        a.append(sql)
        b.append(sql)
        assert INGEST.parses - parses == 1
        assert a.ast(0) is b.ast(0)

    def test_ast_append(self):
        stream = LogStream()
        ast = parse(listing1_sql()[0])
        stream.append(ast)
        assert stream.asts() == (ast,)

    def test_query_keys_match_content(self):
        stream = LogStream()
        stream.append(*listing1_sql(1, 3))
        keys = stream.query_keys()
        assert len(keys) == 3
        assert keys[0] == wrap_ast(parse(listing1_sql()[0])).canonical_key

    def test_rejects_garbage(self):
        with pytest.raises(TypeError):
            LogStream().append(42)

    def test_failed_append_leaves_log_unchanged(self):
        """A parse error mid-batch commits none of the batch, so a
        session's log never holds a partial append."""
        engine = Engine()
        with pytest.raises(SqlError):
            engine.session("bad").append(listing1_sql()[0], "SELECT !!! garbage $$$")
        assert len(engine.router.stream("bad")) == 0
        assert engine.router.sessions() == []


class TestSessionRouter:
    def test_sessions_isolated(self):
        router = SessionRouter()
        router.append("a", listing1_sql()[0])
        router.append("b", *listing1_sql(1, 2))
        assert len(router.stream("a")) == 1
        assert len(router.stream("b")) == 2

    def test_sessions_share_one_parse(self):
        router = SessionRouter()
        sql = unique_sql(7303)
        parses = INGEST.parses
        router.append("a", sql)
        router.append("b", sql)
        assert INGEST.parses - parses == 1
        assert router.stream("a").ast(0) is router.stream("b").ast(0)

    def test_drop(self):
        router = SessionRouter()
        router.append("a", listing1_sql()[0])
        assert router.drop("a")
        assert not router.drop("a")
        assert len(router.stream("a")) == 0

    def test_reads_do_not_register_sessions(self):
        router = SessionRouter()
        assert len(router.stream("ghost")) == 0
        assert router.remove("ghost", [0]) == ()
        assert router.retain("ghost", last_n=1) == ()
        assert router.sessions() == []
        router.append("real", listing1_sql()[0])
        assert router.sessions() == ["real"]

    def test_failed_first_append_registers_nothing(self):
        router = SessionRouter()
        with pytest.raises(TypeError):
            router.append("bad", 42)
        assert router.sessions() == []


class TestInterfaceCache:
    def _result(self, n):
        return generate_interface(listing1_sql(1, n), config=FAST)

    def test_hit_miss_stats(self):
        cache = InterfaceCache(capacity=4)
        result = self._result(2)
        key = InterfaceCache.key_for(result.queries, result.screen, FAST)
        assert cache.get(key) is None
        cache.put(key, result)
        assert cache.get(key) is result
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_reordered_log_keys_a_different_entry(self):
        """A reordered log has other consecutive pairs, hence another
        cost: it must not hit the entry served for the original order."""
        cache = InterfaceCache()
        queries = as_asts(listing1_sql(1, 3))
        key_fwd = InterfaceCache.key_for(queries, Screen.wide(), FAST)
        key_rev = InterfaceCache.key_for(list(reversed(queries)), Screen.wide(), FAST)
        assert key_fwd != key_rev
        cache.put(key_fwd, self._result(2))
        assert cache.get(key_rev) is None

    def test_screen_and_config_in_key(self):
        queries = as_asts(listing1_sql(1, 3))
        wide = InterfaceCache.key_for(queries, Screen.wide(), FAST)
        narrow = InterfaceCache.key_for(queries, Screen.narrow(), FAST)
        other = InterfaceCache.key_for(
            queries, Screen.wide(), GenerationConfig(time_budget_s=9.0)
        )
        assert len({wide, narrow, other}) == 3

    def test_lru_eviction(self):
        cache = InterfaceCache(capacity=2)
        result = self._result(2)
        cache.put("k1", result)
        cache.put("k2", result)
        cache.get("k1")  # refresh k1 -> k2 is now LRU
        cache.put("k3", result)
        assert cache.stats.evictions == 1
        assert cache.get("k2") is None
        assert cache.get("k1") is result
        assert cache.get("k3") is result

    def test_longest_prefix(self):
        cache = InterfaceCache()
        ctx = "ctx"
        short = self._result(2)
        longer = self._result(4)
        keys6 = tuple(f"q{i}" for i in range(6))
        cache.put("short", short, query_keys=keys6[:2], ctx=ctx)
        cache.put("longer", longer, query_keys=keys6[:4], ctx=ctx)
        match = cache.longest_prefix(keys6, ctx)
        assert match is not None
        assert match.result is longer
        assert match.matched == 4
        assert cache.stats.prefix_hits == 1

    def test_prefix_requires_matching_context(self):
        cache = InterfaceCache()
        cache.put("k", self._result(2), query_keys=("a", "b"), ctx="ctx1")
        assert cache.longest_prefix(("a", "b", "c"), "ctx2") is None

    def test_prefix_must_be_proper(self):
        cache = InterfaceCache()
        cache.put("k", self._result(2), query_keys=("a", "b"), ctx="ctx")
        assert cache.longest_prefix(("a", "b"), "ctx") is None
        assert cache.longest_prefix(("a", "x", "c"), "ctx") is None

    def test_context_key_is_deterministic(self):
        assert context_key(Screen.wide(), FAST) == context_key(Screen.wide(), FAST)
        assert context_key(Screen.wide(), FAST) != context_key(Screen.narrow(), FAST)


class TestGraftExtension:
    def test_extension_expresses_everything(self):
        log = sdss_session_sql(12, seed=3)
        result = generate_interface(log[:6], config=FAST)
        extended = extend_difftree(result.difftree, log[6:])
        assert expresses_all(extended, as_asts(log))

    def test_graft_extends_any_domain_in_place(self):
        log = ["select objid from stars where u < 5",
               "select objid from stars where u < 7"]
        base = initial_difftree(as_asts(log))
        # First graft merges into one alternative, creating a deep ANY
        # over the differing literal (+2 nodes: ANY + NumExpr)...
        merged = graft(base, wrap_ast(parse("select objid from stars where u < 9")))
        assert merged.size == base.size + 2
        # ...the next literal then lands in that existing ANY domain
        # (+1 node), not as a whole-query alternative.
        again = graft(merged, wrap_ast(parse("select objid from stars where u < 11")))
        assert again.size == merged.size + 1
        assert expresses_all(
            again,
            as_asts(log + ["select objid from stars where u < 9",
                           "select objid from stars where u < 11"]),
        )

    def test_duplicate_append_returns_same_tree(self):
        log = listing1_sql(1, 4)
        result = generate_interface(log, config=FAST)
        assert extend_difftree(result.difftree, log) is result.difftree


class TestWarmStartedSearch:
    def test_warm_state_seeds_incumbent(self):
        queries = as_asts(listing1_sql(1, 6))
        model = CostModel(queries, Screen.wide())
        initial = initial_difftree(queries)
        # A known-good state: a prior (longer) search's winner.
        prior = MCTS(
            CostModel(queries, Screen.wide()),
            default_engine(),
            GenerationConfig(time_budget_s=1.5, seed=0),
        ).open(initial).run()
        warm = MCTS(
            model, default_engine(), GenerationConfig(time_budget_s=0.2, seed=1)
        ).open(initial, warm_states=[prior.best_state]).run()
        assert warm.stats.warm_states_seeded == 1
        # The seeded incumbent is a floor: the tiny-budget warm run can
        # never end worse than the seed it was given.
        assert warm.best_cost <= prior.best_cost + 1e-9

    def test_injected_node_table_resumes_search(self):
        """A later search over the same log can continue from a prior
        instance's transposition table: known states are reused and
        their unexpanded frontier re-enters selection."""
        queries = as_asts(listing1_sql(1, 4))
        initial = initial_difftree(queries)
        first = MCTS(
            CostModel(queries, Screen.wide()),
            default_engine(),
            GenerationConfig(time_budget_s=0.4, seed=0),
        )
        first.open(initial).run()
        table_size = len(first.nodes)
        assert table_size > 1

        resumed = MCTS(
            CostModel(queries, Screen.wide()),
            default_engine(),
            GenerationConfig(time_budget_s=0.4, seed=1),
            node_table=first.nodes,
        )
        result = resumed.open(initial).run()
        assert resumed.nodes is first.nodes
        assert len(resumed.nodes) >= table_size
        assert result.best.breakdown.feasible

    def test_frontier_stats_recorded(self):
        queries = as_asts(listing1_sql(1, 3))
        result = MCTS(
            CostModel(queries, Screen.wide()),
            default_engine(),
            GenerationConfig(time_budget_s=0.5, seed=0),
        ).open(initial_difftree(queries)).run()
        assert result.stats.frontier_peak >= 1


class TestIncrementalGenerator:
    def test_cache_hit_runs_zero_search(self):
        svc = IncrementalGenerator(config=FAST)
        svc.append(*listing1_sql(1, 4))
        first = svc.generate()
        searches = svc.searches_run
        iterations = first.search.stats.iterations
        again = svc.generate()
        assert again is first
        assert svc.searches_run == searches
        assert again.search.stats.iterations == iterations
        assert svc.cache.stats.hits == 1

    def test_incremental_appends_express_full_log(self):
        log = sdss_session_sql(12, seed=1)
        svc = IncrementalGenerator(config=FAST)
        for step in range(0, 12, 4):
            svc.append(*log[step : step + 4])
            result = svc.generate()
            assert expresses_all(result.difftree, as_asts(log[: step + 4]))
        assert svc.searches_run == 3

    def test_warm_beats_cold_at_equal_iteration_budget(self):
        """The acceptance contract, deterministically: equal per-step
        iteration caps (generous wall-clock), warm final <= cold final."""
        log = sdss_session_sql(16, seed=0)
        config = GenerationConfig(time_budget_s=30.0, max_iterations=2, seed=0)
        svc = IncrementalGenerator(config=config)
        warm = cold = None
        for step in range(0, 16, 4):
            svc.append(*log[step : step + 4])
            warm = svc.generate()
            cold = generate_interface(log[: step + 4], config=config)
        assert warm.cost <= cold.cost + 1e-9

    def test_sessions_are_independent(self):
        svc = IncrementalGenerator(config=FAST)
        svc.append(*listing1_sql(1, 3), session_id="a")
        svc.append(*listing1_sql(4, 6), session_id="b")
        ra = svc.generate("a")
        rb = svc.generate("b")
        assert expresses_all(ra.difftree, as_asts(listing1_sql(1, 3)))
        assert expresses_all(rb.difftree, as_asts(listing1_sql(4, 6)))

    def test_prefix_warm_start_from_cache(self):
        log = listing1_sql(1, 6)
        svc = IncrementalGenerator(config=FAST)
        svc.append(*log[:4], session_id="a")
        svc.generate("a")
        # A fresh session replays the same prefix plus new queries: no
        # session state, but the cache's prefix entry feeds the warm start.
        svc.append(*log, session_id="b")
        result = svc.generate("b")
        assert svc.cache.stats.prefix_hits == 1
        assert result.search.stats.warm_states_seeded >= 1
        assert expresses_all(result.difftree, as_asts(log))

    @pytest.mark.parametrize("workload", ["sdss", "tpch"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cache_hit_read_leaves_next_write_unchanged(self, workload, seed):
        # A read between two appends re-serves the cached interface; the
        # warm state (best + elites) the next append seeds stays as it was.
        log = get_workload(workload)(8, seed=seed)
        config = GenerationConfig(time_budget_s=0, max_iterations=4, seed=seed)

        def second_append(read):
            engine = Engine(config=config)
            session = engine.session("s")
            session.append(*log[:6])
            session.interface()
            if read:
                assert session.interface().source == "cache"
                assert engine._incremental._sessions["s"].elite
            session.append(*log[6:])
            return session.interface()

        plain, after_read = second_append(False), second_append(True)
        assert after_read.search.stats == plain.search.stats
        assert after_read.cost == plain.cost
        assert after_read.difftree.canonical_key == plain.difftree.canonical_key

    def test_empty_session_raises(self):
        with pytest.raises(ValueError):
            IncrementalGenerator(config=FAST).generate()

    def test_non_mcts_strategy_rejected(self):
        with pytest.raises(ValueError):
            IncrementalGenerator(
                config=GenerationConfig(strategy="random")
            )

