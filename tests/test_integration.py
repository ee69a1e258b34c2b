"""End-to-end integration tests spanning every layer of the library."""

from repro import GenerationConfig, Screen, generate_interface
from repro.datagen import make_sdss_database
from repro.difftree import expresses_all
from repro.sqlast import parse
from repro.vis import render_chart
from repro.workloads import listing1_queries, listing1_sql, mixed_session_log


class TestEndToEnd:
    def test_sdss_pipeline_wide(self):
        """Log in → interface out → every log query replayable → charts."""
        result = generate_interface(
            listing1_sql(),
            screen=Screen.wide(),
            config=GenerationConfig(time_budget_s=3.0, seed=13),
        )
        assert result.best.breakdown.feasible
        assert expresses_all(result.difftree, result.queries)

        db = make_sdss_database(rows_per_table=60, seed=5)
        session = result.session(db)
        for query in listing1_queries():
            session.load_query(query)
            rows = session.run()
            spec = session.chart()
            assert render_chart(spec, rows).strip()

    def test_generated_interface_generalizes(self):
        """The difftree usually expresses queries *not* in the log."""
        result = generate_interface(
            listing1_sql(6, 8),
            config=GenerationConfig(time_budget_s=2.0, seed=2),
        )
        # Same structure, new TOP/table combination not in the log.
        novel = parse(
            "select top 10 objid from stars where u between 0 and 30 "
            "and g between 5 and 25 and r between 2 and 28 and i between 1 and 29"
        )
        from repro.difftree import expresses

        assert expresses(result.difftree, novel)

    def test_widget_interactions_drive_execution(self):
        result = generate_interface(
            listing1_sql(6, 8),
            config=GenerationConfig(time_budget_s=2.0, seed=3),
        )
        db = make_sdss_database(rows_per_table=80, seed=1)
        session = result.session(db)
        baseline_sql = session.current_sql
        changed = False
        for widget in session.widgets():
            if widget.domain and widget.domain.kind in ("numeric", "string", "subtree"):
                for index in range(len(widget.domain.labels)):
                    session.set_choice(widget.choice_path, index)
                    session.run()  # every option executes
                    if session.current_sql != baseline_sql:
                        changed = True
        assert changed

    def test_mixed_log_all_strategies_express_inputs(self):
        queries = mixed_session_log(num_queries=8, seed=6)
        for strategy in ("mcts", "greedy"):
            result = generate_interface(
                queries,
                config=GenerationConfig(
                    strategy=strategy, time_budget_s=1.5, seed=1
                ),
            )
            assert expresses_all(result.difftree, queries)
            assert result.best.breakdown.feasible

    def test_html_and_ascii_always_renderable(self):
        for log in (listing1_sql(1, 3), listing1_sql(6, 8)):
            result = generate_interface(
                log, config=GenerationConfig(time_budget_s=1.0, seed=4)
            )
            assert result.ascii_art.strip()
            html = result.html()
            assert html.count("<div") >= 1

    def test_search_diagnostics_populated(self):
        result = generate_interface(
            listing1_sql(1, 4),
            config=GenerationConfig(time_budget_s=1.5, seed=5),
        )
        stats = result.search.stats
        assert stats.states_evaluated > 0
        assert result.search.elapsed > 0
        assert result.search.history

    def test_single_query_log_degenerates_gracefully(self):
        result = generate_interface(
            ["select a from t"],
            config=GenerationConfig(time_budget_s=0.3, seed=0),
        )
        assert result.best.breakdown.feasible
        assert result.widget_tree.widget == "label"

    def test_deterministic_generation_under_iteration_cap(self):
        from repro.search import MCTS
        from repro.cost import CostModel
        from repro.difftree import initial_difftree
        from repro.rules import default_engine

        queries = [parse(s) for s in listing1_sql(1, 4)]
        cfg = GenerationConfig(time_budget_s=60.0, max_iterations=3, seed=9)
        a = MCTS(CostModel(queries, Screen.wide()), default_engine(), cfg).open(initial_difftree(queries)).run()
        b = MCTS(CostModel(queries, Screen.wide()), default_engine(), cfg).open(initial_difftree(queries)).run()
        # Same seed, same cap: the same (interned) winner, the same work
        # and the same incumbent trajectory; only the timestamps differ.
        assert a.best_state is b.best_state
        assert a.stats == b.stats
        assert [cost for _, cost in a.history] == [cost for _, cost in b.history]
        assert a.best_cost == b.best_cost
