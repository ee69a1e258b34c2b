"""Tests for the interaction runtime, renderers, and vis recommender."""

import pytest

from repro.database import Database, Table, execute
from repro.datagen import make_sdss_database
from repro.difftree import initial_difftree
from repro.interface import (
    InteractionError,
    InterfaceSession,
    instantiate,
    render_ascii,
    render_html,
)
from repro.rules import forward_engine
from repro.sqlast import parse, to_sql
from repro.vis import (
    BAR,
    BIG_NUMBER,
    HISTOGRAM,
    SCATTER,
    TABLE,
    recommend_chart,
    render_chart,
)
from repro.widgets import derive_widget_tree

FIG1 = (
    "SELECT sales FROM sales WHERE cty = 'USA'",
    "SELECT costs FROM sales WHERE cty = 'EUR'",
    "SELECT costs FROM sales",
)


def factored(queries):
    engine = forward_engine()
    tree = initial_difftree([parse(q) for q in queries])
    while True:
        moves = [m for m in engine.moves(tree) if m.rule_name != "Multi"]
        if not moves:
            return tree
        tree = engine.apply(tree, moves[0])


@pytest.fixture
def sales_db():
    return Database(
        [
            Table(
                "sales",
                {
                    "cty": ["USA", "EUR", "USA"],
                    "sales": [10, 20, 30],
                    "costs": [5, 15, 25],
                },
            )
        ]
    )


@pytest.fixture
def session(sales_db):
    tree = factored(FIG1)
    widget_tree = derive_widget_tree(tree)
    return InterfaceSession(
        tree, widget_tree, db=sales_db, initial_query=parse(FIG1[0])
    )


class TestInstantiate:
    def test_defaults_resolve(self):
        tree = factored(FIG1)
        query = instantiate(tree, {})
        assert query.label == "Select"

    def test_assignment_roundtrip(self):
        from repro.difftree import assignment_for

        tree = factored(FIG1)
        for sql in FIG1:
            ast = parse(sql)
            assignment = assignment_for(tree, ast)
            assert instantiate(tree, assignment) == ast

    def test_invalid_any_choice_raises(self):
        tree = factored(FIG1)
        path = tree.choice_nodes()[0][0]
        node = tree.at(path)
        if node.kind == "ANY":
            with pytest.raises(InteractionError):
                instantiate(tree, {path: 99})


class TestSession:
    def test_initial_query_loaded(self, session):
        assert session.current_sql == to_sql(parse(FIG1[0]))

    def test_widgets_listing(self, session):
        widgets = session.widgets()
        assert len(widgets) == 3
        assert all(w.choice_path is not None for w in widgets)

    def test_select_option_changes_query(self, session):
        projection_widget = next(
            w
            for w in session.widgets()
            if w.domain and set(w.domain.labels) == {"sales", "costs"}
        )
        session.select_option(projection_widget.choice_path, "costs")
        assert "costs" in session.current_sql

    def test_toggle_removes_where(self, session):
        toggle = next(
            w for w in session.widgets() if w.domain and w.domain.kind == "boolean"
        )
        session.toggle(toggle.choice_path)
        assert "WHERE" not in session.current_sql

    def test_load_query(self, session):
        session.load_query(parse(FIG1[2]))
        assert session.current_sql == to_sql(parse(FIG1[2]))

    def test_load_inexpressible_raises(self, session):
        with pytest.raises(InteractionError):
            session.load_query(parse("select zz from qq"))

    def test_can_express(self, session):
        assert session.can_express(parse(FIG1[1]))
        assert not session.can_express(parse("select zz from qq"))

    def test_run_executes_current_query(self, session):
        result = session.run()
        assert result.column("sales") == [10, 30]  # cty = USA

    def test_interaction_log_recorded(self, session):
        toggle = next(
            w for w in session.widgets() if w.domain and w.domain.kind == "boolean"
        )
        session.toggle(toggle.choice_path)
        session.toggle(toggle.choice_path)
        assert len(session.interaction_log) == 2

    def test_run_without_db_raises(self):
        tree = factored(FIG1)
        widget_tree = derive_widget_tree(tree)
        session = InterfaceSession(tree, widget_tree)
        with pytest.raises(InteractionError):
            session.run()

    def test_bad_option_label_raises(self, session):
        widget = session.widgets()[0]
        with pytest.raises(InteractionError):
            session.select_option(widget.choice_path, "not-an-option")

    def test_full_log_replay_on_sdss(self):
        from repro.workloads import listing1_queries

        queries = listing1_queries()
        tree = factored([to_sql(q) for q in queries])
        widget_tree = derive_widget_tree(tree)
        db = make_sdss_database(rows_per_table=50)
        session = InterfaceSession(tree, widget_tree, db=db, initial_query=queries[0])
        for query in queries:
            session.load_query(query)
            session.run()  # every log query must execute through the UI


class TestRenderers:
    def test_ascii_mentions_widgets(self):
        tree = factored(FIG1)
        art = render_ascii(derive_widget_tree(tree))
        assert "toggle" in art
        assert "+-" in art  # boxes drawn

    def test_ascii_tabs_and_adder(self):
        tree = initial_difftree(
            [parse("select a from t where u between 0 and 30 and g between 0 and 30")]
        )
        from repro.rules import default_engine

        engine = default_engine()
        move = [m for m in engine.moves(tree) if m.rule_name == "Multi"][0]
        merged = engine.apply(tree, move)
        art = render_ascii(derive_widget_tree(merged))
        assert "add" in art

    def test_html_is_selfcontained(self):
        tree = factored(FIG1)
        html_text = render_html(derive_widget_tree(tree), title="T")
        assert html_text.startswith("<!DOCTYPE html>")
        assert "<select>" in html_text or "checkbox" in html_text
        assert "</html>" in html_text

    def test_html_escapes_labels(self):
        from repro.widgets.tree import WidgetNode

        node = WidgetNode(widget="label", title="<script>")
        assert "<script>" not in render_html(node)


class TestVis:
    def run(self, db, sql):
        return execute(db, parse(sql))

    def test_count_star_is_big_number(self, sales_db):
        result = self.run(sales_db, "select count(*) from sales")
        spec = recommend_chart(result, parse("select count(*) from sales"))
        assert spec.kind == BIG_NUMBER

    def test_grouped_aggregate_is_bar(self, sales_db):
        sql = "select cty, sum(sales) from sales group by cty"
        spec = recommend_chart(self.run(sales_db, sql), parse(sql))
        assert spec.kind == BAR
        assert spec.x == "cty"

    def test_two_numeric_is_scatter(self, sales_db):
        sql = "select sales, costs from sales"
        spec = recommend_chart(self.run(sales_db, sql), parse(sql))
        assert spec.kind == SCATTER

    def test_single_numeric_is_histogram(self, sales_db):
        sql = "select sales from sales"
        spec = recommend_chart(self.run(sales_db, sql), parse(sql))
        assert spec.kind == HISTOGRAM

    def test_fallback_is_table(self, sales_db):
        sql = "select cty from sales"
        spec = recommend_chart(self.run(sales_db, sql), parse(sql))
        assert spec.kind == TABLE

    @pytest.mark.parametrize(
        "sql",
        [
            "select count(*) from sales",
            "select cty, sum(sales) from sales group by cty",
            "select sales, costs from sales",
            "select sales from sales",
            "select cty from sales",
        ],
    )
    def test_render_chart_never_empty(self, sales_db, sql):
        result = self.run(sales_db, sql)
        spec = recommend_chart(result, parse(sql))
        text = render_chart(spec, result)
        assert text.strip()

    def test_session_chart_end_to_end(self, session):
        spec = session.chart()
        assert spec.kind in (BIG_NUMBER, BAR, SCATTER, HISTOGRAM, TABLE)
