"""Harness registry tests + cross-subsystem integration tests."""

import numpy as np
import pytest

from repro.common import ReproError, ResultTable
from repro.harness import all_experiments, get_experiment, run_experiment


class TestRegistry:
    def test_all_experiments_registered(self):
        ids = {spec.exp_id for spec in all_experiments()}
        expected = {"F1"} | {"E%d" % i for i in range(1, 18)}
        assert ids == expected

    def test_lookup_case_insensitive(self):
        assert get_experiment("e6").exp_id == "E6"

    def test_unknown_experiment(self):
        with pytest.raises(ReproError):
            get_experiment("E99")

    def test_specs_have_claims(self):
        for spec in all_experiments():
            assert spec.title
            assert spec.claim

    def test_f1_taxonomy_fully_covered(self):
        tables = run_experiment("F1", fast=True, show=False)
        assert len(tables) == 1
        assert all(tables[0].column("present"))
        # Figure 1 has ~30 leaf boxes; every one must be mapped.
        assert len(tables[0]) >= 30


class TestFastExperiments:
    """Each experiment must run in fast mode and return well-formed tables
    exhibiting its headline claim. These are the repo's own acceptance
    tests for the reproduction."""

    def _run(self, exp_id):
        tables = run_experiment(exp_id, seed=0, fast=True, show=False)
        assert tables
        for t in tables:
            assert isinstance(t, ResultTable)
            assert len(t) > 0
        return tables

    def test_e6_learned_beats_histogram_tail(self):
        (main, sweep) = self._run("E6")
        rows = {r[0]: r for r in main.rows}
        hist_q95 = rows["histogram"][3]
        learned_q95 = rows["learned-mscn"][3]
        assert learned_q95 < hist_q95

    def test_e7_mcts_near_dp(self):
        main = self._run("E7")[0]
        for n, method, rel_cost, __ in main.rows:
            if method == "mcts":
                assert rel_cost <= 1.35
            if method == "dp":
                assert rel_cost == pytest.approx(1.0)

    def test_e9_learned_indexes_smaller_than_btree(self):
        tables = self._run("E9")
        for table in tables[:2]:
            sizes = dict(zip(table.column("index"), table.column("size_bytes")))
            assert sizes["rmi"] < sizes["b+tree"] / 10
            assert sizes["pgm"] < sizes["b+tree"] / 10

    def test_e10_search_beats_fixed(self):
        (table,) = self._run("E10")
        for ratio in table.column("searched_vs_best_fixed"):
            assert ratio <= 1.0 + 1e-9

    def test_e11_learned_lowers_waits(self):
        (table,) = self._run("E11")
        rows = {r[0]: r for r in table.rows}
        assert rows["learned"][2] < rows["fifo"][2]  # total_wait

    def test_e13_learned_recall_wins(self):
        t1, __, t3 = self._run("E13")
        rows = {r[0]: r for r in t1.rows}
        assert rows["learned-tree"][2] > rows["signature-rules"][2]
        ac = {r[0]: r for r in t3.rows}
        assert ac["learned"][1] > ac["static-acl"][1]

    def test_e15_materialization_cheaper(self):
        t1 = self._run("E15")[0]
        rows = {r[0]: r for r in t1.rows}
        assert rows["materialize"][1] < rows["recompute"][1]

    def test_e16_pushdown_fewer_expensive_rows(self):
        t2 = self._run("E16")[1]
        rows = {r[0]: r for r in t2.rows}
        assert rows["pushdown"][1] < rows["naive"][1]
        assert rows["cascade"][1] < rows["pushdown"][1]


class TestEndToEndIntegration:
    def test_advisors_then_execution_consistency(self, star_db,
                                                  star_workload):
        """Index + view advisors must not change query answers."""
        from repro.ai4db.config.index_advisor import (
            GreedyIndexAdvisor,
            realize_indexes,
        )
        from repro.ai4db.config.view_advisor import GreedyViewAdvisor

        reference = [
            sorted(star_db.run_query_object(q).rows) for q in star_workload[:5]
        ]
        picks, __ = GreedyIndexAdvisor().recommend(star_db.catalog,
                                                   star_workload, budget=2)
        realize_indexes(star_db.catalog, picks)
        GreedyViewAdvisor().recommend(star_db, star_workload,
                                      space_budget_bytes=50_000_000)
        for q, expected in zip(star_workload[:5], reference):
            assert sorted(star_db.run_query_object(q).rows) == expected

    def test_rewriter_installed_on_database(self, star_db, star_workload):
        """The rule rewriter runs outside the engine: each rewritten
        query object runs end to end and returns the original's rows."""
        from repro.ai4db.config.rules import (
            apply_rules_fixed_order,
            default_rules,
        )

        rules = default_rules()
        applied = []
        for q in star_workload[:5]:
            rewritten, names = apply_rules_fixed_order(
                q, rules, catalog=star_db.catalog)
            applied.extend(names)
            result = star_db.run_query_object(rewritten)
            assert result.rows  # aggregates always return one row
            assert result.rows == star_db.run_query_object(q).rows
        assert "eliminate-redundant-joins" in applied

    def test_aisql_model_through_model_scan_operator(self):
        """Train via AISQL, then use the model in a ModelScan operator."""
        from repro.db4ai.declarative import AISQLExtension
        from repro.db4ai.inference.operators import ModelScanOperator
        from repro.engine import Database

        db = Database()
        db.execute("CREATE TABLE pts (a FLOAT, y FLOAT)")
        rows = ", ".join(
            "(%.3f, %.3f)" % (x, 3 * x + 1) for x in np.linspace(0, 1, 100)
        )
        db.execute("INSERT INTO pts VALUES " + rows)
        db.execute("ANALYZE pts")
        ext = AISQLExtension().install(db)
        db.execute("CREATE MODEL lin KIND linear ON pts TARGET y FEATURES (a)")
        bundle = ext.registry.get("lin").model

        class _Wrapped:
            def predict(self, X):
                return bundle["model"].predict(bundle["scaler"].transform(X))

        op = ModelScanOperator(_Wrapped(), [("pts", "a")])
        __, out = op.apply([("pts", "a")], [(0.5,)])
        assert out[0][-1] == pytest.approx(2.5, abs=0.05)

    def test_knob_simulator_drives_engine_cost_model(self):
        """Knob settings map into engine cost params and change plans' work."""
        from repro.engine import Database
        from repro.sim import datagen
        from repro.sim.knobs import KnobResponseSimulator

        sim = KnobResponseSimulator(seed=0)
        low_mem = np.zeros(sim.dim)
        high_mem = np.ones(sim.dim)
        works = {}
        for name, vec in (("low", low_mem), ("high", high_mem)):
            params = sim.cost_model_params(vec)
            db = Database(cost_params={
                "work_mem_rows": params["work_mem_rows"],
            })
            datagen.make_star_schema(db.catalog, n_customers=200,
                                     n_products=50, n_dates=30,
                                     n_sales=4000, seed=0)
            from repro.engine.query import Aggregate, ConjunctiveQuery, JoinEdge

            q = ConjunctiveQuery(
                tables=["customer", "sales"],
                join_edges=[JoinEdge("sales", "s_customer", "customer",
                                     "c_id")],
                aggregates=[Aggregate("count")],
            )
            # Force the 4k-row fact table onto the hash-build side so the
            # work_mem threshold matters.
            works[name] = db.run_query_object(
                q, order=["customer", "sales"]
            ).work
        # Small work_mem must spill on the 4k-row build side.
        assert works["low"] > works["high"]

    def test_lineage_traces_activeclean_fixes(self):
        """Lineage + cleaning integration: trace which source records a
        cleaned training row came from."""
        from repro.db4ai.governance.cleaning import (
            ActiveCleanSession,
            CorruptedDataset,
        )
        from repro.db4ai.governance.lineage import LineageTracker

        dataset = CorruptedDataset(n_rows=300, seed=0)
        tracker = LineageTracker()
        src = tracker.source(
            "train", [{"i": i} for i in range(dataset.n_rows)]
        )
        session = ActiveCleanSession(dataset, batch_size=20, seed=0)
        cleaned = session.step()
        cleaned_view = tracker.filter(
            src, lambda r: r["i"] in set(cleaned), name="cleaned_batch"
        )
        assert len(cleaned_view) == len(cleaned)
        prov = LineageTracker.backward(cleaned_view, 0)
        assert list(prov) == ["train"]
