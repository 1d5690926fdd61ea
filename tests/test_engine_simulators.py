"""The ``repro.sim`` suite: datagen, knobs, transactions, traces."""

import numpy as np
import pytest

from repro.common import ReproError
from repro.engine.catalog import Catalog
from repro.sim import datagen
from repro.sim.knobs import (
    KnobResponseSimulator,
    KnobSpec,
    default_knobs,
    standard_workloads,
)
from repro.sim.traces import (
    ACTIVITY_TYPES,
    KPI_NAMES,
    ROOT_CAUSES,
    activity_stream,
    arrival_trace,
    kpi_episodes,
)
from repro.sim.txn import (
    LockTableSimulator,
    Transaction,
    cost_ordered_schedule,
    fifo_schedule,
    hotspot_workload,
)


class TestDatagen:
    def test_zipf_skew_concentrates_mass(self, rng):
        skewed = datagen.zipf_integers(5000, 100, skew=1.5, seed=0)
        uniform = datagen.zipf_integers(5000, 100, skew=0.0, seed=0)
        top_share_skewed = np.mean(skewed < 5)
        top_share_uniform = np.mean(uniform < 5)
        assert top_share_skewed > 3 * top_share_uniform

    def test_correlated_pair_extremes(self):
        x, y = datagen.correlated_pair(2000, 50, correlation=1.0, seed=0)
        assert np.array_equal(x, y)
        x2, y2 = datagen.correlated_pair(2000, 50, correlation=0.0, seed=0)
        agreement = float(np.mean(x2 == y2))
        assert agreement < 0.1

    def test_star_schema_referential_integrity(self):
        catalog = Catalog()
        tables = datagen.make_star_schema(catalog, n_customers=100,
                                          n_products=30, n_dates=20,
                                          n_sales=500, seed=0)
        sales = tables["sales"]
        customer_ids = set(tables["customer"].column_array("c_id").tolist())
        fk = sales.column_array("s_customer")
        assert set(fk.tolist()) <= customer_ids

    def test_star_workload_valid_queries(self):
        queries = datagen.star_workload(n_queries=20, seed=0)
        assert len(queries) == 20
        for q in queries:
            assert "sales" in [t.lower() for t in q.tables]
            assert q.is_connected()

    def test_join_graph_topologies(self):
        for topology, expected_edges in (("chain", 3), ("star", 3),
                                         ("clique", 6)):
            catalog = Catalog()
            names, edges = datagen.make_join_graph_schema(
                catalog, topology, n_tables=4, rows_per_table=100, seed=0,
                prefix="%s_" % topology,
            )
            assert len(edges) == expected_edges

    def test_join_graph_bad_topology(self):
        with pytest.raises(ValueError):
            datagen.make_join_graph_schema(Catalog(), "ring")

    def test_correlated_fk_mode(self):
        catalog = Catalog()
        names, __ = datagen.make_join_graph_schema(
            catalog, "chain", n_tables=2, rows_per_table=2000, seed=0,
            prefix="cf_", correlated=True,
        )
        t = catalog.table(names[0])
        val = t.column_array("val").astype(float)
        fk = t.column_array("fk").astype(float)
        corr = float(np.corrcoef(val, fk)[0, 1])
        assert corr > 0.9

    def test_workload_connected_subsets(self):
        catalog = Catalog()
        names, edges = datagen.make_join_graph_schema(
            catalog, "chain", n_tables=5, rows_per_table=100, seed=0,
            prefix="wc_",
        )
        queries = datagen.join_graph_workload(names, edges, n_queries=10,
                                              seed=1)
        for q in queries:
            assert q.is_connected()


class TestKnobs:
    def test_knob_normalization_roundtrip(self):
        for knob in default_knobs():
            for raw in (knob.low, knob.default, knob.high):
                unit = knob.normalize(raw)
                assert 0.0 <= unit <= 1.0
                assert knob.denormalize(unit) == pytest.approx(raw, rel=1e-6)

    def test_log_scale_midpoint(self):
        knob = KnobSpec("k", 1, 100, 10, log_scale=True)
        assert knob.normalize(10) == pytest.approx(0.5)

    def test_invalid_spec(self):
        with pytest.raises(ReproError):
            KnobSpec("k", 5, 5, 5)
        with pytest.raises(ReproError):
            KnobSpec("k", 0.1, 1, 2)

    def test_simulator_deterministic_without_noise(self):
        sim = KnobResponseSimulator(seed=0, noise=0.0)
        wl = standard_workloads()[0]
        x = sim.default_vector()
        assert sim.throughput(x, wl) == sim.throughput(x, wl)

    def test_simulator_noise_varies(self):
        sim = KnobResponseSimulator(seed=0, noise=0.1)
        wl = standard_workloads()[0]
        x = sim.default_vector()
        values = {sim.throughput(x, wl) for __ in range(5)}
        assert len(values) > 1

    def test_workload_changes_optimum(self):
        sim = KnobResponseSimulator(seed=3, noise=0.0)
        oltp, olap, __ = standard_workloads()
        rng = np.random.default_rng(0)
        xs = rng.random((512, sim.dim))
        best_oltp = xs[int(np.argmax([sim.score(x, oltp) for x in xs]))]
        best_olap = xs[int(np.argmax([sim.score(x, olap) for x in xs]))]
        assert not np.allclose(best_oltp, best_olap, atol=0.05)

    def test_wrong_dimension_rejected(self):
        sim = KnobResponseSimulator(seed=0)
        with pytest.raises(ReproError):
            sim.score(np.zeros(3), standard_workloads()[0])

    def test_metrics_vector_shape(self):
        sim = KnobResponseSimulator(seed=0)
        m = sim.metrics(sim.default_vector(), standard_workloads()[0])
        assert m.shape == (5,)

    def test_cost_model_params_mapping(self):
        sim = KnobResponseSimulator(seed=0)
        params = sim.cost_model_params(np.ones(sim.dim))
        assert params["work_mem_rows"] > 0
        assert params["index_probe_cost"] > 0

    def test_evaluation_counter(self):
        sim = KnobResponseSimulator(seed=0)
        wl = standard_workloads()[0]
        sim.throughput(sim.default_vector(), wl)
        sim.throughput(sim.default_vector(), wl)
        assert sim.evaluations == 2


class TestTransactions:
    def test_conflict_detection(self):
        a = Transaction(0, reads={1}, writes={2}, duration=1.0)
        b = Transaction(1, reads={2}, writes=set(), duration=1.0)
        c = Transaction(2, reads={9}, writes=set(), duration=1.0)
        assert a.conflicts_with(b)
        assert b.conflicts_with(a)
        assert not a.conflicts_with(c)
        # Pure read-read never conflicts.
        d = Transaction(3, reads={1}, writes=set(), duration=1.0)
        assert not c.conflicts_with(d)

    def test_hotspot_workload_shape(self):
        txns = hotspot_workload(n_txns=100, hot_keys=10, hot_fraction=0.8,
                                seed=0)
        assert len(txns) == 100
        hot_hits = sum(
            1 for t in txns for k in t.keys() if k < 10
        )
        total = sum(len(t.keys()) for t in txns)
        assert hot_hits / total > 0.5

    def test_fifo_round_robin(self):
        txns = hotspot_workload(n_txns=10, seed=0)
        queues = fifo_schedule(txns, 3)
        assert [len(q) for q in queues] == [4, 3, 3]

    def test_cost_ordered_balances_load(self):
        txns = hotspot_workload(n_txns=40, seed=1)
        queues = cost_ordered_schedule(txns, 4)
        loads = [sum(t.duration for t in q) for q in queues]
        assert max(loads) - min(loads) < max(t.duration for t in txns) * 2

    def test_simulator_commits_everything(self):
        txns = hotspot_workload(n_txns=60, seed=2)
        sim = LockTableSimulator()
        result = sim.run(fifo_schedule(txns, 3))
        assert result.committed == 60
        assert result.makespan > 0

    def test_conflict_free_batch_has_no_waits(self):
        txns = [Transaction(i, reads={i * 2}, writes={i * 2 + 1}, duration=2.0)
                for i in range(20)]
        result = LockTableSimulator().run(fifo_schedule(txns, 4))
        assert result.total_wait == 0.0
        assert result.aborts == 0

    def test_contention_raises_waits(self):
        # Everyone writes the same key: fully serialized.
        txns = [Transaction(i, reads=set(), writes={0}, duration=2.0)
                for i in range(12)]
        serialized = LockTableSimulator(timeout_ms=1e9).run(
            fifo_schedule(txns, 4)
        )
        assert serialized.makespan == pytest.approx(24.0, rel=0.01)
        assert serialized.total_wait > 0


class TestTelemetry:
    def test_arrival_trace_daily_pattern(self):
        counts, is_burst = arrival_trace(n_hours=24 * 14, burst_prob=0.0,
                                         seed=0)
        assert len(counts) == 24 * 14
        by_hour = counts.reshape(-1, 24).mean(axis=0)
        # Business hours busier than small hours.
        assert by_hour[12] > by_hour[3]

    def test_bursts_marked_and_large(self):
        counts, is_burst = arrival_trace(n_hours=24 * 30, burst_prob=0.05,
                                         seed=1)
        assert is_burst.any()
        assert counts[is_burst].mean() > counts[~is_burst].mean()

    def test_kpi_episodes_labels_match_signatures(self):
        X, labels = kpi_episodes(n_episodes=100, noise=0.0, seed=0)
        for row, label in zip(X, labels):
            assert np.allclose(row, ROOT_CAUSES[label])
        assert X.shape[1] == len(KPI_NAMES)

    def test_activity_stream_frequencies(self):
        types, risks, means = activity_stream(n_events=5000, seed=0)
        assert len(means) == len(ACTIVITY_TYPES)
        # The most common type should be the mundane select_public (idx 0).
        assert np.bincount(types).argmax() == 0
        assert np.all((risks >= 0) & (risks <= 1))
