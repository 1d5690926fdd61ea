"""Smoke test of the end-to-end benchmark (collected by ``make bench``).

Runs ``run.py --smoke`` once (0.3 s rounds, 1 round, 50-statement
trace, one ``f`` segment) and checks that the report names every
workload and metric ``BENCHMARK.json`` declares, that the statement
generator is deterministic per seed, and that the recorded span tree is
well-formed. Timing values are not asserted — only shape and counts.
"""

import itertools
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for _path in (os.path.join(ROOT, "src"), HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import compare  # noqa: E402
import dataset  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans as e2e_spans  # noqa: E402  (``spans`` is a local name below)
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One ``run.py --smoke`` of everything; returns (report, stdout, dir)."""
    out_dir = tmp_path_factory.mktemp("e2e")
    out = out_dir / "report.json"
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--seed", "3", "--out", str(out)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=600)
    assert done.returncode == 0, done.stdout
    with open(out) as fh:
        return json.load(fh), done.stdout, out_dir


def test_manifest_matches_the_code(manifest):
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in manifest["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in manifest["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in manifest["per_layer"]] == [
        (name, unit, better)
        for name, unit, better, __ in layers.LAYER_METRICS]
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer")
             for x in manifest[key]]
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])


def test_report_names_every_workload_and_metric(manifest, smoke):
    report, stdout, __ = smoke
    assert set(report["workloads"]) == {
        w["name"] for w in manifest["workloads"]}
    for name, entry in report["workloads"].items():
        assert set(entry["end_to_end"]) == {
            m["name"] for m in manifest["end_to_end"]}
        assert set(entry["per_layer"]) == {
            m["name"] for m in manifest["per_layer"]}
        assert entry["failed_share"] == 0
        assert entry["missing_layers"] == []
        for metric in itertools.chain(entry["end_to_end"],
                                      entry["per_layer"], ["failed_share"]):
            assert re.search(r"^%s +%s " % (name, re.escape(metric)),
                             stdout, re.M), (name, metric)
        for metric, summary in entry["end_to_end"].items():
            assert summary["median"] > 0, (name, metric)
    provenance = report["provenance"]
    assert provenance["repro_env_scrubbed"] is True
    assert all(n <= provenance["nproc"]
               for n in provenance["clients"].values())
    for key in ("seed", "python", "numpy", "platform", "git_sha", "rounds",
                "round_seconds"):
        assert key in provenance


def test_trace_bears_out_the_workloads(smoke):
    layer = {w: {k: v["median"] for k, v in e["per_layer"].items()}
             for w, e in smoke[0]["workloads"].items()}
    assert layer["point_warm"]["pipeline.plan_cache.hit_rate"] >= 0.99
    assert layer["scan_agg"]["pipeline.plan_cache.hit_rate"] >= 0.99
    assert layer["cold_plan"]["pipeline.plan_cache.hit_rate"] <= 0.01
    assert layer["cold_plan"]["optimizer.plans_built"] == 1
    assert layer["mixed_rw"]["server.commits"] > 0
    assert layer["mixed_rw"]["pipeline.plan_cache.invalidations"] > 0
    for name in ("point_warm", "cold_plan", "scan_agg"):
        assert layer[name]["server.commits"] == 0
        assert layer[name]["storage.seals"] == 0
        assert layer[name]["pipeline.plan_cache.invalidations"] == 0
    for values in layer.values():
        assert values["admission.queued"] == values["admission.shed"] == 0
        assert values["trace.unattributed_share"] <= 0.2
    # One client: the three replays of a prefix did exactly the same work.
    repeats = {c["check"]: c["verdict"] for c in smoke[0]["purpose"]
               if "executor work equal" in c["check"]}
    assert len(repeats) == 3 and set(repeats.values()) == {"ok"}


def test_span_tree_is_well_formed(smoke):
    for name in run.WORKLOADS:
        by_client = {}
        with open(smoke[2] / ("spans-%s.jsonl" % name)) as fh:
            for line in fh:
                s = json.loads(line)
                by_client.setdefault(s["client"], []).append([
                    s["name"], s["start"], s["end"], s["parent"], s["stmt"],
                    s["client"], s["end"] - s["start"] - s["self"]])
        assert by_client, name
        for spans in by_client.values():
            assert e2e_spans.check_tree(spans) == []
            roots = [s for s in spans if s[e2e_spans.PARENT] < 0]
            assert len(roots) == run.SMOKE_PREFIX
            assert {s[0] for s in roots} <= {"server.execute",
                                             "server.insert_rows"}


def _first_ops(name, seed, n=300):
    data = dataset.generate(seed, f_segments=1)
    workload = workloads.make(name, seed, data, n_clients=2, per_client=n)
    return [list(itertools.islice(workload.ops(c), n))
            for c in range(workload.n_clients)]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    assert _first_ops(name, 5) == _first_ops(name, 5)
    assert _first_ops(name, 5) != _first_ops(name, 6)


def test_dataset_is_deterministic_per_seed():
    a, b, c = (dataset.generate(s, f_segments=1) for s in (5, 5, 6))
    for table, columns in a.tables.items():
        for column, values in columns.items():
            assert (values == b.tables[table][column]).all()
    assert (a.tables["f"]["k"] != c.tables["f"]["k"]).any()


def test_cold_statements_never_repeat():
    data = dataset.generate(0, f_segments=1)
    workload = workloads.make("cold_plan", 0, data)
    texts = [op[1] for op in itertools.islice(workload.ops(0), 20_000)]
    assert len(set(texts + workload.warmup_sql())) == 20_000 + len(
        workload.warmup_sql())


def test_oracle_against_hand_computed_rows():
    import numpy as np

    tables = {
        "t": {"id": np.array([0, 1, 2, 3]), "a": np.array([2, 0, 2, 1]),
              "v": np.array([1.0, 2.0, 3.0, 4.0])},
        "u": {"id": np.array([2, 0, 1]), "b": np.array([7, 8, 9])},
    }
    q = oracle.Query(
        ["t", "u"],
        [("col", "u", "b"), ("count", None, None), ("sum", "t", "v")],
        joins=[("t", "a", "u", "id")], where=[("t", "id", "<", 3)],
        group=("u", "b"))
    assert oracle.render(q) == (
        "SELECT u.b, COUNT(*), SUM(t.v) FROM t, u WHERE t.a = u.id "
        "AND t.id < 3 GROUP BY u.b")
    assert oracle.rows_match(oracle.evaluate(q, tables),
                             [(8, 1, 2.0), (7, 2, 4.0)])
    empty = oracle.Query(["t"], [("count", None, None), ("max", "t", "v")],
                         where=[("t", "id", ">", 9)])
    assert oracle.evaluate(empty, tables) == [(0, None)]
    assert not oracle.rows_match([(1, 2.0)], [(1, 2.1)])
    assert not oracle.rows_match([(1,)], [(1,), (1,)])


def test_a_vanished_target_reads_null(monkeypatch):
    monkeypatch.setattr(e2e_spans, "TARGETS", e2e_spans.TARGETS + (
        ("sql.lower", "repro.engine.pipeline", None, "no_such_function"),
        ("gone.layer", "repro.engine.no_such_module", "X", "y"),
    ))
    warnings = []
    tracer = e2e_spans.Tracer(warn=warnings.append)
    with tracer:
        pass
    assert len(warnings) == 2
    # sql.lower still has one live target; gone.layer has none.
    assert tracer.missing == {"gone.layer"}
    tracer.missing = {"segments.decode", "server.execute"}
    values = layers.compute(tracer, layers.ReplayStats(), {}, {})
    assert values["segments.decode.ms"] is None
    assert values["segments.decode.calls"] is None
    assert values["server.execute.self_ms"] is None
    assert values["executor.execute.ms"] == 0
    assert set(values) == {m[0] for m in layers.LAYER_METRICS}
    # A telemetry field that is gone nulls what is derived from it only.
    stats = layers.ReplayStats()
    for work, decoded in ((10.0, 512), (30.0, None)):
        stats.add("reads", 1)
        stats.add("work", work)
        stats.add("bytes_decoded", decoded)
    values = layers.compute(tracer, stats, {}, {})
    assert values["executor.work_per_stmt"] == 20.0
    assert values["segments.bytes_decoded_per_stmt"] is None


def _report(rounds, failed_share=0.0):
    summary = {"median": sorted(rounds)[len(rounds) // 2], "rounds": rounds}
    return {"workloads": {w: {
        "end_to_end": {name: summary for name, __ in run.END_TO_END},
        "end_to_end_raw": {"p50_ms": summary},
        "failed_share": failed_share} for w in run.WORKLOADS}}


def test_compare_verdicts(manifest):
    def verdicts(a, b):
        return {(r[1], r[-1]) for r in compare.compare(a, b, manifest)}

    steady = _report([100.0, 101.0, 100.5])
    assert {v for __, v in verdicts(steady, steady)} == {"ok"}
    slower = verdicts(steady, _report([150.0, 151.0, 150.5]))
    assert ("p50_ms", "worse") in slower
    assert ("throughput_ops_s", "ok") in slower  # higher is better there
    noisy = verdicts(steady, _report([60.0, 100.0, 160.0]))
    assert ("p50_ms", "unresolved") in noisy
    assert ("failed_share", "worse") in verdicts(
        steady, _report([100.0, 101.0, 100.5], failed_share=0.01))
    # --raw: only the metrics that have an unscaled twin are judged.
    raw = compare.compare(steady, _report([150.0, 151.0, 150.5]), manifest,
                          "end_to_end_raw")
    assert {(r[1], r[-1]) for r in raw} == {("p50_ms", "worse"),
                                            ("failed_share", "ok")}
