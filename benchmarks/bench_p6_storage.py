"""P6 benchmark: segmented encoded storage vs. the seed's flat layout.

Builds a clustered, low-cardinality fact table twice — once emulating the
seed layout (a single plain-encoded segment: flat NumPy arrays, whose one
zone map spans the whole table and so prunes nothing) and once with
encoded 4K-row segments (dictionary/RLE where profitable) — plans an
analytical workload once per database, and times pure plan execution. The observational contract
holds throughout: both layouts report identical rows and bit-identical
``work``, so the wall-clock ratio isolates what the storage layer saves
(segments skipped via zone maps, predicates evaluated on dictionary
codes, columns decoded late). ``tracemalloc`` peaks quantify the saved
materialization; a separate ingest pass compares the tail-segment append
path against the seed's per-batch ``np.concatenate``.

Run standalone to (re)generate ``BENCH_P6.json``::

    PYTHONPATH=src python benchmarks/bench_p6_storage.py

``REPRO_BENCH_FAST=1`` shrinks the table. The ≥2x acceptance gates run
at full size and are marked slow (PR 3 convention).
"""

import json
import os
import time
import tracemalloc

import numpy as np
import pytest

from repro.engine.database import Database
from repro.engine.executor import Executor
from repro.engine.query import Aggregate, ConjunctiveQuery, Predicate
from repro.engine.storage import Table
from repro.engine.types import ColumnSchema, DataType, TableSchema

FAST = os.environ.get("REPRO_BENCH_FAST", "0") == "1"

#: Encoded-layout segment size; small enough that the fast workload still
#: seals several segments, large enough to amortize per-segment overhead.
SEGMENT_ROWS = 4096

#: Days in the clustered time column (rows arrive in day order).
N_DAYS = 256


def _n_rows(fast):
    return 20_000 if fast else 200_000


def _rows(n, seed=0):
    """Clustered/low-cardinality rows.

    ``day`` and its text twin ``date`` are clustered (rows arrive in
    time order), so their zone maps are tight; ``tag``/``status`` are
    scattered low-cardinality text, the dictionary-encoding sweet spot.
    """
    rng = np.random.default_rng(seed)
    ids = np.arange(n, dtype=np.int64)
    days = ids // max(1, n // N_DAYS)
    tags = rng.integers(0, 64, size=n)
    statuses = rng.integers(0, 4, size=n)
    m0 = rng.uniform(-100.0, 100.0, size=n)
    m1 = rng.uniform(0.0, 1.0, size=n)
    return [
        (int(ids[i]), int(days[i]), "d%03d" % days[i],
         "g%02d" % tags[i], "s%d" % statuses[i],
         float(m0[i]), float(m1[i]))
        for i in range(n)
    ]


def _schema():
    return TableSchema("fact", [
        ColumnSchema("id", DataType.INT),
        ColumnSchema("day", DataType.INT),
        ColumnSchema("date", DataType.TEXT),
        ColumnSchema("tag", DataType.TEXT),
        ColumnSchema("status", DataType.TEXT),
        ColumnSchema("m0", DataType.FLOAT),
        ColumnSchema("m1", DataType.FLOAT),
    ])


def _queries(n):
    t = "fact"
    return [
        # Narrow range on the clustered key: zone maps skip nearly all
        # segments, and the surviving output is small enough that the
        # shared row-materialization cost stays out of the way.
        ConjunctiveQuery(
            tables=[t],
            predicates=[Predicate(t, "id", "<", n // 400)],
            projections=[(t, "id"), (t, "m0")],
        ),
        # Equality on the clustered day column (a couple of segments
        # survive); the flat layout pays a full-column integer mask.
        ConjunctiveQuery(
            tables=[t],
            predicates=[Predicate(t, "day", "=", 3)],
            group_by=[(t, "status")],
            aggregates=[
                Aggregate("count"),
                Aggregate("sum", t, "m0"),
                Aggregate("avg", t, "m1"),
            ],
        ),
        # Clustered TEXT equality: the flat layout compares every string
        # object; encoded segments prune on string zone maps and compare
        # dictionary codes in the survivors.
        ConjunctiveQuery(
            tables=[t],
            predicates=[Predicate(t, "date", "=", "d003")],
            aggregates=[Aggregate("count"), Aggregate("sum", t, "m1")],
        ),
        # Scattered low-cardinality equality: no pruning, but the
        # predicate evaluates on dictionary codes instead of strings —
        # and a COUNT tail decodes nothing at all.
        ConjunctiveQuery(
            tables=[t],
            predicates=[Predicate(t, "tag", "=", "g07")],
            aggregates=[Aggregate("count")],
        ),
    ]


def build_layouts(fast, seed=0):
    """``{label: (db, plans)}`` for the two storage layouts."""
    n = _n_rows(fast)
    rows = _rows(n, seed=seed)
    layouts = {}
    for label, kwargs in (
        # One plain segment spanning the whole table == the seed's flat
        # NumPy arrays (nothing to prune, nothing encoded).
        ("flat", {"segment_rows": n, "segment_encodings": ("plain",)}),
        ("encoded", {"segment_rows": SEGMENT_ROWS}),
    ):
        db = Database(**kwargs)
        db.catalog.register_table(Table(
            _schema(),
            segment_rows=kwargs["segment_rows"],
            segment_encodings=kwargs.get("segment_encodings"),
        ))
        db.catalog.table("fact").insert_rows(rows)
        db.catalog.analyze("fact")
        plans = [db.planner.plan(q) for q in _queries(n)]
        layouts[label] = (db, plans)
    return layouts


def execute_all(db, plans):
    """Execute every plan; totals + accumulated segment telemetry."""
    ex = Executor(db.catalog, db.cost_model)
    totals = {
        "rows": 0, "work": 0.0, "segments_total": 0, "segments_pruned": 0,
        "bytes_decoded": 0,
    }
    for plan in plans:
        result = ex.execute(plan)
        # Count via the relation, not ``result.rows`` — materializing
        # Python tuples costs the same in every layout and would mask
        # the storage-layer delta being measured.
        totals["rows"] += len(result.relation)
        totals["work"] += result.work
        tel = result.telemetry
        totals["segments_total"] += tel.segments_total
        totals["segments_pruned"] += tel.segments_pruned
        totals["bytes_decoded"] += tel.bytes_decoded
    return totals


def peak_alloc_bytes(db, plans):
    """tracemalloc peak during one full pass (intermediates included)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        execute_all(db, plans)
        __, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def ingest_rates(fast, batch_rows=500, seed=1):
    """Batched-append throughput: tail segments vs. per-batch concat.

    The seed's ``insert_rows`` rebuilt every column with ``np.concatenate``
    per batch — O(n²) over a batched load. The segmented path appends to
    the mutable tail and seals full chunks, so each sealed row is copied
    exactly once.
    """
    n = _n_rows(fast)
    rows = _rows(n, seed=seed)
    batches = [rows[i:i + batch_rows] for i in range(0, n, batch_rows)]

    table = Table(_schema(), segment_rows=SEGMENT_ROWS)
    t0 = time.perf_counter()
    for chunk in batches:
        table.insert_rows(chunk)
    segmented = time.perf_counter() - t0
    assert table.n_rows == n

    schema = _schema()
    flat = {
        c.name: np.empty(0, dtype=c.dtype.numpy_dtype)
        for c in schema.columns
    }
    t0 = time.perf_counter()
    # The seed's insert_rows, verbatim: per-row coercion into a fresh
    # array, then a full-column concatenate — every batch re-copies all
    # previously inserted rows.
    for chunk in batches:
        for j, c in enumerate(schema.columns):
            incoming = np.asarray(
                [c.dtype.coerce(r[j]) for r in chunk],
                dtype=c.dtype.numpy_dtype,
            )
            flat[c.name] = np.concatenate([flat[c.name], incoming])
    concat = time.perf_counter() - t0
    assert all(len(a) == n for a in flat.values())

    return {
        "rows": n,
        "batch_rows": batch_rows,
        "segmented_seconds": segmented,
        "flat_concat_seconds": concat,
        "segmented_rows_per_s": n / max(segmented, 1e-12),
        "flat_rows_per_s": n / max(concat, 1e-12),
        "speedup": concat / max(segmented, 1e-12),
    }


def measure(fast, repeats=3, seed=0):
    """Best-of-``repeats`` scan timings + peaks + prune/ingest rates."""
    layouts = build_layouts(fast, seed=seed)
    out = {
        "workload": "clustered fact table (rows=%d, queries=%d, "
        "segment_rows=%d)" % (_n_rows(fast), len(_queries(_n_rows(fast))),
                              SEGMENT_ROWS),
        "fast": fast,
        "configs": {},
    }
    checks = {}
    for label, (db, plans) in layouts.items():
        best = float("inf")
        totals = None
        for __ in range(repeats):
            t0 = time.perf_counter()
            totals = execute_all(db, plans)
            best = min(best, time.perf_counter() - t0)
        checks[label] = (totals["rows"], totals["work"])
        seg_total = totals["segments_total"]
        out["configs"][label] = {
            "seconds": best,
            "total_rows": totals["rows"],
            "total_work": totals["work"],
            "segments_total": seg_total,
            "segments_pruned": totals["segments_pruned"],
            "prune_rate": totals["segments_pruned"] / max(1, seg_total),
            "bytes_decoded": totals["bytes_decoded"],
            "table_encoded_bytes": db.catalog.table("fact").encoded_bytes(),
            "peak_alloc_bytes": peak_alloc_bytes(db, plans),
        }
    assert checks["encoded"] == checks["flat"], (
        "encoded layout diverges from flat: %r vs %r"
        % (checks["encoded"], checks["flat"])
    )
    flat, enc = out["configs"]["flat"], out["configs"]["encoded"]
    out["scan_speedup"] = flat["seconds"] / max(enc["seconds"], 1e-12)
    out["peak_alloc_ratio"] = flat["peak_alloc_bytes"] / max(
        enc["peak_alloc_bytes"], 1
    )
    out["prune_rate"] = enc["prune_rate"]
    out["bytes_decoded_ratio"] = flat["bytes_decoded"] / max(
        enc["bytes_decoded"], 1
    )
    out["compression_ratio"] = flat["table_encoded_bytes"] / max(
        enc["table_encoded_bytes"], 1
    )
    out["ingest"] = ingest_rates(fast)
    return out


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_p6_layout_parity_and_pruning():
    """Encoded segments change neither rows nor work, and pruning fires."""
    layouts = build_layouts(fast=True)
    flat_db, flat_plans = layouts["flat"]
    enc_db, enc_plans = layouts["encoded"]
    baseline = execute_all(flat_db, flat_plans)
    assert baseline["segments_pruned"] == 0
    totals = execute_all(enc_db, enc_plans)
    assert totals["rows"] == baseline["rows"]
    assert totals["work"] == baseline["work"]
    assert totals["segments_pruned"] > 0
    assert totals["bytes_decoded"] < baseline["bytes_decoded"]


def test_p6_storage_benchmark(benchmark):
    """Times the encoded-layout pass on the FAST-aware workload."""
    db, plans = build_layouts(fast=FAST)["encoded"]
    totals = benchmark.pedantic(
        execute_all, args=(db, plans), rounds=1, iterations=1,
    )
    assert totals["rows"] > 0 and totals["segments_pruned"] > 0


@pytest.mark.slow
def test_p6_storage_gates_full_size():
    """Acceptance gates: ≥2x scan speedup, ≥2x lower peak alloc, ≥50%
    segments pruned on the clustered/low-cardinality workload."""
    payload = measure(fast=False, repeats=2)
    assert payload["scan_speedup"] >= 2.0, payload
    assert payload["peak_alloc_ratio"] >= 2.0, payload
    assert payload["prune_rate"] >= 0.5, payload


if __name__ == "__main__":
    payload = {"bench": "P6 segmented storage", "results": []}
    for fast in (True, False):
        result = measure(fast)
        payload["results"].append(result)
        print("%s: flat %.3fs, encoded %.3fs (%.2fx); prune_rate=%.0f%%, "
              "alloc ratio=%.2fx, ingest speedup=%.2fx" % (
                  "fast" if fast else "full",
                  result["configs"]["flat"]["seconds"],
                  result["configs"]["encoded"]["seconds"],
                  result["scan_speedup"],
                  100.0 * result["prune_rate"],
                  result["peak_alloc_ratio"],
                  result["ingest"]["speedup"],
              ))
    out_path = os.path.join(os.path.dirname(__file__), "..", "BENCH_P6.json")
    with open(os.path.abspath(out_path), "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print("wrote BENCH_P6.json")
