"""The per-layer metrics: names, units, and how each is derived.

Layers are named after the engine's modules. :data:`LAYER_METRICS` is
the single list ``BENCHMARK.json``'s ``per_layer`` section is written
from (the smoke test checks they agree); the last field records, before
any measurement, which end-to-end metric on which workload the layer
metric should move (README, "Per-layer metrics and how they should
move").

Time metrics are means per statement: ``.ms`` is a layer's inclusive
span time divided by the statements replayed, ``.self_ms`` its self
time (children excluded). Counts made by the program (work, bytes,
cache counters) repeat exactly with one client and are reported as
counts, never as speed-ups.
"""

import statistics

OPERATORS = ("SeqScan", "IndexScan", "HashJoin", "HashAggregate",
             "FusedPipelineOp", "Sort")

_FRONT = "p50_ms on point_warm; nothing on scan_agg"
_ADMIT = "p95_ms and failed on mixed_rw"
_CACHE = "p50_ms on cold_plan"
_PLAN = "p50_ms and throughput_ops_s on cold_plan"
_EXEC = "p50_ms, throughput_ops_s and cpu_ms_per_op on scan_agg"
_SEG = ("throughput_ops_s on scan_agg; p50_ms on point_warm while the "
        "snapshot penalty exists")
_STORE = ("p95_ms and throughput_ops_s on mixed_rw; peak_rss_mb "
          "everywhere")

#: ``(name, unit, better, moves)``
LAYER_METRICS = (
    ("server.execute.self_ms", "ms", "lower", _FRONT),
    ("server.pin_snapshot.ms", "ms", "lower", _FRONT),
    ("server.snapshot_penalty_x", "x", "lower", _FRONT),
    ("server.commits", "count", "higher", "throughput_ops_s on mixed_rw"),
    ("session.execute.self_ms", "ms", "lower", _FRONT),
    ("session.gated.extra_ms", "ms", "lower", _FRONT),
    ("embedded.execute.p50_ms", "ms", "lower",
     "the floor p50_ms on point_warm could reach"),
    ("admission.admit.ms", "ms", "lower", _ADMIT),
    ("admission.settle.ms", "ms", "lower", _ADMIT),
    ("admission.queued", "count", "lower", _ADMIT),
    ("admission.shed", "count", "lower", _ADMIT),
    ("admission.queue_wait_ms", "ms", "lower", _ADMIT),
    ("pipeline.prepare.self_ms", "ms", "lower", _CACHE),
    ("pipeline.prepare.share", "share", "lower", _CACHE),
    ("pipeline.execute_prepared.self_ms", "ms", "lower", _CACHE),
    ("pipeline.plan_cache.hit_rate", "share", "higher", _CACHE),
    ("pipeline.plan_cache.invalidations", "count", "lower",
     "p50_ms on mixed_rw only"),
    ("pipeline.query_cache.hit_rate", "share", "higher", _CACHE),
    ("sql.parse.ms", "ms", "lower", _PLAN),
    ("sql.lower.ms", "ms", "lower", _PLAN),
    ("optimizer.plan.ms", "ms", "lower", _PLAN),
    ("optimizer.plans_built", "1/stmt", "lower", _PLAN),
    ("optimizer.cost_q_error.p50", "x", "lower",
     "executor.work_per_stmt on scan_agg and cold_plan"),
    ("executor.execute.ms", "ms", "lower", _EXEC),
    ("executor.execute.share", "share", "lower", _EXEC),
    ("executor.work_per_stmt", "work", "lower", _EXEC),
    ("executor.work_per_row_returned", "work", "lower", _EXEC),
    ("executor.fused_share", "share", "higher", _EXEC),
) + tuple(
    ("operators.%s.ms" % op, "ms", "lower", _EXEC) for op in OPERATORS
) + (
    ("segments.decode.ms", "ms", "lower", _SEG),
    ("segments.decode.calls", "1/stmt", "lower", _SEG),
    ("segments.bytes_decoded_per_stmt", "bytes", "lower", _SEG),
    ("segments.pruned_share", "share", "higher", _SEG),
    ("segments.encode.ms", "ms", "lower", _STORE),
    ("storage.insert_rows.us_per_row", "us", "lower", _STORE),
    ("storage.row_groups.ms", "ms", "lower", _STORE),
    ("storage.row_groups.calls", "1/stmt", "lower", _STORE),
    ("storage.seals", "count", "lower", _STORE),
    ("storage.encoded_bytes_per_row", "bytes", "lower", _STORE),
    ("catalog.snapshot.ms", "ms", "lower", _STORE),
    ("catalog.analyze.ms", "ms", "lower", _STORE),
    ("trace.overhead_x", "x", "lower", "nothing: the cost of looking"),
    ("trace.unattributed_share", "share", "lower",
     "nothing: parts must sum to the whole"),
)


class ReplayStats:
    """What the load generator reads off each reply in a traced replay
    (the engine's own per-run telemetry, summed by name).

    A reading that is ``None`` — the field it came from no longer exists
    — turns that sum to ``None`` for good, so the metrics derived from
    it read ``null`` instead of a wrong number.
    """

    def __init__(self):
        self.sums = {}
        self.cost_q_errors = []

    def add(self, name, value):
        total = self.sums.get(name, 0)
        self.sums[name] = (None if value is None or total is None
                           else total + value)

    def get(self, name):
        return self.sums.get(name, 0)

    def merge(self, other):
        for name, value in other.sums.items():
            self.add(name, value)
        self.cost_q_errors += other.cost_q_errors


def _ratio(num, den):
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def compute(tracer, stats, counters, latency, slowness=1.0):
    """Every :data:`LAYER_METRICS` value (``None`` where its layer could
    not be observed).

    Args:
        tracer: the :class:`spans.Tracer` after the traced replay.
        stats: the replay's merged :class:`ReplayStats`.
        counters: cache/admission/storage counter deltas over the replay.
        latency: ``traced_mean``/``untraced_mean`` of the two replays
            and the route comparison (``snapshot_penalty``,
            ``gated_extra``, ``embedded_p50``), in seconds at reference
            speed.
        slowness: the machine's slowness over the traced replay
            (:mod:`calibrate`); span and operator times are divided by
            it, so layer times are at reference speed too.
    """
    by_name, n_roots, root_seconds, root_self = tracer.totals()
    n = max(n_roots, 1)
    to_ms = 1e3 / slowness

    def spans(name, field, scale=to_ms / n):
        if name in tracer.missing:
            return None
        return by_name.get(name, (0, 0.0, 0.0))[field] * scale

    def calls(name):
        return spans(name, 0, 1.0 / n)

    def incl(name):
        return spans(name, 1)

    def self_(name):
        return spans(name, 2)

    def share(name):
        return _ratio(spans(name, 1, 1.0), root_seconds)

    def ms(seconds):  # of a latency already at reference speed
        return None if seconds is None else seconds * 1e3

    root_self_ms = None
    if "server.execute" not in tracer.missing:
        root_self_ms = self_("server.execute") + (
            self_("server.insert_rows") or 0.0)
    def per_read(name, scale=1.0):
        total = stats.get(name)
        return None if total is None else total * scale / reads

    reads = max(stats.get("reads"), 1)
    q_errors = stats.cost_q_errors
    insert_seconds = spans("storage.insert_rows", 1, 1.0 / slowness)
    queue_wait = stats.get("queue_wait")
    values = {
        "server.execute.self_ms": root_self_ms,
        "server.pin_snapshot.ms": incl("server.pin_snapshot"),
        "server.snapshot_penalty_x": latency.get("snapshot_penalty"),
        "server.commits": counters.get("commits"),
        "session.execute.self_ms": self_("session.execute"),
        "session.gated.extra_ms": ms(latency.get("gated_extra")),
        "embedded.execute.p50_ms": ms(latency.get("embedded_p50")),
        "admission.admit.ms": incl("admission.admit"),
        "admission.settle.ms": incl("admission.settle"),
        "admission.queued": counters.get("queued"),
        "admission.shed": counters.get("shed"),
        "admission.queue_wait_ms": (
            None if queue_wait is None else queue_wait * to_ms / n),
        "pipeline.prepare.self_ms": self_("pipeline.prepare"),
        "pipeline.prepare.share": share("pipeline.prepare"),
        "pipeline.execute_prepared.self_ms": self_(
            "pipeline.execute_prepared"),
        "pipeline.plan_cache.hit_rate": _ratio(
            counters.get("plan_hits"), counters.get("plan_lookups")),
        "pipeline.plan_cache.invalidations": counters.get(
            "plan_invalidations"),
        "pipeline.query_cache.hit_rate": _ratio(
            counters.get("query_hits"), counters.get("query_lookups")),
        "sql.parse.ms": incl("sql.parse"),
        "sql.lower.ms": incl("sql.lower"),
        "optimizer.plan.ms": incl("optimizer.plan"),
        "optimizer.plans_built": calls("optimizer.plan"),
        "optimizer.cost_q_error.p50": (
            statistics.median(q_errors) if q_errors else None),
        "executor.execute.ms": incl("executor.execute"),
        "executor.execute.share": share("executor.execute"),
        "executor.work_per_stmt": per_read("work"),
        "executor.work_per_row_returned": _ratio(
            stats.get("work"), max(stats.get("rows_returned"), 1)),
        "executor.fused_share": per_read("fused"),
        "segments.decode.ms": incl("segments.decode"),
        "segments.decode.calls": calls("segments.decode"),
        "segments.bytes_decoded_per_stmt": per_read("bytes_decoded"),
        "segments.pruned_share": _ratio(
            stats.get("segments_pruned"), stats.get("segments_total")),
        "segments.encode.ms": incl("segments.encode"),
        "storage.insert_rows.us_per_row": (
            None if insert_seconds is None
            else _ratio(insert_seconds * 1e6, stats.get("rows_inserted"))),
        "storage.row_groups.ms": incl("storage.row_groups"),
        "storage.row_groups.calls": calls("storage.row_groups"),
        "storage.seals": counters.get("seals"),
        "storage.encoded_bytes_per_row": counters.get(
            "encoded_bytes_per_row"),
        "catalog.snapshot.ms": incl("catalog.snapshot"),
        "catalog.analyze.ms": incl("catalog.analyze"),
        "trace.overhead_x": _ratio(
            latency.get("traced_mean"), latency.get("untraced_mean")),
        "trace.unattributed_share": _ratio(root_self, root_seconds),
    }
    for op in OPERATORS:
        values["operators.%s.ms" % op] = (
            None if stats.get("operators") is None
            else per_read("operators." + op, to_ms))
    return {name: values[name] for name, __, __, __ in LAYER_METRICS}
