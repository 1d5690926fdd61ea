#!/usr/bin/env python3
"""Compare two reports of ``run.py`` under the benchmark's own bounds.

    python3 benchmarks/e2e/compare.py A.json B.json [--raw]

``A`` is the parent (or the first of two runs of one commit — the A/A
check), ``B`` the change. One row per workload x end-to-end metric:

* ``ok`` — B's median is no worse than A's by more than the metric's
  bound in ``BENCHMARK.json``;
* ``worse`` — it is;
* ``unresolved`` — the spread between rounds (interquartile range over
  the median, of either side) is wider than the bound, so the medians
  cannot settle it — unless every round of B reads better than every
  round of A, which is ``ok``.

``failed_share`` has an absolute bound: anything above 0 is ``worse``.
Exits 1 if any row is ``worse``. ``--raw`` judges the unscaled times the
reports carry beside the speed-normalised ones (``peak_rss_mb`` has no
raw twin and is left out): what the verdicts would be without
``calibrate.py``.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                        "BENCHMARK.json")


def spread(values, median):
    """Interquartile range as a share of the median (0 for one round)."""
    if len(values) < 2 or not median:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(median)


def judge(a, b, better, bound):
    """``(verdict, worse_by, spread)`` for one metric's two summaries."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / abs(a["median"])
    a_rounds = [v for v in a["rounds"] if v is not None]
    b_rounds = [v for v in b["rounds"] if v is not None]
    wide = max(spread(a_rounds, a["median"]), spread(b_rounds, b["median"]))
    if wide > bound:
        all_better = (max(b_rounds) < min(a_rounds) if better == "lower"
                      else min(b_rounds) > max(a_rounds))
        return ("ok" if all_better else "unresolved"), worse_by, wide
    return ("worse" if worse_by > bound else "ok"), worse_by, wide


def compare(report_a, report_b, manifest, section="end_to_end"):
    """Rows ``(workload, metric, unit, a, b, worse_by, bound, spread,
    verdict)`` for every workload x end-to-end metric pair."""
    rows = []
    for workload in (w["name"] for w in manifest["workloads"]):
        a_w = report_a["workloads"][workload]
        b_w = report_b["workloads"][workload]
        for metric in manifest["end_to_end"]:
            name = metric["name"]
            if name not in a_w[section]:
                continue
            a, b = a_w[section][name], b_w[section][name]
            verdict, worse_by, wide = judge(
                a, b, metric["better"], metric["bound"])
            rows.append((workload, name, metric["unit"], a["median"],
                         b["median"], worse_by, metric["bound"], wide,
                         verdict))
        rows.append((workload, "failed_share", "share", a_w["failed_share"],
                     b_w["failed_share"], b_w["failed_share"], 0.0, 0.0,
                     "worse" if b_w["failed_share"] > 0 else "ok"))
    return rows


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    raw = "--raw" in argv
    if raw:
        argv.remove("--raw")
    if len(argv) != 2:
        sys.exit("usage: compare.py A.json B.json [--raw]")
    with open(argv[0]) as fh:
        report_a = json.load(fh)
    with open(argv[1]) as fh:
        report_b = json.load(fh)
    with open(MANIFEST) as fh:
        manifest = json.load(fh)
    rows = compare(report_a, report_b, manifest,
                   "end_to_end_raw" if raw else "end_to_end")
    print("%-11s %-17s %-5s %12s %12s %9s %6s %7s  %s" % (
        "workload", "metric", "unit", "A", "B", "worse_by", "bound",
        "spread", "verdict"))
    for w, name, unit, a, b, worse_by, bound, wide, verdict in rows:
        print("%-11s %-17s %-5s %12.6g %12.6g %+8.1f%% %6.2f %6.1f%%  %s" % (
            w, name, unit, a, b, 100 * worse_by, bound, 100 * wide, verdict))
    tally = {v: sum(1 for r in rows if r[-1] == v)
             for v in ("ok", "worse", "unresolved")}
    print("%(ok)d ok, %(worse)d worse, %(unresolved)d unresolved" % tally)
    return 1 if tally["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
