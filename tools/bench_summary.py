#!/usr/bin/env python
"""One-table summary of every committed BENCH_P*.json artifact.

``make bench-summary`` (or ``python tools/bench_summary.py``) reads the
``BENCH_P8.json`` file (P1–P7 and P9 are retired — their last readings
are rows in EXPERIMENTS.md) the benchmark regenerates
(``make bench-json``) and prints each bench's headline numbers in a
single fixed-width table — the quick "did a refactor move anything"
view, without rerunning anything.

Every extractor is defensive (``dict.get`` with fallbacks), so a bench
whose schema drifted prints what it can instead of crashing the table;
a missing file prints a pointer at ``make bench-json``. Exit status is
non-zero only when *no* artifact could be read at all.

Usage::

    python tools/bench_summary.py [repo_root]
"""

import json
import os
import sys


def _num(value, fmt="%.2f"):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return str(value)
    return fmt % value


def _p8(result):
    iso = result.get("isolation", {})
    inter = result.get("interference", {})
    traffic = result.get("traffic", {})
    return [
        "%s sessions identical=%s" % (
            iso.get("n_sessions", "?"),
            iso.get("snapshot_reads_identical", "?"),
        ),
        "p95 interference %sx" % _num(
            inter.get("p95_interference_ratio"), "%.2f"
        ),
        "%s qps" % _num(traffic.get("throughput_qps"), "%.0f"),
    ]


#: file stem -> (label, headline extractor over one results[] entry).
BENCHES = (
    ("BENCH_P8", "P8 server", _p8),
)


def summarize(root="."):
    """``(rows, found)``: table rows for every bench, and how many files
    were actually readable."""
    rows, found = [], 0
    for stem, label, extractor in BENCHES:
        path = os.path.join(root, stem + ".json")
        if not os.path.exists(path):
            rows.append((label, "-", "missing (run: make bench-json)"))
            continue
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except (OSError, ValueError) as exc:
            rows.append((label, "-", "unreadable: %s" % exc))
            continue
        found += 1
        results = payload.get("results") or []
        if not isinstance(results, list) or not results:
            rows.append((label, "-", "no results recorded"))
            continue
        for result in results:
            if not isinstance(result, dict):
                continue
            size = "fast" if result.get("fast") else "full"
            try:
                headline = "; ".join(extractor(result))
            except Exception as exc:  # noqa: BLE001 - defensive table
                headline = "extractor failed: %s" % exc
            rows.append((label, size, headline))
    return rows, found


def render(rows):
    widths = [max(len(r[i]) for r in rows) for i in range(2)]
    lines = ["%-*s  %-*s  %s" % (widths[0], "bench", widths[1], "size",
                                 "headline")]
    lines.append("-" * max(len(lines[0]), 40))
    for label, size, headline in rows:
        lines.append("%-*s  %-*s  %s" % (widths[0], label, widths[1], size,
                                         headline))
    return "\n".join(lines)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    root = argv[0] if argv else os.path.join(os.path.dirname(__file__), "..")
    rows, found = summarize(root)
    print(render(rows))
    if not found:
        print("no BENCH_P*.json artifacts found under %s" % root,
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
