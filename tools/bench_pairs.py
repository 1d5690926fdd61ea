#!/usr/bin/env python
"""Alternating parent/change pairs of the end-to-end benchmark.

    python tools/bench_pairs.py <parent_dir> <change_dir>
        [--workload W ...] [--pairs 10] [--seed 0] [--seconds 15]

``parent_dir`` and ``change_dir`` are two checkouts of this repository
(``git archive <commit> | tar -x -C <dir>``). For every pair and
workload the tool runs one round of the benchmark in each tree —

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0

(the command and the workload list come from the change's
``BENCHMARK.json``) — alternating which side goes first, prints every
run as it finishes, and then, per workload x end-to-end metric, both
medians with [Q1, Q3], how many pairs the change won, and a verdict by
the rule of the choosing-metrics guide (:func:`judge`). It only *calls*
the benchmark; nothing under ``benchmarks/e2e`` is imported or edited.
Run it with nothing else on the box. Exits 1 on any ``worse``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def quartiles(values):
    """``(Q1, median, Q3)``; with fewer than four runs the extremes
    stand in for the quartiles (the estimate would extrapolate)."""
    if len(values) < 4:
        return min(values), statistics.median(values), max(values)
    q1, __, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def judge(parent, change, better, bound):
    """Verdict for one workload x metric over paired runs.

    ``parent[i]`` and ``change[i]`` are the two sides of pair ``i``;
    ``better`` is ``"lower"`` or ``"higher"``; ``bound`` is the share of
    the parent's median the metric may worsen by. Returns a dict with
    each side's ``(Q1, median, Q3)``, ``wins`` (pairs the change won,
    ties counting for neither side), ``worse_by`` (share of the parent's
    median; negative is an improvement) and ``verdict``:

    * ``better`` — the change wins at least nine tenths of all pairs
      and the medians differ by more than the parent's own
      interquartile range;
    * ``unresolved`` — the interquartile range of either side is wider
      than the bound (as a share of that side's median), so the medians
      cannot settle it, unless every run of the change reads better
      than every run of the parent;
    * ``worse`` — the change's median is worse by more than the bound;
    * ``within bound`` — anything else.
    """
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    gain = sign * (p_med - c_med)
    worse_by = -gain / abs(p_med) if p_med else 0.0
    spread = max((p_q3 - p_q1) / abs(p_med) if p_med else 0.0,
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    all_better = (max(sign * c for c in change)
                  < min(sign * p for p in parent))
    if wins >= 0.9 * len(parent) and gain > p_q3 - p_q1:
        verdict = "better"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "worse"
    else:
        verdict = "within bound"
    return {"parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
            "wins": wins, "worse_by": worse_by, "verdict": verdict}


def run_round(command, tree, workload, seed, seconds):
    """One benchmark round in ``tree``: the JSON object on the last line
    of its standard output."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit("%s printed nothing for %s (exit %d)"
                 % (tree, workload, proc.returncode))
    return json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    args = parser.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent_dir),
             "change": os.path.abspath(args.change_dir)}
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    workloads = args.workload or [w["name"] for w in manifest["workloads"]]
    metrics = manifest["end_to_end"]

    runs = {(w, side): [] for w in workloads for side in trees}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                reply = run_round(manifest["command"], trees[side], workload,
                                  args.seed, args.seconds)
                runs[workload, side].append(reply)
                print("pair %d %-11s %-6s failed %d/%d  %s" % (
                    pair + 1, workload, side, reply["failed"],
                    reply["attempted"],
                    "  ".join("%s=%.4g" % (m["name"],
                                           reply["metrics"][m["name"]]["value"])
                              for m in metrics)), flush=True)

    print("\nseed %d, %d pairs of %gs rounds; [Q1, Q3] beside each median"
          % (args.seed, args.pairs, args.seconds))
    print("%-11s %-17s %-4s %31s %31s %6s %8s  %s" % (
        "workload", "metric", "unit", "parent", "change", "wins", "worse_by",
        "verdict"))
    any_worse = False
    for workload in workloads:
        sides = {side: runs[workload, side] for side in trees}
        for m in metrics:
            values = {side: [r["metrics"][m["name"]]["value"] for r in replies]
                      for side, replies in sides.items()}
            row = judge(values["parent"], values["change"], m["better"],
                        m["bound"])
            any_worse |= row["verdict"] == "worse"
            print("%-11s %-17s %-4s %31s %31s %3d/%-2d %+7.1f%%  %s" % (
                workload, m["name"], m["unit"],
                "%.4g [%.4g, %.4g]" % (row["parent"][1], row["parent"][0],
                                       row["parent"][2]),
                "%.4g [%.4g, %.4g]" % (row["change"][1], row["change"][0],
                                       row["change"][2]),
                row["wins"], args.pairs, 100 * row["worse_by"],
                row["verdict"]))
        failed = {side: (sum(r["failed"] for r in replies),
                         sum(r["attempted"] for r in replies))
                  for side, replies in sides.items()}
        more_fail = (failed["change"][0] * failed["parent"][1]
                     > failed["parent"][0] * failed["change"][1])
        any_worse |= more_fail
        print("%-11s %-17s %-4s %31s %31s %25s" % (
            workload, "failed/attempted", "",
            "%d/%d" % failed["parent"], "%d/%d" % failed["change"],
            "worse" if more_fail else "ok"))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
