#!/usr/bin/env python
"""Where the benchmark's catalog build spends its time, in two checkouts.

    python tools/load_phases.py <parent_dir> <change_dir>
        [--pairs 5] [--seed 0] [--builds 3] [--f-segments 4]

Each round is one fresh process in one tree that generates the e2e
dataset for ``--seed`` and times ``--builds`` runs of
``benchmarks/e2e/dataset.build`` (imported from that tree, not edited),
with a ``gc.collect()`` before each build, as the benchmark's set-up
does. Every build is split into phases by wrapping the engine entry
points that do the work, each charged its own time only (a seal inside
an insert counts as seal, not insert):

* ``insert`` — ``Table.insert_rows``: typing the rows and appending them;
* ``seal`` — ``ColumnSegment.encode``: the bulk constructor's segments
  and every tail that fills;
* ``index`` — ``Catalog.create_index`` (``CREATE INDEX f_id``);
* ``analyze`` — ``Catalog.analyze`` (``ANALYZE``);
* ``other`` — the rest of ``dataset.build``;
* ``build`` — the whole of it.

A round reports each phase's median over its builds. Pairs alternate
which tree goes first; the tool prints every round, then per phase both
sides' medians with [Q1, Q3] and the change's share of the parent's
median. Run it with nothing else on the box.
"""

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time

from bench_pairs import quartiles

PHASES = ("insert", "seal", "index", "analyze", "other", "build")


class PhaseClock:
    """Self time per phase: a wrapped call's time less that of the
    wrapped calls it makes."""

    def __init__(self):
        self.ms = dict.fromkeys(PHASES[:-2], 0.0)
        self._stack = []

    def wrap(self, phase, fn):
        clock = time.perf_counter

        def timed(*args, **kwargs):
            frame = [clock(), 0.0]
            self._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                total = clock() - frame[0]
                self.ms[phase] += 1e3 * (total - frame[1])
                if self._stack:
                    self._stack[-1][1] += total
        return timed


def child(tree, seed, builds, f_segments):
    """One round in ``tree``: ``{phase: median ms}`` over ``builds``."""
    sys.path[:0] = [os.path.join(tree, "src"),
                    os.path.join(tree, "benchmarks", "e2e")]
    import dataset
    from repro.engine.catalog import Catalog
    from repro.engine.segments import ColumnSegment
    from repro.engine.storage import Table

    clock = PhaseClock()
    ColumnSegment.encode = classmethod(
        clock.wrap("seal", ColumnSegment.__dict__["encode"].__func__))
    Table.insert_rows = clock.wrap("insert", Table.insert_rows)
    Catalog.create_index = clock.wrap("index", Catalog.create_index)
    Catalog.analyze = clock.wrap("analyze", Catalog.analyze)
    data = dataset.generate(seed, f_segments=f_segments)
    rounds = []
    for __ in range(builds):
        gc.collect()
        clock.ms = dict.fromkeys(clock.ms, 0.0)
        t0 = time.perf_counter()
        dataset.build(data)
        build = 1e3 * (time.perf_counter() - t0)
        rounds.append(dict(clock.ms, other=build - sum(clock.ms.values()),
                           build=build))
    return {p: statistics.median(r[p] for r in rounds) for p in PHASES}


def run_round(tree, args):
    """``child`` in a fresh interpreter: the JSON on its last line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", tree,
         "--seed", str(args.seed), "--builds", str(args.builds),
         "--f-segments", str(args.f_segments)],
        env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.exit("%s: round failed (exit %d)" % (tree, proc.returncode))
    return json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_dir", nargs="?")
    parser.add_argument("change_dir", nargs="?")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--builds", type=int, default=3)
    parser.add_argument("--f-segments", type=int, default=4)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.child, args.seed, args.builds,
                               args.f_segments)))
        return 0
    if not (args.parent_dir and args.change_dir):
        parser.error("parent_dir and change_dir are required")
    trees = {"parent": os.path.abspath(args.parent_dir),
             "change": os.path.abspath(args.change_dir)}
    runs = {side: [] for side in trees}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            reply = run_round(trees[side], args)
            runs[side].append(reply)
            print("pair %d %-6s %s" % (pair + 1, side, "  ".join(
                "%s=%.2f" % (p, reply[p]) for p in PHASES)), flush=True)

    print("\nseed %d, f_segments %d, %d pairs, median of %d builds a round;"
          " ms, [Q1, Q3] beside each median"
          % (args.seed, args.f_segments, args.pairs, args.builds))
    print("%-8s %26s %26s %8s" % ("phase", "parent", "change", "change/p"))
    for phase in PHASES:
        rows = {side: quartiles([r[phase] for r in runs[side]])
                for side in trees}
        p_med = rows["parent"][1]
        print("%-8s %26s %26s %8s" % (
            phase,
            *("%.2f [%.2f, %.2f]" % (rows[s][1], rows[s][0], rows[s][2])
              for s in ("parent", "change")),
            "%.3f" % (rows["change"][1] / p_med) if p_med else "-"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
