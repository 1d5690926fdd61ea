"""Shared helpers for the benchmark suite.

Each ``bench_*`` module regenerates one experiment from DESIGN.md §5: the
benchmark measures the end-to-end experiment wall time (1 round — these
are experiment regenerations, not micro-benchmarks), and the experiment's
result tables are printed so ``pytest benchmarks/ --benchmark-only`` output
doubles as the EXPERIMENTS.md source of truth.

Set ``REPRO_BENCH_FAST=1`` to run the shrunken CI-sized variants.
Full-size runs are marked ``slow`` (deselect with ``-m 'not slow'``).
"""

import os

from repro.harness import run_experiment

FAST = os.environ.get("REPRO_BENCH_FAST", "0") == "1"


def run_experiment_benchmark(benchmark, exp_id, fast=None):
    """Benchmark one experiment regeneration and print its tables."""
    effective_fast = FAST if fast is None else fast
    tables = benchmark.pedantic(
        run_experiment,
        args=(exp_id,),
        kwargs={"seed": 0, "fast": effective_fast, "show": False},
        rounds=1,
        iterations=1,
    )
    print()
    for table in tables:
        table.show()
    return tables
