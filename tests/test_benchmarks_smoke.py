"""Smoke coverage for every ``benchmarks/bench_*.py`` entry point.

The benchmark suite lives outside the default test paths, so before this
test existed a refactor could silently break a benchmark and nobody would
notice until the next manual ``pytest benchmarks/`` run. This module makes
benchmark drift break tier-1 instead: every bench file is imported (import
errors fail immediately) and its experiment is regenerated once in fast
mode through the harness.

The experiment runs are deliberately ``fast=True`` and seed-pinned; the
full-size numbers belong to the benchmark suite proper.
"""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
BENCH_FILES = sorted(p.name for p in BENCH_DIR.glob("bench_*.py"))

#: bench_e08_end_to_end.py -> E8, bench_f1_taxonomy.py -> F1
_EXP_RE = re.compile(r"^bench_([ef])(\d+)_")


def _import_file(module_name, path):
    spec = importlib.util.spec_from_file_location(module_name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load(name):
    """Import one bench module with the *benchmarks* conftest visible.

    Bench modules do ``from conftest import ...``; under pytest the name
    ``conftest`` is already bound to ``tests/conftest.py``, so the
    benchmarks conftest is swapped into ``sys.modules`` for the duration
    of the import and restored afterwards.
    """
    saved = sys.modules.get("conftest")
    sys.modules["conftest"] = _import_file(
        "bench_smoke_conftest", BENCH_DIR / "conftest.py"
    )
    try:
        return _import_file("bench_smoke_%s" % name[:-3], BENCH_DIR / name)
    finally:
        if saved is None:
            sys.modules.pop("conftest", None)
        else:
            sys.modules["conftest"] = saved


def test_every_bench_file_is_covered():
    """The glob really found the suite (guards against a renamed dir)."""
    assert len(BENCH_FILES) >= 18
    assert all(_EXP_RE.match(n) for n in BENCH_FILES)


@pytest.mark.parametrize("name", BENCH_FILES)
def test_bench_entry_point_fast(name):
    _load(name)
    match = _EXP_RE.match(name)
    assert match, "bench file %s has no experiment id" % name
    exp_id = "%s%d" % (match.group(1).upper(), int(match.group(2)))
    from repro.harness import run_experiment

    tables = run_experiment(exp_id, seed=0, fast=True, show=False)
    assert tables
