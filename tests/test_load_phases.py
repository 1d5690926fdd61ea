"""``tools/load_phases.py``: the catalog build split into phases, run at
``f_segments=1`` (one 65,536-row segment of ``f``) so it stays small."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "load_phases.py"


@pytest.fixture(scope="module")
def load_phases():
    sys.path.insert(0, str(TOOL.parent))
    try:
        import load_phases
        yield load_phases
    finally:
        sys.path.remove(str(TOOL.parent))


def _run(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          stdout=subprocess.PIPE, text=True, check=True,
                          timeout=300).stdout


def test_a_round_splits_the_build_into_its_phases(load_phases):
    reply = json.loads(_run("--child", ROOT, "--seed", 0, "--builds", 1,
                            "--f-segments", 1).splitlines()[-1])
    assert set(reply) == set(load_phases.PHASES)
    # One CREATE INDEX, one ANALYZE and sealed segments in every build.
    assert all(reply[p] > 0 for p in ("insert", "seal", "index", "analyze"))
    parts = sum(reply[p] for p in load_phases.PHASES[:-1])
    assert parts == pytest.approx(reply["build"])


def test_two_trees_print_one_row_per_phase(load_phases):
    out = _run(ROOT, ROOT, "--pairs", 1, "--builds", 1, "--f-segments", 1)
    assert "pair 1 parent" in out and "pair 1 change" in out
    table = out.split("change/p\n", 1)[1].splitlines()
    assert [row.split()[0] for row in table] == list(load_phases.PHASES)


def test_a_phase_is_charged_its_own_time_only(load_phases):
    clock = load_phases.PhaseClock()
    seal = clock.wrap("seal", lambda: time.sleep(0.05))

    def insert():
        time.sleep(0.005)
        seal()
    clock.wrap("insert", insert)()
    # The nested seal's 50 ms are the seal's, not the insert's.
    assert clock.ms["seal"] >= 50
    assert 5 <= clock.ms["insert"] < 50
