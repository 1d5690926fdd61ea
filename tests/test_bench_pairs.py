"""The verdict rule of ``tools/bench_pairs.py`` on canned numbers (no
benchmark is run here): better needs nine wins in ten *and* a gap wider
than the parent's own quartiles; a spread wider than the bound is
unresolved, never unchanged; worse is the median beyond the bound."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs",
    Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [10.0, 10.4, 10.8, 11.0, 10.2, 10.6, 10.9, 10.1, 10.5, 10.7]


def _shift(values, factor):
    return [v * factor for v in values]


@pytest.mark.parametrize("label,change,better,bound,verdict,wins", [
    ("a fifth of the latency", _shift(PARENT, 0.2), "lower", 0.25,
     "better", 10),
    ("four times the throughput", _shift(PARENT, 4.0), "higher", 0.25,
     "better", 10),
    # Every pair won, but by less than the parent's own quartile gap.
    ("wins inside the noise", _shift(PARENT, 0.99), "lower", 0.25,
     "within bound", 10),
    # Far beyond the parent's quartiles, but only eight pairs of ten.
    ("eight wins are not nine",
     _shift(PARENT[:8], 0.9) + _shift(PARENT[8:], 1.01), "lower", 0.25,
     "within bound", 8),
    ("slower beyond the bound", _shift(PARENT, 1.4), "lower", 0.25,
     "worse", 0),
    ("slower inside the bound", _shift(PARENT, 1.1), "lower", 0.25,
     "within bound", 0),
    ("lower throughput beyond the bound", _shift(PARENT, 0.7), "higher",
     0.25, "worse", 0),
    ("a tie is nobody's win", list(PARENT), "lower", 0.25,
     "within bound", 0),
])
def test_verdicts(label, change, better, bound, verdict, wins):
    row = bench_pairs.judge(PARENT, change, better, bound)
    assert (row["verdict"], row["wins"]) == (verdict, wins), label


def test_a_tight_metric_is_judged_against_its_own_small_bound():
    """``peak_rss_mb``: 5% bound, runs a percent apart."""
    rss = [162.4, 162.9, 163.1, 163.8, 164.0, 164.2, 164.6, 165.0, 165.2,
           165.4]
    assert bench_pairs.judge(
        rss, _shift(rss, 1.02), "lower", 0.05)["verdict"] == "within bound"
    assert bench_pairs.judge(
        rss, _shift(rss, 1.08), "lower", 0.05)["verdict"] == "worse"
    assert bench_pairs.judge(
        rss, _shift(rss, 0.97), "lower", 0.05)["verdict"] == "better"


def test_a_spread_wider_than_the_bound_is_unresolved_not_unchanged():
    noisy = [5.0, 14.0, 6.0, 15.0, 5.5, 13.0, 7.0, 16.0, 6.5, 12.0]
    same_median = [10.0] * 10
    row = bench_pairs.judge(noisy, same_median, "lower", 0.25)
    assert row["verdict"] == "unresolved"
    # ... even when the median looks far worse: the runs cannot tell.
    assert bench_pairs.judge(
        noisy, [v * 1.5 for v in noisy], "lower", 0.25
    )["verdict"] == "unresolved"
    # Unless every run of the change beats every run of the parent —
    # no regression then, but a gap inside the parent's own quartiles
    # is still no gain.
    row = bench_pairs.judge(noisy, [4.0 + i / 100 for i in range(10)],
                            "lower", 0.25)
    assert (row["verdict"], row["wins"]) == ("within bound", 10)
    assert row["parent"][0] < row["parent"][1] < row["parent"][2]


def test_one_pair_has_no_quartiles_to_clear():
    row = bench_pairs.judge([10.0], [2.0], "lower", 0.25)
    assert row["parent"] == (10.0, 10.0, 10.0)
    assert (row["verdict"], row["wins"], row["worse_by"]) == (
        "better", 1, -0.8)
