"""The statistics tools/bench_pairs.py writes for a series of paired runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _run(**metrics):
    return {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}


def test_pairs_alternate_which_side_runs_first():
    order = []
    runs = bench_pairs.paired({"base": "B", "change": "C"}, 3,
                              lambda root, i: order.append((root, i)) or root + str(i))
    assert order == [("B", 0), ("C", 0), ("C", 1), ("B", 1), ("B", 2), ("C", 2)]
    assert [r["first"] for r in runs] == ["base", "change", "base"]
    assert runs[1] == {"first": "change", "base": "B1", "change": "C1"}


def test_series_counts_wins_in_the_better_direction():
    base = [10.0, 12.0, 11.0, 13.0]
    change = [9.0, 12.0, 12.0, 10.0]
    runs = [{"first": "base", "base": _run(t=b, r=1 / b), "change": _run(t=c, r=1 / c)}
            for b, c in zip(base, change)]
    s = bench_pairs.series("w", [1, 2, 3, 4], runs, {"t": "lower", "r": "higher"})
    t = s["metrics"]["t"]
    # a tie (12 against 12) counts for neither side
    assert (t["wins"], t["pairs"]) == (2, 4)
    assert s["metrics"]["r"]["wins"] == 2
    assert t["base"]["median"] == 11.5 and t["change"]["median"] == 11.0
    assert t["ratio"] == pytest.approx(11.0 / 11.5)
    assert (t["base"]["q1"], t["base"]["q3"]) == (10.75, 12.25)
    assert t["base"]["iqr"] == pytest.approx(1.5)
    assert s["seeds"] == [1, 2, 3, 4] and s["runs"] is runs


def test_one_pair_has_no_spread():
    runs = [{"first": "base", "base": _run(t=2.0), "change": _run(t=1.0)}]
    t = bench_pairs.series("w", [1], runs, {"t": "lower"})["metrics"]["t"]
    assert t["base"] == {"median": 2.0, "q1": 2.0, "q3": 2.0, "iqr": 0.0}
    assert (t["wins"], t["ratio"]) == (1, 0.5)
