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


def _series(base, change, direction="higher"):
    runs = [{"first": "base", "base": _run(x=b), "change": _run(x=c)}
            for b, c in zip(base, change)]
    return bench_pairs.series("w", list(range(len(runs))), runs, {"x": direction})


def test_claim_needs_ten_pairs_nine_tenths_won_and_a_gain_beyond_the_base_iqr():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.5, 99.5]
    ahead = [b + 5 for b in base]
    # base quartiles 99.5 and 100.5: an IQR of 1
    s = _series(base, ahead)
    assert s["metrics"]["x"]["claim"] and not s["short"]
    # nine wins of ten still claim; eight do not
    assert _series(base, ahead[:9] + [90.0])["metrics"]["x"]["claim"]
    assert not _series(base, ahead[:8] + [90.0, 90.0])["metrics"]["x"]["claim"]
    # every pair won, but the medians only 0.9 apart, inside the base's IQR
    assert not _series(base, [b + 0.9 for b in base])["metrics"]["x"]["claim"]
    # lower is better: the same numbers claim the other way round
    assert _series(ahead, base, "lower")["metrics"]["x"]["claim"]
    assert not _series(base, ahead, "lower")["metrics"]["x"]["claim"]


def test_a_series_of_fewer_than_ten_pairs_is_short_and_claims_nothing():
    s = _series([100.0] * 9, [200.0] * 9)
    assert s["short"] and s["metrics"]["x"]["wins"] == 9
    assert not s["metrics"]["x"]["claim"]


def test_a_short_n8_request_is_flagged_before_any_run(monkeypatch, capsys, tmp_path):
    def stop(rev, dest):
        raise SystemExit("no export in this test")

    monkeypatch.setattr(bench_pairs, "export", stop)
    with pytest.raises(SystemExit):
        bench_pairs.main(["A", "B", "--out", str(tmp_path / "bench.json"), "--n8", "5"])
    assert "--n8 5: fewer than 10 pairs" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        bench_pairs.main(["A", "B", "--out", str(tmp_path / "bench.json"), "--n8", "10"])
    assert capsys.readouterr().err == ""
