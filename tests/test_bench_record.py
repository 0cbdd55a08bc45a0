"""tools/bench_record.py: pair wins and quartiles from synthetic runs."""

import importlib.util
from pathlib import Path

RECORDER = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"


def load_recorder():
    spec = importlib.util.spec_from_file_location("bench_record", RECORDER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def run(pair, side, run_s, work_per_s, failed=0, digest="d", seed=3):
    return {"pair": pair, "side": side, "seed": seed, "failed": failed, "digest": digest,
            "metrics": {"run_s": run_s, "work_per_s": work_per_s}}


def test_summary_counts_wins_in_each_metric_direction():
    rec = load_recorder()
    runs = [run(0, "parent", 2.0, 1.0), run(0, "change", 1.0, 2.0),
            run(1, "change", 3.0, 1.0, failed=1), run(1, "parent", 3.0, 0.5),
            run(2, "parent", 4.0, 1.0), run(2, "change", 1.5, 1.0, digest="e"),
            {"pair": 3, "side": "parent", "seed": 3, "failed": None, "digest": None,
             "metrics": None},
            run(3, "change", 1.0, 9.0)]
    s = rec.summarise(runs, {"run_s": "lower", "work_per_s": "higher"})
    # a tie counts for neither side; a pair with a missing run counts for neither
    assert s["change_wins"] == {"run_s": "2/4", "work_per_s": "2/4"}
    assert s["parent"]["metrics"]["run_s"] == {"median": 3.0, "q1": 2.5, "q3": 3.5, "n": 3}
    assert s["parent"]["runs_without_result"] == 1
    assert s["change"]["failed"] == 1 and s["parent"]["failed"] == 0
    assert s["change"]["digests"] == {"3": ["d", "e"]}
    assert rec.spread([5.0]) == {"median": 5.0, "q1": 5.0, "q3": 5.0, "n": 1}


def pairs(parent, change):
    """Runs of pairs 0, 1, ... with these run_s values, the parent first in even pairs."""
    return [run(i, side, value, 1.0) for i, (a, b) in enumerate(zip(parent, change))
            for side, value in (("parent", a), ("change", b))]


def test_ratio_interval_covers_a_known_shift():
    rec = load_recorder()
    parent = [1.0 + 0.03 * ((7 * i) % 10 - 4.5) / 4.5 for i in range(10)]
    # ratios 1.1 (1 + d), d spread evenly over [-2%, 2%]
    change = [1.1 * p * (1 + 0.02 * ((3 * i) % 10 - 4.5) / 4.5) for i, p in enumerate(parent)]
    r = rec.summarise(pairs(parent, change), {"run_s": "lower"})["change_over_parent"]["run_s"]
    assert len(r["ratios"]) == 10 and abs(r["median"] - 1.1) < 1e-12
    lo, hi = r["interval"]
    assert 1.0 < lo < 1.1 < hi  # covers the shift, and resolves it from no change
    # the second and ninth of ten sorted ratios: 1 - 2 P(Bin(10, 1/2) <= 1) = 1 - 22/1024
    assert r["coverage"] == 1 - 22 / 1024
    assert sorted(r["ratios"]).index(lo) == 1 and sorted(r["ratios"]).index(hi) == 8


def test_one_outlier_pair_does_not_flip_the_ratio():
    rec = load_recorder()
    parent = [1.0 + 0.01 * i for i in range(10)]
    faster = [0.9 * p for p in parent]
    for outlier in (5.0, 0.01):  # one pair far slower, or far faster, than the rest
        change = faster[:4] + [outlier * parent[4]] + faster[5:]
        r = rec.summarise(pairs(parent, change), {"run_s": "lower"})["change_over_parent"]["run_s"]
        assert r["median"] < 1 and r["interval"][1] < 1
    slower = [1.1 * p for p in parent]
    change = slower[:4] + [0.01 * parent[4]] + slower[5:]
    r = rec.summarise(pairs(parent, change), {"run_s": "lower"})["change_over_parent"]["run_s"]
    assert r["median"] > 1 and r["interval"][0] > 1


def test_ratio_interval_with_few_pairs_is_the_whole_range():
    rec = load_recorder()
    runs = [run(0, "parent", 2.0, 1.0), run(0, "change", 1.0, 2.0),
            run(1, "change", 3.0, 1.0), run(1, "parent", 3.0, 0.5),
            run(2, "parent", 4.0, 0.0), run(2, "change", 1.5, 1.0),
            {"pair": 3, "side": "parent", "seed": 3, "failed": None, "digest": None,
             "metrics": None},
            run(3, "change", 1.0, 9.0)]
    s = rec.summarise(runs, {"run_s": "lower", "work_per_s": "higher"})
    # pair 3 has no parent result; a zero parent value gives no ratio
    assert s["change_over_parent"]["run_s"] == {"ratios": [0.5, 1.0, 0.375], "median": 0.5,
                                                "interval": [0.375, 1.0], "coverage": 0.75}
    assert s["change_over_parent"]["work_per_s"]["ratios"] == [2.0, 2.0]
