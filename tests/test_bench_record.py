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
