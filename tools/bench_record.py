"""Record a before/after benchmark comparison as BENCH_<label>.json.

    python3 tools/bench_record.py --label NAME --parent BASE_COMMIT --change HEAD \\
        --pairs vqe-2x4=10,quench-3x3=3,tracking-large=3 --seeds 3,41

Both revisions are exported with `git archive` into a temporary directory and
`perfbench/run.py --trace 0` runs from each export for BENCHMARK.json's
run_seconds, so only committed files are measured. For every workload the pairs alternate which side runs first
(the parent in even pairs); pair i uses seeds[i % len(seeds)]. The record
holds the machine (nproc, Python, numpy and scipy versions), both commits,
every run (metrics, digest, failed and attempted operations), and per side
the median and quartiles of each end-to-end metric, the digests per seed and
the failed count, plus how many pairs the change won on each metric (the
direction comes from BENCHMARK.json; ties count for neither side).

Per metric, change_over_parent holds the change/parent ratio of every pair
with both runs and a nonzero parent value (in pair order, "ratios"), their
median, and a distribution-free interval for the median ratio with its
coverage: the sign test's order statistics [x_(k), x_(n+1-k)] of the sorted
ratios, which cover the median with probability 1 - 2 P(Bin(n, 1/2) < k)
whatever the ratios' distribution. k is the largest whose coverage reaches
95%; below 6 pairs none does, and the interval is the whole range (k = 1)
with its lower coverage. An interval that excludes 1 resolves the change.
"""

import argparse
import io
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600
INTERVAL_LEVEL = 0.95


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True).stdout


def export(rev: str, dest: Path) -> str:
    """Extract the committed tree of rev into dest; return the full commit id."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit))) as tar:
        tar.extractall(dest, filter="data")
    return commit


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    digest = re.search(r"output digest (\S+)", proc.stdout)
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        # no result line: kept without metrics, counted as runs_without_result
        return {"exit_code": proc.returncode, "metrics": None, "failed": None,
                "attempted": None, "digest": None, "stderr": proc.stderr[-2000:]}
    return {"exit_code": proc.returncode,
            "metrics": {k: v["value"] for k, v in out["metrics"].items()},
            "failed": out["failed"], "attempted": out["attempted"],
            "digest": digest.group(1) if digest else None}


def spread(values: list) -> dict:
    # quantiles needs two points; one run is its own median and quartiles
    q1, med, q3 = statistics.quantiles(values * 2 if len(values) == 1 else values,
                                       n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def median_interval(values: list) -> dict:
    """The median of values and the sign-test interval for it (module docstring)."""
    x, n = sorted(values), len(values)
    coverage = [1 - 2 * sum(math.comb(n, i) for i in range(k)) / 2 ** n
                for k in range(1, (n + 1) // 2 + 1)]
    k = max([k for k, c in enumerate(coverage, 1) if c >= INTERVAL_LEVEL], default=1)
    return {"ratios": values, "median": statistics.median(x), "interval": [x[k - 1], x[n - k]],
            "coverage": coverage[k - 1]}


def summarise(runs: list, better: dict) -> dict:
    sides = {}
    for side in ("parent", "change"):
        mine = [r for r in runs if r["side"] == side]
        ok = [r for r in mine if r["metrics"] is not None]
        digests = {}
        for r in mine:
            digests.setdefault(str(r["seed"]), set()).add(r["digest"])
        sides[side] = {
            "metrics": {m: spread([r["metrics"][m] for r in ok]) for m in better} if ok else {},
            "digests": {s: sorted(d, key=str) for s, d in digests.items()},
            "failed": sum(r["failed"] for r in ok),
            "runs_without_result": len(mine) - len(ok),
        }
    wins = {}
    by_pair = {}
    for r in runs:
        by_pair.setdefault(r["pair"], {})[r["side"]] = r["metrics"]
    for m, direction in better.items():
        sign = 1 if direction == "lower" else -1
        wins[m] = sum(1 for p in by_pair.values() if p["parent"] and p["change"]
                      and sign * (p["change"][m] - p["parent"][m]) < 0)
    sides["change_wins"] = {m: f"{w}/{len(by_pair)}" for m, w in wins.items()}
    sides["change_over_parent"] = {}
    for m in better:
        ratios = [p["change"][m] / p["parent"][m] for _, p in sorted(by_pair.items())
                  if p["parent"] and p["change"] and p["parent"][m]]
        if ratios:
            sides["change_over_parent"][m] = median_interval(ratios)
    return sides


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--label", required=True)
    p.add_argument("--parent", required=True, help="git revision measured as the baseline")
    p.add_argument("--change", default="HEAD", help="git revision measured against it")
    p.add_argument("--pairs", required=True, help="workload=pairs, comma-separated")
    p.add_argument("--seeds", default="3", help="comma-separated; cycled over the pairs")
    args = p.parse_args(argv)
    plan = [(w, int(n)) for w, n in (item.split("=") for item in args.pairs.split(","))]
    seeds = [int(s) for s in args.seeds.split(",")]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    work = Path(tempfile.mkdtemp(prefix="bench_record-"))
    try:
        trees = {"parent": work / "parent", "change": work / "change"}
        commits = {side: export(rev, trees[side])
                   for side, rev in (("parent", args.parent), ("change", args.change))}
        record = {
            "label": args.label,
            "machine": {"nproc": os.cpu_count(), "platform": platform.platform(),
                        "python": platform.python_version(),
                        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy")},
            "parent": commits["parent"], "change": commits["change"],
            "command": "perfbench/run.py --workload W --seed S "
                       f"--seconds {seconds:g} --trace 0",
            "workloads": {},
        }
        for workload, n_pairs in plan:
            runs = []
            for i in range(n_pairs):
                seed = seeds[i % len(seeds)]
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    r = run_once(trees[side], workload, seed, seconds)
                    r.update(pair=i, side=side, seed=seed, first=side == order[0])
                    runs.append(r)
                    print(f"{workload} pair {i} {side:6s} seed {seed}: "
                          f"{json.dumps(r['metrics'])} failed={r['failed']}", flush=True)
            record["workloads"][workload] = {"pairs": n_pairs, **summarise(runs, better),
                                             "runs": runs}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for workload, w in record["workloads"].items():
        for m in better:
            a, b = w["parent"]["metrics"].get(m), w["change"]["metrics"].get(m)
            r = w["change_over_parent"].get(m)
            if a and b:
                ratio = (f"  ratio {r['median']:.4g} [{r['interval'][0]:.4g}, "
                         f"{r['interval'][1]:.4g}] at {r['coverage']:.1%}" if r else "")
                print(f"{workload:15s} {m:12s} {a['median']:.6g} [{a['q1']:.6g}, {a['q3']:.6g}] -> "
                      f"{b['median']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}]  "
                      f"change wins {w['change_wins'][m]}{ratio}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
