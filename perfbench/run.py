"""Benchmark for f2q: four workloads timed end to end, or traced per module.

    python3 perfbench/run.py --workload quench-3x3 --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py                   # every workload, one after another

Each workload runs in its own fresh, single-threaded process (`worker.py`).
`setup_s` is the median over SETUP_SAMPLES processes of the time from
process start until set-up is done; the last sample is the process that then
runs the timed rounds. The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the metrics
are the end-to-end ones, with `--trace 1` the per-layer ones. The exit code
is 0 only when every operation passed its checks.
"""

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("quench-3x3", "vqe-2x4", "spectrum-sweep", "tracking-large")
# Runnable here but left out of BENCHMARK.json: four gated workloads at a run
# length that averages out the host's drift do not fit the time for all runs.
UNGATED = ("spectrum-sweep",)
SETUP_SAMPLES = 3
DEADLINE_S = 170.0  # per workload, all its processes together


class WorkerError(RuntimeError):
    pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=3,
                   help="workload seed (VQE initial parameters, pair-creation edges)")
    p.add_argument("--seconds", type=float, default=40.0,
                   help="measure for this long; at least one whole round runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="tiny sizes with every check, for the benchmark's own tests")
    return p.parse_args(argv)


def start_worker(args, workload: str, deadline: float, setup_only: bool):
    """Start one worker; return (seconds to set-up done, result dict or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.quick:
        cmd.append("--quick")
    if setup_only:
        cmd.append("--setup-only")
    if args.trace:
        cmd += ["--spans", str(OUT / f"spans-{workload}-seed{args.seed}.json")]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        result_line = proc.stdout.readline()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or code != 0 or (not setup_only and not result_line):
        raise WorkerError(f"{workload} worker failed (exit code {code})")
    return setup_s, (None if setup_only else json.loads(result_line))


def run_workload(args, workload: str) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    setup_samples = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setup_samples.append(start_worker(args, workload, deadline, True)[0])
    setup_s, res = start_worker(args, workload, deadline, False)
    setup_samples.append(setup_s)
    if args.trace:
        metrics = res["layers"]
    else:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "run_s": res["run_s"],
            "work_per_s": res["units_per_round"] / res["run_s"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
    res.update(workload=workload, seed=args.seed, trace=args.trace, quick=args.quick,
               setup_samples=setup_samples, metrics=metrics)
    name = f"{workload}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}.json"
    (OUT / name).write_text(json.dumps(res, indent=1) + "\n")
    return res


def metric_units(trace: int) -> dict:
    if not trace:
        return {"setup_s": "s", "run_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}
    sys.path.insert(0, str(HERE))
    from tracer import LAYER_METRICS
    return {name: unit for name, unit, _ in LAYER_METRICS}


def report(res: dict, units: dict) -> None:
    print(f"{res['workload']} seed={res['seed']}: {res['rounds']} rounds, "
          f"{res['attempted']} operations attempted, {res['failed']} failed, "
          f"output digest {res['digest']}")
    for msg in res["messages"]:
        print(f"  FAIL {msg}")
    for name, value in res["metrics"].items():
        print(f"  {name} = {value:.6g} {units[name]}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "f2q" / "__init__.py").is_file():
        print(f"perfbench: no f2q sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = metric_units(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for workload in names:
        try:
            results.append(run_workload(args, workload))
        except WorkerError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        report(results[-1], units)
    failed = sum(r["failed"] for r in results)
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else r["workload"] + "."
        for name, value in r["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
