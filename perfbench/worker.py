"""Run one workload in this process: set-up, timed rounds, checks.

`run.py` starts this script in a fresh process per workload and per set-up
sample. It prints `ready` on its protocol stream once set-up is done, and
one JSON result line at the end. Anything the program prints goes to stderr.
"""

import os
import sys

# One thread: pin every BLAS pool before numpy is loaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "F2Q_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

MAX_MESSAGES = 20


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", help="where to write the traced spans (JSON)")
    return p.parse_args(argv)


def layer_metrics(names, setup: dict, total: dict, traced_rounds: int) -> dict:
    """Set-up once plus the mean of one traced round, per metric name."""

    def value(key):
        s = setup.get(key, 0.0)
        return s + (total.get(key, 0.0) - s) / traced_rounds

    out = {}
    for name in names:
        if name == "statevec.constrained_basis.kept_ratio":
            labels = value("statevec.constrained_basis.labels")
            out[name] = value("statevec.constrained_basis.kept") / labels if labels else 0.0
        elif not name.startswith("trace."):
            out[name] = value(name)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    proto = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)

    import f2q

    if not Path(f2q.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"f2q imported from {f2q.__file__}, not from this checkout", file=sys.stderr)
        return 3

    from tracer import LAYER_METRICS, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.quick)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    workload.setup()
    if tracer:
        tracer.uninstall()
        setup_totals = dict(tracer.totals())
    proto.write("ready\n")
    if args.setup_only:
        return 0

    rounds = []  # (traced, seconds), in run order
    attempted = failed = 0
    messages = []
    first_digest = None
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 0
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        ops = workload.run_round()
        rounds.append((traced, time.perf_counter() - t0))
        if traced:
            tracer.uninstall()

        fails = workload.check(ops)
        digest = workload.digest(ops)
        if first_digest is None:
            first_digest = digest
        elif digest != first_digest:
            for f in fails:
                f.append("outputs differ from the first round of this run")
        attempted += len(ops)
        for op, f in zip(ops, fails):
            if f:
                failed += 1
                messages.extend(f"{op.label}: {m}" for m in f)

        round_s = [s for _, s in rounds]
        enough = len(rounds) >= (2 if tracer else 1)
        if enough and time.perf_counter() - start + statistics.median(round_s) > args.seconds:
            break

    def mean_round(traced):
        # The mean, not the median: the host's speed drifts over seconds to
        # minutes, and a run split between a fast and a slow spell should
        # read in proportion to the time spent in each, not flip to either.
        return statistics.fmean(s for t, s in rounds if t == traced)

    result = {
        "attempted": attempted,
        "failed": failed,
        "messages": messages[:MAX_MESSAGES],
        "rounds": len(rounds),
        "round_s": round_s,
        "units_per_round": workload.units_per_round,
        "digest": first_digest,
        "run_s": mean_round(False),
    }
    if tracer:
        names = [name for name, _, _ in LAYER_METRICS]
        result["layers"] = layer_metrics(names, setup_totals, tracer.totals(),
                                         sum(1 for t, _ in rounds if t))
        result["layers"]["trace.overhead_s"] = mean_round(True) - mean_round(False)
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump({"fields": ["name", "start", "end", "parent"],
                           "spans": tracer.spans}, fh)
    else:
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    proto.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
