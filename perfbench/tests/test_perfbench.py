"""The benchmark's own tests: quick runs of every workload, and every check
shown to fail on a corrupted output.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as W  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

E2E = {"setup_s": "s", "run_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}


def bench(*args: str):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    return proc, json.loads(proc.stdout.splitlines()[-1]) if proc.stdout else None


# ------------------------------------------------------------------ quick runs

@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("seed", [3, 8])
def test_quick_run_passes_every_check(workload, seed):
    proc, out = bench("--workload", workload, "--seed", str(seed), "--seconds", "0.1",
                      "--trace", "0", "--quick")
    assert proc.returncode == 0, proc.stderr
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == E2E
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_quick_traced_run_reports_every_layer_metric():
    proc, out = bench("--workload", "vqe-2x4", "--seconds", "0.1", "--trace", "1", "--quick")
    assert proc.returncode == 0, proc.stderr
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        {name: unit for name, unit, _ in LAYER_METRICS}
    m = {k: v["value"] for k, v in out["metrics"].items()}
    assert m["vqe.SectorModel.gradient.calls"] == 400  # 300 + 100 Adam steps
    assert m["vqe.SectorModel.apply_ansatz.s"] > 0
    assert 0 < m["statevec.constrained_basis.kept_ratio"] < 1


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_same_seed_gives_identical_outputs(name):
    a, b = W.WORKLOADS[name](3, True), W.WORKLOADS[name](3, True)
    a.setup()
    b.setup()
    assert a.digest(a.run_round()) == b.digest(b.run_round())


def test_workload_names_agree():
    assert tuple(W.WORKLOADS) == run.WORKLOADS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = [w["name"] for w in spec["workloads"]]
    assert gated == [w for w in run.WORKLOADS if w not in run.UNGATED]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == LAYER_METRICS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "quench-3x3",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


# ------------------------------------------------- checks fail on bad outputs

def ran(name):
    w = W.WORKLOADS[name](3, True)
    w.setup()
    ops = w.run_round()
    assert w.check(ops) == [[] for _ in ops]
    return w, ops


def with_value(ops, i, value):
    out = list(ops)
    out[i] = W.Op(ops[i].label, value=value)
    return out


@pytest.fixture(scope="module")
def quench():
    return ran("quench-3x3")


def test_quench_check_catches_broken_dt_halving(quench):
    w, ops = quench
    times, tr, enc, fm = ops[1].value
    worse = enc + 1.5 * (tr - enc)  # dt/2 error only 4/3 smaller than at dt
    fails = w.check(with_value(ops, 1, (times, worse, enc, fm)))
    assert any("dt-halving" in m for m in fails[1])


def test_quench_check_catches_reference_disagreement(quench):
    w, ops = quench
    times, tr, enc, fm = ops[0].value
    fm = fm.copy()
    fm[-1, [0, 1]] += [1e-6, -1e-6]  # keeps the particle number
    fails = w.check(with_value(ops, 0, (times, tr, enc, fm)))
    assert fails[0] and all("references differ" in m for m in fails[0])


def test_quench_check_catches_lost_particles(quench):
    w, ops = quench
    times, tr, enc, fm = ops[0].value
    tr = tr.copy()
    tr[1, 0] += 1e-6
    fails = w.check(with_value(ops, 0, (times, tr, enc, fm)))
    assert any("trotter occupations sum" in m for m in fails[0])


@pytest.fixture(scope="module")
def vqe_round():
    return ran("vqe-2x4")


@pytest.mark.parametrize("field,shift,message", [
    ("final_energy", -1e-6, "below exact"),
    ("relative_error_raw", 1e-3, "relative error"),
    ("exact_energy", 1e-6, "differs from ED"),
    ("dual_route_deviation", 1e-9, "dual_route_deviation"),
    ("constraint_deviation", 1e-9, "constraint_deviation"),
])
def test_vqe_check_catches_bad_result(vqe_round, field, shift, message):
    import dataclasses
    w, ops = vqe_round
    tr = ops[0].value
    if field == "final_energy":
        shift += tr.exact_energy - tr.final_energy  # an energy below the exact one
    bad = dataclasses.replace(tr, **{field: getattr(tr, field) + shift})
    fails = w.check(with_value(ops, 0, bad))
    assert any(message in m for m in fails[0]) and fails[1] == []


@pytest.fixture(scope="module")
def spectrum():
    return ran("spectrum-sweep")


def _spectrum_op(spectrum, V):
    w, ops = spectrum
    return next(op for op in ops if op.value["V"] == V)


def test_spectrum_check_catches_shifted_eigenvalue(spectrum):
    value = dict(_spectrum_op(spectrum, 2.0).value)
    value["encoded"] = {n: v.copy() for n, v in value["encoded"].items()}
    value["encoded"][2][3] += 1e-6
    assert any("differs from ED" in m for m in W.check_spectrum(value))


def test_spectrum_check_catches_wrong_sector_dimension(spectrum):
    value = dict(_spectrum_op(spectrum, 2.0).value)
    value["occ_counts"] = {**value["occ_counts"], 1: 4}
    fails = W.check_spectrum(value)
    assert any("not the even n" in m for m in fails) and any("2^(N-1)" in m for m in fails)


def test_spectrum_check_catches_wrong_free_fermion_spectrum(spectrum):
    # ED and encoded spectra shifted together still agree with each other;
    # only the benchmark's own V=0 reference sees it
    value = dict(_spectrum_op(spectrum, 0.0).value)
    value["encoded"] = {n: v + 1e-6 for n, v in value["encoded"].items()}
    value["ed"] = {n: v + 1e-6 for n, v in value["ed"].items()}
    fails = W.check_spectrum(value)
    assert fails and all("free fermions" in m for m in fails)


def test_hopping_matrix_keeps_both_wrap_edges_on_width_two():
    h = W.hopping_matrix(2, 2, -1, 1)
    assert h[0, 1] == 0.0  # x: inner edge -1, wrap edge +1
    assert h[0, 2] == -2.0  # y: both edges -1


@pytest.fixture(scope="module")
def tracking():
    return ran("tracking-large")


def test_tracking_check_catches_wrong_gate_count(tracking):
    w, ops = tracking
    code_cc, cc, code_dr, dr = ops[0].value
    header, row = dr.splitlines()[:2]
    f = row.split(",")
    f[3] = str(int(f[3]) + 1)
    bad = (code_cc, cc, code_dr, f"{header}\n{','.join(f)}\n")
    fails = w.check(with_value(ops, 0, bad))
    assert any("two-qubit Trotter gates" in m for m in fails[0])


def test_tracking_check_catches_stabilizer_off_target(tracking):
    w, ops = tracking
    code_cc, cc, code_dr, dr = ops[1].value
    lines = cc.splitlines()
    lines[0] = lines[0].replace("value 1 ", "value 0.99999 ")
    fails = w.check(with_value(ops, 1, (code_cc, "\n".join(lines) + "\n", code_dr, dr)))
    assert any("off target" in m for m in fails[1])


def test_tracking_check_catches_depth_that_grows(tracking):
    w, ops = tracking
    code_cc, cc, code_dr, dr = ops[1].value
    header, row = dr.splitlines()[:2]
    f = row.split(",")
    f[1] = str(int(f[1]) + 2)
    fails = w.check(with_value(ops, 1, (code_cc, cc, code_dr, f"{header}\n{','.join(f)}\n")))
    assert any("depth" in m for m in fails[1]) and fails[0] == []
