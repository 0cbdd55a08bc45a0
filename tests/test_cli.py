"""Command-line contract: flags, config files, outputs, exit codes."""

import contextlib
import dataclasses
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from f2q import circuits, cli, oracle, quench, vqe
from f2q.circuits import trotter_step, vacuum_circuit
from f2q.cli import main, parse_potentials
from f2q.lattice import InputError, LatticeSpec, Site

from dense_oracle import parse_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_constraints_4x4_all_pass(capsys):
    code, out, _ = run_cli(capsys, "check-constraints", "--lx", "4", "--ly", "4")
    lines = out.strip().splitlines()
    assert code == 0
    assert len(lines) == 16 + 4 + 4
    assert sum(1 for ln in lines if ln.startswith("gauss")) == 16
    assert all(ln.endswith("PASS") for ln in lines)


def test_check_constraints_odd_lattice_auto_rho(capsys):
    code, out, _ = run_cli(capsys, "check-constraints", "--lx", "3", "--ly", "3")
    assert code == 0
    assert all(ln.endswith("PASS") for ln in out.strip().splitlines())
    # odd lattices flip the row-loop target sign
    assert "loop_row 0 target +1" in out


def test_check_constraints_mixed_parity_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "check-constraints", "--lx", "3", "--ly", "4")
    assert code == 2
    assert "both odd or both even" in err


def test_check_constraints_with_pairs(capsys):
    code, out, _ = run_cli(capsys, "check-constraints", "--lx", "2", "--ly", "4",
                           "--pairs", "0,0,x;0,1,y")
    assert code == 0
    assert all(ln.endswith("PASS") for ln in out.strip().splitlines())


def quench_rows(path):
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "time,rx,ry,occ_trotter,occ_exact_encoded,occ_exact_fermionic"
    rows = []
    for ln in lines[1:]:
        t, rx, ry, a, b, c = ln.split(",")
        rows.append((float(t), int(rx), int(ry), float(a), float(b), float(c)))
    return rows


def test_quench_csv_contract(tmp_path, capsys):
    out = tmp_path / "q.csv"
    code, _, _ = run_cli(capsys, "quench", "--lx", "2", "--ly", "4", "--v", "3",
                         "--dt", "0.1", "--tmax", "0.5", "--output", str(out))
    assert code == 0
    rows = quench_rows(out)
    n_sites, n_times = 8, 6
    assert len(rows) == n_sites * n_times

    # initial occupations identical across all three routes
    for r in rows[:n_sites]:
        assert r[0] == 0.0
        assert abs(r[3] - r[4]) < 1e-10 and abs(r[4] - r[5]) < 1e-10

    # number conservation per time slice, each column
    for k in range(n_times):
        block = rows[k * n_sites:(k + 1) * n_sites]
        for col in (3, 4, 5):
            assert abs(sum(r[col] for r in block) - 2.0) < 1e-9


def test_quench_error_shrinks_with_dt(tmp_path, capsys):
    errs = {}
    for dt in (0.1, 0.05):
        out = tmp_path / f"q{dt}.csv"
        code, _, _ = run_cli(capsys, "quench", "--lx", "2", "--ly", "4", "--v", "3",
                             "--dt", str(dt), "--tmax", "0.4", "--output", str(out))
        assert code == 0
        rows = quench_rows(out)
        errs[dt] = max(abs(r[3] - r[4]) for r in rows)
    assert errs[0.05] < errs[0.1]


def test_quench_rejects_bad_step(capsys):
    code, _, err = run_cli(capsys, "quench", "--lx", "2", "--ly", "4", "--v", "3",
                           "--dt", "0.3", "--tmax", "0.5")
    assert code == 2
    assert "multiple of dt" in err


@pytest.mark.parametrize("dt, tmax", [(0.0, 0.2), (-0.1, 0.2), (float("nan"), 0.2),
                                     (0.1, 0.0), (0.1, float("nan"))])
def test_quench_library_rejects_non_positive_step(dt, tmax):
    # a zero dt used to reach tmax / dt and raise ZeroDivisionError
    with pytest.raises(InputError, match="dt and tmax must be positive"):
        quench.quench_trajectories(LatticeSpec(2, 2), 1.0, 3.0, 2, {}, dt, tmax)


def test_vqe_json_document_and_determinism(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code, _, _ = run_cli(capsys, "vqe", "--lx", "2", "--ly", "2", "--v", "2",
                             "--max-steps", "120", "--seed", "5", "--output", str(p))
        assert code == 0
    a, b = (json.loads(p.read_text()) for p in paths)
    a_wall, b_wall = a.pop("wall_time_seconds"), b.pop("wall_time_seconds")
    assert a == b  # deterministic given the seed, wall time aside
    assert a_wall > 0 and b_wall > 0
    for key in ("config", "trace", "final_energy", "exact_energy",
                "relative_error", "seed", "wall_time_seconds"):
        assert key in a or key == "wall_time_seconds"
    assert a["seed"] == 5
    assert a["config"]["n_params"] == 32
    assert len(a["trace"]) == a["n_steps"] + 1
    assert a["final_energy"] >= a["exact_energy"] - 1e-9
    assert (a["relative_error"] == 0.0) == (a["relative_error_raw"] < 1e-6)


def test_vqe_rejects_bad_config(capsys):
    code, _, err = run_cli(capsys, "vqe", "--lx", "2", "--ly", "2", "--v", "2",
                           "--n-f", "3")
    assert code == 2
    assert "n_f" in err


def test_config_file_layering(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[lattice]\nlx = 2\nly = 2\n[model]\nv = 2.0\n"
                   "[vqe]\nmax_steps = 60\nseed = 3\nlayers = 1\n")
    out = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "vqe", "--config", str(ini), "--layers", "2",
                         "--output", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["layers"] == 2  # flag overrides file
    assert doc["optimizer"]["max_steps"] == 60


def test_vqe_defaults_are_the_dataclass_defaults(capsys):
    # a setting no flag or INI key gives is left to VqeConfig and OptimizerConfig
    code, out, _ = run_cli(capsys, "vqe", "--lx", "2", "--ly", "2", "--v", "2", "--max-steps", "3")
    assert code == 0
    doc = json.loads(out)
    opt = dataclasses.asdict(vqe.OptimizerConfig())
    assert {key: doc["optimizer"][key] for key in opt} == dict(opt, max_steps=3)
    defaults = {f.name: f.default for f in dataclasses.fields(vqe.VqeConfig)}
    for key in ("ansatz", "layers", "granularity"):
        assert doc["config"][key] == defaults[key]


@pytest.mark.parametrize("command", [("vqe", "--v", "2"), ("export-circuit", "--kind", "ansatz")])
def test_ini_unknown_ansatz_has_one_message(tmp_path, capsys, command):
    ini = tmp_path / "run.ini"
    ini.write_text("[lattice]\nlx = 2\nly = 2\n[vqe]\nansatz = qaoa\n")
    code, out, err = run_cli(capsys, *command, "--config", str(ini))
    assert code == 2 and out == ""
    assert err == "config error: ansatz must be agate or hv\n"


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text("[lattice]\nlx = 2\nly = 2\nwibble = 1\n")
    code, _, err = run_cli(capsys, "vqe", "--config", str(ini), "--v", "2")
    assert code == 2
    assert "wibble" in err


def test_depth_report_table(capsys):
    code, out, _ = run_cli(capsys, "depth-report", "--sizes", "4,6,8,10")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "L,trotter_depth_2q,trotter_gates_1q,trotter_gates_2q,vacuum_gates_2q"
    depths, residual = set(), None
    for ln in lines[1:]:
        if ln.startswith("#"):
            residual = float(ln.split("max_residual_pct=")[1])
            continue
        L, depth, n1, n2, vac = ln.split(",")
        depths.add(int(depth))
        assert int(vac) == 3 * (int(L) - 1) ** 2
        assert int(n2) == 24 * int(L) ** 2
    assert len(depths) == 1
    assert residual is not None and residual <= 5.0


def test_export_vacuum_counts_and_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "export-circuit", "--lx", "2", "--ly", "2",
                           "--kind", "vacuum")
    assert code == 0
    lines = out.strip().splitlines()
    kinds = [ln.split()[0] for ln in lines[1:]]
    assert kinds.count("h") == 1
    assert sum(kinds.count(k) for k in ("cnot", "cy", "cz")) == 3
    assert kinds.count("x") == 2
    assert parse_text(out) == vacuum_circuit(LatticeSpec(2, 2))


def test_export_trotter_line_count(capsys):
    code, out, _ = run_cli(capsys, "export-circuit", "--lx", "2", "--ly", "2",
                           "--kind", "trotter", "--dt", "0.05")
    assert code == 0
    step = trotter_step(LatticeSpec(2, 2), 1.0, 2.0, 0.05)
    assert len(out.strip().splitlines()) == 1 + len(step)
    assert parse_text(out) == step


def test_export_ansatz_deterministic(capsys):
    args = ("export-circuit", "--lx", "2", "--ly", "2", "--kind", "ansatz",
            "--ansatz", "hv", "--layers", "1", "--granularity", "per_group",
            "--seed", "4")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_export_agate_ansatz_is_native_circuit(capsys):
    code, out, _ = run_cli(capsys, "export-circuit", "--lx", "2", "--ly", "2", "--kind", "ansatz",
                           "--ansatz", "agate", "--layers", "1", "--seed", "4")
    assert code == 0
    assert not any(ln.startswith("matrix") for ln in out.splitlines())
    spec = LatticeSpec(2, 2)
    params = np.random.default_rng(4).uniform(-0.1, 0.1, circuits.agate_param_count(spec, 1))
    assert parse_text(out) == circuits.ansatz_agate(spec, 1, params)


def test_export_and_vqe_share_one_start_draw(capsys, monkeypatch):
    # export-circuit --seed and the optimizer's start read the same draw, so
    # changing it moves both
    drawn = []

    def draw(n_params, init_scale, seed):
        drawn.append((n_params, init_scale, seed))
        return np.full(n_params, 0.25 + seed)

    monkeypatch.setattr(vqe, "initial_params", draw)
    code, out, _ = run_cli(capsys, "export-circuit", "--lx", "2", "--ly", "2", "--kind", "ansatz",
                           "--ansatz", "agate", "--layers", "1", "--seed", "4")
    assert code == 0
    spec = LatticeSpec(2, 2)
    n = circuits.agate_param_count(spec, 1)
    assert parse_text(out) == circuits.ansatz_agate(spec, 1, np.full(n, 4.25))
    model = vqe.SectorModel(vqe.VqeConfig(spec, 1.0, 2.0, 2, layers=1))
    first_p = vqe._adam_descent(model, vqe.OptimizerConfig(max_steps=1), 5)[3]
    assert np.array_equal(first_p, np.full(n, 5.25))
    assert drawn == [(n, vqe.VqeConfig.init_scale, 4), (n, vqe.VqeConfig.init_scale, 5)]


def test_export_unknown_kind_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["export-circuit", "--lx", "2", "--ly", "2", "--kind", "banana"])
    assert err.value.code == 2


def test_spectrum_match_full_2x2(capsys):
    code, out, _ = run_cli(capsys, "spectrum-match", "--lx", "2", "--ly", "2",
                           "--v", "2")
    assert code == 0
    assert "matched sector" in out
    assert "sectors=0,2,4" in out


def test_spectrum_match_sector_3x3(capsys):
    code, out, _ = run_cli(capsys, "spectrum-match", "--lx", "3", "--ly", "3",
                           "--v", "2", "--n-f", "2")
    assert code == 0
    assert "sx=+1 sy=+1" in out


ABSENT_SECTOR = "config error: no constrained basis vectors with the requested particle number\n"


def test_spectrum_match_sector_absent_at_this_rho_is_usage_error(capsys):
    # rho = +1 on 3x3 holds the odd sectors only, and those match
    code, out, _ = run_cli(capsys, "spectrum-match", "--lx", "3", "--ly", "3", "--rho", "1",
                           "--v", "2")
    assert code == 0
    assert out.startswith("matched sector sx=+1 sy=+1 ") and out.endswith(" sectors=1,3,5,7,9\n")
    code, out, err = run_cli(capsys, "spectrum-match", "--lx", "3", "--ly", "3",
                             "--rho", "1", "--v", "2", "--n-f", "2")
    assert (code, out, err) == (2, "", ABSENT_SECTOR)


def test_spectrum_match_without_a_matching_sector_fails(capsys, monkeypatch):
    # an encoded Hamiltonian at another V matches no fermionic sector
    real = cli.tv_hamiltonian
    monkeypatch.setattr(cli, "tv_hamiltonian", lambda spec, t, V: real(spec, t, V + 0.5))
    code, out, err = run_cli(capsys, "spectrum-match", "--lx", "2", "--ly", "2", "--v", "2")
    assert code == 1
    assert out == "no fermionic boundary sector matches within 1e-08\n"
    assert err == "failure: no fermionic boundary sector matches within 1e-08\n"


@pytest.mark.parametrize("argv", [
    ("quench", "--dt", "0.1", "--tmax", "0.1"),
    ("vqe", "--max-steps", "2"),
    ("spectrum-match",),
])
def test_absent_requested_sector_is_one_usage_error(capsys, argv):
    # every even sector of 3x3 at rho = +1 is empty; each command says so alike
    code, out, err = run_cli(capsys, *argv, "--lx", "3", "--ly", "3", "--rho", "1", "--v", "2",
                             "--n-f", "2")
    assert (code, out, err) == (2, "", ABSENT_SECTOR)


@pytest.mark.parametrize("argv", [
    ("--lx", "2", "--ly", "2"),
    ("--lx", "3", "--ly", "3", "--n-f", "2", "--n-f", "4"),
])
def test_spectrum_match_diagonalises_each_sector_once(capsys, monkeypatch, argv):
    # the matches and their deviation come from one pass over the BC sectors
    real, calls = oracle.ed_spectrum, []

    def recorded(spec, t, V, potentials, sector, n_f):
        calls.append((sector, n_f))
        return real(spec, t, V, potentials, sector, n_f)

    monkeypatch.setattr(oracle, "ed_spectrum", recorded)
    code, out, _ = run_cli(capsys, "spectrum-match", "--v", "2", *argv)
    assert code == 0 and out.startswith("matched sector sx=+1 sy=+1 max_deviation=")
    assert calls and len(calls) == len(set(calls))


def test_parse_potentials():
    pots = parse_potentials("0,0=-1.0; 0,1=-1.0")
    assert pots == {Site(0, 0): -1.0, Site(0, 1): -1.0}
    with pytest.raises(Exception):
        parse_potentials("0=-1")


def test_non_finite_numbers_are_rejected(tmp_path, capsys):
    out = tmp_path / "step.txt"
    code, stdout, err = run_cli(capsys, "export-circuit", "--lx", "2", "--ly", "2",
                                "--kind", "trotter", "--dt", "nan", "--output", str(out))
    assert code == 2 and "finite" in err
    assert not out.exists() and stdout == ""
    code, _, err = run_cli(capsys, "quench", "--lx", "2", "--ly", "2", "--v", "inf",
                           "--dt", "0.1", "--tmax", "0.2")
    assert code == 2 and "finite" in err
    ini = tmp_path / "run.ini"
    ini.write_text("[lattice]\nlx = 2\nly = 2\n[trotter]\ndt = -inf\n")
    code, stdout, _ = run_cli(capsys, "export-circuit", "--config", str(ini), "--kind", "trotter")
    assert code == 2 and stdout == ""
    with pytest.raises(InputError):
        parse_potentials("0,0=nan")


OVER_FULL = [
    ("quench", "--lx", "2", "--ly", "2", "--v", "2", "--n-f", "6", "--dt", "0.1", "--tmax", "0.1"),
    ("vqe", "--lx", "2", "--ly", "2", "--v", "2", "--n-f", "6"),
    ("spectrum-match", "--lx", "2", "--ly", "2", "--v", "2", "--n-f", "6"),
]


@pytest.mark.parametrize("argv", [
    ("vqe", "--lx", "2", "--ly", "2", "--v", "3", "--n-f", "6"),
    ("quench", "--lx", "2", "--ly", "4", "--v", "3", "--dt", "0.1", "--tmax", "0.2",
     "--n-f", "3"),
    ("spectrum-match", "--lx", "4", "--ly", "4", "--v", "2", "--n-f", "2"),
    ("export-circuit", "--lx", "2", "--ly", "2", "--kind", "ansatz", "--layers", "-1"),
    # n_f outside [0, N] is a bad request, not an unmatched spectrum
    ("spectrum-match", "--lx", "2", "--ly", "2", "--v", "2", "--n-f", "2", "--n-f", "7"),
    ("spectrum-match", "--lx", "2", "--ly", "2", "--v", "2", "--n-f", "-1"),
    # a requested sector without constrained states (odd n_f on 2x2)
    ("spectrum-match", "--lx", "2", "--ly", "2", "--v", "2", "--n-f", "1"),
    ("spectrum-match", "--lx", "2", "--ly", "2", "--v", "2", "--n-f", "1", "--n-f", "2"),
    # numpy rejects a negative seed, and a negative lr_decay divides by zero
    ("vqe", "--lx", "2", "--ly", "2", "--v", "2", "--seed", "-1"),
    ("vqe", "--lx", "2", "--ly", "2", "--v", "2", "--lr-decay", "-1"),
    ("vqe", "--lx", "2", "--ly", "2", "--v", "2", "--init-scale", "-1"),
    ("export-circuit", "--lx", "2", "--ly", "2", "--kind", "ansatz", "--seed", "-3"),
    ("vqe", "--lx", "2", "--ly", "2", "--v", "2", "--max-steps", "3", "--tolerance", "-1"),
    # the uniform start draw needs a finite range 2 * init_scale
    ("vqe", "--lx", "2", "--ly", "2", "--v", "2", "--max-steps", "5", "--init-scale", "1e308"),
    # 4x4 sectors build; the fermionic ED reference stops at its site limit
    ("vqe", "--lx", "4", "--ly", "4", "--v", "3", "--max-steps", "2"),
    ("quench", "--lx", "4", "--ly", "4", "--v", "3", "--dt", "0.1", "--tmax", "0.1"),
    # 12870 columns at n_f = 8 exceed the dense guard
    ("quench", "--lx", "4", "--ly", "4", "--v", "3", "--n-f", "8", "--dt", "0.1", "--tmax", "0.1"),
    # more layers than circuits.MAX_LAYERS, refused before any array is sized
    ("export-circuit", "--lx", "2", "--ly", "2", "--kind", "ansatz", "--layers", "1000000000000"),
    ("vqe", "--lx", "2", "--ly", "2", "--v", "2", "--layers", "1000000000000"),
    # more particles than sites, refused by one library check
    *OVER_FULL,
])
def test_out_of_range_input_is_usage_error(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith(("input error:", "config error:"))
    assert issubclass(InputError, ValueError)


@pytest.mark.parametrize("argv", OVER_FULL)
def test_particle_number_out_of_range_is_one_message(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", "config error: n_f = 6 lies outside [0, 4]\n")


@pytest.mark.parametrize("argv", [
    ("vqe", "--max-steps", "5"),
    ("quench", "--dt", "0.1", "--tmax", "0.2"),
])
def test_wrong_boundary_sector_is_scientific_failure(capsys, monkeypatch, argv):
    # both exact references read oracle.PERIODIC when they run
    monkeypatch.setattr(oracle, "PERIODIC", oracle.BCSector(-1, +1))
    code, out, err = run_cli(capsys, *argv, "--lx", "2", "--ly", "4", "--v", "3", "--n-f", "2")
    assert code == 1 and out == ""
    assert err.startswith("failure:") and "spectra differ" in err and "Traceback" not in err


def test_missing_output_directory_fails_before_computing(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("computed before checking the output path")

    monkeypatch.setattr(cli, "quench_trajectories", never)
    target = tmp_path / "missing" / "q.csv"
    code, _, err = run_cli(capsys, "quench", "--lx", "2", "--ly", "2", "--v", "3",
                           "--dt", "0.1", "--tmax", "0.2", "--output", str(target))
    assert code == 2 and "does not exist" in err


def test_spectrum_match_names_every_matching_sector(capsys):
    # the n_f = 0 spectrum is [0] in every boundary sector
    code, out, _ = run_cli(capsys, "spectrum-match", "--lx", "2", "--ly", "4",
                           "--v", "2", "--n-f", "0")
    assert code == 0
    assert out.startswith("matched 4 sectors: ")
    for sector in oracle.ALL_SECTORS:
        assert f"sx={sector.sx:+d} sy={sector.sy:+d}" in out
    spec = LatticeSpec(2, 4)
    assert oracle.bc_sector_search(spec, 1.0, 2.0, {0: [0.0]})[0] == oracle.ALL_SECTORS
    assert oracle.match_bc_sector(spec, 1.0, 2.0, {0: [0.0]}) == oracle.ALL_SECTORS[0]


def test_quench_step_count_is_bounded(capsys):
    # 10^12 steps would need terabytes for the time grid alone
    code, out, err = run_cli(capsys, "quench", "--lx", "2", "--ly", "2", "--v", "3",
                             "--dt", "1e-12", "--tmax", "1")
    assert code == 2 and out == ""
    assert f"limit of {quench.MAX_QUENCH_STEPS} Trotter steps" in err


def test_vqe_empty_sector_reports_absolute_error(capsys):
    code, out, _ = run_cli(capsys, "vqe", "--lx", "2", "--ly", "2", "--v", "2",
                           "--n-f", "0", "--max-steps", "10")
    assert code == 0
    doc = json.loads(out)
    assert doc["exact_energy"] == 0.0
    assert doc["relative_error_raw"] == abs(doc["final_energy"])
    assert doc["relative_error"] == 0.0


def test_spectrum_match_writes_output_file(tmp_path, capsys):
    argv = ("spectrum-match", "--lx", "2", "--ly", "2", "--v", "2")
    code, stdout, _ = run_cli(capsys, *argv)
    assert code == 0
    target = tmp_path / "match.txt"
    code, out, _ = run_cli(capsys, *argv, "--output", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == stdout
    assert stdout.startswith("matched sector sx=") and stdout.endswith("sectors=0,2,4\n")


@pytest.mark.parametrize("pots", ["9,9=1", "0,2=1", "-1,0=1", "0,0=1;0,0=-1"])
def test_potentials_off_lattice_or_repeated_are_usage_errors(tmp_path, capsys, pots):
    # 9,9 would wrap to site 1,1 on 2x2; a repeated site would add up
    target = tmp_path / "q.csv"
    code, out, err = run_cli(capsys, "quench", "--lx", "2", "--ly", "2", "--v", "3",
                             "--dt", "0.1", "--tmax", "0.2", f"--potentials={pots}",
                             "--output", str(target))
    assert code == 2 and err.startswith("config error:")
    assert out == "" and not target.exists()


@pytest.mark.parametrize("pairs", ["7,7,x", "0,0,x;2,0,y", "0,-1,y"])
def test_pairs_off_lattice_are_usage_errors(tmp_path, capsys, pairs):
    target = tmp_path / "c.txt"
    code, out, err = run_cli(capsys, "check-constraints", "--lx", "2", "--ly", "2",
                             "--pairs", pairs, "--output", str(target))
    assert code == 2 and "outside the 2x2 lattice" in err
    assert out == "" and not target.exists()


def test_library_check_failure_exits_one_with_deviation(capsys, monkeypatch):
    monkeypatch.setattr(vqe, "_spot_check", lambda model, params: (1e-3, 0.0))
    code, out, err = run_cli(capsys, "vqe", "--lx", "2", "--ly", "2", "--v", "2",
                             "--max-steps", "5")
    assert code == 1 and out == ""
    assert err == "failure: ansatz state violates constraints by 1.000e-03 > 1e-10\n"


def test_nan_constraint_deviation_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(vqe, "expval_string", lambda state, s: float("nan"))
    code, out, err = run_cli(capsys, "vqe", "--lx", "2", "--ly", "2", "--v", "2",
                             "--max-steps", "5")
    assert code == 1 and out == ""
    assert err == "failure: ansatz state violates constraints by nan > 1e-10\n"


def test_check_constraints_12x12_tracks_exactly(capsys):
    # 288 qubits: far beyond a state vector, exact only through Pauli tracking
    L = 12
    pairs = ";".join(f"{k},{(5 * k) % L},{'xy'[k % 2]}" for k in range(L))
    code, out, _ = run_cli(capsys, "check-constraints", "--lx", str(L), "--ly", str(L),
                           "--pairs", pairs)
    lines = out.splitlines()
    assert code == 0 and len(lines) == L * L + 2 * L
    for line in lines:
        toks = line.split()
        assert toks[-1] == "PASS" and float(toks[-2]) == int(toks[-4])


def test_route_disagreement_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(vqe, "_spot_check", lambda model, params: (0.0, 1e-3))
    code, out, err = run_cli(capsys, "vqe", "--lx", "2", "--ly", "2", "--v", "2",
                             "--max-steps", "5")
    assert code == 1 and out == ""
    assert err == "failure: sector and full-register energies differ by 1.000e-03 > 1e-10\n"


def test_check_constraints_off_target_exits_one(capsys, monkeypatch):
    real = circuits.stabilizer_expectations
    monkeypatch.setattr(circuits, "stabilizer_expectations",
                        lambda c, cs: [v + 1e-3 * (k == 0) for k, v in enumerate(real(c, cs))])
    code, out, err = run_cli(capsys, "check-constraints", "--lx", "2", "--ly", "2")
    lines = out.splitlines()
    assert code == 1
    assert lines[0].endswith("FAIL") and all(ln.endswith("PASS") for ln in lines[1:])
    assert err == "failure: largest constraint deviation 1.000e-03 > 1e-10\n"


def test_quench_reference_disagreement_exits_one_writing_nothing(tmp_path, capsys, monkeypatch):
    real, calls = oracle.ed_propagate, []

    def perturbed(*args, **kwargs):
        # the second call is the fermionic trajectory
        calls.append(None)
        return real(*args, **kwargs) + 1e-6 * (len(calls) == 2)

    monkeypatch.setattr(oracle, "ed_propagate", perturbed)
    target = tmp_path / "q.csv"
    code, out, err = run_cli(capsys, "quench", "--lx", "2", "--ly", "2", "--v", "3",
                             "--dt", "0.1", "--tmax", "0.2", "--output", str(target))
    assert code == 1 and out == "" and not target.exists()
    assert err == "failure: exact references disagree by 1.000e-06 > 1e-08\n"


def test_vqe_non_finite_step_is_usage_error(capsys):
    # learning_rate * gradient overflows in the first Adam step
    code, out, err = run_cli(capsys, "vqe", "--lx", "2", "--ly", "2", "--v", "2",
                             "--max-steps", "5", "--learning-rate", "1e308")
    assert code == 2 and out == ""
    assert err.startswith("config error: Adam step ") and err.count("\n") == 1
    assert "non-finite" in err


@pytest.mark.parametrize("command", [("vqe", "--v", "2"), ("export-circuit", "--kind", "ansatz")])
def test_ini_granularity_outside_choices_is_usage_error(tmp_path, capsys, command):
    ini = tmp_path / "run.ini"
    for ansatz in ("hv", "agate"):
        ini.write_text(f"[lattice]\nlx = 2\nly = 2\n[vqe]\nansatz = {ansatz}\ngranularity = foo\n")
        code, out, err = run_cli(capsys, *command, "--config", str(ini))
        assert code == 2 and out == ""
        assert err == "config error: granularity must be per_group or per_edge\n"


def test_vqe_four_fermions_runs_on_default_edges(capsys):
    code, out, err = run_cli(capsys, "vqe", "--lx", "2", "--ly", "4", "--v", "2",
                             "--n-f", "4", "--max-steps", "5")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["config"]["pair_edges"] == [[0, 0, "x"], [0, 1, "x"]]
    assert doc["final_energy"] >= doc["exact_energy"] - 1e-9


# (valid, invalid) values per flag; INI keys draw from the same pools
NUMBERS = (("1", "2.5", "0", "-1", "0.5"), ("nan", "-inf", "abc"))
FLAG_VALUES = {
    "--lx": (("2",), ("3", "1", "x")), "--ly": (("2", "4"), ("3", "0")),
    "--rho": (("1", "-1"), ("0", "2")),
    "--t": NUMBERS, "--v": NUMBERS, "--k": NUMBERS,
    "--dt": (("0.1", "0.05"), ("0.3", "0", "-0.1", "nan", "1e-12")),
    "--tmax": (("0.1", "0.2"), ("0", "abc")),
    "--n-f": (("2", "0", "4"), ("3", "6", "-2")),
    "--potentials": (("0,0=-1", "0,1=-1;1,0=0.5"), ("9,9=1", "0=1", "0,0=nan", "0,0=1;0,0=2")),
    "--pairs": (("0,0,x", "0,0,x;0,1,y"), ("7,7,x", "0,0,z", "a,b,x")),
    "--ansatz": (("agate", "hv"), ("qaoa",)),
    "--granularity": (("per_group", "per_edge"), ("foo",)),
    "--layers": (("1", "2"), ("0", "-1")), "--seed": (("0", "3"), ("-1",)),
    "--max-steps": (("1", "3"), ("0",)), "--learning-rate": (("0.01",), ("0", "-1")),
    "--lr-decay": (("0.002", "0"), ("-1",)), "--restarts": (("1", "2"), ("0",)),
    "--window": (("2", "5"), ("1",)), "--tolerance": (("0", "1e-11"), ("x",)),
    "--init-scale": (("0.1", "0"), ("-1",)),
    "--sizes": (("2", "4", "2,4", "3"), ("1", "x", ",")),
    "--kind": (("vacuum", "trotter", "ansatz"), ()),
}
COMMAND_FLAGS = {
    "check-constraints": ("--rho", "--pairs"),
    "quench": ("--rho", "--t", "--v", "--n-f", "--dt", "--tmax", "--k", "--potentials"),
    "vqe": ("--rho", "--t", "--v", "--n-f", "--ansatz", "--layers", "--granularity", "--seed",
            "--learning-rate", "--lr-decay", "--restarts", "--window", "--tolerance",
            "--init-scale"),
    "depth-report": ("--sizes", "--t", "--v", "--dt"),
    "export-circuit": ("--rho", "--t", "--v", "--dt", "--ansatz", "--layers",
                       "--granularity", "--seed"),
    "spectrum-match": ("--rho", "--t", "--v", "--n-f"),
}
INI_KEYS = sorted((section, key) for section, keys in cli.CONFIG_SCHEMA.items()
                  for key in keys if section != "output")


def draw_value(data, flag):
    valid, invalid = FLAG_VALUES[flag]
    return data.draw(st.sampled_from(valid * 4 + invalid))  # mostly valid


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_cli_contract_exit_codes_without_traceback(data):
    # flags and INI values on 2x2 and 2x4: exit 0, 1 or 2, never an uncaught exception
    command = data.draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    argv = [command]
    if command != "depth-report":
        argv += ["--lx", "2", "--ly", data.draw(st.sampled_from(["2", "4"]))]
    if command == "vqe":
        argv += ["--max-steps", draw_value(data, "--max-steps")]  # the default is 5000
    if command == "export-circuit":
        argv += ["--kind", draw_value(data, "--kind")]
    if command in ("quench", "vqe", "spectrum-match"):
        argv += ["--v", draw_value(data, "--v")]
    if command == "quench":
        argv += ["--dt", draw_value(data, "--dt"), "--tmax", draw_value(data, "--tmax")]
    for flag in data.draw(st.sets(st.sampled_from(COMMAND_FLAGS[command]), max_size=3)):
        argv += [flag, draw_value(data, flag)]
    with tempfile.TemporaryDirectory() as tmp:
        sections: dict = {}
        for section, key in data.draw(st.lists(st.sampled_from(INI_KEYS), max_size=3)):
            flag = "--" + key.replace("_", "-")
            sections.setdefault(section, {})[key] = (
                draw_value(data, flag) if flag in FLAG_VALUES else "foo")
        if sections:
            ini = os.path.join(tmp, "run.ini")
            with open(ini, "w") as fh:
                for section, items in sections.items():
                    fh.write(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in items.items()))
            argv += ["--config", ini]
        if data.draw(st.booleans()):
            argv += ["--output", os.path.join(tmp, data.draw(st.sampled_from(["o.txt", "no/o.txt"])))]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the flags
                code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
