"""Command-line front end: configuration, experiments, machine-readable output.

Exit codes: 0 success, 1 scientific failure (a checked physical property does
not hold), 2 usage or configuration error. Numeric output in CSV/JSON uses
17 significant digits so files round-trip through double precision.
"""

import os

# Cap BLAS pools before numpy is pulled in by the library imports below.
_threads = os.environ.get("F2Q_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

import argparse
import configparser
import json
import math
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import circuits as circ
from . import oracle, vqe
from .lattice import Edge, InputError, LatticeSpec, ScientificFailure, Site, require, sites
from .pauli import constraint_set, tv_hamiltonian
from .quench import quench_trajectories
from .statevec import cached_sector, restrict_sum


# ----------------------------------------------------------------- settings

CONFIG_SCHEMA = {
    "lattice": {"lx", "ly", "rho"},
    "model": {"t", "v", "potentials"},
    "trotter": {"dt", "tmax", "n_f", "k"},
    "vqe": {"ansatz", "layers", "granularity", "n_f", "seed", "max_steps",
            "learning_rate", "lr_decay", "restarts", "window", "tolerance",
            "init_scale"},
    "output": {"path"},
}


def load_config_file(path: str) -> Dict[str, Dict[str, str]]:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise InputError(f"cannot read config file {path!r}")
    out: Dict[str, Dict[str, str]] = {}
    for section in parser.sections():
        if section not in CONFIG_SCHEMA:
            raise InputError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in CONFIG_SCHEMA[section]:
                raise InputError(f"unknown key {key!r} in section [{section}]")
        out[section] = dict(parser[section])
    return out


class Settings:
    """Command-line flags layered over an optional INI file."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.cfg = load_config_file(args.config) if getattr(args, "config", None) else {}

    def get(self, flag: str, section: str, key: str, cast, default=None, required=False):
        value = getattr(self.args, flag, None)
        raw = self.cfg.get(section, {}).get(key)
        if value is None and raw is not None:
            try:
                value = cast(raw)
            except ValueError as exc:
                raise InputError(f"bad value for [{section}] {key}: {raw!r}") from exc
        if value is None:
            if required:
                raise InputError(f"missing required setting {flag.replace('_', '-')}")
            return default
        if isinstance(value, float) and not math.isfinite(value):
            raise InputError(f"{flag.replace('_', '-')} must be a finite number, got {value!r}")
        return value

    def output_path(self) -> Optional[str]:
        """The output file, checked to lie in an existing directory."""
        path = self.get("output", "output", "path", str)
        if path:
            folder = os.path.dirname(path) or "."
            if not os.path.isdir(folder):
                raise InputError(f"output directory {folder!r} does not exist")
        return path


def parse_potentials(text: str) -> Dict[Site, float]:
    """Syntax: "rx,ry=value;rx,ry=value"."""
    pots: Dict[Site, float] = {}
    for item in text.split(";"):
        item = item.strip()
        if not item:
            continue
        try:
            coords, value = item.split("=")
            rx, ry = (int(p) for p in coords.split(","))
            mu = float(value)
        except ValueError as exc:
            raise InputError(f"bad potentials entry {item!r}") from exc
        if not math.isfinite(mu):
            raise InputError(f"non-finite potential in {item!r}")
        if Site(rx, ry) in pots:
            raise InputError(f"site {rx},{ry} is given twice in the potentials")
        pots[Site(rx, ry)] = mu
    return pots


def parse_pairs(text: str) -> List[Edge]:
    """Syntax: "rx,ry,x;rx,ry,y"."""
    out: List[Edge] = []
    for item in text.split(";"):
        item = item.strip()
        if not item:
            continue
        parts = item.split(",")
        if len(parts) != 3 or parts[2] not in ("x", "y"):
            raise InputError(f"bad pair edge {item!r}")
        try:
            out.append(Edge(Site(int(parts[0]), int(parts[1])), parts[2]))
        except ValueError as exc:
            raise InputError(f"bad pair edge {item!r}") from exc
    return out


def check_on_lattice(spec: LatticeSpec, where: Iterable[Site]) -> None:
    """Reject coordinates outside 0 <= rx < Lx, 0 <= ry < Ly instead of wrapping them."""
    for r in where:
        if not (0 <= r.rx < spec.Lx and 0 <= r.ry < spec.Ly):
            raise InputError(f"site {r.rx},{r.ry} lies outside the {spec.Lx}x{spec.Ly} lattice")


def build_lattice(s: Settings) -> LatticeSpec:
    lx = s.get("lx", "lattice", "lx", int, required=True)
    ly = s.get("ly", "lattice", "ly", int, required=True)
    rho = s.get("rho", "lattice", "rho", int, default=0)
    return LatticeSpec(lx, ly, rho)


def _write_text(path: Optional[str], text: str) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def fmt(x: float) -> str:
    return f"{x:.17g}"


# ------------------------------------------------------------- constraints

def constraint_labels(spec: LatticeSpec) -> List[str]:
    labels = [f"gauss {r.rx},{r.ry}" for r in sites(spec)]
    labels += [f"loop_column {rx}" for rx in range(spec.Lx)]
    labels += [f"loop_row {ry}" for ry in range(spec.Ly)]
    return labels


def cmd_check_constraints(args: argparse.Namespace) -> None:
    s = Settings(args)
    out = s.output_path()
    spec = build_lattice(s)
    pairs = parse_pairs(args.pairs or "")
    check_on_lattice(spec, [e.origin for e in pairs])
    circuit = circ.vacuum_circuit(spec)
    for e in pairs:
        circuit.extend(circ.pair_creation(spec, e))
    cs = constraint_set(spec)
    values = circ.stabilizer_expectations(circuit, cs)
    lines, devs = [], []
    for label, (_, target), value in zip(constraint_labels(spec), cs, values):
        devs.append(abs(value - target))
        lines.append(f"{label} target {target:+d} value {fmt(value.real)} "
                     f"{'PASS' if devs[-1] <= 1e-10 else 'FAIL'}")
    _write_text(out, "\n".join(lines) + "\n")
    require("largest constraint deviation", np.max(devs), 1e-10)


# ------------------------------------------------------------------ quench

def cmd_quench(args: argparse.Namespace) -> None:
    s = Settings(args)
    out = s.output_path()
    spec = build_lattice(s)
    t = s.get("t", "model", "t", float, default=1.0)
    V = s.get("v", "model", "v", float, required=True)
    n_f = s.get("n_f", "trotter", "n_f", int, default=2)
    dt = s.get("dt", "trotter", "dt", float, required=True)
    tmax = s.get("tmax", "trotter", "tmax", float, required=True)
    k_pin = s.get("k", "trotter", "k", float, default=1.0)
    if dt <= 0 or tmax <= 0:
        raise InputError("dt and tmax must be positive")
    pots_text = s.get("potentials", "model", "potentials", str)
    if pots_text is not None:
        pre_pots = parse_potentials(pots_text)
        check_on_lattice(spec, pre_pots)
    else:
        pre_pots = {Site(0, 0): -k_pin, Site(0, 1): -k_pin}

    times, occ_tr, occ_enc, occ_fm = quench_trajectories(
        spec, t, V, n_f, pre_pots, dt, tmax)

    rows = ["time,rx,ry,occ_trotter,occ_exact_encoded,occ_exact_fermionic"]
    for k, tau in enumerate(times):
        for q, r in enumerate(sites(spec)):
            rows.append(f"{fmt(tau)},{r.rx},{r.ry},{fmt(occ_tr[k, q])},"
                        f"{fmt(occ_enc[k, q])},{fmt(occ_fm[k, q])}")
    _write_text(out, "\n".join(rows) + "\n")


# --------------------------------------------------------------------- vqe

def cmd_vqe(args: argparse.Namespace) -> None:
    s = Settings(args)
    out = s.output_path()
    spec = build_lattice(s)
    config = vqe.VqeConfig(
        spec=spec,
        t=s.get("t", "model", "t", float, default=1.0),
        V=s.get("v", "model", "v", float, required=True),
        n_f=s.get("n_f", "vqe", "n_f", int, default=2),
        ansatz=s.get("ansatz", "vqe", "ansatz", str, default="agate"),
        layers=s.get("layers", "vqe", "layers", int, default=2),
        granularity=s.get("granularity", "vqe", "granularity", str, default="per_edge"),
        init_scale=s.get("init_scale", "vqe", "init_scale", float, default=0.1),
    )
    opt = vqe.OptimizerConfig(
        learning_rate=s.get("learning_rate", "vqe", "learning_rate", float, default=1e-2),
        lr_decay=s.get("lr_decay", "vqe", "lr_decay", float, default=2e-3),
        max_steps=s.get("max_steps", "vqe", "max_steps", int, default=5000),
        seed=s.get("seed", "vqe", "seed", int, default=7),
        restarts=s.get("restarts", "vqe", "restarts", int, default=1),
        window=s.get("window", "vqe", "window", int, default=150),
        tolerance=s.get("tolerance", "vqe", "tolerance", float, default=1e-11),
    )

    start = time.perf_counter()
    trace = vqe.run(config, opt)
    wall = time.perf_counter() - start
    doc = {
        "config": {
            "lx": spec.Lx, "ly": spec.Ly, "rho": spec.rho,
            "t": config.t, "v": config.V, "n_f": config.n_f,
            "ansatz": config.ansatz, "layers": config.layers,
            "granularity": config.granularity,
            "pair_edges": [[e.origin.rx, e.origin.ry, e.direction]
                           for e in config.pair_edges],
            "n_params": config.n_params,
        },
        "optimizer": {
            "learning_rate": opt.learning_rate, "lr_decay": opt.lr_decay,
            "beta1": vqe.ADAM_BETA1, "beta2": vqe.ADAM_BETA2, "epsilon": vqe.ADAM_EPSILON,
            "max_steps": opt.max_steps, "seed": opt.seed,
            "restarts": opt.restarts, "window": opt.window,
            "tolerance": opt.tolerance,
        },
        "seed": opt.seed,
        "trace": [float(e) for e in trace.energies],
        "final_energy": trace.final_energy,
        "exact_energy": trace.exact_energy,
        "relative_error": trace.relative_error,
        "relative_error_raw": trace.relative_error_raw,
        "matched_sector": {"sx": trace.matched_sector[0], "sy": trace.matched_sector[1]},
        "n_steps": trace.n_steps,
        "converged": trace.converged,
        "constraint_deviation": trace.constraint_deviation,
        "dual_route_deviation": trace.dual_route_deviation,
        "wall_time_seconds": wall,
    }
    _write_text(out, json.dumps(doc, indent=2) + "\n")


# ------------------------------------------------------------ depth report

def cmd_depth_report(args: argparse.Namespace) -> None:
    s = Settings(args)
    out = s.output_path()
    try:
        sizes = [int(p) for p in args.sizes.split(",") if p.strip()]
    except ValueError as exc:
        raise InputError(f"bad sizes list {args.sizes!r}") from exc
    if not sizes:
        raise InputError("at least one lattice size is required")
    t = s.get("t", "model", "t", float, default=1.0)
    V = s.get("v", "model", "v", float, default=2.0)
    dt = s.get("dt", "trotter", "dt", float, default=0.05)

    rows = ["L,trotter_depth_2q,trotter_gates_1q,trotter_gates_2q,vacuum_gates_2q"]
    ls, counts = [], []
    for L in sizes:
        spec = LatticeSpec(L, L)
        step = circ.trotter_step(spec, t, V, dt)
        rep = circ.schedule(step)
        vac2q = sum(1 for g in circ.vacuum_circuit(spec) if g.arity >= 2)
        n1 = rep.counts_by_arity.get(1, 0)
        n2 = rep.counts_by_arity.get(2, 0)
        rows.append(f"{L},{rep.two_qubit_depth},{n1},{n2},{vac2q}")
        ls.append(L)
        counts.append(n2)
    l2 = np.array(ls, dtype=float) ** 2
    c = float(np.dot(counts, l2) / np.dot(l2, l2))
    resid = float(np.max(np.abs(np.array(counts) - c * l2) / (c * l2))) * 100.0
    rows.append(f"# fit_c={fmt(c)} max_residual_pct={fmt(resid)}")
    _write_text(out, "\n".join(rows) + "\n")


# ----------------------------------------------------------- circuit export

def cmd_export_circuit(args: argparse.Namespace) -> None:
    s = Settings(args)
    out = s.output_path()
    spec = build_lattice(s)
    kind = args.kind
    if kind == "vacuum":
        circuit = circ.vacuum_circuit(spec)
    elif kind == "trotter":
        t = s.get("t", "model", "t", float, default=1.0)
        V = s.get("v", "model", "v", float, default=2.0)
        dt = s.get("dt", "trotter", "dt", float, required=True)
        circuit = circ.trotter_step(spec, t, V, dt)
    elif kind == "ansatz":
        ansatz = s.get("ansatz", "vqe", "ansatz", str, default="agate")
        layers = s.get("layers", "vqe", "layers", int, default=2)
        granularity = s.get("granularity", "vqe", "granularity", str, default="per_edge")
        seed = s.get("seed", "vqe", "seed", int)
        if seed is not None and seed < 0:
            raise InputError("seed must be non-negative")
        if ansatz not in ("agate", "hv"):
            raise InputError(f"unknown ansatz {ansatz!r}")
        # checks layers and granularity for either ansatz
        hv_params = circ.hv_param_count(spec, layers, granularity)
        n_params = circ.agate_param_count(spec, layers) if ansatz == "agate" else hv_params
        if seed is None:
            params = np.zeros(n_params)
        else:
            params = np.random.default_rng(seed).uniform(-0.1, 0.1, n_params)
        if ansatz == "agate":
            circuit = circ.ansatz_agate(spec, layers, params)
        else:
            circuit = circ.ansatz_hv(spec, layers, params, granularity)
    else:
        raise InputError(f"unknown circuit kind {kind!r}")
    _write_text(out, circ.export_text(circuit))


# ----------------------------------------------------------- spectrum match

def cmd_spectrum_match(args: argparse.Namespace) -> None:
    s = Settings(args)
    out = s.output_path()
    spec = build_lattice(s)
    t = s.get("t", "model", "t", float, default=1.0)
    V = s.get("v", "model", "v", float, required=True)
    for n_f in args.n_f or ():
        if not 0 <= n_f <= spec.n_sites:
            raise InputError(f"n-f {n_f} lies outside [0, {spec.n_sites}]")
    cs = constraint_set(spec)
    H = tv_hamiltonian(spec, t, V)
    # every sector is built (and size-checked) before any is diagonalised; an
    # absent sector never matches the fermionic one, and by default is left out
    sectors = {n_f: cached_sector(spec, cs, n_f)
               for n_f in (sorted(set(args.n_f)) if args.n_f else range(spec.n_sites + 1))}
    encoded = {n_f: np.linalg.eigvalsh(restrict_sum(b, H)) if b.dim else np.array([])
               for n_f, b in sectors.items() if b.dim or args.n_f}
    matches = oracle.matching_bc_sectors(spec, t, V, encoded)
    if not matches:
        text = "no fermionic boundary sector matches within 1e-08"
        _write_text(out, text + "\n")
        raise ScientificFailure(text)
    dev = 0.0
    for sector in matches:
        for n_f, vals in encoded.items():
            ref = oracle.ed_spectrum(spec, t, V, None, sector, n_f).eigenvalues
            dev = max(dev, float(np.max(np.abs(ref - vals))))
    names = ", ".join(f"sx={m.sx:+d} sy={m.sy:+d}" for m in matches)
    head = "matched sector" if len(matches) == 1 else f"matched {len(matches)} sectors:"
    _write_text(out, f"{head} {names} "
                f"max_deviation={dev:.3e} sectors={','.join(str(n) for n in encoded)}\n")
    require("encoded spectra deviate from fermionic ED by", dev, 1e-8)


# -------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="f2q",
        description="Local fermion-to-qubit encoding experiments on the 2D t-V model.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, lattice=True):
        sp.add_argument("--config", help="INI config file")
        sp.add_argument("--output", help="output file (default stdout)")
        if lattice:
            sp.add_argument("--lx", type=int)
            sp.add_argument("--ly", type=int)
            sp.add_argument("--rho", type=int, choices=(1, -1))

    sp = sub.add_parser("check-constraints",
                        help="verify stabilizer targets after state preparation")
    common(sp)
    sp.add_argument("--pairs", help='pair-creation edges "rx,ry,x;rx,ry,y"')
    sp.set_defaults(func=cmd_check_constraints)

    sp = sub.add_parser("quench", help="Trotter quench vs two exact references (CSV)")
    common(sp)
    sp.add_argument("--t", type=float)
    sp.add_argument("--v", type=float, help="interaction strength after the quench")
    sp.add_argument("--n-f", type=int, dest="n_f")
    sp.add_argument("--dt", type=float)
    sp.add_argument("--tmax", type=float)
    sp.add_argument("--k", type=float, help="pre-quench pinning potential strength")
    sp.add_argument("--potentials", help='pre-quench potentials "rx,ry=value;..."')
    sp.set_defaults(func=cmd_quench)

    sp = sub.add_parser("vqe", help="variational ground-state search (JSON)")
    common(sp)
    sp.add_argument("--t", type=float)
    sp.add_argument("--v", type=float)
    sp.add_argument("--n-f", type=int, dest="n_f")
    sp.add_argument("--ansatz", choices=("agate", "hv"))
    sp.add_argument("--layers", type=int)
    sp.add_argument("--granularity", choices=("per_group", "per_edge"))
    sp.add_argument("--seed", type=int)
    sp.add_argument("--max-steps", type=int, dest="max_steps")
    sp.add_argument("--learning-rate", type=float, dest="learning_rate")
    sp.add_argument("--lr-decay", type=float, dest="lr_decay")
    sp.add_argument("--restarts", type=int)
    sp.add_argument("--window", type=int)
    sp.add_argument("--tolerance", type=float)
    sp.add_argument("--init-scale", type=float, dest="init_scale")
    sp.set_defaults(func=cmd_vqe)

    sp = sub.add_parser("depth-report", help="Trotter depth and gate-count table (CSV)")
    common(sp, lattice=False)
    sp.add_argument("--sizes", default="4,6,8,10", help="comma-separated square sizes")
    sp.add_argument("--t", type=float)
    sp.add_argument("--v", type=float)
    sp.add_argument("--dt", type=float)
    sp.set_defaults(func=cmd_depth_report)

    sp = sub.add_parser("export-circuit", help="write a circuit in the text format")
    common(sp)
    sp.add_argument("--kind", required=True, choices=("vacuum", "trotter", "ansatz"))
    sp.add_argument("--t", type=float)
    sp.add_argument("--v", type=float)
    sp.add_argument("--dt", type=float)
    sp.add_argument("--ansatz", choices=("agate", "hv"))
    sp.add_argument("--layers", type=int)
    sp.add_argument("--granularity", choices=("per_group", "per_edge"))
    sp.add_argument("--seed", type=int)
    sp.set_defaults(func=cmd_export_circuit)

    sp = sub.add_parser("spectrum-match",
                        help="match encoded spectra to a fermionic boundary sector")
    common(sp)
    sp.add_argument("--t", type=float)
    sp.add_argument("--v", type=float)
    sp.add_argument("--n-f", type=int, action="append", dest="n_f",
                    help="occupation sector (repeatable; default: all)")
    sp.set_defaults(func=cmd_spectrum_match)

    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; the only place an exit code is chosen."""
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except InputError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ScientificFailure as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
