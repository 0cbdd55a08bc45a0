"""The four benchmark workloads.

Each workload makes its inputs from the seed, builds its set-up, runs one
round of program calls (the timed part) and checks every output of a round
against references that do not come from the code path being timed. A round
is always the same list of operations, so every run attempts whole rounds.
Program functions are called through their modules (`cli.quench_trajectories`,
not a local name) so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
from itertools import combinations
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from f2q import cli, oracle, pauli, statevec, vqe
from f2q.lattice import LatticeSpec, Site

T_HOP = 1.0


class Op:
    """Outcome of one operation: its output, or the error it raised."""

    def __init__(self, label: str, value=None, error: Optional[str] = None):
        self.label = label
        self.value = value
        self.error = error


def call(label: str, fn: Callable, *args) -> Op:
    # A failing operation is counted, not fatal: the run goes on to its end.
    try:
        return Op(label, value=fn(*args))
    except Exception as exc:  # noqa: BLE001 - every program error counts as a failed op
        return Op(label, error=f"{type(exc).__name__}: {exc}")


def _digest(parts: Sequence[bytes]) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(len(p).to_bytes(8, "little"))
        h.update(p)
    return h.hexdigest()[:32]


def _max_abs(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)), initial=0.0))


class Workload:
    name = ""
    lattices: Sequence[LatticeSpec] = ()  # each gets its basis built in set-up
    units_per_round = 0  # units of work in one round, for work_per_s

    def __init__(self, seed: int, quick: bool):
        self.seed = seed

    def setup(self) -> None:
        """Work a CLI call pays once: the constrained basis of each lattice."""
        for spec in self.lattices:
            statevec.cached_basis(spec, pauli.constraint_set(spec))

    def run_round(self) -> List[Op]:
        raise NotImplementedError

    def check(self, ops: List[Op]) -> List[List[str]]:
        """Failure messages per operation; an empty list means it passed."""
        fails = [[op.error] if op.error else [] for op in ops]
        for i, op in enumerate(ops):
            if op.error:
                continue
            try:
                fails[i].extend(self.check_one(op, ops))
            except Exception as exc:  # noqa: BLE001 - malformed output fails its op
                fails[i].append(f"output cannot be checked: {type(exc).__name__}: {exc}")
        return fails

    def check_one(self, op: Op, ops: List[Op]) -> List[str]:
        raise NotImplementedError

    def digest(self, ops: List[Op]) -> str:
        parts: List[bytes] = []
        for op in ops:
            parts.append(op.label.encode())
            parts.extend([op.error.encode()] if op.error else self.digest_parts(op.value))
        return _digest(parts)

    def digest_parts(self, value) -> List[bytes]:
        raise NotImplementedError


# ---------------------------------------------------------------- quench-3x3

class Quench(Workload):
    """Trotter quench on the 3x3 torus at dt and dt/2 against two exact references."""

    name = "quench-3x3"
    V = 3.0
    N_F = 2
    DT = 0.2
    TMAX = 0.2
    # the CLI's default pinned pre-quench: k = 1 on sites (0,0) and (0,1)
    PRE_POTENTIALS = {Site(0, 0): -1.0, Site(0, 1): -1.0}

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed, quick)
        self.spec = LatticeSpec(2, 2) if quick else LatticeSpec(3, 3)
        self.lattices = [self.spec]
        self.units_per_round = sum(round(self.TMAX / dt) for dt in (self.DT, self.DT / 2))

    def run_round(self) -> List[Op]:
        return [call(f"dt={dt!r}", cli.quench_trajectories, self.spec, T_HOP, self.V,
                     self.N_F, self.PRE_POTENTIALS, dt, self.TMAX)
                for dt in (self.DT, self.DT / 2)]

    def check_one(self, op: Op, ops: List[Op]) -> List[str]:
        times, occ_tr, occ_enc, occ_fm = op.value
        out = []
        ref = _max_abs(occ_enc, occ_fm)
        if not ref <= 1e-8:
            out.append(f"encoded and fermionic references differ by {ref:.3e} > 1e-8")
        for kind, occ in (("trotter", occ_tr), ("encoded", occ_enc), ("fermionic", occ_fm)):
            dev = _max_abs(np.sum(occ, axis=1), self.N_F)
            if not dev <= 1e-10:
                out.append(f"{kind} occupations sum off n_f by {dev:.3e} > 1e-10")
        if op is ops[1]:
            out.extend(self.check_halving(ops))
        return out

    @staticmethod
    def check_halving(ops: List[Op]) -> List[str]:
        """First-order Trotter: halving dt halves the deviation from exact."""
        if any(o.error for o in ops):
            return ["dt-halving ratio not computable: a trajectory failed"]
        errs = [_max_abs(o.value[1], o.value[2]) for o in ops]
        ratio = errs[0] / errs[1] if errs[1] > 0 else math.inf
        if not 1.6 <= ratio <= 2.4:
            return [f"dt-halving error ratio {ratio:.3f} outside [1.6, 2.4]"]
        return []

    def digest_parts(self, value) -> List[bytes]:
        return [np.ascontiguousarray(a, dtype=float).tobytes() for a in value]


# ------------------------------------------------------------------ vqe-2x4

class Vqe(Workload):
    """A-gate and HV ansatz searches on 2x4 in the n_f = 2 sector."""

    name = "vqe-2x4"
    V = 3.0
    N_F = 2
    # (ansatz, layers, Adam steps). tolerance = 0 below turns off the early
    # stop, so every seed does the same number of steps.
    RUNS = (("agate", 3, 4000), ("hv", 3, 1000))
    QUICK_RUNS = (("agate", 3, 300), ("hv", 3, 100))

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed, quick)
        self.spec = LatticeSpec(2, 2) if quick else LatticeSpec(2, 4)
        self.lattices = [self.spec]
        self.runs = self.QUICK_RUNS if quick else self.RUNS
        self.units_per_round = sum(steps for _, _, steps in self.runs)

    def run_round(self) -> List[Op]:
        ops = []
        for ansatz, layers, steps in self.runs:
            config = vqe.VqeConfig(spec=self.spec, t=T_HOP, V=self.V, n_f=self.N_F,
                                   ansatz=ansatz, layers=layers, granularity="per_edge")
            opt = vqe.OptimizerConfig(max_steps=steps, seed=self.seed, tolerance=0.0)
            ops.append(call(f"{ansatz}{layers}L", vqe.run, config, opt))
        return ops

    def check_one(self, op: Op, ops: List[Op]) -> List[str]:
        tr = op.value
        steps = dict((f"{a}{l}L", s) for a, l, s in self.runs)[op.label]
        out = []
        if tr.n_steps != steps or len(tr.energies) != steps + 1:
            out.append(f"ran {tr.n_steps} steps, budget {steps}")
        if not tr.relative_error_raw <= 1e-4:
            out.append(f"relative error {tr.relative_error_raw:.3e} > 1e-4")
        if not tr.final_energy >= tr.exact_energy - 1e-9:
            out.append(f"final energy {tr.final_energy!r} below exact {tr.exact_energy!r}")
        sector = oracle.BCSector(*tr.matched_sector)
        e_ed, _ = oracle.ed_ground(self.spec, T_HOP, self.V, None, sector, self.N_F)
        if not abs(tr.exact_energy - e_ed) <= 1e-8:
            out.append(f"exact energy {tr.exact_energy!r} differs from ED {e_ed!r}")
        for key in ("constraint_deviation", "dual_route_deviation"):
            if not getattr(tr, key) <= 1e-10:
                out.append(f"{key} {getattr(tr, key):.3e} > 1e-10")
        return out

    def digest_parts(self, value) -> List[bytes]:
        return [np.ascontiguousarray(value.energies, dtype=float).tobytes()]


# ----------------------------------------------------------- spectrum-sweep

def hopping_matrix(Lx: int, Ly: int, sx: int, sy: int, t: float = T_HOP) -> np.ndarray:
    """Single-particle hopping matrix of the torus, built here from scratch.

    Site (rx, ry) is mode rx + Lx*ry. Every site has an x-edge and a y-edge to
    its forward neighbour; an edge that wraps carries the boundary sign.
    Width-2 lattices therefore keep both edges between the same pair of sites.
    """
    N = Lx * Ly
    h = np.zeros((N, N))
    for ry in range(Ly):
        for rx in range(Lx):
            i = rx + Lx * ry
            for j, w in (((rx + 1) % Lx + Lx * ry, sx if rx == Lx - 1 else 1),
                         (rx + Lx * ((ry + 1) % Ly), sy if ry == Ly - 1 else 1)):
                h[i, j] -= t * w
                h[j, i] -= t * w
    return h


def free_fermion_spectrum(h: np.ndarray, n_f: int) -> np.ndarray:
    """Sorted sums of n_f distinct single-particle energies."""
    eps = np.linalg.eigvalsh(h)
    return np.sort([sum(c) for c in combinations(eps, n_f)])


class SpectrumSweep(Workload):
    """`f2q spectrum-match` steps over a V sweep on 2x2, 2x4 and 3x3."""

    name = "spectrum-sweep"
    SIZES = ((2, 2), (2, 4), (3, 3))
    V_SWEEP = (0.0, 0.5, 1.0, 2.0, 3.0, 4.0)

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed, quick)
        self.lattices = [LatticeSpec(*s) for s in (self.SIZES[:1] if quick else self.SIZES)]
        self.vs = (0.0, 2.0) if quick else self.V_SWEEP

    def setup(self) -> None:
        super().setup()
        n_sectors = 0
        for spec in self.lattices:
            basis = statevec.cached_basis(spec, pauli.constraint_set(spec))
            n_sectors += len(basis.occ_counts)
        self.units_per_round = n_sectors * len(self.vs)

    def run_round(self) -> List[Op]:
        return [call(f"{spec.Lx}x{spec.Ly} V={V!r}", self.spectrum_match, spec, V)
                for spec in self.lattices for V in self.vs]

    @staticmethod
    def spectrum_match(spec: LatticeSpec, V: float) -> Dict:
        """What `f2q spectrum-match` computes for all occupation sectors."""
        basis = statevec.cached_basis(spec, pauli.constraint_set(spec))
        H = pauli.tv_hamiltonian(spec, T_HOP, V)
        encoded = {}
        for n_f in sorted(basis.occ_counts):
            cols = np.flatnonzero(basis.phys_occ == n_f)
            encoded[n_f] = np.linalg.eigvalsh(statevec.restrict_sum(basis, H, cols))
        sector = oracle.match_bc_sector(spec, T_HOP, V, encoded)
        ed = {n_f: oracle.ed_spectrum(spec, T_HOP, V, None, sector, n_f).eigenvalues
              for n_f in encoded}
        return {"spec": spec, "V": V, "encoded": encoded, "sector": sector, "ed": ed,
                "occ_counts": dict(basis.occ_counts)}

    def check_one(self, op: Op, ops: List[Op]) -> List[str]:
        return check_spectrum(op.value)

    def digest_parts(self, value) -> List[bytes]:
        parts = [repr(tuple(value["sector"])).encode()]
        parts += [np.ascontiguousarray(v).tobytes() for v in value["encoded"].values()]
        return parts


def check_spectrum(value: Dict) -> List[str]:
    spec, V, encoded = value["spec"], value["V"], value["encoded"]
    N = spec.n_sites
    out = []
    counts = value["occ_counts"]
    if sorted(counts) != list(range(0, N + 1, 2)):
        out.append(f"occupation sectors {sorted(counts)} are not the even n in 0..{N}")
    if sum(counts.values()) != 2 ** (N - 1):
        out.append(f"subspace dimension {sum(counts.values())} != 2^(N-1)")
    for n_f, vals in encoded.items():
        if counts.get(n_f) != math.comb(N, n_f) or len(vals) != math.comb(N, n_f):
            out.append(f"n_f={n_f}: sector dimension {len(vals)} != C({N},{n_f})")
            continue
        ref = value["ed"][n_f]
        if len(ref) != len(vals) or not _max_abs(ref, vals) <= 1e-8:
            out.append(f"n_f={n_f}: encoded spectrum differs from ED")
    if V == 0.0 and not out:
        sx, sy = value["sector"]
        h = hopping_matrix(spec.Lx, spec.Ly, sx, sy)
        for n_f, vals in encoded.items():
            if not _max_abs(free_fermion_spectrum(h, n_f), vals) <= 1e-8:
                out.append(f"n_f={n_f}: V=0 spectrum differs from free fermions")
    return out


# ----------------------------------------------------------- tracking-large

class Tracking(Workload):
    """`f2q check-constraints` and `f2q depth-report` on L x L lattices."""

    name = "tracking-large"
    SIZES = (4, 6, 8, 10, 12)  # even L: the two-qubit Trotter depth is constant

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed, quick)
        self.sizes = self.SIZES[:2] if quick else self.SIZES
        rng = random.Random(seed)
        # L distinct pair-creation edges per lattice, drawn from the seed
        self.pairs = {}
        for L in self.sizes:
            all_edges = [(rx, ry, d) for d in "xy" for ry in range(L) for rx in range(L)]
            self.pairs[L] = ";".join(f"{rx},{ry},{d}" for rx, ry, d in rng.sample(all_edges, L))
        self.units_per_round = sum(L * L + 2 * L for L in self.sizes)

    def run_round(self) -> List[Op]:
        return [call(f"L={L}", self.track, L, self.pairs[L]) for L in self.sizes]

    @staticmethod
    def track(L: int, pairs: str) -> Tuple[int, str, int, str]:
        size = ["--lx", str(L), "--ly", str(L)]
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            code_cc = cli.main(["check-constraints", *size, "--pairs", pairs])
        constraints = buf.getvalue()
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            code_dr = cli.main(["depth-report", "--sizes", str(L)])
        return code_cc, constraints, code_dr, buf.getvalue()

    def check_one(self, op: Op, ops: List[Op]) -> List[str]:
        L = int(op.label[2:])
        first = next((o for o in ops if not o.error), op)
        return check_tracking(L, op.value, first.value)

    def digest_parts(self, value) -> List[bytes]:
        return [repr(value).encode()]


def _depth_row(report: str) -> List[int]:
    return [int(x) for x in report.splitlines()[1].split(",")]


def check_tracking(L: int, value, reference) -> List[str]:
    code_cc, constraints, code_dr, report = value
    out = []
    if code_cc != 0 or code_dr != 0:
        out.append(f"exit codes {code_cc}, {code_dr}")
    lines = constraints.splitlines()
    if len(lines) != L * L + 2 * L:
        out.append(f"{len(lines)} stabilizer lines, expected L^2 + 2L = {L * L + 2 * L}")
    for line in lines:
        toks = line.split()
        target, value_ = int(toks[-4]), float(toks[-2])
        if toks[0] == "gauss" and target != 1:
            out.append(f"{line!r}: Gauss target is not +1")
        if not abs(value_ - target) <= 1e-10:
            out.append(f"{line!r}: value off target by more than 1e-10")
    L_row, depth, _, n2q, vac2q = _depth_row(report)
    if L_row != L:
        out.append(f"depth report is for L={L_row}")
    if n2q != 24 * L * L:
        out.append(f"{n2q} two-qubit Trotter gates, expected 24 L^2 = {24 * L * L}")
    if vac2q != 3 * (L - 1) ** 2:
        out.append(f"{vac2q} vacuum two-qubit gates, expected 3(L-1)^2 = {3 * (L - 1) ** 2}")
    ref_depth = _depth_row(reference[3])[1]
    if depth != ref_depth:
        out.append(f"two-qubit Trotter depth {depth} differs from {ref_depth} at the "
                   "smallest lattice")
    return out


WORKLOADS = {w.name: w for w in (Quench, Vqe, SpectrumSweep, Tracking)}
