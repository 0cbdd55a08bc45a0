"""Variational ground-state search inside the constrained subspace.

Two evaluation routes exist on purpose. The default "sector" route applies
every number-conserving gate as an exact 2x2 update on the occupation-number
basis of the constrained subspace; the "full" route simulates the actual
circuits on the complete register. run() cross-checks the routes at the
first and best parameter points so they can never drift apart silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import circuits as circ
from . import oracle
from .lattice import Edge, InputError, LatticeSpec, aux_index, edge_sites, edges, phys_index, site_index
from .pauli import PauliString, X, Y, Z, constraint_set, number_sum, tv_hamiltonian
from .statevec import (
    StateVector,
    cached_basis,
    expval,
    expval_string,
    ground_in_sector,
    restrict_sum,
    zero_state,
)


@dataclass
class OptimizerConfig:
    learning_rate: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    max_steps: int = 5000
    seed: int = 7
    lr_decay: float = 2e-3  # lr_t = lr / (1 + lr_decay * step)
    window: int = 150
    tolerance: float = 1e-11
    restarts: int = 1  # independent starts seeded seed, seed+1, ...; best kept

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ValueError("beta1, beta2 must lie in (0, 1)")
        if self.max_steps < 1 or self.window < 2:
            raise ValueError("max_steps >= 1 and window >= 2 required")
        if self.restarts < 1:
            raise ValueError("restarts must be positive")


@dataclass
class VqeConfig:
    spec: LatticeSpec
    t: float
    V: float
    n_f: int
    ansatz: str = "agate"
    layers: int = 2
    granularity: str = "per_edge"
    pair_edges: Optional[Tuple[Edge, ...]] = None
    init_scale: float = 0.1

    def __post_init__(self):
        if self.ansatz not in ("agate", "hv"):
            raise ValueError("ansatz must be agate or hv")
        if self.n_f % 2 != 0 or self.n_f < 0:
            raise ValueError("n_f must be even and non-negative")
        if self.layers < 1:
            raise ValueError("layers must be positive")
        if self.pair_edges is None:
            defaults = tuple(edges(self.spec)[: self.n_f // 2])
            object.__setattr__(self, "pair_edges", defaults)
        self.pair_edges = tuple(self.pair_edges)
        if 2 * len(self.pair_edges) != self.n_f:
            raise ValueError("need n_f/2 pair-creation edges")

    @property
    def n_params(self) -> int:
        if self.ansatz == "agate":
            return circ.agate_param_count(self.spec, self.layers)
        return circ.hv_param_count(self.spec, self.layers, self.granularity)


@dataclass
class RunTrace:
    energies: np.ndarray
    best_params: np.ndarray
    final_energy: float
    exact_energy: float
    relative_error_raw: float
    relative_error: float
    matched_sector: Tuple[int, int]
    n_steps: int
    converged: bool
    constraint_deviation: float
    dual_route_deviation: float


def pairing_string(spec: LatticeSpec, e: Edge) -> PauliString:
    """Pauli string that creates (or hops) a pair across the edge."""
    r, s = edge_sites(spec, e)
    letters = {phys_index(spec, r): X, phys_index(spec, s): X}
    if e.direction == "x":
        letters[aux_index(spec, s)] = Z
    else:
        letters[aux_index(spec, r)] = Y
        letters[aux_index(spec, s)] = X
    return PauliString(spec.n_qubits, letters)


def _string_action(p: PauliString, label: int) -> Tuple[int, complex]:
    flip, sign, ycount = p.masks()
    coeff = p.phase * (1j ** ycount) * (-1.0) ** int(bin(label & sign).count("1"))
    return label ^ flip, coeff


class SectorModel:
    """Constrained-subspace state machine for number-conserving ansaetze."""

    def __init__(self, config: VqeConfig):
        self.config = config
        spec = config.spec
        self.cs = constraint_set(spec)
        self.basis = cached_basis(spec, self.cs)
        self.cols = np.flatnonzero(self.basis.phys_occ == config.n_f)
        if self.cols.size == 0:
            raise InputError(f"no constrained states with particle number {config.n_f}")
        self.dim = self.cols.size
        self._sector_of_occ = {int(self.basis.occ_masks[c]): i for i, c in enumerate(self.cols)}
        self.h_sector = restrict_sum(self.basis, tv_hamiltonian(spec, config.t, config.V), self.cols)
        self._edge_tables: Dict[Edge, Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}
        self._gate_plan = self._build_plan()
        self._init_vec: Optional[np.ndarray] = None

    # ---------------------------------------------------------- construction

    def _column_pauli(self, p: PauliString, col: int) -> Tuple[int, complex]:
        """p |column> = coeff |column'>, for p preserving the subspace."""
        j0 = self.basis.col_ptr[col]
        y = int(self.basis.labels[j0])
        z, coeff = _string_action(p, y)
        pos = np.searchsorted(self.basis.sorted_labels, z)
        if pos >= self.basis.sorted_labels.size or self.basis.sorted_labels[pos] != z:
            raise ValueError("string leaves the constrained subspace")
        other = int(self.basis.sorted_cols[pos])
        coeff = coeff * self.basis.amps[j0] / self.basis.sorted_amps[pos]
        if abs(abs(coeff) - 1.0) > 1e-12:
            raise AssertionError("pairing coefficient is not a pure phase")
        return other, coeff

    def _edge_table(self, e: Edge):
        if e not in self._edge_tables:
            spec = self.config.spec
            r, s = edge_sites(spec, e)
            bit_r = 1 << site_index(spec, r)
            bit_s = 1 << site_index(spec, s)
            T = pairing_string(spec, e)
            occ = self.basis.occ_masks
            js, ks, cs_ = [], [], []
            both = []
            for i, c in enumerate(self.cols):
                o = int(occ[c])
                if o & bit_r and o & bit_s:
                    both.append(i)
                elif (not o & bit_r) and (o & bit_s):
                    k_col, coeff = self._column_pauli(T, int(c))
                    js.append(i)
                    ks.append(self._sector_of_occ[int(occ[k_col])])
                    cs_.append(coeff)
            self._edge_tables[e] = (
                np.array(js, dtype=np.int64),
                np.array(ks, dtype=np.int64),
                np.array(cs_, dtype=np.complex128).reshape(-1, 1),
                np.array(both, dtype=np.int64),
            )
        return self._edge_tables[e]

    def _build_plan(self) -> List[Tuple[str, Edge, Tuple[int, ...]]]:
        cfg = self.config
        if cfg.ansatz == "agate":
            return circ.agate_layout(cfg.spec, cfg.layers)
        return circ.hv_layout(cfg.spec, cfg.layers, cfg.granularity)

    # ---------------------------------------------------------- state prep

    def initial_vector(self) -> np.ndarray:
        if self._init_vec is None:
            self._init_vec = self._build_initial_vector()
        return self._init_vec.copy()

    def _build_initial_vector(self) -> np.ndarray:
        cfg = self.config
        if cfg.ansatz == "agate":
            zero_cols = np.flatnonzero(self.basis.phys_occ == 0)
            col = int(zero_cols[0])
            amp = 1.0 + 0j
            for e in cfg.pair_edges:
                col, c = self._column_pauli(pairing_string(cfg.spec, e), col)
                amp *= c
            occ = int(self.basis.occ_masks[col])
            if bin(occ).count("1") != cfg.n_f:
                raise ValueError("pair-creation edges overlap; wrong particle number")
            vec = np.zeros(self.dim, dtype=np.complex128)
            vec[self._sector_of_occ[occ]] = amp
            return vec
        h0 = tv_hamiltonian(cfg.spec, cfg.t, 0.0)
        _, state = ground_in_sector(h0, cfg.spec, self.cs, cfg.n_f)
        coeffs = self.basis.project(state)[self.cols]
        norm = np.linalg.norm(coeffs)
        if abs(norm - 1.0) > 1e-9:
            raise AssertionError("free-fermion state leaks outside the sector")
        return coeffs / norm

    # ---------------------------------------------------------- ansatz action

    def apply_ansatz(self, vecs: np.ndarray, params: np.ndarray) -> np.ndarray:
        """Batched in-place application; vecs (dim, B), params (B, n_params)."""
        rho = self.config.spec.rho
        for kind, e, slots in self._gate_plan:
            J, K, c, both = self._edge_table(e)
            if kind == "interaction":
                lam = params[:, slots[0]]
                if both.size:
                    vecs[both] *= np.exp(-1j * lam)[None, :]
                continue
            if J.size == 0:
                continue
            a = vecs[J]
            b = vecs[K]
            if kind == "hop_x":
                th = 2.0 * rho * params[:, slots[0]]
                ct, ist = np.cos(th), 1j * np.sin(th)
                vecs[J] = ct * a + ist * np.conj(c) * b
                vecs[K] = ct * b + ist * c * a
            elif kind == "hop_y":
                th = 2.0 * params[:, slots[0]]
                ct, st = np.cos(th), np.sin(th)
                vecs[J] = ct * a + st * np.conj(c) * b
                vecs[K] = ct * b - st * c * a
            elif kind == "vx":
                th, ph = params[:, slots[0]], params[:, slots[1]]
                ct, st, eip = np.cos(th), np.sin(th), np.exp(1j * ph)
                vecs[J] = ct * a + eip * st * np.conj(c) * b
                vecs[K] = -ct * b + np.conj(eip) * st * c * a
            elif kind == "vy":
                th, ph = params[:, slots[0]], params[:, slots[1]]
                ct, st, eip = np.cos(th), np.sin(th), np.exp(1j * ph)
                vecs[J] = ct * a + 1j * np.conj(eip) * st * np.conj(c) * b
                vecs[K] = -ct * b - 1j * eip * st * c * a
            else:
                raise ValueError(f"unknown plan entry {kind}")
        return vecs

    def energies(self, params_matrix: np.ndarray) -> np.ndarray:
        B = params_matrix.shape[0]
        vecs = np.tile(self.initial_vector()[:, None], (1, B))
        self.apply_ansatz(vecs, params_matrix)
        return np.einsum("ib,ib->b", vecs.conj(), self.h_sector @ vecs).real

    def energy(self, params: Sequence[float]) -> float:
        return float(self.energies(np.asarray(params, dtype=float)[None, :])[0])

    def gradient(self, params: np.ndarray, h: float = 1e-4) -> np.ndarray:
        p = np.asarray(params, dtype=float)
        n = p.size
        pm = np.tile(p, (2 * n, 1))
        idx = np.arange(n)
        pm[2 * idx, idx] += h
        pm[2 * idx + 1, idx] -= h
        e = self.energies(pm)
        return (e[0::2] - e[1::2]) / (2.0 * h)

    def sector_state(self, params: Sequence[float]) -> StateVector:
        vec = self.initial_vector()[:, None]
        self.apply_ansatz(vec, np.asarray(params, dtype=float)[None, :])
        full = np.zeros(self.basis.dim, dtype=np.complex128)
        full[self.cols] = vec[:, 0]
        return self.basis.expand(full)

    def exact_ground(self) -> float:
        return float(np.linalg.eigh(self.h_sector)[0][0])


# ------------------------------------------------------------- public routes

def _exact_reference(config: VqeConfig, model: SectorModel) -> Tuple[float, oracle.BCSector]:
    """Exact reference energy from fermionic ED in the matched BC sector."""
    enc = np.linalg.eigvalsh(model.h_sector)
    sector = oracle.match_bc_sector(config.spec, config.t, config.V, {config.n_f: enc})
    e_fermi, _ = oracle.ed_ground(config.spec, config.t, config.V, None, sector, config.n_f)
    if abs(e_fermi - enc[0]) > 1e-8:
        raise AssertionError("encoded and fermionic references disagree")
    return float(e_fermi), sector


def initial_state_full(config: VqeConfig) -> StateVector:
    spec = config.spec
    if config.ansatz == "agate":
        state = zero_state(spec.n_qubits)
        circ.apply_circuit(state, circ.vacuum_circuit(spec))
        for e in config.pair_edges:
            circ.apply_circuit(state, circ.pair_creation(spec, e))
        return state
    _, state = ground_in_sector(
        tv_hamiltonian(spec, config.t, 0.0), spec, constraint_set(spec), config.n_f
    )
    return state


def ansatz_circuit(config: VqeConfig, params: Sequence[float]) -> "circ.Circuit":
    if config.ansatz == "agate":
        return circ.ansatz_agate(config.spec, config.layers, list(params))
    return circ.ansatz_hv(config.spec, config.layers, list(params), config.granularity)


def energy(config: VqeConfig, params: Sequence[float], route: str = "sector") -> float:
    params = np.asarray(params, dtype=float)
    if params.size != config.n_params:
        raise ValueError(f"expected {config.n_params} parameters, got {params.size}")
    if route == "sector":
        return SectorModel(config).energy(params)
    if route == "full":
        state = initial_state_full(config)
        circ.apply_circuit(state, ansatz_circuit(config, params))
        return expval(state, tv_hamiltonian(config.spec, config.t, config.V))
    raise ValueError("route must be sector or full")


def gradient(config: VqeConfig, params: Sequence[float], h: float = 1e-4,
             model: Optional[SectorModel] = None) -> np.ndarray:
    params = np.asarray(params, dtype=float)
    if params.size != config.n_params:
        raise ValueError(f"expected {config.n_params} parameters, got {params.size}")
    model = model or SectorModel(config)
    return model.gradient(params, h)


def _spot_check(config: VqeConfig, model: SectorModel, params: np.ndarray) -> Tuple[float, float]:
    """Full-route constraint/number deviation and route energy disagreement."""
    state = initial_state_full(config)
    circ.apply_circuit(state, ansatz_circuit(config, params))
    dev = 0.0
    for s, target in model.cs:
        dev = max(dev, abs(expval_string(state, s) - target))
    dev = max(dev, abs(expval(state, number_sum(config.spec)) - config.n_f))
    e_full = expval(state, tv_hamiltonian(config.spec, config.t, config.V))
    return dev, abs(e_full - model.energy(params))


def _adam_descent(model: SectorModel, opt: OptimizerConfig, seed: int):
    rng = np.random.default_rng(seed)
    params = rng.uniform(-model.config.init_scale, model.config.init_scale,
                         size=model.config.n_params)
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    energies = [model.energy(params)]
    first_p = params.copy()
    best_e = energies[0]
    best_p = params.copy()

    converged = False
    step = 0
    for step in range(1, opt.max_steps + 1):
        g = model.gradient(params)
        m = opt.beta1 * m + (1 - opt.beta1) * g
        v = opt.beta2 * v + (1 - opt.beta2) * g * g
        mhat = m / (1 - opt.beta1 ** step)
        vhat = v / (1 - opt.beta2 ** step)
        lr = opt.learning_rate / (1 + opt.lr_decay * step)
        params = params - lr * mhat / (np.sqrt(vhat) + opt.epsilon)
        e = model.energy(params)
        energies.append(e)
        if e < best_e:
            best_e = e
            best_p = params.copy()
        if len(energies) > opt.window:
            recent = energies[-opt.window:]
            if max(recent) - min(recent) < opt.tolerance:
                converged = True
                break
    return energies, best_e, best_p, first_p, step, converged


def run(config: VqeConfig, opt: Optional[OptimizerConfig] = None) -> RunTrace:
    opt = opt or OptimizerConfig()
    model = SectorModel(config)
    exact_energy, sector = _exact_reference(config, model)

    best = None
    for k in range(opt.restarts):
        result = _adam_descent(model, opt, opt.seed + k)
        if best is None or result[1] < best[1]:
            best = result
    energies, best_e, best_p, first_p, step, converged = best

    check_dev, route_dev = _spot_check(config, model, first_p)
    d2, r2 = _spot_check(config, model, best_p)
    check_dev = max(check_dev, d2)
    route_dev = max(route_dev, r2)
    if check_dev > 1e-10:
        raise AssertionError(f"ansatz state violates constraints by {check_dev}")
    if best_e < exact_energy - 1e-9:
        raise AssertionError("variational bound violated")

    raw = abs(best_e - exact_energy) / abs(exact_energy)
    return RunTrace(
        energies=np.array(energies),
        best_params=best_p,
        final_energy=best_e,
        exact_energy=exact_energy,
        relative_error_raw=raw,
        relative_error=0.0 if raw < 1e-6 else raw,
        matched_sector=(sector.sx, sector.sy),
        n_steps=step,
        converged=converged,
        constraint_deviation=check_dev,
        dual_route_deviation=route_dev,
    )
