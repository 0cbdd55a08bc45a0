"""Variational ground-state search inside the constrained subspace.

Two evaluation routes exist on purpose. The default "sector" route applies
every number-conserving gate as an exact 2x2 update on the occupation-number
basis of the constrained subspace; the "full" route simulates the actual
circuits on the complete register. run() cross-checks the routes at the
first and best parameter points and fails if their energies differ by more
than 1e-10, so they can never drift apart silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import circuits as circ
from . import oracle
from .lattice import (Edge, InputError, LatticeSpec, ScientificFailure, aux_index, edge_sites,
                      edges, phys_index, site_index)
from .pauli import PauliString, PauliSum, X, Y, Z, constraint_set, number_sum, tv_hamiltonian
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
            raise InputError("learning_rate must be positive")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise InputError("beta1, beta2 must lie in (0, 1)")
        if self.max_steps < 1 or self.window < 2:
            raise InputError("max_steps >= 1 and window >= 2 required")
        if self.restarts < 1:
            raise InputError("restarts must be positive")
        if self.seed < 0 or self.lr_decay < 0:
            raise InputError("seed and lr_decay must be non-negative")


def _disjoint_edges(spec: LatticeSpec, count: int) -> Tuple[Edge, ...]:
    """Up to `count` site-disjoint edges, taken greedily in edges(spec) order."""
    chosen, used = [], set()
    for e in edges(spec):
        ends = set(edge_sites(spec, e))
        if len(chosen) < count and not ends & used:
            chosen.append(e)
            used |= ends
    return tuple(chosen)


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
            raise InputError("ansatz must be agate or hv")
        if self.n_f % 2 != 0 or self.n_f < 0:
            raise InputError("n_f must be even and non-negative")
        if self.layers < 1:
            raise InputError("layers must be positive")
        if self.init_scale < 0:
            raise InputError("init_scale must be non-negative")
        if self.pair_edges is None:
            self.pair_edges = _disjoint_edges(self.spec, self.n_f // 2)
        self.pair_edges = tuple(self.pair_edges)
        ends = {r for e in self.pair_edges for r in edge_sites(self.spec, e)}
        if 2 * len(self.pair_edges) != self.n_f or len(ends) != self.n_f:
            raise InputError(f"n_f = {self.n_f} needs {self.n_f // 2} site-disjoint pair-creation "
                             f"edges; have {len(self.pair_edges)} covering {len(ends)} sites")

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
        self.h_sector = restrict_sum(self.basis, tv_hamiltonian(spec, config.t, config.V), self.cols)
        self._edge_tables: Dict[Edge, Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}
        self._gate_plan = self._build_plan()
        self._init_vec: Optional[np.ndarray] = None

    # ---------------------------------------------------------- construction

    def _pairing_matrix(self, e: Edge, cols: Optional[np.ndarray] = None) -> np.ndarray:
        spec = self.config.spec
        return restrict_sum(self.basis, PauliSum(spec.n_qubits, [(1, pairing_string(spec, e))]), cols)

    def _edge_table(self, e: Edge):
        """Sector positions J (site s occupied, r empty), K and c with T|J> = c|K>
        for the edge's pairing string T, and the positions with both sites occupied."""
        if e not in self._edge_tables:
            spec = self.config.spec
            r, s = edge_sites(spec, e)
            occ = self.basis.occ_masks[self.cols]
            has_r = (occ >> site_index(spec, r)) & 1 == 1
            has_s = (occ >> site_index(spec, s)) & 1 == 1
            J = np.flatnonzero(has_s & ~has_r)
            M = self._pairing_matrix(e, self.cols)[:, J]
            K = np.argmax(np.abs(M), axis=0)
            c = M[K, np.arange(J.size)]
            dev = float(np.max(np.abs(np.abs(c) - 1.0), initial=0.0))
            if dev > 1e-12:
                raise ScientificFailure(f"pairing coefficient modulus differs from 1 by {dev:.3e} > 1e-12")
            self._edge_tables[e] = (J, K, c.reshape(-1, 1), np.flatnonzero(has_r & has_s))
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
            # the vacuum column, then each pair creation over the whole basis
            vec = (self.basis.phys_occ == 0).astype(np.complex128)
            for e in cfg.pair_edges:
                vec = self._pairing_matrix(e) @ vec
            return vec[self.cols]
        h0 = tv_hamiltonian(cfg.spec, cfg.t, 0.0)
        _, state = ground_in_sector(h0, cfg.spec, self.cs, cfg.n_f)
        coeffs = self.basis.project(state)[self.cols]
        norm = np.linalg.norm(coeffs)
        if abs(norm - 1.0) > 1e-9:
            raise ScientificFailure("free-fermion state norm in the sector differs from 1 by "
                                    f"{abs(norm - 1.0):.3e} > 1e-9")
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


# ------------------------------------------------------------- public routes

def _exact_reference(config: VqeConfig, model: SectorModel) -> Tuple[float, oracle.BCSector]:
    """Exact reference energy from fermionic ED in the matched BC sector."""
    enc = np.linalg.eigvalsh(model.h_sector)
    sector = oracle.match_bc_sector(config.spec, config.t, config.V, {config.n_f: enc})
    e_fermi, _ = oracle.ed_ground(config.spec, config.t, config.V, None, sector, config.n_f)
    if abs(e_fermi - enc[0]) > 1e-8:
        raise ScientificFailure("encoded and fermionic ground energies differ by "
                                f"{abs(e_fermi - enc[0]):.3e} > 1e-8")
    return float(e_fermi), sector


def initial_state_full(config: VqeConfig) -> StateVector:
    spec = config.spec
    if config.ansatz == "agate":
        prep = circ.vacuum_circuit(spec)
        for e in config.pair_edges:
            prep.extend(circ.pair_creation(spec, e))
        return circ.apply_circuit(zero_state(spec.n_qubits), circ.fuse(prep))
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
        circ.apply_circuit(state, circ.fuse(ansatz_circuit(config, params)))
        return expval(state, tv_hamiltonian(config.spec, config.t, config.V))
    raise ValueError("route must be sector or full")


def _spot_check(config: VqeConfig, model: SectorModel, params: np.ndarray) -> Tuple[float, float]:
    """Full-route constraint/number deviation and route energy disagreement."""
    state = initial_state_full(config)
    circ.apply_circuit(state, circ.fuse(ansatz_circuit(config, params)))
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
        raise ScientificFailure(f"ansatz state violates constraints by {check_dev:.3e} > 1e-10")
    if route_dev > 1e-10:
        raise ScientificFailure(f"sector and full-register energies differ by {route_dev:.3e} > 1e-10")
    if best_e < exact_energy - 1e-9:
        raise ScientificFailure("variational bound violated: best energy lies "
                                f"{exact_energy - best_e:.3e} > 1e-9 below the exact one")

    # relative to |exact_energy|; absolute where the exact energy is 0 (n_f = 0)
    raw = abs(best_e - exact_energy) / (abs(exact_energy) or 1.0)
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
