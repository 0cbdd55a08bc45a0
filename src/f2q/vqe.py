"""Variational ground-state search inside the constrained subspace.

Two evaluation routes exist on purpose. The default "sector" route applies
every number-conserving gate as an exact 2x2 update on the occupation-number
basis of the constrained subspace; the "full" route simulates the actual
circuits on the complete register. run() cross-checks the routes at the
first and best parameter points and fails if their energies differ by more
than 1e-10, so they can never drift apart silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import circuits as circ
from . import oracle
from .lattice import (Edge, InputError, LatticeSpec, aux_index, edge_sites, edges, phys_index,
                      require, site_index)
from .pauli import PauliString, PauliSum, X, Y, Z, constraint_set, number_sum, tv_hamiltonian
from .statevec import (StateVector, cached_sector, expval, expval_string, restrict_between,
                       restrict_sum, sector_ground, zero_state)


# Adam moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class OptimizerConfig:
    learning_rate: float = 1e-2
    max_steps: int = 5000
    seed: int = 7
    lr_decay: float = 2e-3  # lr_t = lr / (1 + lr_decay * step)
    window: int = 150
    tolerance: float = 1e-11
    restarts: int = 1  # independent starts seeded seed, seed+1, ...; best kept

    def __post_init__(self):
        if not self.learning_rate > 0:  # written so NaN fails too
            raise InputError("learning_rate must be positive")
        if self.max_steps < 1 or self.window < 2:
            raise InputError("max_steps >= 1 and window >= 2 required")
        if self.restarts < 1:
            raise InputError("restarts must be positive")
        if not (self.seed >= 0 and self.lr_decay >= 0 and self.tolerance >= 0):
            raise InputError("seed, lr_decay and tolerance must be non-negative")


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
        # checks layers and granularity for either ansatz
        circ.hv_param_count(self.spec, self.layers, self.granularity)
        if not 0 <= 2 * self.init_scale < math.inf:  # the uniform draw spans 2 * init_scale
            raise InputError("init_scale must be non-negative, with 2 * init_scale finite")
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


def pairing_sum(spec: LatticeSpec, e: Edge) -> PauliSum:
    return PauliSum(spec.n_qubits, [(1, pairing_string(spec, e))])


# Every plan entry acts on its sector positions R as
#     psi[R] <- diag * psi[R] + off * psi[P],
# P holding each position's partner. A rotation on edge (r, s) pairs the
# positions J (s occupied, r empty) with K, where the edge's pairing string T
# gives T|J> = c|K>:
#     psi[J] <- cos(th) psi[J] + u_J e^{+i sig phi} sin(th) conj(c) psi[K]
#     psi[K] <- eps cos(th) psi[K] + u_K e^{-i sig phi} sin(th) c psi[J]
# with th = scale * params[slot 0] and phi = params[slot 1] (slot 0 again for
# one-angle gates, where sig = 0). The interaction exp(-i lam) =
# cos(lam) - i sin(lam) acts on the positions with both sites occupied, each
# its own partner. Per kind: (scale, eps, u_J, u_K, sig); hop_x's scale
# carries the rho sign.
_GATE_FORMS = {
    "interaction": (1.0, 1.0, -1j, 0.0, 0.0),
    "hop_x": (2.0, 1.0, 1j, 1j, 0.0),
    "hop_y": (2.0, 1.0, 1.0, -1.0, 0.0),
    "vx": (1.0, -1.0, 1.0, 1.0, 1.0),
    "vy": (1.0, -1.0, 1j, -1j, -1.0),
}


class SectorModel:
    """Constrained-subspace state machine for number-conserving ansaetze."""

    def __init__(self, config: VqeConfig):
        self.config = config
        spec = config.spec
        self.cs = constraint_set(spec)
        self.basis = cached_sector(spec, self.cs, config.n_f)
        if self.basis.dim == 0:
            raise InputError(f"no constrained states with particle number {config.n_f}")
        self.h_sector = restrict_sum(self.basis, tv_hamiltonian(spec, config.t, config.V))
        self._build_gate_table()
        self._init_vec: Optional[np.ndarray] = None

    # ---------------------------------------------------------- construction

    def _edge_table(self, e: Edge):
        """Sector positions J (site s occupied, r empty), K and c with T|J> = c|K>
        for the edge's pairing string T, and the positions with both sites
        occupied."""
        spec = self.config.spec
        r, s = edge_sites(spec, e)
        occ = self.basis.occ_masks
        has_r = (occ >> site_index(spec, r)) & 1 == 1
        has_s = (occ >> site_index(spec, s)) & 1 == 1
        J = np.flatnonzero(has_s & ~has_r)
        M = restrict_sum(self.basis, pairing_sum(spec, e))[:, J]
        K = np.argmax(np.abs(M), axis=0)
        c = M[K, np.arange(J.size)]
        require("pairing coefficient modulus differs from 1 by",
                float(np.max(np.abs(np.abs(c) - 1.0), initial=0.0)), 1e-12)
        return J, K, c, np.flatnonzero(has_r & has_s)

    def _build_gate_table(self) -> None:
        """One row per (plan entry, moved position), in applied order, and the
        plan cut into runs of consecutive entries on disjoint positions.

        A run's entries touch no position another of them touches, so a run
        applies as one update, and the state before a run is, on each of its
        entries' positions, the state before that entry."""
        cfg = self.config
        plan = (circ.agate_layout(cfg.spec, cfg.layers) if cfg.ansatz == "agate"
                else circ.hv_layout(cfg.spec, cfg.layers, cfg.granularity))
        tables = {e: self._edge_table(e) for e in dict.fromkeys(e for _, e, _ in plan)}
        parts, runs, touched, size = [], [], set(), 0
        for kind, e, slots in plan:
            scale, eps, u_j, u_k, sig = _GATE_FORMS[kind]
            J, K, c, both = tables[e]
            if kind == "interaction":
                rows, partners, mate = both, both, np.arange(both.size)
                a, b, sg = np.ones(both.size), np.full(both.size, u_j), np.zeros(both.size)
            else:
                scale *= cfg.spec.rho if kind == "hop_x" else 1
                rows, partners = np.concatenate([J, K]), np.concatenate([K, J])
                mate = np.concatenate([np.arange(J.size) + J.size, np.arange(J.size)])
                a = np.repeat([1.0, eps], J.size)
                b = np.concatenate([u_j * np.conj(c), u_k * c])
                sg = np.repeat([sig, -sig], J.size)
            moved = set(rows.tolist())
            if not runs or touched & moved:
                runs.append(size)
                touched = set()
            touched |= moved
            parts.append((rows, partners, mate + size, np.full(rows.size, slots[0]),
                          np.full(rows.size, slots[-1]), np.full(rows.size, scale), a, b, sg))
            size += rows.size
        (self._rows, self._partners, self._mate, self._slot0, self._slot1, self._scale,
         self._a, self._b, self._sig) = (np.concatenate(col) for col in zip(*parts))
        ends = runs[1:] + [size]
        self._run_of = np.repeat(np.arange(len(runs)), np.subtract(ends, runs))
        self._runs = [(self._rows[i:j], self._partners[i:j], slice(i, j)) for i, j in zip(runs, ends)]

    # ---------------------------------------------------------- state prep

    def initial_vector(self) -> np.ndarray:
        if self._init_vec is None:
            self._init_vec = self._build_initial_vector()
        return self._init_vec.copy()

    def _build_initial_vector(self) -> np.ndarray:
        cfg = self.config
        if cfg.ansatz == "agate":
            # the vacuum column, then each pair creation from one sector into the next
            vec, src = np.ones(1, dtype=np.complex128), cached_sector(cfg.spec, self.cs, 0)
            for k, e in enumerate(cfg.pair_edges):
                dest = cached_sector(cfg.spec, self.cs, 2 * k + 2)
                vec, src = restrict_between(dest, src, pairing_sum(cfg.spec, e)) @ vec, dest
            return vec
        return sector_ground(self.basis, tv_hamiltonian(cfg.spec, cfg.t, 0.0))[1]

    # ---------------------------------------------------------- ansatz action

    def _coefficients(self, params: np.ndarray):
        """diag and off of every gate-table row for params (B, n_params), each
        (rows, B), and their derivatives in the slot-0 angle."""
        p = params.T
        th = self._scale[:, None] * p[self._slot0]
        phase = np.exp(1j * self._sig[:, None] * p[self._slot1])
        cos, sin = np.cos(th), np.sin(th)
        a, b = self._a[:, None], self._b[:, None] * phase
        return a * cos, b * sin, -self._scale[:, None] * a * sin, self._scale[:, None] * b * cos

    def _sweep(self, vec: np.ndarray, diag: np.ndarray, off: np.ndarray, order,
               states: Optional[np.ndarray] = None) -> np.ndarray:
        """vec (dim,) in place through the runs in `order`, each as
        vec[R] <- diag vec[R] + off vec[P]; states[k], if given, receives vec
        before run k."""
        for k in order:
            rows, partners, cut = self._runs[k]
            if states is not None:
                states[k] = vec
            vec[rows] = diag[cut] * vec[rows] + off[cut] * vec[partners]
        return vec

    def apply_ansatz(self, vecs: np.ndarray, params: np.ndarray,
                     states: Optional[np.ndarray] = None,
                     coeffs: Optional[Tuple[np.ndarray, np.ndarray]] = None) -> np.ndarray:
        """In-place application, one column at a time; vecs (dim, B), params
        (B, n_params). states (runs, dim, B), if given, receives the state
        before each run. coeffs, if given, is the (diag, off) pair of
        _coefficients(params), computed by the caller."""
        diag, off = self._coefficients(params)[:2] if coeffs is None else coeffs
        for i in range(vecs.shape[1]):
            self._sweep(vecs[:, i], diag[:, i], off[:, i], range(len(self._runs)),
                        None if states is None else states[:, :, i])
        return vecs

    def energies(self, params_matrix: np.ndarray) -> np.ndarray:
        B = params_matrix.shape[0]
        vecs = np.tile(self.initial_vector()[:, None], (1, B))
        self.apply_ansatz(vecs, params_matrix)
        return np.einsum("ib,ib->b", vecs.conj(), self.h_sector @ vecs).real

    def energy(self, params: Sequence[float]) -> float:
        return float(self.energies(np.asarray(params, dtype=float)[None, :])[0])

    def gradient(self, params: np.ndarray) -> Tuple[float, np.ndarray]:
        """(energy, exact gradient) at params by reverse mode (Jones & Gacon,
        arXiv:2009.02823). The forward sweep stores the state psi before each
        run; lam = H psi is then carried back through each run's adjoint, and
        dE/dp = 2 Re <lam|dG/dp|psi> summed over every gate-table row that
        reads p."""
        p = np.asarray(params, dtype=float)[None, :]
        coeffs = self._coefficients(p)
        states = np.empty((len(self._runs), self.basis.dim, 1), dtype=np.complex128)
        psi = self.apply_ansatz(self.initial_vector()[:, None], p, states, coeffs[:2])[:, 0]
        states = states[:, :, 0]
        lam = self.h_sector @ psi
        energy = float(np.vdot(psi, lam).real)
        diag, off, d_diag, d_off = (c[:, 0] for c in coeffs)
        lams = np.empty_like(states)
        self._sweep(lam, diag.conj(), off[self._mate].conj(), reversed(range(len(self._runs))), lams)
        bra = lams[self._run_of, self._rows].conj()
        x, y = states[self._run_of, self._rows], states[self._run_of, self._partners]
        by_angle = (bra * (d_diag * x + d_off * y)).real
        by_phase = (bra * 1j * self._sig * off * y).real
        n = p.shape[1]
        return energy, 2.0 * (np.bincount(self._slot0, by_angle, n) + np.bincount(self._slot1, by_phase, n))


# ------------------------------------------------------------- public routes

def _exact_reference(config: VqeConfig, model: SectorModel) -> Tuple[float, oracle.BCSector]:
    """(Ground energy, sector) from fermionic ED in oracle.PERIODIC, the
    boundary sector that the loop targets fix. Fails unless the whole ED
    spectrum matches the encoded sector's to 1e-8."""
    sector = oracle.PERIODIC
    ref = oracle.ed_spectrum(config.spec, config.t, config.V, None, sector, config.n_f).eigenvalues
    require("encoded and fermionic spectra differ by",
            float(np.max(np.abs(ref - np.linalg.eigvalsh(model.h_sector)))), 1e-8)
    return float(ref[0]), sector


def initial_state_full(model: SectorModel) -> StateVector:
    """The ansatz's start on the full register: the A-gate preparation circuit,
    or the HV start vector of the sector route, expanded."""
    config, spec = model.config, model.config.spec
    if config.ansatz == "agate":
        prep = circ.vacuum_circuit(spec)
        for e in config.pair_edges:
            prep.extend(circ.pair_creation(spec, e))
        return circ.apply_circuit(zero_state(spec.n_qubits), circ.fuse(prep))
    return model.basis.expand(model.initial_vector())


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
        state = initial_state_full(SectorModel(config))
        circ.apply_circuit(state, circ.fuse(ansatz_circuit(config, params)))
        return expval(state, tv_hamiltonian(config.spec, config.t, config.V))
    raise ValueError("route must be sector or full")


def _spot_check(config: VqeConfig, model: SectorModel, params: np.ndarray) -> Tuple[float, float]:
    """Full-route constraint/number deviation and route energy disagreement."""
    state = initial_state_full(model)
    circ.apply_circuit(state, circ.fuse(ansatz_circuit(config, params)))
    devs = [abs(expval_string(state, s) - target) for s, target in model.cs]
    devs.append(abs(expval(state, number_sum(config.spec)) - config.n_f))
    e_full = expval(state, tv_hamiltonian(config.spec, config.t, config.V))
    return float(np.max(devs)), abs(e_full - model.energy(params))


def _adam_descent(model: SectorModel, opt: OptimizerConfig, seed: int):
    rng = np.random.default_rng(seed)
    params = rng.uniform(-model.config.init_scale, model.config.init_scale,
                         size=model.config.n_params)
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    e, g = model.gradient(params)
    energies = [e]
    first_p = params.copy()
    best_e = energies[0]
    best_p = params.copy()

    converged = False
    step = 0
    for step in range(1, opt.max_steps + 1):
        m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
        mhat = m / (1 - ADAM_BETA1 ** step)
        vhat = v / (1 - ADAM_BETA2 ** step)
        lr = opt.learning_rate / (1 + opt.lr_decay * step)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite step stops the run below
            params = params - lr * mhat / (np.sqrt(vhat) + ADAM_EPSILON)
            if step < opt.max_steps:
                e, g = model.gradient(params)
            else:  # the last step needs no gradient
                e = model.energy(params)
        if not (math.isfinite(e) and np.isfinite(params).all()):
            raise InputError(f"Adam step {step} made the parameters or the energy non-finite; "
                             "lower the learning rate")
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

    # np.max, unlike max(), passes a NaN deviation on to require
    spots = [_spot_check(config, model, p) for p in (first_p, best_p)]
    check_dev, route_dev = np.max(spots, axis=0).tolist()
    require("ansatz state violates constraints by", check_dev, 1e-10)
    require("sector and full-register energies differ by", route_dev, 1e-10)
    require("variational bound violated: best energy lies below the exact one by",
            exact_energy - best_e, 1e-9)

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
