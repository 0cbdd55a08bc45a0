"""Variational ground-state search inside the constrained subspace.

Two evaluation routes exist on purpose. The sector route, which the
optimizer runs, applies every number-conserving gate as an exact 2x2 update
on the occupation-number basis of the constrained subspace; the full route
(full_state) simulates the actual circuits on the complete register. run()
cross-checks the routes at the first and best parameter points and fails if
their energies differ by more than 1e-10, so they can never drift apart
silently. The sector route's
GateTable is compiled once into a plan of one gather and one update per run
of gates on disjoint positions; the adjoint gradient keeps only the
amplitudes each run gathers, not whole states. The same table runs the
quench's Trotter steps (f2q.quench).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from . import circuits as circ
from . import oracle
from .lattice import (Edge, InputError, LatticeSpec, check_particle_number, edge_sites, edges,
                      require, site_index)
from .pauli import constraint_set, number_sum, pairing_string, tv_hamiltonian
from .statevec import (StateVector, SubspaceBasis, cached_sector, expval, expval_string,
                       restrict_between, restrict_sum, sector_ground, zero_state)


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


@dataclass(frozen=True)
class VqeConfig:
    spec: LatticeSpec
    t: float
    V: float
    n_f: int
    ansatz: str = "agate"
    layers: int = 2
    granularity: str = "per_edge"
    init_scale: float = 0.1
    family: circ.Ansatz = field(init=False, repr=False)
    pair_edges: Tuple[Edge, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "family",
                           circ.Ansatz(self.spec, self.ansatz, self.layers, self.granularity))
        check_particle_number(self.spec, self.n_f)
        if self.n_f % 2 != 0:
            raise InputError("n_f must be even")
        if not 0 <= 2 * self.init_scale < math.inf:  # the uniform draw spans 2 * init_scale
            raise InputError("init_scale must be non-negative, with 2 * init_scale finite")
        object.__setattr__(self, "pair_edges", _disjoint_edges(self.spec, self.n_f // 2))
        if 2 * len(self.pair_edges) != self.n_f:
            raise InputError(f"n_f = {self.n_f} needs {self.n_f // 2} site-disjoint pair-creation "
                             f"edges; have {len(self.pair_edges)} covering {2 * len(self.pair_edges)} "
                             "sites")

    @property
    def n_params(self) -> int:
        return self.family.n_params


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


# Every layout entry acts on its sector positions R as
#     psi[R] <- diag * psi[R] + off * psi[P],
# P holding each position's partner. A rotation on edge (r, s) pairs the
# positions J (s occupied, r empty) with K, where the edge's pairing string T
# gives T|J> = c|K>:
#     psi[J] <- cos(th) psi[J] + u_J e^{+i sig phi} sin(th) conj(c) psi[K]
#     psi[K] <- eps cos(th) psi[K] + u_K e^{-i sig phi} sin(th) c psi[J]
# with th = scale * params[slot 0] and phi = params[slot 1] (slot 0 again for
# one-angle gates, where sig = 0). The interaction exp(-i lam) =
# cos(lam) - i sin(lam) acts on the positions with both sites occupied, each
# its own partner, so it needs only (scale, u_J). Per rotation kind:
# (scale, eps, u_J, u_K, sig); hop_x's scale carries the rho sign.
_GATE_FORMS = {
    "interaction": (1.0, -1j),
    "hop_x": (2.0, 1.0, 1j, 1j, 0.0),
    "hop_y": (2.0, 1.0, 1.0, -1.0, 0.0),
    "vx": (1.0, -1.0, 1.0, 1.0, 1.0),
    "vy": (1.0, -1.0, 1j, -1j, -1.0),
}


def _edge_table(spec: LatticeSpec, basis: SubspaceBasis, e: Edge):
    """Sector positions J (site s occupied, r empty), K and c with T|J> = c|K>
    for the edge's pairing string T, and the positions with both sites
    occupied."""
    r, s = edge_sites(spec, e)
    occ = basis.occ_masks
    has_r = (occ >> site_index(spec, r)) & 1 == 1
    has_s = (occ >> site_index(spec, s)) & 1 == 1
    K, J, c = restrict_between(basis, basis, [(1, pairing_string(spec, e))])
    moved = has_s[J] & ~has_r[J]
    J, K, c = J[moved], K[moved], c[moved] + 0  # + 0: signed zeros to +0, as the dense sum gave
    require("sector columns with no pairing partner", np.count_nonzero(has_s & ~has_r) - J.size, 0)
    require("pairing coefficient modulus differs from 1 by",
            float(np.max(np.abs(np.abs(c) - 1.0), initial=0.0)), 1e-12)
    return J, K, c, np.flatnonzero(has_r & has_s)


class GateTable:
    """A layout's number-conserving gates as exact 2x2 updates on the columns
    of one particle-number sector, compiled into one plan entry per run.

    The table has one row per (layout entry, moved position), in applied
    order, and consecutive entries on disjoint positions form one run. A
    run's entries touch no position another of them touches, so a run
    applies as one update, and the state before a run is, on each of its
    entries' positions, the state before that entry. Plan entry (idx, rows,
    cut) holds the run's gather index idx = [rows; partners] and the slice of
    a coefficient row laid out the same way, [diag; off] per run. A sweep
    applies it as
        xy = vec[idx];  t = c[cut] * xy;  vec[rows] = t[:n] + t[n:]
    and xy is all of the state before the run that the adjoint gradient
    reads. Rows that share every coefficient field (scale, slots, sig, a, b)
    form one class, whose coefficients are computed once and gathered into
    that layout. The VQE ansatz (SectorModel) and the quench's Trotter step
    (the one-layer per_group HV layout) both run on this table.
    """

    def __init__(self, spec: LatticeSpec, basis: SubspaceBasis,
                 layout: Sequence[Tuple[str, Edge, Tuple[int, ...]]]):
        self.basis = basis
        self.n_params = circ.layout_params(layout)
        tables = {e: _edge_table(spec, basis, e) for e in dict.fromkeys(e for _, e, _ in layout)}
        parts, entries, starts, size = [], [], [], 0
        last = np.full(basis.dim, -1)  # the run that last moved each position
        for kind, e, slots in layout:
            J, K, c, both = tables[e]
            if kind == "interaction":
                scale, u_j = _GATE_FORMS[kind]
                rows, partners, mate = both, both, np.arange(both.size)
                a, b, sg = np.ones(both.size), np.full(both.size, u_j), np.zeros(both.size)
            else:
                scale, eps, u_j, u_k, sig = _GATE_FORMS[kind]
                scale *= spec.rho if kind == "hop_x" else 1
                rows, partners = np.concatenate([J, K]), np.concatenate([K, J])
                mate = np.concatenate([np.arange(J.size) + J.size, np.arange(J.size)])
                a = np.repeat([1.0, eps], J.size)
                b = np.concatenate([u_j * np.conj(c), u_k * c])
                sg = np.repeat([sig, -sig], J.size)
            if not starts or np.any(last[rows] == len(starts) - 1):
                starts.append(size)
            last[rows] = len(starts) - 1
            parts.append((rows, partners, mate + size, a, b, sg))
            entries.append((rows.size, slots[0], slots[-1], scale))
            size += rows.size
        (self._rows, self._partners, self._mate, self._a, self._b, self._sig) = (
            np.concatenate(col) for col in zip(*parts))
        del parts  # a second copy of the table; freed before the plan and classes are built
        sizes, *per_entry = zip(*entries)
        self._slot0, self._slot1, self._scale = (np.repeat(col, sizes) for col in per_entry)
        ends = starts[1:] + [size]
        self.plan = [(np.concatenate([self._rows[i:j], self._partners[i:j]]), self._rows[i:j],
                      slice(2 * i, 2 * j)) for i, j in zip(starts, ends)]
        # the plan positions of each row's diag (x) and off (y) coefficient
        lengths = np.subtract(ends, starts)
        self._x = np.arange(size) + np.repeat(starts, lengths)
        self._y = self._x + np.repeat(lengths, lengths)

        # classes: rows whose fields agree bit for bit, found by one lexsort
        fields = [self._slot0, self._slot1] + [f.view(np.int64) for f in (
            self._scale, self._sig, self._a, self._b.real, self._b.imag)]
        order = np.lexsort(fields)
        new = np.zeros(size, dtype=bool)
        new[:1] = True
        for f in fields:
            f = f[order]
            new[1:] |= f[1:] != f[:-1]
        cls = np.empty(size, dtype=np.intp)
        cls[order] = np.cumsum(new) - 1
        first = order[new]
        self._classes = (self._scale[first], self._slot0[first], self._slot1[first],
                         self._sig[first], self._a[first], self._b[first])
        # coefficients() concatenates the class values [diag, off, d_diag, d_off,
        # conj(off)]; row k of the gather index picks its forward, derivative
        # and adjoint coefficient row out of them
        n_cls = first.size
        self._gather = np.empty((3, 2 * size), dtype=np.intp)
        self._gather[:, self._x] = cls
        self._gather[:, self._y] = n_cls + cls
        self._gather[1] += 2 * n_cls
        self._gather[2, self._y] = 4 * n_cls + cls[self._mate]

    def coefficients(self, params: np.ndarray) -> np.ndarray:
        """(forward, derivative, adjoint) coefficient rows for params
        (B, n_params), shaped (3, B, 2 * table rows) in plan layout: per run,
        [diag; off], their derivatives in the slot-0 angle, and the
        adjoint's [conj(diag); conj(off of each row's mate)]."""
        if params.shape[1] != self.n_params:
            raise ValueError(f"expected {self.n_params} parameters, got {params.shape[1]}")
        scale, slot0, slot1, sig, a, b = self._classes
        th = scale * params[:, slot0]
        phase = np.exp(1j * sig * params[:, slot1])
        cos, sin = np.cos(th), np.sin(th)
        b = b * phase
        off = b * sin
        values = np.concatenate([a * cos, off, -scale * a * sin, scale * b * cos, off.conj()],
                                axis=1)
        return values[:, self._gather].swapaxes(0, 1)

    def sweep(self, vec: np.ndarray, coeffs: np.ndarray, saved: Optional[list] = None,
              reverse: bool = False) -> np.ndarray:
        """vec (dim,) in place through the plan, backwards if reverse, with
        coeffs one plan-layout coefficient row; saved, if given, receives each
        run's gathered [vec[rows]; vec[partners]] from before the run."""
        for idx, rows, cut in reversed(self.plan) if reverse else self.plan:
            xy = vec[idx]
            t = coeffs[cut] * xy
            n = rows.size
            vec[rows] = t[:n] + t[n:]
            if saved is not None:
                saved.append(xy)
        return vec


class SectorModel(GateTable):
    """Constrained-subspace state machine for number-conserving ansaetze: the
    ansatz's GateTable, the sector Hamiltonian and the start vector."""

    def __init__(self, config: VqeConfig):
        self.config = config
        spec = config.spec
        self.cs = constraint_set(spec)
        basis = cached_sector(spec, self.cs, config.n_f)
        self.h_sector = restrict_sum(basis, tv_hamiltonian(spec, config.t, config.V))
        super().__init__(spec, basis, config.family.layout)
        self._init_vec = self._build_initial_vector()

    # ---------------------------------------------------------- state prep

    def initial_vector(self) -> np.ndarray:
        return self._init_vec.copy()

    def _build_initial_vector(self) -> np.ndarray:
        cfg = self.config
        if cfg.ansatz == "agate":
            # the vacuum column, then each pair creation from one sector into the next
            vec, src = np.ones(1, dtype=np.complex128), cached_sector(cfg.spec, self.cs, 0)
            for k, e in enumerate(cfg.pair_edges):
                dest = cached_sector(cfg.spec, self.cs, 2 * k + 2)
                i, j, c = restrict_between(dest, src, [(1, pairing_string(cfg.spec, e))])
                new = np.zeros(dest.dim, dtype=np.complex128)
                np.add.at(new, i, c * vec[j])
                vec, src = new, dest
            return vec
        vec = sector_ground(self.basis, tv_hamiltonian(cfg.spec, cfg.t, 0.0))[1]
        return vec.astype(np.complex128)  # apply_ansatz writes complex amplitudes into its copies

    # ---------------------------------------------------------- ansatz action

    def apply_ansatz(self, vecs: np.ndarray, params: np.ndarray, saved: Optional[list] = None,
                     coeffs: Optional[np.ndarray] = None) -> np.ndarray:
        """In-place application, one column at a time; vecs (dim, B), params
        (B, n_params). saved, if given, receives each run's gathered
        amplitudes (see sweep), column after column. coeffs, if given, is the
        forward rows (B, 2 * table rows) of coefficients(params), computed
        by the caller."""
        forward = self.coefficients(params)[0] if coeffs is None else coeffs
        for i in range(vecs.shape[1]):
            self.sweep(vecs[:, i], forward[i], saved)
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
        arXiv:2009.02823). The forward sweep saves each run's gathered
        [psi[rows]; psi[partners]]; lam = H psi is then carried back through
        each run's adjoint, which saves lam[rows] the same way, and
        dE/dp = 2 Re <lam|dG/dp|psi> is summed over every gate-table row
        that reads p. No whole state is stored."""
        p = np.asarray(params, dtype=float)[None, :]
        forward, derivative, adjoint = (c[0] for c in self.coefficients(p))
        saved, back = [], []
        psi = self.apply_ansatz(self.initial_vector()[:, None], p, saved, forward[None])[:, 0]
        lam = self.h_sector @ psi
        energy = float(np.vdot(psi, lam).real)
        self.sweep(lam, adjoint, back, reverse=True)
        xy = np.concatenate(saved)
        bra = np.concatenate(back[::-1])[self._x].conj()
        d, y = derivative * xy, xy[self._y]
        by_angle = (bra * (d[self._x] + d[self._y])).real
        by_phase = (bra * 1j * self._sig * forward[self._y] * y).real
        n = p.shape[1]
        return energy, 2.0 * (np.bincount(self._slot0, by_angle, n) + np.bincount(self._slot1, by_phase, n))


# ------------------------------------------------------------- public routes

def initial_state_full(model: SectorModel) -> StateVector:
    """The ansatz's start on the full register: the A-gate preparation circuit,
    or the HV start vector of the sector route, expanded."""
    config, spec = model.config, model.config.spec
    if config.ansatz == "agate":
        prep = circ.preparation_circuit(spec, config.pair_edges)
        return circ.apply_circuit(zero_state(spec.n_qubits), prep)
    return model.basis.expand(model.initial_vector())


def full_state(model: SectorModel, params: Sequence[float]) -> StateVector:
    """The full-register route: initial_state_full, then the ansatz circuit."""
    return circ.apply_circuit(initial_state_full(model), model.config.family.circuit(params))


def _spot_check(model: SectorModel, params: np.ndarray) -> Tuple[float, float]:
    """Full-route constraint/number deviation and route energy disagreement."""
    config = model.config
    state = full_state(model, params)
    devs = [abs(expval_string(state, s) - target) for s, target in model.cs]
    devs.append(abs(expval(state, number_sum(config.spec)) - config.n_f))
    e_full = expval(state, tv_hamiltonian(config.spec, config.t, config.V))
    return float(np.max(devs)), abs(e_full - model.energy(params))


def initial_params(n_params: int, init_scale: float, seed: int) -> np.ndarray:
    """The seeded start point: n_params angles drawn uniformly from
    [-init_scale, init_scale)."""
    return np.random.default_rng(seed).uniform(-init_scale, init_scale, size=n_params)


def _adam_descent(model: SectorModel, opt: OptimizerConfig, seed: int):
    params = initial_params(model.config.n_params, model.config.init_scale, seed)
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
    evals, _ = oracle.exact_reference(config.spec, config.t, config.V, config.n_f, model.h_sector,
                                      np.linalg.eigvalsh(model.h_sector))
    exact_energy, sector = float(evals[0]), oracle.PERIODIC

    best = None
    for k in range(opt.restarts):
        result = _adam_descent(model, opt, opt.seed + k)
        if best is None or result[1] < best[1]:
            best = result
    energies, best_e, best_p, first_p, step, converged = best

    # np.max, unlike max(), passes a NaN deviation on to require
    spots = [_spot_check(model, p) for p in (first_p, best_p)]
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
