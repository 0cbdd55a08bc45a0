"""Dense statevector simulator and constrained-subspace machinery.

Amplitude indexing: computational basis index b has qubit q at bit q
(qubit 0 = least significant bit). A k-qubit gate matrix is given in the
basis where targets[0] is the most significant of the k local bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .lattice import InputError, LatticeSpec, ScientificFailure
from .pauli import ConstraintSet, PauliString, PauliSum, identity as pauli_identity

MAX_QUBITS = 24          # hard resource guard for dense states
MAX_SUBSPACE_QUBITS = 18  # guard for subspace construction
MAX_GATE_QUBITS = 4  # widest gate apply_matrix_gate takes


@dataclass
class StateVector:
    amplitudes: np.ndarray
    register_size: int

    def copy(self) -> "StateVector":
        return StateVector(self.amplitudes.copy(), self.register_size)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def zero_state(n_qubits: int) -> StateVector:
    if n_qubits > MAX_QUBITS:
        raise ValueError(f"register of {n_qubits} qubits exceeds the {MAX_QUBITS}-qubit guard")
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(amps, n_qubits)


def _check_unitary(U: np.ndarray, tol: float = 1e-10) -> None:
    d = U.shape[0]
    if U.shape != (d, d) or d & (d - 1):
        raise ValueError("gate matrix must be square with power-of-two size")
    if np.max(np.abs(U.conj().T @ U - np.eye(d))) > tol:
        raise ValueError("gate matrix is not unitary")


def apply_matrix_gate(state: StateVector, U: np.ndarray, targets: Sequence[int]) -> StateVector:
    k = len(targets)
    if not 1 <= k <= MAX_GATE_QUBITS:
        raise ValueError(f"gates act on 1..{MAX_GATE_QUBITS} qubits")
    if len(set(targets)) != k:
        raise ValueError("duplicate target qubits")
    n = state.register_size
    if any(not 0 <= q < n for q in targets):
        raise ValueError("target out of range")
    U = np.asarray(U, dtype=np.complex128)
    _check_unitary(U)
    psi = state.amplitudes.reshape([2] * n)
    axes = [n - 1 - q for q in targets]  # tensor axis of qubit q
    phases = np.diagonal(U)
    if not np.any(U - np.diag(phases)):
        # diagonal gate: a phase product broadcast on the target axes
        order = np.argsort(axes)
        shape = [1] * n
        for a in axes:
            shape[a] = 2
        P = phases.reshape([2] * k).transpose(order).reshape(shape)
        state.amplitudes = (psi * P).reshape(-1)
        return state
    Ut = U.reshape([2] * (2 * k))
    out = np.tensordot(Ut, psi, axes=(list(range(k, 2 * k)), axes))
    out = np.moveaxis(out, list(range(k)), axes)
    state.amplitudes = np.ascontiguousarray(out).reshape(-1)
    return state


def _string_coeffs(p: PauliString, idx: np.ndarray) -> np.ndarray:
    flip, sign, ycount = p.masks()
    par = np.bitwise_count(idx & np.uint64(sign)).astype(np.int64) & 1
    return (p.phase * (1j) ** ycount) * np.where(par, -1.0, 1.0)


def apply_pauli(state: StateVector, p: PauliString) -> StateVector:
    if p.n != state.register_size:
        raise ValueError("register size mismatch")
    flip, _, _ = p.masks()
    idx = np.arange(state.amplitudes.size, dtype=np.uint64)
    src = idx ^ np.uint64(flip)
    state.amplitudes = _string_coeffs(p, src) * state.amplitudes[src]
    return state


def _expval_string(psi: np.ndarray, p: PauliString) -> complex:
    flip, _, _ = p.masks()
    idx = np.arange(psi.size, dtype=np.uint64)
    src = idx ^ np.uint64(flip)
    return complex(np.vdot(psi, _string_coeffs(p, src) * psi[src]))


def expval(state: StateVector, O: PauliSum) -> float:
    if O.n != state.register_size:
        raise ValueError("register size mismatch")
    if not O.is_hermitian:
        raise ValueError("expectation of a non-Hermitian sum")
    val = sum(c * _expval_string(state.amplitudes, s) for c, s in O)
    if abs(val.imag) > 1e-10:
        raise ScientificFailure(f"imaginary residue {abs(val.imag):.3e} > 1e-10 "
                                "in Hermitian expectation")
    return float(val.real)


def expval_string(state: StateVector, p: PauliString) -> complex:
    return _expval_string(state.amplitudes, p)


def qubit_marginals(state: StateVector, qubits: Sequence[int]) -> np.ndarray:
    """P(qubit = 1) for each listed qubit, all from one |psi|^2 pass."""
    n = state.register_size
    if any(not 0 <= q < n for q in qubits):
        raise ValueError("qubit out of range")
    prob = np.abs(state.amplitudes) ** 2
    # qubit q is the middle axis of shape (2^(n-1-q), 2, 2^q)
    return np.array([prob.reshape(-1, 2, 1 << q)[:, 1, :].sum() for q in qubits])


# ---------------------------------------------------------------- subspace

@dataclass
class SubspaceBasis:
    """Orthonormal constraint-satisfying basis, stored column-sparse.

    Columns have pairwise disjoint label supports (orbit structure), and every
    column has a definite physical occupation (the constraint flips touch only
    auxiliary qubits): its site bitmask is occ_masks, its particle count phys_occ.
    """

    register_size: int
    dim: int
    labels: np.ndarray    # int64, concatenated per column
    amps: np.ndarray      # complex128, aligned with labels
    col_ptr: np.ndarray   # int64, dim+1 offsets
    occ_masks: np.ndarray  # int64 per column, bit i = occupation of site i
    phys_occ: np.ndarray  # int64 per column
    occ_counts: Dict[int, int]
    # flat lookup arrays (sorted by label)
    sorted_labels: np.ndarray
    sorted_cols: np.ndarray
    sorted_amps: np.ndarray

    def column_state(self, j: int) -> StateVector:
        psi = np.zeros(1 << self.register_size, dtype=np.complex128)
        sl = slice(self.col_ptr[j], self.col_ptr[j + 1])
        psi[self.labels[sl]] = self.amps[sl]
        return StateVector(psi, self.register_size)

    def project(self, state: StateVector) -> np.ndarray:
        """coefficients B^dagger psi."""
        coeffs = np.zeros(self.dim, dtype=np.complex128)
        cols = np.repeat(np.arange(self.dim), np.diff(self.col_ptr))
        np.add.at(coeffs, cols, np.conj(self.amps) * state.amplitudes[self.labels])
        return coeffs

    def expand(self, coeffs: np.ndarray) -> StateVector:
        psi = np.zeros(1 << self.register_size, dtype=np.complex128)
        cols = np.repeat(np.arange(self.dim), np.diff(self.col_ptr))
        np.add.at(psi, self.labels, coeffs[cols] * self.amps)
        return StateVector(psi, self.register_size)


def constrained_basis(spec: LatticeSpec, cs: ConstraintSet) -> SubspaceBasis:
    n = cs.n
    if n > MAX_SUBSPACE_QUBITS:
        raise InputError(f"subspace construction limited to {MAX_SUBSPACE_QUBITS} qubits")
    flip_gens = [(s, t) for s, t in cs if s.masks()[0] != 0]
    diag_gens = [(s, t) for s, t in cs if s.masks()[0] == 0]
    for s, _ in diag_gens:
        if s.masks()[2] or s.phase_k not in (0, 2):
            raise ValueError("diagonal stabilizers must be pure Z strings")

    m = len(flip_gens)
    # all 2^m signed subset products, built incrementally
    prods: List[PauliString] = [pauli_identity(n)]
    tgts = [1]
    for i, (g, t) in enumerate(flip_gens):
        for sidx in range(1 << i, 1 << (i + 1)):
            prods.append(prods[sidx ^ (1 << i)].mul(g))
            tgts.append(tgts[sidx ^ (1 << i)] * t)
    flips = np.array([p.masks()[0] for p in prods], dtype=np.uint64)
    sgns = np.array([p.masks()[1] for p in prods], dtype=np.uint64)
    consts = np.array(
        [t * p.phase * (1j) ** p.masks()[2] for p, t in zip(prods, tgts)],
        dtype=np.complex128,
    )
    uniq_flips, ginv = np.unique(flips, return_inverse=True)

    diag_sgns = np.array([s.masks()[1] for s, _ in diag_gens], dtype=np.uint64)
    diag_req = np.array(
        [t * (1 if s.phase_k == 0 else -1) for s, t in diag_gens], dtype=np.int64
    )

    phys_mask = np.uint64((1 << (n // 2)) - 1)
    dim_full = 1 << n
    scale = float(1 << m)
    null_cut = 0.5 / scale

    visited = np.zeros(dim_full, dtype=bool)
    labels_out: List[np.ndarray] = []
    amps_out: List[np.ndarray] = []
    occ_out: List[int] = []
    for b in range(dim_full):
        if visited[b]:
            continue
        bu = np.uint64(b)
        orbit = (bu ^ uniq_flips).astype(np.int64)
        visited[orbit] = True
        if diag_sgns.size:
            par = np.bitwise_count(bu & diag_sgns).astype(np.int64) & 1
            if np.any(np.where(par, -1, 1) != diag_req):
                continue
        par = np.bitwise_count(bu & sgns).astype(np.int64) & 1
        coeff = consts * np.where(par, -1.0, 1.0)
        sums = np.zeros(uniq_flips.size, dtype=np.complex128)
        np.add.at(sums, ginv, coeff)
        nrm2 = float(np.vdot(sums, sums).real) / (scale * scale)
        if nrm2 < null_cut:
            continue
        keep = np.abs(sums) > 1e-9
        amps = sums[keep] / (scale * np.sqrt(nrm2))
        labels_out.append(orbit[keep])
        amps_out.append(amps)
        occ_out.append(int(bu & phys_mask))

    if not labels_out:
        raise ValueError("empty constrained subspace: inconsistent targets")
    lengths = np.array([len(a) for a in labels_out], dtype=np.int64)
    col_ptr = np.concatenate([[0], np.cumsum(lengths)])
    labels = np.concatenate(labels_out)
    amps = np.concatenate(amps_out)
    occ_masks = np.array(occ_out, dtype=np.int64)
    phys_occ = np.bitwise_count(occ_masks).astype(np.int64)
    occ_counts = {int(k): int(v) for k, v in zip(*np.unique(phys_occ, return_counts=True))}
    order = np.argsort(labels, kind="stable")
    cols = np.repeat(np.arange(len(labels_out)), lengths)
    return SubspaceBasis(
        register_size=n,
        dim=len(labels_out),
        labels=labels,
        amps=amps,
        col_ptr=col_ptr,
        occ_masks=occ_masks,
        phys_occ=phys_occ,
        occ_counts=occ_counts,
        sorted_labels=labels[order],
        sorted_cols=cols[order],
        sorted_amps=amps[order],
    )


@lru_cache(maxsize=8)
def cached_basis(spec: LatticeSpec, cs: ConstraintSet) -> SubspaceBasis:
    return constrained_basis(spec, cs)


def restrict_sum(basis: SubspaceBasis, H: PauliSum, cols: Optional[np.ndarray] = None) -> np.ndarray:
    """Dense matrix of H restricted to the selected basis columns."""
    if cols is None:
        cols = np.arange(basis.dim)
    cols = np.asarray(cols, dtype=np.int64)
    sel = -np.ones(basis.dim, dtype=np.int64)
    sel[cols] = np.arange(cols.size)
    mat = np.zeros((cols.size, cols.size), dtype=np.complex128)
    col_of = np.repeat(np.arange(basis.dim), np.diff(basis.col_ptr))
    in_sel = sel[col_of] >= 0
    labels = basis.labels[in_sel].astype(np.uint64)
    amps = basis.amps[in_sel]
    src_cols = sel[col_of[in_sel]]
    for c, s in H:
        flip, _, _ = s.masks()
        new_labels = labels ^ np.uint64(flip)
        coeffs = _string_coeffs(s, labels)
        pos = np.searchsorted(basis.sorted_labels, new_labels.astype(np.int64))
        pos = np.clip(pos, 0, basis.sorted_labels.size - 1)
        found = basis.sorted_labels[pos] == new_labels.astype(np.int64)
        rows = sel[basis.sorted_cols[pos[found]]]
        ok = rows >= 0
        contrib = (c * coeffs[found] * amps[found] * np.conj(basis.sorted_amps[pos[found]]))[ok]
        np.add.at(mat, (rows[ok], src_cols[found][ok]), contrib)
    return mat


def ground_in_sector(
    H: PauliSum,
    spec: LatticeSpec,
    cs: ConstraintSet,
    n_f: int,
) -> Tuple[float, StateVector]:
    basis = cached_basis(spec, cs)
    cols = np.flatnonzero(basis.phys_occ == n_f)
    if cols.size == 0:
        raise InputError(f"no constrained basis vectors with particle number {n_f}")
    Hs = restrict_sum(basis, H, cols)
    evals, evecs = np.linalg.eigh(Hs)
    energy, vec = float(evals[0]), evecs[:, 0]
    resid = float(np.linalg.norm(Hs @ vec - energy * vec))
    if resid > 1e-8:
        raise ScientificFailure(f"sector eigenpair residual {resid:.3e} > 1e-8")
    full = np.zeros(basis.dim, dtype=np.complex128)
    full[cols] = vec
    return energy, basis.expand(full)
