"""Dense statevector simulator and constrained-subspace machinery.

Amplitude indexing: computational basis index b has qubit q at bit q
(qubit 0 = least significant bit). A k-qubit gate matrix is given in the
basis where targets[0] is the most significant of the k local bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .lattice import InputError, LatticeSpec, require
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


def _check_unitary(U: np.ndarray) -> None:
    d = U.shape[0]
    if U.shape != (d, d) or d & (d - 1):
        raise ValueError("gate matrix must be square with power-of-two size")
    if np.max(np.abs(U.conj().T @ U - np.eye(d))) > 1e-10:
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


def pauli_table(terms: Iterable[Tuple[complex, PauliString]]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(flip, sign, coeff) arrays for (coefficient, PauliString) pairs.

    Term k maps |b> to coeff[k] * (-1)^|b & sign[k]| |b ^ flip[k]> (the binary
    x|z form); coeff folds in the string's phase and i^(#Y). This is the one
    place those two factors become a coefficient.
    """
    terms = list(terms)
    masks = [s.masks() for _, s in terms]
    flip = np.array([f for f, _, _ in masks], dtype=np.uint64)
    sign = np.array([z for _, z, _ in masks], dtype=np.uint64)
    coeff = np.array([c * s.phase * 1j ** y for (c, s), (_, _, y) in zip(terms, masks)],
                     dtype=np.complex128)
    return flip, sign, coeff


def _signed(labels: np.ndarray, sign, coeff) -> np.ndarray:
    """coeff * (-1)^|labels & sign|, broadcast."""
    return np.where(np.bitwise_count(labels & sign) & 1, -coeff, coeff)


def apply_pauli(state: StateVector, p: PauliString) -> StateVector:
    if p.n != state.register_size:
        raise ValueError("register size mismatch")
    (flip,), (sign,), (coeff,) = pauli_table([(1, p)])
    src = np.arange(state.amplitudes.size, dtype=np.uint64) ^ flip
    state.amplitudes = _signed(src, sign, coeff) * state.amplitudes[src]
    return state


def _expectation(psi: np.ndarray, terms: Iterable[Tuple[complex, PauliString]]) -> complex:
    """<psi| sum_k c_k S_k |psi>, gathering psi[b ^ flip] once per distinct flip."""
    flip, sign, coeff = pauli_table(terms)
    idx = np.arange(psi.size, dtype=np.uint64)
    val = 0j
    for f in np.unique(flip):
        src = idx ^ f
        moved = psi[src]
        group = flip == f
        for z, c in zip(sign[group], coeff[group]):
            val += np.vdot(psi, _signed(src, z, c) * moved)
    return complex(val)


def expval(state: StateVector, O: PauliSum) -> float:
    if O.n != state.register_size:
        raise ValueError("register size mismatch")
    if not O.is_hermitian:
        raise ValueError("expectation of a non-Hermitian sum")
    val = _expectation(state.amplitudes, O)
    require("imaginary residue of a Hermitian expectation", abs(val.imag), 1e-10)
    return float(val.real)


def expval_string(state: StateVector, p: PauliString) -> complex:
    return _expectation(state.amplitudes, [(1, p)])


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
    """Orthonormal constraint-satisfying basis, stored as one label table.

    Columns have pairwise disjoint label supports (orbit structure), so each
    label belongs to exactly one column: column cols[i] has amplitude amps[i]
    on label labels[i]. Every column has a definite physical occupation (the
    constraint flips touch only auxiliary qubits): its site bitmask is
    occ_masks, its particle count phys_occ.
    """

    register_size: int
    dim: int
    labels: np.ndarray    # int64, ascending
    cols: np.ndarray      # int64, the column of each label
    amps: np.ndarray      # complex128, aligned with labels
    occ_masks: np.ndarray  # int64 per column, bit i = occupation of site i
    phys_occ: np.ndarray  # int64 per column
    occ_counts: Dict[int, int]

    def column_state(self, j: int) -> StateVector:
        psi = np.zeros(1 << self.register_size, dtype=np.complex128)
        mine = self.cols == j
        psi[self.labels[mine]] = self.amps[mine]
        return StateVector(psi, self.register_size)

    def project(self, state: StateVector) -> np.ndarray:
        """coefficients B^dagger psi."""
        coeffs = np.zeros(self.dim, dtype=np.complex128)
        np.add.at(coeffs, self.cols, np.conj(self.amps) * state.amplitudes[self.labels])
        return coeffs

    def expand(self, coeffs: np.ndarray) -> StateVector:
        psi = np.zeros(1 << self.register_size, dtype=np.complex128)
        psi[self.labels] = coeffs[self.cols] * self.amps
        return StateVector(psi, self.register_size)


def constrained_basis(spec: LatticeSpec, cs: ConstraintSet) -> SubspaceBasis:
    n = cs.n
    if n > MAX_SUBSPACE_QUBITS:
        raise InputError(f"subspace construction limited to {MAX_SUBSPACE_QUBITS} qubits")
    flip_gens = [(s, t) for s, t in cs if s.masks()[0] != 0]
    diag_gens = [(t, s) for s, t in cs if s.masks()[0] == 0]
    for _, s in diag_gens:
        if s.masks()[2] or s.phase_k not in (0, 2):
            raise ValueError("diagonal stabilizers must be pure Z strings")

    m = len(flip_gens)
    # all 2^m target-signed subset products t*S, built incrementally
    prods: List[Tuple[int, PauliString]] = [(1, pauli_identity(n))]
    for i, (g, t) in enumerate(flip_gens):
        for sidx in range(1 << i, 1 << (i + 1)):
            tp, p = prods[sidx ^ (1 << i)]
            prods.append((tp * t, p.mul(g)))
    flips, sgns, consts = pauli_table(prods)
    uniq_flips, ginv = np.unique(flips, return_inverse=True)
    # t*S|b> = |b> for a diagonal generator iff its signed coefficient is +1
    _, diag_sgns, diag_consts = pauli_table(diag_gens)

    phys_mask = np.uint64((1 << (n // 2)) - 1)
    dim_full = 1 << n
    scale = float(1 << m)
    null_cut = 0.5 / scale

    # the diagonal generators commute with the flips, so an orbit passes them
    # or fails them as a whole: visit only the labels that pass
    all_labels = np.arange(dim_full, dtype=np.uint64)
    passes = np.ones(dim_full, dtype=bool)
    for z, c in zip(diag_sgns, diag_consts):
        passes &= (np.bitwise_count(all_labels & z) & 1).astype(bool) == (c.real < 0)

    visited = np.zeros(dim_full, dtype=bool)
    labels_out: List[np.ndarray] = []
    amps_out: List[np.ndarray] = []
    occ_out: List[int] = []
    for b in np.flatnonzero(passes):
        if visited[b]:
            continue
        bu = np.uint64(b)
        orbit = (bu ^ uniq_flips).astype(np.int64)
        visited[orbit] = True
        sums = np.zeros(uniq_flips.size, dtype=np.complex128)
        np.add.at(sums, ginv, _signed(bu, sgns, consts))
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
    labels = np.concatenate(labels_out)
    cols = np.repeat(np.arange(len(labels_out)), [len(a) for a in labels_out])
    order = np.argsort(labels)
    occ_masks = np.array(occ_out, dtype=np.int64)
    phys_occ = np.bitwise_count(occ_masks).astype(np.int64)
    occ_counts = {int(k): int(v) for k, v in zip(*np.unique(phys_occ, return_counts=True))}
    return SubspaceBasis(
        register_size=n,
        dim=len(labels_out),
        labels=labels[order],
        cols=cols[order],
        amps=np.concatenate(amps_out)[order],
        occ_masks=occ_masks,
        phys_occ=phys_occ,
        occ_counts=occ_counts,
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
    in_sel = sel[basis.cols] >= 0
    labels = basis.labels[in_sel].astype(np.uint64)
    amps = basis.amps[in_sel]
    src_cols = sel[basis.cols[in_sel]]
    flip, sign, coeff = pauli_table(H)
    # one row per term: each source label b goes to b ^ flip
    dest = (labels ^ flip[:, None]).astype(np.int64)
    pos = np.minimum(np.searchsorted(basis.labels, dest), basis.labels.size - 1)
    rows = np.where(basis.labels[pos] == dest, sel[basis.cols[pos]], -1)
    k, i = np.nonzero(rows >= 0)  # (term, source label) pairs that land in the selection
    contrib = _signed(labels[i], sign[k], coeff[k]) * amps[i] * np.conj(basis.amps[pos[k, i]])
    mat = np.zeros((cols.size, cols.size), dtype=np.complex128)
    np.add.at(mat, (rows[k, i], src_cols[i]), contrib)
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
    require("sector eigenpair residual", float(np.linalg.norm(Hs @ vec - energy * vec)), 1e-8)
    full = np.zeros(basis.dim, dtype=np.complex128)
    full[cols] = vec
    return energy, basis.expand(full)
