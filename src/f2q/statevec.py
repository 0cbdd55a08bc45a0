"""Label-sparse statevector simulator and constrained-subspace machinery.

A state is its support: the basis labels that carry an amplitude, as
ascending int64, and those amplitudes. Label b has qubit q at bit q (qubit
0 = least significant bit), so int64 labels reach 62-qubit registers;
MAX_QUBITS bounds the support, not the register. A k-qubit gate matrix is
given in the basis where targets[0] is the most significant of the k local
bits.

The lattice circuits keep every state inside the constrained subspace, whose
columns are aux orbits of 2^rank labels, so the support stays far below 2^n
(3x3, n_f = 2: 576 of 2^18 labels). A diagonal gate multiplies each label by
its phase. Any other gate collects the labels that agree outside its targets
into groups, multiplies U with the (2^k, groups) block of their amplitudes,
and drops the outputs with |a| <= DROP_CUT. The dropped weight adds up on the
state, and circuits.apply_circuit fails once it exceeds 1e-12. A state with
full support (2^n labels) is a dense vector and takes the same kernel. Kernels
replace a state's arrays and never write into them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .lattice import InputError, LatticeSpec, require
from .pauli import ConstraintSet, PauliString, PauliSum, identity as pauli_identity

MAX_REGISTER_QUBITS = 62  # int64 labels
MAX_QUBITS = 24  # support guard: no state or gate output holds more than 2^MAX_QUBITS labels
MAX_SUBSPACE_QUBITS = 18  # guard for subspace construction
MAX_GATE_QUBITS = 4  # widest gate apply_matrix_gate takes
DROP_CUT = 1e-14  # a gate output amplitude with |a| <= DROP_CUT leaves the support


@dataclass
class StateVector:
    """sum_i amps[i] |labels[i]> on register_size qubits.

    labels are distinct and ascending; dropped is the weight sum |a|^2 that
    gates have cut from the support so far.
    """

    labels: np.ndarray
    amps: np.ndarray
    register_size: int
    dropped: float = 0.0

    def __post_init__(self):
        n = self.register_size
        if not 0 <= n <= MAX_REGISTER_QUBITS:
            raise ValueError(f"register of {n} qubits exceeds the {MAX_REGISTER_QUBITS}-qubit "
                             "label range")
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.amps = np.asarray(self.amps, dtype=np.complex128)
        labels = self.labels
        if labels.ndim != 1 or labels.shape != self.amps.shape:
            raise ValueError("labels and amplitudes must be aligned 1-D arrays")
        _check_support(labels.size)
        if labels.size and (labels[0] < 0 or labels[-1] >> n or np.any(np.diff(labels) <= 0)):
            raise ValueError("labels must be distinct, ascending and inside the register")

    @classmethod
    def from_dense(cls, amps: np.ndarray, n_qubits: int) -> "StateVector":
        """The full-support state with amplitude vector amps (2^n entries)."""
        if np.shape(amps) != (1 << n_qubits,):
            raise ValueError("a dense state needs 2^n amplitudes")
        return cls(np.arange(1 << n_qubits, dtype=np.int64), amps, n_qubits)

    def to_dense(self) -> np.ndarray:
        """The 2^n amplitude vector."""
        _check_support(1 << self.register_size)
        psi = np.zeros(1 << self.register_size, dtype=np.complex128)
        psi[self.labels] = self.amps
        return psi

    def copy(self) -> "StateVector":
        return StateVector(self.labels.copy(), self.amps.copy(), self.register_size, self.dropped)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def _check_support(size: int) -> None:
    if size > 1 << MAX_QUBITS:
        raise ValueError(f"support of {size} labels exceeds the 2^{MAX_QUBITS}-label guard")


def zero_state(n_qubits: int) -> StateVector:
    return StateVector(np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.complex128), n_qubits)


def apply_matrix_gate(state: StateVector, U: np.ndarray, targets: Sequence[int]) -> StateVector:
    """Apply the k-qubit matrix U on targets (targets[0] the MSB of U).

    U must come from a circuits.Gate (circuits.gate_unitary), which checks
    unitarity once when the gate is built; this kernel checks only the
    targets and U's shape, and trusts its entries.
    """
    k = len(targets)
    if not 1 <= k <= MAX_GATE_QUBITS:
        raise ValueError(f"gates act on 1..{MAX_GATE_QUBITS} qubits")
    if len(set(targets)) != k:
        raise ValueError("duplicate target qubits")
    n = state.register_size
    if any(not 0 <= q < n for q in targets):
        raise ValueError("target out of range")
    U = np.asarray(U, dtype=np.complex128)
    if U.shape != (1 << k, 1 << k):
        raise ValueError("gate matrix size does not match its targets")
    labels, amps = state.labels, state.amps
    loc = _local_index(labels, targets)
    phases = np.diagonal(U)
    if not np.any(U - np.diag(phases)):
        state.amps = amps * phases[loc]  # diagonal gate: a phase per label
        return state
    # the labels that agree outside the targets form a group, a column of
    # block indexed by local index; row j of U @ block holds the outputs on
    # spread[j] | keys, so the new labels are 2^k ascending runs
    keys, group = np.unique(labels & ~sum(1 << q for q in targets), return_inverse=True)
    _check_support(keys.size << k)
    block = np.zeros((1 << k, keys.size), dtype=np.complex128)
    block[loc, group] = amps
    res = (U @ block).reshape(-1)
    weight = res.real ** 2 + res.imag ** 2
    keep = weight > DROP_CUT ** 2
    new = (_spread(targets)[:, None] | keys).reshape(-1)[keep]
    order = np.argsort(new, kind="stable")  # merges the runs
    state.labels, state.amps = new[order], res[keep][order]
    state.dropped += float(weight[~keep].sum())
    return state


def _local_index(labels: np.ndarray, targets: Sequence[int]) -> np.ndarray:
    """Each label's row in a gate matrix on targets (targets[0] the MSB)."""
    k = len(targets)
    loc = np.zeros(labels.size, dtype=np.int64)
    for i, q in enumerate(targets):
        loc |= ((labels >> q) & 1) << (k - 1 - i)
    return loc


def _spread(targets: Sequence[int]) -> np.ndarray:
    """The target bits of each local index as label bits: _local_index inverted."""
    k = len(targets)
    j = np.arange(1 << k, dtype=np.int64)
    return sum(((j >> (k - 1 - i)) & 1) << q for i, q in enumerate(targets))


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
    src = state.labels.view(np.uint64)
    dest = (src ^ flip).view(np.int64)
    order = np.argsort(dest)
    state.labels, state.amps = dest[order], (_signed(src, sign, coeff) * state.amps)[order]
    return state


def _find(labels: np.ndarray, wanted: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(pos, hit): labels[pos[i]] == wanted[i] wherever hit[i]; labels ascending."""
    pos = np.minimum(np.searchsorted(labels, wanted), labels.size - 1)
    return pos, labels[pos] == wanted


def _expectation(state: StateVector, terms: Iterable[Tuple[complex, PauliString]]) -> complex:
    """<psi| sum_k c_k S_k |psi>, looking up the image labels b ^ flip once per
    distinct flip."""
    flip, sign, coeff = pauli_table(terms)
    labels, amps = state.labels, state.amps
    src = labels.view(np.uint64)
    val = 0j
    for f in np.unique(flip):
        pos, hit = _find(labels, (src ^ f).view(np.int64))
        overlap = np.conj(amps[pos[hit]]) * amps[hit]  # <b ^ f|psi>* <b|psi>
        group = flip == f
        val += np.sum(_signed(src[hit], sign[group, None], coeff[group, None]) @ overlap)
    return complex(val)


def expval(state: StateVector, O: PauliSum) -> float:
    if O.n != state.register_size:
        raise ValueError("register size mismatch")
    if not O.is_hermitian:
        raise ValueError("expectation of a non-Hermitian sum")
    val = _expectation(state, O)
    require("imaginary residue of a Hermitian expectation", abs(val.imag), 1e-10)
    return float(val.real)


def expval_string(state: StateVector, p: PauliString) -> complex:
    if p.n != state.register_size:
        raise ValueError("register size mismatch")
    return _expectation(state, [(1, p)])


def qubit_marginals(state: StateVector, qubits: Sequence[int]) -> np.ndarray:
    """P(qubit = 1) for each listed qubit, all from one |psi|^2 pass."""
    n = state.register_size
    if any(not 0 <= q < n for q in qubits):
        raise ValueError("qubit out of range")
    bits = (state.labels[:, None] >> np.asarray(qubits, dtype=np.int64)) & 1
    return (np.abs(state.amps) ** 2) @ bits


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
        mine = self.cols == j
        return StateVector(self.labels[mine], self.amps[mine], self.register_size)

    def project(self, state: StateVector) -> np.ndarray:
        """coefficients B^dagger psi."""
        coeffs = np.zeros(self.dim, dtype=np.complex128)
        pos, hit = _find(self.labels, state.labels)
        pos = pos[hit]
        np.add.at(coeffs, self.cols[pos], np.conj(self.amps[pos]) * state.amps[hit])
        return coeffs

    def expand(self, coeffs: np.ndarray) -> StateVector:
        """B coeffs, on the labels of the columns with a nonzero coefficient."""
        amps = coeffs[self.cols] * self.amps
        keep = amps != 0
        return StateVector(self.labels[keep], amps[keep], self.register_size)


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
    pos, hit = _find(basis.labels, dest)
    rows = np.where(hit, sel[basis.cols[pos]], -1)
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
    evals, state = _sector_ground(cached_basis(spec, cs), H, n_f)
    return float(evals[0]), state


def _sector_ground(basis: SubspaceBasis, H: PauliSum, n_f: int) -> Tuple[np.ndarray, StateVector]:
    """Every eigenvalue of H restricted to the n_f columns, ascending, and the
    checked ground state on the register: ground_in_sector with the spectrum."""
    cols = np.flatnonzero(basis.phys_occ == n_f)
    if cols.size == 0:
        raise InputError(f"no constrained basis vectors with particle number {n_f}")
    Hs = restrict_sum(basis, H, cols)
    evals, evecs = np.linalg.eigh(Hs)
    energy, vec = float(evals[0]), evecs[:, 0]
    require("sector eigenpair residual", float(np.linalg.norm(Hs @ vec - energy * vec)), 1e-8)
    full = np.zeros(basis.dim, dtype=np.complex128)
    full[cols] = vec
    return evals, basis.expand(full)
