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

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from . import oracle
from .lattice import InputError, LatticeSpec, require
from .pauli import ConstraintSet, PauliString, PauliSum

MAX_REGISTER_QUBITS = 62  # int64 labels
MAX_QUBITS = 24  # support guard: no state or gate output holds more than 2^MAX_QUBITS labels
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

    def copy(self) -> "StateVector":
        return StateVector(self.labels.copy(), self.amps.copy(), self.register_size, self.dropped)


def _check_support(size: int) -> None:
    if size > 1 << MAX_QUBITS:
        raise ValueError(f"support of {size} labels exceeds the 2^{MAX_QUBITS}-label guard")


def zero_state(n_qubits: int) -> StateVector:
    return StateVector(np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.complex128), n_qubits)


def apply_matrix_gate(state: StateVector, U: np.ndarray, targets: Sequence[int]) -> StateVector:
    """Apply the k-qubit matrix U on targets (targets[0] the MSB of U).

    U must be a checked gate matrix: in the library, a block that
    circuits.fuse composed and checked unitary. This kernel checks only the
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


# ---------------------------------------------------------------- subspace

@dataclass
class SubspaceBasis:
    """Orthonormal constraint-satisfying basis, stored as one label table.

    Each column is a stabilizer state (Aaronson & Gottesman,
    arXiv:quant-ph/0406196): its smallest label reps[j] XOR the 2^rank flips
    of the constraint products, with amplitudes of modulus 2^(-rank/2).
    Columns have pairwise disjoint label supports, so each label belongs to
    exactly one column: column cols[i] has amplitude amps[i] on label
    labels[i]. Every column has a definite physical occupation (the
    constraint flips touch only auxiliary qubits): its site bitmask is
    occ_masks, its particle count phys_occ. Columns ascend in occ_masks, the
    Fock order of oracle.sector_basis. stab_flip and stab_sign are the
    constraints' binary x|z masks.
    """

    register_size: int
    dim: int
    labels: np.ndarray    # int64, ascending
    cols: np.ndarray      # int64, the column of each label
    amps: np.ndarray      # complex128, aligned with labels
    reps: np.ndarray      # int64 per column, its smallest label
    occ_masks: np.ndarray  # int64 per column, bit i = occupation of site i
    phys_occ: np.ndarray  # int64 per column
    occ_counts: Dict[int, int]
    stab_flip: np.ndarray  # uint64 per constraint
    stab_sign: np.ndarray  # uint64 per constraint

    def expand(self, coeffs: np.ndarray) -> StateVector:
        """B coeffs, on the labels of the columns with a nonzero coefficient."""
        amps = coeffs[self.cols] * self.amps
        keep = amps != 0
        return StateVector(self.labels[keep], amps[keep], self.register_size)


@lru_cache(maxsize=8)
def _solve(cs: ConstraintSet):
    """The target-signed constraints t*S reduced over GF(2), once per set.

    The generators whose flips are independent span each column's orbit. Each
    dependent one, times the independent products that cancel its flip, is
    diagonal, so t*S = +1 is one more condition parity(label & z) = bit. In
    echelon form on their highest bit, a condition 0 = 1 means no column at
    all; a row whose highest bit is a physical one checks the occupation;
    every other row fixes its auxiliary pivot bit from the bits below it.
    Returns the constraints' x|z masks, those checks, the pivot rows
    (ascending), the independent flips (leading bits descending) and the
    pauli_table form of all 2^rank independent products.
    """
    if cs.n > MAX_REGISTER_QUBITS:
        raise InputError(f"{cs.n} qubits exceed the {MAX_REGISTER_QUBITS}-qubit label range")
    N = cs.n // 2
    stab_flip, stab_sign, coeff = pauli_table((t, s) for s, t in cs)
    if np.any(stab_flip & np.uint64((1 << N) - 1)):
        raise ValueError("constraint flips must act on auxiliary qubits only")
    flips, conds = {}, []  # flips: leading bit -> independent product (flip, sign, coeff)
    for g in zip(stab_flip.tolist(), stab_sign.tolist(), coeff.tolist()):
        while g[0] and g[0].bit_length() - 1 in flips:
            h = flips[g[0].bit_length() - 1]  # g <- g h in x|z form
            g = g[0] ^ h[0], g[1] ^ h[1], g[2] * h[2] * (-1) ** (g[1] & h[0]).bit_count()
        if g[0]:
            flips[g[0].bit_length() - 1] = g
        else:
            conds.append((g[1], int(g[2].real < 0)))
    rows = {}  # leading bit -> (z, bit)
    for z, bit in conds:
        while z and z.bit_length() - 1 in rows:
            z2, b2 = rows[z.bit_length() - 1]
            z, bit = z ^ z2, bit ^ b2
        if z:
            rows[z.bit_length() - 1] = (z, bit)
        elif bit:
            raise ValueError("empty constrained subspace: inconsistent targets")
    pivots = sorted((p, z, b) for p, (z, b) in rows.items() if p >= N)
    if len(pivots) + len(flips) != N:
        raise ValueError("the constraints do not fix one state per occupation")
    fl, sg, cf = np.zeros(1, np.int64), np.zeros(1, np.int64), np.ones(1, np.complex128)
    for f, s, c in flips.values():
        fl, sg, cf = (np.concatenate([fl, fl ^ f]), np.concatenate([sg, sg ^ s]),
                      np.concatenate([cf, _signed(sg, f, cf * c)]))
    return ((stab_flip, stab_sign), [zb for p, zb in rows.items() if p < N], pivots,
            [g[0] for _, g in sorted(flips.items(), reverse=True)], (fl, sg, cf))


def _check_size(cs: ConstraintSet, columns: int) -> None:
    """InputError unless the columns fit the dense guard and their labels the support guard."""
    r = len(_solve(cs)[3])
    if columns > oracle.DENSE_GUARD or columns << r > 1 << MAX_QUBITS:
        raise InputError(f"a basis of up to {columns} columns of 2^{r} labels exceeds the "
                         f"{oracle.DENSE_GUARD}-column or the 2^{MAX_QUBITS}-label guard")


def _build(cs: ConstraintSet, occ) -> SubspaceBasis:
    """The columns of the occupation masks in occ that pass the checks, in occ's order."""
    (stab_flip, stab_sign), checks, pivots, flips, (flip, sign, coeff) = _solve(cs)
    reps, r = np.array(occ, dtype=np.int64), len(flips)
    for z, bit in checks:
        reps = reps[np.bitwise_count(reps & z) & 1 == bit]
    for p, z, bit in pivots:  # free bits stay 0
        reps |= ((np.bitwise_count(reps & z) & 1) ^ bit).astype(np.int64) << p
    for f in flips:  # clear each leading bit: the smallest label of the orbit
        reps ^= np.where(reps >> (f.bit_length() - 1) & 1, f, 0)
    table = (reps[:, None] ^ flip).reshape(-1)
    # + 0 turns signed zeros into +0, as the sum over all constraint products gave
    amps = (_signed(reps[:, None], sign, coeff).reshape(-1) + 0) / (2.0 ** r * np.sqrt(2.0 ** -r))
    order = np.argsort(table)
    occ_masks = reps & (1 << cs.n // 2) - 1
    phys_occ = np.bitwise_count(occ_masks).astype(np.int64)
    return SubspaceBasis(
        register_size=cs.n, dim=reps.size, labels=table[order], cols=order >> r, amps=amps[order],
        reps=reps, occ_masks=occ_masks, phys_occ=phys_occ,
        occ_counts={int(k): int(v) for k, v in zip(*np.unique(phys_occ, return_counts=True))},
        stab_flip=stab_flip, stab_sign=stab_sign)


def constrained_basis(spec: LatticeSpec, cs: ConstraintSet) -> SubspaceBasis:
    """Every column: all particle-number sectors merged in site-mask order."""
    _check_size(cs, 1 << cs.n // 2)
    return _build(cs, np.arange(1 << cs.n // 2))


@lru_cache(maxsize=8)
def cached_basis(spec: LatticeSpec, cs: ConstraintSet) -> SubspaceBasis:
    return constrained_basis(spec, cs)


@lru_cache(maxsize=32)
def cached_sector(spec: LatticeSpec, cs: ConstraintSet, n_f: int) -> SubspaceBasis:
    """The columns of constrained_basis(spec, cs) with n_f particles, built on
    their own: none, or Fock state oracle.sector_basis(N, n_f)[j] in column j."""
    count = math.comb(cs.n // 2, n_f) if 0 <= n_f <= cs.n // 2 else 0
    _check_size(cs, count)
    return _build(cs, oracle.sector_basis(cs.n // 2, n_f) if count else [])


def restrict_sum(basis: SubspaceBasis, H: PauliSum, cols: Optional[np.ndarray] = None) -> np.ndarray:
    """Real dense matrix of the Hamiltonian H restricted to the selected
    basis columns (all by default); InputError on an empty basis.

    A column's amplitudes share one modulus, so each entry is a real
    coefficient times an exact unit ratio: the imaginary part must be 0.0,
    and anything else is a broken phase convention, never dropped. The one
    dense restriction; a complex operator keeps restrict_between's entries.
    """
    if basis.dim == 0:
        raise InputError("no constrained basis vectors with the requested particle number")
    i, j, c = restrict_between(basis, basis, H)
    mat = np.zeros((basis.dim, basis.dim), dtype=np.complex128)
    np.add.at(mat, (i, j), c)
    require("imaginary part of a restricted Hamiltonian", float(np.max(np.abs(mat.imag))), 0.0)
    mat = mat.real if cols is None else mat.real[np.ix_(cols, cols)]
    return np.ascontiguousarray(mat)


def restrict_between(dest: SubspaceBasis, src: SubspaceBasis,
                     terms: Iterable[Tuple[complex, PauliString]]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entries (i, j, c) of <dest_i|terms|src_j>, one per term and source
    column j that lands in dest, j ascending per term; dest and src are two
    bases of one constraint set (two particle-number sectors, say).

    A term P that commutes with every constraint maps column j to a multiple
    c of the one column i that holds b ^ flip, b being j's smallest label, so
    one label per column gives c = sign * coeff * amp_j(b) / amp_i(b ^ flip).
    A term that anticommutes with a constraint maps the constrained space
    onto its complement and gives no entry.
    """
    flip, sign, coeff = pauli_table(terms)
    anti = (np.bitwise_count(flip[:, None] & dest.stab_sign)
            + np.bitwise_count(sign[:, None] & dest.stab_flip)) & 1
    keep = ~anti.any(axis=1)
    flip, sign, coeff = flip[keep], sign[keep], coeff[keep]
    reps = src.reps.view(np.uint64)
    pos, hit = _find(dest.labels, (reps ^ flip[:, None]).view(np.int64))
    k, j = np.nonzero(hit)  # (term, source column) pairs that land in dest
    rep_amps = src.amps[_find(src.labels, src.reps)[0]]
    return (dest.cols[pos[k, j]], j,
            _signed(reps[j], sign[k], coeff[k]) * rep_amps[j] / dest.amps[pos[k, j]])


def sector_ground(sector: SubspaceBasis, H: PauliSum) -> Tuple[np.ndarray, np.ndarray]:
    """Every eigenvalue of H restricted to the sector, ascending, and the
    checked real ground vector in the sector's columns."""
    Hs = restrict_sum(sector, H)
    evals, evecs = np.linalg.eigh(Hs)
    energy, vec = float(evals[0]), evecs[:, 0]
    require("sector eigenpair residual", float(np.linalg.norm(Hs @ vec - energy * vec)), 1e-8)
    return evals, vec


def ground_in_sector(H: PauliSum, spec: LatticeSpec, cs: ConstraintSet, n_f: int) -> Tuple[float, StateVector]:
    sector = cached_sector(spec, cs, n_f)
    evals, vec = sector_ground(sector, H)
    return float(evals[0]), sector.expand(vec)
