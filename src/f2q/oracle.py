"""Fermionic exact diagonalization of the t-V model in the physical Fock space.

Ground truth for energies, spectra, and quench trajectories, built without any
qubit encoding: occupation bitmasks over the N sites, a fixed row-major mode
ordering for the second-quantization signs, and explicit boundary-condition
signs on wrapping edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .lattice import (InputError, LatticeSpec, Site, check_particle_number, edge_sites, edge_wraps,
                      edges, occupation_bits, require, site_index)

MAX_SITES = 12
DENSE_GUARD = 4096


class BCSector(NamedTuple):
    sx: int  # boundary hopping sign in x
    sy: int  # boundary hopping sign in y


ALL_SECTORS = [BCSector(sx, sy) for sx in (+1, -1) for sy in (+1, -1)]
PERIODIC = BCSector(+1, +1)  # hopping sign +1 across both boundaries


@dataclass
class EDResult:
    eigenvalues: np.ndarray


def sector_basis(n_sites: int, n_f: int) -> np.ndarray:
    """Ascending occupation bitmasks with popcount n_f."""
    masks = [sum(1 << i for i in c) for c in combinations(range(n_sites), n_f)]
    return np.array(sorted(masks), dtype=np.int64)


def _hop_sign(mask: int, i: int, j: int) -> int:
    # parity of occupied modes strictly between i and j in the 1D ordering
    lo, hi = (i, j) if i < j else (j, i)
    between = mask & (((1 << hi) - 1) ^ ((1 << (lo + 1)) - 1))
    return -1 if between.bit_count() & 1 else +1


def ed_hamiltonian(
    spec: LatticeSpec,
    t: float,
    V: float,
    potentials: Optional[Dict[Site, float]],
    sector: BCSector,
    n_f: int,
) -> np.ndarray:
    """Dense float64 Hamiltonian of one particle-number sector."""
    N = spec.n_sites
    if N > MAX_SITES:
        raise InputError(f"fermionic ED limited to {MAX_SITES} sites")
    check_particle_number(spec, n_f)
    basis = sector_basis(N, n_f)
    index = {int(m): k for k, m in enumerate(basis)}
    dim = basis.size
    if dim > DENSE_GUARD:
        raise ValueError(f"dense ED limited to {DENSE_GUARD} states")

    pot = np.zeros(N)
    for r, mu in (potentials or {}).items():
        pot[site_index(spec, Site(*r))] += mu

    edge_list = []
    for e in edges(spec):
        r, s = edge_sites(spec, e)
        w = 1.0
        if edge_wraps(spec, e):
            w = float(sector.sx if e.direction == "x" else sector.sy)
        edge_list.append((site_index(spec, r), site_index(spec, s), w))

    H = np.zeros((dim, dim))
    for k, m in enumerate(map(int, basis)):
        diag = 0.0
        for i, j, w in edge_list:
            occ_i = (m >> i) & 1
            occ_j = (m >> j) & 1
            if occ_i and occ_j:
                diag += V
            # -t (c^+_i c_j + c^+_j c_i), boundary sign folded into w; two
            # edges joining the same sites (width-2 lattices) add up
            if occ_i != occ_j:
                H[index[m ^ (1 << i) ^ (1 << j)], k] += -t * w * _hop_sign(m, i, j)
        for i in range(N):
            if (m >> i) & 1:
                diag += pot[i]
        H[k, k] = diag
    return H


def ed_ground(
    spec: LatticeSpec,
    t: float,
    V: float,
    potentials: Optional[Dict[Site, float]],
    sector: BCSector,
    n_f: int,
) -> Tuple[float, np.ndarray]:
    H = ed_hamiltonian(spec, t, V, potentials, sector, n_f)
    evals, evecs = np.linalg.eigh(H)
    energy, vec = float(evals[0]), evecs[:, 0]
    require("ED eigenpair residual", float(np.linalg.norm(H @ vec - energy * vec)), 1e-10)
    return energy, vec


def ed_spectrum(
    spec: LatticeSpec,
    t: float,
    V: float,
    potentials: Optional[Dict[Site, float]],
    sector: BCSector,
    n_f: int,
) -> EDResult:
    H = ed_hamiltonian(spec, t, V, potentials, sector, n_f)
    return EDResult(eigenvalues=np.linalg.eigvalsh(H))  # ascending


def exact_reference(spec: LatticeSpec, t: float, V: float, n_f: int, h_enc: np.ndarray,
                    enc_evals: np.ndarray, occ_masks: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Ascending eigenpairs of the ED matrix in PERIODIC, the boundary sector
    the loop targets fix, read when this runs: one build, one solve. Fails
    unless its spectrum matches the encoded sector's, enc_evals, to 1e-8 and
    it matches h_enc, whose columns have the site masks occ_masks, up to a
    signed permutation to 1e-12 (relative, operator_deviation)."""
    H = ed_hamiltonian(spec, t, V, None, PERIODIC, n_f)
    evals, evecs = np.linalg.eigh(H)
    require("encoded and fermionic spectra differ by",
            float(np.max(np.abs(evals - enc_evals))), 1e-8)
    require("encoded and fermionic Hamiltonians differ (relative, up to signed permutation) by",
            operator_deviation(h_enc, occ_masks, H), 1e-12)
    return evals, evecs


def ed_propagate(evals: np.ndarray, evecs: np.ndarray, initial: np.ndarray, occ_masks: np.ndarray,
                 n_sites: int, times: Sequence[float]) -> np.ndarray:
    """Site occupations, shape (len(times), n_sites), of exp(-iH tau) initial
    for the real H = evecs diag(evals) evecs^T on states with site masks
    occ_masks. Builds and solves nothing."""
    if initial.shape != (evals.size,):
        raise ValueError("initial vector does not match the sector dimension")
    if abs(np.linalg.norm(initial) - 1.0) > 1e-10:
        raise ValueError("initial vector is not normalized")
    coeff = evecs.T @ initial
    occ_table = occupation_bits(occ_masks, n_sites)
    times_arr = np.asarray(list(times), dtype=float)
    occs = np.zeros((times_arr.size, n_sites))
    for k, tau in enumerate(times_arr):
        psi = evecs @ (np.exp(-1j * evals * tau) * coeff)
        require("propagation norm drift", abs(np.linalg.norm(psi) - 1.0), 1e-10)
        occs[k] = (np.abs(psi) ** 2) @ occ_table
    return occs


def operator_deviation(H: np.ndarray, occ_masks: np.ndarray, ed: np.ndarray) -> float:
    """max |H - diag(s) P ed P^T diag(s)| / max(1, max |ed|): how far the
    encoded sector matrix H misses the ED matrix ed up to a signed
    permutation. P orders ed's rows (ascending masks) as occ_masks, the site
    masks of H's columns, which must be the same set. The signs s follow a
    breadth-first spanning forest of H's nonzero off-diagonal entries, s = +1
    at each root. Relative, because restriction rounds each entry to a few
    ulps of the couplings (2.5e-10 absolute at V = 123456.789 on 3x3)."""
    rank = np.argsort(np.argsort(occ_masks))
    ed = ed[np.ix_(rank, rank)]
    # the walk runs on Python lists: H's nonzeros row by row, each with
    # whether ed agrees in sign there
    rows, cols = np.nonzero(H)
    agree = (H[rows, cols] * ed[rows, cols] > 0).tolist()
    start = np.searchsorted(rows, np.arange(H.shape[0] + 1)).tolist()
    cols = cols.tolist()
    s = [0.0] * H.shape[0]
    for root in range(len(s)):
        if s[root]:
            continue
        s[root], queue = 1.0, [root]
        for i in queue:
            for k in range(start[i], start[i + 1]):
                j = cols[k]
                if not s[j]:
                    s[j] = s[i] if agree[k] else -s[i]
                    queue.append(j)
    s = np.array(s)
    return float(np.max(np.abs(H - s[:, None] * ed * s)) / max(1.0, np.max(np.abs(ed))))


def bc_sector_search(
    spec: LatticeSpec,
    t: float,
    V: float,
    encoded: Dict[int, np.ndarray],
    tol: float = 1e-8,
) -> Tuple[List[BCSector], float]:
    """Every BC sector whose per-n_f ED spectra match the encoded ones, and the
    largest deviation over those matches (0.0 when none match).

    encoded maps n_f to the ascending eigenvalues of the bosonized Hamiltonian
    restricted to that occupation sector of the constrained subspace. A sector
    is diagonalised once per n_f up to its first mismatch; NaN never matches.
    """
    matches, largest = [], 0.0
    for sector in ALL_SECTORS:
        devs = []
        for n_f, vals in encoded.items():
            ref = ed_spectrum(spec, t, V, None, sector, n_f).eigenvalues
            devs.append(float(np.max(np.abs(ref - np.asarray(vals))))
                        if ref.size == len(vals) else np.inf)
            if not devs[-1] <= tol:
                break
        else:
            matches.append(sector)
            largest = max([largest] + devs)
    return matches, largest


def match_bc_sector(
    spec: LatticeSpec,
    t: float,
    V: float,
    encoded: Dict[int, np.ndarray],
    tol: float = 1e-8,
) -> BCSector:
    """First of bc_sector_search's matches, in ALL_SECTORS order; raises if none."""
    matches = bc_sector_search(spec, t, V, encoded, tol)[0]
    if not matches:
        raise ValueError("no fermionic BC sector matches the encoded spectra")
    return matches[0]
