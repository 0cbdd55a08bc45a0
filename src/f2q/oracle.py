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

from .lattice import (InputError, LatticeSpec, Site, edge_sites, edge_wraps, edges,
                      occupation_bits, require, site_index)

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
    times: Optional[np.ndarray] = None
    occupations: Optional[np.ndarray] = None  # shape (len(times), N)


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
    if not 0 <= n_f <= N:
        raise ValueError("particle number outside [0, N]")
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


def ed_propagate(
    spec: LatticeSpec,
    t: float,
    V: float,
    initial: np.ndarray,
    sector: BCSector,
    n_f: int,
    times: Sequence[float],
) -> EDResult:
    N = spec.n_sites
    basis = sector_basis(N, n_f)
    if initial.shape != (basis.size,):
        raise ValueError("initial vector does not match the sector dimension")
    if abs(np.linalg.norm(initial) - 1.0) > 1e-10:
        raise ValueError("initial vector is not normalized")
    H = ed_hamiltonian(spec, t, V, None, sector, n_f)
    evals, evecs = np.linalg.eigh(H)
    coeff = evecs.conj().T @ initial.astype(np.complex128)
    occ_table = occupation_bits(basis, N)
    times_arr = np.asarray(list(times), dtype=float)
    occs = np.zeros((times_arr.size, N))
    for k, tau in enumerate(times_arr):
        psi = evecs @ (np.exp(-1j * evals * tau) * coeff)
        require("propagation norm drift", abs(np.linalg.norm(psi) - 1.0), 1e-10)
        occs[k] = (np.abs(psi) ** 2) @ occ_table
    return EDResult(eigenvalues=evals, times=times_arr, occupations=occs)


def matching_bc_sectors(
    spec: LatticeSpec,
    t: float,
    V: float,
    encoded: Dict[int, np.ndarray],
    tol: float = 1e-8,
) -> List[BCSector]:
    """Every BC sector whose per-n_f ED spectra match the encoded ones.

    encoded maps n_f to the ascending eigenvalues of the bosonized Hamiltonian
    restricted to that occupation sector of the constrained subspace.
    """
    matches = []
    for sector in ALL_SECTORS:
        ok = True
        for n_f, vals in encoded.items():
            ref = ed_spectrum(spec, t, V, None, sector, n_f).eigenvalues
            if ref.size != len(vals) or np.max(np.abs(ref - np.asarray(vals))) > tol:
                ok = False
                break
        if ok:
            matches.append(sector)
    return matches


def match_bc_sector(
    spec: LatticeSpec,
    t: float,
    V: float,
    encoded: Dict[int, np.ndarray],
    tol: float = 1e-8,
) -> BCSector:
    """First of matching_bc_sectors, in ALL_SECTORS order; raises if none."""
    matches = matching_bc_sectors(spec, t, V, encoded, tol)
    if not matches:
        raise ValueError("no fermionic BC sector matches the encoded spectra")
    return matches[0]
