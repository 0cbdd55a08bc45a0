"""Quench dynamics: a Trotterized circuit against two exact references.

Library functions are called through their modules (`statevec.restrict_sum`,
not a name imported from `statevec`), so a wrapper installed on a module
attribute, as `perfbench/tracer.py` does, sees every call made here.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from . import circuits as circ
from . import oracle, pauli, statevec
from .lattice import (InputError, LatticeSpec, ScientificFailure, Site, occupation_bits,
                      phys_index, require, sites)

MAX_QUENCH_STEPS = 10 ** 5  # Trotter steps per trajectory


def quench_trajectories(spec: LatticeSpec, t: float, V: float, n_f: int,
                        pre_potentials: Dict[Site, float], dt: float, tmax: float):
    """Trotter circuit vs exact encoded vs exact fermionic occupations.

    Returns (times, occ_trotter, occ_encoded, occ_fermionic), each occupation
    array shaped (n_times, n_sites). The fermionic reference runs in
    oracle.PERIODIC. Raises ScientificFailure when its post-quench spectrum or
    its occupations differ from the encoded ones by more than 1e-8.
    """
    if not tmax / dt <= MAX_QUENCH_STEPS:
        raise InputError(f"tmax/dt exceeds the limit of {MAX_QUENCH_STEPS} Trotter steps")
    n_steps = int(round(tmax / dt))
    if abs(n_steps * dt - tmax) > 1e-9 or n_steps < 1:
        raise InputError("tmax must be a positive multiple of dt")
    times = dt * np.arange(n_steps + 1)
    basis = statevec.cached_sector(spec, pauli.constraint_set(spec), n_f)

    h_pre = pauli.tv_hamiltonian(spec, t, 0.0, pre_potentials)
    pre_evals, sec0 = statevec.sector_ground(basis, h_pre)
    if pre_evals.size > 1 and pre_evals[1] - pre_evals[0] < 1e-8:
        raise ScientificFailure("pre-quench ground state is degenerate; "
                                "references are ill-defined")

    # exact encoded evolution by spectral decomposition in the sector
    evals, evecs = np.linalg.eigh(statevec.restrict_sum(basis, pauli.tv_hamiltonian(spec, t, V)))
    occ_table = occupation_bits(basis.occ_masks, spec.n_sites)
    coeff = evecs.conj().T @ sec0
    occ_encoded = np.empty((times.size, spec.n_sites))
    for k, tau in enumerate(times):
        psi = evecs @ (np.exp(-1j * evals * tau) * coeff)
        occ_encoded[k] = (np.abs(psi) ** 2) @ occ_table

    # independent fermionic reference in the boundary sector the loop targets fix
    sector = oracle.PERIODIC
    _, ferm0 = oracle.ed_ground(spec, t, 0.0, pre_potentials, sector, n_f)
    ferm = oracle.ed_propagate(spec, t, V, ferm0, sector, n_f, times)
    require("encoded and fermionic post-quench spectra differ by",
            float(np.max(np.abs(ferm.eigenvalues - evals))), 1e-8)
    occ_fermionic = ferm.occupations
    require("exact references disagree by", np.max(np.abs(occ_encoded - occ_fermionic)), 1e-8)

    # Trotterized circuit evolution on the full register
    step = circ.fuse(circ.trotter_step(spec, t, V, dt))
    phys = [phys_index(spec, r) for r in sites(spec)]
    state = basis.expand(sec0)
    occ_trotter = np.empty((times.size, spec.n_sites))
    occ_trotter[0] = statevec.qubit_marginals(state, phys)
    for k in range(1, times.size):
        circ.apply_circuit(state, step)
        occ_trotter[k] = statevec.qubit_marginals(state, phys)
    return times, occ_trotter, occ_encoded, occ_fermionic
