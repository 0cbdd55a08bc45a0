"""Quench dynamics: a Trotterized circuit against two exact references.

The Trotter and exact encoded trajectories both run in the n_f sector of
the constrained subspace and read occupations through its columns' site
masks; the fermionic one runs in ED's n_f sector. A Trotter step is the
one-layer per_group HV circuit (circuits.trotter_step), so it runs as that
layout's vqe.GateTable, swept once per step at circuits.trotter_angles. The
tests compare it with tests/dense_oracle.full_trotter_run, which applies
trotter_step(...) on the full register.

Library functions are called through their modules (`statevec.restrict_sum`,
not a name imported from `statevec`), so a wrapper installed on a module
attribute, as `perfbench/tracer.py` does, sees every call made here.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from . import circuits as circ
from . import oracle, pauli, statevec, vqe
from .lattice import (InputError, LatticeSpec, ScientificFailure, Site, check_particle_number,
                      occupation_bits, require)

MAX_QUENCH_STEPS = 10 ** 5  # Trotter steps per trajectory


def quench_trajectories(spec: LatticeSpec, t: float, V: float, n_f: int,
                        pre_potentials: Dict[Site, float], dt: float, tmax: float):
    """Trotter circuit vs exact encoded vs exact fermionic occupations.

    Returns (times, occ_trotter, occ_encoded, occ_fermionic), each occupation
    array shaped (n_times, n_sites). The fermionic reference is
    oracle.exact_reference's, which checks it against the encoded post-quench
    sector; raises ScientificFailure also when the two exact trajectories
    differ by more than 1e-8.
    """
    check_particle_number(spec, n_f)
    if not (dt > 0 and tmax > 0):  # written so NaN fails too
        raise InputError("dt and tmax must be positive")
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

    # exact encoded and fermionic evolution, each by its own spectral decomposition
    h_post = statevec.restrict_sum(basis, pauli.tv_hamiltonian(spec, t, V))
    evals, evecs = np.linalg.eigh(h_post)
    ferm_evals, ferm_evecs = oracle.exact_reference(spec, t, V, n_f, h_post, evals,
                                                    basis.occ_masks)
    occ_encoded = oracle.ed_propagate(evals, evecs, sec0, basis.occ_masks, spec.n_sites, times)
    _, ferm0 = oracle.ed_ground(spec, t, 0.0, pre_potentials, oracle.PERIODIC, n_f)
    # ed_propagate multiplies initial as given; the fermionic column starts
    # from a complex128 vector, which fixes its last digits
    occ_fermionic = oracle.ed_propagate(ferm_evals, ferm_evecs, ferm0.astype(np.complex128),
                                        oracle.sector_basis(spec.n_sites, n_f), spec.n_sites,
                                        times)
    require("exact references disagree by", np.max(np.abs(occ_encoded - occ_fermionic)), 1e-8)

    # Trotterized evolution: the step's gate table, swept on the sector's columns
    occ_table = occupation_bits(basis.occ_masks, spec.n_sites)
    step = vqe.GateTable(spec, basis, circ.hv_layout(spec, 1, "per_group"))
    forward = step.coefficients(np.array([circ.trotter_angles(t, V, dt)]))[0, 0]
    psi = sec0.astype(np.complex128)
    occ_trotter = np.empty((times.size, spec.n_sites))
    occ_trotter[0] = (np.abs(psi) ** 2) @ occ_table
    for k in range(1, times.size):
        step.sweep(psi, forward)
        occ_trotter[k] = (np.abs(psi) ** 2) @ occ_table
    return times, occ_trotter, occ_encoded, occ_fermionic
