"""The quench's sector Trotter route against the fused full-register step,
and the run-time operator check of its exact references."""

import numpy as np
import pytest

from f2q import circuits as C
from f2q import quench, statevec, vqe
from f2q.lattice import LatticeSpec, ScientificFailure, Site

from dense_oracle import full_trotter_run, project, reference_trotter_occupations

PRE = {Site(0, 0): -1.0, Site(0, 1): -1.0}

# every route shape the quench meets: both rho on an even lattice, the odd
# 3x3 lattice at rho = -1 (even n_f) and rho = +1 (odd n_f), the 4x2 lattice
# the CLI runs, and the one-column sectors n_f = 0 and n_f = N, where no
# position moves
ROUTE_CASES = [((2, 2), 1, 2), ((2, 4), 1, 2), ((2, 4), -1, 2), ((3, 3), -1, 2), ((3, 3), 1, 3),
               ((3, 3), 1, 5), ((4, 2), 1, 2), ((2, 2), 1, 0), ((2, 2), 1, 4)]


@pytest.mark.parametrize("shape,rho,n_f", ROUTE_CASES)
def test_sector_trotter_step_is_the_projected_full_register_step(shape, rho, n_f):
    spec = LatticeSpec(*shape, rho)
    t, V, dt, n_steps = 1.0, 3.0, 0.2, 3
    basis, states, occ_full = full_trotter_run(spec, t, V, n_f, PRE, dt, n_steps)
    _, occ_trotter, _, _ = quench.quench_trajectories(spec, t, V, n_f, PRE, dt, n_steps * dt)
    assert occ_trotter.shape == occ_full.shape
    assert np.max(np.abs(occ_trotter - occ_full)) <= 1e-12
    assert np.max(np.abs(occ_trotter.sum(axis=1) - n_f)) <= 1e-12
    # the sector state itself, step by step, against the projected register state
    step = vqe.GateTable(spec, basis, C.hv_layout(spec, 1, "per_group"))
    forward = step.coefficients(np.array([C.trotter_angles(t, V, dt)]))[0, 0]
    psi = project(basis, states[0])
    for state in states[1:]:
        step.sweep(psi, forward)
        assert abs(np.vdot(psi, project(basis, state))) >= 1 - 1e-12


@pytest.mark.parametrize("shape,rho,n_f", ROUTE_CASES)
def test_trotter_occupations_equal_the_reference_sweep_bit_for_bit(shape, rho, n_f):
    # the gathered plan sweep against the row formula with a whole-state
    # update per run, at a dt whose interaction angle V dt = 3.9 lies beyond pi
    spec = LatticeSpec(*shape, rho)
    t, V, dt, n_steps = 1.0, 3.0, 1.3, 4
    _, occ_trotter, _, _ = quench.quench_trajectories(spec, t, V, n_f, PRE, dt, n_steps * dt)
    assert np.array_equal(occ_trotter,
                          reference_trotter_occupations(spec, t, V, n_f, PRE, dt, n_steps))


def _permuted(restrict):
    """restrict_sum with rows and columns reversed: the same spectrum on a
    wrong basis order."""
    def wrapper(*args, **kwargs):
        return np.ascontiguousarray(restrict(*args, **kwargs)[::-1, ::-1])
    return wrapper


def test_quench_rejects_a_permuted_hamiltonian_with_the_right_spectrum(monkeypatch):
    monkeypatch.setattr(statevec, "restrict_sum", _permuted(statevec.restrict_sum))
    with pytest.raises(ScientificFailure, match="Hamiltonians differ"):
        quench.quench_trajectories(LatticeSpec(2, 4), 1.0, 3.0, 2, PRE, 0.1, 0.2)


def test_vqe_reference_rejects_a_permuted_hamiltonian_with_the_right_spectrum(monkeypatch):
    monkeypatch.setattr(vqe, "restrict_sum", _permuted(vqe.restrict_sum))
    cfg = vqe.VqeConfig(spec=LatticeSpec(2, 4), t=1.0, V=3.0, n_f=2, ansatz="hv", layers=1)
    with pytest.raises(ScientificFailure, match="Hamiltonians differ"):
        vqe.run(cfg, vqe.OptimizerConfig(max_steps=1))
