import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f2q.lattice import LatticeSpec, Site
from f2q.pauli import (
    PauliString,
    PauliSum,
    X,
    Y,
    Z,
    constraint_set,
    identity,
    number_sum,
    tv_hamiltonian,
)
from f2q.statevec import (
    StateVector,
    apply_matrix_gate,
    apply_pauli,
    cached_basis,
    constrained_basis,
    expval,
    expval_string,
    ground_in_sector,
    qubit_marginals,
    restrict_sum,
    zero_state,
)

from dense_oracle import (
    embed_gate,
    pauli_matrix,
    pauli_sum_matrix,
    symplectic_dimension,
)

H_GATE = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
X_GATE = np.array([[0, 1], [1, 0]], dtype=np.complex128)


def random_state(n, seed=0):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    amps /= np.linalg.norm(amps)
    return StateVector(amps, n)


def random_unitary(dim, seed=0):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ------------------------------------------------------------- basic kernels

def test_zero_state_basics():
    s = zero_state(8)
    assert s.amplitudes.size == 256  # 2x2 register
    assert s.norm() == pytest.approx(1.0)
    for q in range(8):
        zq = PauliSum(8, [(1.0, PauliString(8, {q: Z}))])
        assert expval(s, zq) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        zero_state(25)


def test_apply_x_twice_is_identity():
    s = zero_state(3)
    apply_matrix_gate(s, X_GATE, [1])
    apply_matrix_gate(s, X_GATE, [1])
    assert abs(s.amplitudes[0] - 1.0) < 1e-14


def test_hadamard_on_zero():
    s = zero_state(1)
    apply_matrix_gate(s, H_GATE, [0])
    assert np.allclose(s.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_gate_errors():
    s = zero_state(2)
    with pytest.raises(ValueError):
        apply_matrix_gate(s, np.eye(4), [0, 0])
    with pytest.raises(ValueError):
        apply_matrix_gate(s, np.array([[1, 1], [0, 1]], dtype=complex), [0])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_random_two_qubit_gate_preserves_norm(seed):
    s = random_state(3, seed)
    apply_matrix_gate(s, random_unitary(4, seed), [2, 0])
    assert abs(s.norm() - 1.0) < 1e-12


def test_matrix_gate_matches_dense_embedding():
    # targets[0] is the most significant local bit
    for targets in ([2, 0], [0, 2], [1], [0, 1, 2]):
        U = random_unitary(1 << len(targets), seed=len(targets) + 10 * targets[0])
        s = random_state(3, seed=5)
        expect = embed_gate(U, targets, 3) @ s.amplitudes
        apply_matrix_gate(s, U, targets)
        assert np.max(np.abs(s.amplitudes - expect)) < 1e-12


def test_diagonal_gate_matches_dense_embedding():
    rng = np.random.default_rng(8)
    for targets in ([2, 0], [0, 2], [1], [3, 0, 2], [1, 3, 0, 2]):
        U = np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, 1 << len(targets))))
        s = random_state(4, seed=len(targets))
        expect = embed_gate(U, targets, 4) @ s.amplitudes
        held, before = s.amplitudes, s.amplitudes.copy()
        apply_matrix_gate(s, U, targets)
        assert np.max(np.abs(s.amplitudes - expect)) < 1e-12
        assert np.array_equal(held, before)  # the old array is replaced, not overwritten
    with pytest.raises(ValueError):
        apply_matrix_gate(random_state(2), np.diag([1.0, 2.0]), [0])


def test_qubit_marginals_match_z_expectations():
    n = 5
    s = random_state(n, seed=9)
    qubits = [3, 0, 4, 1]
    want = [0.5 * (1.0 - expval_string(s, PauliString(n, {q: Z})).real) for q in qubits]
    assert np.max(np.abs(qubit_marginals(s, qubits) - want)) < 1e-14
    assert np.allclose(qubit_marginals(zero_state(3), [0, 1, 2]), 0.0)
    with pytest.raises(ValueError):
        qubit_marginals(s, [5])


def test_cnot_written_as_matrix():
    # control = qubit 1 (MSB of the local pair), target = qubit 0
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    s = zero_state(2)
    apply_matrix_gate(s, X_GATE, [1])  # set control
    apply_matrix_gate(s, cnot, [1, 0])
    assert abs(s.amplitudes[0b11] - 1.0) < 1e-14


def test_apply_pauli_examples():
    s = zero_state(1)
    apply_matrix_gate(s, X_GATE, [0])
    apply_pauli(s, PauliString(1, {0: Z}))
    assert abs(s.amplitudes[1] + 1.0) < 1e-14  # Z|1> = -|1>

    s = zero_state(1)
    apply_pauli(s, PauliString(1, {0: Y}))
    assert abs(s.amplitudes[1] - 1j) < 1e-14  # Y|0> = i|1>

    with pytest.raises(ValueError):
        apply_pauli(zero_state(2), PauliString(3, {0: X}))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(0, 3), min_size=3, max_size=3),
    st.integers(0, 3),
    st.integers(0, 2**31 - 1),
)
def test_apply_pauli_matches_dense(letters, phase_k, seed):
    p = PauliString(3, bytes(letters), phase_k)
    s = random_state(3, seed)
    expect = pauli_matrix(p) @ s.amplitudes
    apply_pauli(s, p)
    assert np.max(np.abs(s.amplitudes - expect)) < 1e-12


def test_expval_examples():
    spec = LatticeSpec(2, 2)
    assert expval(zero_state(8), number_sum(spec)) == pytest.approx(0.0)
    only_id = PauliSum(4, [(2.5, identity(4))])
    assert expval(random_state(4, 3), only_id) == pytest.approx(2.5)
    with pytest.raises(ValueError):
        expval(zero_state(2), PauliSum(2, [(1j, PauliString(2, {0: Z}))]))


def test_expval_matches_dense_2x2():
    spec = LatticeSpec(2, 2)
    H = tv_hamiltonian(spec, t=1.0, V=2.0, potentials={Site(0, 0): -1.0})
    s = random_state(8, 11)
    dense = pauli_sum_matrix(H)
    assert expval(s, H) == pytest.approx(
        float(np.vdot(s.amplitudes, dense @ s.amplitudes).real), abs=1e-11
    )


def test_circuit_then_adjoint_returns_input():
    rng = np.random.default_rng(4)
    s = random_state(4, 42)
    start = s.amplitudes.copy()
    gates = []
    for k in range(6):
        tgts = list(rng.choice(4, size=2, replace=False))
        U = random_unitary(4, seed=k)
        gates.append((U, tgts))
        apply_matrix_gate(s, U, tgts)
    for U, tgts in reversed(gates):
        apply_matrix_gate(s, U.conj().T, tgts)
    assert np.max(np.abs(s.amplitudes - start)) < 1e-10


# ------------------------------------------------------------- subspace

# The signed product of all loop stabilizers equals the physical parity
# operator with forced eigenvalue +1, so only even occupations survive and
# the joint eigenspace has dimension 2^(N-1).
FROZEN_DIMS = {(2, 2): 8, (2, 4): 128, (3, 3): 256}


@pytest.mark.parametrize("shape", sorted(FROZEN_DIMS))
def test_constrained_basis_dimension(shape):
    spec = LatticeSpec(*shape)
    cs = constraint_set(spec)
    basis = cached_basis(spec, cs)
    assert basis.dim == FROZEN_DIMS[shape]
    assert basis.dim == 2 ** (spec.n_sites - 1)
    assert basis.dim == symplectic_dimension(cs)


def test_basis_orthonormal_and_stabilized_dense_2x2():
    spec = LatticeSpec(2, 2)
    cs = constraint_set(spec)
    basis = cached_basis(spec, cs)
    B = np.column_stack([basis.column_state(j).amplitudes for j in range(basis.dim)])
    assert np.max(np.abs(B.conj().T @ B - np.eye(basis.dim))) < 1e-12
    for s, t in cs:
        assert np.max(np.abs(pauli_matrix(s) @ B - t * B)) < 1e-12


@pytest.mark.parametrize("shape", sorted(FROZEN_DIMS))
def test_every_column_satisfies_every_stabilizer(shape):
    spec = LatticeSpec(*shape)
    cs = constraint_set(spec)
    basis = cached_basis(spec, cs)
    labels = basis.labels.astype(np.uint64)
    cols = np.repeat(np.arange(basis.dim), np.diff(basis.col_ptr))
    for s, t in cs:
        flip, sign, yc = s.masks()
        par = np.bitwise_count(labels & np.uint64(sign)).astype(np.int64) & 1
        coeff = s.phase * 1j**yc * np.where(par, -1.0, 1.0) * basis.amps
        dest = (labels ^ np.uint64(flip)).astype(np.int64)
        pos = np.searchsorted(basis.sorted_labels, dest)
        assert np.all(basis.sorted_labels[pos] == dest)
        assert np.array_equal(basis.sorted_cols[pos], cols)  # same column
        assert np.max(np.abs(basis.sorted_amps[pos] * t - coeff)) < 1e-12


def test_columns_have_definite_occupation():
    for shape in ((2, 2), (2, 4)):
        spec = LatticeSpec(*shape)
        basis = cached_basis(spec, constraint_set(spec))
        N = number_sum(spec)
        for j in range(basis.dim):
            v = basis.column_state(j)
            assert expval(v, N) == pytest.approx(float(basis.phys_occ[j]), abs=1e-10)


def test_occupation_sector_counts_are_binomial_even():
    from math import comb

    for shape in ((2, 2), (2, 4), (3, 3)):
        spec = LatticeSpec(*shape)
        basis = cached_basis(spec, constraint_set(spec))
        N = spec.n_sites
        assert basis.occ_counts == {k: comb(N, k) for k in range(0, N + 1, 2)}


def test_inconsistent_targets_raise():
    from f2q.pauli import ConstraintSet

    s = PauliString(2, {0: Z})
    cs = ConstraintSet(2, ((s, 1), (s, -1)))
    with pytest.raises(ValueError):
        constrained_basis(LatticeSpec(2, 2), cs)


def test_subspace_register_guard():
    spec = LatticeSpec(4, 4)
    with pytest.raises(ValueError):
        constrained_basis(spec, constraint_set(spec))


def test_cached_basis_identity():
    spec = LatticeSpec(2, 2)
    cs = constraint_set(spec)
    assert cached_basis(spec, cs) is cached_basis(spec, cs)


def test_restrict_sum_matches_dense_2x2():
    spec = LatticeSpec(2, 2)
    cs = constraint_set(spec)
    basis = cached_basis(spec, cs)
    H = tv_hamiltonian(spec, t=1.0, V=2.0, potentials={Site(1, 1): 0.5})
    B = np.column_stack([basis.column_state(j).amplitudes for j in range(basis.dim)])
    dense = B.conj().T @ pauli_sum_matrix(H) @ B
    assert np.max(np.abs(restrict_sum(basis, H) - dense)) < 1e-11
    cols = np.array([1, 3, 4, 7])
    assert np.max(np.abs(restrict_sum(basis, H, cols) - dense[np.ix_(cols, cols)])) < 1e-11


# ------------------------------------------------------------- sector solve

def classical_min_interaction(spec, n_f, V):
    """Enumerate placements; energy = V * number of occupied edges (multiset)."""
    from itertools import combinations

    from f2q.lattice import edge_sites, edges, site_index

    best = None
    for occ in combinations(range(spec.n_sites), n_f):
        chosen = set(occ)
        count = 0
        for e in edges(spec):
            r, s = edge_sites(spec, e)
            if site_index(spec, r) in chosen and site_index(spec, s) in chosen:
                count += 1
        best = count if best is None else min(best, count)
    return V * best


def test_ground_t0_matches_classical_enumeration():
    spec = LatticeSpec(2, 2)
    cs = constraint_set(spec)
    V = 1.0
    for n_f in (2, 4):
        H = tv_hamiltonian(spec, t=0.0, V=V)
        e, _ = ground_in_sector(H, spec, cs, n_f)
        assert e == pytest.approx(classical_min_interaction(spec, n_f, V), abs=1e-10)


def test_odd_occupation_sectors_are_absent():
    spec = LatticeSpec(2, 2)
    cs = constraint_set(spec)
    with pytest.raises(ValueError):
        ground_in_sector(tv_hamiltonian(spec, 1.0, 0.0), spec, cs, 1)


def test_ground_vacuum_sector_energy_zero():
    spec = LatticeSpec(2, 2)
    cs = constraint_set(spec)
    H = tv_hamiltonian(spec, t=0.8, V=2.0)
    e, v = ground_in_sector(H, spec, cs, 0)
    assert e == pytest.approx(0.0, abs=1e-10)
    assert expval(v, number_sum(spec)) == pytest.approx(0.0, abs=1e-10)


def test_ground_state_satisfies_constraints_and_number():
    spec = LatticeSpec(2, 2)
    cs = constraint_set(spec)
    H = tv_hamiltonian(spec, t=1.0, V=2.0)
    e, v = ground_in_sector(H, spec, cs, 2)
    for s, t in cs:
        w = v.copy()
        apply_pauli(w, s)
        assert np.max(np.abs(w.amplitudes - t * v.amplitudes)) < 1e-10
    assert expval(v, number_sum(spec)) == pytest.approx(2.0, abs=1e-10)
    assert e == pytest.approx(expval(v, H), abs=1e-10)


def test_ground_matches_dense_subspace_eigh():
    spec = LatticeSpec(2, 2)
    cs = constraint_set(spec)
    basis = cached_basis(spec, cs)
    H = tv_hamiltonian(spec, t=1.0, V=2.0)
    cols = np.flatnonzero(basis.phys_occ == 2)
    dense = restrict_sum(basis, H, cols)
    expect = float(np.linalg.eigh(dense)[0][0])
    e, _ = ground_in_sector(H, spec, cs, 2)
    assert e == pytest.approx(expect, abs=1e-10)


def test_ground_empty_sector_raises():
    spec = LatticeSpec(2, 2)
    cs = constraint_set(spec)
    with pytest.raises(ValueError):
        ground_in_sector(tv_hamiltonian(spec, 1.0, 0.0), spec, cs, 9)
