import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f2q import oracle, statevec
from f2q.lattice import InputError, LatticeSpec, ScientificFailure, Site
from f2q.pauli import (
    I,
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
    apply_matrix_gate,
    cached_basis,
    cached_sector,
    constrained_basis,
    expval,
    expval_string,
    ground_in_sector,
    restrict_sum,
    zero_state,
)

from dense_oracle import (
    column_state,
    commutes,
    dense_restriction,
    embed_gate,
    from_dense,
    pauli_apply,
    pauli_matrix,
    pauli_sum_matrix,
    project,
    qubit_marginals,
    symplectic_dimension,
    to_dense,
)

H_GATE = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
X_GATE = np.array([[0, 1], [1, 0]], dtype=np.complex128)


def random_state(n, seed=0):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    amps /= np.linalg.norm(amps)
    return from_dense(amps, n)


def random_unitary(dim, seed=0):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ------------------------------------------------------------- basic kernels

def test_zero_state_basics():
    s = zero_state(8)
    assert to_dense(s).size == 256  # 2x2 register
    assert np.linalg.norm(s.amps) == pytest.approx(1.0)
    for q in range(8):
        zq = PauliSum(8, [(1.0, PauliString(8, {q: Z}))])
        assert expval(s, zq) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        zero_state(63)  # beyond int64 labels


def test_gate_output_beyond_support_guard_raises(monkeypatch):
    monkeypatch.setattr(statevec, "MAX_QUBITS", 2)  # at most 4 labels
    s = zero_state(30)
    apply_matrix_gate(s, H_GATE, [29])
    apply_matrix_gate(s, H_GATE, [0])
    assert s.labels.size == 4
    with pytest.raises(ValueError):
        apply_matrix_gate(s, H_GATE, [15])  # would hold 8 labels


def test_apply_x_twice_is_identity():
    s = zero_state(3)
    apply_matrix_gate(s, X_GATE, [1])
    apply_matrix_gate(s, X_GATE, [1])
    assert abs(to_dense(s)[0] - 1.0) < 1e-14


def test_hadamard_on_zero():
    s = zero_state(1)
    apply_matrix_gate(s, H_GATE, [0])
    assert np.allclose(to_dense(s), [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_gate_errors():
    s = zero_state(2)
    with pytest.raises(ValueError):
        apply_matrix_gate(s, np.eye(4), [0, 0])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_random_two_qubit_gate_preserves_norm(seed):
    s = random_state(3, seed)
    apply_matrix_gate(s, random_unitary(4, seed), [2, 0])
    assert abs(np.linalg.norm(s.amps) - 1.0) < 1e-12


def test_matrix_gate_matches_dense_embedding():
    # targets[0] is the most significant local bit
    for targets in ([2, 0], [0, 2], [1], [0, 1, 2]):
        U = random_unitary(1 << len(targets), seed=len(targets) + 10 * targets[0])
        s = random_state(3, seed=5)
        expect = embed_gate(U, targets, 3) @ to_dense(s)
        apply_matrix_gate(s, U, targets)
        assert np.max(np.abs(to_dense(s) - expect)) < 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_random_gate_on_sparse_support_matches_dense_embedding(data):
    # a random unitary on 1..4 unsorted targets, applied to a state on a
    # drawn support of 1..64 labels, against the dense embedding of U
    n = data.draw(st.integers(1, 7))
    k = data.draw(st.integers(1, min(4, n)))
    targets = data.draw(st.permutations(range(n)))[:k]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    U = random_unitary(1 << k, seed=int(rng.integers(2**31)))
    labels = np.sort(rng.choice(1 << n, size=data.draw(st.integers(1, min(64, 1 << n))),
                                replace=False))
    amps = rng.normal(size=labels.size) + 1j * rng.normal(size=labels.size)
    amps /= np.linalg.norm(amps)
    s = statevec.StateVector(labels, amps, n)
    expect = embed_gate(U, targets, n) @ to_dense(s)
    apply_matrix_gate(s, U, targets)
    assert s.dropped <= 1e-12
    assert np.max(np.abs(to_dense(s) - expect)) < 1e-12


def test_diagonal_gate_matches_dense_embedding():
    rng = np.random.default_rng(8)
    for targets in ([2, 0], [0, 2], [1], [3, 0, 2], [1, 3, 0, 2]):
        U = np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, 1 << len(targets))))
        s = random_state(4, seed=len(targets))
        expect = embed_gate(U, targets, 4) @ to_dense(s)
        held, before = s.amps, s.amps.copy()
        apply_matrix_gate(s, U, targets)
        assert np.max(np.abs(to_dense(s) - expect)) < 1e-12
        assert np.array_equal(held, before)  # the old array is replaced, not overwritten


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
    assert abs(to_dense(s)[0b11] - 1.0) < 1e-14


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(0, 3), min_size=3, max_size=3),
    st.integers(0, 3),
    st.integers(0, 2**31 - 1),
)
def test_apply_pauli_matches_dense(letters, phase_k, seed):
    # pauli_apply, the tests' oracle for P|psi>, against the Kronecker product
    p = PauliString(3, bytes(letters), phase_k)
    psi = to_dense(random_state(3, seed))
    assert np.max(np.abs(pauli_apply(p, psi) - pauli_matrix(p) @ psi)) < 1e-12


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
        float(np.vdot(to_dense(s), dense @ to_dense(s)).real), abs=1e-11
    )


def test_circuit_then_adjoint_returns_input():
    rng = np.random.default_rng(4)
    s = random_state(4, 42)
    start = to_dense(s).copy()
    gates = []
    for k in range(6):
        tgts = list(rng.choice(4, size=2, replace=False))
        U = random_unitary(4, seed=k)
        gates.append((U, tgts))
        apply_matrix_gate(s, U, tgts)
    for U, tgts in reversed(gates):
        apply_matrix_gate(s, U.conj().T, tgts)
    assert np.max(np.abs(to_dense(s) - start)) < 1e-10


# ------------------------------------------------------------- subspace

# The signed product of all loop stabilizers equals the physical parity
# operator with forced eigenvalue +1, so only even occupations survive and
# the joint eigenspace has dimension 2^(N-1).
FROZEN_DIMS = {(2, 2): 8, (2, 4): 128, (3, 3): 256, (4, 2): 128}


@pytest.mark.parametrize("shape", sorted(FROZEN_DIMS))
def test_constrained_basis_dimension(shape):
    spec = LatticeSpec(*shape)
    cs = constraint_set(spec)
    basis = cached_basis(spec, cs)
    assert basis.dim == FROZEN_DIMS[shape]
    assert basis.dim == 2 ** (spec.n_sites - 1)
    assert basis.dim == symplectic_dimension(cs)


def test_project_and_expand_match_dense_basis_2x2():
    # a full-support state has weight outside the subspace; project ignores it
    basis = cached_basis(LatticeSpec(2, 2), constraint_set(LatticeSpec(2, 2)))
    B = np.column_stack([to_dense(column_state(basis, j)) for j in range(basis.dim)])
    s = random_state(8, seed=6)
    assert np.max(np.abs(project(basis, s) - B.conj().T @ to_dense(s))) < 1e-14
    coeffs = np.zeros(basis.dim, dtype=complex)
    coeffs[[1, 4]] = [0.6, 0.8j]
    v = basis.expand(coeffs)
    assert np.max(np.abs(to_dense(v) - B @ coeffs)) < 1e-14
    assert v.labels.size == np.count_nonzero(B[:, [1, 4]])


def test_basis_orthonormal_and_stabilized_dense_2x2():
    spec = LatticeSpec(2, 2)
    cs = constraint_set(spec)
    basis = cached_basis(spec, cs)
    B = np.column_stack([to_dense(column_state(basis, j)) for j in range(basis.dim)])
    assert np.max(np.abs(B.conj().T @ B - np.eye(basis.dim))) < 1e-12
    for s, t in cs:
        assert np.max(np.abs(pauli_matrix(s) @ B - t * B)) < 1e-12


def assert_columns_stabilized(basis, cs):
    """Every column is a +1 eigenvector of each t*S, checked label by label."""
    assert np.all(np.diff(basis.labels) > 0)  # one ascending table, each label once
    labels = basis.labels.astype(np.uint64)
    for s, t in cs:
        flip, sign, yc = s.masks()
        par = np.bitwise_count(labels & np.uint64(sign)).astype(np.int64) & 1
        coeff = s.phase * 1j**yc * np.where(par, -1.0, 1.0) * basis.amps
        dest = (labels ^ np.uint64(flip)).astype(np.int64)
        pos = np.minimum(np.searchsorted(basis.labels, dest), basis.labels.size - 1)
        assert np.all(basis.labels[pos] == dest)
        assert np.array_equal(basis.cols[pos], basis.cols)  # same column
        assert np.max(np.abs(basis.amps[pos] * t - coeff)) < 1e-12


@pytest.mark.parametrize("shape", sorted(FROZEN_DIMS))
def test_every_column_satisfies_every_stabilizer(shape):
    spec = LatticeSpec(*shape)
    cs = constraint_set(spec)
    assert_columns_stabilized(cached_basis(spec, cs), cs)


@pytest.mark.parametrize("n_f,dim", [(2, 120), (4, 1820)])
def test_4x4_sector_columns_satisfy_every_stabilizer(n_f, dim):
    spec = LatticeSpec(4, 4)
    cs = constraint_set(spec)
    sector = cached_sector(spec, cs, n_f)
    assert sector.dim == dim and np.all(sector.phys_occ == n_f)
    assert_columns_stabilized(sector, cs)


@pytest.mark.parametrize("shape", sorted(FROZEN_DIMS))
def test_sector_bases_are_the_merged_columns(shape):
    spec = LatticeSpec(*shape)
    cs = constraint_set(spec)
    merged = cached_basis(spec, cs)
    for n_f in range(spec.n_sites + 1):
        sector = cached_sector(spec, cs, n_f)
        sel = np.flatnonzero(merged.phys_occ == n_f)
        mine = np.isin(merged.cols, sel)
        assert sector.dim == sel.size
        assert np.array_equal(sector.reps, merged.reps[sel])
        assert np.array_equal(sector.occ_masks, merged.occ_masks[sel])
        assert np.array_equal(sector.labels, merged.labels[mine])
        assert np.array_equal(sector.cols, np.searchsorted(sel, merged.cols[mine]))
        assert sector.amps.tobytes() == merged.amps[mine].tobytes()


@pytest.mark.parametrize("shape", sorted(FROZEN_DIMS))
def test_columns_ordered_by_smallest_label(shape):
    spec = LatticeSpec(*shape)
    basis = constrained_basis(spec, constraint_set(spec))
    smallest = np.full(basis.dim, np.iinfo(np.int64).max)
    np.minimum.at(smallest, basis.cols, basis.labels)
    assert np.all(np.diff(smallest) > 0)


def test_columns_have_definite_occupation():
    for shape in ((2, 2), (2, 4)):
        spec = LatticeSpec(*shape)
        basis = cached_basis(spec, constraint_set(spec))
        N = number_sum(spec)
        for j in range(basis.dim):
            v = column_state(basis, j)
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


def test_anticommuting_term_restricts_to_zero_2x2():
    spec = LatticeSpec(2, 2)
    cs = constraint_set(spec)
    basis = cached_basis(spec, cs)
    B = np.column_stack([to_dense(column_state(basis, j)) for j in range(basis.dim)])
    z_aux = PauliString(8, {4: Z})  # Z on an auxiliary qubit that Gauss strings flip
    assert not all(commutes(z_aux, s) for s, _ in cs)
    assert np.max(np.abs(B.conj().T @ pauli_matrix(z_aux) @ B)) < 1e-12
    assert not np.any(restrict_sum(basis, PauliSum(8, [(0.7, z_aux)])))
    H = tv_hamiltonian(spec, t=1.0, V=2.0)
    mixed = PauliSum(8, list(H) + [(0.7, z_aux)])
    assert np.array_equal(restrict_sum(basis, mixed), restrict_sum(basis, H))
    assert np.max(np.abs(restrict_sum(basis, mixed) - B.conj().T @ pauli_sum_matrix(mixed) @ B)) < 1e-11


def test_restrict_between_sectors_matches_dense_2x2():
    spec = LatticeSpec(2, 2)
    cs = constraint_set(spec)
    T = PauliSum(8, [(1, PauliString(8, {0: X, 1: X, 5: Z}))])  # the pairing string of edge (0,0),x
    for n_src, n_dest in ((0, 2), (2, 4), (2, 2), (4, 2)):
        src, dest = cached_sector(spec, cs, n_src), cached_sector(spec, cs, n_dest)
        Bs = np.column_stack([to_dense(column_state(src, j)) for j in range(src.dim)])
        Bd = np.column_stack([to_dense(column_state(dest, j)) for j in range(dest.dim)])
        want = Bd.conj().T @ pauli_sum_matrix(T) @ Bs
        assert np.max(np.abs(dense_restriction(dest, src, T) - want)) < 1e-12


def test_restrict_sum_matches_dense_2x2():
    spec = LatticeSpec(2, 2)
    cs = constraint_set(spec)
    basis = cached_basis(spec, cs)
    H = tv_hamiltonian(spec, t=1.0, V=2.0, potentials={Site(1, 1): 0.5})
    B = np.column_stack([to_dense(column_state(basis, j)) for j in range(basis.dim)])
    dense = B.conj().T @ pauli_sum_matrix(H) @ B
    assert np.max(np.abs(restrict_sum(basis, H) - dense)) < 1e-11
    cols = np.array([1, 3, 4, 7])
    assert np.max(np.abs(restrict_sum(basis, H, cols) - dense[np.ix_(cols, cols)])) < 1e-11


def colliding_sums(n, masks):
    """1-8 (coefficient, string) terms whose flip masks come from `masks`.

    Each string has X or Y on the flipped qubits and I or Z elsewhere, so
    terms share flip masks (XX/YY/XY/YX pairs, Z-only strings) while their
    sign masks and Y counts differ.
    """
    def string(mask, picks, phase_k):
        letters = [(Y if pick else X) if mask >> q & 1 else (Z if pick else I)
                   for q, pick in enumerate(picks)]
        return PauliString(n, letters, phase_k)

    term = st.tuples(
        st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
        st.builds(string, st.sampled_from(masks),
                  st.lists(st.booleans(), min_size=n, max_size=n), st.integers(0, 3)),
    )
    return st.lists(term, min_size=1, max_size=8)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(colliding_sums(5, (0, 0b00011, 0b01110, 0b10011)), st.integers(0, 2**31 - 1))
def test_sums_sharing_flip_masks_match_dense(terms, seed):
    s = random_state(5, seed)
    psi = to_dense(s)
    dense = pauli_sum_matrix(PauliSum(5, terms))
    want = np.vdot(psi, dense @ psi)
    hermitian_part = PauliSum(5, [(c.real, p) for c, p in PauliSum(5, terms)])
    assert abs(expval(s, hermitian_part) - want.real) < 1e-10
    assert abs(sum(c * expval_string(s, p) for c, p in terms) - want) < 1e-10
    applied = sum(c * pauli_apply(p, psi) for c, p in terms)
    assert np.max(np.abs(applied - dense @ psi)) < 1e-10


# the four smallest flip masks of the 2x2 Hamiltonian terms (0: its Z-only terms)
MASKS_2X2 = tuple(sorted({p.masks()[0] for _, p in tv_hamiltonian(LatticeSpec(2, 2), 1.0, 1.0)})[:4])


@settings(derandomize=True, max_examples=40, deadline=None)
@given(colliding_sums(8, MASKS_2X2))
def test_restrict_between_sharing_flip_masks_matches_dense_2x2(terms):
    # random complex sums: restrict_sum takes Hamiltonians only, so this
    # scatters restrict_between's entries
    spec = LatticeSpec(2, 2)
    basis = cached_basis(spec, constraint_set(spec))
    H = PauliSum(8, terms)
    B = np.column_stack([to_dense(column_state(basis, j)) for j in range(basis.dim)])
    dense = B.conj().T @ pauli_sum_matrix(H) @ B
    mat = dense_restriction(basis, basis, H)
    assert np.max(np.abs(mat - dense)) < 1e-11
    cols = np.array([0, 2, 5, 6])
    assert np.max(np.abs(mat[np.ix_(cols, cols)] - dense[np.ix_(cols, cols)])) < 1e-11


@pytest.mark.parametrize("shape,rho,n_f", [((2, 2), 1, 2), ((2, 4), -1, 2), ((3, 3), 1, 3)])
def test_restrict_sum_is_real(shape, rho, n_f):
    spec = LatticeSpec(*shape, rho)
    sector = cached_sector(spec, constraint_set(spec), n_f)
    H = tv_hamiltonian(spec, 1.3, 0.7, {Site(0, 0): -0.4, Site(1, 1): 0.9})
    mat = restrict_sum(sector, H)
    assert mat.dtype == np.float64 and mat.flags.c_contiguous
    assert mat.shape == (sector.dim, sector.dim)
    assert np.array_equal(mat, dense_restriction(sector, sector, H).real)
    cols = np.arange(0, sector.dim, 2)
    sub = restrict_sum(sector, H, cols)
    assert sub.dtype == np.float64 and np.array_equal(sub, mat[np.ix_(cols, cols)])


def test_restrict_sum_rejects_an_imaginary_restriction():
    spec = LatticeSpec(2, 2)
    sector = cached_sector(spec, constraint_set(spec), 2)
    z_phys = PauliString(8, {0: Z})  # commutes with every constraint: diagonal +-0.3j
    with pytest.raises(ScientificFailure, match="imaginary part"):
        restrict_sum(sector, PauliSum(8, [(0.3j, z_phys)]))
    with pytest.raises(ScientificFailure, match="imaginary part"):
        restrict_sum(sector, PauliSum(8, list(tv_hamiltonian(spec, 1.0, 1.0)) + [(0.3j, z_phys)]))


def test_restrict_sum_rejects_an_empty_sector():
    spec = LatticeSpec(3, 3, 1)  # rho = +1 fixes an odd occupation
    sector = cached_sector(spec, constraint_set(spec), 2)
    assert sector.dim == 0
    with pytest.raises(InputError) as info:
        restrict_sum(sector, tv_hamiltonian(spec, 1.0, 1.0))
    assert str(info.value) == "no constrained basis vectors with the requested particle number"

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
        psi = to_dense(v)
        assert np.max(np.abs(pauli_apply(s, psi) - t * psi)) < 1e-10
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


def test_4x4_sector_spectrum_matches_ed(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_SITES", 16)
    spec = LatticeSpec(4, 4)
    sector = cached_sector(spec, constraint_set(spec), 2)
    for V in (0.0, 3.0):
        enc = np.linalg.eigvalsh(restrict_sum(sector, tv_hamiltonian(spec, 1.0, V)))
        matches = oracle.bc_sector_search(spec, 1.0, V, {2: enc})[0]
        assert matches
        for bc in matches:
            ref = oracle.ed_spectrum(spec, 1.0, V, None, bc, 2).eigenvalues
            assert np.max(np.abs(ref - enc)) < 1e-8
