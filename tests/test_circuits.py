"""Circuit constructions against dense matrix-exponential oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from dense_oracle import embed_gate, pauli_matrix, pauli_sum_matrix
from f2q import circuits as C
from f2q import pauli as P
from f2q.lattice import (
    LatticeSpec,
    Site,
    aux_index,
    edge_sites,
    edges,
    phys_index,
    sites,
)
from f2q.statevec import StateVector, constrained_basis, expval, expval_string, zero_state

RNG = np.random.default_rng(20260813)


def lat(Lx, Ly, rho=0):
    return LatticeSpec(Lx, Ly, rho)


def dense_circuit(c):
    return C.circuit_unitary(c)


def constraint_items(spec):
    return list(P.constraint_set(spec))


def random_constrained_state(spec, seed=7):
    basis = constrained_basis(spec, P.constraint_set(spec))
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    coeffs /= np.linalg.norm(coeffs)
    return basis.expand(coeffs)


# ---------------------------------------------------------------- IR basics

def test_gate_validation():
    with pytest.raises(ValueError):
        C.Gate("cnot", (0,))
    with pytest.raises(ValueError):
        C.Gate("cnot", (1, 1))
    with pytest.raises(ValueError):
        C.Gate("nope", (0,))
    with pytest.raises(ValueError):
        C.Gate("rz", (0,))  # missing angle
    with pytest.raises(ValueError):
        C.Gate("matrix", (0,), matrix=np.array([[1, 1], [0, 1]], dtype=complex))
    with pytest.raises(ValueError):
        C.Gate("x", (0,), matrix=np.eye(2, dtype=complex))


def test_circuit_add_checks_register():
    c = C.Circuit(2)
    with pytest.raises(ValueError):
        c.add(C.Gate("x", (2,)))
    c.add(C.Gate("x", (1,)))
    assert len(c) == 1


def test_fixed_gate_matrices():
    h = 1 / math.sqrt(2)
    assert np.array_equal(
        C.gate_unitary(C.Gate("cnot", (0, 1))),
        np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    )
    rz = C.gate_unitary(C.Gate("rz", (0,), params=(0.8,)))
    assert abs(rz[0, 0] - np.exp(-0.4j)) < 1e-15 and abs(rz[1, 1] - np.exp(0.4j)) < 1e-15
    ch = C.gate_unitary(C.Gate("ch", (0, 1)))
    assert abs(ch[2, 2] - h) < 1e-15 and abs(ch[3, 3] + h) < 1e-15
    ccz = C.gate_unitary(C.Gate("ccz", (0, 1, 2)))
    assert np.array_equal(np.diag(ccz), np.array([1, 1, 1, 1, 1, 1, 1, -1], dtype=complex))
    cp = C.gate_unitary(C.Gate("cphase", (0, 1), params=(0.3,)))
    assert abs(cp[3, 3] - np.exp(0.3j)) < 1e-15


def test_rotation_exponentials():
    for kind, letter in (("rx", P.X), ("ry", P.Y), ("rz", P.Z)):
        a = 0.71
        got = C.gate_unitary(C.Gate(kind, (0,), params=(a,)))
        want = expm(-0.5j * a * pauli_matrix(P.PauliString(1, {0: letter})))
        assert np.max(np.abs(got - want)) < 1e-14


def test_apply_and_unitary_match_embedding_oracle():
    n = 4
    gates = [
        C.Gate("h", (2,)),
        C.Gate("cnot", (3, 1)),
        C.Gate("ry", (0,), params=(0.3,)),
        C.Gate("matrix", (1, 3), matrix=C.a_gate_unitary(0.4, -0.9), two_qubit_cost=3),
        C.Gate("ccz", (0, 2, 3)),
        C.Gate("cphase", (2, 0), params=(-1.1,)),
    ]
    c = C.Circuit(n)
    for g in gates:
        c.add(g)
    want = np.eye(16, dtype=complex)
    for g in gates:
        want = embed_gate(C.gate_unitary(g), g.targets, n) @ want
    assert np.max(np.abs(dense_circuit(c) - want)) < 1e-13

    rng = np.random.default_rng(3)
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    amps /= np.linalg.norm(amps)
    sv = StateVector(amps.copy(), n)
    C.apply_circuit(sv, c)
    assert np.max(np.abs(sv.amplitudes - want @ amps)) < 1e-13


def test_restrict_circuit_remaps():
    spec = lat(2, 2)
    e = [e for e in edges(spec) if e.direction == "x"][0]
    block = C.hop_x_evolution(spec, e, 0.31)
    support = sorted({q for g in block for q in g.targets})
    small = C.restrict_circuit(block, support)
    U = dense_circuit(small)
    r, s = edge_sites(spec, e)
    # compare against the generator built on the compressed register
    letters_xx = {support.index(phys_index(spec, r)): P.X,
                  support.index(phys_index(spec, s)): P.X,
                  support.index(aux_index(spec, s)): P.Z}
    letters_yy = {support.index(phys_index(spec, r)): P.Y,
                  support.index(phys_index(spec, s)): P.Y,
                  support.index(aux_index(spec, s)): P.Z}
    G = pauli_matrix(P.PauliString(3, letters_xx)) + pauli_matrix(P.PauliString(3, letters_yy))
    assert np.max(np.abs(U - expm(0.31j * G))) < 1e-12
    with pytest.raises(ValueError):
        C.restrict_circuit(block, support[:-1])


# ---------------------------------------------------------------- W and hops

def test_w_conjugation_identity():
    w = C.w_circuit(2, 0, 1)
    U = dense_circuit(w)
    za_m_zb = pauli_matrix(P.PauliString(2, {0: P.Z})) - pauli_matrix(P.PauliString(2, {1: P.Z}))
    want = pauli_matrix(P.PauliString(2, {0: P.X, 1: P.X})) + pauli_matrix(
        P.PauliString(2, {0: P.Y, 1: P.Y})
    )
    assert np.max(np.abs(U @ za_m_zb @ U - want)) < 1e-12
    assert np.max(np.abs(U - U.conj().T)) < 1e-12
    assert np.max(np.abs(U @ U - np.eye(4))) < 1e-12
    with pytest.raises(ValueError):
        C.w_circuit(2, 1, 1)


def test_zz_rotation_exponential():
    c = C.zz_rotation(2, 0, 1, 0.47)
    want = expm(0.47j * pauli_matrix(P.PauliString(2, {0: P.Z, 1: P.Z})))
    assert np.max(np.abs(dense_circuit(c) - want)) < 1e-13


@pytest.mark.parametrize("qz,qy,qx", [(0, 1, 2), (2, 0, 3), (3, 1, 0)])
def test_zyx_rotation_exponential(qz, qy, qx):
    theta = -0.81
    c = C.zyx_rotation(4, qz, qy, qx, theta)
    want = expm(-1j * theta * pauli_matrix(P.PauliString(4, {qz: P.Z, qy: P.Y, qx: P.X})))
    assert np.max(np.abs(dense_circuit(c) - want)) < 1e-13


@pytest.mark.parametrize("theta", [0.0, 0.37, -1.2])
def test_hop_x_evolution_matches_exponential(theta):
    spec = lat(2, 2)
    for e in (ed for ed in edges(spec) if ed.direction == "x"):
        G = pauli_sum_matrix(P.hopping_terms(spec, e).scaled(2.0))
        U = dense_circuit(C.hop_x_evolution(spec, e, theta))
        assert np.max(np.abs(U - expm(1j * theta * G))) < 1e-12


@pytest.mark.parametrize("theta", [0.0, 0.37, -1.2])
def test_hop_y_evolution_matches_exponential(theta):
    spec = lat(2, 2)
    for e in (ed for ed in edges(spec) if ed.direction == "y"):
        G = pauli_sum_matrix(P.hopping_terms(spec, e).scaled(2.0))
        U = dense_circuit(C.hop_y_evolution(spec, e, theta))
        assert np.max(np.abs(U - expm(1j * theta * G))) < 1e-12


def test_hop_y_gate_budget():
    spec = lat(2, 4)
    e = [ed for ed in edges(spec) if ed.direction == "y"][0]
    c = C.hop_y_evolution(spec, e, 0.3)
    kinds = [g.kind for g in c]
    assert sum(1 for g in c if g.arity == 2) == 12
    assert kinds.count("cnot") == 10 and kinds.count("ch") == 2
    # each exponential factor costs exactly one RZ
    assert kinds.count("rz") == 2


def test_hop_direction_validation():
    spec = lat(2, 2)
    ex = [e for e in edges(spec) if e.direction == "x"][0]
    ey = [e for e in edges(spec) if e.direction == "y"][0]
    with pytest.raises(ValueError):
        C.hop_x_evolution(spec, ey, 0.1)
    with pytest.raises(ValueError):
        C.hop_y_evolution(spec, ex, 0.1)


def test_interaction_evolution_exact_including_phase():
    spec = lat(2, 2)
    n = spec.n_qubits
    for e in edges(spec)[:2]:
        r, s = edge_sites(spec, e)
        pr, ps = phys_index(spec, r), phys_index(spec, s)
        proj = P.PauliSum(
            n,
            [
                (0.25, P.PauliString(n)),
                (-0.25, P.PauliString(n, {pr: P.Z})),
                (-0.25, P.PauliString(n, {ps: P.Z})),
                (0.25, P.PauliString(n, {pr: P.Z, ps: P.Z})),
            ],
        )
        lam = 0.81
        U = dense_circuit(C.interaction_evolution(spec, e, lam))
        # equality with no global-phase slack
        assert np.max(np.abs(U - expm(-1j * lam * pauli_sum_matrix(proj)))) < 1e-12


# ---------------------------------------------------------------- vacuum state

FROZEN_VACUUM_2Q = {(2, 2): 3, (2, 4): 9, (3, 3): 12, (4, 4): 27}


@pytest.mark.parametrize("dims", [(2, 2), (2, 4), (3, 3), (4, 4)])
def test_vacuum_circuit_stabilizer_postcondition(dims):
    spec = lat(*dims)
    cs = P.constraint_set(spec)
    got = C.stabilizer_expectations(C.vacuum_circuit(spec), cs)
    for val, (_, target) in zip(got, cs):
        assert val == target  # Clifford tracking is exact


@pytest.mark.parametrize("dims,count", sorted(FROZEN_VACUUM_2Q.items()))
def test_vacuum_two_qubit_count(dims, count):
    spec = lat(*dims)
    c = C.vacuum_circuit(spec)
    assert sum(1 for g in c if g.arity == 2) == count
    assert count == 3 * (spec.Lx - 1) * (spec.Ly - 1)


def test_vacuum_statevector_cross_check():
    # independent of the Clifford engine: simulate and measure
    spec = lat(2, 2)
    sv = zero_state(spec.n_qubits)
    C.apply_circuit(sv, C.vacuum_circuit(spec))
    for s, target in P.constraint_set(spec):
        assert abs(expval_string(sv, s) - target) < 1e-12


def test_periodicity_circuit_loop_targets():
    # loop stabilizers are the diagonal ones; they must hit their targets
    for dims in [(2, 2), (2, 4), (3, 3), (4, 4)]:
        spec = lat(*dims)
        cs = P.constraint_set(spec)
        got = C.stabilizer_expectations(C.periodicity_circuit(spec), cs)
        for val, (s, target) in zip(got, cs):
            flip, _, _ = s.masks()
            if flip == 0:
                assert val == target


def test_stabilizer_engine_rejects_pauli_breaking_gates():
    spec = lat(2, 2)
    c = C.Circuit(spec.n_qubits)
    c.add(C.Gate("rx", (0,), params=(0.3,)))  # Z0 -> cos Z0 + sin Y0
    with pytest.raises(ValueError):
        C.stabilizer_expectations(c, P.constraint_set(spec))


def test_stabilizer_engine_tracks_commuting_non_clifford_gates():
    # gates that map each tracked Pauli back to a Pauli are fine, Clifford or not
    spec = lat(2, 2)
    e = [ed for ed in edges(spec) if ed.direction == "x"][0]
    c = C.vacuum_circuit(spec)
    c.add(C.vx_gate(spec, e, 0.3, 0.2))
    got = C.stabilizer_expectations(c, P.constraint_set(spec))
    for val, (_, target) in zip(got, P.constraint_set(spec)):
        assert val == target


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_conjugate_string_matches_dense(data):
    n = 3
    kinds1 = ["h", "s", "sdg", "x", "y", "z"]
    kinds2 = ["cnot", "cy", "cz"]  # ch is not Clifford
    c = C.Circuit(n)
    for _ in range(data.draw(st.integers(0, 6))):
        if data.draw(st.booleans()):
            c.add(C.Gate(data.draw(st.sampled_from(kinds1)), (data.draw(st.integers(0, n - 1)),)))
        else:
            a = data.draw(st.integers(0, n - 1))
            b = data.draw(st.integers(0, n - 1).filter(lambda q: q != a))
            c.add(C.Gate(data.draw(st.sampled_from(kinds2)), (a, b)))
    letters = bytes(data.draw(st.integers(0, 3)) for _ in range(n))
    s = P.PauliString(n, letters)
    conj, phase = C.conjugate_string(c, s)
    U = dense_circuit(c)
    want = U.conj().T @ pauli_matrix(s) @ U
    assert np.max(np.abs(want - phase * pauli_matrix(conj))) < 1e-12


def _clifford_matrices():
    h, s = C.FIXED_1Q["h"], C.FIXED_1Q["s"]
    cnot = C.gate_unitary(C.Gate("cnot", (0, 1)))
    swap = np.eye(4)[[0, 2, 1, 3]]
    return [h, s, s @ h], [cnot, C.gate_unitary(C.Gate("cz", (0, 1))), swap @ cnot]


def _check_shared_memo(c, strings):
    """Track every string through one memo; compare each with dense U^dagger S U."""
    U = dense_circuit(c)
    memo = {}
    wants = []
    for s in strings:
        conj, phase = C._conjugate(c, s, memo)
        want = U.conj().T @ pauli_matrix(s) @ U
        assert np.max(np.abs(want - phase * pauli_matrix(conj))) < 1e-12
        wants.append(want[0, 0])
    got = C.stabilizer_expectations(c, [(s, 1) for s in strings])
    assert np.max(np.abs(np.array(got) - np.array(wants))) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_shared_memo_matches_dense_for_every_string(data):
    # The memo must tell apart gates that differ only in angle or matrix:
    # rz/rx at distinct multiples of pi/2 on one qubit, and matrix Cliffords
    # with the same targets but different matrices, all applied twice.
    n = 3
    one, two = _clifford_matrices()
    qubit = st.integers(0, n - 1)
    pair = st.permutations(range(n)).map(lambda o: tuple(o[:2]))
    quarters = st.lists(st.integers(-3, 4), min_size=2, max_size=2, unique=True)
    gates = []
    for kind in ("rz", "rx"):
        q = data.draw(qubit)
        gates += [C.Gate(kind, (q,), params=(k * math.pi / 2,)) for k in data.draw(quarters)]
    for mats, targets in ((one, st.tuples(qubit)), (two, pair)):
        tg = data.draw(targets)
        picks = st.lists(st.sampled_from(range(3)), min_size=2, max_size=2, unique=True)
        gates += [C.Gate("matrix", tg, matrix=mats[i]) for i in data.draw(picks)]
    for _ in range(data.draw(st.integers(0, 4))):
        kind = data.draw(st.sampled_from(["h", "s", "cnot", "cy", "cz"]))
        gates.append(C.Gate(kind, data.draw(pair)[:C.GATE_ARITY[kind]]))
    c = C.Circuit(n, list(data.draw(st.permutations(gates))) * 2)
    letters = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(bytes)
    strings = [P.PauliString(n, w) for w in data.draw(st.lists(letters, min_size=2, max_size=6))]
    _check_shared_memo(c, strings)


def test_shared_memo_keys_on_angle_and_matrix():
    one, _ = _clifford_matrices()
    c = C.Circuit(2)
    c.add(C.Gate("rz", (0,), params=(math.pi / 2,))).add(C.Gate("rz", (0,), params=(math.pi,)))
    c.add(C.Gate("matrix", (1,), matrix=one[0])).add(C.Gate("matrix", (1,), matrix=one[1]))
    strings = [P.PauliString(2, {0: P.X, 1: P.X}), P.PauliString(2, {0: P.Y, 1: P.Z})]
    _check_shared_memo(c, strings)


# ---------------------------------------------------------------- fusion

def random_amplitudes(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return amps / np.linalg.norm(amps)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fuse_preserves_action_property(data):
    n = data.draw(st.integers(3, 6))
    angle = st.floats(-4, 4, allow_nan=False, allow_infinity=False)
    c = C.Circuit(n)
    for _ in range(data.draw(st.integers(0, 14))):
        kind = data.draw(st.sampled_from(sorted(C.GATE_ARITY)))
        order = data.draw(st.permutations(range(n)))  # unsorted target orders
        params = tuple(data.draw(angle) for _ in range(C.GATE_PARAMS.get(kind, 0)))
        c.add(C.Gate(kind, tuple(order[:C.GATE_ARITY[kind]]), params=params))
    fused = C.fuse(c)
    assert all(g.kind == "matrix" and g.arity <= 4 for g in fused)
    assert len(fused) <= len(c)
    amps = random_amplitudes(n, data.draw(st.integers(0, 2**31 - 1)))
    want = C.apply_circuit(StateVector(amps.copy(), n), c).amplitudes
    got = C.apply_circuit(StateVector(amps.copy(), n), fused).amplitudes
    assert np.max(np.abs(got - want)) < 1e-12


def test_fuse_trotter_step_blocks_and_action():
    # 3x3: 9 diagonal interaction pairs, 9 hop_x blocks, 9 hop_y blocks
    step = C.trotter_step(lat(3, 3), 1.0, 3.0, 0.1)
    assert len(step) == 306 and len(C.fuse(step)) == 27
    for dims in [(2, 2), (2, 4), (3, 3)]:
        spec = lat(*dims)
        step = C.trotter_step(spec, 1.0, 3.0, 0.1)
        fused = C.fuse(step)
        amps = random_amplitudes(spec.n_qubits, seed=dims[1])
        want = C.apply_circuit(StateVector(amps.copy(), spec.n_qubits), step).amplitudes
        got = C.apply_circuit(StateVector(amps.copy(), spec.n_qubits), fused).amplitudes
        assert np.max(np.abs(got - want)) < 1e-12


# ---------------------------------------------------------------- pair creation

@pytest.mark.parametrize("dims", [(2, 2), (2, 4), (3, 3)])
def test_pair_creation_preserves_constraints_and_adds_two(dims):
    spec = lat(*dims)
    cs = P.constraint_set(spec)
    for e in edges(spec):
        full = C.vacuum_circuit(spec)
        full.extend(C.pair_creation(spec, e))
        got = C.stabilizer_expectations(full, cs)
        for val, (_, target) in zip(got, cs):
            assert val == target
        occ = 0.0
        for r in sites(spec):
            zs = P.PauliString(spec.n_qubits, {phys_index(spec, r): P.Z})
            conj, ph = C.conjugate_string(full, zs)
            flip, _, _ = conj.masks()
            occ += (1 - (0 if flip else ph).real) / 2
        assert abs(occ - 2.0) < 1e-12


# ---------------------------------------------------------------- trotter step

def test_trotter_step_first_order_error_scaling():
    spec = lat(2, 2)
    H = pauli_sum_matrix(P.tv_hamiltonian(spec, 1.0, 2.0))
    errs = []
    for dt in (0.1, 0.05):
        U = dense_circuit(C.trotter_step(spec, 1.0, 2.0, dt))
        W = expm(-1j * dt * H)
        # compare up to the identity-term global phase of the interaction
        phase = np.vdot(U.reshape(-1), W.reshape(-1))
        phase /= abs(phase)
        errs.append(np.max(np.abs(U * phase - W)))
    assert errs[0] / errs[1] > 3.0  # local error is O(dt^2)


def test_trotter_preserves_constraints_and_number():
    spec = lat(2, 4)
    state = random_constrained_state(spec)
    number = P.number_sum(spec)
    n0 = expval(state, number)
    c = C.trotter_step(spec, 1.0, 3.0, 0.07)
    C.apply_circuit(state, c)
    for s, target in P.constraint_set(spec):
        assert abs(expval_string(state, s) - target) < 1e-12
    assert abs(expval(state, number) - n0) < 1e-12


def test_trotter_blocks_partition_the_step():
    spec = lat(2, 4)
    blocks = C.trotter_blocks(spec, 1.0, 3.0, 0.05)
    kinds = [k for k, _, _ in blocks]
    n_edges = len(edges(spec))
    assert kinds.count("interaction") == n_edges
    assert kinds.count("hop_x") == n_edges // 2
    assert kinds.count("hop_y") == n_edges // 2
    glued = C.Circuit(spec.n_qubits)
    for _, _, b in blocks:
        glued.extend(b)
    assert glued == C.trotter_step(spec, 1.0, 3.0, 0.05)
    # interaction slices come first, then x hops, then y hops
    first_x = kinds.index("hop_x")
    assert all(k == "interaction" for k in kinds[:first_x])
    assert kinds.index("hop_y") > first_x


FROZEN_TROTTER_DEPTH = 44


def test_trotter_depth_constant_even_lattices():
    depths = {}
    for L in (4, 6):
        spec = lat(L, L)
        rep = C.schedule(C.trotter_step(spec, 1.0, 3.0, 0.05))
        depths[L] = rep.two_qubit_depth
        assert rep.counts_by_arity[2] == 24 * L * L
    assert depths[4] == depths[6] == FROZEN_TROTTER_DEPTH


# ---------------------------------------------------------------- variational gates

def test_vx_unitary_structure():
    U = C.vx_unitary(0.0, 0.4)
    assert np.max(np.abs(U - np.diag(np.repeat([1, 1, -1, 1], 2)))) < 1e-15
    U = C.vx_unitary(0.31, -0.7)
    assert np.max(np.abs(U - U.conj().T)) < 1e-14
    assert np.max(np.abs(U @ U - np.eye(8))) < 1e-14


def test_vy_unitary_structure():
    U = C.vy_unitary(0.0, 0.4)
    want = np.diag(np.concatenate([np.ones(4), np.ones(4), -np.ones(4), np.ones(4)]))
    assert np.max(np.abs(U - want)) < 1e-15
    U = C.vy_unitary(0.31, -0.7)
    assert np.max(np.abs(U - U.conj().T)) < 1e-14
    assert np.max(np.abs(U @ U - np.eye(16))) < 1e-14


@pytest.mark.parametrize("theta,phi", [(0.41, 1.13), (-0.9, 0.0), (0.2, -2.4)])
def test_vx_native_decomposition_matches(theta, phi):
    spec = lat(2, 2)
    e = [ed for ed in edges(spec) if ed.direction == "x"][0]
    cc = C.Circuit(spec.n_qubits)
    cc.add(C.vx_gate(spec, e, theta, phi))
    assert np.max(np.abs(dense_circuit(C.vx_native(spec, e, theta, phi)) - dense_circuit(cc))) < 1e-12


@pytest.mark.parametrize("theta,phi", [(0.41, 1.13), (-0.9, 0.0), (0.2, -2.4)])
def test_vy_native_decomposition_matches(theta, phi):
    spec = lat(2, 2)
    e = [ed for ed in edges(spec) if ed.direction == "y"][0]
    cc = C.Circuit(spec.n_qubits)
    cc.add(C.vy_gate(spec, e, theta, phi))
    assert np.max(np.abs(dense_circuit(C.vy_native(spec, e, theta, phi)) - dense_circuit(cc))) < 1e-12


def test_variational_gates_commute_with_constraints():
    spec = lat(2, 4)
    ex = [e for e in edges(spec) if e.direction == "x"][1]
    ey = [e for e in edges(spec) if e.direction == "y"][2]
    for gate in (C.vx_gate(spec, ex, 0.37, 0.9), C.vy_gate(spec, ey, 0.37, 0.9)):
        U = gate.matrix
        k = len(gate.targets)
        for s, _ in P.constraint_set(spec):
            # targets[0] is the MSB of the gate matrix
            letters = {k - 1 - i: s.letters[q] for i, q in enumerate(gate.targets)}
            Sloc = pauli_matrix(P.PauliString(k, letters))
            assert np.max(np.abs(U @ Sloc - Sloc @ U)) < 1e-12


def test_variational_gates_conserve_number():
    # block-diagonal in total physical occupation
    spec = lat(2, 2)
    ex = [e for e in edges(spec) if e.direction == "x"][0]
    ey = [e for e in edges(spec) if e.direction == "y"][0]
    for gate, n_phys in ((C.vx_gate(spec, ex, 0.3, 0.4), 2), (C.vy_gate(spec, ey, 0.3, 0.4), 2)):
        k = len(gate.targets)
        # the physical pair sits at target positions 0 and 1, i.e. the top bits
        num = sum(
            pauli_matrix(P.PauliString(k, {k - 1 - i: P.Z})) for i in range(n_phys)
        )
        assert np.max(np.abs(gate.matrix @ num - num @ gate.matrix)) < 1e-12


def test_declared_two_qubit_costs():
    spec = lat(2, 2)
    ex = [e for e in edges(spec) if e.direction == "x"][0]
    ey = [e for e in edges(spec) if e.direction == "y"][0]
    assert C.vx_gate(spec, ex, 0.1, 0.2).two_qubit_cost == 5
    assert C.vy_gate(spec, ey, 0.1, 0.2).two_qubit_cost == 7
    # the declared costs equal the native decomposition totals
    nx = C.vx_native(spec, ex, 0.1, 0.2)
    assert sum(g.two_qubit_cost or 1 for g in nx if g.arity >= 2) == 5
    ny = C.vy_native(spec, ey, 0.1, 0.2)
    assert sum(g.two_qubit_cost or 1 for g in ny if g.arity >= 2) == 7


# ---------------------------------------------------------------- ansaetze

def test_agate_parameter_count_example():
    spec = lat(2, 4)
    assert C.agate_param_count(spec, 3) == 96
    with pytest.raises(ValueError):
        C.ansatz_agate(spec, 3, [0.0] * 95)


def test_agate_layout_order_and_slots():
    spec = lat(2, 2)
    layout = C.agate_layout(spec, 2)
    per_layer = len(edges(spec))
    assert [k for k, _, _ in layout[:per_layer]] == ["vy"] * 4 + ["vx"] * 4
    slots = [s for _, _, pair in layout for s in pair]
    assert slots == list(range(2 * 2 * per_layer))
    # the layout is the record of which parameters drive which gate
    params = RNG.uniform(-0.3, 0.3, size=C.agate_param_count(spec, 2))
    c = C.ansatz_agate(spec, 2, params)
    assert len(c) == len(layout)
    for g, (kind, e, (i, j)) in zip(c, layout):
        build = C.vy_gate if kind == "vy" else C.vx_gate
        assert g == build(spec, e, params[i], params[j])


def test_agate_preserves_constraints_and_number():
    spec = lat(2, 2)
    state = random_constrained_state(spec, seed=11)
    n0 = expval(state, P.number_sum(spec))
    params = RNG.uniform(-0.5, 0.5, size=C.agate_param_count(spec, 2))
    C.apply_circuit(state, C.ansatz_agate(spec, 2, params))
    for s, target in P.constraint_set(spec):
        assert abs(expval_string(state, s) - target) < 1e-12
    assert abs(expval(state, P.number_sum(spec)) - n0) < 1e-12


def test_hv_parameter_counts():
    spec = lat(2, 4)
    assert C.hv_param_count(spec, 3, "per_group") == 9
    assert C.hv_param_count(spec, 3, "per_edge") == 96
    with pytest.raises(ValueError):
        C.hv_param_count(spec, 3, "per_site")
    with pytest.raises(ValueError):
        C.ansatz_hv(spec, 2, [0.0] * 5, "per_group")


def test_hv_zero_parameters_is_identity():
    spec = lat(2, 2)
    for gran in ("per_group", "per_edge"):
        c = C.ansatz_hv(spec, 2, [0.0] * C.hv_param_count(spec, 2, gran), gran)
        assert np.max(np.abs(dense_circuit(c) - np.eye(1 << spec.n_qubits))) < 1e-12


def test_hv_single_layer_per_group_matches_trotter_structure():
    t, V, dt = 1.0, 3.0, 0.05
    for spec in (lat(2, 2), lat(2, 4), lat(3, 3)):
        trot = C.trotter_step(spec, t, V, dt)
        hv = C.ansatz_hv(spec, 1, [V * dt, t * dt / 2, t * dt / 2], "per_group")
        assert hv == trot


def test_hv_preserves_constraints():
    spec = lat(2, 2)
    state = random_constrained_state(spec, seed=5)
    params = RNG.uniform(-0.4, 0.4, size=C.hv_param_count(spec, 2, "per_edge"))
    C.apply_circuit(state, C.ansatz_hv(spec, 2, params, "per_edge"))
    for s, target in P.constraint_set(spec):
        assert abs(expval_string(state, s) - target) < 1e-12


def test_hv_slot_table_per_group():
    spec = lat(2, 2)
    plan = C.block_plan(spec)
    n_edges = len(edges(spec))
    assert len(plan) == 2 * n_edges  # one interaction and one hop per edge
    assert [(k, e) for k, e, _ in C.trotter_blocks(spec, 1.0, 2.0, 0.1)] == plan
    layout = C.hv_layout(spec, 2, "per_group")
    assert [(k, e) for k, e, _ in layout] == plan * 2
    slot_of = {}
    for kind, _, (s,) in layout:
        slot_of.setdefault(s, []).append(kind)
    assert set(slot_of) == set(range(6))
    assert {s for _, _, (s,) in layout[:len(plan)]} == {0, 1, 2}
    assert all(len(set(kinds)) == 1 for kinds in slot_of.values())
    assert len(slot_of[0]) == n_edges  # one interaction block per edge
    assert len(slot_of[1]) == n_edges // 2  # one hop_x block per x-edge
    per_edge = C.hv_layout(spec, 2, "per_edge")
    assert [(k, e) for k, e, _ in per_edge] == plan * 2
    assert [s for _, _, (s,) in per_edge] == list(range(C.hv_param_count(spec, 2, "per_edge")))


# ---------------------------------------------------------------- scheduling

def test_schedule_examples():
    c = C.Circuit(4)
    assert C.schedule(c).two_qubit_depth == 0
    c.add(C.Gate("cnot", (0, 1)))
    c.add(C.Gate("cnot", (2, 3)))
    assert C.schedule(c).two_qubit_depth == 1
    c.add(C.Gate("cnot", (1, 2)))
    assert C.schedule(c).two_qubit_depth == 2
    c.add(C.Gate("h", (0,)))  # single-qubit gates are free
    assert C.schedule(c).two_qubit_depth == 2
    rep = C.schedule(c)
    assert rep.counts_by_arity == {2: 3, 1: 1}
    assert rep.total_gates == 4


def test_schedule_declared_costs():
    spec = lat(2, 2)
    e = [ed for ed in edges(spec) if ed.direction == "x"][0]
    c = C.Circuit(spec.n_qubits)
    c.add(C.vx_gate(spec, e, 0.1, 0.2))
    assert C.schedule(c).two_qubit_depth == 1
    assert C.schedule(c, use_declared_costs=True).two_qubit_depth == 5


# ---------------------------------------------------------------- text export

def test_export_format_lines():
    c = C.Circuit(8)
    c.add(C.Gate("cnot", (3, 7)))
    c.add(C.Gate("rz", (0,), params=(0.5,)))
    text = C.export_text(c)
    lines = text.strip().splitlines()
    assert lines[0] == "qubits 8"
    assert lines[1] == "cnot q3 q7"
    assert lines[2] == "rz q0 0.5"


def test_export_parse_round_trip_all_kinds():
    spec = lat(2, 2)
    ex = [e for e in edges(spec) if e.direction == "x"][0]
    c = C.Circuit(spec.n_qubits)
    for kind in ("x", "y", "z", "h", "s", "sdg"):
        c.add(C.Gate(kind, (1,)))
    c.add(C.Gate("rx", (0,), params=(0.123456789123456789,)))
    c.add(C.Gate("ry", (2,), params=(-1.5e-7,)))
    c.add(C.Gate("rz", (3,), params=(math.pi,)))
    for kind in ("cnot", "cy", "cz", "ch"):
        c.add(C.Gate(kind, (4, 2)))
    c.add(C.Gate("cphase", (5, 6), params=(-0.25,)))
    c.add(C.Gate("ccz", (0, 1, 2)))
    c.add(C.vx_gate(spec, ex, 0.31, -0.77))
    back = C.parse_text(C.export_text(c))
    assert back == c


def test_parse_rejects_bad_header():
    with pytest.raises(ValueError):
        C.parse_text("cnot q0 q1\n")


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_export_round_trip_property(data):
    n = 6
    c = C.Circuit(n)
    for _ in range(data.draw(st.integers(0, 8))):
        choice = data.draw(st.integers(0, 3))
        finite = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
        if choice == 0:
            c.add(C.Gate(data.draw(st.sampled_from(["x", "h", "s", "sdg"])),
                         (data.draw(st.integers(0, n - 1)),)))
        elif choice == 1:
            c.add(C.Gate(data.draw(st.sampled_from(["rx", "ry", "rz"])),
                         (data.draw(st.integers(0, n - 1)),),
                         params=(data.draw(finite),)))
        elif choice == 2:
            a = data.draw(st.integers(0, n - 1))
            b = data.draw(st.integers(0, n - 1).filter(lambda q: q != a))
            c.add(C.Gate("cphase", (a, b), params=(data.draw(finite),)))
        else:
            theta, phi = data.draw(finite), data.draw(finite)
            c.add(C.Gate("matrix", (2, 4), params=(theta, phi),
                         matrix=C.a_gate_unitary(theta, phi), two_qubit_cost=3))
    assert C.parse_text(C.export_text(c)) == c
