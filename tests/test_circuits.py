"""Circuit constructions against dense matrix-exponential oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from dense_oracle import (apply_gates, circuit_unitary, embed_gate, from_dense, local_pauli,
                          parse_text, pauli_apply, pauli_matrix, pauli_projection, pauli_sum_matrix,
                          qubit_marginals, restrict_circuit, schedule_reference, to_dense, vx_gate,
                          vx_unitary, vy_gate, vy_unitary)
from f2q import circuits as C
from f2q import pauli as P
from f2q.lattice import (
    Edge,
    InputError,
    LatticeSpec,
    Site,
    aux_index,
    edge_sites,
    edges,
    phys_index,
    sites,
)
from f2q.statevec import (MAX_GATE_QUBITS, StateVector, constrained_basis, expval, expval_string,
                          zero_state)

RNG = np.random.default_rng(20260813)


def lat(Lx, Ly, rho=0):
    return LatticeSpec(Lx, Ly, rho)


def dense_circuit(c):
    return circuit_unitary(c)


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
        C.Gate("agate", (0, 1), params=(0.3,))
    with pytest.raises(ValueError):
        C.Gate("rz", (0,), params=(np.nan,))
    with pytest.raises(ValueError, match="expects 2 targets"):
        C.Gate("cnot", (0, 2, 0))
    with pytest.raises(ValueError, match="duplicate targets"):
        C.Gate("agate", (3, 3), params=(0.1, 0.2))


@pytest.mark.parametrize("kind", sorted(C.GATES))
def test_gate_table_kinds_are_unitary_and_validated(kind):
    # the table is the only source of named-gate matrices, and apply_matrix_gate
    # trusts what it is given, so every entry is checked here at seeded angles
    arity, angles, _ = C.GATES[kind]
    rng = np.random.default_rng(sorted(C.GATES).index(kind))
    for _ in range(5):
        params = tuple(rng.uniform(-2 * math.pi, 2 * math.pi, angles))
        U = C.gate_unitary(C.Gate(kind, tuple(range(arity)), params=params))
        assert U.shape == (1 << arity, 1 << arity)
        assert np.max(np.abs(U.conj().T @ U - np.eye(1 << arity))) < 1e-12
    for k in (arity - 1, arity + 1):
        with pytest.raises(ValueError):
            C.Gate(kind, tuple(range(k)), params=params)
    for n in (angles - 1, angles + 1):
        if n >= 0:
            with pytest.raises(ValueError):
                C.Gate(kind, tuple(range(arity)), params=(0.5,) * n)


def test_circuit_add_checks_register():
    c = C.Circuit(2)
    with pytest.raises(ValueError):
        c.add(C.Gate("x", (2,)))
    for gate in (C.Gate("x", (-1,)), C.Gate("cnot", (0, -1)), C.Gate("cz", (-2, 1))):
        with pytest.raises(ValueError, match="outside register"):
            c.add(gate)
    c.add(C.Gate("x", (1,)))
    assert len(c) == 1


def test_circuit_constructor_and_extend_check_register():
    with pytest.raises(ValueError, match="outside register"):
        C.Circuit(2, [C.Gate("x", (0,)), C.Gate("x", (2,))])
    with pytest.raises(ValueError, match="outside register"):
        C.Circuit(2, [C.Gate("cz", (-1, 0))])
    with pytest.raises(ValueError, match="outside register"):
        C.Circuit(2).extend(C.Circuit(3, [C.Gate("x", (2,))]))
    negative = C.Circuit(3)
    negative.gates.append(C.Gate("x", (-1,)))  # past add's check, to reach extend's
    target = C.Circuit(2, [C.Gate("h", (0,))])
    with pytest.raises(ValueError, match="outside register"):
        target.extend(negative)
    assert len(target) == 1
    small = C.Circuit(2, [C.Gate("cnot", (0, 1))])
    assert C.Circuit(3).extend(small).gates == small.gates
    assert [g.kind for g in C.Circuit(2, [C.Gate("h", (0,))]).extend(small)] == ["h", "cnot"]


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
        C.Gate("agate", (1, 3), params=(0.4, -0.9)),
        C.Gate("cz", (2, 3)),
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
    sv = from_dense(amps.copy(), n)
    C.apply_circuit(sv, c)
    assert np.max(np.abs(to_dense(sv) - want @ amps)) < 1e-13


def test_restrict_circuit_remaps():
    spec = lat(2, 2)
    e = [e for e in edges(spec) if e.direction == "x"][0]
    block = C.hop_x_evolution(spec, e, 0.31)
    support = sorted({q for g in block for q in g.targets})
    small = restrict_circuit(block, support)
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
        restrict_circuit(block, support[:-1])


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
    c = C.vacuum_circuit(spec).extend(C.vx_native(spec, e, 0.3, 0.2))
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
    conj, phase = C.conjugate_string(c, s, {})
    U = dense_circuit(c)
    want = U.conj().T @ pauli_matrix(s) @ U
    assert np.max(np.abs(want - phase * pauli_matrix(conj))) < 1e-12


def _random_clifford(data, k):
    """A product of H, S and CNOT on k qubits, as one 2^k matrix."""
    U = np.eye(1 << k, dtype=np.complex128)
    for _ in range(data.draw(st.integers(0, 3 * k))):
        kind = data.draw(st.sampled_from(["h", "s"] + (["cnot"] if k > 1 else [])))
        targets = data.draw(st.permutations(range(k)))[:C.GATES[kind].arity]
        U = embed_gate(C.GATES[kind].unitary(), targets, k) @ U
    return U


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_pauli_read_off_matches_projection_oracle(data):
    # the closed form reads the same letters and phase as projecting onto all 4^k words
    k = data.draw(st.integers(1, 4))
    U = _random_clifford(data, k)
    word = data.draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
    ph = data.draw(st.sampled_from([1, -1, 1j, -1j]))
    M = ph * U.conj().T @ local_pauli(word) @ U
    letters, phase = C._snap_to_pauli(M, k)
    assert (list(letters), phase) == pauli_projection(M, k)
    assert np.max(np.abs(M - phase * local_pauli(letters))) < 1e-12


def test_local_pauli_matches_kron_oracle_for_every_word():
    # all 4 + 16 + 64 + 256 words: pins the sign convention (the parity of the
    # column index) and the parity count's narrow integer type
    words = [w for k in range(1, 5) for w in itertools.product(range(4), repeat=k)]
    assert len(words) == 340
    for word in words:
        P = C._local_pauli(word)
        assert P.dtype == np.complex128 and np.array_equal(P, local_pauli(word)), word


def _non_pauli_images():
    rx = C.gate_unitary(C.Gate("rx", (0,), params=(0.3,)))
    ch = C.GATES["ch"].unitary()
    q, _ = np.linalg.qr(np.random.default_rng(7).normal(size=(4, 4))
                        + 1j * np.random.default_rng(8).normal(size=(4, 4)))
    yield "rx", rx.conj().T @ local_pauli([3]) @ rx, 1
    tiny = C.gate_unitary(C.Gate("rx", (0,), params=(1e-9,)))  # off a Pauli by ~1e-9 only
    yield "rx_tiny", np.kron(np.eye(2), tiny.conj().T @ local_pauli([2]) @ tiny), 2
    yield "ch", ch.conj().T @ local_pauli([0, 3]) @ ch, 2
    yield "random", q.conj().T @ local_pauli([3, 1]) @ q, 2
    yield "phase", np.exp(0.1j) * local_pauli([2, 3]), 2


@pytest.mark.parametrize("M, k", [pytest.param(M, k, id=name) for name, M, k in _non_pauli_images()])
def test_pauli_read_off_rejects_non_pauli_images(M, k):
    with pytest.raises(ValueError):
        C._snap_to_pauli(M, k)
    with pytest.raises(ValueError):
        pauli_projection(M, k)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_light_cone_skips_pauli_breaking_gates_outside_it(data):
    # Cliffords on qubits 0-2, rx(0.3) on 3-5: no word on 0-2 ever reaches a
    # rotation, each of which would raise if visited. A final CNOT from a
    # rotated qubit onto a Z or Y of the word brings one inside the light cone.
    n = 6
    low = st.permutations(range(3))
    gates = []
    for _ in range(data.draw(st.integers(0, 10))):
        kind = data.draw(st.sampled_from(["h", "s", "cnot", "cz", "rx"]))
        if kind == "rx":
            gates.append(C.Gate("rx", (data.draw(st.integers(3, 5)),), params=(0.3,)))
        else:
            gates.append(C.Gate(kind, data.draw(low)[:C.GATES[kind].arity]))
    q_in, other = data.draw(low)[:2]
    word = {q_in: data.draw(st.sampled_from([P.Y, P.Z])), other: data.draw(st.integers(0, 3))}
    s = P.PauliString(n, word)
    c = C.Circuit(n, gates)
    conj, phase = C.conjugate_string(c, s, {})
    U = dense_circuit(c)
    want = U.conj().T @ pauli_matrix(s) @ U
    assert np.max(np.abs(want - phase * pauli_matrix(conj))) < 1e-12
    assert abs(C.stabilizer_expectations(c, [(s, 1)])[0] - want[0, 0]) < 1e-12
    q_out = data.draw(st.integers(3, 5))
    reached = C.Circuit(n, [C.Gate("rx", (q_out,), params=(0.3,))] + gates
                        + [C.Gate("cnot", (q_out, q_in))])
    with pytest.raises(ValueError, match="not a single Pauli"):
        C.conjugate_string(reached, s, {})
    with pytest.raises(ValueError, match="not a single Pauli"):
        C.stabilizer_expectations(reached, [(s, 1)])


def _check_shared_memo(c, strings):
    """Track every string through one memo; compare each with dense U^dagger S U."""
    U = dense_circuit(c)
    memo = {}
    wants = []
    for s in strings:
        conj, phase = C.conjugate_string(c, s, memo)
        want = U.conj().T @ pauli_matrix(s) @ U
        assert np.max(np.abs(want - phase * pauli_matrix(conj))) < 1e-12
        wants.append(want[0, 0])
    got = C.stabilizer_expectations(c, [(s, 1) for s in strings])
    assert np.max(np.abs(np.array(got) - np.array(wants))) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_shared_memo_matches_dense_for_every_string(data):
    # The memo must tell apart gates that differ only in angle or kind:
    # rz/rx at distinct multiples of pi/2 on one qubit, and named Cliffords
    # with the same targets but different kinds, all applied twice.
    n = 3
    qubit = st.integers(0, n - 1)
    pair = st.permutations(range(n)).map(lambda o: tuple(o[:2]))
    quarters = st.lists(st.integers(-3, 4), min_size=2, max_size=2, unique=True)
    gates = []
    for kind in ("rz", "rx"):
        q = data.draw(qubit)
        gates += [C.Gate(kind, (q,), params=(k * math.pi / 2,)) for k in data.draw(quarters)]
    for kinds, targets in ((["h", "s", "sdg"], st.tuples(qubit)), (["cnot", "cz", "cy"], pair)):
        tg = data.draw(targets)
        picks = st.lists(st.sampled_from(kinds), min_size=2, max_size=2, unique=True)
        gates += [C.Gate(kind, tg) for kind in data.draw(picks)]
    for _ in range(data.draw(st.integers(0, 4))):
        kind = data.draw(st.sampled_from(["h", "s", "cnot", "cy", "cz"]))
        gates.append(C.Gate(kind, data.draw(pair)[:C.GATES[kind].arity]))
    c = C.Circuit(n, list(data.draw(st.permutations(gates))) * 2)
    letters = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(bytes)
    strings = [P.PauliString(n, w) for w in data.draw(st.lists(letters, min_size=2, max_size=6))]
    _check_shared_memo(c, strings)


def test_shared_memo_keys_on_angle_and_kind():
    c = C.Circuit(2)
    c.add(C.Gate("rz", (0,), params=(math.pi / 2,))).add(C.Gate("rz", (0,), params=(math.pi,)))
    c.add(C.Gate("h", (1,))).add(C.Gate("s", (1,)))
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
        kind = data.draw(st.sampled_from(sorted(C.GATES)))
        order = data.draw(st.permutations(range(n)))  # unsorted target orders
        params = tuple(data.draw(angle) for _ in range(C.GATES[kind].angles))
        c.add(C.Gate(kind, tuple(order[:C.GATES[kind].arity]), params=params))
    fused = C.fuse(c)
    assert all(len(targets) <= MAX_GATE_QUBITS for targets, _ in fused)
    assert len(fused) <= len(c)
    amps = random_amplitudes(n, data.draw(st.integers(0, 2**31 - 1)))
    want = to_dense(apply_gates(from_dense(amps.copy(), n), c))
    got = to_dense(C.apply_circuit(from_dense(amps.copy(), n), c))
    assert np.max(np.abs(got - want)) < 1e-12


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_sparse_state_matches_dense_oracle_property(data):
    # gates on a block of at most 8 of 3..12 qubits, at the bottom or the top
    # of the register, so the oracle is circuit_unitary on that block
    n = data.draw(st.integers(3, 12))
    m = min(n, 8)
    low = data.draw(st.sampled_from([0, n - m]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    angle = st.floats(-4, 4, allow_nan=False, allow_infinity=False)
    c = C.Circuit(n)
    for _ in range(data.draw(st.integers(0, 12))):
        kind = data.draw(st.sampled_from(sorted(C.GATES)))
        order = [low + q for q in data.draw(st.permutations(range(m)))]  # unsorted targets
        params = tuple(data.draw(angle) for _ in range(C.GATES[kind].angles))
        c.add(C.Gate(kind, tuple(order[:C.GATES[kind].arity]), params=params))

    support = data.draw(st.one_of(st.just(None), st.integers(1, 64)))
    if support is None:
        labels = np.arange(1 << n)
    else:
        labels = np.sort(rng.choice(1 << n, size=min(support, 1 << n), replace=False))
    amps = rng.normal(size=labels.size) + 1j * rng.normal(size=labels.size)
    amps /= np.linalg.norm(amps)
    psi = np.zeros(1 << n, dtype=complex)
    psi[labels] = amps
    small = circuit_unitary(restrict_circuit(c, range(low, low + m)))
    want = np.einsum("ij,ajb->aib", small, psi.reshape(-1, 1 << m, 1 << low)).reshape(-1)

    letters = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    strings = [P.PauliString(n, bytes(data.draw(letters)), data.draw(st.sampled_from([0, 2])))
               for _ in range(3)]
    H = P.PauliSum(n, [(float(x), s) for x, s in zip(rng.normal(size=3), strings)])
    qubits = list(rng.permutation(n)[:4])
    for apply in (apply_gates, C.apply_circuit):  # unfused, then fused
        state = apply(StateVector(labels, amps, n), c)
        assert state.dropped <= 1e-12
        assert np.max(np.abs(to_dense(state) - want)) < 1e-12
        dense_h = sum(x * np.vdot(want, pauli_apply(s, want)) for x, s in H)
        assert abs(expval(state, H) - dense_h.real) < 1e-12
        dense_s = np.vdot(want, pauli_apply(strings[0], want))
        assert abs(expval_string(state, strings[0]) - dense_s) < 1e-12
        bits = (np.arange(1 << n)[:, None] >> np.array(qubits)) & 1
        assert np.max(np.abs(qubit_marginals(state, qubits) - np.abs(want) ** 2 @ bits)) < 1e-12


def test_4x4_state_keeps_constraints_and_particle_number():
    # 32 qubits: no dense state reaches this; the sparse one holds <= 120 x 512 labels
    spec = lat(4, 4)
    cs = P.constraint_set(spec)
    number = P.number_sum(spec)

    def check(state, n_f):
        for s, target in cs:
            assert abs(expval_string(state, s) - target) < 1e-10
        assert abs(expval(state, number) - n_f) < 1e-10

    state = C.apply_circuit(zero_state(spec.n_qubits), C.vacuum_circuit(spec))
    check(state, 0)
    C.apply_circuit(state, C.pair_creation(spec, Edge(Site(0, 0), "x")))
    check(state, 2)
    params = np.random.default_rng(11).uniform(-0.5, 0.5, C.agate_param_count(spec, 1))
    C.apply_circuit(state, C.ansatz_agate(spec, 1, params))
    check(state, 2)
    step = C.trotter_step(spec, 1.0, 2.0, 0.05)
    for _ in range(10):
        C.apply_circuit(state, step)
        check(state, 2)
    assert state.labels.size <= 120 * 512


def test_fuse_trotter_step_blocks_and_action():
    # 3x3: 9 diagonal interaction pairs, 9 hop_x blocks, 9 hop_y blocks
    step = C.trotter_step(lat(3, 3), 1.0, 3.0, 0.1)
    assert len(step) == 306 and len(C.fuse(step)) == 27
    for dims in [(2, 2), (2, 4), (3, 3)]:
        spec = lat(*dims)
        step = C.trotter_step(spec, 1.0, 3.0, 0.1)
        amps = random_amplitudes(spec.n_qubits, seed=dims[1])
        want = to_dense(apply_gates(from_dense(amps.copy(), spec.n_qubits), step))
        got = to_dense(C.apply_circuit(from_dense(amps.copy(), spec.n_qubits), step))
        assert np.max(np.abs(got - want)) < 1e-12


def _greedy_blocks(c):
    """fuse's partition rule: gates join the open block, in order, while the
    union of their targets (in order of first appearance) fits MAX_GATE_QUBITS."""
    blocks = []
    for g in c.gates:
        if blocks:
            union, gates = blocks[-1]
            grown = union + [q for q in g.targets if q not in union]
            if len(grown) <= MAX_GATE_QUBITS:
                blocks[-1] = (grown, gates + [g])
                continue
        blocks.append((list(g.targets), [g]))
    return blocks


def _fuse_cases():
    s24 = lat(2, 4)
    rng = np.random.default_rng(7)
    agate = C.ansatz_agate(s24, 3, rng.uniform(-3, 3, C.agate_param_count(s24, 3)))
    yield "trotter_3x3", C.trotter_step(lat(3, 3, rho=-1), 1.0, 3.0, 0.1)
    yield "agate_2x4_3L", agate
    for gran in ("per_edge", "per_group"):
        params = rng.uniform(-3, 3, C.hv_param_count(s24, 3, gran))
        yield f"hv_2x4_3L_{gran}", C.ansatz_hv(s24, 3, params, gran)


@pytest.mark.parametrize("c", [pytest.param(c, id=name) for name, c in _fuse_cases()])
def test_fuse_blocks_match_dense_oracle(c):
    fused = C.fuse(c)
    blocks = _greedy_blocks(c)
    assert [targets for targets, _ in fused] == [tuple(union) for union, _ in blocks]
    for (_, U), (union, gates) in zip(fused, blocks):
        # restrict_circuit puts support[0] at the least significant bit, fuse union[0] at the MSB
        want = circuit_unitary(restrict_circuit(C.Circuit(c.n_qubits, gates), list(reversed(union))))
        assert np.max(np.abs(U - want)) < 1e-12, union


@pytest.mark.parametrize("bad", [np.array([[1, 1], [0, 1]]), np.array([[np.nan, 0], [0, 1]])])
def test_fuse_refuses_a_non_unitary_block(monkeypatch, bad):
    # fuse is the one place a gate matrix is checked, and apply_matrix_gate
    # trusts what it is given, so a bad table entry must stop here
    monkeypatch.setitem(C.GATES, "rx", C.GateKind(1, 1, lambda a: bad.astype(complex)))
    c = C.Circuit(2, [C.Gate("h", (1,)), C.Gate("rx", (0,), params=(0.3,))])
    with pytest.raises(ValueError, match="gate matrix is not unitary"):
        C.fuse(c)
    with pytest.raises(ValueError, match="gate matrix is not unitary"):
        C.apply_circuit(zero_state(2), c)


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
            conj, ph = C.conjugate_string(full, zs, {})
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
    angle = {"interaction": 3.0 * 0.05, "hop_x": 1.0 * 0.05 / 2, "hop_y": 1.0 * 0.05 / 2}
    blocks = [(kind, e, C.BLOCKS[kind](spec, e, angle[kind])) for kind, e in C.block_plan(spec)]
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
    U = vx_unitary(0.0, 0.4)
    assert np.max(np.abs(U - np.diag(np.repeat([1, 1, -1, 1], 2)))) < 1e-15
    U = vx_unitary(0.31, -0.7)
    assert np.max(np.abs(U - U.conj().T)) < 1e-14
    assert np.max(np.abs(U @ U - np.eye(8))) < 1e-14


def test_vy_unitary_structure():
    U = vy_unitary(0.0, 0.4)
    want = np.diag(np.concatenate([np.ones(4), np.ones(4), -np.ones(4), np.ones(4)]))
    assert np.max(np.abs(U - want)) < 1e-15
    U = vy_unitary(0.31, -0.7)
    assert np.max(np.abs(U - U.conj().T)) < 1e-14
    assert np.max(np.abs(U @ U - np.eye(16))) < 1e-14


@pytest.mark.parametrize("theta,phi", [(0.41, 1.13), (-0.9, 0.0), (0.2, -2.4)])
def test_vx_native_decomposition_matches(theta, phi):
    spec = lat(2, 2)
    e = [ed for ed in edges(spec) if ed.direction == "x"][0]
    g = vx_gate(spec, e, theta, phi)
    want = embed_gate(g.matrix, g.targets, spec.n_qubits)
    assert np.max(np.abs(dense_circuit(C.vx_native(spec, e, theta, phi)) - want)) < 1e-12


@pytest.mark.parametrize("theta,phi", [(0.41, 1.13), (-0.9, 0.0), (0.2, -2.4)])
def test_vy_native_decomposition_matches(theta, phi):
    spec = lat(2, 2)
    e = [ed for ed in edges(spec) if ed.direction == "y"][0]
    g = vy_gate(spec, e, theta, phi)
    want = embed_gate(g.matrix, g.targets, spec.n_qubits)
    assert np.max(np.abs(dense_circuit(C.vy_native(spec, e, theta, phi)) - want)) < 1e-12


def test_variational_gates_commute_with_constraints():
    spec = lat(2, 4)
    ex = [e for e in edges(spec) if e.direction == "x"][1]
    ey = [e for e in edges(spec) if e.direction == "y"][2]
    for gate in (vx_gate(spec, ex, 0.37, 0.9), vy_gate(spec, ey, 0.37, 0.9)):
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
    for gate, n_phys in ((vx_gate(spec, ex, 0.3, 0.4), 2), (vy_gate(spec, ey, 0.3, 0.4), 2)):
        k = len(gate.targets)
        # the physical pair sits at target positions 0 and 1, i.e. the top bits
        num = sum(
            pauli_matrix(P.PauliString(k, {k - 1 - i: P.Z})) for i in range(n_phys)
        )
        assert np.max(np.abs(gate.matrix @ num - num @ gate.matrix)) < 1e-12


def test_declared_two_qubit_costs():
    # the paper's costs, 5 for vx and 7 for vy, follow from the native blocks with A at 3 CNOTs
    spec = lat(2, 2)
    ex = [e for e in edges(spec) if e.direction == "x"][0]
    ey = [e for e in edges(spec) if e.direction == "y"][0]
    for block, cost in ((C.vx_native(spec, ex, 0.1, 0.2), 5), (C.vy_native(spec, ey, 0.1, 0.2), 7)):
        assert [g.kind for g in block].count("agate") == 1
        assert all(g.arity == 2 for g in block)
        assert sum(3 if g.kind == "agate" else 1 for g in block) == cost


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
    want = C.Circuit(spec.n_qubits)
    for kind, e, (i, j) in layout:
        build = C.vy_native if kind == "vy" else C.vx_native
        want.extend(build(spec, e, params[i], params[j]))
    assert c == want


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


@pytest.mark.parametrize("name", ["agate", "hv"])
def test_ansatz_checks_every_setting_for_either_family(name):
    spec = lat(2, 4)
    with pytest.raises(InputError, match="ansatz must be agate or hv"):
        C.Ansatz(spec, "qaoa", 2, "per_edge")
    with pytest.raises(InputError, match="layers"):
        C.Ansatz(spec, name, 0, "per_edge")
    with pytest.raises(InputError, match="granularity"):
        C.Ansatz(spec, name, 2, "per_site")  # the A-gate family ignores it, but it is checked


@pytest.mark.parametrize("name, gran", [("agate", "per_edge"), ("hv", "per_group"),
                                        ("hv", "per_edge")])
def test_ansatz_dispatches_to_its_family(name, gran):
    spec = lat(2, 2)
    ansatz = C.Ansatz(spec, name, 2, gran)
    params = RNG.uniform(-0.5, 0.5, ansatz.n_params)
    if name == "agate":
        assert ansatz.n_params == C.agate_param_count(spec, 2)
        assert ansatz.layout() == C.agate_layout(spec, 2)
        assert ansatz.circuit(params) == C.ansatz_agate(spec, 2, params)
    else:
        assert ansatz.n_params == C.hv_param_count(spec, 2, gran)
        assert ansatz.layout() == C.hv_layout(spec, 2, gran)
        assert ansatz.circuit(params) == C.ansatz_hv(spec, 2, params, gran)


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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_schedule_matches_reference_loop(data):
    # random circuits with 1- and 2-target gates
    n = data.draw(st.integers(4, 8))
    kinds = {1: ["h", "x"], 2: ["cnot", "cz"]}
    c = C.Circuit(n)
    for _ in range(data.draw(st.integers(0, 30))):
        k = data.draw(st.integers(1, 2))
        kind = data.draw(st.sampled_from(kinds[k]))
        c.add(C.Gate(kind, tuple(data.draw(st.permutations(range(n)))[:k])))
    rep = C.schedule(c)
    assert (rep.two_qubit_depth, rep.counts_by_arity) == schedule_reference(c)


def test_schedule_declared_costs():
    # schedule counts the A gate once, not at its 3-CNOT cost
    spec = lat(2, 2)
    ex = [e for e in edges(spec) if e.direction == "x"][0]
    ey = [e for e in edges(spec) if e.direction == "y"][0]
    rep = C.schedule(C.vx_native(spec, ex, 0.1, 0.2))
    assert (rep.two_qubit_depth, rep.counts_by_arity) == (3, {2: 3})
    rep = C.schedule(C.vy_native(spec, ey, 0.1, 0.2))
    assert (rep.two_qubit_depth, rep.counts_by_arity) == (5, {2: 5})


def test_schedule_native_agate_ansatz():
    spec = lat(2, 4)
    c = C.ansatz_agate(spec, 3, RNG.uniform(-0.5, 0.5, C.agate_param_count(spec, 3)))
    rep = C.schedule(c)
    assert rep.counts_by_arity == {2: 192}
    assert rep.two_qubit_depth == 64
    # with A at 3 CNOTs, a vx block costs 5 two-qubit gates and a vy block 7
    blocks = {"vx": ["cz", "agate", "cz"], "vy": ["cy", "cnot", "agate", "cnot", "cy"]}
    want = [k for kind, _, _ in C.agate_layout(spec, 3) for k in blocks[kind]]
    assert [g.kind for g in c] == want


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
    c.add(C.Gate("agate", (3, 7), params=(0.31, -0.77)))
    c.extend(C.vx_native(spec, ex, 0.31, -0.77))
    back = parse_text(C.export_text(c))
    assert back == c


def test_parse_rejects_bad_header():
    with pytest.raises(ValueError):
        parse_text("cnot q0 q1\n")


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
            c.add(C.Gate("agate", (2, 4), params=(theta, phi)))
    assert parse_text(C.export_text(c)) == c
