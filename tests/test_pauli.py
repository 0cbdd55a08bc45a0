import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from f2q.lattice import (
    LatticeSpec,
    Site,
    aux_index,
    edge_sites,
    edges,
    phys_index,
    sites,
)
from f2q.pauli import (
    I,
    X,
    Y,
    Z,
    PauliString,
    PauliSum,
    constraint_set,
    gauss_string,
    hopping_terms,
    identity,
    number_sum,
    tv_hamiltonian,
)

from dense_oracle import commutes, pauli_matrix, pauli_sum_matrix, plaquette_string


def test_gauss_string_4x4_origin_letters():
    spec = LatticeSpec(4, 4)
    g = gauss_string(spec, Site(0, 0))
    expect = {0: Z, 4: Z, 16: Y, 21: Y, 17: X, 20: X}
    assert g.phase == 1
    for q in range(spec.n_qubits):
        assert g.letters[q] == expect.get(q, I)


def test_gauss_string_squares_to_identity():
    for spec in (LatticeSpec(2, 2), LatticeSpec(3, 3), LatticeSpec(2, 4)):
        for r in sites(spec):
            g = gauss_string(spec, r)
            assert g.mul(g) == identity(spec.n_qubits)


def test_gauss_strings_mutually_commute_3x3():
    spec = LatticeSpec(3, 3)
    gs = [gauss_string(spec, r) for r in sites(spec)]
    for a in gs:
        for b in gs:
            assert commutes(a, b)


def test_gauss_equals_plaquette_times_zz():
    for spec in (LatticeSpec(4, 4), LatticeSpec(3, 3)):
        for r in sites(spec):
            zz = PauliString(
                spec.n_qubits,
                {phys_index(spec, r): Z, phys_index(spec, spec.shift(r, 0, 1)): Z},
            )
            assert gauss_string(spec, r) == plaquette_string(spec, r).mul(zz)


def test_plaquette_product_is_sign_of_identity_2x2():
    spec = LatticeSpec(2, 2)
    prod = identity(spec.n_qubits)
    for r in sites(spec):
        prod = prod.mul(plaquette_string(spec, r))
    assert all(l == I for l in prod.letters)
    assert prod.phase in (1, -1)


def test_plaquette_commutes_with_gauss_3x3():
    spec = LatticeSpec(3, 3)
    for r in sites(spec):
        for s in sites(spec):
            assert commutes(plaquette_string(spec, r), gauss_string(spec, s))


def test_constraint_targets():
    # (spec, column target, row target)
    cases = [
        (LatticeSpec(4, 4), -1, -1),
        (LatticeSpec(2, 4), -1, -1),
        (LatticeSpec(2, 2), -1, -1),
        (LatticeSpec(3, 3), +1, +1),
    ]
    for spec, col_t, row_t in cases:
        cs = constraint_set(spec)
        assert len(cs) == spec.n_sites + spec.Lx + spec.Ly
        stab = list(cs)
        for s, t in stab[: spec.n_sites]:
            assert t == +1
        cols = stab[spec.n_sites : spec.n_sites + spec.Lx]
        rows = stab[spec.n_sites + spec.Lx :]
        for s, t in cols:
            assert t == col_t
            assert all(l in (I, Z) for l in s.letters)
            assert len(s.support) == spec.Ly
            assert all(q >= spec.n_sites for q in s.support)
        for s, t in rows:
            assert t == row_t
            assert all(l in (I, Z) for l in s.letters)
            assert len(s.support) == 2 * spec.Lx


def test_constraint_labels_follow_the_stabilizers():
    spec = LatticeSpec(3, 3)
    cs = constraint_set(spec)
    assert cs.labels == tuple([f"gauss {r.rx},{r.ry}" for r in sites(spec)]
                              + [f"loop_column {rx}" for rx in range(3)]
                              + [f"loop_row {ry}" for ry in range(3)])
    for label, (s, _) in zip(cs.labels, cs):
        if label.startswith("gauss"):
            rx, ry = map(int, label.split()[1].split(","))
            assert s == gauss_string(spec, Site(rx, ry))
    # labels name the stabilizers; they take no part in equality or hashing
    unnamed = type(cs)(cs.n, cs.stabilizers)
    assert unnamed == cs and hash(unnamed) == hash(cs)


def test_constraint_strings_mutually_commute():
    for spec in (LatticeSpec(3, 3), LatticeSpec(2, 4)):
        stab = list(constraint_set(spec))
        for a, _ in stab:
            for b, _ in stab:
                assert commutes(a, b)


def test_hop_x_coefficients_and_letters():
    spec = LatticeSpec(4, 4)
    e = edges(spec)[0]  # ((0,0),(1,0)) x-edge
    assert e.direction == "x" and e.origin == Site(0, 0)
    terms = list(hopping_terms(spec, e))
    assert len(terms) == 2
    coeffs = sorted(c.real for c, _ in terms)
    assert coeffs == [0.5, 0.5]
    for c, s in terms:
        assert set(s.support) == {0, 1, 17}
        assert s.letters[17] == Z
        assert s.letters[0] == s.letters[1]
        assert s.letters[0] in (X, Y)


def test_hop_x_coefficients_flip_with_rho():
    spec = LatticeSpec(3, 3)  # rho = -1
    e = edges(spec)[0]
    coeffs = sorted(c.real for c, _ in hopping_terms(spec, e))
    assert coeffs == [-0.5, -0.5]


def test_hop_y_coefficients_and_letters():
    spec = LatticeSpec(4, 4)
    e = next(e for e in edges(spec) if e.direction == "y")
    assert e.origin == Site(0, 0)
    terms = list(hopping_terms(spec, e))
    assert len(terms) == 2
    p_r, p_s = phys_index(spec, Site(0, 0)), phys_index(spec, Site(0, 1))
    a_r, a_s = aux_index(spec, Site(0, 0)), aux_index(spec, Site(0, 1))
    by_letters = {(s.letters[p_r], s.letters[p_s]): c.real for c, s in terms}
    assert by_letters[(X, Y)] == -0.5
    assert by_letters[(Y, X)] == +0.5
    for _, s in terms:
        assert s.letters[a_r] == Y and s.letters[a_s] == X
        assert set(s.support) == {p_r, p_s, a_r, a_s}


def test_hopping_support_is_edge_local():
    spec = LatticeSpec(2, 4)
    for e in edges(spec):
        r, s_ = edge_sites(spec, e)
        allowed = {
            phys_index(spec, r),
            phys_index(spec, s_),
            aux_index(spec, r),
            aux_index(spec, s_),
        }
        for _, s in hopping_terms(spec, e):
            assert set(s.support) <= allowed
            assert len(s.support) <= 4


def test_hopping_commutes_with_all_constraints_2x4():
    spec = LatticeSpec(2, 4)
    stab = [s for s, _ in constraint_set(spec)]
    for e in edges(spec):
        for _, h in hopping_terms(spec, e):
            for s in stab:
                assert commutes(h, s)


def test_interaction_expansion_identity_coefficient():
    spec = LatticeSpec(2, 2)
    V = 1.75
    H = tv_hamiltonian(spec, t=0.0, V=V)
    const = [c for c, s in H if not s.support]
    assert len(const) == 1
    assert const[0] == pytest.approx(V / 4 * len(edges(spec)))


def test_interaction_matches_dense_density_product_2x2():
    spec = LatticeSpec(2, 2)
    V = 2.0
    H = tv_hamiltonian(spec, t=0.0, V=V)
    n = spec.n_qubits
    dim = 1 << n
    dense = np.zeros((dim, dim), dtype=np.complex128)
    for e in edges(spec):
        r, s_ = edge_sites(spec, e)
        nr = pauli_sum_matrix(occupation(spec, r))
        ns = pauli_sum_matrix(occupation(spec, s_))
        dense += V * (nr @ ns)
    assert np.max(np.abs(pauli_sum_matrix(H) - dense)) < 1e-12


def occupation(spec, r):
    q = phys_index(spec, r)
    return PauliSum(
        spec.n_qubits,
        [(0.5, identity(spec.n_qubits)), (-0.5, PauliString(spec.n_qubits, {q: Z}))],
    )


def test_potentials_add_site_energies_2x2():
    spec = LatticeSpec(2, 2)
    pots = {Site(0, 0): -1.0, Site(0, 1): -1.0}
    H0 = tv_hamiltonian(spec, t=1.0, V=0.0)
    H1 = tv_hamiltonian(spec, t=1.0, V=0.0, potentials=pots)
    diff = pauli_sum_matrix(H1) - pauli_sum_matrix(H0)
    expect = -1.0 * (
        pauli_sum_matrix(occupation(spec, Site(0, 0)))
        + pauli_sum_matrix(occupation(spec, Site(0, 1)))
    )
    assert np.max(np.abs(diff - expect)) < 1e-12


def test_hamiltonian_commutes_with_gauss_2x4_termwise():
    spec = LatticeSpec(2, 4)
    H = tv_hamiltonian(spec, t=1.0, V=3.0, potentials={Site(0, 0): -1.0})
    for r in sites(spec):
        g = gauss_string(spec, r)
        assert all(commutes(s, g) for _, s in H)


def test_hamiltonian_commutes_with_gauss_dense_2x2():
    spec = LatticeSpec(2, 2)
    H = pauli_sum_matrix(tv_hamiltonian(spec, t=0.7, V=1.3))
    for r in sites(spec):
        G = pauli_matrix(gauss_string(spec, r))
        assert np.max(np.abs(H @ G - G @ H)) < 1e-12


def test_hamiltonian_is_hermitian():
    spec = LatticeSpec(2, 4)
    H = tv_hamiltonian(spec, t=1.0, V=2.0, potentials={Site(1, 2): 0.3})
    assert H.is_hermitian
    for c, s in H:
        assert abs(c.imag) < 1e-15
        assert s.phase == 1


def test_number_sum_basics():
    spec = LatticeSpec(2, 2)
    N = number_sum(spec)
    mat = pauli_sum_matrix(N)
    assert mat[0, 0] == pytest.approx(0.0)
    H = pauli_sum_matrix(tv_hamiltonian(spec, t=1.0, V=2.0))
    assert np.max(np.abs(mat @ H - H @ mat)) < 1e-12


def test_multiply_examples():
    x = PauliString(1, {0: X})
    y = PauliString(1, {0: Y})
    z = PauliString(1, {0: Z})
    assert x.mul(y) == PauliString(1, {0: Z}, phase_k=1)  # XY = iZ
    assert y.mul(x) == PauliString(1, {0: Z}, phase_k=3)
    s = PauliString(2, {0: X, 1: Y}, phase_k=1)
    assert s.mul(s) == PauliString(2, (), phase_k=2)  # i^2 = -1
    assert commutes(PauliString(2, {0: X, 1: X}), PauliString(2, {0: Z, 1: Z}))
    assert not commutes(PauliString(2, {0: X}), PauliString(2, {0: Z}))
    with pytest.raises(ValueError):
        x.mul(PauliString(2, {0: X}))
    assert x.mul(z).phase == -1j  # XZ = -iY


def test_pauli_sum_merges_and_prunes():
    s = PauliString(2, {0: Z})
    total = PauliSum(2, [(1.0, s), (2.0, s)])
    assert len(total) == 1
    assert total.terms[0][0] == pytest.approx(3.0)
    gone = PauliSum(2, [(1.0, s), (-1.0 + 1e-15, s)])
    assert len(gone) == 0
    # string phases are folded into coefficients
    folded = PauliSum(2, [(1.0, PauliString(2, {0: Z}, phase_k=2))])
    assert folded.terms[0][0] == pytest.approx(-1.0)
    assert folded.terms[0][1].phase == 1


def test_render_format():
    s = PauliString(8, {0: Z, 4: Y, 5: X}, phase_k=0)
    assert s.render() == "+1 Z0 Y4 X5"
    assert PauliString(2, {1: Y}, phase_k=2).render() == "-1 Y1"
    assert identity(3).render() == "+1"


@st.composite
def small_strings(draw, n=3):
    letters = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    k = draw(st.integers(0, 3))
    return PauliString(n, bytes(letters), k)


@settings(max_examples=60, deadline=None)
@given(small_strings(), small_strings())
def test_multiply_matches_dense(a, b):
    lhs = pauli_matrix(a.mul(b))
    rhs = pauli_matrix(a) @ pauli_matrix(b)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(small_strings(), small_strings())
def test_commutes_matches_dense(a, b):
    A, B = pauli_matrix(a), pauli_matrix(b)
    assert commutes(a, b) == (np.max(np.abs(A @ B - B @ A)) < 1e-12)


def _masks_by_letter(s):
    """PauliString.masks() read one letter at a time."""
    flip = sign = ycount = 0
    for q, l in enumerate(s.letters):
        if l in (X, Y):
            flip |= 1 << q
        if l in (Y, Z):
            sign |= 1 << q
        ycount += l == Y
    return flip, sign, ycount


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=300))
@example([I])
@example([Y] * 8)
@example([Z, X, Y, I, I, I, I, I, X])  # 9 letters: not a multiple of 8
@example([I] * 299 + [Y])
def test_masks_match_letter_by_letter(letters):
    s = PauliString(len(letters), bytes(letters), 1)
    assert s.masks() == _masks_by_letter(s)
    assert s.masks() is s.masks()  # computed once


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 288])
def test_masks_of_identity_strings(n):
    assert identity(n).masks() == _masks_by_letter(identity(n)) == (0, 0, 0)
