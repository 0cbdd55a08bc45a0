import numpy as np
import pytest

from dense_oracle import single_particle_matrix
from f2q import oracle
from f2q.lattice import (LatticeSpec, ScientificFailure, Site, edge_sites, edges, occupation_bits,
                        site_index)
from f2q.oracle import (
    ALL_SECTORS,
    BCSector,
    ed_ground,
    ed_hamiltonian,
    ed_propagate,
    ed_spectrum,
    exact_reference,
    match_bc_sector,
    sector_basis,
)
from f2q.pauli import constraint_set, tv_hamiltonian
from f2q.statevec import cached_basis, cached_sector, restrict_sum

PP = BCSector(+1, +1)

# Empirically matched fermionic boundary conditions per lattice (frozen).
MATCHED_SECTOR = {(2, 2): PP, (2, 4): PP, (3, 3): PP}


def classical_energies(spec, n_f, V, potentials=None):
    occ_edges = []
    for e in edges(spec):
        r, s = edge_sites(spec, e)
        occ_edges.append((site_index(spec, r), site_index(spec, s)))
    pot = np.zeros(spec.n_sites)
    for r, mu in (potentials or {}).items():
        pot[site_index(spec, Site(*r))] += mu
    out = []
    for m in map(int, sector_basis(spec.n_sites, n_f)):
        e = V * sum(1 for i, j in occ_edges if (m >> i) & (m >> j) & 1)
        e += sum(pot[i] for i in range(spec.n_sites) if (m >> i) & 1)
        out.append(e)
    return np.sort(np.array(out))


def test_sector_basis_size():
    assert sector_basis(4, 2).size == 6
    assert list(sector_basis(3, 2)) == [0b011, 0b101, 0b110]


def test_hamiltonian_is_exactly_hermitian():
    spec = LatticeSpec(2, 4)
    for sector in ALL_SECTORS:
        H = ed_hamiltonian(spec, 1.0, 3.0, {Site(0, 0): -1.0}, sector, 3)
        assert np.array_equal(H, H.T.conj())


def test_t0_hamiltonian_is_diagonal_with_classical_energies():
    spec = LatticeSpec(2, 2)
    V = 1.3
    pots = {Site(0, 0): -0.7}
    H = ed_hamiltonian(spec, 0.0, V, pots, PP, 2)
    assert np.max(np.abs(H - np.diag(np.diag(H)))) == 0.0
    expect = classical_energies(spec, 2, V, pots)
    assert np.allclose(np.sort(np.diag(H).real), expect, atol=1e-12)
    e, _ = ed_ground(spec, 0.0, V, pots, PP, 2)
    assert e == pytest.approx(float(expect[0]), abs=1e-12)


def test_t0_spectrum_matches_classical_multiset():
    spec = LatticeSpec(3, 3)
    res = ed_spectrum(spec, 0.0, 2.0, None, PP, 3)
    assert np.allclose(res.eigenvalues, classical_energies(spec, 3, 2.0), atol=1e-12)


def test_free_fermion_ground_is_filled_single_particle_levels():
    for shape, sector, n_f in [((2, 4), PP, 2), ((2, 4), BCSector(-1, +1), 3), ((3, 3), PP, 4)]:
        spec = LatticeSpec(*shape)
        h = single_particle_matrix(spec, 1.0, sector)
        levels = np.sort(np.linalg.eigvalsh(h))
        e, _ = ed_ground(spec, 1.0, 0.0, None, sector, n_f)
        assert e == pytest.approx(float(np.sum(levels[:n_f])), abs=1e-10)


def test_vacuum_sector_energy_zero():
    spec = LatticeSpec(2, 4)
    e, v = ed_ground(spec, 1.0, 2.0, None, PP, 0)
    assert e == pytest.approx(0.0, abs=1e-14)
    assert v.shape == (1,)


def test_spectrum_invariant_under_t_sign_2x2():
    spec = LatticeSpec(2, 2)
    a = ed_spectrum(spec, 1.0, 2.0, None, PP, 2).eigenvalues
    b = ed_spectrum(spec, -1.0, 2.0, None, PP, 2).eigenvalues
    assert np.allclose(a, b, atol=1e-10)


def test_size_guards(monkeypatch):
    with pytest.raises(ValueError):
        ed_hamiltonian(LatticeSpec(4, 4), 1.0, 0.0, None, PP, 2)
    with pytest.raises(ValueError):
        ed_hamiltonian(LatticeSpec(2, 2), 1.0, 0.0, None, PP, 5)
    # the dense guard sits where the matrix is allocated, so it covers every
    # ED entry point
    monkeypatch.setattr(oracle, "DENSE_GUARD", 5)
    spec = LatticeSpec(2, 2)  # n_f = 2: 6 states
    with pytest.raises(ValueError):
        ed_ground(spec, 1.0, 0.0, None, PP, 2)
    with pytest.raises(ValueError):
        exact_reference(spec, 1.0, 0.0, 2, np.zeros((6, 6)), np.zeros(6))
    with pytest.raises(ValueError):
        ed_spectrum(spec, 1.0, 0.0, None, PP, 2)
    assert ed_ground(spec, 1.0, 0.0, None, PP, 1)[1].shape == (4,)


def test_propagate_time_zero_returns_initial_occupations():
    spec = LatticeSpec(2, 4)
    _, v = ed_ground(spec, 1.0, 0.0, {Site(0, 0): -1.0, Site(0, 1): -1.0}, PP, 2)
    basis = sector_basis(spec.n_sites, 2)
    evals, evecs = np.linalg.eigh(ed_hamiltonian(spec, 1.0, 3.0, None, PP, 2))
    occupations = ed_propagate(evals, evecs, v, occupation_bits(basis, spec.n_sites),
                               times=[0.0, 0.5, 1.0])
    occ0 = np.array(
        [sum(abs(v[k]) ** 2 for k, m in enumerate(basis) if (int(m) >> i) & 1)
         for i in range(spec.n_sites)]
    )
    assert np.max(np.abs(occupations[0] - occ0)) < 1e-12
    # particle number conserved along the trajectory
    assert np.max(np.abs(occupations.sum(axis=1) - 2.0)) < 1e-10


def test_propagate_conserves_energy():
    spec = LatticeSpec(2, 2)
    _, v = ed_ground(spec, 1.0, 0.0, {Site(0, 0): -1.0}, PP, 2)
    H = ed_hamiltonian(spec, 1.0, 3.0, None, PP, 2)
    evals, evecs = np.linalg.eigh(H)
    psi0 = v.astype(complex)
    e0 = float(np.vdot(psi0, H @ psi0).real)
    for tau in (0.3, 1.7):
        psi = evecs @ (np.exp(-1j * evals * tau) * (evecs.conj().T @ psi0))
        assert float(np.vdot(psi, H @ psi).real) == pytest.approx(e0, abs=1e-10)


def test_propagate_input_validation():
    spec = LatticeSpec(2, 2)
    table = occupation_bits(sector_basis(spec.n_sites, 2), spec.n_sites)
    evals, evecs = np.linalg.eigh(ed_hamiltonian(spec, 1.0, 0.0, None, PP, 2))
    with pytest.raises(ValueError):
        ed_propagate(evals, evecs, np.ones(6), table, [0.0])
    with pytest.raises(ValueError):
        ed_propagate(evals, evecs, np.ones(5) / np.sqrt(5), table, [0.0])


def encoded_sector_spectra(spec, t, V, n_fs):
    basis = cached_basis(spec, constraint_set(spec))
    H = tv_hamiltonian(spec, t=t, V=V)
    out = {}
    for n_f in n_fs:
        cols = np.flatnonzero(basis.phys_occ == n_f)
        out[n_f] = np.sort(np.linalg.eigvalsh(restrict_sum(basis, H, cols)))
    return out


@pytest.mark.parametrize("shape", sorted(MATCHED_SECTOR))
def test_matched_bc_sector_fixture(shape):
    spec = LatticeSpec(*shape)
    enc = encoded_sector_spectra(spec, 1.0, 2.0, (0, 2))
    assert match_bc_sector(spec, 1.0, 2.0, enc) == MATCHED_SECTOR[shape]


def test_match_bc_sector_rejects_garbage():
    spec = LatticeSpec(2, 2)
    with pytest.raises(ValueError):
        match_bc_sector(spec, 1.0, 0.0, {2: np.arange(6.0)})


def test_bc_sector_search_reports_the_largest_matched_deviation():
    spec = LatticeSpec(2, 2)
    enc = encoded_sector_spectra(spec, 1.0, 2.0, (0, 2, 4))
    matches, dev = oracle.bc_sector_search(spec, 1.0, 2.0, enc)
    assert matches == [PP] == oracle.bc_sector_search(spec, 1.0, 2.0, enc)[0]
    want = max(np.max(np.abs(ed_spectrum(spec, 1.0, 2.0, None, PP, n_f).eigenvalues - vals))
               for n_f, vals in enc.items())
    assert dev == want <= 1e-8
    shifted = dict(enc)
    shifted[2] = enc[2] + 1e-9  # still within tol, and now the largest deviation
    matches, dev = oracle.bc_sector_search(spec, 1.0, 2.0, shifted)
    assert matches == [PP] and abs(dev - 1e-9) < 1e-12
    assert oracle.bc_sector_search(spec, 1.0, 2.0, {2: enc[2] + 1.0}) == ([], 0.0)
    assert oracle.bc_sector_search(spec, 1.0, 2.0, {2: enc[2] * np.nan}) == ([], 0.0)


@pytest.mark.parametrize("rho", [1, -1])
@pytest.mark.parametrize("shape", [(2, 2), (2, 4), (4, 2), (3, 3)])
def test_loop_targets_select_only_the_periodic_sector(shape, rho):
    # the exact references run ED in oracle.PERIODIC alone, so no other
    # boundary sector may share its spectrum in any sector 0 < n_f < N
    spec = LatticeSpec(*shape, rho)
    cs = constraint_set(spec)
    checked = 0
    for n_f in range(1, spec.n_sites):
        basis = cached_sector(spec, cs, n_f)
        if not basis.dim:  # the loops fix the occupation parity (odd on 3x3 at rho = +1)
            continue
        for V in (0.0, 1.7):
            enc = np.linalg.eigvalsh(restrict_sum(basis, tv_hamiltonian(spec, 1.3, V)))
            assert oracle.bc_sector_search(spec, 1.3, V, {n_f: enc})[0] == [oracle.PERIODIC]
        checked += 1
    assert checked == (spec.n_sites - 1) // 2


def signed_permutation_deviation(H, ed):
    """max |H - diag(s) ed diag(s)|, the signs s from a breadth-first walk
    over H's nonzero off-diagonal entries (s = +1 at each component's root)."""
    s = np.zeros(H.shape[0])
    for root in range(s.size):
        if s[root]:
            continue
        s[root], queue = 1.0, [root]
        for i in queue:
            for j in np.flatnonzero(H[i]):
                if not s[j]:
                    s[j] = s[i] if H[i, j] * ed[i, j] > 0 else -s[i]
                    queue.append(j)
    return float(np.max(np.abs(H - s[:, None] * ed * s)))


IDENTITY_CASES = ([((Lx, Ly), rho, 2) for Lx, Ly in ((2, 2), (2, 4), (4, 2)) for rho in (1, -1)]
                  + [((Lx, Ly), 1, 4) for Lx, Ly in ((2, 2), (2, 4), (4, 2))]
                  + [((3, 3), -1, n_f) for n_f in (2, 4)] + [((3, 3), 1, n_f) for n_f in (3, 5)]
                  + [((4, 4), rho, 2) for rho in (1, -1)])


@pytest.mark.parametrize("shape,rho,n_f", IDENTITY_CASES)
def test_sector_hamiltonian_is_the_periodic_ed_matrix_up_to_signs(shape, rho, n_f, monkeypatch):
    # the constrained subspace is the fermionic model: its columns are ED's
    # Fock states in ED's order, and the encoded matrix is the PERIODIC ED
    # matrix conjugated by a diagonal of +-1 signs; the flipped boundary
    # sectors fail the same check
    monkeypatch.setattr(oracle, "MAX_SITES", 16)
    spec = LatticeSpec(*shape, rho)
    sector = cached_sector(spec, constraint_set(spec), n_f)
    pots = {Site(0, 0): -0.7, Site(1, 1): 0.4}
    H = restrict_sum(sector, tv_hamiltonian(spec, 1.3, 1.7, pots))
    assert sector.dim and np.array_equal(sector.occ_masks, sector_basis(spec.n_sites, n_f))

    def deviation(bc):
        return signed_permutation_deviation(H, ed_hamiltonian(spec, 1.3, 1.7, pots, bc, n_f))

    assert deviation(oracle.PERIODIC) <= 1e-12
    if n_f < spec.n_sites:  # a filled lattice has no hopping to tell the sectors apart
        assert all(deviation(bc) > 1.0 for bc in ALL_SECTORS if bc != oracle.PERIODIC)


@pytest.mark.parametrize("shape,rho,n_f", IDENTITY_CASES)
def test_operator_deviation_allows_signs_and_rejects_a_reordered_basis(shape, rho, n_f,
                                                                        monkeypatch):
    # the run-time check: the identity above, with the signs found by the
    # library's own walk; a reordering keeps the spectrum but not the
    # operator, be it random or by smallest label (np.argsort of reps)
    monkeypatch.setattr(oracle, "MAX_SITES", 16)
    spec = LatticeSpec(*shape, rho)
    sector = cached_sector(spec, constraint_set(spec), n_f)
    pots = {Site(0, 0): -0.7, Site(1, 1): 0.4}
    H = restrict_sum(sector, tv_hamiltonian(spec, 1.3, 1.7, pots))
    ed = ed_hamiltonian(spec, 1.3, 1.7, pots, oracle.PERIODIC, n_f)
    rng = np.random.default_rng(11)
    s = rng.choice([-1.0, 1.0], size=sector.dim)
    assert oracle.operator_deviation(H, ed) <= 1e-12
    assert oracle.operator_deviation(s[:, None] * H * s, ed) <= 1e-12
    if sector.dim > 1:
        for q in (rng.permutation(sector.dim), np.argsort(sector.reps)):
            if np.array_equal(q, np.arange(sector.dim)):
                continue
            reordered = H[np.ix_(q, q)]
            assert np.max(np.abs(np.linalg.eigvalsh(reordered) - np.linalg.eigvalsh(H))) <= 1e-12
            assert oracle.operator_deviation(reordered, ed) > 0.1


@pytest.mark.parametrize("shape", [(2, 2), (2, 4), (3, 3)])
def test_exact_reference_rejects_a_hop_sign_mutant(shape, monkeypatch):
    # the reference passes on the encoded sector; with every fermionic hop
    # sign fixed at +1 it fails, and both of its checks miss by far
    spec = LatticeSpec(*shape)
    sector = cached_sector(spec, constraint_set(spec), 2)
    H = restrict_sum(sector, tv_hamiltonian(spec, 1.0, 2.0))
    evals = np.linalg.eigvalsh(H)
    ref_evals, ref_evecs = exact_reference(spec, 1.0, 2.0, 2, H, evals)
    assert ref_evecs.shape == (sector.dim, sector.dim)
    assert np.max(np.abs(ref_evals - evals)) <= 1e-8

    monkeypatch.setattr(oracle, "_hop_sign", lambda mask, i, j: +1)
    with pytest.raises(ScientificFailure, match="spectra differ"):
        exact_reference(spec, 1.0, 2.0, 2, H, evals)
    ed = ed_hamiltonian(spec, 1.0, 2.0, None, oracle.PERIODIC, 2)
    assert np.max(np.abs(np.linalg.eigvalsh(ed) - evals)) > 1.0  # bound 1e-8
    assert oracle.operator_deviation(H, ed) > 0.5  # bound 1e-12
