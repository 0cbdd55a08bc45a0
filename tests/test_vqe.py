"""Variational solver: route agreement, gradients, optimizer behavior."""

import numpy as np
import pytest

from f2q import oracle, vqe
from f2q.circuits import apply_circuit, pair_creation
from f2q.lattice import Edge, InputError, LatticeSpec, Site, edge_sites, edges, site_index
from f2q.pauli import constraint_set, tv_hamiltonian
from f2q.statevec import StateVector, apply_pauli, expval, ground_in_sector

from dense_oracle import circuit_unitary, pauli_matrix, sector_state


def lat(Lx, Ly):
    return LatticeSpec(Lx, Ly)


def config(spec, ansatz, layers, granularity="per_edge", V=2.0, n_f=2):
    return vqe.VqeConfig(spec=spec, t=1.0, V=V, n_f=n_f, ansatz=ansatz,
                         layers=layers, granularity=granularity)


def test_pairing_string_equals_pair_creation_unitary():
    spec = lat(2, 2)
    for e in edges(spec):
        want = pauli_matrix(vqe.pairing_string(spec, e))
        got = circuit_unitary(pair_creation(spec, e))
        assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("Lx,Ly", [(2, 4), (3, 3)])
def test_pairing_string_action_on_basis_states(Lx, Ly):
    # dense matrices are out of reach here; compare actions label by label
    spec = lat(Lx, Ly)
    rng = np.random.default_rng(2)
    for e in edges(spec):
        T = vqe.pairing_string(spec, e)
        circuit = pair_creation(spec, e)
        for y in rng.integers(0, 1 << spec.n_qubits, size=4):
            image = StateVector([int(y)], [1.0], spec.n_qubits)
            apply_pauli(image, T)
            z = int(np.flatnonzero(image.to_dense())[0])
            coeff = image.to_dense()[z]
            state = StateVector([int(y)], [1.0], spec.n_qubits)
            apply_circuit(state, circuit)
            assert abs(state.to_dense()[z] - coeff) < 1e-12
            assert abs(np.linalg.norm(state.to_dense()) - 1.0) < 1e-12


@pytest.mark.parametrize("Lx,Ly,n_f", [
    pytest.param(2, 2, 2, id="2-2"), pytest.param(2, 4, 2, id="2-4"),
    pytest.param(3, 3, 2, id="3-3"), pytest.param(2, 4, 4, id="2-4-nf4"),
])
@pytest.mark.parametrize("ansatz,granularity", [
    ("agate", "per_edge"), ("hv", "per_group"), ("hv", "per_edge"),
])
def test_sector_route_matches_full_route(Lx, Ly, n_f, ansatz, granularity):
    cfg = config(lat(Lx, Ly), ansatz, layers=2, granularity=granularity, n_f=n_f)
    rng = np.random.default_rng(17 + Lx + Ly)
    for _ in range(3):
        p = rng.uniform(-0.6, 0.6, cfg.n_params)
        es = vqe.energy(cfg, p, route="sector")
        ef = vqe.energy(cfg, p, route="full")
        assert abs(es - ef) < 1e-11


def test_agate_zero_params_energy_is_initial_expectation():
    # theta = 0 A-gates only dress occupied columns with signs
    cfg = config(lat(2, 4), "agate", layers=2)
    e0 = vqe.energy(cfg, np.zeros(cfg.n_params), route="sector")
    state = vqe.initial_state_full(vqe.SectorModel(cfg))
    want = expval(state, tv_hamiltonian(cfg.spec, cfg.t, cfg.V))
    assert abs(e0 - want) < 1e-12


def test_hv_zero_params_reproduces_free_fermion_ground():
    spec = lat(2, 4)
    cfg = config(spec, "hv", layers=2, granularity="per_group", V=0.0)
    e0 = vqe.energy(cfg, np.zeros(cfg.n_params), route="sector")
    e_ff, _ = ground_in_sector(tv_hamiltonian(spec, 1.0, 0.0), spec, constraint_set(spec), 2)
    assert abs(e0 - e_ff) < 1e-11

    cfg_v = config(spec, "hv", layers=2, granularity="per_group", V=2.0)
    _, state = ground_in_sector(tv_hamiltonian(spec, 1.0, 0.0), spec, constraint_set(spec), 2)
    want = expval(state, tv_hamiltonian(spec, 1.0, 2.0))
    assert abs(vqe.energy(cfg_v, np.zeros(cfg_v.n_params), route="sector") - want) < 1e-11


def test_agate_sector_state_matches_full_state():
    cfg = config(lat(2, 2), "agate", layers=2)
    rng = np.random.default_rng(5)
    p = rng.uniform(-0.7, 0.7, cfg.n_params)
    model = vqe.SectorModel(cfg)
    sec = sector_state(model, p)
    full = vqe.initial_state_full(model)
    apply_circuit(full, vqe.ansatz_circuit(cfg, p))
    overlap = np.vdot(full.to_dense(), sec.to_dense())
    assert abs(abs(overlap) - 1.0) < 1e-12


@pytest.mark.parametrize("ansatz,granularity", [("agate", "per_edge"), ("hv", "per_edge")])
def test_gradient_matches_directional_derivative(ansatz, granularity):
    cfg = config(lat(2, 4), ansatz, layers=2, granularity=granularity)
    rng = np.random.default_rng(23)
    p = rng.uniform(-0.3, 0.3, cfg.n_params)
    d = rng.normal(size=cfg.n_params)
    d /= np.linalg.norm(d)
    model = vqe.SectorModel(cfg)
    _, g = model.gradient(p)
    eps = 1e-5
    num = (model.energy(p + eps * d) - model.energy(p - eps * d)) / (2 * eps)
    assert abs(float(g @ d) - num) < 1e-6


@pytest.mark.parametrize("ansatz,granularity", [("agate", "per_edge"), ("hv", "per_edge")])
def test_gradient_centre_energy_matches_energy(ansatz, granularity):
    cfg = config(lat(2, 4), ansatz, layers=2, granularity=granularity)
    p = np.random.default_rng(29).uniform(-0.5, 0.5, cfg.n_params)
    model = vqe.SectorModel(cfg)
    e, _ = model.gradient(p)
    assert abs(e - model.energy(p)) < 1e-13


@pytest.mark.parametrize("Lx,Ly,ansatz,granularity", [
    (2, 4, "agate", "per_edge"), (2, 4, "hv", "per_edge"), (2, 4, "hv", "per_group"),
    (3, 3, "agate", "per_edge"), (3, 3, "hv", "per_edge"),  # rho = -1 flips hop_x
])
def test_adjoint_gradient_matches_central_differences(Lx, Ly, ansatz, granularity):
    cfg = config(lat(Lx, Ly), ansatz, layers=2, granularity=granularity)
    p = np.random.default_rng(31).uniform(-0.5, 0.5, cfg.n_params)
    model = vqe.SectorModel(cfg)
    _, g = model.gradient(p)
    eps = 1e-5
    steps = eps * np.eye(cfg.n_params)
    num = (model.energies(p + steps) - model.energies(p - steps)) / (2 * eps)
    assert np.max(np.abs(g - num)) <= 1e-7


def test_adam_step_is_one_sweep(monkeypatch):
    # one single-column forward sweep per step plus the one at the start
    # point; the last step evaluates only the energy
    cfg = config(lat(2, 2), "agate", layers=1)
    model = vqe.SectorModel(cfg)
    columns = []
    forward = vqe.SectorModel.apply_ansatz

    def counted(self, vecs, params, *args):
        columns.append(vecs.shape[1])
        return forward(self, vecs, params, *args)

    monkeypatch.setattr(vqe.SectorModel, "apply_ansatz", counted)
    k = 7
    energies, *_ = vqe._adam_descent(model, vqe.OptimizerConfig(max_steps=k, tolerance=0.0), 3)
    assert len(energies) == k + 1
    assert columns == [1] * (k + 1)


def test_gradient_builds_one_coefficient_table(monkeypatch):
    # the forward sweep reuses the table the backward sweep reads
    model = vqe.SectorModel(config(lat(2, 2), "agate", layers=2))
    p = np.random.default_rng(4).uniform(-0.5, 0.5, model.config.n_params)
    want = model.gradient(p)
    calls = []
    table = vqe.SectorModel._coefficients

    def counted(self, params):
        calls.append(params.shape)
        return table(self, params)

    monkeypatch.setattr(vqe.SectorModel, "_coefficients", counted)
    energy, grad = model.gradient(p)
    assert calls == [(1, model.config.n_params)]
    assert energy == want[0] and np.array_equal(grad, want[1])


def test_energy_rejects_wrong_param_count():
    cfg = config(lat(2, 2), "agate", layers=1)
    with pytest.raises(ValueError):
        vqe.energy(cfg, np.zeros(cfg.n_params + 1))


def test_pair_edges_must_not_overlap():
    spec = lat(2, 2)
    # both wrap x-edges in row 0 connect the same two sites
    clashing = (Edge(Site(0, 0), "x"), Edge(Site(1, 0), "x"))
    with pytest.raises(ValueError):
        cfg = vqe.VqeConfig(spec=spec, t=1.0, V=1.0, n_f=4, ansatz="agate",
                            layers=1, pair_edges=clashing)
        vqe.SectorModel(cfg).initial_vector()

    disjoint = (Edge(Site(0, 0), "x"), Edge(Site(0, 1), "x"))
    cfg = vqe.VqeConfig(spec=spec, t=1.0, V=1.0, n_f=4, ansatz="agate",
                        layers=1, pair_edges=disjoint)
    vec = vqe.SectorModel(cfg).initial_vector()
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-12


def test_pair_edge_count_must_match_n_f():
    spec = lat(2, 2)
    with pytest.raises(ValueError):
        vqe.VqeConfig(spec=spec, t=1.0, V=1.0, n_f=4, ansatz="agate", layers=1,
                      pair_edges=(Edge(Site(0, 0), "x"),))
    # 2x2 has four sites, so the default cannot find three disjoint edges
    with pytest.raises(InputError):
        vqe.VqeConfig(spec=spec, t=1.0, V=1.0, n_f=6, ansatz="agate", layers=1)


def test_run_small_lattice_converges_to_exact():
    cfg = config(lat(2, 2), "agate", layers=2)
    tr = vqe.run(cfg, vqe.OptimizerConfig(max_steps=600, seed=3))
    assert tr.relative_error_raw < 1e-9
    assert tr.relative_error == 0.0
    assert tr.matched_sector == (1, 1)
    assert tr.constraint_deviation <= 1e-10
    assert tr.dual_route_deviation <= 1e-9
    assert tr.final_energy >= tr.exact_energy - 1e-9
    assert tr.final_energy <= tr.energies[0] + 1e-12
    assert tr.final_energy == pytest.approx(np.min(tr.energies), abs=1e-12)


def test_run_deterministic_by_seed():
    cfg = config(lat(2, 2), "hv", layers=1, granularity="per_group")
    opt = vqe.OptimizerConfig(max_steps=120, seed=9)
    a = vqe.run(cfg, opt)
    b = vqe.run(cfg, opt)
    assert np.array_equal(a.energies, b.energies)
    assert np.array_equal(a.best_params, b.best_params)
    c = vqe.run(cfg, vqe.OptimizerConfig(max_steps=120, seed=10))
    assert a.energies[0] != c.energies[0]


def test_restarts_keep_best_start():
    cfg = config(lat(2, 2), "agate", layers=1)
    single = [vqe.run(cfg, vqe.OptimizerConfig(max_steps=80, seed=s)).final_energy
              for s in (4, 5)]
    multi = vqe.run(cfg, vqe.OptimizerConfig(max_steps=80, seed=4, restarts=2))
    assert multi.final_energy <= min(single) + 1e-12


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        vqe.OptimizerConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        vqe.OptimizerConfig(restarts=0)
    with pytest.raises(InputError):
        vqe.OptimizerConfig(tolerance=-1.0)
    with pytest.raises(ValueError):
        vqe.VqeConfig(spec=lat(2, 2), t=1.0, V=1.0, n_f=3, ansatz="agate", layers=1)
    with pytest.raises(ValueError):
        vqe.VqeConfig(spec=lat(2, 2), t=1.0, V=1.0, n_f=2, ansatz="qaoa", layers=1)


@pytest.mark.parametrize("field", ["learning_rate", "lr_decay", "tolerance"])
def test_optimizer_config_rejects_nan(field):
    # a NaN tolerance would never be reached, silently turning off convergence
    with pytest.raises(InputError):
        vqe.OptimizerConfig(**{field: float("nan")})


@pytest.mark.parametrize("Lx,Ly", [(2, 4), (3, 3)])
def test_four_fermions_on_default_edges_match_ed(Lx, Ly):
    spec = lat(Lx, Ly)
    cfg = config(spec, "agate", layers=1, n_f=4)
    ends = [r for e in cfg.pair_edges for r in edge_sites(spec, e)]
    assert len(cfg.pair_edges) == 2 and len(set(ends)) == 4

    # at zero angles the state is the pair-created Fock state, whose energy
    # is its diagonal element of the fermionic Hamiltonian (any boundary sector)
    model = vqe.SectorModel(cfg)
    h_ed = oracle.ed_hamiltonian(spec, cfg.t, cfg.V, None, oracle.ALL_SECTORS[0], 4)
    mask = sum(1 << site_index(spec, r) for r in ends)
    k = int(np.flatnonzero(oracle.sector_basis(spec.n_sites, 4) == mask)[0])
    assert abs(model.energy(np.zeros(cfg.n_params)) - h_ed[k, k]) < 1e-12

    tr = vqe.run(cfg, vqe.OptimizerConfig(max_steps=20, seed=3))
    sector = oracle.BCSector(*tr.matched_sector)
    e_ed, _ = oracle.ed_ground(spec, cfg.t, cfg.V, None, sector, 4)
    assert abs(tr.exact_energy - e_ed) < 1e-12
    assert tr.final_energy >= e_ed - 1e-9
    assert tr.constraint_deviation <= 1e-10 and tr.dual_route_deviation <= 1e-10
