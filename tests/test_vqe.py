"""Variational solver: route agreement, gradients, optimizer behavior."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from f2q import circuits as C
from f2q import oracle, vqe
from f2q.circuits import apply_circuit, pair_creation
from f2q.lattice import InputError, LatticeSpec, ScientificFailure, edge_sites, edges, site_index
from f2q.pauli import constraint_set, pairing_string, tv_hamiltonian
from f2q.statevec import StateVector, cached_sector, expval, ground_in_sector

from dense_oracle import (circuit_unitary, dense_edge_table, pauli_apply, pauli_matrix,
                          reference_coefficients, reference_energies, reference_gradient,
                          sector_state, to_dense)


def lat(Lx, Ly):
    return LatticeSpec(Lx, Ly)


def config(spec, ansatz, layers, granularity="per_edge", V=2.0, n_f=2):
    return vqe.VqeConfig(spec=spec, t=1.0, V=V, n_f=n_f, ansatz=ansatz,
                         layers=layers, granularity=granularity)


def test_circuit_blocks_and_sector_forms_share_their_kinds():
    # the full route builds each layout entry from circuits.BLOCKS, the sector
    # route from _GATE_FORMS; every kind a layout emits must be in both
    assert set(C.BLOCKS) == set(vqe._GATE_FORMS)
    spec = lat(2, 2)
    layouts = [C.agate_layout(spec, 1), C.hv_layout(spec, 1, "per_group"),
               C.hv_layout(spec, 1, "per_edge")]
    emitted = {kind for layout in layouts for kind, _, _ in layout}
    assert emitted == set(C.BLOCKS)


def test_pairing_string_equals_pair_creation_unitary():
    spec = lat(2, 2)
    for e in edges(spec):
        want = pauli_matrix(pairing_string(spec, e))
        got = circuit_unitary(pair_creation(spec, e))
        assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("Lx,Ly", [(2, 4), (3, 3)])
def test_pairing_string_action_on_basis_states(Lx, Ly):
    # dense matrices are out of reach here; compare actions label by label
    spec = lat(Lx, Ly)
    rng = np.random.default_rng(2)
    for e in edges(spec):
        T = pairing_string(spec, e)
        circuit = pair_creation(spec, e)
        for y in rng.integers(0, 1 << spec.n_qubits, size=4):
            image = pauli_apply(T, to_dense(StateVector([int(y)], [1.0], spec.n_qubits)))
            z = int(np.flatnonzero(image)[0])
            coeff = image[z]
            state = StateVector([int(y)], [1.0], spec.n_qubits)
            apply_circuit(state, circuit)
            assert abs(to_dense(state)[z] - coeff) < 1e-12
            assert abs(np.linalg.norm(to_dense(state)) - 1.0) < 1e-12


TABLE_LAYOUTS = {
    "hv-1L-per_group": lambda spec: C.hv_layout(spec, 1, "per_group"),
    "hv-2L-per_edge": lambda spec: C.hv_layout(spec, 2, "per_edge"),
    "agate-2L": lambda spec: C.agate_layout(spec, 2),
}
TABLE_COLUMNS = ("_rows", "_partners", "_mate", "_slot0", "_slot1", "_scale", "_a", "_b", "_sig",
                 "_x", "_y")
TABLE_CASES = [
    (2, 2, 1, 2), (2, 4, 1, 2), (2, 4, -1, 2), (3, 3, -1, 2), (3, 3, 1, 3), (4, 2, 1, 4),
    (4, 4, 1, 2),
]


@pytest.mark.parametrize("Lx,Ly,rho,n_f", TABLE_CASES)
@pytest.mark.parametrize("layout", TABLE_LAYOUTS)
def test_gate_table_matches_dense_edge_tables(monkeypatch, Lx, Ly, rho, n_f, layout):
    spec = LatticeSpec(Lx, Ly, rho)
    basis = cached_sector(spec, constraint_set(spec), n_f)
    plan = TABLE_LAYOUTS[layout](spec)
    table = vqe.GateTable(spec, basis, plan)
    monkeypatch.setattr(vqe, "_edge_table", dense_edge_table)
    ref = vqe.GateTable(spec, basis, plan)
    for name in TABLE_COLUMNS:
        assert np.array_equal(getattr(table, name), getattr(ref, name)), name
    assert len(table.plan) == len(ref.plan)
    for (idx, rows, cut), (ref_idx, ref_rows, ref_cut) in zip(table.plan, ref.plan):
        assert np.array_equal(idx, ref_idx) and np.array_equal(rows, ref_rows)
        assert cut == ref_cut

    # the run cut is greedy and disjoint: each run moves distinct positions,
    # and each later run starts with an entry that touches the run before it
    entry_rows, start = {}, 0  # table offset -> the rows of the first entry there that moves any
    for kind, e, _ in plan:
        J, _, _, both = dense_edge_table(spec, basis, e)
        size = both.size if kind == "interaction" else 2 * J.size
        if size:
            entry_rows.setdefault(start, table._rows[start:start + size])
        start += size
    for k, (_, rows, cut) in enumerate(table.plan):
        assert np.unique(rows).size == rows.size
        if k:
            assert np.intersect1d(entry_rows[cut.start // 2], table.plan[k - 1][1]).size


@pytest.mark.parametrize("Lx,Ly,rho,n_f", TABLE_CASES + [(2, 2, 1, 0), (2, 2, 1, 4)])
@pytest.mark.parametrize("layout", TABLE_LAYOUTS)
def test_plan_gathers_each_table_row_once_in_order(Lx, Ly, rho, n_f, layout):
    # plan entry k covers the next rows of the table: its gather index is
    # [rows; partners], its rows are distinct, and its coefficient slice is
    # the same stretch of the [diag; off] layout that _x and _y point into
    spec = LatticeSpec(Lx, Ly, rho)
    table = vqe.GateTable(spec, cached_sector(spec, constraint_set(spec), n_f),
                          TABLE_LAYOUTS[layout](spec))
    start = 0
    for idx, rows, cut in table.plan:
        n = rows.size
        assert np.array_equal(rows, table._rows[start:start + n])
        assert np.array_equal(idx, np.concatenate([rows, table._partners[start:start + n]]))
        assert np.unique(rows).size == n
        assert cut == slice(2 * start, 2 * (start + n))
        start += n
    assert start == table._rows.size
    gathered = np.concatenate([idx for idx, _, _ in table.plan])
    assert np.array_equal(gathered[table._x], table._rows)
    assert np.array_equal(gathered[table._y], table._partners)


REFERENCE_CASES = [(2, 2, 1, 2), (2, 4, 1, 2), (2, 4, -1, 2), (3, 3, -1, 2), (4, 2, 1, 4)]
REFERENCE_ANSATZE = [("agate", 2, "per_edge"), ("agate", 3, "per_edge"), ("hv", 3, "per_edge"),
                     ("hv", 2, "per_group")]


@pytest.mark.parametrize("Lx,Ly,rho,n_f", REFERENCE_CASES)
@pytest.mark.parametrize("ansatz,layers,granularity", REFERENCE_ANSATZE)
def test_plan_sweeps_equal_the_reference_bit_for_bit(Lx, Ly, rho, n_f, ansatz, layers,
                                                    granularity):
    # the class coefficients, the gathered sweep and the gradient from the
    # gathered amplitudes against the row-by-row formula and whole stored
    # states, at angles beyond +-pi
    spec = LatticeSpec(Lx, Ly, rho)
    cfg = vqe.VqeConfig(spec=spec, t=1.0, V=2.0, n_f=n_f, ansatz=ansatz, layers=layers,
                        granularity=granularity)
    model = vqe.SectorModel(cfg)
    rng = np.random.default_rng(Lx + 5 * Ly + 11 * n_f + layers)
    P = rng.uniform(-2 * np.pi, 2 * np.pi, (3, cfg.n_params))
    forward, derivative, adjoint = model.coefficients(P)
    diag, off, d_diag, d_off = (c.T for c in reference_coefficients(model, P))
    x, y = model._x, model._y
    assert np.array_equal(forward[:, x], diag) and np.array_equal(forward[:, y], off)
    assert np.array_equal(derivative[:, x], d_diag) and np.array_equal(derivative[:, y], d_off)
    assert np.array_equal(adjoint[:, x], diag)
    assert np.array_equal(adjoint[:, y], off[:, model._mate].conj())
    assert np.array_equal(model.energies(P), reference_energies(model, P))
    for p in P:
        energy, grad = model.gradient(p)
        ref_energy, ref_grad = reference_gradient(model, p)
        assert energy == ref_energy and np.array_equal(grad, ref_grad)


@pytest.mark.parametrize("kind,rho", [(kind, 1) for kind in vqe._GATE_FORMS] + [("hop_x", -1)])
def test_every_gate_form_field_moves_the_route_deviation(monkeypatch, kind, rho):
    # shift one field of one kind's sector form by 0.5; the full route, built
    # from circuits.BLOCKS, must then disagree with the sector route
    spec = LatticeSpec(2, 4, rho)
    ansatz = "agate" if kind in ("vx", "vy") else "hv"
    cfg = config(spec, ansatz, layers=1)
    params = np.random.default_rng(13).uniform(-1.0, 1.0, cfg.n_params)
    assert vqe._spot_check(vqe.SectorModel(cfg), params)[1] <= 1e-10
    form = vqe._GATE_FORMS[kind]
    for field in range(len(form)):
        monkeypatch.setitem(vqe._GATE_FORMS, kind,
                            form[:field] + (form[field] + 0.5,) + form[field + 1:])
        assert vqe._spot_check(vqe.SectorModel(cfg), params)[1] > 1e-10, (kind, field)


def test_gate_table_build_stays_below_one_dense_matrix():
    # 4x4 at n_f = 4 (1820 columns): one dense complex restriction would take 16 dim^2 bytes
    spec = lat(4, 4)
    basis = cached_sector(spec, constraint_set(spec), 4)
    layout = C.hv_layout(spec, 1, "per_group")
    tracemalloc.start()
    try:
        vqe.GateTable(spec, basis, layout)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * basis.dim ** 2


def test_edge_table_fails_when_an_entry_is_dropped(monkeypatch):
    # dropping the entry of a column with s occupied and r empty leaves it
    # with no partner; dropping any other entry leaves the table as it was
    spec = lat(2, 4)
    basis = cached_sector(spec, constraint_set(spec), 2)
    e = edges(spec)[0]
    want = vqe._edge_table(spec, basis, e)
    r, s = (site_index(spec, x) for x in edge_sites(spec, e))
    entries = vqe.restrict_between(basis, basis, [(1, pairing_string(spec, e))])
    for m, j in enumerate(entries[1]):
        monkeypatch.setattr(vqe, "restrict_between",
                            lambda *_, m=m: tuple(np.delete(x, m) for x in entries))
        if basis.occ_masks[j] >> s & 1 and not basis.occ_masks[j] >> r & 1:
            with pytest.raises(ScientificFailure, match="no pairing partner"):
                vqe._edge_table(spec, basis, e)
        else:
            got = vqe._edge_table(spec, basis, e)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))


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
        model = vqe.SectorModel(cfg)
        es = model.energy(p)
        ef = expval(vqe.full_state(model, p), tv_hamiltonian(cfg.spec, cfg.t, cfg.V))
        assert abs(es - ef) < 1e-11


def test_agate_zero_params_energy_is_initial_expectation():
    # theta = 0 A-gates only dress occupied columns with signs
    cfg = config(lat(2, 4), "agate", layers=2)
    e0 = vqe.SectorModel(cfg).energy(np.zeros(cfg.n_params))
    state = vqe.initial_state_full(vqe.SectorModel(cfg))
    want = expval(state, tv_hamiltonian(cfg.spec, cfg.t, cfg.V))
    assert abs(e0 - want) < 1e-12


def test_hv_zero_params_reproduces_free_fermion_ground():
    spec = lat(2, 4)
    cfg = config(spec, "hv", layers=2, granularity="per_group", V=0.0)
    e0 = vqe.SectorModel(cfg).energy(np.zeros(cfg.n_params))
    e_ff, _ = ground_in_sector(tv_hamiltonian(spec, 1.0, 0.0), spec, constraint_set(spec), 2)
    assert abs(e0 - e_ff) < 1e-11

    cfg_v = config(spec, "hv", layers=2, granularity="per_group", V=2.0)
    _, state = ground_in_sector(tv_hamiltonian(spec, 1.0, 0.0), spec, constraint_set(spec), 2)
    want = expval(state, tv_hamiltonian(spec, 1.0, 2.0))
    assert abs(vqe.SectorModel(cfg_v).energy(np.zeros(cfg_v.n_params)) - want) < 1e-11


def test_hv_initial_vector_is_complex():
    # sector_ground's vector is real, and apply_ansatz writes complex
    # amplitudes into copies of the start vector
    model = vqe.SectorModel(config(lat(2, 4), "hv", layers=1, granularity="per_group"))
    vec = model.initial_vector()
    assert vec.dtype == np.complex128 and not np.any(vec.imag)


def test_agate_sector_state_matches_full_state():
    cfg = config(lat(2, 2), "agate", layers=2)
    rng = np.random.default_rng(5)
    p = rng.uniform(-0.7, 0.7, cfg.n_params)
    model = vqe.SectorModel(cfg)
    sec = sector_state(model, p)
    full = vqe.full_state(model, p)
    overlap = np.vdot(to_dense(full), to_dense(sec))
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
    table = vqe.SectorModel.coefficients

    def counted(self, params):
        calls.append(params.shape)
        return table(self, params)

    monkeypatch.setattr(vqe.SectorModel, "coefficients", counted)
    energy, grad = model.gradient(p)
    assert calls == [(1, model.config.n_params)]
    assert energy == want[0] and np.array_equal(grad, want[1])


def test_energy_rejects_wrong_param_count():
    cfg = config(lat(2, 2), "agate", layers=1)
    with pytest.raises(ValueError):
        vqe.SectorModel(cfg).energy(np.zeros(cfg.n_params + 1))


@pytest.mark.parametrize("ansatz,granularity", [("agate", "per_edge"), ("hv", "per_group")])
@pytest.mark.parametrize("extra", [-1, 1])
def test_sector_model_rejects_wrong_param_count(ansatz, granularity, extra):
    # energies and gradient share coefficients, which checks the count
    cfg = config(lat(2, 2), ansatz, layers=1, granularity=granularity)
    model = vqe.SectorModel(cfg)
    p = np.zeros(cfg.n_params + extra)
    with pytest.raises(ValueError, match=f"expected {cfg.n_params} parameters"):
        model.energy(p)
    with pytest.raises(ValueError, match=f"expected {cfg.n_params} parameters"):
        model.gradient(p)


def test_pair_edge_count_must_match_n_f():
    spec = lat(2, 2)
    # 2x2 has four sites, so the default cannot find three disjoint edges
    with pytest.raises(InputError):
        vqe.VqeConfig(spec=spec, t=1.0, V=1.0, n_f=6, ansatz="agate", layers=1)


def test_config_is_frozen_with_derived_fields():
    # family and pair_edges derive from the other fields once, so none may change after
    cfg = config(lat(2, 2), "agate", layers=1)
    assert cfg.family == C.Ansatz(cfg.spec, "agate", 1, "per_edge")
    assert cfg.pair_edges == vqe._disjoint_edges(cfg.spec, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.layers = 2
    with pytest.raises(TypeError):
        vqe.VqeConfig(spec=cfg.spec, t=1.0, V=1.0, n_f=2, pair_edges=cfg.pair_edges)


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
