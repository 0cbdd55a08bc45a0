"""Acceptance gate: one test per criterion, one pass/fail line each.

Lines are collected in RESULTS and echoed after the run by the conftest
terminal-summary hook (pytest captures even the low-level streams during
tests). Every tolerance is stated inline next to its check.

The 4x4 register (32 qubits) is beyond dense simulation, so criterion 1
verifies it by composing two exact arguments: stabilizer expectations are
tracked through the Clifford preparation layers gate by gate, and every
non-Clifford evolution block is certified to commute with every stabilizer
on its support (hence preserves the tracked expectations identically).
"""

import time
from math import comb

import numpy as np
from scipy.linalg import expm

from f2q import oracle, vqe
from f2q import circuits as C
from f2q import pauli as P
from f2q.circuits import (
    ansatz_agate,
    apply_circuit,
    pair_creation,
    schedule,
    stabilizer_expectations,
    trotter_blocks,
    trotter_step,
    vacuum_circuit,
    vx_native,
    vy_native,
    w_circuit,
    zyx_rotation,
)
from f2q.lattice import (
    Edge,
    LatticeSpec,
    Site,
    edge_sites,
    edges,
    phys_index,
    sites,
)
from f2q.pauli import constraint_set, number_sum, tv_hamiltonian
from f2q.statevec import cached_basis, expval_string, restrict_sum, zero_state

from dense_oracle import (circuit_unitary, pauli_matrix, pauli_sum_matrix, restrict_circuit,
                          symplectic_dimension, vx_gate, vy_gate)


RESULTS = []


def emit(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    RESULTS.append(line)
    print(line)


def constraint_deviation_state(state, cs) -> float:
    return max(abs(expval_string(state, s) - target) for s, target in cs)


def _random_agate_params(spec: LatticeSpec, layers: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.5, 0.5, C.agate_param_count(spec, layers))


# --------------------------------------------------------------- criterion 1

def _block_commutes_with_stabilizers(block, cs, tol=1e-12) -> bool:
    support = sorted({q for g in block for q in g.targets})
    U = circuit_unitary(restrict_circuit(block, support))
    for s, _ in cs:
        letters = {i: s.letters[q] for i, q in enumerate(support) if s.letters[q]}
        M = pauli_matrix(P.PauliString(len(support), letters))
        if np.max(np.abs(U @ M - M @ U)) > tol:
            return False
    return True


def _check_tracked_4x4(t, V, dt, seed) -> float:
    spec = LatticeSpec(4, 4)
    cs = constraint_set(spec)
    prep = vacuum_circuit(spec)
    dev = max(abs(v - tgt) for v, (_, tgt) in
              zip(stabilizer_expectations(prep, cs), cs))
    prep.extend(pair_creation(spec, Edge(Site(0, 0), "x")))
    dev = max(dev, max(abs(v - tgt) for v, (_, tgt) in
                       zip(stabilizer_expectations(prep, cs), cs)))

    # the remaining layers preserve each expectation identically; the A-gate
    # blocks commute only as a whole, not gate by gate
    params = _random_agate_params(spec, 1, seed)
    ansatz = C.Circuit(spec.n_qubits)
    for kind, e, (i, j) in C.agate_layout(spec, 1):
        block = (vy_native if kind == "vy" else vx_native)(spec, e, params[i], params[j])
        assert _block_commutes_with_stabilizers(block, cs)
        ansatz.extend(block)
    assert ansatz == ansatz_agate(spec, 1, params)
    for _, _, block in trotter_blocks(spec, t, V, dt):
        assert _block_commutes_with_stabilizers(block, cs)
    return dev


def _check_statevector(spec, t, V, dt, seed) -> float:
    cs = constraint_set(spec)
    state = zero_state(spec.n_qubits)
    apply_circuit(state, vacuum_circuit(spec))
    dev = constraint_deviation_state(state, cs)
    apply_circuit(state, pair_creation(spec, Edge(Site(0, 0), "x")))
    dev = max(dev, constraint_deviation_state(state, cs))
    apply_circuit(state, ansatz_agate(spec, 1, _random_agate_params(spec, 1, seed)))
    dev = max(dev, constraint_deviation_state(state, cs))
    step = trotter_step(spec, t, V, dt)
    for _ in range(10):
        apply_circuit(state, step)
    return max(dev, constraint_deviation_state(state, cs))


def test_criterion_1_constraint_exactness():
    devs = {}
    for Lx, Ly in [(2, 2), (2, 4), (3, 3)]:
        devs[(Lx, Ly)] = _check_statevector(LatticeSpec(Lx, Ly), 1.0, 2.0, 0.05, seed=11)
    devs[(4, 4)] = _check_tracked_4x4(1.0, 2.0, 0.05, seed=11)
    worst = max(devs.values())
    ok = worst < 1e-10
    emit(1, "constraint-exactness", ok,
         f"max deviation {worst:.2e} over {sorted(devs)} at tol 1e-10")
    assert ok


# --------------------------------------------------------------- criterion 2

def test_criterion_2_vacuum_gate_count():
    results = []
    ok = True
    for Lx, Ly in [(2, 2), (2, 4), (3, 3), (4, 4), (6, 6), (10, 10)]:
        spec = LatticeSpec(Lx, Ly)
        got = sum(1 for g in vacuum_circuit(spec) if g.arity >= 2)
        want = 3 * (Lx - 1) * (Ly - 1)
        ok &= got == want
        results.append(f"{Lx}x{Ly}:{got}")
    emit(2, "vacuum-two-qubit-count", ok,
         "3(Lx-1)(Ly-1) exact; " + " ".join(results))
    assert ok


# --------------------------------------------------------------- criterion 3

def _signed_loop_product(cs):
    """Product of target * S over the Wilson loops (the all-Z stabilizers)."""
    prod = P.identity(cs.n)
    for s, target in cs:
        if set(s.letters) <= {P.I, P.Z}:
            prod = prod.mul(P.PauliString(cs.n, s.letters, 0 if target == 1 else 2))
    return prod


def test_criterion_3_subspace_dimension():
    # Every loop stabilizer S with target t forces t*S = +1, and the product
    # of all t*S is +Z on every physical qubit, so only even occupations
    # survive: one encoded state per even fermionic Fock state, 2^(N-1).
    dims, gf2_dims, counts, parity = {}, {}, {}, {}
    ok = True
    for Lx, Ly in [(2, 2), (3, 3)]:
        spec = LatticeSpec(Lx, Ly)
        N = spec.n_sites
        cs = constraint_set(spec)
        basis = cached_basis(spec, cs)
        even = {n: comb(N, n) for n in range(0, N + 1, 2)}
        z_phys = P.PauliString(cs.n, {phys_index(spec, r): P.Z for r in sites(spec)})
        key = (Lx, Ly)
        dims[key] = basis.dim
        gf2_dims[key] = symplectic_dimension(cs)
        counts[key] = basis.occ_counts
        parity[key] = _signed_loop_product(cs) == z_phys
        ok &= (basis.dim == gf2_dims[key] == sum(even.values()) == 1 << (N - 1)
               and basis.occ_counts == even
               and parity[key])
    emit(3, "subspace-dimension", ok,
         f"dims {dims}, GF(2)-rank dims {gf2_dims}, required 2^(N-1); "
         f"sector counts {counts}, required C(N, n) for even n only; "
         f"signed loop product == +Z^N on physical qubits: {parity}")
    assert ok


# --------------------------------------------------------------- criterion 4

def _encoded_sector_spectra(spec, t, V, n_fs):
    basis = cached_basis(spec, constraint_set(spec))
    H = tv_hamiltonian(spec, t, V)
    out = {}
    for n_f in n_fs:
        cols = np.flatnonzero(basis.phys_occ == n_f)
        out[n_f] = np.linalg.eigvalsh(restrict_sum(basis, H, cols))
    return out


def test_criterion_4_spectrum_equivalence():
    checks = []
    ok = True
    spec22 = LatticeSpec(2, 2)
    for V in (0.0, 2.0):
        encoded = _encoded_sector_spectra(spec22, 1.0, V, (0, 2, 4))
        sector = oracle.match_bc_sector(spec22, 1.0, V, encoded, tol=1e-8)
        dev = max(float(np.max(np.abs(
            oracle.ed_spectrum(spec22, 1.0, V, None, sector, n).eigenvalues - vals)))
            if vals.size else 0.0
            for n, vals in encoded.items())
        ok &= dev < 1e-8
        checks.append(f"2x2(V={V:g},full):{dev:.1e}")
    for Lx, Ly in [(2, 4), (3, 3)]:
        spec = LatticeSpec(Lx, Ly)
        encoded = _encoded_sector_spectra(spec, 1.0, 2.0, (2,))
        sector = oracle.match_bc_sector(spec, 1.0, 2.0, encoded, tol=1e-8)
        dev = float(np.max(np.abs(
            oracle.ed_spectrum(spec, 1.0, 2.0, None, sector, 2).eigenvalues - encoded[2])))
        ok &= dev < 1e-8
        checks.append(f"{Lx}x{Ly}(n_f=2):{dev:.1e}")
    emit(4, "spectrum-equivalence", ok, "tol 1e-8; " + " ".join(checks))
    assert ok


# --------------------------------------------------------------- criterion 5

def test_criterion_5_trotter_convergence():
    from f2q.quench import quench_trajectories
    spec = LatticeSpec(2, 4)
    pots = {Site(0, 0): -1.0, Site(0, 1): -1.0}
    errs = {}
    ref_dev = 0.0
    for dt in (0.1, 0.05, 0.025):
        _, occ_tr, occ_enc, occ_fm = quench_trajectories(
            spec, 1.0, 3.0, 2, pots, dt, 2.0)
        errs[dt] = float(np.max(np.abs(occ_tr - occ_enc)))
        ref_dev = max(ref_dev, float(np.max(np.abs(occ_enc - occ_fm))))
    r1 = errs[0.1] / errs[0.05]
    r2 = errs[0.05] / errs[0.025]
    ok = (1.6 <= r1 <= 2.4) and (1.6 <= r2 <= 2.4) and ref_dev <= 1e-8
    emit(5, "trotter-convergence", ok,
         f"error ratios {r1:.2f}, {r2:.2f} in [1.6,2.4]; "
         f"exact references agree to {ref_dev:.1e} (tol 1e-8)")
    assert ok


# --------------------------------------------------------------- criterion 6

def _vqe_point(spec, V, ansatz, layers, granularity, max_steps, restarts=1):
    cfg = vqe.VqeConfig(spec=spec, t=1.0, V=V, n_f=2, ansatz=ansatz,
                        layers=layers, granularity=granularity)
    opt = vqe.OptimizerConfig(max_steps=max_steps, seed=3, restarts=restarts)
    return vqe.run(cfg, opt)


def test_criterion_6_vqe_2x4_grid():
    spec = LatticeSpec(2, 4)
    ok = True
    rows = []
    for V in (0.5, 1.0, 2.0, 3.0, 4.0):
        for ansatz, layers, gran, steps, restarts, tol in [
            ("agate", 2, "per_edge", 2500, 3, 1e-2),
            ("agate", 3, "per_edge", 5000, 1, 1e-4),
            ("hv", 3, "per_edge", 2500, 1, 1e-4),
        ]:
            tr = _vqe_point(spec, V, ansatz, layers, gran, steps, restarts)
            good = (tr.relative_error_raw <= tol
                    and tr.final_energy >= tr.exact_energy - 1e-9
                    and (tr.relative_error == 0.0) == (tr.relative_error_raw < 1e-6))
            ok &= good
            rows.append(f"V={V:g}/{ansatz}{layers}L:{tr.relative_error_raw:.1e}"
                        + ("" if good else "!"))
    emit(6, "vqe-2x4-grid", ok,
         "agate 2L tol 1e-2, agate 3L and hv(per-edge) 3L tol 1e-4; "
         + " ".join(rows))
    assert ok


# --------------------------------------------------------------- criterion 7

def test_criterion_7_vqe_3x3_odd_lattice():
    start = time.perf_counter()
    spec = LatticeSpec(3, 3)
    assert spec.rho == -1
    t2 = _vqe_point(spec, 3.0, "agate", 2, "per_edge", 2500)
    t3 = _vqe_point(spec, 3.0, "agate", 3, "per_edge", 5000)
    wall = time.perf_counter() - start
    ok = (t2.relative_error_raw <= 1e-2 and t3.relative_error_raw <= 1e-4
          and wall < 1800)
    emit(7, "vqe-3x3-odd-lattice", ok,
         f"2L:{t2.relative_error_raw:.1e} (tol 1e-2) "
         f"3L:{t3.relative_error_raw:.1e} (tol 1e-4) wall {wall:.0f}s < 1800s")
    assert ok


# --------------------------------------------------------------- criterion 8

def test_criterion_8_depth_scaling():
    depths, counts, ls = [], [], []
    for L in (4, 6, 8, 10):
        spec = LatticeSpec(L, L)
        rep = schedule(trotter_step(spec, 1.0, 2.0, 0.05))
        depths.append(rep.two_qubit_depth)
        counts.append(rep.counts_by_arity.get(2, 0))
        ls.append(L)
    l2 = np.asarray(ls, dtype=float) ** 2
    cnt = np.asarray(counts, dtype=float)
    c = float(cnt @ l2 / (l2 @ l2))
    resid = float(np.max(np.abs(cnt - c * l2) / (c * l2)))
    ok = len(set(depths)) == 1 and resid <= 0.05
    emit(8, "depth-scaling", ok,
         f"two-qubit depth {depths} constant; count fit c={c:.1f}*L^2, "
         f"max residual {resid:.1%} <= 5%")
    assert ok


# --------------------------------------------------------------- criterion 9

def test_criterion_9_circuit_identities():
    worst = 0.0
    # W conjugation identity
    W = circuit_unitary(w_circuit(2, 0, 1))
    gen = pauli_matrix(P.PauliString(2, {0: P.Z})) - pauli_matrix(P.PauliString(2, {1: P.Z}))
    xxyy = pauli_matrix(P.PauliString(2, {0: P.X, 1: P.X})) + \
        pauli_matrix(P.PauliString(2, {0: P.Y, 1: P.Y}))
    worst = max(worst, float(np.max(np.abs(W @ gen @ W - xxyy))))

    # the three-qubit rotation circuit
    th = 0.7310
    U = circuit_unitary(zyx_rotation(3, 0, 1, 2, th))
    ZYX = pauli_matrix(P.PauliString(3, {0: P.Z, 1: P.Y, 2: P.X}))
    worst = max(worst, float(np.max(np.abs(U - expm(-1j * th * ZYX)))))

    # evolution blocks against dense exponentials on a 2x2 torus
    spec = LatticeSpec(2, 2)
    theta = 0.37
    for e in edges(spec):
        G = pauli_sum_matrix(P.hopping_terms(spec, e).scaled(2.0))
        build = C.hop_x_evolution if e.direction == "x" else C.hop_y_evolution
        worst = max(worst, float(np.max(np.abs(
            circuit_unitary(build(spec, e, theta)) - expm(1j * theta * G)))))

        # interaction: exact diagonal phase on the physical pair
        r, s = edge_sites(spec, e)
        pr, ps = phys_index(spec, r), phys_index(spec, s)
        n_r = 0.5 * (np.eye(256) - pauli_matrix(P.PauliString(8, {pr: P.Z})))
        n_s = 0.5 * (np.eye(256) - pauli_matrix(P.PauliString(8, {ps: P.Z})))
        want = expm(-1j * 0.83 * n_r @ n_s)
        worst = max(worst, float(np.max(np.abs(
            circuit_unitary(C.interaction_evolution(spec, e, 0.83)) - want))))

    # variational gates: unitarity, involution, native decomposition,
    # number conservation and constraint commutation at random parameters
    rng = np.random.default_rng(7)
    cs = constraint_set(spec)
    nsum = number_sum(spec)
    for _ in range(3):
        th, ph = rng.uniform(-np.pi, np.pi, 2)
        for build, native in ((vx_gate, vx_native), (vy_gate, vy_native)):
            for e in edges(spec):
                if build is vx_gate and e.direction != "x":
                    continue
                if build is vy_gate and e.direction != "y":
                    continue
                g = build(spec, e, th, ph)
                U = g.matrix
                k = len(g.targets)
                worst = max(worst, float(np.max(np.abs(U @ U.conj().T - np.eye(2 ** k)))))
                dense_gate = circuit_unitary(C.Circuit(spec.n_qubits, [g]))
                dense_native = circuit_unitary(native(spec, e, th, ph))
                worst = max(worst, float(np.max(np.abs(dense_gate - dense_native))))
                for s, _t in cs:
                    S = pauli_matrix(s)
                    worst = max(worst, float(np.max(np.abs(dense_gate @ S - S @ dense_gate))))
                N = sum(coeff * pauli_matrix(ps) for coeff, ps in nsum.terms)
                worst = max(worst, float(np.max(np.abs(dense_gate @ N - N @ dense_gate))))
    ok = worst < 1e-10
    emit(9, "circuit-identities", ok, f"max deviation {worst:.2e} at tol 1e-10")
    assert ok
