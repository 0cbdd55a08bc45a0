"""Independent oracles for small registers.

The dense matrices are built from explicit Kronecker products so the
production kernels are checked against a second, unrelated construction.
Qubit 0 is the least significant bit of the basis index, so it is the LAST
factor in the Kronecker chain. The subspace dimension is counted a second
way too: from the GF(2) rank of the stabilizer generators, without building
any state. The variational blocks vx and vy are written out a second time as
closed-form 8x8 and 16x16 matrices, each a LocalGate (targets, matrix),
the reference for their native circuits. circuit_unitary is the dense unitary of a whole small circuit,
restrict_circuit moves a circuit onto the qubits it touches, and parse_text
reads export_text's format back, and schedule_reference is the two-qubit
depth as the longest chain of multi-qubit gates that share a qubit, the
reference for circuits.schedule. pauli_projection reads a gate-local
operator as one Pauli by projecting it onto every word, the reference for
the closed form in circuits._snap_to_pauli. single_particle_matrix is the
hopping matrix whose filled levels give the free-fermion ground energy, a
check of the fermionic ED that shares none of its many-body code. column_state, project
and sector_state read a SubspaceBasis (or a SectorModel's vector) back onto
the register; from_dense and to_dense convert a StateVector to and from its
2^n vector. qubit_marginals reads P(qubit = 1) off a register state, and
full_trotter_run is the quench's Trotter evolution on the full register:
circuits.trotter_step applied to the expanded pre-quench state, the
reference for the quench's sector gate table. apply_gates applies a circuit
gate by gate, unfused, the reference for circuits.apply_circuit.
dense_restriction scatters restrict_between's entries into the dense matrix, and
dense_edge_table reads an edge's sector table off that matrix, one argmax
per column, the reference for vqe._edge_table. commutes reads commutation
off the x|z masks, and plaquette_string is the aux-only plaquette word of a
Gauss string. reference_coefficients, reference_sweep, reference_energies,
reference_gradient and reference_trotter_occupations apply a vqe.GateTable
row by row, as vec[R] <- diag vec[R] + off vec[P] with a whole-state copy
per run: the bitwise reference for the table's compiled plan, the sector
energies and adjoint gradient, and the quench's Trotter occupations.
"""

import cmath
import math
from typing import NamedTuple, Tuple

import numpy as np

from f2q.circuits import (Circuit, Gate, apply_circuit, gate_unitary, hv_layout, trotter_angles,
                          trotter_step)
from f2q.lattice import (aux_index, edge_sites, edge_wraps, edges, occupation_bits, phys_index,
                         plaquette_sites, require, site_index, sites)
from f2q.pauli import X, Y, PauliString, constraint_set, pairing_string, tv_hamiltonian
from f2q.statevec import (StateVector, apply_matrix_gate, cached_sector, restrict_between,
                          sector_ground)
from f2q.vqe import GateTable

I2 = np.eye(2, dtype=np.complex128)
SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SY = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SZ = np.array([[1, 0], [0, -1]], dtype=np.complex128)
LETTER_MATS = {0: I2, 1: SX, 2: SY, 3: SZ}


def pauli_matrix(p):
    """Dense 2^n matrix of a PauliString (including its phase)."""
    out = np.array([[1.0 + 0j]])
    for q in reversed(range(p.n)):
        out = np.kron(out, LETTER_MATS[p.letters[q]])
    return p.phase * out


def pauli_apply(p, psi):
    """P|psi> for a 2^n vector, one 2x2 letter per tensor axis (no 2^n matrix)."""
    n = p.n
    out = psi.reshape([2] * n)
    for q in range(n):
        if p.letters[q]:
            axis = n - 1 - q
            out = np.moveaxis(np.tensordot(LETTER_MATS[p.letters[q]], out, axes=([1], [axis])),
                              0, axis)
    return p.phase * out.reshape(-1)


def commutes(a, b):
    """Whether two PauliStrings commute: the x|z masks' symplectic product is even."""
    (xa, za, _), (xb, zb, _) = a.masks(), b.masks()
    return bin(xa & zb ^ za & xb).count("1") % 2 == 0


def plaquette_string(spec, r):
    """Y X Y X on the aux qubits of the plaquette at r (corners r, r+x, r+x+y, r+y)."""
    a, b, c, d = plaquette_sites(spec, r)
    return PauliString(spec.n_qubits, {aux_index(spec, a): Y, aux_index(spec, b): X,
                                       aux_index(spec, c): Y, aux_index(spec, d): X})


def from_dense(amps, n):
    """The full-support StateVector with amplitude vector amps (2^n entries)."""
    if np.shape(amps) != (1 << n,):
        raise ValueError("a dense state needs 2^n amplitudes")
    return StateVector(np.arange(1 << n, dtype=np.int64), amps, n)


def to_dense(state):
    """The 2^n amplitude vector of a StateVector."""
    psi = np.zeros(1 << state.register_size, dtype=np.complex128)
    psi[state.labels] = state.amps
    return psi


def pauli_sum_matrix(s):
    out = np.zeros((1 << s.n, 1 << s.n), dtype=np.complex128)
    for c, term in s:
        out += c * pauli_matrix(term)
    return out


def local_pauli(letters):
    """The 2^k word of letters, letters[0] the MSB (a gate's local order)."""
    out = np.array([[1.0 + 0j]])
    for l in letters:
        out = np.kron(out, LETTER_MATS[l])
    return out


def pauli_projection(M, k):
    """(letters, phase) with M = phase * local_pauli(letters), by projecting M
    onto all 4^k words; ValueError unless exactly one projection is nonzero
    (beyond 1e-12) and its coefficient is ±1 or ±i to 1e-12."""
    best = None
    for code in range(4 ** k):
        letters = [(code >> (2 * (k - 1 - i))) & 3 for i in range(k)]
        coeff = complex(np.trace(local_pauli(letters).conj().T @ M)) / (1 << k)
        if abs(coeff) > 0.5:
            best = (letters, coeff)
        elif abs(coeff) > 1e-12:
            raise ValueError("operator is not a single Pauli after conjugation")
    if best is None:
        raise ValueError("operator is not a single Pauli after conjugation")
    letters, coeff = best
    for phase in (1, -1, 1j, -1j):
        if abs(coeff - phase) < 1e-12:
            return letters, phase
    raise ValueError("non-Clifford conjugation phase")


def embed_gate(U, targets, n):
    """Dense 2^n matrix of U on the given qubits (targets[0] = MSB of U)."""
    k = len(targets)
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=np.complex128)
    for col in range(dim):
        loc_in = 0
        for pos, q in enumerate(targets):
            loc_in |= ((col >> q) & 1) << (k - 1 - pos)
        base = col
        for q in targets:
            base &= ~(1 << q)
        for loc_out in range(1 << k):
            row = base
            for pos, q in enumerate(targets):
                row |= ((loc_out >> (k - 1 - pos)) & 1) << q
            out[row, col] += U[loc_out, loc_in]
    return out


def gf2_rank(vectors):
    pivots = {}
    rank = 0
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top in pivots:
                v ^= pivots[top]
            else:
                pivots[top] = v
                rank += 1
                break
    return rank


def symplectic_dimension(cs):
    """2^(n - rank) from the GF(2) rows of a consistent stabilizer set."""
    n = cs.n
    rows = []
    for s, _ in cs:
        flip, sign, _ = s.masks()
        rows.append(flip | (sign << n))
    return 1 << (n - gf2_rank(rows))


def vx_unitary(theta, phi):
    """8x8 on (phys r, phys r+x, aux r+x); aux Z dresses the swap phases."""
    ct, st = math.cos(theta), math.sin(theta)
    U = np.eye(8, dtype=np.complex128)
    for a in range(2):
        lo, hi = 2 + a, 4 + a  # |01 a>, |10 a>
        U[lo, lo] = ct
        U[hi, hi] = -ct
        U[lo, hi] = cmath.exp(1j * phi) * st * (-1) ** a
        U[hi, lo] = cmath.exp(-1j * phi) * st * (-1) ** a
    return U


def vy_unitary(theta, phi):
    """16x16 on (phys r, phys r+y, aux r, aux r+y) with Y_ar X_ary dressing."""
    ct, st = math.cos(theta), math.sin(theta)
    U = np.eye(16, dtype=np.complex128)
    for aa in range(4):
        a_r = aa >> 1
        f = aa ^ 3  # both aux bits flipped
        U[4 + aa, 4 + aa] = ct
        U[8 + aa, 8 + aa] = -ct
        U[8 + f, 4 + aa] = (-1) ** a_r * cmath.exp(1j * phi) * st
        U[4 + f, 8 + aa] = -((-1) ** a_r) * cmath.exp(-1j * phi) * st
    return U


class LocalGate(NamedTuple):
    """A closed-form gate matrix on its targets (targets[0] the MSB)."""
    targets: Tuple[int, ...]
    matrix: np.ndarray


def vx_gate(spec, e, theta, phi):
    if e.direction != "x":
        raise ValueError("x-edge required")
    r, s = edge_sites(spec, e)
    tgts = (phys_index(spec, r), phys_index(spec, s), aux_index(spec, s))
    return LocalGate(tgts, vx_unitary(theta, phi))


def vy_gate(spec, e, theta, phi):
    if e.direction != "y":
        raise ValueError("y-edge required")
    r, s = edge_sites(spec, e)
    tgts = (phys_index(spec, r), phys_index(spec, s), aux_index(spec, r), aux_index(spec, s))
    return LocalGate(tgts, vy_unitary(theta, phi))


def circuit_unitary(c):
    """Dense unitary of the whole circuit (small registers only)."""
    if c.n_qubits > 12:
        raise ValueError("dense circuit unitary limited to 12 qubits")
    n = c.n_qubits
    dim = 1 << n
    U = np.eye(dim, dtype=np.complex128)
    for g in c.gates:
        k = g.arity
        axes = [n - 1 - q for q in g.targets]
        M = gate_unitary(g).reshape([2] * (2 * k))
        T = U.reshape([2] * n + [dim])
        T = np.tensordot(M, T, axes=(list(range(k, 2 * k)), axes))
        T = np.moveaxis(T, list(range(k)), axes)
        U = np.ascontiguousarray(T).reshape(dim, dim)
    return U


def restrict_circuit(c, support):
    """Remap a circuit whose gates all act within `support` onto qubits 0..k-1."""
    pos = {q: i for i, q in enumerate(support)}
    out = Circuit(len(support))
    for g in c.gates:
        try:
            tgts = tuple(pos[q] for q in g.targets)
        except KeyError:
            raise ValueError("gate acts outside the given support")
        out.add(Gate(g.kind, tgts, params=g.params))
    return out


def schedule_reference(c):
    """(two-qubit depth, gate counts by arity) of c: a gate on k >= 2 qubits
    sits one layer above the highest earlier such gate it shares a qubit
    with; single-qubit gates take no layer."""
    layers = []  # (qubits, layer) of each multi-qubit gate so far
    counts = {}
    for g in c.gates:
        counts[len(g.targets)] = counts.get(len(g.targets), 0) + 1
        if len(g.targets) >= 2:
            qubits = set(g.targets)
            layers.append((qubits, 1 + max((l for s, l in layers if s & qubits), default=0)))
    return max((l for _, l in layers), default=0), counts


def parse_text(text):
    """The circuit that circuits.export_text wrote as `text`."""
    lines = [ln for ln in (ln.strip() for ln in text.splitlines()) if ln]
    if not lines or not lines[0].startswith("qubits "):
        raise ValueError("missing qubits header")
    c = Circuit(int(lines[0].split()[1]))
    for ln in lines[1:]:
        toks = ln.split()
        kind = toks[0]
        rest = toks[1:]
        targets = []
        while rest and rest[0].startswith("q") and rest[0][1:].isdigit():
            targets.append(int(rest.pop(0)[1:]))
        c.add(Gate(kind, tuple(targets), params=tuple(float(tok) for tok in rest)))
    return c


def single_particle_matrix(spec, t, sector):
    """Hopping matrix h with H(V=0) = sum h_ij c^+_i c_j."""
    N = spec.n_sites
    h = np.zeros((N, N))
    for e in edges(spec):
        r, s = edge_sites(spec, e)
        w = 1.0
        if edge_wraps(spec, e):
            w = float(sector.sx if e.direction == "x" else sector.sy)
        i, j = site_index(spec, r), site_index(spec, s)
        h[i, j] += -t * w
        h[j, i] += -t * w
    return h


def column_state(basis, j):
    """Column j of a SubspaceBasis as a register state."""
    mine = basis.cols == j
    return StateVector(basis.labels[mine], basis.amps[mine], basis.register_size)


def project(basis, state):
    """B^dagger psi: a register state's coefficients on the basis columns."""
    coeffs = np.zeros(basis.dim, dtype=np.complex128)
    pos = np.minimum(np.searchsorted(basis.labels, state.labels), basis.labels.size - 1)
    hit = basis.labels[pos] == state.labels
    np.add.at(coeffs, basis.cols[pos[hit]], np.conj(basis.amps[pos[hit]]) * state.amps[hit])
    return coeffs


def dense_restriction(dest, src, terms):
    """<dest_i|terms|src_j> as a dense (dest.dim, src.dim) matrix: the
    entries of restrict_between, summed where they share a cell."""
    i, j, c = restrict_between(dest, src, terms)
    mat = np.zeros((dest.dim, src.dim), dtype=np.complex128)
    np.add.at(mat, (i, j), c)
    return mat


def dense_edge_table(spec, basis, e):
    """(J, K, c, both) of vqe._edge_table from the dense restriction of the
    edge's pairing string T: the columns J with site s occupied and r empty,
    each one's partner K at its column's largest entry, c = <K|T|J>, and the
    columns with both sites occupied."""
    r, s = edge_sites(spec, e)
    has_r = (basis.occ_masks >> site_index(spec, r)) & 1 == 1
    has_s = (basis.occ_masks >> site_index(spec, s)) & 1 == 1
    J = np.flatnonzero(has_s & ~has_r)
    M = dense_restriction(basis, basis, [(1, pairing_string(spec, e))])[:, J]
    K = np.argmax(np.abs(M), axis=0)
    return J, K, M[K, np.arange(J.size)], np.flatnonzero(has_r & has_s)


def sector_state(model, params):
    """A SectorModel's ansatz state at params, on the register."""
    vec = model.initial_vector()[:, None]
    model.apply_ansatz(vec, np.asarray(params, dtype=float)[None, :])
    return model.basis.expand(vec[:, 0])


def qubit_marginals(state, qubits):
    """P(qubit = 1) for each listed qubit, all from one |psi|^2 pass."""
    n = state.register_size
    if any(not 0 <= q < n for q in qubits):
        raise ValueError("qubit out of range")
    bits = (state.labels[:, None] >> np.asarray(qubits, dtype=np.int64)) & 1
    return (np.abs(state.amps) ** 2) @ bits


def apply_gates(state, c):
    """c applied to state in place one gate at a time, without fusion, then
    circuits.apply_circuit's dropped-weight bound."""
    for g in c.gates:
        apply_matrix_gate(state, gate_unitary(g), g.targets)
    require("weight truncated from the sparse state", state.dropped, 1e-12)
    return state


def full_trotter_run(spec, t, V, n_f, pre_potentials, dt, n_steps):
    """(basis, states, occupations): the n_f sector, the register states
    after 0, 1, ..., n_steps Trotter steps from the expanded pre-quench
    ground vector (the one quench_trajectories starts from), and each
    state's site occupations."""
    basis = cached_sector(spec, constraint_set(spec), n_f)
    sec0 = sector_ground(basis, tv_hamiltonian(spec, t, 0.0, pre_potentials))[1]
    step = trotter_step(spec, t, V, dt)
    phys = [phys_index(spec, r) for r in sites(spec)]
    states = [basis.expand(sec0)]
    for _ in range(n_steps):
        states.append(apply_circuit(states[-1].copy(), step))
    return basis, states, np.array([qubit_marginals(s, phys) for s in states])


def reference_coefficients(table, params):
    """diag, off and their derivatives in the slot-0 angle for every row of
    a vqe.GateTable at params (B, n_params), each (rows, B), computed row by
    row from the table's columns: the reference for the class values that
    GateTable.coefficients gathers into its plan layout."""
    p = params.T
    th = table._scale[:, None] * p[table._slot0]
    phase = np.exp(1j * table._sig[:, None] * p[table._slot1])
    cos, sin = np.cos(th), np.sin(th)
    a, b = table._a[:, None], table._b[:, None] * phase
    return a * cos, b * sin, -table._scale[:, None] * a * sin, table._scale[:, None] * b * cos


def reference_runs(table):
    """Each run's slice of the table rows, read off the plan's row counts."""
    ends = np.cumsum([rows.size for _, rows, _ in table.plan])
    return [slice(i, j) for i, j in zip(np.r_[0, ends[:-1]], ends)]


def reference_sweep(table, vec, diag, off, order, states=None):
    """vec in place through the runs in order, each as
    vec[R] <- diag vec[R] + off vec[P] on the table's rows R and partners P;
    states[k], if given, receives a copy of the whole vec before run k."""
    runs = reference_runs(table)
    for k in order:
        cut = runs[k]
        if states is not None:
            states[k] = vec
        vec[table._rows[cut]] = (diag[cut] * vec[table._rows[cut]]
                                 + off[cut] * vec[table._partners[cut]])
    return vec


def reference_energies(model, params):
    """SectorModel.energies with every column swept by reference_sweep."""
    diag, off = reference_coefficients(model, params)[:2]
    vecs = np.tile(model.initial_vector()[:, None], (1, params.shape[0]))
    for i in range(params.shape[0]):
        reference_sweep(model, vecs[:, i], diag[:, i], off[:, i], range(len(model.plan)))
    return np.einsum("ib,ib->b", vecs.conj(), model.h_sector @ vecs).real


def reference_gradient(model, params):
    """SectorModel.gradient from whole stored states: the state before each
    forward run and lam before each adjoint run, read at every table row."""
    p = np.asarray(params, dtype=float)[None, :]
    diag, off, d_diag, d_off = (c[:, 0] for c in reference_coefficients(model, p))
    runs = reference_runs(model)
    run_of = np.repeat(np.arange(len(runs)), [r.stop - r.start for r in runs])
    states = np.empty((len(runs), model.basis.dim), dtype=np.complex128)
    psi = reference_sweep(model, model.initial_vector(), diag, off, range(len(runs)), states)
    lam = model.h_sector @ psi
    energy = float(np.vdot(psi, lam).real)
    lams = np.empty_like(states)
    reference_sweep(model, lam, diag.conj(), off[model._mate].conj(), reversed(range(len(runs))),
                    lams)
    bra = lams[run_of, model._rows].conj()
    x, y = states[run_of, model._rows], states[run_of, model._partners]
    by_angle = (bra * (d_diag * x + d_off * y)).real
    by_phase = (bra * 1j * model._sig * off * y).real
    n = p.shape[1]
    return energy, 2.0 * (np.bincount(model._slot0, by_angle, n)
                          + np.bincount(model._slot1, by_phase, n))


def reference_trotter_occupations(spec, t, V, n_f, pre_potentials, dt, n_steps):
    """The quench's Trotter occupations, each step swept by reference_sweep."""
    basis = cached_sector(spec, constraint_set(spec), n_f)
    psi = sector_ground(basis, tv_hamiltonian(spec, t, 0.0, pre_potentials))[1]
    psi = psi.astype(np.complex128)
    step = GateTable(spec, basis, hv_layout(spec, 1, "per_group"))
    angles = np.array([trotter_angles(t, V, dt)])
    diag, off = (c[:, 0] for c in reference_coefficients(step, angles)[:2])
    occ_table = occupation_bits(basis.occ_masks, spec.n_sites)
    occ = [(np.abs(psi) ** 2) @ occ_table]
    for _ in range(n_steps):
        reference_sweep(step, psi, diag, off, range(len(step.plan)))
        occ.append((np.abs(psi) ** 2) @ occ_table)
    return np.array(occ)
