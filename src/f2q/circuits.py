"""Circuit IR, lattice circuit constructions, scheduling, and text export.

Gate matrices use the convention that targets[0] is the most significant
local bit. Rotation angles follow RZ(a) = exp(-i a Z / 2) and analogues;
every gate-level identity is pinned by dense-exponential tests rather
than trusted from a decomposition sketch.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .lattice import (
    Edge,
    InputError,
    LatticeSpec,
    Site,
    aux_index,
    edge_sites,
    edges,
    phys_index,
    plaquette_sites,
    require,
    sites,
    vacuum_plaquette_set,
)
from .pauli import ConstraintSet, PauliString
from .statevec import MAX_GATE_QUBITS, StateVector, apply_matrix_gate

_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_S = np.diag([1, 1j]).astype(np.complex128)


def _fixed(U: np.ndarray) -> Callable[[], np.ndarray]:
    """The builder of a gate without angles: one shared, read-only matrix."""
    U.flags.writeable = False
    return lambda: U


def _controlled(U: np.ndarray) -> np.ndarray:
    out = np.eye(4, dtype=np.complex128)
    out[2:, 2:] = U
    return out


def _rx(theta: float) -> np.ndarray:
    a = theta / 2
    return np.array([[math.cos(a), -1j * math.sin(a)],
                     [-1j * math.sin(a), math.cos(a)]], dtype=np.complex128)


def _ry(theta: float) -> np.ndarray:
    a = theta / 2
    return np.array([[math.cos(a), -math.sin(a)],
                     [math.sin(a), math.cos(a)]], dtype=np.complex128)


def _rz(theta: float) -> np.ndarray:
    a = theta / 2
    return np.diag([cmath.exp(-1j * a), cmath.exp(1j * a)]).astype(np.complex128)


def _cphase(phi: float) -> np.ndarray:
    return np.diag([1, 1, 1, cmath.exp(1j * phi)]).astype(np.complex128)


def a_gate_unitary(theta: float, phi: float) -> np.ndarray:
    """Two-qubit particle-number-conserving rotation, the `agate` gate kind.

    It rotates |01> into |10> by theta with relative phase phi and fixes |00>
    and |11>. It costs 3 CNOTs, so vx_native takes 5 two-qubit gates and
    vy_native 7.
    """
    ct, st = math.cos(theta), math.sin(theta)
    return np.array(
        [
            [1, 0, 0, 0],
            [0, ct, cmath.exp(1j * phi) * st, 0],
            [0, cmath.exp(-1j * phi) * st, -ct, 0],
            [0, 0, 0, 1],
        ],
        dtype=np.complex128,
    )


class GateKind(NamedTuple):
    arity: int
    angles: int
    unitary: Callable[..., np.ndarray]  # the angles -> the 2^arity matrix


# Every named gate kind. A `matrix` gate is the one kind outside the table:
# it carries its own matrix, on any number of targets, and takes no angles.
GATES: Dict[str, GateKind] = {
    "x": GateKind(1, 0, _fixed(_X)),
    "y": GateKind(1, 0, _fixed(_Y)),
    "z": GateKind(1, 0, _fixed(_Z)),
    "h": GateKind(1, 0, _fixed(_H)),
    "s": GateKind(1, 0, _fixed(_S)),
    "sdg": GateKind(1, 0, _fixed(_S.conj())),
    "rx": GateKind(1, 1, _rx),
    "ry": GateKind(1, 1, _ry),
    "rz": GateKind(1, 1, _rz),
    "cnot": GateKind(2, 0, _fixed(_controlled(_X))),
    "cy": GateKind(2, 0, _fixed(_controlled(_Y))),
    "cz": GateKind(2, 0, _fixed(_controlled(_Z))),
    "ch": GateKind(2, 0, _fixed(_controlled(_H))),
    "cphase": GateKind(2, 1, _cphase),
    "ccz": GateKind(3, 0, _fixed(np.diag([1, 1, 1, 1, 1, 1, 1, -1]).astype(np.complex128))),
    "agate": GateKind(2, 2, a_gate_unitary),
}


def _check_unitary(U: np.ndarray) -> None:
    """Raise ValueError unless U^dagger U = 1 to 1e-10; NaN and inf fail too."""
    err = np.max(np.abs(U.conj().T @ U - np.eye(U.shape[0])))
    if not err <= 1e-10:
        raise ValueError("gate matrix is not unitary")


@dataclass(eq=False)
class Gate:
    """One gate of a circuit, validated once here.

    A named kind must match its GATES entry in arity and angle count, with
    finite angles. A `matrix` gate is checked for unitarity here, the one
    place in the library that does, and keeps its matrix read-only (a copy,
    unless the caller's array is already read-only and owns its data), so
    the check holds for the gate's whole life.
    """
    kind: str
    targets: Tuple[int, ...]
    params: Tuple[float, ...] = ()
    matrix: Optional[np.ndarray] = None

    def __post_init__(self):
        self.targets = tuple(int(q) for q in self.targets)
        self.params = tuple(float(p) for p in self.params)
        if len(set(self.targets)) != len(self.targets):
            raise ValueError("duplicate targets")
        if self.kind == "matrix":
            if self.params:
                raise ValueError("matrix gates take no angles")
            if self.matrix is None:
                raise ValueError("matrix gate without a matrix")
            U = np.asarray(self.matrix, dtype=np.complex128)
            d = 1 << len(self.targets)
            if U.shape != (d, d):
                raise ValueError("matrix shape does not match target count")
            _check_unitary(U)
            if U.flags.writeable or not U.flags.owndata:  # else the caller could still write to it
                U = U.copy()
                U.flags.writeable = False
            self.matrix = U
            return
        if self.kind not in GATES:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        arity, angles, _ = GATES[self.kind]
        if len(self.targets) != arity:
            raise ValueError(f"{self.kind} expects {arity} targets")
        if len(self.params) != angles:
            raise ValueError(f"{self.kind} has wrong parameter count")
        if angles and not all(map(math.isfinite, self.params)):
            raise ValueError(f"{self.kind} angles must be finite")
        if self.matrix is not None:
            raise ValueError("only matrix gates carry an explicit matrix")

    @property
    def arity(self) -> int:
        return len(self.targets)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Gate):
            return NotImplemented
        if (self.kind, self.targets, self.params) != (other.kind, other.targets, other.params):
            return False
        if (self.matrix is None) != (other.matrix is None):
            return False
        return self.matrix is None or np.array_equal(self.matrix, other.matrix)


def gate_unitary(g: Gate) -> np.ndarray:
    """The gate's matrix, targets[0] the MSB; read-only unless built from angles."""
    if g.kind == "matrix":
        return g.matrix
    return GATES[g.kind].unitary(*g.params)


@dataclass
class Circuit:
    n_qubits: int
    gates: List[Gate] = field(default_factory=list)

    def add(self, gate: Gate) -> "Circuit":
        if any(not 0 <= q < self.n_qubits for q in gate.targets):
            raise ValueError("gate target outside register")
        self.gates.append(gate)
        return self

    def extend(self, other: "Circuit") -> "Circuit":
        for g in other.gates:
            self.add(g)
        return self

    def __iter__(self):
        return iter(self.gates)

    def __len__(self):
        return len(self.gates)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return self.n_qubits == other.n_qubits and self.gates == other.gates


@lru_cache(maxsize=128)
def _block_index(m: int, axes: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(r, c, same): a gate U on block axes `axes` is np.where(same, U[r, c], 0)
    on the m-qubit block (axis 0 the MSB).

    r and c are the gate's local row and column of each block row and column;
    same marks the entries whose bits agree off the gate's axes. The arrays
    are shared between calls, so they are read-only.
    """
    i = np.arange(1 << m)
    loc = np.zeros(1 << m, dtype=np.int64)
    for j, p in enumerate(axes):
        loc |= ((i >> (m - 1 - p)) & 1) << (len(axes) - 1 - j)
    off = i & ~sum(1 << (m - 1 - p) for p in axes)
    out = (loc[:, None], loc[None, :], off[:, None] == off[None, :])
    for a in out:
        a.flags.writeable = False
    return out


def fuse(c: Circuit) -> Circuit:
    """The same unitary as fewer matrix gates, each on at most MAX_GATE_QUBITS qubits.

    Gates merge greedily, in order, while the union of their targets fits; a
    gate that would push it past MAX_GATE_QUBITS starts the next block. A
    block's union lists its qubits in order of first appearance (union[0] the
    MSB), and each gate is multiplied in on that final union. Blocks whose
    gates match in kind, local axes, parameters and matrix are composed once
    per call and share one read-only matrix. The result is for simulation
    only: export, scheduling and stabilizer tracking read the unfused circuit.
    """
    blocks: List[Tuple[List[int], List[Gate]]] = []
    for g in c.gates:
        union = blocks[-1][0] if blocks else []
        new = [q for q in g.targets if q not in union]
        if not blocks or len(union) + len(new) > MAX_GATE_QUBITS:
            union, new = [], list(g.targets)
            blocks.append((union, []))
        union.extend(new)
        blocks[-1][1].append(g)
    out = Circuit(c.n_qubits)
    composed: Dict[tuple, np.ndarray] = {}
    for union, gates in blocks:
        m = len(union)
        local = [(g, tuple(union.index(q) for q in g.targets)) for g in gates]
        key = (m, tuple((g.kind, axes, g.params, None if g.matrix is None else g.matrix.tobytes())
                        for g, axes in local))
        block = composed.get(key)
        if block is None:
            block = np.eye(1 << m, dtype=np.complex128)
            for g, axes in local:
                r, col, same = _block_index(m, axes)
                block = np.where(same, gate_unitary(g)[r, col], 0) @ block
            block.flags.writeable = False
            composed[key] = block
        out.add(Gate("matrix", union, matrix=block))
    return out


def apply_circuit(state: StateVector, c: Circuit) -> StateVector:
    if c.n_qubits != state.register_size:
        raise ValueError("register size mismatch")
    for g in c.gates:
        apply_matrix_gate(state, gate_unitary(g), g.targets)
    require("weight truncated from the sparse state", state.dropped, 1e-12)
    return state


# ------------------------------------------------- exact stabilizer tracking

_PAULI_1Q = [np.eye(2, dtype=np.complex128), _X, _Y, _Z]


def _local_pauli(letters: Sequence[int]) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for l in letters:
        out = np.kron(out, _PAULI_1Q[l])
    return out


def _snap_to_pauli(M: np.ndarray, k: int) -> Tuple[List[int], complex]:
    """Write M = phase * (Pauli tensor) or fail."""
    best = None
    for code in range(4 ** k):
        letters = [(code >> (2 * (k - 1 - i))) & 3 for i in range(k)]
        P = _local_pauli(letters)
        coeff = complex(np.trace(P.conj().T @ M)) / (1 << k)
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


def _conjugate(c: Circuit, s: PauliString, memo: Dict) -> Tuple[PauliString, complex]:
    """conjugate_string, reusing the local images already stored in `memo`.

    A gate's image of a local Pauli word depends only on the gate's kind,
    parameters and matrix, so the memo is keyed on those and the word.
    Failures are raised each time and never stored.
    """
    letters = bytearray(s.letters)
    phase = complex(s.phase)
    for g in reversed(c.gates):
        sup = g.targets
        local = tuple(letters[q] for q in sup)
        if not any(local):
            continue
        key = (g.kind, g.params, None if g.matrix is None else g.matrix.tobytes(), local)
        image = memo.get(key)
        if image is None:
            U = gate_unitary(g)
            image = memo[key] = _snap_to_pauli(U.conj().T @ _local_pauli(local) @ U, len(sup))
        new_letters, ph = image
        for q, l in zip(sup, new_letters):
            letters[q] = l
        phase *= ph
    return PauliString(s.n, bytes(letters)), phase


def conjugate_string(c: Circuit, s: PauliString) -> Tuple[PauliString, complex]:
    """U^dagger S U, tracked exactly as a Pauli.

    Every gate, Clifford or not, must map the word it meets to a single Pauli
    with a phase in {±1, ±i}; otherwise ValueError.
    """
    return _conjugate(c, s, {})


def stabilizer_expectations(c: Circuit, cs: ConstraintSet) -> List[complex]:
    """<0...0| U^dagger S U |0...0> for each stabilizer, exactly.

    Tracked as conjugate_string does, with each (gate, local word) image
    computed once per call and shared by all strings.
    """
    memo: Dict = {}
    out = []
    for s, _ in cs:
        conj, phase = _conjugate(c, s, memo)
        flip, _, _ = conj.masks()
        if flip:
            out.append(0j)
        else:
            out.append(phase)  # all-Z strings give +1 on |0...0>
    return out


# ------------------------------------------------- model circuit constructions

def periodicity_circuit(spec: LatticeSpec) -> Circuit:
    """X gates on auxiliary qubits giving every loop stabilizer its target."""
    c = Circuit(spec.n_qubits)
    if spec.Lx % 2 == 1:
        return c  # odd lattices: all loop targets are +1 on |0...0>
    if spec.Lx == spec.Ly:
        cells = [Site(m, m) for m in range(spec.Lx)]
    else:
        # one X per row and an odd count per column
        cells = [Site(0, ry) for ry in range(spec.Ly - 1)]
        cells += [Site(cx, spec.Ly - 1) for cx in range(1, spec.Lx)]
    for r in cells:
        c.add(Gate("x", (aux_index(spec, r),)))
    return c


def vacuum_anchor_order(spec: LatticeSpec) -> List[Site]:
    """Vacuum plaquette anchors, rows ascending, columns descending.

    Within each row the column order is reversed so that a deferred X on a
    control qubit fires before any block whose plaquette anticommutes with it.
    """
    anchors = vacuum_plaquette_set(spec)
    rows: Dict[int, List[Site]] = {}
    for r in anchors:
        rows.setdefault(r.ry, []).append(r)
    out: List[Site] = []
    for ry in sorted(rows):
        out.extend(sorted(rows[ry], key=lambda s: -s.rx))
    return out


def vacuum_circuit(spec: LatticeSpec) -> Circuit:
    c = Circuit(spec.n_qubits)
    vp = periodicity_circuit(spec)
    control_of = {}  # control qubit -> anchor
    for r in vacuum_anchor_order(spec):
        control_of[aux_index(spec, spec.shift(r, 0, 1))] = r
    deferred: Dict[Site, Gate] = {}
    for g in vp.gates:
        q = g.targets[0]
        if q in control_of:
            deferred[control_of[q]] = g
        else:
            c.add(g)
    for r in vacuum_anchor_order(spec):
        _, rx_, rxy, ry_ = plaquette_sites(spec, r)
        ctrl = aux_index(spec, ry_)
        c.add(Gate("h", (ctrl,)))
        c.add(Gate("cy", (ctrl, aux_index(spec, r))))
        c.add(Gate("cnot", (ctrl, aux_index(spec, rx_))))
        c.add(Gate("cy", (ctrl, aux_index(spec, rxy))))
        if r in deferred:
            c.add(deferred[r])
    return c


def pair_creation(spec: LatticeSpec, e: Edge) -> Circuit:
    r, s = edge_sites(spec, e)
    c = Circuit(spec.n_qubits)
    c.add(Gate("x", (phys_index(spec, r),)))
    c.add(Gate("x", (phys_index(spec, s),)))
    if e.direction == "x":
        c.add(Gate("z", (aux_index(spec, s),)))
    else:
        c.add(Gate("y", (aux_index(spec, r),)))
        c.add(Gate("x", (aux_index(spec, s),)))
    return c


def w_circuit(n_qubits: int, a: int, b: int) -> Circuit:
    """Hermitian two-qubit W with W (Z_a - Z_b) W = XX + YY."""
    if a == b:
        raise ValueError("distinct qubits required")
    c = Circuit(n_qubits)
    c.add(Gate("cnot", (a, b)))
    c.add(Gate("ch", (b, a)))
    c.add(Gate("cnot", (a, b)))
    return c


def zz_rotation(n_qubits: int, q1: int, q2: int, theta: float) -> Circuit:
    """exp(+i theta Z_q1 Z_q2) as CNOT - RZ - CNOT."""
    c = Circuit(n_qubits)
    c.add(Gate("cnot", (q1, q2)))
    c.add(Gate("rz", (q2,), params=(-2.0 * theta,)))
    c.add(Gate("cnot", (q1, q2)))
    return c


def zyx_rotation(n_qubits: int, qz: int, qy: int, qx: int, theta: float) -> Circuit:
    """exp(-i theta Z_qz Y_qy X_qx) via basis-rotated CNOT ladder."""
    c = Circuit(n_qubits)
    c.add(Gate("rx", (qy,), params=(-math.pi / 2,)))
    c.add(Gate("ry", (qx,), params=(math.pi / 2,)))
    c.add(Gate("cnot", (qx, qy)))
    c.add(Gate("cnot", (qy, qz)))
    c.add(Gate("rz", (qz,), params=(2.0 * theta,)))
    c.add(Gate("cnot", (qy, qz)))
    c.add(Gate("cnot", (qx, qy)))
    c.add(Gate("rx", (qy,), params=(math.pi / 2,)))
    c.add(Gate("ry", (qx,), params=(-math.pi / 2,)))
    return c


def hop_x_evolution(spec: LatticeSpec, e: Edge, theta: float) -> Circuit:
    """exp(+i theta (XX+YY)_phys Z(2)_{r+x}) on an x-edge."""
    if e.direction != "x":
        raise ValueError("x-edge required")
    r, s = edge_sites(spec, e)
    pr, ps, a = phys_index(spec, r), phys_index(spec, s), aux_index(spec, s)
    c = Circuit(spec.n_qubits)
    c.extend(w_circuit(spec.n_qubits, pr, ps))
    c.extend(zz_rotation(spec.n_qubits, pr, a, +theta))
    c.extend(zz_rotation(spec.n_qubits, ps, a, -theta))
    c.extend(w_circuit(spec.n_qubits, pr, ps))
    return c


def hop_y_evolution(spec: LatticeSpec, e: Edge, theta: float) -> Circuit:
    """exp(+i theta (-XY+YX)_phys Y(2)_r X(2)_{r+y}) on a y-edge."""
    if e.direction != "y":
        raise ValueError("y-edge required")
    r, s = edge_sites(spec, e)
    pr, ps = phys_index(spec, r), phys_index(spec, s)
    ar, as_ = aux_index(spec, r), aux_index(spec, s)
    n = spec.n_qubits
    c = Circuit(n)
    c.add(Gate("sdg", (pr,)))
    c.extend(w_circuit(n, pr, ps))
    c.add(Gate("rx", (ar,), params=(-math.pi / 2,)))
    c.add(Gate("ry", (as_,), params=(math.pi / 2,)))
    c.add(Gate("cnot", (as_, ar)))
    c.extend(zz_rotation(n, ps, ar, -theta))
    c.extend(zz_rotation(n, pr, ar, +theta))
    c.add(Gate("cnot", (as_, ar)))
    c.add(Gate("rx", (ar,), params=(math.pi / 2,)))
    c.add(Gate("ry", (as_,), params=(-math.pi / 2,)))
    c.extend(w_circuit(n, pr, ps))
    c.add(Gate("s", (pr,)))
    return c


def interaction_evolution(spec: LatticeSpec, e: Edge, lam: float) -> Circuit:
    """exp(-i lam (1-Z)(1-Z)/4) on the edge's physical pair, exactly."""
    r, s = edge_sites(spec, e)
    c = Circuit(spec.n_qubits)
    c.add(Gate("cphase", (phys_index(spec, r), phys_index(spec, s)), params=(-lam,)))
    return c


def block_plan(spec: LatticeSpec) -> List[Tuple[str, Edge]]:
    """Evolution blocks of one Trotter step or HV layer, in applied order.

    Interaction on the x-even, x-odd, y-even and y-odd edge slices, then
    hop_x on x-even and x-odd, then hop_y on y-even and y-odd; each slice is
    row-major. On even lattices the blocks of one slice act on disjoint
    qubits, so the step's depth does not grow with the lattice.
    """
    xs = [e for e in edges(spec) if e.direction == "x"]
    ys = [e for e in edges(spec) if e.direction == "y"]
    x_slices = [e for e in xs if e.origin.rx % 2 == 0] + [e for e in xs if e.origin.rx % 2 == 1]
    y_slices = [e for e in ys if e.origin.ry % 2 == 0] + [e for e in ys if e.origin.ry % 2 == 1]
    return ([("interaction", e) for e in x_slices + y_slices]
            + [("hop_x", e) for e in x_slices]
            + [("hop_y", e) for e in y_slices])


def evolution_block(spec: LatticeSpec, kind: str, e: Edge, angle: float) -> Circuit:
    """One block_plan entry at the given angle; hop_x carries the rho sign."""
    if kind == "interaction":
        return interaction_evolution(spec, e, angle)
    if kind == "hop_x":
        return hop_x_evolution(spec, e, spec.rho * angle)
    if kind == "hop_y":
        return hop_y_evolution(spec, e, angle)
    raise ValueError(f"unknown block kind {kind!r}")


def trotter_blocks(spec: LatticeSpec, t: float, V: float, dt: float) -> List[Tuple[str, Edge, Circuit]]:
    """First-order Trotter step as labeled per-edge blocks, in applied order."""
    angle = {"interaction": V * dt, "hop_x": t * dt / 2, "hop_y": t * dt / 2}
    return [(kind, e, evolution_block(spec, kind, e, angle[kind])) for kind, e in block_plan(spec)]


def trotter_step(spec: LatticeSpec, t: float, V: float, dt: float) -> Circuit:
    c = Circuit(spec.n_qubits)
    for _, _, block in trotter_blocks(spec, t, V, dt):
        c.extend(block)
    return c


# ------------------------------------------------- variational gates

def vx_native(spec: LatticeSpec, e: Edge, theta: float, phi: float) -> Circuit:
    """The vx block of an x-edge: CZ, A on the physical pair, CZ.

    The CZ pair dresses the swap with the aux Z of r+x, so the block
    commutes with every stabilizer.
    """
    r, s = edge_sites(spec, e)
    pr, ps, a = phys_index(spec, r), phys_index(spec, s), aux_index(spec, s)
    c = Circuit(spec.n_qubits)
    c.add(Gate("cz", (pr, a)))
    c.add(Gate("agate", (pr, ps), params=(theta, phi)))
    c.add(Gate("cz", (pr, a)))
    return c


def vy_native(spec: LatticeSpec, e: Edge, theta: float, phi: float) -> Circuit:
    """The vy block of a y-edge: CY, CNOT, A on the physical pair, CNOT, CY.

    The controlled Paulis dress the swap with Y on aux r and X on aux r+y.
    """
    r, s = edge_sites(spec, e)
    pr, ps = phys_index(spec, r), phys_index(spec, s)
    ar, as_ = aux_index(spec, r), aux_index(spec, s)
    c = Circuit(spec.n_qubits)
    c.add(Gate("cy", (pr, ar)))
    c.add(Gate("cnot", (pr, as_)))
    c.add(Gate("agate", (pr, ps), params=(theta, math.pi / 2 - phi)))
    c.add(Gate("cnot", (pr, as_)))
    c.add(Gate("cy", (pr, ar)))
    return c


def agate_layout(spec: LatticeSpec, layers: int) -> List[Tuple[str, Edge, Tuple[int, int]]]:
    """Per layer: vy on every y-edge, then vx on every x-edge, row-major."""
    ys = [e for e in edges(spec) if e.direction == "y"]
    xs = [e for e in edges(spec) if e.direction == "x"]
    out = []
    slot = 0
    for _ in range(layers):
        for e in ys:
            out.append(("vy", e, (slot, slot + 1)))
            slot += 2
        for e in xs:
            out.append(("vx", e, (slot, slot + 1)))
            slot += 2
    return out


def agate_param_count(spec: LatticeSpec, layers: int) -> int:
    return layers * 2 * len(edges(spec))


def ansatz_agate(spec: LatticeSpec, layers: int, params: Sequence[float]) -> Circuit:
    layout = agate_layout(spec, layers)
    expect = agate_param_count(spec, layers)
    if len(params) != expect:
        raise ValueError(f"expected {expect} parameters, got {len(params)}")
    c = Circuit(spec.n_qubits)
    for kind, e, (i, j) in layout:
        native = vy_native if kind == "vy" else vx_native
        c.extend(native(spec, e, params[i], params[j]))
    return c


def hv_layout(spec: LatticeSpec, layers: int, granularity: str) -> List[Tuple[str, Edge, Tuple[int]]]:
    """block_plan once per layer with free angles; the slot of each block.

    per_group gives each layer one slot per kind (interaction, hop_x, hop_y);
    per_edge gives every block its own slot, numbered in applied order.
    """
    plan = block_plan(spec)
    if granularity == "per_group":
        group = {"interaction": 0, "hop_x": 1, "hop_y": 2}
        return [(kind, e, (3 * layer + group[kind],)) for layer in range(layers) for kind, e in plan]
    if granularity == "per_edge":
        return [(kind, e, (slot,)) for slot, (kind, e) in enumerate(plan * layers)]
    raise InputError("granularity must be per_group or per_edge")


MAX_LAYERS = 10 ** 3  # ansatz layers; the parameter vector and layout grow with it


def hv_param_count(spec: LatticeSpec, layers: int, granularity: str) -> int:
    if not 1 <= layers <= MAX_LAYERS:
        raise InputError(f"layers must lie in [1, {MAX_LAYERS}], got {layers}")
    if granularity == "per_group":
        return 3 * layers
    if granularity == "per_edge":
        return 2 * len(edges(spec)) * layers
    raise InputError("granularity must be per_group or per_edge")


def ansatz_hv(spec: LatticeSpec, layers: int, params: Sequence[float], granularity: str) -> Circuit:
    expect = hv_param_count(spec, layers, granularity)
    if len(params) != expect:
        raise ValueError(f"expected {expect} parameters, got {len(params)}")
    c = Circuit(spec.n_qubits)
    for kind, e, (slot,) in hv_layout(spec, layers, granularity):
        c.extend(evolution_block(spec, kind, e, params[slot]))
    return c


# ------------------------------------------------- scheduling and export

@dataclass
class DepthReport:
    two_qubit_depth: int
    counts_by_arity: Dict[int, int]
    total_gates: int


def schedule(c: Circuit) -> DepthReport:
    """ASAP depth with single-qubit gates free and k>=2-qubit gates cost 1."""
    front = [0] * c.n_qubits
    counts: Dict[int, int] = {}
    for g in c.gates:
        counts[g.arity] = counts.get(g.arity, 0) + 1
        if g.arity < 2:
            continue
        start = max(front[q] for q in g.targets)
        for q in g.targets:
            front[q] = start + 1
    depth = max(front) if front else 0
    return DepthReport(
        two_qubit_depth=depth,
        counts_by_arity=counts,
        total_gates=len(c.gates),
    )


def export_text(c: Circuit) -> str:
    lines = [f"qubits {c.n_qubits}"]
    for g in c.gates:
        toks = [g.kind] + [f"q{q}" for q in g.targets]
        toks += [repr(p) for p in g.params]
        if g.kind == "matrix":
            toks += [repr(complex(v)) for v in g.matrix.reshape(-1)]
        lines.append(" ".join(toks))
    return "\n".join(lines) + "\n"
