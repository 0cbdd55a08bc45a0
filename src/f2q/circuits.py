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
    vacuum_plaquette_set,
)
from .pauli import ConstraintSet, PauliString, pairing_string
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


# Every gate kind, each on one or two qubits.
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
    "agate": GateKind(2, 2, a_gate_unitary),
}


def _check_unitary(U: np.ndarray) -> None:
    """Raise ValueError unless U^dagger U = 1 to 1e-10; NaN and inf fail too."""
    err = np.max(np.abs(U.conj().T @ U - np.eye(U.shape[0])))
    if not err <= 1e-10:
        raise ValueError("gate matrix is not unitary")


@dataclass(slots=True)
class Gate:
    """One gate of a circuit, validated once here.

    The kind must be a GATES entry, with its arity, distinct targets and its
    angle count, the angles finite. Gates are equal when kind, targets and
    params are. `mask`, the targets as one bitmask, is set by the first
    stabilizer walk that meets the gate.
    """
    kind: str
    targets: Tuple[int, ...]
    params: Tuple[float, ...] = ()
    mask: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        targets = self.targets = tuple(map(int, self.targets))
        params = self.params = tuple(map(float, self.params))
        table = GATES.get(self.kind)
        if table is None:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        arity, angles, _ = table
        if len(targets) != arity:
            raise ValueError(f"{self.kind} expects {arity} targets")
        if arity == 2 and targets[0] == targets[1]:
            raise ValueError("duplicate targets")
        if len(params) != angles:
            raise ValueError(f"{self.kind} has wrong parameter count")
        if angles and not all(map(math.isfinite, params)):
            raise ValueError(f"{self.kind} angles must be finite")

    @property
    def arity(self) -> int:
        return len(self.targets)


def gate_unitary(g: Gate) -> np.ndarray:
    """The gate's matrix, targets[0] the MSB; read-only unless built from angles."""
    return GATES[g.kind].unitary(*g.params)


@dataclass
class Circuit:
    """Gates in applied order; each is checked against the register as it joins."""
    n_qubits: int
    gates: List[Gate] = field(default_factory=list)

    def __post_init__(self):
        self._check(self.gates)

    def _check(self, gates: Sequence[Gate]) -> None:
        n = self.n_qubits
        for g in gates:
            t = g.targets
            if min(t) < 0 or max(t) >= n:
                raise ValueError("gate target outside register")

    def add(self, gate: Gate) -> "Circuit":
        self._check((gate,))
        self.gates.append(gate)
        return self

    def extend(self, other: "Circuit") -> "Circuit":
        if other.n_qubits != self.n_qubits:  # else other's gates were checked on this register size
            self._check(other.gates)
        self.gates.extend(other.gates)
        return self

    def __iter__(self):
        return iter(self.gates)

    def __len__(self):
        return len(self.gates)


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


def fuse(c: Circuit) -> List[Tuple[Tuple[int, ...], np.ndarray]]:
    """The same unitary as (targets, U) blocks, each on at most MAX_GATE_QUBITS qubits.

    Gates merge greedily, in order, while the union of their targets fits; a
    gate that would push it past MAX_GATE_QUBITS starts the next block. A
    block's union lists its qubits in order of first appearance (union[0] the
    MSB), and each gate is multiplied in on that final union. Each block is
    composed once and checked unitary here, the one place in the library
    that checks a gate matrix. The result is for simulation only
    (apply_circuit): export, scheduling and stabilizer tracking read the
    unfused circuit.
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
    out = []
    for union, gates in blocks:
        m = len(union)
        block = np.eye(1 << m, dtype=np.complex128)
        for g in gates:
            r, col, same = _block_index(m, tuple(union.index(q) for q in g.targets))
            block = np.where(same, gate_unitary(g)[r, col], 0) @ block
        _check_unitary(block)
        out.append((tuple(union), block))
    return out


def apply_circuit(state: StateVector, c: Circuit) -> StateVector:
    """Apply c to state in place, one fused block (fuse) at a time."""
    if c.n_qubits != state.register_size:
        raise ValueError("register size mismatch")
    for targets, U in fuse(c):
        apply_matrix_gate(state, U, targets)
    require("weight truncated from the sparse state", state.dropped, 1e-12)
    return state


# ------------------------------------------------- exact stabilizer tracking

def _local_pauli(letters: Sequence[int]) -> np.ndarray:
    """The 2^k word of letters, letters[0] the MSB: i^#Y X^x Z^z, so
    P[b, b ^ x] = i^#Y (-1)^|(b ^ x) & z|."""
    x = z = 0
    for l in letters:  # I, X, Y, Z = 0..3: the z bit is l >> 1, the x bit l ^ z
        x = x << 1 | (l ^ l >> 1) & 1
        z = z << 1 | l >> 1
    rows = np.arange(1 << len(letters))
    cols = rows ^ x
    phase = (1, 1j, -1, -1j)[(x & z).bit_count() % 4]
    P = np.zeros((rows.size, rows.size), dtype=np.complex128)
    P[rows, cols] = np.where(np.bitwise_count(cols & z) & 1, -phase, phase)
    return P


_XZ_LETTER = (0, 1, 3, 2)  # a qubit's letter from its x and z bits, indexed x + 2 z


def _snap_to_pauli(M: np.ndarray, k: int) -> Tuple[List[int], complex]:
    """Write M = phase * (Pauli word) or fail, reading the word off M in O(4^k).

    A word i^#Y X^x Z^z (local qubit 0 the MSB) has row 0's entry in column x
    and P[b, b ^ x] / P[0, x] = (-1)^(z & b) for each bit b. The one candidate
    must match M to 1e-12 in every entry, with a phase ±1 or ±i; else ValueError.
    """
    x = int(np.argmax(np.abs(M[0])))
    ref = M[0, x].conjugate()
    z = sum(1 << j for j in range(k) if (M[1 << j, (1 << j) ^ x] * ref).real < 0)
    letters = [_XZ_LETTER[(x >> j & 1) | (z >> j & 1) << 1] for j in reversed(range(k))]
    P = _local_pauli(letters)
    coeff = complex(M[0, x] * P[0, x].conjugate())
    if not np.max(np.abs(M - coeff * P)) <= 1e-12:  # written so NaN fails too
        raise ValueError("operator is not a single Pauli after conjugation")
    for phase in (1, -1, 1j, -1j):
        if abs(coeff - phase) < 1e-12:
            return letters, phase
    raise ValueError("non-Clifford conjugation phase")


def conjugate_string(c: Circuit, s: PauliString, memo: Dict) -> Tuple[PauliString, complex]:
    """U^dagger S U, tracked exactly as a Pauli.

    The walk runs from the last gate to the first, keeping the word's support
    as one bitmask, so a gate outside the word's light cone costs one bit
    test. Every gate inside it, Clifford or not, must map the word it meets
    to a single Pauli with a phase in {±1, ±i}; otherwise ValueError. A gate's
    image of a local Pauli word depends only on the gate's kind and
    parameters, so `memo` stores each image keyed on those and the word, for
    reuse by later calls that pass the same dict. Failures are raised each
    time and never stored.
    """
    letters = bytearray(s.letters)
    flip, sign, _ = s.masks()
    support = flip | sign
    phase = complex(s.phase)
    for g in reversed(c.gates):
        mask = g.mask
        if mask is None:
            mask = g.mask = sum(1 << q for q in g.targets)
        if not support & mask:
            continue
        sup = g.targets
        local = tuple(letters[q] for q in sup)
        key = (g.kind, g.params, local)
        image = memo.get(key)
        if image is None:
            U = gate_unitary(g)
            image = memo[key] = _snap_to_pauli(U.conj().T @ _local_pauli(local) @ U, len(sup))
        new_letters, ph = image
        for q, l in zip(sup, new_letters):
            letters[q] = l
            support = support | 1 << q if l else support & ~(1 << q)
        phase *= ph
    return PauliString(s.n, bytes(letters)), phase


def stabilizer_expectations(c: Circuit, cs: ConstraintSet) -> List[complex]:
    """<0...0| U^dagger S U |0...0> for each stabilizer, exactly.

    Tracked as conjugate_string does, with each (gate, local word) image
    computed once per call and shared by all strings.
    """
    memo: Dict = {}
    images = (conjugate_string(c, s, memo) for s, _ in cs)
    # an image with an X or Y has zero mean on |0...0>; an all-Z one, its phase
    return [0j if conj.masks()[0] else phase for conj, phase in images]


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
    """One Pauli gate per letter of the edge's pairing string."""
    T = pairing_string(spec, e)
    return Circuit(spec.n_qubits, [Gate(" xyz"[T.letters[q]], (q,)) for q in T.support])


def preparation_circuit(spec: LatticeSpec, pair_edges: Sequence[Edge]) -> Circuit:
    """The vacuum, then one pair creation per edge."""
    c = vacuum_circuit(spec)
    for e in pair_edges:
        c.extend(pair_creation(spec, e))
    return c


def w_circuit(n_qubits: int, a: int, b: int) -> Circuit:
    """Hermitian two-qubit W with W (Z_a - Z_b) W = XX + YY."""
    if a == b:
        raise ValueError("distinct qubits required")
    return Circuit(n_qubits, [Gate("cnot", (a, b)), Gate("ch", (b, a)), Gate("cnot", (a, b))])


def zz_rotation(n_qubits: int, q1: int, q2: int, theta: float) -> Circuit:
    """exp(+i theta Z_q1 Z_q2) as CNOT - RZ - CNOT."""
    return Circuit(n_qubits, [Gate("cnot", (q1, q2)), Gate("rz", (q2,), params=(-2.0 * theta,)),
                              Gate("cnot", (q1, q2))])


def zyx_rotation(n_qubits: int, qz: int, qy: int, qx: int, theta: float) -> Circuit:
    """exp(-i theta Z_qz Y_qy X_qx) via basis-rotated CNOT ladder."""
    return Circuit(n_qubits, [
        Gate("rx", (qy,), params=(-math.pi / 2,)), Gate("ry", (qx,), params=(math.pi / 2,)),
        Gate("cnot", (qx, qy)), Gate("cnot", (qy, qz)), Gate("rz", (qz,), params=(2.0 * theta,)),
        Gate("cnot", (qy, qz)), Gate("cnot", (qx, qy)),
        Gate("rx", (qy,), params=(math.pi / 2,)), Gate("ry", (qx,), params=(-math.pi / 2,))])


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
    return Circuit(spec.n_qubits, [Gate("cphase", (phys_index(spec, r), phys_index(spec, s)),
                                        params=(-lam,))])


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


# ------------------------------------------------- variational gates

def vx_native(spec: LatticeSpec, e: Edge, theta: float, phi: float) -> Circuit:
    """The vx block of an x-edge: CZ, A on the physical pair, CZ.

    The CZ pair dresses the swap with the aux Z of r+x, so the block
    commutes with every stabilizer.
    """
    r, s = edge_sites(spec, e)
    pr, ps, a = phys_index(spec, r), phys_index(spec, s), aux_index(spec, s)
    return Circuit(spec.n_qubits, [Gate("cz", (pr, a)), Gate("agate", (pr, ps), params=(theta, phi)),
                                   Gate("cz", (pr, a))])


def vy_native(spec: LatticeSpec, e: Edge, theta: float, phi: float) -> Circuit:
    """The vy block of a y-edge: CY, CNOT, A on the physical pair, CNOT, CY.

    The controlled Paulis dress the swap with Y on aux r and X on aux r+y.
    """
    r, s = edge_sites(spec, e)
    pr, ps = phys_index(spec, r), phys_index(spec, s)
    ar, as_ = aux_index(spec, r), aux_index(spec, s)
    return Circuit(spec.n_qubits, [
        Gate("cy", (pr, ar)), Gate("cnot", (pr, as_)),
        Gate("agate", (pr, ps), params=(theta, math.pi / 2 - phi)),
        Gate("cnot", (pr, as_)), Gate("cy", (pr, ar))])


# The block of each layout kind, taking its slots' angles; hop_x carries the
# rho sign. vqe._GATE_FORMS holds the same kinds' actions on the sector.
BLOCKS: Dict[str, Callable[..., Circuit]] = {
    "interaction": interaction_evolution,
    "hop_x": lambda spec, e, theta: hop_x_evolution(spec, e, spec.rho * theta),
    "hop_y": hop_y_evolution,
    "vx": vx_native,
    "vy": vy_native,
}


def layout_circuit(spec: LatticeSpec, layout: Sequence[Tuple[str, Edge, Tuple[int, ...]]],
                   params: Sequence[float]) -> Circuit:
    """Each (kind, edge, slots) entry's block in order, at the params of its slots."""
    c = Circuit(spec.n_qubits)
    for kind, e, slots in layout:
        c.extend(BLOCKS[kind](spec, e, *(params[k] for k in slots)))
    return c


def _check_count(expect: int, params: Sequence[float]) -> None:
    if len(params) != expect:
        raise ValueError(f"expected {expect} parameters, got {len(params)}")


def agate_layout(spec: LatticeSpec, layers: int) -> List[Tuple[str, Edge, Tuple[int, int]]]:
    """Per layer: vy on every y-edge, then vx on every x-edge, row-major; each
    gate takes the next two slots."""
    layer = [("v" + d, e) for d in "yx" for e in edges(spec) if e.direction == d]
    return [(kind, e, (2 * k, 2 * k + 1)) for k, (kind, e) in enumerate(layer * layers)]


def agate_param_count(spec: LatticeSpec, layers: int) -> int:
    return layers * 2 * len(edges(spec))


def ansatz_agate(spec: LatticeSpec, layers: int, params: Sequence[float]) -> Circuit:
    _check_count(agate_param_count(spec, layers), params)
    return layout_circuit(spec, agate_layout(spec, layers), params)


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
    _check_count(hv_param_count(spec, layers, granularity), params)
    return layout_circuit(spec, hv_layout(spec, layers, granularity), params)


def trotter_angles(t: float, V: float, dt: float) -> Tuple[float, float, float]:
    """The one-layer per_group HV angles of a first-order Trotter step."""
    return V * dt, t * dt / 2, t * dt / 2


def trotter_step(spec: LatticeSpec, t: float, V: float, dt: float) -> Circuit:
    """First-order Trotter step: the one-layer per_group HV circuit at
    trotter_angles(t, V, dt)."""
    return layout_circuit(spec, hv_layout(spec, 1, "per_group"), trotter_angles(t, V, dt))


@dataclass(frozen=True)
class Ansatz:
    """A variational family checked once here (the name, and the layers and
    granularity for either family); the one dispatch to its size, layout and circuit."""

    spec: LatticeSpec
    name: str
    layers: int
    granularity: str
    n_params: int = field(init=False, repr=False, compare=False)  # computed once, here

    def __post_init__(self):
        if self.name not in ("agate", "hv"):
            raise InputError("ansatz must be agate or hv")
        hv_count = hv_param_count(self.spec, self.layers, self.granularity)
        object.__setattr__(self, "n_params", agate_param_count(self.spec, self.layers)
                           if self.name == "agate" else hv_count)

    def layout(self) -> List[Tuple[str, Edge, Tuple[int, ...]]]:
        return (agate_layout(self.spec, self.layers) if self.name == "agate"
                else hv_layout(self.spec, self.layers, self.granularity))

    def circuit(self, params: Sequence[float]) -> Circuit:
        return (ansatz_agate(self.spec, self.layers, params) if self.name == "agate"
                else ansatz_hv(self.spec, self.layers, params, self.granularity))


# ------------------------------------------------- scheduling and export

@dataclass
class DepthReport:
    two_qubit_depth: int
    counts_by_arity: Dict[int, int]


def schedule(c: Circuit) -> DepthReport:
    """ASAP depth with single-qubit gates free and two-qubit gates cost 1."""
    front = [0] * c.n_qubits
    counts: Dict[int, int] = {}
    for g in c.gates:
        t = g.targets
        k = len(t)
        counts[k] = counts.get(k, 0) + 1
        if k == 2:
            a, b = t
            front[a] = front[b] = max(front[a], front[b]) + 1
    return DepthReport(two_qubit_depth=max(front, default=0), counts_by_arity=counts)


def export_text(c: Circuit) -> str:
    lines = [f"qubits {c.n_qubits}"]
    for g in c.gates:
        toks = [g.kind] + [f"q{q}" for q in g.targets]
        toks += [repr(p) for p in g.params]
        lines.append(" ".join(toks))
    return "\n".join(lines) + "\n"
