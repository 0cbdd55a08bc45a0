"""Pauli-string algebra and operator builders.

A PauliString is a phase (power of i) times a letter per qubit; a PauliSum is
a merged list of (complex coefficient, phase-free string). Builders produce
the per-site constraint stabilizers, the Wilson-loop stabilizers, the
bosonized t-V Hamiltonian, and the total number operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from .lattice import (
    LatticeSpec,
    Edge,
    Site,
    aux_index,
    edge_sites,
    edges,
    phys_index,
    plaquette_sites,
    sites,
)

I, X, Y, Z = 0, 1, 2, 3
_LETTER_NAMES = "IXYZ"

# single-qubit products: _PROD[a][b] = (letter of a*b, power of i picked up)
_PROD = [[(0, 0)] * 4 for _ in range(4)]
for _a in range(4):
    _PROD[0][_a] = (_a, 0)
    _PROD[_a][0] = (_a, 0)
    _PROD[_a][_a] = (0, 0)
_PROD[X][Y] = (Z, 1)
_PROD[Y][X] = (Z, 3)
_PROD[Y][Z] = (X, 1)
_PROD[Z][Y] = (X, 3)
_PROD[Z][X] = (Y, 1)
_PROD[X][Z] = (Y, 3)

_PHASES = (1, 1j, -1, -1j)

# bytes.translate tables: each letter's flip (X, Y) or sign (Y, Z) bit as an
# ASCII digit, so masks() parses a mask with int(..., 2); other bytes read as I
_FLIP_DIGITS = bytes(b"01"[l in (X, Y)] for l in range(256))
_SIGN_DIGITS = bytes(b"01"[l in (Y, Z)] for l in range(256))


class PauliString:
    """phase * tensor product of letters; phase = i**phase_k."""

    __slots__ = ("n", "phase_k", "letters", "_masks")

    def __init__(self, n: int, letters: Dict[int, int] | Sequence[int] | bytes = (), phase_k: int = 0):
        self.n = n
        if isinstance(letters, dict):
            arr = bytearray(n)
            for q, l in letters.items():
                if not 0 <= q < n:
                    raise ValueError("qubit index out of range")
                arr[q] = l
            self.letters = bytes(arr)
        else:
            self.letters = bytes(letters) if letters else bytes(n)
            if len(self.letters) != n:
                raise ValueError("letters length mismatch")
        self.phase_k = phase_k % 4
        self._masks = None

    @property
    def phase(self) -> complex:
        return _PHASES[self.phase_k]

    def masks(self) -> Tuple[int, int, int]:
        """(flip mask, sign mask, y count): S|b> = phase * i^ycount * (-1)^|b & sign| |b ^ flip>."""
        if self._masks is None:
            if self.letters:
                digits = self.letters[::-1]  # qubit 0 the last, least significant digit
                self._masks = (int(digits.translate(_FLIP_DIGITS), 2),
                               int(digits.translate(_SIGN_DIGITS), 2), self.letters.count(Y))
            else:
                self._masks = (0, 0, 0)
        return self._masks

    @property
    def support(self) -> Tuple[int, ...]:
        return tuple(q for q, l in enumerate(self.letters) if l != I)

    def mul(self, other: "PauliString") -> "PauliString":
        if self.n != other.n:
            raise ValueError("register size mismatch")
        out = bytearray(self.n)
        k = self.phase_k + other.phase_k
        for q in range(self.n):
            l, dk = _PROD[self.letters[q]][other.letters[q]]
            out[q] = l
            k += dk
        return PauliString(self.n, bytes(out), k)

    __mul__ = mul

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PauliString)
            and self.n == other.n
            and self.phase_k == other.phase_k
            and self.letters == other.letters
        )

    def __hash__(self):
        return hash((self.n, self.phase_k, self.letters))

    def __repr__(self):
        return f"PauliString({self.render()!r})"

    def render(self) -> str:
        head = {0: "+1", 1: "+i", 2: "-1", 3: "-i"}[self.phase_k]
        toks = [f"{_LETTER_NAMES[l]}{q}" for q, l in enumerate(self.letters) if l != I]
        return " ".join([head] + toks) if toks else head


def identity(n: int) -> PauliString:
    return PauliString(n)


class PauliSum:
    """Merged list of (coefficient, phase-free PauliString)."""

    PRUNE_TOL = 1e-12

    def __init__(self, n: int, terms: Iterable[Tuple[complex, PauliString]] = ()):
        self.n = n
        merged: Dict[bytes, complex] = {}
        for c, s in terms:
            if s.n != n:
                raise ValueError("register size mismatch")
            # fold the string phase into the coefficient
            merged[s.letters] = merged.get(s.letters, 0.0) + c * s.phase
        self.terms: List[Tuple[complex, PauliString]] = [
            (c, PauliString(n, letters))
            for letters, c in sorted(merged.items())
            if abs(c) > self.PRUNE_TOL
        ]

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)

    def scaled(self, factor: complex) -> "PauliSum":
        return PauliSum(self.n, [(factor * c, s) for c, s in self.terms])

    @property
    def is_hermitian(self) -> bool:
        return all(abs(c.imag) <= self.PRUNE_TOL for c, _ in self.terms)


@dataclass(frozen=True)
class ConstraintSet:
    n: int
    stabilizers: Tuple[Tuple[PauliString, int], ...]
    labels: Tuple[str, ...] = field(default=(), compare=False)  # one per stabilizer, if named

    def __iter__(self):
        return iter(self.stabilizers)

    def __len__(self):
        return len(self.stabilizers)


def gauss_string(spec: LatticeSpec, r: Site) -> PauliString:
    a, b, c, d = plaquette_sites(spec, r)  # r, r+x, r+x+y, r+y
    return PauliString(
        spec.n_qubits,
        {
            phys_index(spec, a): Z,
            aux_index(spec, a): Y,
            aux_index(spec, b): X,
            aux_index(spec, c): Y,
            phys_index(spec, d): Z,
            aux_index(spec, d): X,
        },
    )


def pairing_string(spec: LatticeSpec, e: Edge) -> PauliString:
    """Pauli string that creates (or hops) a pair across the edge."""
    r, s = edge_sites(spec, e)
    letters = {phys_index(spec, r): X, phys_index(spec, s): X}
    if e.direction == "x":
        letters[aux_index(spec, s)] = Z
    else:
        letters[aux_index(spec, r)] = Y
        letters[aux_index(spec, s)] = X
    return PauliString(spec.n_qubits, letters)


def constraint_set(spec: LatticeSpec) -> ConstraintSet:
    """All Gauss stabilizers (target +1) plus the folded Wilson-loop targets.

    The loop targets fix the fermionic boundary sector that the encoded model
    reproduces: the column loops (along y) set sy, the row loops sx. These
    targets select oracle.PERIODIC, and no other sector, in every non-empty
    sector 0 < n_f < N; negating the column (row) targets gives sy = -1
    (sx = -1).
    So the exact references run fermionic ED in oracle.PERIODIC alone.
    """
    stabs: Dict[str, Tuple[PauliString, int]] = {}  # by label
    for r in sites(spec):
        stabs[f"gauss {r.rx},{r.ry}"] = (gauss_string(spec, r), 1)
    col_target = -((-1) ** spec.Ly)
    for rx in range(spec.Lx):
        letters = {aux_index(spec, Site(rx, ry)): Z for ry in range(spec.Ly)}
        stabs[f"loop_column {rx}"] = (PauliString(spec.n_qubits, letters), col_target)
    row_target = -(spec.rho ** spec.Lx)
    for ry in range(spec.Ly):
        letters = {}
        for rx in range(spec.Lx):
            letters[phys_index(spec, Site(rx, ry))] = Z
            letters[aux_index(spec, Site(rx, ry))] = Z
        stabs[f"loop_row {ry}"] = (PauliString(spec.n_qubits, letters), row_target)
    return ConstraintSet(spec.n_qubits, tuple(stabs.values()), tuple(stabs))


def hopping_terms(spec: LatticeSpec, e: Edge) -> PauliSum:
    r, s = edge_sites(spec, e)
    n = spec.n_qubits
    if e.direction == "x":
        za = aux_index(spec, s)
        return PauliSum(n, [
            (spec.rho / 2, PauliString(n, {phys_index(spec, r): X, phys_index(spec, s): X, za: Z})),
            (spec.rho / 2, PauliString(n, {phys_index(spec, r): Y, phys_index(spec, s): Y, za: Z})),
        ])
    ya, xa = aux_index(spec, r), aux_index(spec, s)
    return PauliSum(n, [
        (-0.5, PauliString(n, {phys_index(spec, r): X, phys_index(spec, s): Y, ya: Y, xa: X})),
        (+0.5, PauliString(n, {phys_index(spec, r): Y, phys_index(spec, s): X, ya: Y, xa: X})),
    ])


def tv_hamiltonian(
    spec: LatticeSpec,
    t: float,
    V: float,
    potentials: Dict[Site, float] | None = None,
) -> PauliSum:
    """-t * hopping + (V/4) * sum_edges (1-Z)(1-Z) + sum_r mu_r (1-Z)/2."""
    n = spec.n_qubits
    terms: List[Tuple[complex, PauliString]] = []
    for e in edges(spec):
        for c, s in hopping_terms(spec, e):
            terms.append((-t * c, s))
        r, s2 = edge_sites(spec, e)
        zr, zs = phys_index(spec, r), phys_index(spec, s2)
        terms.append((V / 4, identity(n)))
        terms.append((-V / 4, PauliString(n, {zr: Z})))
        terms.append((-V / 4, PauliString(n, {zs: Z})))
        terms.append((V / 4, PauliString(n, {zr: Z, zs: Z})))
    if potentials:
        for site, mu in potentials.items():
            q = phys_index(spec, Site(*site))
            terms.append((mu / 2, identity(n)))
            terms.append((-mu / 2, PauliString(n, {q: Z})))
    return PauliSum(n, terms)


def number_sum(spec: LatticeSpec) -> PauliSum:
    n = spec.n_qubits
    terms: List[Tuple[complex, PauliString]] = [(spec.n_sites / 2, identity(n))]
    for r in sites(spec):
        terms.append((-0.5, PauliString(n, {phys_index(spec, r): Z})))
    return PauliSum(n, terms)
