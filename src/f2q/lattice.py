"""Torus geometry: sites, edges, plaquettes, and the flat qubit layout.

Each site carries two qubits: a physical one (occupation) and an auxiliary
one (link parity). Flat indices put all physical qubits first (row-major
site order), then all auxiliary qubits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, NamedTuple, Tuple

import numpy as np


class InputError(ValueError):
    """A bad or out-of-range input (lattice, particle number, setting); the CLI exits 2."""


class ScientificFailure(Exception):
    """A checked physical property misses its tolerance; the message gives both."""


class Site(NamedTuple):
    rx: int
    ry: int


class Edge(NamedTuple):
    origin: Site
    direction: str  # "x" or "y"


def _default_rho(Lx: int, Ly: int) -> int:
    # even x even -> +1, odd x odd -> -1
    return 1 if Lx % 2 == 0 else -1


@dataclass(frozen=True)
class LatticeSpec:
    Lx: int
    Ly: int
    rho: int = field(default=0)  # 0 means "derive from parity"

    def __post_init__(self):
        if self.Lx < 2 or self.Ly < 2:
            raise InputError("lattice sides must be >= 2")
        if self.Lx % 2 != self.Ly % 2:
            raise InputError("lattice sides must be both odd or both even")
        if self.rho == 0:
            object.__setattr__(self, "rho", _default_rho(self.Lx, self.Ly))
        if self.rho not in (1, -1):
            raise InputError("rho must be +1 or -1")

    @property
    def n_sites(self) -> int:
        return self.Lx * self.Ly

    @property
    def n_qubits(self) -> int:
        return 2 * self.Lx * self.Ly

    def wrap(self, rx: int, ry: int) -> Site:
        return Site(rx % self.Lx, ry % self.Ly)

    def shift(self, s: Site, dx: int = 0, dy: int = 0) -> Site:
        return self.wrap(s.rx + dx, s.ry + dy)


def sites(spec: LatticeSpec) -> Iterator[Site]:
    # row-major: ry outer, rx inner
    for ry in range(spec.Ly):
        for rx in range(spec.Lx):
            yield Site(rx, ry)


def site_index(spec: LatticeSpec, s: Site) -> int:
    s = spec.wrap(s[0], s[1])
    return s.rx + spec.Lx * s.ry


def phys_index(spec: LatticeSpec, s: Site) -> int:
    return site_index(spec, s)


def aux_index(spec: LatticeSpec, s: Site) -> int:
    return spec.n_sites + site_index(spec, s)


def edge_sites(spec: LatticeSpec, e: Edge) -> Tuple[Site, Site]:
    r = spec.wrap(*e.origin)
    if e.direction == "x":
        return r, spec.shift(r, dx=1)
    if e.direction == "y":
        return r, spec.shift(r, dy=1)
    raise ValueError(f"unknown direction {e.direction!r}")


def edge_wraps(spec: LatticeSpec, e: Edge) -> bool:
    r = spec.wrap(*e.origin)
    if e.direction == "x":
        return r.rx == spec.Lx - 1
    return r.ry == spec.Ly - 1


def edges(spec: LatticeSpec) -> List[Edge]:
    """All 2N edges: x-edges in row-major site order, then y-edges.

    Width-2 lattices keep both opposite wraparound edges between the same
    site pair; they are distinct edges of the multiset.
    """
    out = [Edge(s, "x") for s in sites(spec)]
    out += [Edge(s, "y") for s in sites(spec)]
    return out


def plaquette_sites(spec: LatticeSpec, r: Site) -> Tuple[Site, Site, Site, Site]:
    r = spec.wrap(*r)
    return (r, spec.shift(r, dx=1), spec.shift(r, dx=1, dy=1), spec.shift(r, dy=1))


def vacuum_plaquette_set(spec: LatticeSpec) -> List[Site]:
    # the (Lx-1)(Ly-1) anchors that avoid wraparound plaquettes
    return [
        Site(rx, ry)
        for ry in range(spec.Ly - 1)
        for rx in range(spec.Lx - 1)
    ]


def occupation_bits(masks, n_sites: int) -> np.ndarray:
    """Occupation table: row i holds bit q of masks[i] at column q, as floats."""
    masks = np.asarray(masks, dtype=np.int64)
    return ((masks[:, None] >> np.arange(n_sites)) & 1).astype(float)
