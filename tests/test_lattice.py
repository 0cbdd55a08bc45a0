import numpy as np
import pytest

from f2q.lattice import (
    Edge,
    LatticeSpec,
    ScientificFailure,
    Site,
    aux_index,
    edge_sites,
    edge_wraps,
    edges,
    occupation_bits,
    phys_index,
    plaquette_sites,
    require,
    site_index,
    sites,
    vacuum_plaquette_set,
)


def test_spec_validation():
    assert LatticeSpec(4, 4).rho == 1
    assert LatticeSpec(3, 3).rho == -1
    assert LatticeSpec(2, 4).rho == 1
    with pytest.raises(ValueError):
        LatticeSpec(3, 4)
    with pytest.raises(ValueError):
        LatticeSpec(1, 1)
    with pytest.raises(ValueError):
        LatticeSpec(2, 2, rho=5)
    # rho override is constructible (used as a negative control downstream)
    assert LatticeSpec(3, 3, rho=1).rho == 1


def test_site_index_convention():
    assert site_index(LatticeSpec(4, 4), Site(0, 0)) == 0
    assert site_index(LatticeSpec(4, 4), Site(1, 2)) == 9
    assert site_index(LatticeSpec(2, 4), Site(1, 3)) == 7
    # wrapping
    assert site_index(LatticeSpec(2, 2), Site(2, 3)) == site_index(LatticeSpec(2, 2), Site(0, 1))


def test_qubit_index_convention():
    assert phys_index(LatticeSpec(2, 2), Site(1, 1)) == 3
    assert aux_index(LatticeSpec(2, 2), Site(0, 0)) == 4
    assert aux_index(LatticeSpec(4, 4), Site(3, 3)) == 31
    # wrapped coordinates name the same qubit
    assert aux_index(LatticeSpec(2, 2), Site(2, 3)) == aux_index(LatticeSpec(2, 2), Site(0, 1))


def test_qubit_index_bijection():
    for spec in (LatticeSpec(2, 2), LatticeSpec(2, 4), LatticeSpec(3, 3)):
        phys = [phys_index(spec, s) for s in sites(spec)]
        aux = [aux_index(spec, s) for s in sites(spec)]
        assert sorted(phys + aux) == list(range(spec.n_qubits))
        assert phys_index(spec, Site(0, 0)) == 0
        assert aux_index(spec, Site(0, 0)) == spec.n_sites


def test_occupation_bits_example():
    table = occupation_bits([0b0000, 0b0101, 0b1110], 4)
    assert table.dtype == float
    assert np.array_equal(table, [[0, 0, 0, 0], [1, 0, 1, 0], [0, 1, 1, 1]])
    assert occupation_bits(np.array([], dtype=np.int64), 3).shape == (0, 3)


def test_edges_counts_and_order():
    assert len(edges(LatticeSpec(2, 2))) == 8
    assert len(edges(LatticeSpec(2, 4))) == 16
    assert len(edges(LatticeSpec(3, 3))) == 18
    es = edges(LatticeSpec(2, 2))
    # x-edges first, row-major, then y-edges
    assert es[0] == Edge(Site(0, 0), "x")
    assert es[1] == Edge(Site(1, 0), "x")
    assert es[4] == Edge(Site(0, 0), "y")


def test_width2_wraparound_edges_are_distinct():
    spec = LatticeSpec(2, 2)
    es = edges(spec)
    pairs = [frozenset(map(tuple, edge_sites(spec, e))) for e in es]
    # every unordered site pair appears exactly twice in each direction
    assert pairs.count(frozenset({(0, 0), (1, 0)})) == 2
    assert pairs.count(frozenset({(0, 0), (0, 1)})) == 2
    assert edge_wraps(spec, Edge(Site(1, 0), "x"))
    assert not edge_wraps(spec, Edge(Site(0, 0), "x"))


def test_plaquette_sites():
    assert plaquette_sites(LatticeSpec(3, 3), Site(2, 2)) == (
        Site(2, 2),
        Site(0, 2),
        Site(0, 0),
        Site(2, 0),
    )
    assert plaquette_sites(LatticeSpec(4, 4), Site(0, 0)) == (
        Site(0, 0),
        Site(1, 0),
        Site(1, 1),
        Site(0, 1),
    )
    assert plaquette_sites(LatticeSpec(2, 2), Site(1, 0)) == (
        Site(1, 0),
        Site(0, 0),
        Site(0, 1),
        Site(1, 1),
    )


def test_every_site_in_four_plaquettes_once_per_corner():
    for spec in (LatticeSpec(2, 2), LatticeSpec(3, 3), LatticeSpec(2, 4)):
        corner_hits = {s: [0, 0, 0, 0] for s in sites(spec)}
        for anchor in sites(spec):
            for pos, s in enumerate(plaquette_sites(spec, anchor)):
                corner_hits[s][pos] += 1
        assert all(hits == [1, 1, 1, 1] for hits in corner_hits.values())


def test_vacuum_plaquette_set():
    assert len(vacuum_plaquette_set(LatticeSpec(4, 4))) == 9
    assert vacuum_plaquette_set(LatticeSpec(2, 2)) == [Site(0, 0)]
    assert len(vacuum_plaquette_set(LatticeSpec(3, 3))) == 4
    # no wraparound anchors
    for spec in (LatticeSpec(4, 4), LatticeSpec(2, 4)):
        for a in vacuum_plaquette_set(spec):
            assert a.rx < spec.Lx - 1 and a.ry < spec.Ly - 1


def test_require_passes_at_bound_and_fails_above_or_on_nan():
    require("deviation", 1e-10, 1e-10)
    with pytest.raises(ScientificFailure) as err:
        require("what", 1e-3, 1e-10)
    assert str(err.value) == "what 1.000e-03 > 1e-10"
    with pytest.raises(ScientificFailure, match="nan > 1e-10"):
        require("what", float("nan"), 1e-10)
