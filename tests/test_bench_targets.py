"""The benchmark's tracer wraps library names; each must still exist, and
its counters must read what the library returns.

Tier-1 does not collect perfbench/tests, so this is where a removed or
renamed library function that the traced benchmark mode wraps shows up.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from f2q.lattice import LatticeSpec
from f2q.oracle import ALL_SECTORS, ed_hamiltonian
from f2q.pauli import constraint_set
from f2q.statevec import constrained_basis

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_targets_resolve():
    tracer = load_tracer()
    for home, attr, _, _ in tracer.TARGETS:
        mod = importlib.import_module(f"f2q.{home}")
        assert callable(getattr(mod, attr, None)), f"f2q.{home}.{attr}"
    cls = importlib.import_module("f2q.vqe").SectorModel
    for attr, _, _ in tracer.METHODS:
        assert attr in cls.__dict__, f"SectorModel.{attr}"


def test_basis_counter_reads_the_label_table():
    spec = LatticeSpec(2, 2)
    cs = constraint_set(spec)
    basis = constrained_basis(spec, cs)
    counts = load_tracer()._basis_labels((spec, cs), {}, basis)
    assert counts == {"labels": float(1 << cs.n), "kept": float(basis.labels.size)}


def test_ed_dim_reads_the_dense_hamiltonian():
    args = (LatticeSpec(2, 2), 1.0, 2.0, None, ALL_SECTORS[0], 2)
    H = ed_hamiltonian(*args)
    assert type(H) is np.ndarray
    assert load_tracer()._ed_dim(args, {}, H) == {"dim": 6.0}
