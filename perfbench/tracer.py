"""Spans and counts recorded around calls into f2q's public functions.

The benchmark wraps each listed function at every f2q module that holds it
by name (and `SectorModel` methods on the class), so calls are caught however
the program reaches them. Spans are kept in memory as (name, start, end,
parent) and written out when the run ends. A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List, Optional, Tuple

# Counters computed from a call's arguments and result. Sizes come from array
# shapes and lengths, not from measurement.


def _gate_bytes(args, kwargs, result):
    # one read and one write of a complex128 state: 2 * 16 B * 2^n
    return {"gb": 32.0 * (1 << args[0].register_size) / 1e9}


def _basis_labels(args, kwargs, result):
    return {"labels": float(1 << args[1].n), "kept": float(result.labels.size)}


def _len_of(arg_index, key):
    return lambda args, kwargs, result: {key: float(len(args[arg_index]))}


def _ed_dim(args, kwargs, result):
    return {"dim": float(result.shape[0])}


def _batch_columns(args, kwargs, result):
    return {"columns": float(args[1].shape[1])}  # args[0] is self


# (module, attribute, span name, counter)
TARGETS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("statevec", "apply_matrix_gate", "statevec.apply_matrix_gate", _gate_bytes),
    ("statevec", "expval", "statevec.expval", _len_of(1, "terms")),
    ("statevec", "expval_string", "statevec.expval_string", None),
    ("statevec", "constrained_basis", "statevec.constrained_basis", _basis_labels),
    ("statevec", "restrict_sum", "statevec.restrict_sum", _len_of(1, "terms")),
    ("statevec", "ground_in_sector", "statevec.ground_in_sector", None),
    ("circuits", "apply_circuit", "circuits.apply_circuit", _len_of(1, "gates")),
    ("circuits", "trotter_step", "circuits.build", None),
    ("circuits", "vacuum_circuit", "circuits.build", None),
    ("circuits", "pair_creation", "circuits.build", None),
    ("circuits", "ansatz_agate", "circuits.build", None),
    ("circuits", "ansatz_hv", "circuits.build", None),
    ("circuits", "stabilizer_expectations", "circuits.stabilizer_expectations",
     _len_of(1, "strings")),
    ("circuits", "schedule", "circuits.schedule", None),
    ("pauli", "constraint_set", "pauli.build", None),
    ("pauli", "tv_hamiltonian", "pauli.build", None),
    ("pauli", "number_sum", "pauli.build", None),
    ("oracle", "ed_hamiltonian", "oracle.ed_hamiltonian", _ed_dim),
    ("oracle", "ed_spectrum", "oracle.ed_spectrum", None),
    ("oracle", "ed_ground", "oracle.ed_ground", None),
    ("oracle", "ed_propagate", "oracle.ed_propagate", None),
    ("oracle", "match_bc_sector", "oracle.match_bc_sector", None),
    ("vqe", "run", "vqe.run", None),
    ("cli", "quench_trajectories", "cli.quench_trajectories", None),
]

# SectorModel methods, wrapped on the class
METHODS: List[Tuple[str, str, Optional[Callable]]] = [
    ("__init__", "vqe.SectorModel.init", None),
    ("apply_ansatz", "vqe.SectorModel.apply_ansatz", _batch_columns),
    ("energies", "vqe.SectorModel.energies", None),
    ("gradient", "vqe.SectorModel.gradient", None),
]

MODULES = ("statevec", "circuits", "pauli", "oracle", "vqe", "cli")

# Reported per-layer metrics: (name, unit, better). '.s' is self time.
LAYER_METRICS: List[Tuple[str, str, str]] = [
    ("statevec.apply_matrix_gate.s", "s", "lower"),
    ("statevec.apply_matrix_gate.calls", "count", "lower"),
    ("statevec.apply_matrix_gate.gb", "GB", "lower"),
    ("statevec.expval.s", "s", "lower"),
    ("statevec.expval.terms", "count", "lower"),
    ("statevec.expval_string.s", "s", "lower"),
    ("statevec.expval_string.calls", "count", "lower"),
    ("statevec.constrained_basis.s", "s", "lower"),
    ("statevec.constrained_basis.labels", "count", "lower"),
    ("statevec.constrained_basis.kept_ratio", "ratio", "higher"),
    ("statevec.restrict_sum.s", "s", "lower"),
    ("statevec.restrict_sum.terms", "count", "lower"),
    ("statevec.ground_in_sector.s", "s", "lower"),
    ("circuits.apply_circuit.s", "s", "lower"),
    ("circuits.apply_circuit.gates", "count", "lower"),
    ("circuits.build.s", "s", "lower"),
    ("circuits.stabilizer_expectations.s", "s", "lower"),
    ("circuits.stabilizer_expectations.strings", "count", "lower"),
    ("circuits.schedule.s", "s", "lower"),
    ("pauli.build.s", "s", "lower"),
    ("oracle.ed_hamiltonian.s", "s", "lower"),
    ("oracle.ed_hamiltonian.dim", "count", "lower"),
    ("oracle.ed_spectrum.s", "s", "lower"),
    ("oracle.ed_ground.s", "s", "lower"),
    ("oracle.ed_propagate.s", "s", "lower"),
    ("oracle.match_bc_sector.s", "s", "lower"),
    ("vqe.SectorModel.init.s", "s", "lower"),
    ("vqe.SectorModel.apply_ansatz.s", "s", "lower"),
    ("vqe.SectorModel.apply_ansatz.columns", "count", "lower"),
    ("vqe.SectorModel.energies.s", "s", "lower"),
    ("vqe.SectorModel.gradient.calls", "count", "lower"),
    ("vqe.run.s", "s", "lower"),
    ("cli.quench_trajectories.s", "s", "lower"),
    # traced minus untraced mean round time, same process
    ("trace.overhead_s", "s", "lower"),
]


class Tracer:
    """Records spans and per-name totals while its wrappers are installed."""

    def __init__(self):
        self.spans: List[Tuple[str, float, float, int]] = []
        self.self_s: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}
        self._stack: List[List[float]] = []  # [span index, child seconds]
        self._patches: List[Tuple[object, str, object]] = []

    def _wrap(self, fn: Callable, name: str, counter: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = int(self._stack[-1][0]) if self._stack else -1
            frame = [len(self.spans), 0.0]
            self.spans.append((name, 0.0, 0.0, parent))
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[frame[0]] = (name, start, end, parent)
                self.self_s[name] = self.self_s.get(name, 0.0) + (end - start) - frame[1]
                if self._stack:
                    self._stack[-1][1] += end - start
                self._add(name + ".calls", 1.0)
            if counter is not None:
                for key, amount in counter(args, kwargs, result).items():
                    self._add(f"{name}.{key}", amount)
            return result
        return wrapper

    def _add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def install(self) -> None:
        mods = {m: importlib.import_module(f"f2q.{m}") for m in MODULES}
        for home, attr, name, counter in TARGETS:
            original = getattr(mods[home], attr)
            wrapper = self._wrap(original, name, counter)
            for mod in mods.values():
                if getattr(mod, attr, None) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        cls = mods["vqe"].SectorModel
        for attr, name, counter in METHODS:
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def totals(self) -> Dict[str, float]:
        """Self seconds as '<name>.s' plus every count, one flat mapping."""
        out = {f"{k}.s": v for k, v in self.self_s.items()}
        out.update(self.counts)
        return out
