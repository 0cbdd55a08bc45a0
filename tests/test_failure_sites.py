"""Failures leave the library one way: every tolerance check goes through
lattice.require, only cli.main writes to stderr or picks an exit code, and
gate unitarity is checked in one place, when circuits.fuse composes a
block. cli.py leaves
the ansatz dispatch and the fermionic ED to the library, and only
circuits.apply_circuit fuses."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "f2q"

# failures that compare no value against an upper bound
NAMED_SITES = [
    ("quench.py", "quench_trajectories"),  # the pre-quench gap is a lower bound
    ("cli.py", "cmd_spectrum_match"),  # "no sector matches" has no value to compare
]


def _name(node):
    return getattr(node, "id", None) or getattr(node, "attr", None)


def sites(predicate):
    """(file, innermost enclosing function) of every src/f2q node matching predicate."""
    found = []

    def visit(path, node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if predicate(node):
            found.append((path.name, func))
        for child in ast.iter_child_nodes(node):
            visit(path, child, func)

    for path in sorted(SRC.glob("*.py")):
        visit(path, ast.parse(path.read_text(), filename=str(path)), None)
    return sorted(found)


def test_scientific_failure_is_built_only_by_require_and_named_sites():
    def builds(node):
        return ((isinstance(node, ast.Call) and _name(node.func) == "ScientificFailure")
                or (isinstance(node, ast.Raise) and _name(node.exc) == "ScientificFailure"))

    assert sites(builds) == sorted([("lattice.py", "require")] + NAMED_SITES)


def test_only_cli_main_writes_to_stderr():
    def stderr(node):
        return (_name(node) == "stderr"
                or isinstance(node, ast.alias) and node.name == "stderr")

    assert set(sites(stderr)) == {("cli.py", "main")}


def test_commands_return_no_exit_code():
    def returns_value(node):
        return isinstance(node, ast.Return) and node.value is not None

    assert not [s for s in sites(returns_value) if s[1].startswith("cmd_")]


def test_unitarity_is_checked_only_when_a_block_is_fused():
    def checks_unitary(node):
        return isinstance(node, ast.Call) and _name(node.func) == "_check_unitary"

    assert sites(checks_unitary) == [("circuits.py", "fuse")]


def test_operator_identity_is_checked_only_by_the_exact_reference():
    # quench and vqe share one checked fermionic reference
    def checks_operator(node):
        return isinstance(node, ast.Call) and _name(node.func) == "operator_deviation"

    assert sites(checks_operator) == [("oracle.py", "exact_reference")]


def test_fuse_is_called_only_by_apply_circuit():
    # one full-register application path: apply_circuit fuses every circuit
    # it applies, so no caller picks gate-by-gate or fused application itself
    def calls_fuse(node):
        return isinstance(node, ast.Call) and _name(node.func) == "fuse"

    assert sites(calls_fuse) == [("circuits.py", "apply_circuit")]
    named = {_name(node) or getattr(node, "name", None)
             for node in ast.walk(ast.parse((SRC / "vqe.py").read_text()))}
    assert "fuse" not in named


def test_cli_leaves_ansatz_dispatch_and_ed_to_the_library():
    # the ansatz check and dispatch live in circuits.Ansatz, the preparation
    # circuit in circuits.preparation_circuit and the BC-sector deviation in
    # oracle.bc_sector_search; cli.py names none of their parts
    banned = {"hv_param_count", "agate_param_count", "agate_layout", "hv_layout",
              "ansatz_agate", "ansatz_hv", "ed_spectrum", "pair_creation"}
    # names, attributes, imports and definitions alike
    named = {_name(node) or getattr(node, "name", None)
             for node in ast.walk(ast.parse((SRC / "cli.py").read_text()))}
    assert not named & banned, sorted(named & banned)
