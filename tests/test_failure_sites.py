"""Failures leave the library one way: every tolerance check goes through
lattice.require, only cli.main writes to stderr or picks an exit code, and
gate unitarity is checked in one place, when a Gate is built."""

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


def test_unitarity_is_checked_only_when_a_gate_is_built():
    def checks_unitary(node):
        return isinstance(node, ast.Call) and _name(node.func) == "_check_unitary"

    assert sites(checks_unitary) == [("circuits.py", "__post_init__")]
