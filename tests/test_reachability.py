"""Every library definition is used somewhere: in the library, a test or the benchmark."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parsed(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def test_every_library_definition_is_referenced():
    defined = {}
    for path, tree in parsed("src/f2q"):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    defined.setdefault(name, f"{path.relative_to(ROOT)}:{node.lineno}")
    # uses: loaded names, attribute accesses, and identifier strings (the
    # benchmark's tracer names its targets as strings); imports do not count
    used = set()
    for _, tree in parsed("src", "tests", "perfbench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.isidentifier():
                used.add(node.value)
    unreferenced = sorted(f"{where} {name}" for name, where in defined.items() if name not in used)
    assert not unreferenced, unreferenced
