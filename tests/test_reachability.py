"""The library holds only what a command, an acceptance criterion or the
benchmark reaches: every definition in src/f2q is used in the library, in
perfbench (the tracer's target strings included) or in tests/test_acceptance.py,
and a test oracle lives in tests/dense_oracle.py. The library runs on numpy
alone."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parsed(*places):
    for place in places:
        place = ROOT / place
        for path in sorted(place.rglob("*.py")) if place.is_dir() else [place]:
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
    # benchmark's tracer names its targets as strings); imports do not count,
    # and no test but the acceptance criteria does
    used = set()
    for _, tree in parsed("src", "perfbench", "tests/test_acceptance.py"):
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


def test_library_imports_no_scipy():
    # scipy is a test dependency only: importing it costs about half of a
    # process's start-up, so no f2q module may load it
    modules = sorted(p.stem for p in (ROOT / "src" / "f2q").glob("*.py") if p.stem != "__init__")
    assert "cli" in modules and "oracle" in modules
    code = "".join(f"import f2q.{m}\n" for m in modules) + (
        "import sys\nprint(sorted(n for n in sys.modules if n.split('.')[0] == 'scipy'))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]", out.stdout
