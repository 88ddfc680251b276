"""Every import in src/quasidet sits at module level: no module reaches
another from inside a function, so the module headers show the whole
import graph."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "quasidet"


def _function_level_imports(path: Path) -> set:
    found = set()
    for fn in ast.walk(ast.parse(path.read_text())):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.add(f"{path.name}:{node.lineno} in {fn.name}")
    return found


def test_no_imports_inside_functions():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 10
    found = sorted(set().union(*map(_function_level_imports, paths)))
    assert not found, "imports inside functions: " + ", ".join(found)
