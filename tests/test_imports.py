import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tiltbench"


def relative_imports_in_functions(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, ast.ImportFrom) and inner.level > 0:
                    found.append(f"{path.name}:{inner.lineno} in {node.name}")
    return found


def test_no_relative_import_inside_a_function():
    # a relative import hidden in a function body is how an import cycle
    # between the package's modules goes unnoticed; keep them at module top
    found = [hit for path in sorted(PACKAGE.glob("*.py"))
             for hit in relative_imports_in_functions(path)]
    assert found == []
