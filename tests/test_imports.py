import ast
from pathlib import Path

import pytest

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


# the algebra layer, and the modules above it that it must not reach
ALGEBRA = ("rings", "matrices", "modules", "complexes", "exactness",
           "tstructures", "freyd")
ABOVE_ALGEBRA = {"samplers", "serialize", "reports", "suites", "cli"}


def package_imports(path: Path) -> set[str]:
    """The names of the package modules that the module at path imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            if node.level > 0 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level > 0:
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("tiltbench."):
                found.add(node.module.split(".")[1])
            elif node.module == "tiltbench":
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("tiltbench."))
    return found


@pytest.mark.parametrize("name", ALGEBRA)
def test_algebra_modules_import_no_sampling_or_reporting(name):
    # samples, their serialised payloads and reports belong to the suite
    # layer; the algebra it checks knows nothing of them
    assert package_imports(PACKAGE / f"{name}.py") & ABOVE_ALGEBRA == set()


def unused_module_names(path: Path) -> list[str]:
    """The top-level imports and UPPER_CASE constants that the module at
    path never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    bound[target.id] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in read]


def test_no_unused_module_names():
    # an import or constant that its module never reads is left over from
    # code that has gone
    found = [hit for path in sorted(PACKAGE.glob("*.py"))
             for hit in unused_module_names(path)]
    assert found == []
