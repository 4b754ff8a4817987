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


def imported_names(path: Path) -> set[str]:
    """The names that other package modules import from the module at path
    by ``from .module import name``."""
    found = set()
    for other in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(other.read_text(), filename=str(other))):
            if isinstance(node, ast.ImportFrom) and node.level > 0 and node.module == path.stem:
                found.update(alias.name for alias in node.names)
    return found


def unused_module_names(path: Path) -> list[str]:
    """The top-level imports and UPPER_CASE constants that the module at
    path never reads, and that no other package module imports from it
    (whose own reads this check covers)."""
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
    read |= imported_names(path)
    return [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in read]


def test_no_unused_module_names():
    # an import or constant that its module never reads is left over from
    # code that has gone
    found = [hit for path in sorted(PACKAGE.glob("*.py"))
             for hit in unused_module_names(path)]
    assert found == []


# public definitions that no code in src/ reads yet, each with its reason
UNREAD_PUBLIC = {
    # decoders of the serialised payloads, waiting for the replay CLI
    "serialize.complex_from_json",
    "serialize.morphism_from_json",
    # the value API that tests/test_rings.py compares with FractionPoly
    "rings.QPoly.const",
    "rings.QPoly.lead",
}


def public_definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(name, node) of the public top-level functions and public methods."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            found += [(f"{node.name}.{item.name}", item) for item in node.body
                      if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [(name, node) for name, node in found
            if not name.rsplit(".", 1)[-1].startswith("_")]


def name_reads(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of every Name load, attribute and import alias."""
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            reads.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            reads += [(alias.name, node.lineno) for alias in node.names]
    return reads


def unread_public_definitions() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    reads = {}
    for stem, tree in trees.items():
        for name, line in name_reads(tree):
            reads.setdefault(name, []).append((stem, line))
    unread = []
    for stem, tree in trees.items():
        for name, node in public_definitions(tree):
            body = range(node.lineno, node.end_lineno + 1)
            if not any(other != stem or line not in body
                       for other, line in reads.get(name.rsplit(".", 1)[-1], [])):
                unread.append(f"{stem}.{name}")
    return unread


def test_every_public_definition_is_read_in_src():
    # a function or method that only tests call is a test oracle, and
    # belongs in tests/oracles.py; what is left in src/ is what runs
    unread = set(unread_public_definitions())
    assert sorted(unread - UNREAD_PUBLIC) == []
    # an exception that has gained a reader comes off the list
    assert UNREAD_PUBLIC <= unread


def enum_members(trees: dict[str, ast.Module]) -> dict[str, list[str]]:
    """The member names of every enum.Enum subclass, by class name."""
    members = {}
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and any(
                    ast.unparse(base) in ("enum.Enum", "Enum") for base in node.bases):
                members[node.name] = [target.id for item in node.body
                                      if isinstance(item, ast.Assign)
                                      for target in item.targets
                                      if isinstance(target, ast.Name)]
    return members


def uncounted_nodes(tree: ast.Module) -> set[int]:
    """The ids of the nodes whose reads test or list a member but build
    nothing: comparison operands, the elements of a tuple or set literal
    compared against, and all of a module-level container literal."""
    skip = set()
    containers = (ast.Set, ast.Dict, ast.Tuple, ast.List)
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, containers):
            skip.update(id(inner) for inner in ast.walk(node.value))
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for operand in (node.left, *node.comparators):
                skip.add(id(operand))
                if isinstance(operand, (ast.Tuple, ast.Set)):
                    skip.update(id(element) for element in operand.elts)
    return skip


def unbuilt_enum_members() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    members = enum_members(trees)
    built = set()
    for tree in trees.values():
        skip = uncounted_nodes(tree)
        built.update((node.value.id, node.attr) for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and id(node) not in skip
                     and isinstance(node.value, ast.Name) and node.value.id in members)
    return sorted(f"{cls}.{name}" for cls, names in members.items()
                  for name in names if (cls, name) not in built)


def test_every_enum_member_is_built_in_src():
    # a member that src/ only compares against or lists is a catalogue
    # entry that no code path can produce, and its branches are dead
    assert unbuilt_enum_members() == []
