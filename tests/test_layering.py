"""Package layering: which modules of longmap may import which.

The map (``core``) and the reference model (``listmap``) stand alone; the
growable map (a ``FixedLongMap`` that reallocates its own arrays) and the
invariant build on the map only. None of them imports the test harness
(``conformance``) or anything above it. Nor does the package keep a public
name that neither it nor its exports use.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "longmap"

ALLOWED = {
    "core": set(),
    "listmap": set(),
    "growable": {"core"},
    "invariants": {"core"},
}


def package_imports(module: str) -> set:
    """Modules of the package that ``module`` imports, by short name."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level > 0:
                if node.module:
                    found.add(node.module.split(".")[0])
                else:
                    found.update(alias.name for alias in node.names)
            elif node.module and node.module.split(".")[0] == "longmap":
                parts = node.module.split(".")
                found.update(parts[1:2] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "longmap" and len(parts) > 1:
                    found.add(parts[1])
    return found


def test_walk_sees_package_imports():
    assert {p.stem for p in PACKAGE.glob("*.py")} >= set(ALLOWED)
    assert {"core", "conformance", "growable"} <= package_imports("cli")


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_module_imports_only_lower_layers(module):
    assert package_imports(module) <= ALLOWED[module]


def test_unexported_names_have_a_caller_in_the_package():
    # A public function or class that longmap.__all__ does not export must
    # be used somewhere in the package; one only the tests call is dead
    # library surface.
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and node.targets[0].id == "__all__"
    )
    defined = {}
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[node.name] = path.stem
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert "run_trace" in defined and "equivalence_violation" in used
    unused = [f"{mod}.{name}" for name, mod in defined.items() if name not in exported and name not in used]
    assert unused == []
