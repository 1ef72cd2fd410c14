"""Package layering: which modules of longmap may import which.

The map (``core``) and the reference model (``listmap``) stand alone; the
growable map (a ``FixedLongMap`` that reallocates its own arrays) and the
invariant build on the map only. None of them imports the test harness
(``conformance``) or anything above it. Nor does the package keep a public
name that neither it nor its exports use, nor a clock: timing belongs to
``benchmarks/``, so every command's output is a function of its input. The
maps write their arrays by index or slice only, where the checker's write
journal sees each write.
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


@pytest.mark.parametrize("module", ["conformance", "invariants"])
def test_checkers_use_no_private_name_of_core(module):
    # The checkers walk probe paths by the invariant's own loop, never by the
    # map's: a defect in the map's probe loop must not hide in its checker.
    private = []
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "core":
            private += [alias.name for alias in node.names if alias.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            if ast.unparse(node.value).split(".")[-1] == "core":
                private.append(node.attr)
    assert "core" in package_imports(module)
    assert private == []


def exported_names() -> list:
    """``longmap.__all__``, read from the source."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and node.targets[0].id == "__all__"
    )


def unused_imports(source: str, exported=()) -> list:
    """Names that ``source`` imports and never reads, in import order.
    Names in ``exported`` count as read: a package re-exports them."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used and name not in exported]


def test_unused_imports_are_seen():
    src = "from .core import LONG_MIN, live_pairs\nimport a.b\n\ndef f(k):\n    return k == LONG_MIN\n"
    assert unused_imports(src) == ["live_pairs", "a"]
    assert unused_imports(src, exported=["live_pairs"]) == ["a"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    # A stale import keeps a dependency alive after its last caller is gone.
    exported = exported_names() if path.name == "__init__.py" else ()
    assert unused_imports(path.read_text(), exported) == []


def test_unexported_names_have_a_caller_in_the_package():
    # A public function or class that longmap.__all__ does not export must
    # be used somewhere in the package; one only the tests call is dead
    # library surface.
    exported = exported_names()
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


def test_no_module_imports_time():
    clocked = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            clocked += [f"{path.stem}: {n}" for n in names if n.split(".")[0] == "time"]
    assert clocked == []


# Array methods that change an array past its __setitem__ and __delitem__,
# where the checker's write journal does not see the change.
UNJOURNALED = {
    "append",
    "extend",
    "insert",
    "pop",
    "remove",
    "byteswap",
    "reverse",
    "frombytes",
    "fromlist",
    "fromfile",
    "fromunicode",
}


def is_array_name(node) -> bool:
    """``node`` names a map array: ``keys`` or ``values``, bare or as an attribute."""
    if isinstance(node, ast.Attribute):
        return node.attr in ("keys", "values")
    return isinstance(node, ast.Name) and node.id in ("keys", "values")


def unjournaled_writes(source: str) -> list:
    """``line: code`` of each change to ``keys`` or ``values`` that bypasses
    ``__setitem__``, by line: a call of an UNJOURNALED method on one, an
    augmented assignment to one, and any ``memoryview``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id == "memoryview":
                found.append(node)
            elif isinstance(f, ast.Attribute) and f.attr in UNJOURNALED and is_array_name(f.value):
                found.append(node)
        elif isinstance(node, ast.AugAssign) and is_array_name(node.target):
            found.append(node)
    return [f"{node.lineno}: {ast.unparse(node)}" for node in sorted(found, key=lambda n: n.lineno)]


def test_unjournaled_writes_are_seen():
    src = (
        "def f(self, keys, pairs, new):\n"
        "    self.keys.append(1)\n"
        "    keys.byteswap()\n"
        "    new.values.frombytes(b'')\n"
        "    self.values += new.values\n"
        "    memoryview(keys)[0] = 1\n"
        "    pairs.pop(0, None)\n"
        "    keys[0] = 1\n"
        "    del self.values[1:2]\n"
        "    self.array_size += 1\n"
    )
    assert unjournaled_writes(src) == [
        "2: self.keys.append(1)",
        "3: keys.byteswap()",
        "4: new.values.frombytes(b'')",
        "5: self.values += new.values",
        "6: memoryview(keys)",
    ]


@pytest.mark.parametrize("module", ["core", "growable"])
def test_maps_write_arrays_only_through_setitem(module):
    assert unjournaled_writes((PACKAGE / f"{module}.py").read_text()) == []
