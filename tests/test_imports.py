"""Every name a ``proofmatch`` module or a test file imports is used in
that file, and every module-private top-level name of a ``proofmatch``
module is referenced somewhere besides its definition.

``__init__.py`` is exempt from the import check: its imports are the
package's re-exports.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "proofmatch"
FILES = (sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
         + sorted(TESTS.glob("*.py")))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_detects_an_unused_import():
    assert unused_imports("import numpy as np\nimport os\nos.getcwd()\n") \
        == ["line 1: np"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_definitions(source: str) -> list[str]:
    """The top-level names of a module that start with one underscore and
    are not dunders, in order of definition."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        names += [n for n in targets if n.startswith("_") and not n.endswith("__")]
    return names


def references(source: str) -> tuple[set[str], set[str]]:
    """The names a source reads, and the names it reaches from outside:
    imported by name, or read as an attribute."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    outside = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    outside |= {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    return read, outside


def unreferenced_privates(modules: dict[str, str], others: list[str]) -> list[str]:
    """``module: name`` for each private top-level name of ``modules`` that
    neither its own module reads nor any source reaches from outside."""
    outside = set().union(*(references(s)[1]
                            for s in [*modules.values(), *others]))
    return [f"{module}: {name}" for module, source in modules.items()
            for used in [references(source)[0] | outside]
            for name in private_definitions(source) if name not in used]


def test_detects_an_unreferenced_private_name():
    modules = {"a": "def _used(): pass\ndef _dead(): pass\n_LIMIT = 3\n"
                    "def run(): return _used()\n",
               "b": "from a import _LIMIT\n_dead = 1\n"}
    assert unreferenced_privates(modules, []) == ["a: _dead", "b: _dead"]
    assert unreferenced_privates(modules, ["import a\na._dead\n"]) == []


def test_every_private_name_is_referenced():
    modules = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    tests = [p.read_text(encoding="utf-8") for p in sorted(TESTS.glob("*.py"))]
    assert unreferenced_privates(modules, tests) == []


def proofmatch_imports(source: str) -> set[str]:
    """The ``proofmatch`` modules a module of the package imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            names |= ({node.module} if node.module
                      else {alias.name for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[0] == "proofmatch":
                names.add(node.module.partition(".")[2] or "proofmatch")
        elif isinstance(node, ast.Import):
            names |= {alias.name.partition(".")[2] or alias.name
                      for alias in node.names
                      if alias.name.split(".")[0] == "proofmatch"}
    return names


def test_detects_a_proofmatch_import():
    assert proofmatch_imports(
        "import os\nfrom . import encoders\nfrom .errors import X\n"
        "import proofmatch.corpus\nfrom proofmatch.cli import main\n"
    ) == {"encoders", "errors", "corpus", "cli"}


def test_forkmap_imports_only_errors():
    # the map that any module may use reads the core count itself
    source = (SRC / "forkmap.py").read_text(encoding="utf-8")
    assert proofmatch_imports(source) == {"errors"}
