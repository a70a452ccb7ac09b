"""Every name a ``proofmatch`` module or a test file imports is used in
that file.

``__init__.py`` is exempt: its imports are the package's re-exports.
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
