"""Every module of the package uses each name it imports.

A stdlib stand-in for a linter's unused-import rule: each module under
src/pmtop except the package's __init__ (whose imports are its exports) is
parsed with ast, and a name bound by an import must be read somewhere in
the module.
"""

import ast
from pathlib import Path

import pytest

import pmtop

MODULES = sorted(p for p in Path(pmtop.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "import os\nimport numpy as np\nfrom typing import Any, Callable\nx: Any = np.pi\n"
    assert unused_imports(source) == ["line 1: os", "line 3: Callable"]
