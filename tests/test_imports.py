"""Every module of the package uses each name it imports.

No linter is part of the test toolchain, so this is its unused-import check:
each module but `__init__.py` (whose imports are the public API) is parsed
with `ast`, and a name that an import binds but no expression reads fails.
"""

import ast
from pathlib import Path

import pytest

import rofsim

MODULES = sorted(p for p in Path(rofsim.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_finds_an_unused_import():
    assert unused_imports("import os\nfrom math import pi, tau as t\nprint(pi)\n") == ["os", "t"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text()) == []
