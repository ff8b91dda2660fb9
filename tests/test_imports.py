"""Every module of the package and of the tests uses each name it imports,
every private top-level name of the package is read by the package, and
`optics` never scans samples to learn which rail is lit.

No linter is part of the test toolchain, so this is its unused-import check:
each module but the package's `__init__.py` (whose imports are the public
API) is parsed with `ast`, and a name that an import binds but no expression
reads fails.
A def, class or constant of a package module whose name starts with `_` (and
is not a dunder) fails unless some package module reads it, as a name or as
an attribute; what only the tests read is not kept in the package.
A dark optical rail is None in `OpticalField`, so a call to `np.any` in
`optics.py` fails too.
"""

import ast
from pathlib import Path

import pytest

import rofsim

PACKAGE = Path(rofsim.__file__).parent
MODULES = {p.stem: p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
MODULES.update((f"tests.{p.stem}", p) for p in sorted(Path(__file__).parent.glob("*.py")))


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


@pytest.mark.parametrize("path", MODULES.values(), ids=MODULES.keys())
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """`module.name` of each private top-level def, class or constant of
    `sources` (module name -> source) that no source reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            unread += [f"{module}.{name}" for name in names
                       if name.startswith("_") and not name.endswith("__") and name not in read]
    return unread


def test_finds_an_unread_private_name():
    sources = {
        "a": "_used = 1\n_dead, _c = 2, 3\n__all__ = []\n"
             "def _f():\n    return _used\nclass _K: pass\n",
        "b": "from a import _K\nx = _K()\nprint(a._c)\n",
    }
    assert unread_private_names(sources) == ["a._dead", "a._f"]


def test_package_reads_its_private_names():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []


def any_calls(source: str) -> list[int]:
    """Lines that call `np.any` or `numpy.any`."""
    return [
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "any" and isinstance(node.func.value, ast.Name)
        and node.func.value.id in ("np", "numpy")
    ]


def test_finds_an_any_call():
    source = "import numpy\nimport numpy as np\nnp.any(x)\nif numpy.any(y): any(z)\nx.any()\n"
    assert any_calls(source) == [3, 4]


def test_optics_never_scans_for_darkness():
    assert any_calls((PACKAGE / "optics.py").read_text()) == []
