"""No module of the package imports a name it never uses.

The package root is exempt: its imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "laurentgerms"


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of ``source`` that nothing reads.

    A quoted annotation such as ``"Node"`` or ``list["Node"]`` reads the
    names in it.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = _names(tree)
    for node in ast.walk(tree):
        hints = (getattr(node, "annotation", None),
                 getattr(node, "returns", None))
        for part in (p for h in hints if h is not None for p in ast.walk(h)):
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                used |= _names(ast.parse(part.value))
    return [name for name in imported if name not in used]


def _names(tree) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_a_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import json\n"
              "from .exact import Mat, Polynomial, Vec, mat\n"
              "def f(p: 'Polynomial', m: list['Mat']) -> 'Vec':\n"
              "    return json.dumps(p)\n")
    assert unused_imports(source) == ["mat"]
