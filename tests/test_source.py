"""Static checks over the package source, standing in for a linter."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "domtri"


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads.  A name is read when it
    appears as a bare name, also inside a string annotation."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    annotations = [
        n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))
    ] + [n.returns for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    trees = [tree] + [
        ast.parse(c.value, mode="eval")
        for a in annotations
        if a is not None
        for c in ast.walk(a)
        if isinstance(c, ast.Constant) and isinstance(c.value, str)
    ]
    used = {n.id for t in trees for n in ast.walk(t) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_import_scan_sees_its_cases():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport re as regex\nfrom json import dumps, loads\n"
        "from fractions import Fraction\n"
        "def f(x: 'Fraction') -> None:\n    return regex.sub('a', 'b', loads(x))\n"
    )
    assert unused_imports(source) == ["os", "dumps"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_modules_use_every_import(path):
    assert unused_imports(path.read_text()) == []
