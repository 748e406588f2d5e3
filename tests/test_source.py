"""Static checks over the package source, standing in for a linter."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "domtri"


def with_string_annotations(tree: ast.AST) -> list[ast.AST]:
    """The tree plus one parsed tree per string annotation in it."""
    annotations = [
        n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))
    ] + [n.returns for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    return [tree] + [
        ast.parse(c.value, mode="eval")
        for a in annotations
        if a is not None
        for c in ast.walk(a)
        if isinstance(c, ast.Constant) and isinstance(c.value, str)
    ]


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
    trees = with_string_annotations(tree)
    used = {n.id for t in trees for n in ast.walk(t) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """`module:name` for each private top-level name (`_x`, not a dunder)
    that a module defines and no module reads.  A name is read when it is
    loaded as a bare name or an attribute, also inside a string
    annotation; an import alone is not a read."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [ast.Name(node.name)]
            elif isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            defined += [
                (module, n.id)
                for t in targets
                for n in ast.walk(t)
                if isinstance(n, ast.Name)
            ]
        for t in with_string_annotations(tree):
            for n in ast.walk(t):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    read.add(n.id)
                elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                    read.add(n.attr)
    return [
        f"{module}:{name}"
        for module, name in defined
        if name.startswith("_")
        and not (name.startswith("__") and name.endswith("__"))
        and name not in read
    ]


GC_SETTINGS = {"disable", "freeze", "set_threshold"}


def gc_setting_calls(source: str) -> list[str]:
    """Calls that change the interpreter-wide garbage collector settings,
    through the module (also under an alias) or a name imported from it."""
    tree = ast.parse(source)
    modules, names = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "gc"}
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            names |= {a.asname or a.name: a.name for a in node.names}
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
            if f.value.id in modules:
                calls.append(f"gc.{f.attr}")
        elif isinstance(f, ast.Name) and f.id in names:
            calls.append(f"gc.{names[f.id]}")
    return [c for c in calls if c.removeprefix("gc.") in GC_SETTINGS]


def test_unused_import_scan_sees_its_cases():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport re as regex\nfrom json import dumps, loads\n"
        "from fractions import Fraction\n"
        "def f(x: 'Fraction') -> None:\n    return regex.sub('a', 'b', loads(x))\n"
    )
    assert unused_imports(source) == ["os", "dumps"]


def test_unread_private_name_scan_sees_its_cases():
    a = (
        "__all__ = []\n_A = 1\n_B: int = 2\n_C, _D = 3, 4\n"
        "def _f():\n    return _A + _C\n"
        "class _K:\n    pass\n"
        "def _g() -> '_K':\n    pass\n"
        "def public():\n    _h = 5\n    return _h\n"
    )
    b = "import a\nfrom a import _f, _g\n_g()\nprint(a._B)\n"
    # _f is only imported, _D only stored; the local _h is not top level
    assert unread_private_names({"a": a, "b": b}) == ["a:_D", "a:_f"]


def test_gc_setting_scan_sees_its_cases():
    source = (
        "import gc\nimport gc as collector\nfrom gc import freeze as f, collect\n"
        "gc.collect()\ngc.disable()\ncollector.set_threshold(10)\nf()\ncollect()\n"
        "other.disable()\n"
    )
    assert gc_setting_calls(source) == ["gc.disable", "gc.set_threshold", "gc.freeze"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_leaves_gc_settings_alone(path):
    # less garbage-collector pressure comes from allocating less, not from
    # changing the host interpreter's collector
    assert gc_setting_calls(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_modules_use_every_import(path):
    assert unused_imports(path.read_text()) == []


def line_count(paths) -> int:
    """Lines over all the files, as `wc -l` counts them (newline bytes)."""
    return sum(p.read_bytes().count(b"\n") for p in paths)


def test_line_count_matches_wc(tmp_path):
    (tmp_path / "a.py").write_text("x = 1\n\ny = 2")  # no final newline
    (tmp_path / "b.py").write_text("")
    assert line_count(sorted(tmp_path.glob("*.py"))) == 2


def test_package_stays_under_line_cap():
    # the cap that ROADMAP.md sets for src/domtri
    assert line_count(SRC.glob("*.py")) <= 3000


def test_package_reads_every_private_name():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []
