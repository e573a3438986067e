"""Every name a module imports is used in that module."""

import ast
import pathlib

import pytest

import expdyn

MODULES = sorted(p for p in pathlib.Path(expdyn.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                # "import a.b" binds a; "from m import x as y" binds y
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_the_scan_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path, re\nfrom math import pi as PI, tau\n"
              "def f() -> tau:\n    return os.path.join('a') + PI\n")
    assert _unused_imports(source) == ["re (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []
