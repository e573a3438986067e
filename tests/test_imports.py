"""Every name a module imports is used in that module, and the package
and the command line load each submodule only when something uses it."""

import ast
import json
import os
import pathlib
import subprocess
import sys

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


def _fresh(code: str):
    """What code prints as JSON on its last line, run in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(expdyn.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    return json.loads(out.splitlines()[-1])


_LOADED = ("json.dumps(sorted(k for k in sys.modules "
           "if k == 'expdyn' or k.startswith('expdyn.')))")


def test_importing_the_package_and_the_cli_loads_only_errors():
    assert _fresh(f"import json, sys, expdyn, expdyn.cli; print({_LOADED})") == [
        "expdyn", "expdyn.cli", "expdyn.errors"]


_COMMANDS = {
    "orbit": ["orbit", "--lambda=1,0", "--z=0,0", "--steps=3"],
    "supergrowth": ["supergrowth", "--lambda=1,0", "--c=1", "--steps=5"],
    "lambdaset": ["lambdaset", "--lambda=0.25,0", "--set=strip:-2,2",
                  "--window=-3,-2,3,2", "--res=4,4", "--depth=5"],
    "ray": ["ray", "--lambda=1,0", "--address=0...const", "--t=1:2:1", "--depth=5"],
    "certify": ["certify", "--lambda=1,0", "--set=strip:0,3.14", "--delta=0.5",
                "--m=10", "--rmax=12"],
    "boxdim": ["boxdim", "--points={points}", "--scales=1:0.05:2"],
}


@pytest.mark.parametrize("command, absent", [
    ("orbit", {"induced", "invariant_sets", "boxdim", "rays", "render", "reports"}),
    ("supergrowth", {"induced", "invariant_sets", "boxdim", "rays", "render"}),
    ("lambdaset", {"induced", "boxdim", "rays", "render", "reports"}),
    ("ray", {"induced", "boxdim", "render", "invariant_sets", "parallel"}),
    ("certify", {"boxdim", "rays", "render", "coding"}),
    ("boxdim", {"induced", "invariant_sets", "parallel", "rays", "render", "coding"}),
])
def test_a_command_loads_only_the_modules_it_calls(command, absent, tmp_path):
    points = tmp_path / "points.csv"
    points.write_text("".join(f"{i / 50},{(i * i % 37) / 37}\n" for i in range(200)))
    argv = [arg.replace("{points}", str(points)) for arg in _COMMANDS[command]]
    code = ("import contextlib, io, json, sys, expdyn.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert expdyn.cli.main({argv!r}) == 0\n"
            f"print({_LOADED})")
    loaded = {name.partition(".")[2] for name in _fresh(code)}
    assert {"cli", "errors", "dynamics"} <= loaded
    assert not loaded & absent


def test_star_import_and_dir_give_every_public_name():
    code = ("import json, expdyn\nfrom expdyn import *\n"
            "print(json.dumps([expdyn.__all__, [n for n in expdyn.__all__ "
            "if n not in globals()], [n for n in expdyn.__all__ if n not in dir(expdyn)]]))")
    names, unbound, undir = _fresh(code)
    assert names == sorted(set(names)) and len(names) == 56
    assert unbound == [] and undir == []


def test_each_public_name_is_the_object_its_submodule_defines():
    code = ("import json, sys, expdyn\nbad = []\n"
            "for name in expdyn.__all__:\n"
            "    value = getattr(expdyn, name)\n"
            "    if getattr(sys.modules[value.__module__], name) is not value:\n"
            "        bad.append(name)\n"
            "print(json.dumps([bad, expdyn.Strip is expdyn.invariant_sets.Strip]))")
    assert _fresh(code) == [[], True]


def test_an_unknown_name_is_an_attribute_error_and_a_submodule_loads_by_name():
    code = ("import json, sys, expdyn\n"
            "try:\n    expdyn.nope\nexcept AttributeError as exc:\n    msg = str(exc)\n"
            "before = 'expdyn.induced' in sys.modules\n"
            "found = expdyn.induced.positive_sum is expdyn.positive_sum\n"
            "others = [expdyn.parallel.__name__, expdyn.reports.__name__]\n"
            "print(json.dumps([msg, hasattr(expdyn, 'nope'), before, found, others]))")
    assert _fresh(code) == ["module 'expdyn' has no attribute 'nope'", False, False, True,
                            ["expdyn.parallel", "expdyn.reports"]]
