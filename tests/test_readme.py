"""The README's examples print what the README says they print."""

import builtins
import importlib
import inspect
import io
import json
import pathlib
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from itertools import chain

from expdyn.cli import main

TEXT = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")

LAMBDASET = "lambdaset: 4x4 field, depth 3, 9 survivors (conservative), 0 precision caveats"
COVER = [
    "cover n=0: total 19.6554 >= budget 7.28319",
    "cover n=1: total 0.527289 < budget 3.64159",
    "cover n=2: total 0 < budget 1.8208",
    "cover n=3: total 0 < budget 0.910398",
]
# (the comment beside a print in the Python session, the value it shows);
# a value ending in "..." is the start of the printed line
SESSION = [
    ("# tower level 46", "46"),
    ("# True", "True"),
    ("# True 0.0536...", "True 0.0536..."),
]


def _example(name):
    """argv of the README's `expdyn NAME ...` example, continuations joined."""
    found = re.search(rf"^expdyn {name} (?:.*\\\n)*.*$", TEXT, re.M)
    return shlex.split(found.group(0).replace("\\\n", " "))[1:]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def test_orbit_example_prints_the_documented_header():
    header = "n,log_level,log_mantissa,argument,re,im,escaped,precision_flag"
    assert f"`{header}`" in TEXT
    code, out = _run(_example("orbit"))
    assert code == 0
    assert out.splitlines()[0] == header


def test_lambdaset_example():
    assert LAMBDASET in TEXT
    code, out = _run(_example("lambdaset"))
    assert code == 0
    assert out.splitlines() == [LAMBDASET]


def test_certify_example():
    for line in COVER:
        assert line in TEXT
    code, out = _run(_example("certify"))
    assert code == 0
    lines = out.splitlines()
    assert lines[-len(COVER):] == COVER
    # the certificate fields the README names
    doc = json.loads("\n".join(lines[:-len(COVER)]))
    for key in ("per_rectangle", "per_column", "max_sum", "pass"):
        assert f"`{key}`" in TEXT
        assert key in doc
    assert doc["pass"] is True


def test_python_session():
    block = re.search(r"^```python\n(.*?)^```", TEXT, re.M | re.S).group(1)
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(SESSION)
    for line, (comment, shown) in zip(printed, SESSION):
        assert comment in block
        assert shown in comment
        if shown.endswith("..."):
            assert line.startswith(shown[:-3]), (line, shown)
        else:
            assert line == shown


def _stale_library_names(text):
    """Names in the library table's `expdyn.X` rows that are neither an
    attribute of module expdyn.X, nor of one of its public classes (a
    record's fields are attributes of its class), nor a builtin; only
    identifiers and call names are read, and a span of identifiers joined
    by slashes (`exp/log`) names each one."""
    rows = re.findall(r"^\| `(expdyn\.\w+)`\s*\|(.*)\|$", text, re.M)
    assert len(rows) == 8, rows
    stale = []
    for module_name, cells in rows:
        module = importlib.import_module(module_name)
        owners = [module, builtins] + [
            cls for name, cls in vars(module).items()
            if inspect.isclass(cls) and not name.startswith("_")]
        spans = re.findall(r"`([^`]*)`", cells)
        for span in chain.from_iterable(
                s.split("/") if re.fullmatch(r"\w+(?:/\w+)+", s) else (s,)
                for s in spans):
            name = re.fullmatch(r"([A-Za-z_]\w*)(?:\(.*\))?", span)
            if name and not any(hasattr(o, name.group(1)) for o in owners):
                stale.append(f"{module_name}.{name.group(1)}")
    return stale


def test_library_table_names_only_what_the_package_has():
    assert _stale_library_names(TEXT) == []


def test_library_table_check_catches_a_stale_name():
    planted = TEXT.replace("| `trace_ray`, CSV export |",
                           "| `trace_ray`, `landing_probe(t)`, CSV export |")
    planted = planted.replace("`exp/log/add_float`", "`exp/log/add_float/mul_float`")
    assert planted.count("landing_probe") == TEXT.count("landing_probe") + 1
    assert planted.count("mul_float") == TEXT.count("mul_float") + 1
    assert _stale_library_names(planted) == [
        "expdyn.towers.mul_float", "expdyn.rays.landing_probe"]
