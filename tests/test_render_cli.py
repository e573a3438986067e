"""Palette rendering and the command-line front end, end to end."""

import argparse
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from expdyn import (
    ExternalAddress,
    ValidationError,
    horizontal_strip,
    render_field,
    sample_lambda_set,
    trace_ray,
    write_ray_csv,
)
import expdyn
from expdyn import cli
from expdyn.cli import main
from expdyn.invariant_sets import field_to_pgm, write_field_csv, write_field_pgm

STRIP = "strip:0,3.141592653589793"

GRAY = b"P5\n2 2\n255\n\xff@\xff\xff"
FIRE = b"P6\n2 2\n255\n" + b"\xff\xff\xff\xbf\x00\x00" + b"\xff\xff\xff" * 2


def _small_field():
    spec = horizontal_strip(0.0, math.pi)
    return sample_lambda_set(1.0, spec, (0.0, 0.0, 2.0, 2.0), (2, 2), 3)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _write_points(path):
    lines = ["re,im"] + [f"{i / 100},0" for i in range(101)]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


# ---------------------------------------------------------------------------
# render_field


def test_render_gray_bytes():
    buf = io.BytesIO()
    render_field(_small_field(), buf, palette="gray")
    assert buf.getvalue() == GRAY


def test_render_fire_bytes():
    buf = io.BytesIO()
    render_field(_small_field(), buf, palette="fire")
    assert buf.getvalue() == FIRE


def test_render_to_path(tmp_path):
    dest = tmp_path / "field.pgm"
    render_field(_small_field(), str(dest), palette="gray")
    assert dest.read_bytes() == GRAY


def test_both_writers_put_the_top_row_first():
    # Netpbm rasters run top to bottom; the field's data starts at the
    # bottom row (iy = 0), so the rows go out in reverse
    field = dataclasses.replace(_small_field(), conservative=(0, 1, 2, 4))
    assert field.raster() == [(2, 4), (0, 1)]
    assert field_to_pgm(field) == b"P5\n2 2\n65535\n\x00\x02\x00\x04\x00\x00\x00\x01"
    buf = io.BytesIO()
    render_field(field, buf, palette="gray")
    assert buf.getvalue() == b"P5\n2 2\n255\n" + bytes(
        round(255 * v / 4) for v in (2, 4, 0, 1))


def _ray():
    return trace_ray(1.0, ExternalAddress.constant(0), [2.0, 3.0], depth=10)


WRITERS = {
    "write_field_csv": (lambda dest: write_field_csv(_small_field(), dest), io.StringIO),
    "write_field_pgm": (lambda dest: write_field_pgm(_small_field(), dest), io.BytesIO),
    "write_ray_csv": (lambda dest: write_ray_csv(_ray(), dest), io.StringIO),
    "render_field": (lambda dest: render_field(_small_field(), dest, palette="fire"),
                     io.BytesIO),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_writers_accept_pathlib_paths(tmp_path, name):
    write, buffer = WRITERS[name]
    mem = buffer()
    write(mem)
    expected = mem.getvalue()
    if isinstance(expected, str):
        expected = expected.encode("ascii")
    dest = tmp_path / "out"
    write(dest)
    assert dest.read_bytes() == expected


@pytest.mark.parametrize("palette", ["gray", "fire"])
@pytest.mark.parametrize("bad", [-1, 99])
def test_render_rejects_values_outside_the_palette(palette, bad):
    field = _small_field()
    field = dataclasses.replace(field, conservative=(bad,) + field.conservative[1:])
    with pytest.raises(ValidationError, match="field values must lie in"):
        render_field(field, io.BytesIO(), palette=palette)


def test_render_rejects_unknown_palette():
    with pytest.raises(ValidationError, match="unknown palette 'neon'"):
        render_field(_small_field(), io.BytesIO(), palette="neon")


# ---------------------------------------------------------------------------
# exit codes and first lines across every subcommand


def test_cli_exit_codes_and_first_lines(tmp_path):
    pts = tmp_path / "pts.csv"
    _write_points(pts)
    cases = [
        (["orbit", "--lambda", "1", "--z", "0.5,3", "--steps", "6"],
         0, "out", "n,log_level,log_mantissa,argument,re,im,escaped,precision_flag"),
        (["orbit", "--lambda", "0", "--z", "1", "--steps", "3"],
         2, "err", "error: lambda must be nonzero"),
        (["supergrowth", "--lambda", "1", "--c", "1", "--steps", "10"],
         0, "out", "{"),
        (["supergrowth", "--lambda", "0.2", "--c", "0.1", "--steps", "10"],
         3, "out", "{"),
        (["ray", "--lambda", "1", "--address", "0...const", "--t", "2:4:1",
          "--depth", "10"],
         0, "out", "t,re,im,depth,residual"),
        (["ray", "--lambda", "0.2", "--address", "0...const", "--t", "2:3:1",
          "--depth", "20"],
         4, "err", "numeric range: pullback at t=2 moved by 4.099e-04 between depths 20 and"),
        (["ray", "--lambda", "1", "--address", "x;y", "--t", "2:4:1"],
         2, "err", "error: cannot parse address literal 'x;y'"),
        (["ray", "--lambda", "1", "--address", "0...const", "--t", "4:2:1"],
         2, "err", "error: --t needs STEP > 0 and T1 >= T0"),
        (["lambdaset", "--lambda", "1", "--set", STRIP,
          "--window", "0,0,2,2", "--res", "4,4", "--depth", "3"],
         0, "out",
         "lambdaset: 4x4 field, depth 3, 9 survivors (conservative), 0 precision caveats"),
        (["lambdaset", "--lambda", "1", "--set", "disk:3",
          "--window", "0,0,2,2", "--res", "4,4", "--depth", "3"],
         2, "err", "error: unknown set descriptor 'disk:3' (use strip:A,B or symstrip:H)"),
        (["certify", "--lambda", "1", "--set", STRIP,
          "--delta", "0.5", "--m", "10", "--rmax", "30"],
         0, "out", "{"),
        (["certify", "--lambda", "1", "--set", STRIP,
          "--delta", "0.01", "--m", "10", "--rmax", "30"],
         3, "out", "{"),
        (["certify", "--lambda", "1", "--set", STRIP, "--delta", "0.5",
          "--rmax", "30"],
         2, "err", "error: positive-only certification needs --m"),
        (["boxdim", "--points", str(pts), "--scales", "0.5:0.01:2"],
         0, "out", "{"),
        (["boxdim", "--points", str(pts), "--scales", "0.01:0.5:2"],
         2, "err", "error: --scales needs E0 > E1 > 0 and FACTOR > 1"),
        (["searchbound", "--lambda", "1", "--set", STRIP,
          "--delta-grid", "0.5,0.2", "--m-grid", "10"],
         0, "out", "{"),
        (["searchbound", "--lambda", "1", "--set", STRIP,
          "--delta-grid", "0.01", "--m-grid", "5", "--r-span", "10"],
         3, "out", "{"),
        (["frobnicate"], 2, "err", "usage: expdyn"),
    ]
    for argv, want_code, stream, first in cases:
        code, out, err = run_cli(argv)
        text = out if stream == "out" else err
        assert code == want_code, (argv, code, err or out)
        assert text.splitlines()[0].startswith(first), (argv, text.splitlines()[:1])


# ---------------------------------------------------------------------------
# one parser per process

VALID = ["orbit", "--lambda", "1", "--z", "-1,0.5", "--steps", "4"]


def test_calls_after_errors_and_help_match_a_fresh_parser():
    cli._build_parser.cache_clear()
    first = run_cli(VALID)
    assert first[0] == 0
    for argv, code in ((["orbit", "--lambda", "1", "--z", "0", "--steps", "x"], 2),
                       (["orbit", "--help"], 0), (["--help"], 0),
                       (["frobnicate"], 2),
                       (["orbit", "--lambda", "0", "--z", "1", "--steps", "3"], 2)):
        cli._build_parser.cache_clear()
        fresh = run_cli(argv)
        assert fresh[0] == code and (fresh[1] or fresh[2]), argv
        assert run_cli(argv) == fresh, argv
        assert run_cli(VALID) == first, argv


def test_parser_is_built_once_across_calls():
    cli._build_parser.cache_clear()
    for argv in (VALID, ["frobnicate"], ["--help"], ["orbit"], VALID):
        run_cli(argv)
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 4)


def test_importing_the_cli_builds_no_parser():
    src = os.path.dirname(os.path.dirname(expdyn.__file__))
    code = "import expdyn.cli as c; print(c._build_parser.cache_info().currsize)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout == "0\n"


def _parsers(parser):
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


def test_every_parser_default_is_immutable():
    parser, flags = cli._build_parser()
    assert isinstance(flags, frozenset) and "--lambda" in flags
    immutable = (type(None), bool, int, float, str, tuple)
    parsers = list(_parsers(parser))
    assert len(parsers) == 8
    for p in parsers:
        for action in p._actions:
            assert isinstance(action.default, immutable), (p.prog, action.dest)
            if not isinstance(action, argparse._SubParsersAction):
                assert isinstance(action.choices, (type(None), tuple)), (p.prog, action.dest)
        for name, value in p._defaults.items():
            assert name == "handler" and value.__module__ == "expdyn.cli", p.prog


# ---------------------------------------------------------------------------
# orbit


def test_orbit_csv_file_and_summary(tmp_path):
    dest = tmp_path / "orbit.csv"
    argv = ["orbit", "--lambda", "1", "--z", "0,3.141592653589793",
            "--steps", "8", "--csv", str(dest)]
    code, out, err = run_cli(argv)
    assert code == 0 and err == ""
    assert out == "orbit: 9 points, escaped at n=7\n"
    lines = dest.read_text(encoding="ascii").splitlines()
    assert lines[0] == "n,log_level,log_mantissa,argument,re,im,escaped,precision_flag"
    assert len(lines) == 10
    row1 = lines[2].split(",")
    assert int(row1[0]) == 1
    assert float(row1[4]) == -1.0
    assert float(row1[5]) == 1.2246467991473532e-16
    assert (row1[6], row1[7]) == ("0", "0")
    # past native range re/im go empty, the escape and precision flags are set
    row7 = lines[8].split(",")
    assert (row7[4], row7[5]) == ("", "")
    assert (row7[6], row7[7]) == ("1", "1")
    first = dest.read_bytes()
    run_cli(argv)
    assert dest.read_bytes() == first


# ---------------------------------------------------------------------------
# supergrowth


def test_supergrowth_json_document(tmp_path):
    code, out, _ = run_cli(["supergrowth", "--lambda", "1", "--c", "1",
                            "--steps", "10"])
    assert code == 0
    doc = json.loads(out)
    assert doc["format_version"] == 1
    assert doc["lambda"] == [1.0, 0.0]
    assert doc["holds"] is True
    assert doc["ratios"][:4] == [1.0, 1.0, 1.0, 1.0]
    assert all(r is None for r in doc["ratios"][4:])
    assert doc["largest_passing_c"] == 1.0
    dest = tmp_path / "sg.json"
    code2, out2, _ = run_cli(["supergrowth", "--lambda", "1", "--c", "1",
                              "--steps", "10", "--json", str(dest)])
    assert code2 == 0 and out2 == ""
    assert dest.read_text(encoding="ascii") + "\n" == out


def test_supergrowth_failure_document():
    code, out, _ = run_cli(["supergrowth", "--lambda", "0.2", "--c", "0.1",
                            "--steps", "10"])
    assert code == 3
    doc = json.loads(out)
    assert doc["holds"] is False
    assert doc["sustained"] is False
    assert doc["first_failure_index"] is None
    assert doc["escape_threshold"] == 3.577152063957297


# ---------------------------------------------------------------------------
# ray


def test_ray_csv_file_and_summary(tmp_path):
    dest = tmp_path / "ray.csv"
    code, out, err = run_cli(["ray", "--lambda", "1", "--address", "0...const",
                              "--t", "2:4:1", "--depth", "10", "--csv", str(dest)])
    assert code == 0 and err == ""
    assert out == "ray (0,0,...): 3 samples, max residual 0\n"
    lines = dest.read_text(encoding="ascii").splitlines()
    assert lines[0] == "t,re,im,depth,residual"
    assert lines[1] == "2,2,0,2,0"
    assert len(lines) == 4


def test_ray_t_range_does_not_drift():
    # t = t0 + i*step: the last sample is T1 itself, not T1 plus the
    # rounding error of ten accumulated steps
    code, out, _ = run_cli(["ray", "--lambda", "1", "--address", "0...const",
                            "--t", "1:2:0.1", "--depth", "10"])
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 11
    assert rows[-1].split(",")[0] == "2"


def test_ray_t_range_rejects_non_finite_bounds():
    for t in ("1:inf:1", "-inf:1:1", "1:2:nan"):
        code, _, err = run_cli(["ray", "--lambda=1", "--address=0", f"--t={t}"])
        assert code == 2
        assert err.startswith("error: --t needs finite numbers")


@pytest.mark.parametrize("flag, value, rest", [
    ("--lambda", "-1,0", ["orbit", "--z", "0", "--steps", "2"]),
    ("--z", "-1,0", ["orbit", "--lambda", "1", "--steps", "2"]),
    ("--window", "-2,-1,4,4",
     ["lambdaset", "--lambda", "1", "--set", "strip:0,3.141592653589793",
      "--res", "4,4", "--depth", "3"]),
])
def test_negative_values_after_a_space(flag, value, rest):
    spaced = run_cli(rest + [flag, value])
    joined = run_cli(rest + [f"{flag}={value}"])
    assert spaced == joined
    assert spaced[0] == 0


# ---------------------------------------------------------------------------
# lambdaset


def test_lambdaset_writes_pgm_and_csv(tmp_path):
    pgm, csv = tmp_path / "f.pgm", tmp_path / "f.csv"
    code, out, _ = run_cli(["lambdaset", "--lambda", "1", "--set", STRIP,
                            "--window", "0,0,2,2", "--res", "4,4", "--depth", "3",
                            "--pgm", str(pgm), "--csv", str(csv)])
    assert code == 0
    assert out == ("lambdaset: 4x4 field, depth 3, 9 survivors (conservative), "
                   "0 precision caveats\n")
    blob = pgm.read_bytes()
    assert blob.startswith(b"P5\n4 4\n65535\n")
    assert len(blob) == 13 + 2 * 16
    lines = csv.read_text(encoding="ascii").splitlines()
    assert lines[0] == "ix,iy,re,im,exit_depth"
    assert len(lines) == 17


# ---------------------------------------------------------------------------
# certify


def test_certify_json_and_cover_lines(tmp_path):
    dest = tmp_path / "cert.json"
    argv = ["certify", "--lambda", "1", "--set", STRIP, "--delta", "0.5",
            "--m", "10", "--rmax", "30", "--cover-depth", "5",
            "--json", str(dest)]
    code, out, _ = run_cli(argv)
    assert code == 0
    doc = json.loads(dest.read_text(encoding="ascii"))
    assert doc["format_version"] == 1
    assert doc["pass"] is True
    assert doc["M"] == 10
    assert doc["delta"] == 0.5
    assert doc["max_sum"] == 0.0536547399495383
    assert out.splitlines() == [
        "cover n=0: total 19.6554 >= budget 7.28319",
        "cover n=1: total 0.527289 < budget 3.64159",
        "cover n=2: total 0 < budget 1.8208",
        "cover n=3: total 0 < budget 0.910398",
        "cover n=4: total 0 < budget 0.455199",
        "cover n=5: total 0 < budget 0.2276",
    ]


def test_certify_stdout_is_deterministic():
    argv = ["certify", "--lambda", "1", "--set", STRIP, "--delta", "0.5",
            "--m", "10", "--rmax", "30"]
    _, first, _ = run_cli(argv)
    _, second, _ = run_cli(argv)
    assert first == second
    assert json.loads(first)["pass"] is True


# ---------------------------------------------------------------------------
# boxdim


def test_boxdim_json_document_and_determinism(tmp_path):
    pts = tmp_path / "pts.csv"
    _write_points(pts)
    argv = ["boxdim", "--points", str(pts), "--scales", "0.5:0.01:2"]
    code, out, _ = run_cli(argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["format_version"] == 1
    assert doc["epsilons"] == [0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625]
    assert doc["counts"] == [3, 5, 9, 17, 33, 65]
    assert doc["n_points"] == 101
    _, again, _ = run_cli(argv)
    assert again == out


def test_boxdim_rejects_empty_point_file(tmp_path):
    pts = tmp_path / "empty.csv"
    pts.write_text("re,im\n", encoding="ascii")
    code, _, err = run_cli(["boxdim", "--points", str(pts),
                            "--scales", "0.5:0.01:2"])
    assert code == 2
    assert err.startswith("error: no points parsed from")


# ---------------------------------------------------------------------------
# searchbound


def test_searchbound_json_documents():
    code, out, _ = run_cli(["searchbound", "--lambda", "1", "--set", STRIP,
                            "--delta-grid", "0.5,0.2", "--m-grid", "10"])
    assert code == 0
    doc = json.loads(out)
    assert doc["format_version"] == 1
    assert doc["status"] == "ok"
    assert doc["bound_achieved"] == 1.5
    assert doc["provenance"]["mode"] == "positive-only"
    assert doc["certificate"]["delta"] == 0.5
    assert doc["certificate"]["M"] == 10
    assert doc["boxcount"] is None

    code, out, _ = run_cli(["searchbound", "--lambda", "1", "--set", STRIP,
                            "--delta-grid", "0.01", "--m-grid", "5",
                            "--r-span", "10"])
    assert code == 3
    doc = json.loads(out)
    assert doc["status"] == "no certificate in grid"
    assert doc["bound_achieved"] is None
    assert doc["certificate"] is None


@pytest.mark.parametrize("extra", [
    ["--m", "10", "--rmax", "9"],  # positive-only, M = 10
    ["--l0", "3", "--c", "1", "--rmax", "15"],  # two-sided, induced M = 16
    ["--rmax", "30"],  # positive-only without --m
])
def test_certify_rejects_a_column_range_without_m(extra):
    code, out, err = run_cli(["certify", "--lambda", "1", "--set", STRIP,
                              "--delta", "0.5"] + extra)
    assert code == 2 and out == ""
    assert err.startswith("error: ")
