"""Palette rendering and the command-line front end, end to end."""

import argparse
import io
import json
import math
import os
import struct
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from expdyn import (
    ExternalAddress,
    ValidationError,
    horizontal_strip,
    ray_to_csv,
    render_field,
    sample_lambda_set,
    trace_ray,
)
import expdyn
from expdyn import cli
from expdyn.cli import main
from expdyn.invariant_sets import (
    ExitDepthField,
    _RANGE_LIMIT,
    field_to_csv,
    field_to_pgm,
    write_field_pgm,
)
from expdyn.render import _fire

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
    field = _small_field()._replace(conservative=(0, 1, 2, 4))
    assert field.raster() == [(2, 4), (0, 1)]
    assert field_to_pgm(field) == b"P5\n2 2\n65535\n\x00\x02\x00\x04\x00\x00\x00\x01"
    buf = io.BytesIO()
    render_field(field, buf, palette="gray")
    assert buf.getvalue() == b"P5\n2 2\n255\n" + bytes(
        round(255 * v / 4) for v in (2, 4, 0, 1))


WRITERS = {
    "write_field_pgm": lambda dest: write_field_pgm(_small_field(), dest),
    "render_field": lambda dest: render_field(_small_field(), dest, palette="fire"),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_writers_accept_pathlib_paths(tmp_path, name):
    write = WRITERS[name]
    mem = io.BytesIO()
    write(mem)
    dest = tmp_path / "out"
    write(dest)
    assert dest.read_bytes() == mem.getvalue()


@pytest.mark.parametrize("palette", ["gray", "fire"])
@pytest.mark.parametrize("bad", [-1, 99])
def test_render_rejects_values_outside_the_palette(palette, bad):
    field = _small_field()
    field = field._replace(conservative=(bad,) + field.conservative[1:])
    with pytest.raises(ValidationError, match="field values must lie in"):
        render_field(field, io.BytesIO(), palette=palette)


@pytest.mark.parametrize("bad", [-1, 5, 99999])
def test_field_pgm_rejects_values_outside_the_field(bad):
    # depth 3: exits are 0..2 and survivors 4, so 5 and up cannot occur
    field = _small_field()
    field = field._replace(conservative=(bad,) + field.conservative[1:])
    with pytest.raises(ValidationError, match=r"field values must lie in 0\.\.4"):
        field_to_pgm(field)


@pytest.mark.parametrize("palette", ["gray", "fire"])
@pytest.mark.parametrize("bad", [-1, 5])
def test_render_refuses_a_bad_value_in_the_last_row_before_writing(tmp_path, palette, bad):
    # the raster runs top row first, so the bottom row (iy = 0) is written
    # last; its last pixel is the first bad value the renderer meets
    field = _field(3, 3, 4, [0, 1, bad] + [2] * 9, [4] * 12)
    dest = tmp_path / "field.ppm"
    with pytest.raises(ValidationError, match=r"^field values must lie in 0\.\.4$"):
        render_field(field, dest, palette=palette)
    assert not dest.exists()
    render_field(field, dest, palette=palette, policy="optimistic")
    assert dest.exists()


def test_render_rejects_unknown_palette():
    with pytest.raises(ValidationError, match="unknown palette 'neon'"):
        render_field(_small_field(), io.BytesIO(), palette="neon")


# ---------------------------------------------------------------------------
# the raster writers against the per-value writers they replaced


def pgm_by_struct(field, policy):
    """field_to_pgm as one struct.pack of every clamped value."""
    header = f"P5\n{field.nx} {field.ny}\n65535\n".encode("ascii")
    vals = [min(v, 65535) for row in field.raster(policy) for v in row]
    return header + struct.pack(f">{len(vals)}H", *vals)


def render_by_generator(field, palette, policy):
    """render_field with each row joined from a generator."""
    top = field.depth + 1
    if palette == "gray":
        table = [bytes((round(255 * (v / top)),)) for v in range(top + 1)]
    else:
        table = [bytes(_fire(v / top)) for v in range(top + 1)]
    buf = io.BytesIO()
    magic = b"P5" if palette == "gray" else b"P6"
    buf.write(magic + b"\n%d %d\n255\n" % (field.nx, field.ny))
    for row in field.raster(policy):
        buf.write(b"".join(table[v] for v in row))
    return buf.getvalue()


def _field(depth, nx, ny, cons, opt):
    return ExitDepthField((0.0, 0.0, 1.0, 1.0), nx, ny, depth,
                          tuple(cons), tuple(opt), 0)


@st.composite
def fields(draw, depths):
    depth = draw(depths)
    nx, ny = draw(st.integers(2, 9)), draw(st.integers(2, 9))
    values = st.lists(st.integers(0, depth + 1), min_size=nx * ny, max_size=nx * ny)
    return _field(depth, nx, ny, draw(values), draw(values))


@settings(max_examples=150, deadline=None)
@given(fields(st.one_of(st.integers(1, 40), st.sampled_from([65534, 65535, 70000]))))
def test_field_pgm_matches_the_struct_writer(field):
    for policy in ("conservative", "optimistic"):
        assert field_to_pgm(field, policy) == pgm_by_struct(field, policy)


@settings(max_examples=150, deadline=None)
@given(fields(st.integers(1, 300)), st.sampled_from(["gray", "fire"]))
def test_render_matches_the_generator_writer(field, palette):
    for policy in ("conservative", "optimistic"):
        buf = io.BytesIO()
        render_field(field, buf, palette=palette, policy=policy)
        assert buf.getvalue() == render_by_generator(field, palette, policy)


def test_render_builds_entries_only_for_the_values_the_raster_holds(monkeypatch):
    calls = []

    def fire(t):
        calls.append(t)
        return _fire(t)

    monkeypatch.setattr("expdyn.render._fire", fire)
    depth = 10 ** 6
    top = depth + 1
    field = _field(depth, 2, 2, (0, 5, top, top), (top,) * 4)
    buf = io.BytesIO()
    render_field(field, buf, palette="fire")
    assert sorted(calls) == [0.0, 5 / top, 1.0]
    shade = [bytes(_fire(v / top)) for v in (top, top, 0, 5)]
    assert buf.getvalue() == b"P6\n2 2\n255\n" + b"".join(shade)


def test_deep_field_pgms_saturate_at_65535():
    # depth 65535: the survivor value 65536 writes 65535, the last exit
    # index 65534 keeps its own value
    field = _field(65535, 2, 2, (0, 65534, 65536, 65536), (1, 2, 3, 65536))
    assert field_to_pgm(field) == b"P5\n2 2\n65535\n" + struct.pack(
        ">4H", 65535, 65535, 0, 65534)
    assert field_to_pgm(field, "optimistic") == b"P5\n2 2\n65535\n" + struct.pack(
        ">4H", 3, 65535, 1, 2)
    # depth 70000: exits at 65535 and later write 65535, as survivors do
    field = _field(70000, 3, 2, (65534, 65535, 69999, 70001, 0, 7),
                   (70001,) * 6)
    assert field_to_pgm(field) == b"P5\n3 2\n65535\n" + struct.pack(
        ">6H", 65535, 0, 7, 65534, 65535, 65535)
    assert field_to_pgm(field, "optimistic") == b"P5\n3 2\n65535\n" + b"\xff" * 12


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


def test_orbit_past_the_double_range_keeps_a_negative_zero_argument():
    # Arg(1 - 0i) = -0.0 becomes the argument once the modulus is a tower
    code, out, err = run_cli(["orbit", "--lambda=1,-0", "--z=1,0", "--steps=6"])
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[5] == "4,1,15.154262241479262,0,,,0,1"
    assert lines[-1] == "6,3,15.154262241479262,-0,,,1,1"


@pytest.mark.parametrize("lam, z, row", [("1,0", "1.7e308,1.7e308", 0),
                                         ("1.7e308,1.7e308", "0,0", 1)])
def test_orbit_of_a_point_past_dbl_max(lam, z, row):
    # |1.7e308 (1 + i)| passes DBL_MAX, so abs() of it overflows; its log
    # modulus log(1.7e308) + log(2) / 2 is past LIFT, a level-1 tower
    code, out, err = run_cli(["orbit", f"--lambda={lam}", f"--z={z}", "--steps=3"])
    assert (code, err) == (0, "")
    fields = out.splitlines()[1 + row].split(",")
    assert fields[1] == "1"
    want = math.log(math.log(1.7e308) + math.log(2.0) / 2)
    assert float(fields[2]) == pytest.approx(want, rel=1e-15)
    assert float(fields[3]) == math.pi / 4


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


def test_supergrowth_fails_at_once_where_the_orbit_is_not_positive():
    code, out, _ = run_cli(["supergrowth", "--lambda", "-1,0", "--c", "1",
                            "--steps", "5"])
    assert code == 3
    doc = json.loads(out)
    assert doc["first_failure_index"] == 1
    assert doc["ratios"] == [None] * 4
    assert doc["largest_passing_c"] == 0.0


def test_supergrowth_with_a_c_below_the_double_range():
    # -log c = 736.8: the largest root of c e^x = x lies past 709.78, where
    # e^x overflows, and so does the log margin at k = 1
    code, out, err = run_cli(["supergrowth", "--lambda", "1,0", "--c", "1e-320",
                              "--steps", "5"])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    x = doc["escape_threshold"]
    assert x > 709.78
    assert x + math.log(1e-320) == pytest.approx(math.log(x), rel=1e-14)
    # alpha_2 / e^alpha_1 = e / e: c = 1 passes the ratio check at k = 1
    assert doc["largest_passing_c"] == pytest.approx(1.0, rel=1e-12)
    assert doc["holds"] is True


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
    ray = trace_ray(1.0, ExternalAddress.constant(0), [2.0, 3.0, 4.0], depth=10)
    assert dest.read_bytes() == ray_to_csv(ray).encode("ascii")


@pytest.mark.parametrize("address", ["periodic:5", "const:5"])
def test_ray_summary_shows_a_one_entry_cycle_twice(tmp_path, address):
    code, out, err = run_cli(["ray", "--lambda", "1", "--address", address,
                              "--t", "2:4:1", "--depth", "10", "--csv", str(tmp_path / "F")])
    assert (code, err) == (0, "")
    assert out == "ray (5,5,...): 3 samples, max residual 0\n"


def test_ray_refuses_an_infinite_tol_before_any_output():
    code, out, err = run_cli(["ray", "--lambda", "0.2,0", "--address", "1...const",
                              "--t", "2:3:1", "--depth", "1", "--tol", "inf"])
    assert (code, out) == (2, "")
    assert err == "error: tol must be positive and finite\n"


def test_ray_refuses_strips_that_floats_cannot_tell_apart():
    # strip 99999999999999999999 lies at Im z ~ 6.3e20, where one ulp is
    # wider than a strip: a range error before any sample is printed
    code, out, err = run_cli(["ray", "--lambda=1,0",
                              "--address=99999999999999999999...const",
                              "--t=1:2:0.5"])
    assert (code, out) == (4, "")
    assert err.startswith("numeric range: strip 99999999999999999999 has an edge past")


@pytest.mark.parametrize("address", ["9" * 400 + "...const", "-" + "9" * 400 + "...const",
                                     "0,0," + "9" * 400], ids=["const", "negative", "prefix"])
def test_ray_refuses_a_seed_strip_past_the_double_range(address):
    # 2 pi k overflows a float for k ~ 1e400: the seed's strip is refused
    # as a range error, as inverse_branch refuses one, not a crash; the
    # finite address puts the huge entry where the depth-2 trace seeds
    code, out, err = run_cli(["ray", "--lambda=1,0", f"--address={address}",
                              "--t=1:2:0.5", "--depth=2"])
    assert (code, out) == (4, "")
    assert err.startswith("numeric range: strip ")
    assert "has an edge past |Im z| = " in err
    assert err.endswith("where floats cannot tell strips apart\n")


def test_ray_at_a_lambda_past_dbl_max():
    # abs(lambda) overflows; log|lambda| + t passes the escape cap at once,
    # so each sample is its seed t - i Arg lambda, with no pullback
    code, out, err = run_cli(["ray", "--lambda=1.7e308,1.7e308", "--address=0...const",
                              "--t=1:2:1", "--depth=5"])
    assert (code, err) == (0, "")
    assert out == ("t,re,im,depth,residual\n1,1,-0.78539816339744828,0,0\n"
                   "2,2,-0.78539816339744828,0,0\n")


def test_ray_t_range_does_not_drift():
    # t = t0 + i*step: the last sample is T1 itself, not T1 plus the
    # rounding error of ten accumulated steps
    code, out, _ = run_cli(["ray", "--lambda", "1", "--address", "0...const",
                            "--t", "1:2:0.1", "--depth", "10"])
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 11
    assert rows[-1].split(",")[0] == "2"


@pytest.mark.parametrize("scales", ["inf:0.01:2", "0.5:0.01:inf", "nan:0.01:2"])
def test_boxdim_scales_reject_non_finite_values(tmp_path, scales):
    pts = tmp_path / "pts.csv"
    _write_points(pts)
    code, out, err = run_cli(["boxdim", f"--points={pts}", f"--scales={scales}"])
    assert (code, out) == (2, "")
    assert err == f"error: --scales needs finite numbers, got {scales!r}\n"


@pytest.mark.parametrize("argv, flag", [
    # a FACTOR this near 1 would give about 4.6e8 scales
    (["boxdim", "--points={pts}", "--scales=0.5:0.005:1.00000001"], "--scales"),
    (["ray", "--lambda=1", "--address=0", "--t=0:1e12:1"], "--t"),
    (["ray", "--lambda=1", "--address=0", "--t=1:1.5:1e-15"], "--t"),
])
def test_range_flags_stop_past_the_expansion_limit(tmp_path, argv, flag):
    pts = tmp_path / "pts.csv"
    _write_points(pts)
    argv = [a.replace("{pts}", str(pts)) for a in argv]
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err == f"error: {flag} expands to more than {cli._RANGE_LIMIT} values\n"


def test_range_flags_expand_up_to_the_limit():
    assert len(cli._parse_trange(f"1:{cli._RANGE_LIMIT}:1")) == cli._RANGE_LIMIT
    with pytest.raises(ValidationError, match="expands to more than"):
        cli._parse_trange(f"1:{cli._RANGE_LIMIT + 1}:1")
    assert cli._parse_scales("0.5:0.01:2") == [0.5 / 2 ** j for j in range(6)]


@pytest.mark.parametrize("text, count", [
    ("1:1.0000000005:1e-10", 6),  # an absolute slack of 1e-9 took 16
    ("0:0.3:0.1", 4),  # the last sample rounds to 0.30000000000000004
    ("0.1:0.7:0.2", 4),
    ("-1:0:0.1", 11),
    ("2:4:1", 3),
    ("2:3.5:1", 2),
    ("1e6:1000001:0.001", 1001),
])
def test_t_range_ends_at_t1_inclusive(text, count):
    t0, t1, step = map(float, text.split(":"))
    ts = cli._parse_trange(text)
    assert len(ts) == count
    assert ts == [t0 + n * step for n in range(count)]
    # T1 itself is reached up to rounding; nothing lies further out
    assert abs(ts[-1] - t1) <= 4 * math.ulp(max(abs(t0), abs(t1))) or t1 - ts[-1] >= step / 2


@pytest.mark.parametrize("argv", [
    ["certify", "--lambda=1,0", f"--set={STRIP}", "--delta=0.5", "--m=10",
     "--rmax=100000000"],
    ["searchbound", "--lambda=1,0", f"--set={STRIP}", "--delta-grid=0.5",
     "--m-grid=10", "--r-span=100000000"],
    ["searchbound", "--lambda=1,0", f"--set={STRIP}", "--delta-grid=0.5",
     "--l0-grid=3", "--c=1", "--r-span=100000000"],
])
def test_column_ranges_past_the_limit_are_refused(argv):
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: the column range ")
    assert err.endswith(f" columns, more than {cli._RANGE_LIMIT}\n")


@pytest.mark.parametrize("argv, refusal", [
    (["orbit", "--lambda=1,0", "--z=0,0", "--steps=10001"], "orbit length"),
    (["supergrowth", "--lambda=1,0", "--c=0.1", "--steps=10001"],
     "singular orbit length"),
    # the bands of levels l0..l0 + 4 read the singular orbit to level l0 + 5,
    # in certify and searchbound alike
    (["certify", "--lambda=1,0", f"--set={STRIP}", "--delta=0.5", "--l0=9996", "--c=1",
      "--rmax=30"], "singular orbit length"),
    (["searchbound", "--lambda=1,0", f"--set={STRIP}", "--delta-grid=0.5",
      "--l0-grid=9996", "--c=1"], "singular orbit length"),
    (["certify", "--lambda=1,0", f"--set={STRIP}", "--delta=0.5", "--m=10",
      "--rmax=20", "--cover-depth=10001"], "--cover-depth"),
    (["ray", "--lambda=1", "--address=0", "--t=2:3:1", "--depth=10001"], "ray depth"),
])
def test_counts_past_the_range_limit_exit_2_before_any_output(argv, refusal):
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err == f"error: {refusal} must be at most {cli._RANGE_LIMIT}\n"


def test_points_file_that_does_not_exist_exits_2(tmp_path):
    missing = tmp_path / "missing.csv"
    code, out, err = run_cli(["boxdim", f"--points={missing}", "--scales=1:0.01:2"])
    assert (code, out) == (2, "")
    assert err == f"error: cannot read {missing}: No such file or directory\n"


def test_points_file_with_a_non_ascii_byte_exits_2(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_bytes(b"0,0\n1,0\n\xc3\xa9,2\n")
    code, out, err = run_cli(["boxdim", f"--points={pts}", "--scales=1:0.01:2"])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {pts}: 'ascii' codec can't decode")
    assert err.count("\n") == 1


def test_a_non_ascii_byte_is_reported_at_its_offset_in_the_file(tmp_path):
    # the file is decoded in one piece, so a bad byte past the first 8 KiB
    # is not reported at its offset within a read chunk
    pts = tmp_path / "pts.csv"
    good = b"re,im\n" + b"0.5,0.25\n" * 3000
    pts.write_bytes(good + b"\xff,2\n")
    code, out, err = run_cli(["boxdim", f"--points={pts}", "--scales=1:0.01:2"])
    assert (code, out) == (2, "")
    assert f"can't decode byte 0xff in position {len(good)}:" in err


@pytest.mark.parametrize("argv", [
    ["supergrowth", "--lambda=1,0", "--c=1", "--steps=5", "--json={out}"],
    ["orbit", "--lambda=1,0", "--z=0", "--steps=3", "--csv={out}"],
    ["lambdaset", "--lambda=1,0", f"--set={STRIP}", "--window=0,0,1,1",
     "--res=2,2", "--depth=2", "--pgm={out}"],
    ["ray", "--lambda=1,0", "--address=0...const", "--t=2:3:1", "--csv={out}"],
    ["lambdaset", "--lambda=1,0", f"--set={STRIP}", "--window=0,0,1,1",
     "--res=2,2", "--depth=2", "--csv={out}"],
])
def test_output_into_a_missing_directory_exits_2(tmp_path, argv):
    target = tmp_path / "no-such-dir" / "out"
    code, out, err = run_cli([a.replace("{out}", str(target)) for a in argv])
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {target}: No such file or directory\n"


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
    field = sample_lambda_set(1.0, horizontal_strip(0.0, math.pi), (0.0, 0.0, 2.0, 2.0),
                              (4, 4), 3)
    assert blob == field_to_pgm(field)
    assert csv.read_bytes() == field_to_csv(field).encode("ascii")


@pytest.mark.parametrize("res", ["100000000,100000000", "100000,2", "2,10001"])
def test_lambdaset_refuses_a_side_past_the_range_limit(res):
    code, out, err = run_cli(["lambdaset", "--lambda=1,0", "--set=strip:0,1",
                              "--window=0,0,1,1", f"--res={res}", "--depth=1"])
    assert (code, out) == (2, "")
    assert err == f"error: resolution must be 2 to {_RANGE_LIMIT} pixels per side\n"


@pytest.mark.parametrize("window", ["0,0,inf,1", "-1e308,0,1e308,1", "0,nan,1,1"])
def test_lambdaset_rejects_a_window_that_is_not_finite(window):
    code, out, err = run_cli(["lambdaset", "--lambda=1", f"--set={STRIP}",
                              f"--window={window}", "--res=4,4", "--depth=3"])
    assert (code, out) == (2, "")
    assert err == "error: window must be finite\n"


def test_lambdaset_walks_pixels_past_dbl_max():
    # |z| > DBL_MAX at every pixel: the argument is untrusted, so step 1 is
    # undecided, an exit for the conservative policy only
    code, out, err = run_cli(["lambdaset", "--lambda=1,0", "--set=strip:0,1.79e308",
                              "--window=1e308,1e308,1.7e308,1.7e308", "--res=2,2",
                              "--depth=3"])
    assert (code, err) == (0, "")
    assert out == ("lambdaset: 2x2 field, depth 3, 0 survivors (conservative), "
                   "4 precision caveats\n")


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


@pytest.mark.parametrize("row", ["nan,0.5", "0.5,inf", "-inf,0"])
def test_boxdim_rejects_non_finite_points(tmp_path, row):
    pts = tmp_path / "pts.csv"
    _write_points(pts)
    with open(pts, "a", encoding="ascii") as fh:
        fh.write(row + "\n")
    code, out, err = run_cli(["boxdim", "--points", str(pts),
                              "--scales", "0.5:0.01:2"])
    assert (code, out, err) == (2, "", "error: points must be finite\n")


def test_boxdim_rejects_empty_point_file(tmp_path):
    pts = tmp_path / "empty.csv"
    pts.write_text("re,im\n", encoding="ascii")
    code, _, err = run_cli(["boxdim", "--points", str(pts),
                            "--scales", "0.5:0.01:2"])
    assert code == 2
    assert err.startswith("error: no points parsed from")


def _per_line_points(path):
    """Reference reader: one line at a time, as text mode splits them."""
    xs, ys = [], []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            parts = line.strip().split(",")
            if parts[0] == "":
                continue
            try:
                re = float(parts[0])
                im = float(parts[1]) if len(parts) > 1 else 0.0
            except ValueError:
                continue
            xs.append(re)
            ys.append(im)
    return xs, ys


# cells padded with whitespace that float() and str.strip() both drop, and
# with "\x1c", which only str.strip() drops
_PAD = st.sampled_from(["", " ", "\t", "  ", "\x0b", "\x1c"])
_NUMBER = (st.floats().map(repr) | st.integers(-10**20, 10**20).map(str)
           | st.sampled_from(["inf", "-Infinity", "nan", "1e400", "1_000", ".5"]))
_NUMBER_CELL = st.tuples(_PAD, _NUMBER, _PAD).map("".join)
_CELL = st.tuples(_PAD, st.sampled_from(["", "re", "im", "x", "1.2.3"]), _PAD).map("".join)
_ROW = st.lists(_NUMBER_CELL | _CELL, min_size=1, max_size=3).map(",".join)


@st.composite
def _point_texts(draw):
    """CSV texts: a header or first point, then mostly two-number rows (the
    bulk path), with stray rows of any shape mixed in (the per-line path)."""
    head = draw(st.sampled_from(["re,im", "", "x", "0.5,-2", "7"]) | _ROW)
    rows = draw(st.lists(st.tuples(_NUMBER_CELL, _NUMBER_CELL).map(",".join), max_size=12))
    for at, row in draw(st.lists(st.tuples(st.integers(0, 12), _ROW), max_size=2)):
        rows.insert(at, row)
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join([head] + rows) + draw(st.sampled_from(["", end]))


@settings(max_examples=200)
@given(_point_texts())
def test_read_points_returns_what_a_per_line_reader_returns(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("pts") / "pts.csv"
    path.write_bytes(text.encode("ascii"))
    xs, ys = _per_line_points(path)
    if not xs:
        with pytest.raises(ValidationError, match="^no points parsed from "):
            cli._read_points(str(path))
        return
    got = cli._read_points(str(path))
    # float.hex tells nan, inf and -0.0 apart and makes nan equal to itself
    assert [list(map(float.hex, col)) for col in got] == [
        list(map(float.hex, xs)), list(map(float.hex, ys))]


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


@pytest.mark.parametrize("mode", [["--m-grid", "10"], ["--l0-grid", "3", "--c", "1"]])
def test_searchbound_refuses_a_negative_r_span_in_both_modes(mode):
    code, out, err = run_cli(["searchbound", "--lambda", "1,0", "--set", "strip:0,3.14",
                              "--delta-grid", "0.5", "--r-span=-1"] + mode)
    assert (code, out, err) == (2, "", "error: r_span must be >= 0\n")


@pytest.mark.parametrize("grids, refusal", [
    (["--m-grid", "10", "--l0-grid", "3", "--c", "1"],
     "give an M grid or an l0 grid, not both"),
    (["--m-grid", "10", "--c", "1"], "c is read only with an l0 grid"),
])
def test_searchbound_refuses_a_grid_argument_its_mode_does_not_read(grids, refusal):
    code, out, err = run_cli(["searchbound", "--lambda", "1,0", "--set", "strip:0,3.14",
                              "--delta-grid", "0.5"] + grids)
    assert (code, out, err) == (2, "", f"error: {refusal}\n")


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


@pytest.mark.parametrize("m", ["0", "-3"])
def test_certify_rejects_m_below_one(m):
    code, out, err = run_cli(["certify", "--lambda", "1", "--set", STRIP,
                              "--delta", "0.5", "--m", m, "--rmax", "5"])
    assert (code, out, err) == (2, "", "error: need M >= 1\n")


@pytest.mark.parametrize("sides", [["--m", "10", "--rmax", "20"],
                                   ["--l0", "3", "--c", "1", "--rmax", "20"]])
@pytest.mark.parametrize("allowance", ["0", "-1", "nan", "0.5"])
def test_certify_rejects_a_distortion_allowance_below_one(sides, allowance):
    code, out, err = run_cli(["certify", "--lambda", "1", "--set", STRIP,
                              "--delta", "0.5", "--distortion", allowance] + sides)
    assert (code, out) == (2, "")
    assert err == "error: distortion allowance must be finite and >= 1\n"


@pytest.mark.parametrize("sides", [["--m", "10", "--rmax", "12"],
                                   ["--l0", "3", "--c", "1", "--rmax", "20"]])
def test_certify_rejects_a_negative_cover_depth(sides):
    code, out, err = run_cli(["certify", "--lambda", "1", "--set", STRIP,
                              "--delta", "0.5", "--cover-depth", "-1"] + sides)
    assert (code, out, err) == (2, "", "error: --cover-depth must be >= 0\n")
    code, out, _ = run_cli(["certify", "--lambda", "1", "--set", STRIP,
                            "--delta", "0.5", "--cover-depth", "0"] + sides)
    assert code == 0 and "cover n=" not in out


@pytest.mark.parametrize("sides", [["--m", "10", "--rmax", "12"],
                                   ["--l0", "3", "--c", "1", "--rmax", "20"]])
def test_certify_rejects_a_branch_cap_below_one_before_printing(sides):
    argv = ["certify", "--lambda", "1", "--set", STRIP, "--delta", "0.5"] + sides
    for cap in ("0", "-5"):
        code, out, err = run_cli(argv + ["--cover-depth", "2", "--branch-cap", cap])
        assert (code, out) == (2, "")
        assert err == "error: --branch-cap must be >= 1 when --cover-depth > 0\n"
    # without a cover the cap is unused
    code, out, _ = run_cli(argv + ["--branch-cap", "0"])
    assert code == 0 and out.startswith("{")


def test_certify_bounds_a_zero_height_strip():
    # the real axis is forward-invariant at lambda = 1; its rectangles
    # must carry positive bounds, not the 0.0 of an empty set
    code, out, err = run_cli(["certify", "--lambda=1,0", "--set=strip:0,0",
                              "--delta=0.5", "--m=10", "--rmax=12", "--rectangles"])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert len(doc["per_rectangle"]) == 3
    assert doc["max_sum"] > 0.0
    assert all(row["bound"] > 0.0 for row in doc["per_column"])


def test_certify_reports_a_cone_height_past_the_double_range():
    # an edge past ARG_TRUST_LIMIT has no resolved strip index: exit 4
    # before anything is printed, not an OverflowError traceback
    for band in ("strip:0,1e308", "strip:1e17,1.0000000000000001e17"):
        code, out, err = run_cli(["certify", "--lambda", "1,0", "--set", band,
                                  "--delta", "0.5", "--m", "10", "--rmax", "12",
                                  "--rectangles"])
        assert (code, out) == (4, "")
        assert err == ("numeric range: Z_M strip edges must lie within "
                       "|Im z| <= 2.8297e+16\n")


@pytest.mark.parametrize("lam, l0, want", [
    # abs(lambda) overflows
    ("1.7e308,1.7e308", 4, "alpha at l0=4 exceeds the native range; choose a smaller l0"),
    ("1.7e308,1.7e308", 1, "D = c/(4|lambda|) underflows to 0"),
    # |lambda| is finite, 4|lambda| is not
    ("1e308,0", 1, "D = c/(4|lambda|) underflows to 0"),
])
def test_two_sided_certify_at_a_lambda_near_dbl_max(lam, l0, want):
    code, out, err = run_cli(["certify", f"--lambda={lam}", "--set=strip:0,3.14",
                              "--delta=0.5", f"--l0={l0}", "--c=0.65", "--rmax=30"])
    assert (code, out) == (4, "")
    assert err == f"numeric range: {want}\n"


def test_two_sided_certify_with_a_c_below_the_double_range():
    # the supergrowth check behind the geometry no longer overflows, and the
    # distance D = c/(4|lambda|) is then a range error (exit 4)
    code, out, err = run_cli(["certify", "--lambda=1e10,0", "--set=strip:0,3.14",
                              "--delta=0.5", "--l0=1", "--c=1e-320", "--rmax=30"])
    assert (code, out) == (4, "")
    assert err == "numeric range: D = c/(4|lambda|) underflows to 0\n"


def test_certify_with_a_bound_past_the_double_range_prints_no_json(tmp_path):
    # every column bound overflows: JSON has no number for it, so the run is
    # a range error (exit 4) with nothing on stdout and no file written
    argv = ["certify", "--lambda", "1,0", "--set", "strip:0,1e308",
            "--delta", "0.5", "--m", "10", "--rmax", "12"]
    assert run_cli(argv) == (4, "", "numeric range: a certificate bound is not finite\n")
    dest = tmp_path / "cert.json"
    assert run_cli(argv + ["--json", str(dest)])[:2] == (4, "")
    assert not dest.exists()


def test_certify_refuses_an_endless_zm_enumeration():
    # about 3e14 candidate strip indices in each of 6 columns are refused
    # before any is tested, and so are edges past ARG_TRUST_LIMIT
    argv = ["certify", "--lambda", "1,0", "--delta", "0.5", "--m", "10",
            "--rmax", "12", "--rectangles"]
    code, out, err = run_cli(argv + ["--set", "strip:-1e15,1e15"])
    assert (code, out) == (4, "")
    assert err == "numeric range: Z_M would list more than 1e+07 rectangles\n"
    code, out, err = run_cli(argv + ["--set", "strip:-1e307,1e307"])
    assert (code, out) == (4, "")
    assert err.startswith("numeric range: Z_M strip edges must lie within")


def test_certify_refuses_a_cover_past_the_cell_limit(tmp_path):
    # depth 2 of this cover would pass 10^7 cells: nothing is written, not
    # even the certificate or the depths before it
    argv = ["certify", "--lambda", "1,0", "--set", "strip:0,3.14", "--delta", "0.5",
            "--m", "5", "--rmax", "8", "--cover-depth", "3"]
    assert run_cli(argv) == (
        4, "", "numeric range: the cover at depth 2 would pass 1e+07 cells\n")
    path = tmp_path / "cert.json"
    assert run_cli(argv + ["--json", str(path)])[0] == 4
    assert not path.exists()
    # one depth less is under the limit and prints its two cover lines
    code, out, _ = run_cli(argv[:-1] + ["1"])
    assert code == 3
    assert [line.split(":")[0] for line in out.splitlines()[-2:]] == \
        ["cover n=0", "cover n=1"]


def test_certify_lists_a_long_zm_of_one_strip_per_column():
    # 4,991 columns of one strip each: far below the rectangle limit
    code, out, err = run_cli(["certify", "--lambda", "1,0", "--set", "strip:0,3.14",
                              "--delta", "0.5", "--m", "10", "--rmax", "5000",
                              "--rectangles"])
    assert (code, err) == (0, "")
    rows = json.loads(out)["per_rectangle"]
    assert [(row["k"], row["r"]) for row in rows] == [(0, r) for r in range(10, 5001)]


def test_certify_at_rmax_equal_to_m_lists_the_one_column_of_build_zm():
    code, out, err = run_cli(["certify", "--lambda", "1,0", "--set", STRIP,
                              "--delta", "0.5", "--m", "10", "--rmax", "10",
                              "--rectangles"])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["r_range"] == [10]
    rows = [expdyn.RectangleIndex(row["k"], row["r"]) for row in doc["per_rectangle"]]
    assert tuple(rows) == expdyn.build_zm(horizontal_strip(0.0, math.pi), 1.0, 10, 10) \
        == (expdyn.RectangleIndex(0, 10),)


def test_certify_prints_nothing_when_its_cover_fails(tmp_path):
    # the certificate passes, but the cover's first depth would pass 10^7
    # cells: exit 4 with nothing printed and no file written
    argv = ["certify", "--lambda", "1,0", "--set", "strip:0,3.14", "--delta", "0.5",
            "--l0", "3", "--c", "1", "--rmax", "20",
            "--cover-depth", "1", "--branch-cap", "10000000"]
    code, out, err = run_cli(argv)
    assert (code, out) == (4, "")
    assert err == "numeric range: the cover at depth 1 would pass 1e+07 cells\n"
    dest = tmp_path / "cert.json"
    assert run_cli(argv + ["--json", str(dest)])[:2] == (4, "")
    assert not dest.exists()
    # the certificate alone passes
    assert run_cli(argv[:-4])[0] == 0


def test_certify_at_l0_prints_the_certificate_that_searchbound_finds():
    # both build the geometry of l0 = 3 with the same bands, M = 16
    code, out, err = run_cli(["certify", "--lambda=1,0", "--set=strip:0,3.14",
                              "--delta=0.5", "--l0=3", "--c=1", "--rmax=36"])
    assert (code, err) == (0, "")
    code, found, err = run_cli(["searchbound", "--lambda=1,0", "--set=strip:0,3.14",
                                "--delta-grid=0.5", "--l0-grid=3", "--c=1",
                                "--r-span=20"])
    assert (code, err) == (0, "")
    assert json.loads(out) == json.loads(found)["certificate"]
    assert json.loads(out)["M"] == 16
    # the band count is not an option
    code, out, err = run_cli(["certify", "--lambda=1,0", "--set=strip:0,3.14",
                              "--delta=0.5", "--l0=3", "--c=1", "--rmax=36",
                              "--n-levels=6"])
    assert (code, out) == (2, "")
    assert err.endswith("error: unrecognized arguments: --n-levels=6\n")


@pytest.mark.parametrize("depth", [1024, 1100])
def test_certify_cover_runs_past_depth_1023(depth):
    code, out, err = run_cli([
        "certify", "--lambda=1,0", f"--set={STRIP}", "--delta=0.5", "--m=10",
        "--rmax=12", f"--cover-depth={depth}", "--branch-cap=5",
    ])
    assert code in (0, 3) and err == ""
    lines = [ln for ln in out.splitlines() if ln.startswith("cover n=")]
    assert len(lines) == depth + 1
    assert lines[1023] == "cover n=1023: total 0 < budget 8.10281e-308"
    assert lines[-1].startswith(f"cover n={depth}: total 0 ")


# ---------------------------------------------------------------------------
# console-script pins: each row runs one command through cli.main and
# checks what it prints: a lambdaset summary line (and the count of each
# listed value in its 16-bit PGM), the box counts of a boxdim report, or
# the strip of each per_rectangle row of a certificate

_BOXDIM_COUNTS = [4, 13, 50, 135, 176, 194, 200]

_CONSOLE_PINS = [
    # an attracting lambda: orbits stay native, and the 328 survivors write
    # depth + 1 = 21, big-endian
    pytest.param(
        ["lambdaset", "--lambda=0.25,0", "--set=strip:-2,2", "--window=-3,-2,3,2",
         "--res=24,16", "--depth=20"],
        "lambdaset: 24x16 field, depth 20, 328 survivors (conservative), 0 precision caveats",
        {21: 328}, id="field-328"),
    # lambda = 1, whose real-axis orbits leave the double range
    pytest.param(
        ["lambdaset", "--lambda=1,0", f"--set={STRIP}",
         "--window=-2,0,4,3.141592653589793", "--res=24,16", "--depth=8"],
        "lambdaset: 24x16 field, depth 8, 32 survivors (conservative), 7 precision caveats",
        None, id="field-32"),
    # every pixel in the closed strip, on its edges included
    pytest.param(
        ["lambdaset", "--lambda=1,0", f"--set={STRIP}",
         "--window=0,0,3,3.141592653589793", "--res=31,2", "--depth=1"],
        "lambdaset: 31x2 field, depth 1, 62 survivors (conservative), 0 precision caveats",
        None, id="field-62"),
    # rows below and above the strip exit at step 0, rows inside it leave at
    # step 1 at large Re while the pixels near Re 0 are walked on
    pytest.param(
        ["lambdaset", "--lambda=1,0", f"--set={STRIP}", "--window=-1,-0.5,9,3.6",
         "--res=48,24", "--depth=6"],
        "lambdaset: 48x24 field, depth 6, 67 survivors (conservative), 0 precision caveats",
        {0: 288, 1: 611, 2: 43, 3: 23, 4: 56, 5: 64, 7: 67}, id="field-67"),
    # a complex attracting lambda: 21 native steps, each reducing its argument
    pytest.param(
        ["lambdaset", "--lambda=0.3,0.15", "--set=symstrip:1", "--window=-3,-1,3,1",
         "--res=24,16", "--depth=21"],
        "lambdaset: 24x16 field, depth 21, 277 survivors (conservative), 0 precision caveats",
        {1: 75, 2: 24, 3: 5, 4: 3, 22: 277}, id="field-277"),
    # the ends of the native fast path: survivors step natively to full
    # depth while the last column, past the tower lift, goes log-polar ...
    pytest.param(
        ["lambdaset", "--lambda=1e-300,0", "--set=symstrip:2", "--window=-4,-2,716,2",
         "--res=37,9", "--depth=8"],
        "lambdaset: 37x9 field, depth 8, 317 survivors (conservative), 0 precision caveats",
        {1: 16, 9: 317}, id="field-317"),
    # ... and orbits that leave it after step 1, the real axis going on in towers
    pytest.param(
        ["lambdaset", "--lambda=1e300,0", "--set=symstrip:2", "--window=-720,-2,-640,2",
         "--res=41,9", "--depth=8"],
        "lambdaset: 41x9 field, depth 8, 41 survivors (conservative), 0 precision caveats",
        {1: 202, 2: 126, 9: 41}, id="field-41"),
    # the same 200 points, parsed in bulk and row by row
    pytest.param(["boxdim", "--points={clean}", "--scales=1:0.01:2"],
                 _BOXDIM_COUNTS, None, id="boxdim-clean"),
    pytest.param(["boxdim", "--points={crlf}", "--scales=1:0.01:2"],
                 _BOXDIM_COUNTS, None, id="boxdim-crlf"),
    # the sliver strip:1,1.2 lies inside strip 0
    pytest.param(
        ["certify", "--lambda=1,0", "--set=strip:1,1.2", "--delta=0.5", "--m=10",
         "--rmax=12", "--rectangles"],
        [0, 0, 0], None, id="certify-sliver"),
]


def _write_pin_points(tmp_path):
    """A clean points file, and one with CRLF line ends and a non-numeric
    row mid-file, holding the same 200 points."""
    rows = [f"{i / 64!r},{i * i % 97 / 97!r}" for i in range(200)]
    clean, crlf = tmp_path / "clean.csv", tmp_path / "crlf.csv"
    clean.write_bytes(("re,im\n" + "\n".join(rows) + "\n").encode("ascii"))
    rows.insert(100, "gap,gap")
    crlf.write_bytes(("re,im\r\n" + "\r\n".join(rows) + "\r\n").encode("ascii"))
    return {"clean": clean, "crlf": crlf}


def _pinned(command, out):
    if command == "lambdaset":
        return out.removesuffix("\n")
    doc = json.loads(out)
    if command == "boxdim":
        return doc["counts"]
    return [row["k"] for row in doc["per_rectangle"]]


@pytest.mark.parametrize("argv, want, pgm_counts", _CONSOLE_PINS)
def test_console_script_pins(tmp_path, argv, want, pgm_counts):
    argv = [arg.format(**_write_pin_points(tmp_path)) for arg in argv]
    pgm = tmp_path / "field.pgm"
    if pgm_counts is not None:
        argv.append(f"--pgm={pgm}")
    code, out, err = run_cli(argv)
    assert (code, err) == (0, "")
    assert _pinned(argv[0], out) == want
    if pgm_counts is not None:
        res = next(arg for arg in argv if arg.startswith("--res="))
        nx, ny = (int(v) for v in res.removeprefix("--res=").split(","))
        blob, head = pgm.read_bytes(), f"P5\n{nx} {ny}\n65535\n".encode()
        assert blob.startswith(head)
        counts = Counter(struct.unpack(f">{nx * ny}H", blob[len(head):]))
        assert {v: counts[v] for v in pgm_counts} == pgm_counts
