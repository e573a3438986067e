"""Command-line front end.

Exit codes: 0 success or certificate pass, 2 validation error or a file
that cannot be read or written, 3 certificate (or supergrowth) not
achieved, 4 numeric-range error.
All JSON reports carry format_version 1 and are byte-deterministic.

The argument parser and its set of value-taking options are built once per
process, on the first ``main`` call, and reused by every later call; no
default in the tree is mutable, and each parse makes a fresh namespace.

Importing this module loads only the standard library and expdyn.errors.
Each handler imports what it calls when it runs, so a command loads the
modules it uses and no others.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import operator
import re
import sys
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence, Union

from .errors import _RANGE_LIMIT, NumericRangeError, ValidationError

if TYPE_CHECKING:
    from .invariant_sets import ThinSetSpec


# ---------------------------------------------------------------------------
# flag value parsers (plain functions, not argparse types, so that failures
# surface as ValidationError -> exit 2)

def _parse_complex(text: str, flag: str) -> complex:
    parts = text.split(",")
    if len(parts) not in (1, 2):
        raise ValidationError(f"{flag} expects RE or RE,IM, got {text!r}")
    try:
        re = float(parts[0])
        im = float(parts[1]) if len(parts) == 2 else 0.0
    except ValueError:
        raise ValidationError(f"{flag} expects numbers, got {text!r}") from None
    return complex(re, im)


def _parse_set(text: str) -> ThinSetSpec:
    from .invariant_sets import horizontal_strip, symmetric_strip

    kind, _, rest = text.partition(":")
    if kind == "strip":
        parts = rest.split(",")
        if len(parts) != 2:
            raise ValidationError(f"--set strip expects strip:A,B, got {text!r}")
        try:
            a, b = float(parts[0]), float(parts[1])
        except ValueError:
            raise ValidationError(f"--set strip expects numbers, got {text!r}") from None
        return horizontal_strip(a, b)
    if kind == "symstrip":
        try:
            h = float(rest)
        except ValueError:
            raise ValidationError(f"--set symstrip expects symstrip:H, got {text!r}") from None
        return symmetric_strip(h)
    raise ValidationError(f"unknown set descriptor {text!r} (use strip:A,B or symstrip:H)")


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise ValidationError(f"{flag} expects comma-separated numbers, got {text!r}") from None


def _parse_ints(text: str, flag: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise ValidationError(f"{flag} expects comma-separated integers, got {text!r}") from None


def _parse_window(text: str) -> tuple[float, float, float, float]:
    vals = _parse_floats(text, "--window")
    if len(vals) != 4:
        raise ValidationError(f"--window expects X0,Y0,X1,Y1, got {text!r}")
    return vals[0], vals[1], vals[2], vals[3]


def _parse_res(text: str) -> tuple[int, int]:
    vals = _parse_ints(text, "--res")
    if len(vals) != 2:
        raise ValidationError(f"--res expects NX,NY, got {text!r}")
    return vals[0], vals[1]


def _bounded(values: Iterator[float], flag: str) -> list[float]:
    """The values of a range flag, refused once there are more than
    _RANGE_LIMIT of them (a tiny STEP or a FACTOR near 1 would run on)."""
    out = list(itertools.islice(values, _RANGE_LIMIT + 1))
    if len(out) > _RANGE_LIMIT:
        raise ValidationError(f"{flag} expands to more than {_RANGE_LIMIT} values")
    return out


def _parse_trange(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"--t expects T0:T1:STEP, got {text!r}")
    try:
        t0, t1, step = (float(v) for v in parts)
    except ValueError:
        raise ValidationError(f"--t expects numbers, got {text!r}") from None
    if not all(math.isfinite(v) for v in (t0, t1, step)):
        raise ValidationError(f"--t needs finite numbers, got {text!r}")
    if step <= 0 or t1 < t0:
        raise ValidationError("--t needs STEP > 0 and T1 >= T0")
    # T1 is inclusive: a sample past it by a billionth of STEP, or by the
    # rounding of t0 + n * STEP, still counts as T1; none lies further out
    end = t1 + max(1e-9 * step, 4 * math.ulp(max(abs(t0), abs(t1))))
    ts = (t0 + n * step for n in itertools.count())
    return _bounded(itertools.takewhile(lambda t: t <= end, ts), "--t")


def _parse_scales(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"--scales expects E0:E1:FACTOR, got {text!r}")
    try:
        e0, e1, factor = (float(v) for v in parts)
    except ValueError:
        raise ValidationError(f"--scales expects numbers, got {text!r}") from None
    if not all(math.isfinite(v) for v in (e0, e1, factor)):
        raise ValidationError(f"--scales needs finite numbers, got {text!r}")
    if not (e0 > e1 > 0.0) or factor <= 1.0:
        raise ValidationError("--scales needs E0 > E1 > 0 and FACTOR > 1")
    eps = itertools.accumulate(itertools.repeat(factor), operator.truediv, initial=e0)
    return _bounded(itertools.takewhile(lambda e: e >= e1 * (1.0 - 1e-12), eps),
                    "--scales")


@contextlib.contextmanager
def _file_errors(path: str, verb: str) -> Iterator[None]:
    """A file the command cannot open, read, decode or write, as a
    ValidationError (exit 2)."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ValidationError(f"cannot {verb} {path}: {reason}") from None


def _emit(payload: Union[str, bytes], path: Optional[str]) -> None:
    """The one way a command writes: text to stdout, ending in a newline,
    when path is None, else text or bytes to the file at path as they are."""
    if path is None:
        sys.stdout.write(payload if payload.endswith("\n") else payload + "\n")
    else:
        from .reports import _write_payload

        with _file_errors(path, "write"):
            _write_payload(path, payload)


def _parse_rows(rows: Iterable[str]) -> tuple[list[float], list[float]]:
    """Columns (re, im) of the CSV rows that parse, one row at a time.

    A row is skipped unless its first cell is a number and its second is
    a number or absent (im = 0); cells past the second are ignored.
    """
    xs: list[float] = []
    ys: list[float] = []
    for row in rows:
        parts = row.strip().split(",")
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


def _read_points(path: str) -> tuple[list[float], list[float]]:
    """Columns (re, im) from a CSV of re,im rows; rows that do not parse,
    a header among them, are skipped.

    When every row after the first holds exactly one comma, those rows are
    parsed in bulk, one float() per cell.  float() accepts no whitespace
    that str.strip() keeps, so a bulk parse that succeeds returns what
    _parse_rows would; a cell that is not a number sends all rows through
    _parse_rows.
    """
    with _file_errors(path, "read"), open(path, "r", encoding="ascii") as fh:
        rows = fh.read().split("\n")  # text mode has turned CR and CRLF into LF
    if rows[-1] == "":
        rows.pop()
    head = rows[:1]
    del rows[:1]
    if set(map(str.count, rows, itertools.repeat(","))) == {1}:
        # the rows and the joined text go before the floats are built,
        # so that fewer strings are alive at once
        body = ",".join(rows)
        del rows
        cells = body.split(",")
        del body
        try:
            xs, ys = _parse_rows(head)
            xs += map(float, cells[0::2])
            ys += map(float, cells[1::2])
        except ValueError:
            # each row was its two cells around one comma
            rows = map(",".join, zip(cells[0::2], cells[1::2]))
            xs, ys = _parse_rows(itertools.chain(head, rows))
    else:
        xs, ys = _parse_rows(head + rows)
    if not xs:
        raise ValidationError(f"no points parsed from {path}")
    return xs, ys


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_orbit(args: argparse.Namespace) -> int:
    from .dynamics import iterate_orbit

    lam = _parse_complex(args.lam, "--lambda")
    z0 = _parse_complex(args.z, "--z")
    result = iterate_orbit(lam, z0, args.steps)
    lines = ["n,log_level,log_mantissa,argument,re,im,escaped,precision_flag"]
    for p in result.points:
        re = f"{p.native.real:.17g}" if p.native is not None else ""
        im = f"{p.native.imag:.17g}" if p.native is not None else ""
        lines.append(
            f"{p.index},{p.point.log_modulus.level},"
            f"{p.point.log_modulus.mantissa:.17g},{p.point.argument:.17g},"
            f"{re},{im},{int(p.escaped)},{int(p.precision_flag)}"
        )
    _emit("\n".join(lines) + "\n", args.csv)
    if args.csv is not None:
        where = f"escaped at n={result.escaped_at}" if result.escaped_at is not None else "no escape"
        print(f"orbit: {len(result.points)} points, {where}")
    return 0


def _cmd_supergrowth(args: argparse.Namespace) -> int:
    from .dynamics import check_supergrowth
    from .reports import report_json

    lam = _parse_complex(args.lam, "--lambda")
    rep = check_supergrowth(lam, args.c, args.steps)
    doc = {
        "format_version": 1,
        "lambda": [lam.real, lam.imag],
        "c": rep.c,
        "n_checked": rep.n_checked,
        "holds": rep.holds,
        "sustained": rep.sustained,
        "first_failure_index": rep.first_failure_index,
        "ratios": list(rep.ratios),
        "tail_ratio": rep.tail_ratio,
        "largest_passing_c": rep.largest_passing_c,
        "escape_threshold": rep.escape_threshold,
        "alphas": [
            {
                "level": a.level,
                "mantissa": a.mantissa,
                "value": None if (v := a.to_float()) == math.inf else v,
            }
            for a in rep.alphas
        ],
    }
    _emit(report_json(doc), args.json)
    return 0 if rep.holds else 3


def _cmd_ray(args: argparse.Namespace) -> int:
    from .coding import parse_address
    from .rays import ray_to_csv, trace_ray

    lam = _parse_complex(args.lam, "--lambda")
    address = parse_address(args.address)
    ts = _parse_trange(args.t)
    ray = trace_ray(lam, address, ts, depth=args.depth, tol=args.tol)
    _emit(ray_to_csv(ray), args.csv)
    if args.csv is not None:
        print(
            f"ray {address.describe()}: {len(ray.samples)} samples, "
            f"max residual {ray.residual:.3g}"
        )
    return 0


def _cmd_lambdaset(args: argparse.Namespace) -> int:
    from .invariant_sets import field_to_csv, field_to_pgm, sample_lambda_set

    lam = _parse_complex(args.lam, "--lambda")
    spec = _parse_set(args.set)
    window = _parse_window(args.window)
    res = _parse_res(args.res)
    field = sample_lambda_set(lam, spec, window, res, args.depth)
    if args.pgm is not None:
        _emit(field_to_pgm(field, args.policy), args.pgm)
    if args.csv is not None:
        _emit(field_to_csv(field, args.policy), args.csv)
    print(
        f"lambdaset: {field.nx}x{field.ny} field, depth {field.depth}, "
        f"{field.survivor_count(args.policy)} survivors ({args.policy}), "
        f"{field.caveat_count} precision caveats"
    )
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    from .induced import (
        certificate_to_json,
        cover_iterate,
        negative_geometry,
        verify_contraction,
    )

    lam = _parse_complex(args.lam, "--lambda")
    spec = _parse_set(args.set)
    # these refusals come before the certificate is computed
    if args.cover_depth < 0:
        raise ValidationError("--cover-depth must be >= 0")
    if args.cover_depth > _RANGE_LIMIT:
        raise ValidationError(f"--cover-depth must be at most {_RANGE_LIMIT}")
    if args.cover_depth > 0 and args.branch_cap < 1:
        raise ValidationError("--branch-cap must be >= 1 when --cover-depth > 0")
    geometry = None
    if args.l0 is not None:
        geometry = negative_geometry(lam, args.c, args.l0, args.n_levels)
    elif args.m is None:
        raise ValidationError("positive-only certification needs --m")
    cert = verify_contraction(
        lam,
        spec,
        args.delta,
        args.rmax,
        m=args.m,
        geometry=geometry,
        distortion_allowance=args.distortion,
        enumerate_rectangles=args.rectangles,
    )
    # the cover runs before anything is written, so an error in it (a
    # column below the deepest band, a depth past 10^7 cells) leaves stdout
    # and the file empty
    text = certificate_to_json(cert)
    levels = ()
    if args.cover_depth > 0:
        levels = cover_iterate(
            lam, spec, args.delta, args.cover_depth, args.branch_cap,
            m=cert.m, geometry=geometry, distortion_allowance=args.distortion,
        ).levels
    _emit(text, args.json)
    for level in levels:
        ok = "<" if level.total < level.budget else ">="
        print(
            f"cover n={level.n}: total {level.total:.6g} {ok} "
            f"budget {level.budget:.6g}"
        )
    return 0 if cert.passed else 3


def _cmd_boxdim(args: argparse.Namespace) -> int:
    from .boxdim import _box_count
    from .reports import report_json

    xs, ys = _read_points(args.points)
    eps = _parse_scales(args.scales)
    result = _box_count(xs, ys, eps)
    doc = {
        "format_version": 1,
        "epsilons": list(result.epsilons),
        "counts": list(result.counts),
        "slope": result.slope,
        "r2": result.r2,
        "slope_claim": result.slope_claim,
        "n_points": result.n_points,
    }
    _emit(report_json(doc), args.json)
    return 0


def _cmd_searchbound(args: argparse.Namespace) -> int:
    from .boxdim import dimension_bound_search, report_to_json

    lam = _parse_complex(args.lam, "--lambda")
    spec = _parse_set(args.set)
    deltas = _parse_floats(args.delta_grid, "--delta-grid")
    ms = _parse_ints(args.m_grid, "--m-grid") if args.m_grid else []
    l0s = _parse_ints(args.l0_grid, "--l0-grid") if args.l0_grid else None
    report = dimension_bound_search(
        lam, spec, deltas, ms, l0_grid=l0s, c=args.c, r_span=args.r_span
    )
    _emit(report_to_json(report), args.json)
    return 0 if report.bound_achieved is not None else 3


# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, frozenset[str]]:
    """The parser and its value-taking options, built on first use."""
    parser = argparse.ArgumentParser(
        prog="expdyn",
        description="Numerical laboratory for the exponential family lambda*e^z.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("orbit", help="iterate an orbit in log-polar form")
    p.add_argument("--lambda", dest="lam", required=True, metavar="RE,IM")
    p.add_argument("--z", required=True, metavar="RE,IM")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--csv", default=None, metavar="PATH")
    p.set_defaults(handler=_cmd_orbit)

    p = sub.add_parser("supergrowth", help="check the supergrowth condition")
    p.add_argument("--lambda", dest="lam", required=True, metavar="RE,IM")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--json", default=None, metavar="PATH")
    p.set_defaults(handler=_cmd_supergrowth)

    p = sub.add_parser("ray", help="trace a dynamic ray by pullback")
    p.add_argument("--lambda", dest="lam", required=True, metavar="RE,IM")
    p.add_argument("--address", required=True, metavar="ADDR")
    p.add_argument("--t", required=True, metavar="T0:T1:STEP")
    p.add_argument("--depth", type=int, default=20)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--csv", default=None, metavar="PATH")
    p.set_defaults(handler=_cmd_ray)

    p = sub.add_parser("lambdaset", help="sample an exit-depth field")
    p.add_argument("--lambda", dest="lam", required=True, metavar="RE,IM")
    p.add_argument("--set", required=True, metavar="strip:A,B")
    p.add_argument("--window", required=True, metavar="X0,Y0,X1,Y1")
    p.add_argument("--res", required=True, metavar="NX,NY")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--policy", choices=("conservative", "optimistic"),
                   default="conservative")
    p.add_argument("--pgm", default=None, metavar="PATH")
    p.add_argument("--csv", default=None, metavar="PATH")
    p.set_defaults(handler=_cmd_lambdaset)

    p = sub.add_parser("certify", help="run the contraction certificate")
    p.add_argument("--lambda", dest="lam", required=True, metavar="RE,IM")
    p.add_argument("--set", required=True, metavar="strip:A,B")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--l0", type=int, default=None)
    p.add_argument("--c", type=float, default=1.0,
                   help="supergrowth constant (used with --l0)")
    p.add_argument("--n-levels", type=int, default=6)
    p.add_argument("--rmax", type=int, required=True)
    p.add_argument("--distortion", type=float, default=1.2)
    p.add_argument("--rectangles", action="store_true",
                   help="also list each Z_M rectangle with its column's bound")
    p.add_argument("--cover-depth", type=int, default=0,
                   help="also iterate the cover to this depth (0: no cover)")
    p.add_argument("--branch-cap", type=int, default=10 ** 5)
    p.add_argument("--json", default=None, metavar="PATH")
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("boxdim", help="box-count a point cloud")
    p.add_argument("--points", required=True, metavar="PATH")
    p.add_argument("--scales", required=True, metavar="E0:E1:FACTOR")
    p.add_argument("--json", default=None, metavar="PATH")
    p.set_defaults(handler=_cmd_boxdim)

    p = sub.add_parser("searchbound", help="scan grids for the best certificate")
    p.add_argument("--lambda", dest="lam", required=True, metavar="RE,IM")
    p.add_argument("--set", required=True, metavar="strip:A,B")
    p.add_argument("--delta-grid", required=True, metavar="D1,D2,...")
    p.add_argument("--m-grid", default="", metavar="M1,M2,...")
    p.add_argument("--l0-grid", default="", metavar="L1,L2,...")
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--r-span", type=int, default=20)
    p.add_argument("--json", default=None, metavar="PATH")
    p.set_defaults(handler=_cmd_searchbound)

    return parser, frozenset(_value_flags(parser))


def _value_flags(parser: argparse.ArgumentParser) -> set[str]:
    """Options that take a value, in the parser and its subcommands."""
    flags: set[str] = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= _value_flags(sub)
        elif action.nargs != 0:
            flags.update(action.option_strings)
    return flags


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser, flags = _build_parser()
    # argparse reads a spaced value that starts with '-' as an option unless
    # it is a plain number, so "--z -1,0" goes on as "--z=-1,0"
    tokens: list[str] = []
    for tok in sys.argv[1:] if argv is None else argv:
        if tokens and tokens[-1] in flags and re.match(r"-[0-9.]", tok):
            tokens[-1] += "=" + tok
        else:
            tokens.append(tok)
    try:
        args = parser.parse_args(tokens)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericRangeError as exc:
        print(f"numeric range: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
