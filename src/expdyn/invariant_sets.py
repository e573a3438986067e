"""Thin sets, membership in the forward-invariant set, and exit-depth fields.

The thin set is a strip, given as plain data: ``Strip(a, b)``, the closed
strip a <= Im z <= b (``ThinSetSpec`` is the same class).  It gives the
two quantities that make the set usable in dimension estimates: a cone
constant K with |z| < K(|Re z| + 1) on the set, and a width bounding the
diameter of every slice at a fixed Re z.

Membership along an orbit is checked in one walk.  It classifies z itself
first and steps from each point's Re and Im in native floats while |z| is
a finite double with a trusted argument.  From the first point past the
double range (or with an untrusted argument) it goes on in log-polar form
through step_log_polar.  When the sign of Im z becomes numerically
undecidable the walk records an "undecided" verdict, and the two exit
policies split: the conservative policy counts it as an exit, the
optimistic one keeps iterating.  Both exit depths come from the same walk.

A field walks each row of pixels, which share Im z, in one call.  Point
0 of every pixel is classified in one pass, and a pixel whose first step
is native with a trusted argument takes it inline; only orbits still in
the set after that go on one by one.  Each examined point is classified
once.
"""

from __future__ import annotations

import math
import struct
from itertools import chain, compress, repeat, starmap
from math import cos, exp, pi, remainder, sin
from typing import Callable, NamedTuple, Optional, Sequence, Union

from .dynamics import (
    ARG_TRUST_LIMIT,
    TAU,
    LogPolarComplex,
    TowerReal,
    _lambda_logs,
    _principal,
    _require_lambda,
    _require_point,
    step_log_polar,
)
from .errors import _RANGE_LIMIT, ValidationError
from .towers import _EXP_SAFE, LIFT, NEG_SENTINEL, _Frozen, _set
from . import parallel

MEMBER = "member"
EXIT = "exit"
UNDECIDED = "undecided"

# |arg| closer than this to 0 or pi leaves the sign of Im z undecidable
# once the modulus has left the native range
_ARG_DEAD_ZONE = 1e-12

# width of a one-point slice: any positive value bounds its
# diameter 0, and one this small adds nothing to a column's n_sup
_POINT_SLICE_WIDTH = 2.0 ** -52

# an orbit point as the walk classifies it
_Point = Union[complex, LogPolarComplex]


class Strip(_Frozen):
    """The closed horizontal strip a <= Im z <= b, the one thin-set spec.

    ``cone_constant`` K gives |z| < K(|Re z| + 1) on the strip, and
    ``width`` bounds the diameter of every slice at a fixed Re z.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float) -> None:
        if not (a <= b and math.isfinite(a) and math.isfinite(b)):
            raise ValidationError("strip bounds must be finite with a <= b")
        _set(self, "a", a)
        _set(self, "b", b)

    @property
    def cone_constant(self) -> float:
        return max(abs(self.a), abs(self.b)) + 2.0

    @property
    def width(self) -> float:
        # a zero-height strip still has one point in every slice, and a
        # width of 0.0 would declare its slices empty
        return self.b - self.a if self.b > self.a else _POINT_SLICE_WIDTH

    def classify(self, p: _Point) -> str:
        """MEMBER, EXIT or UNDECIDED.  A ``complex`` (a native point with a
        trusted argument) is tested a <= Im p <= b here, so the walk's one
        call per orbit point costs no further call.  A ``LogPolarComplex``
        is decided in log scale: UNDECIDED only for an untrusted argument,
        or one within _ARG_DEAD_ZONE of 0 or pi past the double range.  The
        two agree on a native trusted point except within rounding of an
        edge."""
        if p.__class__ is complex or isinstance(p, complex):
            return MEMBER if self.a <= p.imag <= self.b else EXIT
        if not p.arg_trusted:
            return UNDECIDED
        s = math.sin(p.argument)
        m = p.modulus_float()
        if m != math.inf:
            return MEMBER if self.a <= m * s <= self.b else EXIT
        if s == 0.0:
            return MEMBER if self.a <= 0.0 <= self.b else EXIT
        if min(abs(p.argument), math.pi - abs(p.argument)) <= _ARG_DEAD_ZONE:
            return UNDECIDED
        # |Im| >= e^709 * |sin arg|, far outside any bounded strip
        return EXIT


def symmetric_strip(h: float) -> Strip:
    """The strip -h <= Im z <= h."""
    if not (h > 0 and math.isfinite(h)):
        raise ValidationError("strip half-height must be positive and finite")
    return Strip(-h, h)


horizontal_strip = ThinSetSpec = Strip


# ---------------------------------------------------------------------------
# membership along orbits


class MembershipResult(NamedTuple):
    """``exit_index`` is None for a member; ``precision_caveat`` says an
    undecided verdict was counted as inside."""

    is_member: bool
    exit_index: Optional[int]
    precision_caveat: bool


def _membership_walk(
    lam: complex, spec: ThinSetSpec, xs: Sequence[float], y: float, n: int,
    lam_logs: tuple[float, float],
) -> list[tuple[int, int, bool]]:
    """(conservative exit, optimistic exit, precision caveat) of the orbit
    of each finite complex(x, y), x in xs; lam_logs is _lambda_logs(lam).

    An exit of n + 1 means the orbit stayed in the set to depth n.  The
    pixel itself is point 0, and step 1's argument is the same for the
    whole row.  While an orbit is native with a trusted argument, each
    point is a complex, and the log-polar recursion of step_log_polar is
    evaluated in floats from its Re and Im, with the same bits.  From the
    first point past the double range or with an untrusted argument, the
    orbit goes on as a LogPolarComplex through step_log_polar.

    Point 0 of every pixel is classified in one pass over the row.  A pixel
    inside at point 0 takes step 1 inline where a few comparisons show it
    is native with a trusted argument (|Re z|, |Im z| <= ARG_TRUST_LIMIT
    / 2, Re z < LIFT and a step-1 log modulus up to _EXP_SAFE), and most
    pixels of a field end there; every other orbit goes on in
    _native_walk.  Each examined point is classified once.
    """
    log_lam, arg_lam = lam_logs
    classify = spec.classify
    a1 = _principal(y + arg_lam)
    s1, c1 = sin(a1), cos(a1)
    # point 0 of every pixel
    verdicts = [classify(z) for z in map(complex, xs, repeat(y))]
    if n == 1:
        return [(0, 0, False) if v == EXIT else (2, 2, False) for v in verdicts]
    # a pixel inside at point 0 is a step-1 exit until its walk says otherwise
    out = [(0, 0, False) if v == EXIT else (1, 1, False) for v in verdicts]
    inside = compress(range(len(xs)), map(EXIT.__ne__, verdicts))
    # |Re z|, |Im z| <= ARG_TRUST_LIMIT / 2 keep |z| within ARG_TRUST_LIMIT
    x_min = -ARG_TRUST_LIMIT / 2 if abs(y) <= ARG_TRUST_LIMIT / 2 else math.inf
    # |y| first: abs(z) overflows past DBL_MAX
    y_near = abs(y) <= ARG_TRUST_LIMIT
    for k in inside:
        re = xs[k]
        x = re + log_lam
        if not (x_min <= re < LIFT and x <= _EXP_SAFE):
            trusted = (
                y_near and -ARG_TRUST_LIMIT <= re <= ARG_TRUST_LIMIT
                and abs(complex(re, y)) <= ARG_TRUST_LIMIT
            ) or sin(math.atan2(y, re)) == 0.0
            out[k] = _native_walk(lam, classify, lam_logs, re, y, trusted, 1, n)
            continue
        # point 1, native with a trusted argument
        m = exp(x)
        re = m * c1
        im = m * s1
        if classify(complex(re, im)) != EXIT:
            out[k] = _native_walk(lam, classify, lam_logs, re, im,
                                  m <= ARG_TRUST_LIMIT or s1 == 0.0, 2, n)
    return out


def _native_walk(
    lam: complex, classify: Callable[[_Point], str], lam_logs: tuple[float, float],
    re: float, im: float, trusted: bool, i: int, n: int,
) -> tuple[int, int, bool]:
    """_membership_walk's result for an orbit whose points before i are
    in the set; point i - 1 is complex(re, im), and trusted says whether
    point i's argument is.

    Each step reduces its argument inline, with the bits of _principal,
    and makes one Python call, the classify of the new point."""
    log_lam, arg_lam = lam_logs
    for i in range(i, n):
        # the next point has log modulus x and argument a
        x = re + log_lam
        a = remainder(im + arg_lam, TAU)
        if a == -pi:
            # (-pi, pi], as in dynamics._principal
            a = pi
        if not (trusted and re < LIFT and NEG_SENTINEL <= x <= _EXP_SAFE):
            p = LogPolarComplex(TowerReal(0, re).add_float(log_lam), a, trusted)
            return _log_polar_walk(lam, classify, p, i, n)
        m = exp(x)
        s = sin(a)
        re = m * cos(a)
        im = m * s
        if classify(complex(re, im)) == EXIT:
            return i, i, False
        trusted = m <= ARG_TRUST_LIMIT or s == 0.0
    return n + 1, n + 1, False


def _log_polar_walk(
    lam: complex, classify: Callable[[_Point], str], p: LogPolarComplex, i: int, n: int,
) -> tuple[int, int, bool]:
    """_membership_walk's result for an orbit whose point i is p."""
    cons, caveat = n + 1, False
    for i in range(i, n):
        verdict = classify(p)
        if verdict != MEMBER and cons > n:
            cons = i
        if verdict == EXIT:
            return cons, i, caveat
        if verdict == UNDECIDED:
            caveat = True
        if i + 1 < n:
            p = step_log_polar(lam, p)
    return cons, n + 1, caveat


def lambda_membership(
    lam: complex,
    spec: ThinSetSpec,
    z: complex,
    n: int,
    policy: str = "optimistic",
) -> MembershipResult:
    """Does the orbit of z stay in the set for its first n points?

    Checks f^i(z) for i = 0..n-1.  Under the optimistic policy a point
    whose membership becomes numerically undecidable counts as still
    inside (with the precision caveat set); under the conservative policy
    it counts as an exit.
    """
    lam = _require_lambda(lam)
    z = _require_point(z)
    if n < 1:
        raise ValidationError("membership depth must be >= 1")
    if policy not in ("conservative", "optimistic"):
        raise ValidationError("policy must be 'conservative' or 'optimistic'")
    cons, opt, caveat = _membership_walk(
        lam, spec, (z.real,), z.imag, n, _lambda_logs(lam))[0]
    ex = cons if policy == "conservative" else opt
    return MembershipResult(ex > n, None if ex > n else ex, caveat)


# ---------------------------------------------------------------------------
# grid sampling


class ExitDepthField(NamedTuple):
    """Per-pixel exit depths over a window, both policies.

    Pixels sit on the inclusive corner grid: pixel (ix, iy) is at
    x0 + ix dx, y0 + iy dy with dx = (x1-x0)/(nx-1).  Data is row-major
    with the origin at the window's lower left (iy = 0 is the bottom
    row).  The value n + 1 encodes "member to depth n" (survivor); exits
    store the exit index, always < n.
    """

    window: tuple[float, float, float, float]
    nx: int
    ny: int
    depth: int
    conservative: tuple[int, ...]
    optimistic: tuple[int, ...]
    caveat_count: int

    def data(self, policy: str = "conservative") -> tuple[int, ...]:
        if policy == "conservative":
            return self.conservative
        if policy == "optimistic":
            return self.optimistic
        raise ValidationError("policy must be 'conservative' or 'optimistic'")

    def raster(self, policy: str = "conservative") -> list[tuple[int, ...]]:
        """Rows in image order: the top row (iy = ny - 1) first, as Netpbm
        wants; values outside 0..depth+1 are refused."""
        d, nx = self.data(policy), self.nx
        if d and not (min(d) >= 0 and max(d) <= self.depth + 1):
            raise ValidationError(f"field values must lie in 0..{self.depth + 1}")
        return [d[iy * nx:(iy + 1) * nx] for iy in range(self.ny - 1, -1, -1)]

    def point(self, ix: int, iy: int) -> complex:
        x0, y0, x1, y1 = self.window
        # same association as the sampler so positions match bit for bit
        dx = (x1 - x0) / (self.nx - 1)
        dy = (y1 - y0) / (self.ny - 1)
        return complex(x0 + ix * dx, y0 + iy * dy)

    def survivor_points(self, policy: str = "conservative") -> list[complex]:
        d, nx, top = self.data(policy), self.nx, self.depth + 1
        return [self.point(i % nx, i // nx) for i, v in enumerate(d) if v == top]

    def survivor_count(self, policy: str = "conservative") -> int:
        return self.data(policy).count(self.depth + 1)


def sample_lambda_set(
    lam: complex,
    spec: ThinSetSpec,
    window: tuple[float, float, float, float],
    resolution: tuple[int, int],
    n: int,
) -> ExitDepthField:
    """Exit-depth field of the depth-n forward-invariant approximant."""
    lam = _require_lambda(lam)
    x0, y0, x1, y1 = (float(v) for v in window)
    if not all(math.isfinite(v) for v in (x0, y0, x1, y1)):
        raise ValidationError("window must be finite")
    if not (x1 > x0 and y1 > y0):
        raise ValidationError("window must be nondegenerate")
    nx, ny = int(resolution[0]), int(resolution[1])
    if not (2 <= nx <= _RANGE_LIMIT and 2 <= ny <= _RANGE_LIMIT):
        raise ValidationError(f"resolution must be 2 to {_RANGE_LIMIT} pixels per side")
    if n < 1:
        raise ValidationError("depth must be >= 1")

    dx = (x1 - x0) / (nx - 1)
    dy = (y1 - y0) / (ny - 1)
    # grid coordinates are monotone in the index, so finite end points
    # make every pixel finite and the walk needs no per-point check
    if not (math.isfinite(x0 + (nx - 1) * dx) and math.isfinite(y0 + (ny - 1) * dy)):
        raise ValidationError("window must be finite")

    lam_logs = _lambda_logs(lam)
    xs = [x0 + ix * dx for ix in range(nx)]

    def one_row(iy: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        # transposed per row, so only one row's result tuples are alive
        walked = _membership_walk(lam, spec, xs, y0 + iy * dy, n, lam_logs)
        cons, opt, caveats = zip(*walked)
        return cons, opt, sum(caveats)

    cons, opt, caveats = zip(*parallel.ordered_map(one_row, range(ny)))
    cons, opt = (tuple(chain.from_iterable(rows)) for rows in (cons, opt))
    return ExitDepthField((x0, y0, x1, y1), nx, ny, n, cons, opt, sum(caveats))


# ---------------------------------------------------------------------------
# field export: the writers load reports, which holds the payload writer,
# when they run, so a field that is not written loads no writer


def field_to_csv(field: ExitDepthField, policy: str = "conservative") -> str:
    d = field.data(policy)
    lines = ["ix,iy,re,im,exit_depth"]
    for iy in range(field.ny):
        for ix in range(field.nx):
            z = field.point(ix, iy)
            lines.append(
                f"{ix},{iy},{z.real:.17g},{z.imag:.17g},{d[iy * field.nx + ix]}"
            )
    return "\n".join(lines) + "\n"


def write_field_csv(field: ExitDepthField, dest, policy: str = "conservative") -> None:
    from .reports import _write_payload

    _write_payload(dest, field_to_csv(field, policy))


def field_to_pgm(field: ExitDepthField, policy: str = "conservative") -> bytes:
    """16-bit binary PGM; the first raster row is the window's top row."""
    header = f"P5\n{field.nx} {field.ny}\n65535\n".encode("ascii")
    rows = field.raster(policy)
    if field.depth >= 65535:
        # survivors (and, past depth 65535, late exits) saturate at 65535
        rows = [map(min, row, repeat(65535)) for row in rows]
    return header + b"".join(starmap(struct.Struct(f">{field.nx}H").pack, rows))


def write_field_pgm(field: ExitDepthField, dest, policy: str = "conservative") -> None:
    from .reports import _write_payload

    _write_payload(dest, field_to_pgm(field, policy))
