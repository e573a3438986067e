"""Thin sets, membership in the forward-invariant set, and exit-depth fields.

The thin set is a strip, given as plain data: ``Strip(a, b)``, the closed
strip a <= Im z <= b (``ThinSetSpec`` is the same class).  It gives the
two quantities that make the set usable in dimension estimates: a cone
constant K with |z| < K(|Re z| + 1) on the set, and a width bounding the
diameter of every slice at a fixed Re z.

Membership along an orbit is checked in one walk.  It classifies z itself
first and steps from each point's Re and Im in native floats while |z| is
a finite double with a trusted argument; such a point is classified from
its two floats, with no ``complex`` built for it.  From the first point
past the double range (or with an untrusted argument) it goes on in
log-polar form through step_log_polar.  When the sign of Im z becomes
numerically undecidable the walk records an "undecided" verdict, and the
two exit policies split: the conservative policy counts it as an exit,
the optimistic one keeps iterating.  Both exit depths come from the same
walk, and they differ exactly when it met an undecided verdict, so a
precision caveat is a pixel whose two exits differ.

A field walks each row of pixels, which share Im z, in one call that
returns the row's conservative and optimistic exits as two flat lists.
Point 0 of every pixel is classified in one pass that builds the
conservative list.  The rows share the x grid, so the modulus of step 1,
exp(Re z + log|lambda|), is computed once per column for the whole
field, in a table that holds None where the step is not native with a
trusted argument; a pixel with a table entry takes step 1 inline as
that modulus times the row's cosine and sine.  Only orbits still in the
set after that go on one by one, and a trusted native point whose Re z
lies in an interval derived from log|lambda| steps on after one
chained comparison.  Each examined point is classified once.
"""

from __future__ import annotations

import math
import struct
from itertools import compress, repeat, starmap
from math import cos, exp, pi, remainder, sin
from operator import ne
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

# log ARG_TRUST_LIMIT: a step from a log modulus below it has a trusted
# next argument
_LOG_TRUST = math.log(ARG_TRUST_LIMIT)

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

    def classify(self, p: Union[_Point, float], im: Optional[float] = None) -> str:
        """MEMBER, EXIT or UNDECIDED.  With im given, the point is
        complex(p, im), a native point with a trusted argument, and so is a
        ``complex`` p: either is tested a <= Im z <= b here, so the walk's
        one call per orbit point costs no further call.  For every pair of
        floats, NaN, +-inf and +-0.0 included, classify(x, y) ==
        classify(complex(x, y)).  A ``LogPolarComplex`` is decided in log
        scale: UNDECIDED only for an untrusted argument, or one within
        _ARG_DEAD_ZONE of 0 or pi past the double range.  The native and
        log-polar forms agree on a native trusted point except within
        rounding of an edge."""
        if im is not None:
            return MEMBER if self.a <= im <= self.b else EXIT
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


def _step1_moduli(xs: Sequence[float], log_lam: float) -> list[Optional[float]]:
    """|f(z)| = exp(Re z + log|lambda|) for each Re z in xs whose step 1 is
    native with a trusted argument in a row with |Im z| <= ARG_TRUST_LIMIT /
    2, else None.  The modulus depends on Re z alone, so one table serves
    every row of a field.

    The entry is a float where -ARG_TRUST_LIMIT / 2 <= Re z < LIFT and the
    log modulus Re z + log|lambda| is at most _EXP_SAFE: with |Im z| at most
    ARG_TRUST_LIMIT / 2 too, |z| <= ARG_TRUST_LIMIT, so step 1's argument is
    trusted, and the log modulus, at least -ARG_TRUST_LIMIT / 2 - 746, is
    above NEG_SENTINEL."""
    half = ARG_TRUST_LIMIT / 2
    return [exp(x) if -half <= re < LIFT and (x := re + log_lam) <= _EXP_SAFE else None
            for re in xs]


def _native_span(log_lam: float) -> tuple[float, float]:
    """[lo, hi]: a trusted native point whose Re z lies in it steps on
    natively, and the next point's argument is trusted too.

    lo = NEG_SENTINEL / 2 and hi = min(LIFT, _LOG_TRUST - log|lambda|) - 1.
    Let L = log|lambda|; a valid lambda has |L| < 746, since |lambda| lies
    between 5e-324 and 2 * DBL_MAX.  For a float re in [lo, hi], with x the
    float sum re + L, as the walk computes it:

    * re <= hi <= LIFT - 1 < LIFT, so the point is not lifted to a tower;
    * re + L >= NEG_SENTINEL / 2 - 746 > NEG_SENTINEL, and rounding is
      monotone with NEG_SENTINEL a float, so x >= NEG_SENTINEL;
    * _LOG_TRUST - L is below 1024 in magnitude, so it rounds by at most
      2**-44, and so does the subtraction of 1 (exact when the min is
      LIFT): hi + L <= _LOG_TRUST - 1 + 2**-43, and x, rounded up by at
      most 2**-48 more, is below _LOG_TRUST - 0.99 < 36.9 < _EXP_SAFE;
    * so exp(x), within an ulp of e**x, is below e**36.9 < 1.1e16 <
      ARG_TRUST_LIMIT (2.8e16), and the next point is trusted whatever its
      argument.

    These are the conditions of the full test, so a point in [lo, hi]
    takes the same native step with the same bits.  The bounds leave a
    margin: a point near them takes the full test, which decides it as
    before."""
    return NEG_SENTINEL / 2, min(LIFT, _LOG_TRUST - log_lam) - 1.0


def _membership_walk(
    lam: complex, spec: ThinSetSpec, xs: Sequence[float], mods: Sequence[Optional[float]],
    y: float, n: int, lam_logs: tuple[float, float],
) -> tuple[list[int], list[int]]:
    """The conservative and the optimistic exit of the orbit of each finite
    complex(x, y), x in xs, as two lists in row order; mods is
    _step1_moduli(xs, lam_logs[0]) and lam_logs is _lambda_logs(lam).

    An exit of n + 1 means the orbit stayed in the set to depth n.  The two
    exits of a pixel differ exactly when its walk met an undecided verdict
    (a precision caveat): that sets the conservative exit to its index,
    while the optimistic walk goes on past it, and nothing else splits them.

    The pixel itself is point 0, and step 1's argument is the same for the
    whole row.  While an orbit is native with a trusted argument, each
    point is its Re and Im, classified as two floats, and the log-polar
    recursion of step_log_polar is evaluated from them, with the same bits.
    From the first point past the double range or with an untrusted
    argument, the orbit goes on as a LogPolarComplex through step_log_polar.

    Point 0 of every pixel is classified in one pass over the row, which
    builds the conservative exits.  A pixel inside at point 0 whose mods
    entry is a float, in a row with |Im z| <= ARG_TRUST_LIMIT / 2, takes
    step 1 inline as that modulus times the row's cosine and sine, and
    most pixels of a field end there; every other orbit goes on in
    _native_walk.  Each examined point is classified once.
    """
    log_lam, arg_lam = lam_logs
    classify = spec.classify
    a1 = _principal(y + arg_lam)
    s1, c1 = sin(a1), cos(a1)
    # point 0 of every pixel
    if n == 1:
        cons = [0 if classify(x, y) == EXIT else 2 for x in xs]
        return cons, cons[:]
    # a pixel inside at point 0 is a step-1 exit until its walk says otherwise
    cons = [0 if classify(x, y) == EXIT else 1 for x in xs]
    opt = cons[:]
    span = _native_span(log_lam)
    if abs(y) > ARG_TRUST_LIMIT / 2:
        # the table's trust needs |Im z| <= ARG_TRUST_LIMIT / 2 as well
        mods = [None] * len(xs)
    # |y| first: abs(z) overflows past DBL_MAX
    y_near = abs(y) <= ARG_TRUST_LIMIT
    for k in compress(range(len(xs)), cons):
        m = mods[k]
        if m is None:
            re = xs[k]
            trusted = (
                y_near and -ARG_TRUST_LIMIT <= re <= ARG_TRUST_LIMIT
                and abs(complex(re, y)) <= ARG_TRUST_LIMIT
            ) or sin(math.atan2(y, re)) == 0.0
            cons[k], opt[k] = _native_walk(lam, classify, lam_logs, span, re, y, trusted, 1, n)
            continue
        # point 1, native with a trusted argument
        re = m * c1
        im = m * s1
        if classify(re, im) != EXIT:
            cons[k], opt[k] = _native_walk(lam, classify, lam_logs, span, re, im,
                                           m <= ARG_TRUST_LIMIT or s1 == 0.0, 2, n)
    return cons, opt


def _native_walk(
    lam: complex, classify: Callable[[float, float], str], lam_logs: tuple[float, float],
    span: tuple[float, float], re: float, im: float, trusted: bool, i: int, n: int,
) -> tuple[int, int]:
    """The two exits of an orbit whose points before i are in the set;
    point i - 1 is complex(re, im), and trusted says whether point i's
    argument is.  span is _native_span(lam_logs[0]).

    Each step makes one Python call, classify(re, im) of the new point: no
    ``complex`` is built for it.  Its argument Im z + Arg lambda is reduced
    inline, with the bits of _principal, and only when it lies outside
    (-pi, pi]: inside, |x / TAU| <= 1/2, a tie rounds to the even n = 0,
    and remainder(x, TAU) is x itself.  Only trusted points stay in the
    loop, so a point whose Re z lies in span steps after one chained
    comparison; any other point takes the full test (Re z below LIFT and
    a log modulus in [NEG_SENTINEL, _EXP_SAFE]), and a step whose next
    point is untrusted hands that point over to the log-polar walk."""
    if not trusted:
        return _log_polar_from(lam, classify, lam_logs, re, im, False, i, n)
    log_lam, arg_lam = lam_logs
    lo, hi = span
    _exp, _sin, _cos = exp, sin, cos
    for i in range(i, n):
        # the next point has log modulus x and argument a
        x = re + log_lam
        a = im + arg_lam
        if not -pi < a <= pi:
            a = remainder(a, TAU)
            if a == -pi:
                # (-pi, pi], as in dynamics._principal
                a = pi
        if lo <= re <= hi:
            m = _exp(x)
            re = m * _cos(a)
            im = m * _sin(a)
            if classify(re, im) == EXIT:
                return i, i
            continue
        if not (re < LIFT and NEG_SENTINEL <= x <= _EXP_SAFE):
            return _log_polar_from(lam, classify, lam_logs, re, im, True, i, n)
        m = _exp(x)
        s = _sin(a)
        re = m * _cos(a)
        im = m * s
        if classify(re, im) == EXIT:
            return i, i
        if m > ARG_TRUST_LIMIT and s != 0.0:
            return _log_polar_from(lam, classify, lam_logs, re, im, False, i + 1, n)
    return n + 1, n + 1


def _log_polar_from(
    lam: complex, classify: Callable[[LogPolarComplex], str], lam_logs: tuple[float, float],
    re: float, im: float, trusted: bool, i: int, n: int,
) -> tuple[int, int]:
    """The two exits of an orbit whose points before i are in the set and
    whose point i - 1 is complex(re, im), walked in log-polar form from
    point i, whose argument trusted says is trusted."""
    if i == n:
        return n + 1, n + 1
    log_lam, arg_lam = lam_logs
    p = LogPolarComplex(TowerReal(0, re).add_float(log_lam), _principal(im + arg_lam), trusted)
    cons = n + 1
    for i in range(i, n):
        verdict = classify(p)
        if verdict != MEMBER and cons > n:
            cons = i
        if verdict == EXIT:
            return cons, i
        if i + 1 < n:
            p = step_log_polar(lam, p)
    return cons, n + 1


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
    lam_logs = _lambda_logs(lam)
    xs = (z.real,)
    (cons,), (opt,) = _membership_walk(lam, spec, xs, _step1_moduli(xs, lam_logs[0]), z.imag,
                                       n, lam_logs)
    ex = cons if policy == "conservative" else opt
    return MembershipResult(ex > n, None if ex > n else ex, cons != opt)


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
        d = self.data(policy)
        if d and not (min(d) >= 0 and max(d) <= self.depth + 1):
            raise ValidationError(f"field values must lie in 0..{self.depth + 1}")
        return self._top_first(d)

    def _top_first(self, d: tuple[int, ...]) -> list[tuple[int, ...]]:
        """d's rows in image order, its values unchecked."""
        nx = self.nx
        return [d[iy * nx:(iy + 1) * nx] for iy in range(self.ny - 1, -1, -1)]

    def point(self, ix: int, iy: int) -> complex:
        x0, y0, x1, y1 = self.window
        # same association as the sampler so positions match bit for bit
        dx = (x1 - x0) / (self.nx - 1)
        dy = (y1 - y0) / (self.ny - 1)
        return complex(x0 + ix * dx, y0 + iy * dy)

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
    mods = _step1_moduli(xs, lam_logs[0])

    def one_row(iy: int) -> tuple[list[int], list[int]]:
        return _membership_walk(lam, spec, xs, mods, y0 + iy * dy, n, lam_logs)

    cons: list[int] = []
    opt: list[int] = []
    for row_cons, row_opt in parallel.ordered_map(one_row, range(ny)):
        cons += row_cons
        opt += row_opt
    # a pixel's two exits differ exactly when its walk met a caveat
    caveats = sum(map(ne, cons, opt))
    return ExitDepthField((x0, y0, x1, y1), nx, ny, n, tuple(cons), tuple(opt), caveats)


# ---------------------------------------------------------------------------
# field export: write_field_pgm loads reports, which holds the payload
# writer, when it runs, so a field that is not written loads no writer


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
