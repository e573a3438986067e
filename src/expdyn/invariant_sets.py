"""Thin sets, membership in the forward-invariant set, and trajectory classes.

A thin-set specification bundles a membership predicate with the two
quantities that make the set usable in dimension estimates: a cone
constant K with |z| < K(|Re z| + 1) on the set, and a width profile w(R)
bounding the diameter of the slice at |Re z| = R.

Membership along an orbit is checked in log-polar form.  Once a point
leaves the native float range the strip tests compare in log scale; when
the sign of Im z becomes numerically undecidable the walk records an
"undecided" verdict, and the two exit policies split: the conservative
policy counts it as an exit, the optimistic one keeps iterating.  Both
exit depths are computed in a single walk.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from .errors import ValidationError
from .dynamics import (
    LogPolarComplex,
    TowerReal,
    _require_lambda,
    _require_point,
    eval_map,
    iterate_orbit,
    orbit_derivative_log,
    step_log_polar,
)
from .errors import NumericRangeError
from . import parallel

MEMBER = "member"
EXIT = "exit"
UNDECIDED = "undecided"

# |arg| closer than this to 0 or pi leaves the sign of Im z undecidable
# once the modulus has left the native range
_ARG_DEAD_ZONE = 1e-12


@dataclass(frozen=True)
class ThinSetSpec:
    """Membership predicate plus cone constant and width profile.

    ``width_profile(R)`` must upper-bound the diameter of every slice of
    the set at 1 <= |Re z| <= R, so it is nondecreasing in R; returning
    0.0 asserts those slices are empty (use a small positive value for
    degenerate but nonempty slices).
    ``classify_log`` optionally decides membership of a log-polar point,
    returning MEMBER, EXIT, or UNDECIDED; without it, points beyond native
    range are undecided.
    """

    membership: Callable[[complex], bool]
    cone_constant: float
    width_profile: Callable[[float], float]
    descriptor: str
    classify_log: Optional[Callable[[LogPolarComplex], str]] = None

    def classify(self, p: LogPolarComplex) -> str:
        if self.classify_log is not None:
            return self.classify_log(p)
        try:
            z = p.to_complex()
        except NumericRangeError:
            return UNDECIDED
        return MEMBER if self.membership(z) else EXIT

    @classmethod
    def horizontal_strip(cls, a: float, b: float) -> "ThinSetSpec":
        """The strip a <= Im z <= b (closed)."""
        if not (a <= b and math.isfinite(a) and math.isfinite(b)):
            raise ValidationError("strip bounds must be finite with a <= b")
        k = max(abs(a), abs(b)) + 2.0
        width = b - a

        def member(z: complex) -> bool:
            return a <= z.imag <= b

        def classify(p: LogPolarComplex) -> str:
            if not p.arg_trusted:
                return UNDECIDED
            s = math.sin(p.argument)
            m = p.modulus_float()
            if m != math.inf:
                im = m * s
                return MEMBER if a <= im <= b else EXIT
            if s == 0.0:
                return MEMBER if a <= 0.0 <= b else EXIT
            if min(abs(p.argument), math.pi - abs(p.argument)) <= _ARG_DEAD_ZONE:
                return UNDECIDED
            # |Im| >= e^709 * |sin arg|, far outside any bounded strip
            return EXIT

        return cls(member, k, lambda r: width, f"strip[{a:g},{b:g}]", classify)

    @classmethod
    def symmetric_strip(cls, p: float) -> "ThinSetSpec":
        if not (p > 0 and math.isfinite(p)):
            raise ValidationError("strip half-height must be positive and finite")
        return cls.horizontal_strip(-p, p)

    @classmethod
    def cone_band(
        cls,
        membership: Callable[[complex], bool],
        cone_constant: float,
        width_profile: Callable[[float], float],
        descriptor: str,
        classify_log: Optional[Callable[[LogPolarComplex], str]] = None,
    ) -> "ThinSetSpec":
        if not (cone_constant > 0):
            raise ValidationError("cone constant must be positive")
        return cls(membership, cone_constant, width_profile, descriptor, classify_log)


horizontal_strip = ThinSetSpec.horizontal_strip
symmetric_strip = ThinSetSpec.symmetric_strip
cone_band = ThinSetSpec.cone_band


# ---------------------------------------------------------------------------
# membership along orbits


@dataclass(frozen=True)
class MembershipResult:
    is_member: bool
    depth: int
    exit_index: Optional[int]
    exit_point: Optional[complex]
    precision_caveat: bool
    policy: str

    @property
    def status(self) -> str:
        if self.is_member:
            return f"member-to-depth {self.depth}"
        return f"exit-at {self.exit_index}"


def _membership_walk(
    lam: complex, spec: ThinSetSpec, z: complex, n: int
) -> tuple[Optional[int], Optional[int], bool]:
    """(conservative exit, optimistic exit, precision caveat) of z's orbit.

    An exit index of None means the orbit stayed in the set to depth n.
    """
    p = LogPolarComplex.from_complex(z)
    cons: Optional[int] = None
    caveat = False
    for i in range(n):
        verdict = spec.classify(p)
        if verdict == EXIT:
            return (i if cons is None else cons), i, caveat
        if verdict == UNDECIDED:
            caveat = True
            if cons is None:
                cons = i
        if i + 1 < n:
            p = step_log_polar(lam, p)
    return cons, None, caveat


def _native_point(lam: complex, z: complex, k: int) -> Optional[complex]:
    """f^k(z) in native arithmetic, or None once a step leaves its range."""
    try:
        for _ in range(k):
            z = eval_map(lam, z)
    except NumericRangeError:
        return None
    return z


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
    cons, opt, caveat = _membership_walk(lam, spec, z, n)
    ex = cons if policy == "conservative" else opt
    pt = None if ex is None else _native_point(lam, z, ex)
    return MembershipResult(ex is None, n, ex, pt, caveat, policy)


# ---------------------------------------------------------------------------
# grid sampling


@dataclass(frozen=True)
class ExitDepthField:
    """Per-pixel exit depths over a window, both policies.

    Pixels sit on the inclusive corner grid: pixel (ix, iy) is at
    x0 + ix dx, y0 + iy dy with dx = (x1-x0)/(nx-1).  Data is row-major
    with the origin at the window's lower left (iy = 0 is the bottom
    row).  The value n + 1 encodes "member to depth n" (survivor); exits
    store the exit index, always < n.
    """

    lam: complex
    descriptor: str
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
        """Rows in image order: the top row (iy = ny - 1) first, as Netpbm wants."""
        d, nx = self.data(policy), self.nx
        return [d[iy * nx:(iy + 1) * nx] for iy in range(self.ny - 1, -1, -1)]

    def point(self, ix: int, iy: int) -> complex:
        x0, y0, x1, y1 = self.window
        # same association as the sampler so positions match bit for bit
        dx = (x1 - x0) / (self.nx - 1)
        dy = (y1 - y0) / (self.ny - 1)
        return complex(x0 + ix * dx, y0 + iy * dy)

    def value_at(self, ix: int, iy: int, policy: str = "conservative") -> int:
        return self.data(policy)[iy * self.nx + ix]

    def survivor_points(self, policy: str = "conservative") -> list[complex]:
        d = self.data(policy)
        out = []
        for iy in range(self.ny):
            for ix in range(self.nx):
                if d[iy * self.nx + ix] == self.depth + 1:
                    out.append(self.point(ix, iy))
        return out

    def survivor_count(self, policy: str = "conservative") -> int:
        return sum(1 for v in self.data(policy) if v == self.depth + 1)


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
    if not (x1 > x0 and y1 > y0):
        raise ValidationError("window must be nondegenerate")
    nx, ny = int(resolution[0]), int(resolution[1])
    if nx < 2 or ny < 2:
        raise ValidationError("resolution must be at least 2x2")
    if n < 1:
        raise ValidationError("depth must be >= 1")

    dx = (x1 - x0) / (nx - 1)
    dy = (y1 - y0) / (ny - 1)

    def one_row(iy: int) -> tuple[list[int], list[int], int]:
        y = y0 + iy * dy
        cons_row: list[int] = []
        opt_row: list[int] = []
        caveats = 0
        for ix in range(nx):
            c, o, caveat = _membership_walk(lam, spec, complex(x0 + ix * dx, y), n)
            cons_row.append(n + 1 if c is None else c)
            opt_row.append(n + 1 if o is None else o)
            if caveat:
                caveats += 1
        return cons_row, opt_row, caveats

    rows = parallel.ordered_map(one_row, range(ny))
    cons: list[int] = []
    opt: list[int] = []
    total_caveats = 0
    for cons_row, opt_row, caveats in rows:
        cons.extend(cons_row)
        opt.extend(opt_row)
        total_caveats += caveats
    return ExitDepthField(
        lam, spec.descriptor, (x0, y0, x1, y1), nx, ny, n,
        tuple(cons), tuple(opt), total_caveats,
    )


# ---------------------------------------------------------------------------
# trajectory classification and expansion


@dataclass(frozen=True)
class TrajectoryClass:
    status: str  # "bounded-within-R" | "escaping" | "undecided"
    evidence: Optional[int]
    r_bound: float
    escape_log_modulus: float
    steps: int


def classify_trajectory(
    lam: complex,
    z: complex,
    n: int,
    r_bound: float = 1e3,
    escape_log_modulus: float = 1e8,
) -> TrajectoryClass:
    """Bounded / escaping / undecided over a finite horizon.

    Escaping requires the log modulus to cross escape_log_modulus;
    bounded requires every iterate to stay in the closed ball of radius
    r_bound.  Evidence is the first index that settles the class (the
    horizon itself for bounded).
    """
    lam = _require_lambda(lam)
    if n < 1:
        raise ValidationError("need at least one step")
    if not (r_bound > 0) or math.log(r_bound) >= escape_log_modulus:
        raise ValidationError("thresholds must satisfy log(r_bound) < escape_log_modulus")
    orbit = iterate_orbit(lam, z, n, escape_log_modulus=escape_log_modulus)
    if orbit.escaped_at is not None:
        return TrajectoryClass(
            "escaping", orbit.escaped_at, r_bound, escape_log_modulus, n
        )
    log_r = TowerReal.from_float(math.log(r_bound))
    for pt in orbit.points:
        if pt.point.log_modulus > log_r:
            return TrajectoryClass(
                "undecided", pt.index, r_bound, escape_log_modulus, n
            )
    return TrajectoryClass("bounded-within-R", n, r_bound, escape_log_modulus, n)


@dataclass(frozen=True)
class ExpansionEstimate:
    status: str  # "ok" | "no surviving samples"
    gamma_hat: Optional[float]
    c_hat: Optional[float]
    surviving: int
    dropped: int


def measure_expansion(
    lam: complex, r_bound: float, sample_points: Sequence[complex], n: int
) -> ExpansionEstimate:
    """Fit |(f^j)'(z)| >= c gamma^j over samples that stay in B(0, r_bound).

    gamma is the exponential of the smallest per-sample least-squares
    slope of log |(f^j)'| against j; c is then the exact lower envelope,
    so the inequality holds at every sampled (z, j) by construction.
    """
    lam = _require_lambda(lam)
    if n < 2:
        raise ValidationError("need n >= 2 to fit a growth rate")
    survivors: list[complex] = []
    dropped = 0
    for z in sample_points:
        cls = classify_trajectory(lam, z, n, r_bound=r_bound)
        if cls.status == "bounded-within-R":
            survivors.append(complex(z))
        else:
            dropped += 1
    if not survivors:
        return ExpansionEstimate("no surviving samples", None, None, 0, dropped)

    js = list(range(1, n + 1))
    slopes: list[float] = []
    series: list[list[float]] = []
    kept: list[complex] = []
    for z in survivors:
        try:
            logs = [orbit_derivative_log(lam, z, j) for j in js]
        except NumericRangeError:
            dropped += 1
            continue
        series.append(logs)
        slopes.append(_lsq_fit(js, logs)[0])
        kept.append(z)
    if not slopes:
        return ExpansionEstimate("no surviving samples", None, None, 0, dropped)
    log_gamma = min(slopes)
    log_c = min(l - j * log_gamma for logs in series for j, l in zip(js, logs))
    return ExpansionEstimate(
        "ok", math.exp(log_gamma), math.exp(log_c), len(kept), dropped
    )


def _lsq_fit(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Least-squares slope of ys against xs, and the fit's r^2."""
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    ss_tot = sum((y - my) ** 2 for y in ys)
    ss_res = sum((y - (my + slope * (x - mx))) ** 2 for x, y in zip(xs, ys))
    return slope, 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot


# ---------------------------------------------------------------------------
# thin-set check


@dataclass(frozen=True)
class ThinCheckReport:
    cone_ok: bool
    width_ok: bool
    thinness_exponent: Optional[float]
    empty_slices: tuple[float, ...]
    cone_violation: Optional[complex]
    measured_widths: tuple[tuple[float, float], ...]  # (R, measured w)


def thin_check(
    spec: ThinSetSpec, r_values: Sequence[float], samples_per_slice: int = 512
) -> ThinCheckReport:
    """Sample slices at Re = +-R and test the cone and width conditions.

    The vertical slice Re = 0 is also sampled (cone test only) so that
    sets living on the imaginary axis cannot dodge the cone condition.
    The thinness exponent is the least-squares slope of log_+ w(R)
    against log R over nonempty slices; thin sets trend to 0.
    """
    rs = [float(r) for r in r_values]
    if not rs or any(r < 1 for r in rs):
        raise ValidationError("slice positions must be >= 1")
    if any(b <= a for a, b in zip(rs, rs[1:])):
        raise ValidationError("slice positions must be increasing")
    if samples_per_slice < 2:
        raise ValidationError("need at least 2 samples per slice")

    k = spec.cone_constant
    cone_ok = True
    violation: Optional[complex] = None
    empty: list[float] = []
    widths: list[tuple[float, float]] = []

    def slice_members(x: float, half_height: float) -> list[float]:
        step = 2 * half_height / (samples_per_slice - 1)
        out = []
        for i in range(samples_per_slice):
            y = -half_height + i * step
            if spec.membership(complex(x, y)):
                out.append(y)
        return out

    for r in rs:
        h = k * (r + 1.0)
        side_widths: list[float] = []
        any_member = False
        for x in (r, -r):
            ys = slice_members(x, h)
            if not ys:
                continue
            any_member = True
            side_widths.append(max(ys) - min(ys))
            for y in ys:
                z = complex(x, y)
                if abs(z) / (abs(x) + 1.0) >= k:
                    cone_ok = False
                    violation = violation or z
        if not any_member:
            empty.append(r)
        else:
            widths.append((r, max(side_widths)))

    # axis slice: cone condition only
    for y in slice_members(0.0, k * (rs[-1] + 1.0)):
        z = complex(0.0, y)
        if abs(z) >= k:
            cone_ok = False
            violation = violation or z

    width_ok = all(w <= spec.width_profile(r) * (1 + 1e-9) for r, w in widths)
    exponent: Optional[float] = None
    if len(widths) >= 2:
        xs = [math.log(r) for r, _ in widths]
        ys = [math.log(w) if w > 1.0 else 0.0 for _, w in widths]
        exponent = _lsq_fit(xs, ys)[0]
    return ThinCheckReport(
        cone_ok, width_ok, exponent, tuple(empty), violation, tuple(widths)
    )


# ---------------------------------------------------------------------------
# field export


def _write_payload(dest, payload: Union[str, bytes]) -> None:
    """Write to an open file object, or to a path: text as ASCII with
    newlines untranslated, bytes as binary."""
    if hasattr(dest, "write"):
        dest.write(payload)
    elif isinstance(payload, str):
        with open(dest, "w", encoding="ascii", newline="") as fh:
            fh.write(payload)
    else:
        with open(dest, "wb") as fh:
            fh.write(payload)


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
    _write_payload(dest, field_to_csv(field, policy))


def field_to_pgm(field: ExitDepthField, policy: str = "conservative") -> bytes:
    """16-bit binary PGM; the first raster row is the window's top row."""
    header = f"P5\n{field.nx} {field.ny}\n65535\n".encode("ascii")
    vals = [min(v, 65535) for row in field.raster(policy) for v in row]
    return header + struct.pack(f">{len(vals)}H", *vals)


def write_field_pgm(field: ExitDepthField, dest, policy: str = "conservative") -> None:
    _write_payload(dest, field_to_pgm(field, policy))
