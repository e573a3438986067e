"""Rectangle families, the induced map, and contraction certificates.

The plane strips are cut into unit-width rectangles R^k_r (column r,
strip k).  Z_M is the family of rectangles meeting the thin set at
|Re z| >= M.  On columns r >= M the induced map is f itself; on columns
r <= -M a point is assigned a level l from explicit half-plane bands
derived from the singular orbit, and the induced map is f^{l+2}.

The certificate machinery bounds, per rectangle, the sum over image
rectangles of sup |F'|^{-(1+delta)}.  Positive-side sums are aggregated
per image column: the count of rectangles a column can contribute is
bounded through the width profile, and the column factors decay
geometrically, so the whole sum collapses to a closed form plus an
integral tail.  Certificates pass when every bound is below 1/2; they
are explicitly sampling-based and "modulo distortion allowance", not
interval-rigorous.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import neg
from typing import Mapping, Optional, Sequence, Union

from .errors import (
    DomainError,
    GeometryError,
    NumericRangeError,
    ValidationError,
)
from .dynamics import (
    LogPolarComplex,
    TAU,
    _require_lambda,
    _require_point,
    check_supergrowth,
    singular_orbit,
    step_log_polar,
)
from .coding import strip_index, _strip_of_imag
from .invariant_sets import ThinSetSpec

# Exponents below this take the native path.  It sits ~20 below the
# overflow limit towers._EXP_SAFE so that exp(log_e + 1) and products of
# exp results with strip counts stay finite.  Cover totals for columns
# 690-709 depend on this value, so it is not the overflow limit itself.
_EXP_NATIVE = 690.0
_HUGE_COLUMN = 1e300
# points sampled along Re in each rectangle by the Z_M membership test
_RECT_SAMPLES = 6


@dataclass(frozen=True, order=True)
class RectangleIndex:
    k: int  # strip
    r: int  # column; rectangle is {r <= Re z < r+1} within strip k


@dataclass(frozen=True)
class ZMFamily:
    m: int
    r_max: int
    rectangles: tuple[RectangleIndex, ...]
    per_column_counts: Mapping[int, int]

    def count(self, r: int) -> int:
        return self.per_column_counts.get(r, 0)


def certified_columns(m: int, r_max: int, two_sided: bool = True) -> list[int]:
    """The columns M..r_max, then -r_max..-M when two-sided."""
    columns = list(range(m, r_max + 1))
    if two_sided:
        columns += range(-r_max, -m + 1)
    return columns


def _rectangle_meets(
    spec: ThinSetSpec, lam: complex, k: int, r: int, m: int
) -> bool:
    """Does R^k_r meet W intersected with {|Re| >= m}?  Sampled, not exact."""
    arg_lam = math.atan2(lam.imag, lam.real)
    lo = (2 * k - 1) * math.pi - arg_lam
    if r >= 0:
        x_lo, x_hi = float(r), r + 1.0 - 1e-9
    else:
        x_lo, x_hi = float(r), min(r + 1.0 - 1e-9, float(-m))
        if x_hi < x_lo:
            return False
    for i in range(_RECT_SAMPLES):
        x = x_lo + (x_hi - x_lo) * i / (_RECT_SAMPLES - 1)
        if abs(x) < m:
            continue
        for u in (1e-9, 0.25, 0.5, 0.75, 1.0):
            if spec.membership(complex(x, lo + TAU * u)):
                return True
    return False


def build_zm(spec: ThinSetSpec, lam: complex, m: int, r_max: int) -> ZMFamily:
    """Enumerate Z_M rectangles with M <= |column| <= r_max.

    Membership is tested on a sub-grid of each rectangle; slivers thinner
    than the sub-grid pitch can be missed.
    """
    lam = _require_lambda(lam)
    if m < 1 or r_max <= m:
        raise ValidationError("need 1 <= M < r_max")
    arg_lam = math.atan2(lam.imag, lam.real)
    rects: list[RectangleIndex] = []
    counts: dict[int, int] = {}
    for r in certified_columns(m, r_max):
        y_max = spec.cone_constant * (abs(r) + 2.0)
        k_lo = _strip_of_imag(-y_max, arg_lam)
        k_hi = _strip_of_imag(y_max, arg_lam)
        n = 0
        for k in range(k_lo, k_hi + 1):
            if _rectangle_meets(spec, lam, k, r, m):
                rects.append(RectangleIndex(k, r))
                n += 1
        if n:
            counts[r] = n
    rects.sort(key=lambda q: (q.r, q.k))
    return ZMFamily(m, r_max, tuple(rects), counts)


# ---------------------------------------------------------------------------
# positive-side column sums


def _max_width(spec: ThinSetSpec, lo: float, log_hi: float) -> float:
    """Widest slice over image columns [lo, e^log_hi]: the profile at the far end."""
    hi = math.exp(log_hi) if log_hi < _EXP_NATIVE else _HUGE_COLUMN
    return spec.width_profile(max(lo, 1.0, hi))


def _column_terms(
    lam: complex, spec: ThinSetSpec, r: float, m: float
) -> tuple[float, float]:
    """(log E, n_sup) at positive column r: E = |lambda| e^r, and n_sup
    bounds the rectangles per image column (0.0 when the slices are empty)."""
    log_e = math.log(abs(lam)) + r
    w_max = _max_width(spec, m, log_e + 1.0)
    return log_e, (0.0 if w_max == 0.0 else w_max / TAU + 2.0)


def _tail(s: float, e1: float, delta: float) -> float:
    """Bound for sum of t^-(1+delta) over image columns s <= t <= eE + 1."""
    return s ** -(1.0 + delta) + max(
        0.0, (s ** -delta - (e1 + 1.0) ** -delta) / delta
    )


def _positive_column_sum(
    lam: complex,
    spec: ThinSetSpec,
    r: float,
    delta: float,
    m: float,
    sides: float = 2.0,
) -> float:
    """Upper bound for the per-rectangle image sum at positive column r.

    Image moduli lie in [E, eE] with E = |lambda| e^r.  Columns with
    lower Re-bound below E contribute at most E^{-(1+delta)} each and
    their count is limited by the cone condition; columns beyond E decay
    like s^{-(1+delta)} and are absorbed by an integral tail.
    """
    log_e, n_sup = _column_terms(lam, spec, r, m)
    if n_sup == 0.0:
        return 0.0
    lead = sides * n_sup

    if log_e > _EXP_NATIVE:
        # all factors at or below E^{-delta} scale; bound with E/2 <= s0
        p1 = _exp_or_inf(math.log(lead) - delta * log_e)
        p2a = _exp_or_inf(math.log(lead) - (1.0 + delta) * (log_e - math.log(2.0)))
        p2b = _exp_or_inf(math.log(lead / delta) - delta * (log_e - math.log(2.0)))
        return p1 + p2a + p2b

    e = math.exp(log_e)
    e1 = math.exp(log_e + 1.0)
    if m > e1 + 1.0:
        return 0.0
    inner = max(float(m), e / spec.cone_constant - 2.0)
    count = max(0.0, e - inner + 1.0)
    part1 = lead * count * e ** -(1.0 + delta)

    s0 = max(math.ceil(max(e, float(m))), 1)
    if s0 > e1 + 1.0:
        return part1
    return part1 + lead * _tail(s0, e1, delta)


def _exp_or_inf(x: float) -> float:
    return math.exp(x) if x < _EXP_NATIVE else math.inf


def positive_sum(
    lam: complex,
    spec: ThinSetSpec,
    rect: Union[RectangleIndex, int],
    delta: float,
    m: int,
    both_sides: bool = True,
) -> float:
    """Public wrapper; rect may be a RectangleIndex or a bare column."""
    lam = _require_lambda(lam)
    r = rect.r if isinstance(rect, RectangleIndex) else int(rect)
    if not (0.0 < delta < 1.0):
        raise ValidationError("delta must lie in (0, 1)")
    if m < 1 or r < m:
        raise ValidationError("need column r >= M >= 1")
    return _positive_column_sum(lam, spec, float(r), delta, float(m),
                                2.0 if both_sides else 1.0)


# ---------------------------------------------------------------------------
# negative-side geometry


@dataclass(frozen=True)
class InducedGeometry:
    lam: complex
    c: float
    d: float  # ball radius factor c / (4 |lambda|): balls B(beta_l, D |beta_l|)
    l0: int
    n_levels: int
    m: int
    sigmas: tuple[float, ...]  # band boundaries sigma_{l0} .. sigma_{l0+n+1}
    alphas: tuple[float, ...]  # alpha_0 .. alpha_{l0+n+1} as floats (inf beyond native)
    log_betas: tuple[float, ...]  # log|beta_l|, index 1..; [0] unused sentinel

    def sigma(self, l: int) -> float:
        i = l - self.l0
        if not 0 <= i < len(self.sigmas):
            raise ValidationError(f"sigma_{l} outside the computed range")
        return self.sigmas[i]

    def level_of_column(self, r: int) -> int:
        """Band level of the column [r, r+1); ties go to the smaller level.

        Level l holds the column when sigma_{l+1} < r + 1 and sigma_l > r.
        The sigmas do not increase with l, so the smallest such l is found
        by two bisections over them.
        """
        if r > -self.m:
            raise ValidationError(f"column {r} is not on the negative side of Y_M")
        # first index with sigma < r + 1, first index with sigma <= r
        below_top = bisect_right(self.sigmas, -(r + 1), key=neg)
        below_r = bisect_left(self.sigmas, -r, key=neg)
        i = max(below_top - 1, 0)
        if i < below_r and i <= self.n_levels:
            return self.l0 + i
        raise GeometryError(
            f"column {r} below the deepest computed band; increase n_levels"
        )

    def alpha_float(self, l: int) -> float:
        return self.alphas[l]

    def log_beta_float(self, l: int) -> float:
        return self.log_betas[l]

    def r_prime_min(self, l: int) -> float:
        """Smallest positive column the level-l continuation can reach."""
        a = self.alpha_float(l)
        lb = self.log_beta_float(l)
        radius = math.exp(math.log(self.d) + lb) if lb < _EXP_NATIVE else math.inf
        if a == math.inf or radius == math.inf:
            return math.inf
        return max(float(self.m), math.floor(a - radius))


def negative_geometry(
    lam: complex, c: float, l0: int, n_levels: int
) -> InducedGeometry:
    """Balls around the singular orbit and the level bands for Re z <= -M.

    M = floor(alpha_{l0}) + 1; level l covers the half-plane band
    [sigma_{l+1}, sigma_l) with

        sigma_l = -log 4 - 1 + log D - (alpha_{l-2} + ... + alpha_0)
                  - l log|lambda|.

    Requires the supergrowth inequality at this c (the bands and ball
    disjointness are consequences of it).
    """
    lam = _require_lambda(lam)
    if not (0.0 < c <= abs(lam)):
        raise ValidationError("need 0 < c <= |lambda| so that D <= 1/4")
    if l0 < 1 or n_levels < 1:
        raise ValidationError("need l0 >= 1 and n_levels >= 1")

    horizon = max(2, l0 + n_levels + 1)
    report = check_supergrowth(lam, c, horizon)
    if not report.holds:
        raise GeometryError(
            f"supergrowth fails for c={c:g} over horizon {horizon} "
            f"(first failure at {report.first_failure_index})"
        )
    orbit = singular_orbit(lam, horizon)
    alphas = [0.0] + [a.to_float() for a in report.alphas]
    log_betas = [-math.inf] + [p.log_modulus.to_float() for p in orbit]

    a_l0 = alphas[l0]
    if a_l0 == math.inf:
        raise NumericRangeError(
            f"alpha at l0={l0} exceeds the native range; choose a smaller l0"
        )
    m = math.floor(a_l0) + 1
    if m < 1:
        raise GeometryError("alpha_{l0} too small for a positive threshold M")

    d = c / (4.0 * abs(lam))
    log_d = math.log(d)
    log_lam = math.log(abs(lam))
    const = -math.log(4.0) - 1.0 + log_d

    def sigma(l: int) -> float:
        total = 0.0
        for i in range(0, l - 1):
            total += alphas[i]
        return const - total - l * log_lam

    sigmas = tuple(sigma(l) for l in range(l0, l0 + n_levels + 2))
    if not sigmas[1] >= -m + 1:
        raise GeometryError(
            f"band top sigma_{l0 + 1} = {sigmas[1]:.4g} does not reach "
            f"-M+1 = {-m + 1}; increase l0"
        )

    # the balls at beta_l and beta_{l+1} (orbit[l - 1] and orbit[l]) are
    # disjoint when |beta_{l+1}| (1 - D) > |beta_l| (1 + D)
    for l in range(l0, l0 + n_levels):
        lhs = orbit[l].log_modulus.add_float(math.log1p(-d))
        rhs = orbit[l - 1].log_modulus.add_float(math.log1p(d))
        if not lhs > rhs:
            raise GeometryError(f"balls at levels {l} and {l + 1} are not disjoint")
    return InducedGeometry(
        lam, c, d, l0, n_levels, m, sigmas, tuple(alphas), tuple(log_betas)
    )


# ---------------------------------------------------------------------------
# the induced map


def induced_apply(
    geometry: InducedGeometry, spec: ThinSetSpec, z: complex
) -> tuple[LogPolarComplex, int]:
    """Apply the induced map: f on columns >= M, f^{l+2} on level-l columns."""
    lam = geometry.lam
    z = _require_point(z)
    r = math.floor(z.real)
    k = strip_index(lam, z)
    if -geometry.m < r < geometry.m:
        raise DomainError(f"rectangle column {r} lies inside |Re| < M = {geometry.m}")
    if not _rectangle_meets(spec, lam, k, r, geometry.m):
        raise DomainError(f"rectangle (k={k}, r={r}) does not meet the thin set")
    p = LogPolarComplex.from_complex(z)
    if r >= geometry.m:
        return step_log_polar(lam, p), 1
    l = geometry.level_of_column(r)
    for _ in range(l + 2):
        p = step_log_polar(lam, p)
    return p, l + 2


# ---------------------------------------------------------------------------
# contraction certificates


@dataclass(frozen=True)
class ContractionCertificate:
    lam: complex
    c: Optional[float]
    delta: float
    m: int
    l0: Optional[int]
    r_range: tuple[int, ...]
    per_rectangle: tuple[tuple[int, int, float], ...]  # (k, r, bound)
    per_column: tuple[tuple[int, float], ...]
    max_sum: float
    passed: bool
    status: str
    distortion_allowance: float

    def column_bound(self, r: int) -> float:
        for rr, b in self.per_column:
            if rr == r:
                return b
        raise ValidationError(f"column {r} not in the certified range")


def _negative_level_bound(
    lam: complex,
    spec: ThinSetSpec,
    geometry: InducedGeometry,
    l: int,
    delta: float,
    distortion_allowance: float,
) -> float:
    """Per-rectangle bound at a level-l negative rectangle.

    First-leg derivative lower bound D/(4 e L_dist), then the positive
    continuation summed over the columns covering the ball at beta_l:
    per-column count from the ball height, geometric decay across
    columns.  Underflows honestly to 0.0 deep in the orbit.
    """
    d = geometry.d
    log_first_leg = math.log(d) - math.log(4.0 * math.e * distortion_allowance)
    r_min = geometry.r_prime_min(l)
    if r_min == math.inf:
        return 0.0
    ps = _positive_column_sum(lam, spec, r_min, delta, float(geometry.m))
    if ps == 0.0:
        return 0.0
    lb = geometry.log_beta_float(l)
    log_height = math.log(d) + lb + math.log(2.0 / TAU)
    if log_height < _EXP_NATIVE:
        n_height = math.exp(log_height) + 2.0
        log_n_height = math.log(n_height)
    else:
        log_n_height = log_height
    log_bound = (
        -(1.0 + delta) * log_first_leg
        + log_n_height
        + math.log(ps)
        - math.log1p(-math.exp(-delta / 2.0))
    )
    return _exp_or_inf(log_bound)


def _threshold(m: Optional[int], geometry: Optional[InducedGeometry]) -> int:
    """M, given directly or by a geometry; when both are given they must agree."""
    if geometry is not None:
        if m is not None and m != geometry.m:
            raise ValidationError("M disagrees with the geometry's threshold")
        return geometry.m
    if m is None:
        raise ValidationError("need M (directly or via a geometry)")
    return m


def verify_contraction(
    lam: complex,
    spec: ThinSetSpec,
    delta: float,
    r_range: Sequence[int],
    m: Optional[int] = None,
    geometry: Optional[InducedGeometry] = None,
    distortion_allowance: float = 1.2,
    enumerate_rectangles: bool = True,
) -> ContractionCertificate:
    """Certificate that every per-rectangle image sum is below 1/2.

    Positive columns need only M; negative columns need the geometry.
    A max in [1/2, 1) is reported as "not achieved", not as an error.
    """
    lam = _require_lambda(lam)
    if not (0.0 < delta < 1.0):
        raise ValidationError("delta must lie in (0, 1)")
    m = _threshold(m, geometry)
    columns = sorted(set(int(r) for r in r_range))
    if not columns:
        raise ValidationError("empty column range")

    per_column: list[tuple[int, float]] = []
    for r in columns:
        if r >= m:
            b = _positive_column_sum(lam, spec, float(r), delta, float(m))
        elif r <= -m:
            if geometry is None:
                raise ValidationError(
                    "negative columns require a geometry (build one with "
                    "negative_geometry)"
                )
            b = _negative_level_bound(
                lam, spec, geometry, geometry.level_of_column(r), delta,
                distortion_allowance,
            )
        else:
            raise ValidationError(f"column {r} lies inside |Re| < M = {m}")
        per_column.append((r, b))

    rows: list[tuple[int, int, float]] = []
    if enumerate_rectangles:
        family = build_zm(spec, lam, m, max(max(abs(r) for r in columns), m + 1))
        wanted = dict(per_column)
        for rect in family.rectangles:
            if rect.r in wanted:
                rows.append((rect.k, rect.r, wanted[rect.r]))

    max_sum = max(b for _, b in per_column)
    passed = max_sum < 0.5
    status = "pass" if passed else (
        f"certificate not achieved at M={m}, delta={delta:g} "
        f"(max bound {max_sum:.6g})"
    )
    return ContractionCertificate(
        lam, geometry.c if geometry else None, delta, m,
        geometry.l0 if geometry else None, tuple(columns), tuple(rows),
        tuple(per_column), max_sum, passed, status, distortion_allowance,
    )


def certificate_to_json(cert: ContractionCertificate) -> str:
    doc = {
        "format_version": 1,
        "lambda": [cert.lam.real, cert.lam.imag],
        "c": cert.c,
        "delta": cert.delta,
        "M": cert.m,
        "l0": cert.l0,
        "r_range": list(cert.r_range),
        "per_rectangle": [
            {"k": k, "r": r, "bound": b} for k, r, b in cert.per_rectangle
        ],
        "per_column": [{"r": r, "bound": b} for r, b in cert.per_column],
        "max_sum": cert.max_sum,
        "pass": cert.passed,
        "status": cert.status,
        "distortion_allowance": cert.distortion_allowance,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# iterated covers


@dataclass(frozen=True)
class CoverLevel:
    n: int
    total: float
    budget: float
    cells: float
    tail_mass: float


@dataclass(frozen=True)
class CoverRun:
    levels: tuple[CoverLevel, ...]
    aborted: bool
    start_column: int
    delta: float
    m: int
    two_sided: bool


def cover_iterate(
    lam: complex,
    spec: ThinSetSpec,
    delta: float,
    depth_max: int,
    branch_cap: int,
    m: Optional[int] = None,
    geometry: Optional[InducedGeometry] = None,
    distortion_allowance: float = 1.2,
    cell_limit: float = 1e7,
) -> CoverRun:
    """Depth-indexed cover totals sum (diam K)^{1+delta} against (2pi+1)/2^n.

    Cells are branch compositions; a cell's diameter is at most
    (2 pi + 1) times the product of its legs' derivative reciprocals, so
    the total factors through per-column masses, merged exactly (the
    transition weight depends only on the source column).  Columns past
    branch_cap are absorbed into an analytic tail bucket.

    Without a geometry the run is one-sided: it covers the part of the
    set in {Re z >= M} and transition mass into negative columns is not
    generated.  With a geometry, negative mass continues through the
    level bound and re-enters on the positive side at the worst column.

    The n = 0 row is the bare starting rectangle at column M, total
    (2 pi + 1)^{1+delta}; the budget comparison is meaningful from n = 1 on.
    """
    lam = _require_lambda(lam)
    if not (0.0 < delta < 1.0):
        raise ValidationError("delta must lie in (0, 1)")
    if depth_max < 1 or branch_cap < 1:
        raise ValidationError("need depth_max >= 1 and branch_cap >= 1")
    m = _threshold(m, geometry)
    if m < 1:
        raise ValidationError("need M >= 1")
    two_sided = geometry is not None
    sides = 2.0 if two_sided else 1.0

    base = TAU + 1.0
    scale = base ** (1.0 + delta)

    masses: dict[int, float] = {m: 1.0}
    tail_mass = 0.0
    tail_col = math.inf
    levels = [CoverLevel(0, scale, base, 1.0, 0.0)]
    aborted = False

    for n in range(1, depth_max + 1):
        new: dict[int, float] = {}
        new_tail = 0.0
        new_tail_col = math.inf
        cells = 0.0

        if tail_mass > 0.0 and tail_col != math.inf:
            ps = _positive_column_sum(lam, spec, tail_col, delta, float(m), sides)
            new_tail += tail_mass * ps
            new_tail_col = tail_col

        for col in sorted(masses):
            mass = masses[col]
            if mass == 0.0:
                continue
            if col <= -m:
                lvl = geometry.level_of_column(col)
                nb = _negative_level_bound(
                    lam, spec, geometry, lvl, delta, distortion_allowance
                )
                if mass * nb > 0.0:
                    new[m] = new.get(m, 0.0) + mass * nb
                    cells += 1.0
                continue

            ps = _positive_column_sum(lam, spec, float(col), delta, float(m), sides)
            if mass * ps == 0.0:
                continue
            log_e, n_sup = _column_terms(lam, spec, col, float(m))
            if log_e > _EXP_NATIVE:
                # destinations beyond any enumerable column
                new_tail += mass * ps
                new_tail_col = min(new_tail_col, _HUGE_COLUMN)
                cells += 1.0
                continue

            e = math.exp(log_e)
            e1 = math.exp(log_e + 1.0)
            inner = max(float(m), e / spec.cone_constant - 2.0)
            s_start = max(math.ceil(inner), m)
            s_stop_full = math.floor(e1) + 2
            s_stop = min(s_stop_full, s_start + branch_cap)

            if cells + (s_stop - s_start) * sides > cell_limit:
                aborted = True
                break

            inner_term = e ** -(1.0 + delta)
            for s in range(s_start, s_stop):
                term = inner_term if s <= e else float(s) ** -(1.0 + delta)
                w = mass * n_sup * term
                if w == 0.0:
                    continue
                new[s] = new.get(s, 0.0) + w
                if two_sided:
                    ns = -s - 1
                    new[ns] = new.get(ns, 0.0) + w
                cells += sides

            if s_stop < s_stop_full:
                s_cut = float(s_stop)
                rem = n_sup * _tail(s_cut, e1, delta) * sides
                if mass * rem > 0.0:
                    new_tail += mass * rem
                    new_tail_col = min(new_tail_col, s_cut)

        if aborted:
            break
        masses, tail_mass, tail_col = new, new_tail, new_tail_col
        total = scale * (math.fsum(masses.values()) + tail_mass)
        levels.append(CoverLevel(n, total, base / 2 ** n, cells, scale * tail_mass))

    return CoverRun(tuple(levels), aborted, m, delta, m, two_sided)
