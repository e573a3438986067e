"""Rectangle families, the induced map, and contraction certificates.

The plane strips are cut into unit-width rectangles R^k_r (column r,
strip k).  Z_M is the family of rectangles meeting the thin set, a
horizontal strip a <= Im z <= b, at |Re z| >= M; every such column
holds the same strips, those from the strip of a to the strip of b.  On
columns r >= M the induced map is f itself; on columns r <= -M a point
is assigned a level l from explicit half-plane bands derived from the
singular orbit, and the induced map is f^{l+2}.

A certificate at threshold M covers the columns M..r_max, and
-r_max..-M too when it has a negative-side geometry; it keeps one bound
per column and the Z_M strip range once, since every column holds the
same strips.  It bounds, per rectangle, the sum over image rectangles of
sup |F'|^{-(1+delta)}.  Positive-side sums are aggregated per image
column: the count of rectangles a column can contribute is bounded
through the strip's width, and the column factors decay geometrically,
so the whole sum collapses to a closed form plus an integral tail.
Certificates pass when every bound is below 1/2; their bounds are
float-rounded and hold "modulo distortion allowance", so they are not
interval-rigorous.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import partial, reduce
from itertools import accumulate, chain, repeat
from operator import add, lt, mul, neg
from typing import Iterable, NamedTuple, Optional

from .errors import _RANGE_LIMIT, GeometryError, NumericRangeError, ValidationError
from .dynamics import (
    ARG_TRUST_LIMIT,
    TAU,
    _abs,
    _lambda_logs,
    _require_count,
    _require_int,
    _require_lambda,
    _strip_of_imag,
    check_supergrowth,
)
from .invariant_sets import ThinSetSpec
from .reports import report_json

# Exponents below this take the native path.  It sits ~20 below the
# overflow limit towers._EXP_SAFE so that exp(log_e + 1) and products of
# exp results with strip counts stay finite.  Cover totals for columns
# 690-709 depend on this value, so it is not the overflow limit itself.
_EXP_NATIVE = 690.0
_HUGE_COLUMN = 1e300
# exp(x) is 0.0 in double precision for every x below this: the smallest
# subnormal is e^-744.44, and results under half of it (e^-745.13) round to 0
_EXP_ZERO = -746.0
# cover_iterate refuses a depth that would pass this many cells, and
# _zm_strips refuses a Z_M of more rectangles than this
_CELL_LIMIT = 1e7
# negative_geometry's bands are the levels l0..l0 + _BANDS, the same at
# every l0, so certify --l0 and searchbound build the same geometry
_BANDS = 4


class RectangleIndex(NamedTuple):
    k: int  # strip
    r: int  # column; rectangle is {r <= Re z < r+1} within strip k


def _require_columns(m: int, r_max: int, two_sided: bool) -> None:
    """Refuse an r_max that is not an integer or lies below M, and a
    certificate of more than _RANGE_LIMIT columns."""
    _require_int(r_max, "r_max")
    if r_max < m:
        raise ValidationError(f"r_max must be at least M = {m}")
    count = (r_max - m + 1) * (2 if two_sided else 1)
    if count > _RANGE_LIMIT:
        raise ValidationError(
            f"the column range {m}..{r_max} holds {count} columns, "
            f"more than {_RANGE_LIMIT}"
        )


def _columns(m: int, r_max: int, two_sided: bool) -> list[int]:
    """The columns of a certificate at threshold M, ascending: M..r_max,
    after -r_max..-M when two-sided.  _require_columns refuses a range
    before any column is listed."""
    _require_columns(m, r_max, two_sided)
    negative = range(-r_max, -m + 1) if two_sided else range(0)
    return [*negative, *range(m, r_max + 1)]


def _zm_strips(spec: ThinSetSpec, lam: complex, n_columns: int) -> range:
    """The strips s(a)..s(b), s = _strip_of_imag, that every Z_M column holds.

    The strips ((2k - 1) pi - A, (2k + 1) pi - A] partition the line, so
    the closed strip a <= Im z <= b meets exactly the strips s(a)..s(b)
    in every column with |r| >= M.  Past ARG_TRUST_LIMIT strip indices
    are not resolved.  NumericRangeError refuses, before any rectangle is
    listed, an edge past ARG_TRUST_LIMIT and more than _CELL_LIMIT
    rectangles in n_columns columns.
    """
    if max(abs(spec.a), abs(spec.b)) > ARG_TRUST_LIMIT:
        raise NumericRangeError(
            f"Z_M strip edges must lie within |Im z| <= {ARG_TRUST_LIMIT:g}")
    arg_lam = _lambda_logs(lam)[1]
    ks = range(_strip_of_imag(spec.a, arg_lam), _strip_of_imag(spec.b, arg_lam) + 1)
    if len(ks) * n_columns > _CELL_LIMIT:
        raise NumericRangeError(f"Z_M would list more than {_CELL_LIMIT:g} rectangles")
    return ks


def build_zm(
    spec: ThinSetSpec, lam: complex, m: int, r_max: int
) -> tuple[RectangleIndex, ...]:
    """The Z_M rectangles in the columns M..r_max of a certificate without
    a geometry, ordered by (r, k)."""
    lam = _require_lambda(lam)
    columns = _columns(_threshold(lam, m, None), r_max, two_sided=False)
    ks = _zm_strips(spec, lam, len(columns))
    return tuple(RectangleIndex(k, r) for r in columns for k in ks)


# ---------------------------------------------------------------------------
# positive-side column sums


def _max_width(spec: ThinSetSpec) -> float:
    """Widest slice over any image columns: a strip's width is the same in
    every column, so a column-sum call reads it once.  A function of its
    own, so that the per-layer benchmark (bench/tracer.py) counts the
    column sums' width reads."""
    return spec.width


def _column_terms(lam: complex, spec: ThinSetSpec, r: float) -> tuple[float, float]:
    """(log E, n_sup) at positive column r: E = |lambda| e^r, and n_sup
    bounds the rectangles per image column."""
    return _lambda_logs(lam)[0] + r, _max_width(spec) / TAU + 2.0


def _tail(s: float, e1: float, delta: float) -> float:
    """Bound for sum of t^-(1+delta) over image columns s <= t <= eE + 1."""
    return s ** -(1.0 + delta) + max(
        0.0, (s ** -delta - (e1 + 1.0) ** -delta) / delta
    )


def _bound_vanishes(
    log_e: float, n_sup: float, delta: float, sides: float
) -> bool:
    """Is the column bound 0.0 at this column and at every larger one?

    A strip's width is the same in every column, so lead = sides n_sup is
    the same at every larger column, while the log branch's larger
    exponent log(lead) - delta log E falls as the column grows.  Once that
    exponent is below _EXP_ZERO, _positive_column_sums gives 0.0 without
    evaluating exp.  (With lead >= 2 and delta < 1 this happens only past
    log E = 746, inside the log branch, where exp would give 0.0 too; the
    test on log E + 1 spares the log below _EXP_NATIVE.)
    """
    return (log_e + 1.0 >= _EXP_NATIVE
            and math.log(sides * n_sup) - delta * log_e < _EXP_ZERO)


def _positive_column_sums(
    lam: complex,
    spec: ThinSetSpec,
    columns: Iterable[float],
    delta: float,
    m: float,
    sides: float = 2.0,
) -> list[float]:
    """Upper bounds for the per-rectangle image sum at each positive column.

    Image moduli lie in [E, eE] with E = |lambda| e^r.  Columns with
    lower Re-bound below E contribute at most E^{-(1+delta)} each and
    their count is limited by the cone condition; columns beyond E decay
    like s^{-(1+delta)} and are absorbed by an integral tail (_tail).

    What does not depend on the column (log|lambda|, n_sup, lead, its
    log, the cone constant K and the log branch's share) is computed
    once; each column then evaluates the same expressions in the same
    order as a call for that column alone, so the bits do not depend on
    which columns share a call.  The cut is _bound_vanishes's test.
    """
    log_lam = _lambda_logs(lam)[0]
    n_sup = _max_width(spec) / TAU + 2.0
    lead = sides * n_sup
    log_lead = math.log(lead)
    cone = spec.cone_constant
    share = max(0.0, 1.0 - 1.0 / cone) - math.expm1(-delta) / delta
    pad = abs(log_lead)
    m = float(m)
    grow = 1.0 + delta
    power = -grow
    exp, ceil = math.exp, math.ceil
    sums = []
    for r in columns:
        log_e = log_lam + r
        if log_e + 1.0 >= _EXP_NATIVE and log_lead - delta * log_e < _EXP_ZERO:
            sums.append(0.0)
        elif grow * log_e > _EXP_NATIVE:
            # The native formula below with E factored out, so that
            # E^-(1+delta) cannot underflow: count <= E (1 - 1/K) + 3,
            # s0 >= E and a tail integral of at most E^-delta
            # (1 - e^-delta)/delta.  (Reading eE for eE + 1 at the tail's
            # far end drops a relative 1/E, and log E > 345 here.)  lead
            # goes into the exponents, so no factor leaves the normal range
            # before the result does.  Rounding, for E = e^log_e: each
            # exponent takes at most four roundings of at most S 2^-53,
            # with S = |log lead| + (1 + delta) log_e, and its exp moves by
            # the same relative amount; log, exp, expm1 and the other
            # operations add under 16 ulps.  A relative pad of (S + 16)
            # 2^-50 covers both at least twice.  Results below the normal
            # range (2.2e-308) round coarser, but sit far below any budget.
            bound = (share * exp(log_lead - delta * log_e)
                     + 4.0 * exp(log_lead - grow * log_e))
            size = pad + grow * log_e
            sums.append(bound * (1.0 + (size + 16.0) * 2.0 ** -50))
        else:
            e = exp(log_e)
            e1 = exp(log_e + 1.0)
            if m > e1 + 1.0:
                sums.append(0.0)
                continue
            inner = max(m, e / cone - 2.0)
            count = max(0.0, e - inner + 1.0)
            part1 = lead * count * e ** power
            s0 = max(ceil(max(e, m)), 1)
            tail = s0 ** power + max(0.0, (s0 ** -delta - (e1 + 1.0) ** -delta) / delta)
            sums.append(part1 + lead * tail)
    return sums


def _positive_column_sum(
    lam: complex,
    spec: ThinSetSpec,
    r: float,
    delta: float,
    m: float,
    sides: float = 2.0,
) -> float:
    """Upper bound for the per-rectangle image sum at positive column r:
    _positive_column_sums at this one column."""
    return _positive_column_sums(lam, spec, (r,), delta, m, sides)[0]


# ---------------------------------------------------------------------------
# negative-side geometry


class InducedGeometry(NamedTuple):
    lam: complex
    c: float
    d: float  # ball radius factor c / (4 |lambda|): balls B(beta_l, D |beta_l|)
    l0: int
    m: int
    sigmas: tuple[float, ...]  # band boundaries sigma_{l0} .. sigma_{l0+_BANDS+1}
    alphas: tuple[float, ...]  # alpha_0 .. alpha_{l0+_BANDS+1} as floats (inf beyond native)
    log_betas: tuple[float, ...]  # log|beta_l|, index 1..; [0] unused sentinel

    def level_of_column(self, r: int) -> int:
        """Band level of the column [r, r+1); ties go to the smaller level.

        Level l holds the column when sigma_{l+1} < r + 1 and sigma_l > r.
        The sigmas do not increase with l, so the smallest such l is found
        by two bisections over them.  A column below the deepest band
        raises GeometryError; negative_geometry's deepest band reaches
        sigma = -inf, so only a hand-built geometry has such a column.
        """
        if r > -self.m:
            raise ValidationError(f"column {r} is not on the negative side of Y_M")
        # first index with sigma < r + 1, first index with sigma <= r
        below_top = bisect_right(self.sigmas, -(r + 1), key=neg)
        below_r = bisect_left(self.sigmas, -r, key=neg)
        i = max(below_top - 1, 0)
        if i < below_r and i <= len(self.sigmas) - 2:
            return self.l0 + i
        raise GeometryError(f"column {r} below the deepest computed band")

    def r_prime_min(self, l: int) -> float:
        """Smallest positive column the level-l continuation can reach."""
        a = self.alphas[l]
        lb = self.log_betas[l]
        radius = math.exp(math.log(self.d) + lb) if lb < _EXP_NATIVE else math.inf
        if a == math.inf or radius == math.inf:
            return math.inf
        return max(float(self.m), math.floor(a - radius))


def _level_bands(
    geometry: InducedGeometry, start: int, stop: int
) -> list[tuple[int, int, int]]:
    """The negative columns start..stop - 1 in bands of one level,
    ascending: (level, a, b) for the columns a..b - 1.

    The level does not increase with the column, so a band starts with one
    level_of_column call and ends where a bisection over the columns past
    it finds the first smaller level.  The deepest column is looked up
    first, so a column below the deepest band raises GeometryError as a
    loop over every column would.
    """
    level = geometry.level_of_column
    columns = range(start, stop)
    bands = []
    a = start
    while a < stop:
        lvl = level(a)
        b = start + bisect_right(columns, -lvl, a - start + 1, key=lambda r: -level(r))
        bands.append((lvl, a, b))
        a = b
    return bands


def negative_geometry(lam: complex, c: float, l0: int) -> InducedGeometry:
    """Balls around the singular orbit and the level bands for Re z <= -M.

    M = floor(alpha_{l0}) + 1; level l, l0 <= l <= l0 + _BANDS, covers
    the half-plane band [sigma_{l+1}, sigma_l) with

        sigma_l = -log 4 - 1 + log D - (alpha_{l-2} + ... + alpha_0)
                  - l log|lambda|.

    Requires the supergrowth inequality at this c (the bands and ball
    disjointness are consequences of it).
    """
    lam = _require_lambda(lam)
    lam_abs = _abs(lam)
    if not (0.0 < c <= lam_abs):
        raise ValidationError("need 0 < c <= |lambda| so that D <= 1/4")
    _require_int(l0, "l0")
    if l0 < 1:
        raise ValidationError("need l0 >= 1")

    horizon = l0 + _BANDS + 1
    report = check_supergrowth(lam, c, horizon)
    if not report.holds:
        raise GeometryError(
            f"supergrowth fails for c={c:g} over horizon {horizon} "
            f"(first failure at {report.first_failure_index})"
        )
    orbit = report.orbit
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

    d = c / (4.0 * lam_abs)
    if d == 0.0:
        # 4|lambda| past DBL_MAX, or c/(4|lambda|) below the least subnormal
        raise NumericRangeError("D = c/(4|lambda|) underflows to 0")
    log_d = math.log(d)
    log_lam = _lambda_logs(lam)[0]
    const = -math.log(4.0) - 1.0 + log_d

    # partial[j] = alpha_0 + ... + alpha_{j-1}, added left to right
    partial = list(accumulate(alphas, initial=0.0))
    sigmas = tuple(const - partial[l - 1] - l * log_lam
                   for l in range(l0, horizon + 1))
    if not sigmas[1] >= -m + 1:
        raise GeometryError(
            f"band top sigma_{l0 + 1} = {sigmas[1]:.4g} does not reach "
            f"-M+1 = {-m + 1}; increase l0"
        )

    # the balls at beta_l and beta_{l+1} (orbit[l - 1] and orbit[l]) are
    # disjoint when |beta_{l+1}| (1 - D) > |beta_l| (1 + D)
    for l in range(l0, l0 + _BANDS):
        lhs = orbit[l].log_modulus.add_float(math.log1p(-d))
        rhs = orbit[l - 1].log_modulus.add_float(math.log1p(d))
        if not lhs > rhs:
            raise GeometryError(f"balls at levels {l} and {l + 1} are not disjoint")
    return InducedGeometry(lam, c, d, l0, m, sigmas, tuple(alphas), tuple(log_betas))


# ---------------------------------------------------------------------------
# contraction certificates


class ContractionCertificate(NamedTuple):
    lam: complex
    c: Optional[float]
    delta: float
    m: int
    l0: Optional[int]
    per_column: tuple[tuple[int, float], ...]  # (r, bound), ascending r
    zm_strips: Optional[range]  # every column's Z_M strips; None when not listed
    max_sum: float
    passed: bool
    status: str
    distortion_allowance: float


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
    lb = geometry.log_betas[l]
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
    return math.exp(log_bound) if log_bound < _EXP_NATIVE else math.inf


def _threshold(
    lam: complex, m: Optional[int], geometry: Optional[InducedGeometry]
) -> int:
    """An integer M >= 1, given directly or by a geometry; when both are
    given they must agree.  A geometry's bands come from the singular orbit
    of its own lambda, so it is refused for any other lambda."""
    if m is not None:
        _require_int(m, "m")
    if geometry is not None:
        if lam != geometry.lam:
            raise ValidationError(
                f"the geometry was built for lambda = {geometry.lam:g}, not {lam:g}")
        if m is not None and m != geometry.m:
            raise ValidationError("M disagrees with the geometry's threshold")
        m = geometry.m
    if m is None:
        raise ValidationError("need M (directly or via a geometry)")
    if m < 1:
        raise ValidationError("need M >= 1")
    return m


def _require_run_parameters(delta: float, distortion_allowance: float) -> None:
    """delta in (0, 1); a finite distortion allowance >= 1, since a smaller
    one would shrink the first-leg bound D/(4 e L) below what it bounds."""
    if not (0.0 < delta < 1.0):
        raise ValidationError("delta must lie in (0, 1)")
    if not 1.0 <= distortion_allowance < math.inf:
        raise ValidationError("distortion allowance must be finite and >= 1")


def verify_contraction(
    lam: complex,
    spec: ThinSetSpec,
    delta: float,
    r_max: int,
    m: Optional[int] = None,
    geometry: Optional[InducedGeometry] = None,
    distortion_allowance: float = 1.2,
    enumerate_rectangles: bool = True,
) -> ContractionCertificate:
    """Certificate that every per-rectangle image sum is below 1/2.

    It certifies the columns M..r_max, and -r_max..-M too when a geometry
    is given (the geometry then also gives M); M and r_max must be
    integers.  A max in [1/2, 1) is reported as "not achieved", not as an
    error.  Each bound is float-rounded, and the negative ones hold modulo
    the distortion allowance.

    The positive columns take one _positive_column_sums call.  A negative
    bound depends on the level alone, so the negative columns take one
    _negative_level_bound per level band (_level_bands), in ascending
    order.
    """
    lam = _require_lambda(lam)
    _require_run_parameters(delta, distortion_allowance)
    m = _threshold(lam, m, geometry)
    columns = _columns(m, r_max, two_sided=geometry is not None)

    bounds: list[float] = []
    if geometry is not None:
        for lvl, a, b in _level_bands(geometry, -r_max, -m + 1):
            nb = _negative_level_bound(
                lam, spec, geometry, lvl, delta, distortion_allowance
            )
            bounds += repeat(nb, b - a)
    bounds += _positive_column_sums(lam, spec, range(m, r_max + 1), delta, m)
    per_column = tuple(zip(columns, bounds))
    strips = _zm_strips(spec, lam, len(columns)) if enumerate_rectangles else None

    max_sum = max(bounds)
    passed = max_sum < 0.5
    status = "pass" if passed else (
        f"certificate not achieved at M={m}, delta={delta:g} "
        f"(max bound {max_sum:.6g})"
    )
    return ContractionCertificate(
        lam, geometry.c if geometry else None, delta, m,
        geometry.l0 if geometry else None, per_column, strips,
        max_sum, passed, status, distortion_allowance,
    )


def _certificate_doc(cert: ContractionCertificate) -> dict:
    """The certificate's JSON fields; a bound that is not finite has no JSON
    number, so it raises NumericRangeError.  Its rectangles are each
    column's Z_M strips, in (r, k) order."""
    if not all(math.isfinite(b) for _, b in cert.per_column):
        raise NumericRangeError("a certificate bound is not finite")
    strips = cert.zm_strips or ()
    return {
        "format_version": 1,
        "lambda": [cert.lam.real, cert.lam.imag],
        "c": cert.c,
        "delta": cert.delta,
        "M": cert.m,
        "l0": cert.l0,
        "r_range": [r for r, _ in cert.per_column],
        "per_rectangle": [
            {"k": k, "r": r, "bound": b} for r, b in cert.per_column for k in strips
        ],
        "per_column": [{"r": r, "bound": b} for r, b in cert.per_column],
        "max_sum": cert.max_sum,
        "pass": cert.passed,
        "status": cert.status,
        "distortion_allowance": cert.distortion_allowance,
    }


def certificate_to_json(cert: ContractionCertificate) -> str:
    """The certificate as a JSON document (see _certificate_doc)."""
    return report_json(_certificate_doc(cert))


# ---------------------------------------------------------------------------
# iterated covers


class CoverLevel(NamedTuple):
    n: int
    total: float
    budget: float
    cells: float
    tail_mass: float


class CoverRun(NamedTuple):
    levels: tuple[CoverLevel, ...]
    m: int
    two_sided: bool


# masses (lo, n, v, values): v at the n columns from lo on, then values
_Run = tuple[int, int, float, list[float]]


def _window_weights(
    k: float, e: float, s_start: int, s_stop: int, power: float
) -> tuple[int, float, list[float]]:
    """k t^power at the image columns s_start <= s < s_stop, with t = E up
    to column floor(E) and t = s past it, as (n, v, tail): n columns of
    the one weight v = k E^power from s_start on, then the list of weights
    past floor(E), less the zeros that end it.

    The weights do not increase with s, so weights that underflow to 0.0
    come last and none before them is 0.0; (0, 0.0, []) means that every
    weight is 0.0 or that the window is empty.
    """
    v = k * e ** power
    if v == 0.0 or s_stop <= s_start:
        return 0, 0.0, []
    s_outer = min(max(math.floor(e) + 1, s_start), s_stop)
    tail = list(map(mul, repeat(k),
                    map(pow, map(float, range(s_outer, s_stop)), repeat(power))))
    while tail and tail[-1] == 0.0:
        tail.pop()
    return s_outer - s_start, v, tail


def _deposit(runs: list[_Run], start: int, window: tuple[int, float, list[float]]) -> None:
    """Add a window (n, v, tail) of _window_weights, whose first column is
    start, to the masses.

    A window that starts at or past the end of the last run opens a run
    (start, n, v, copy of tail), so its flat prefix stays one count and
    one value.  A window that overlaps the last run expands both to lists
    and adds them by one slice assignment; the run keeps the list.
    Windows come in with nondecreasing starts, so no earlier run can meet
    them, and the window's tail list is not kept.
    """
    n, v, tail = window
    if runs:
        lo, k, u, vals = runs[-1]
        shared = lo + k + len(vals) - start  # columns the run already holds
        if shared > 0:
            if k:
                vals = [u] * k + vals
                runs[-1] = (lo, 0, 0.0, vals)
            weights = [v] * n + tail
            at = start - lo
            vals[at:at + len(weights)] = map(add, vals[at:at + len(weights)], weights)
            vals += weights[shared:]
            return
    runs.append((start, n, v, tail[:]))


def _flat_terms(n: int, v: float) -> list[float]:
    """n copies of v as ldexp(v, j) for each set bit j of n: at most
    n.bit_length() terms with the exact sum n v, so math.fsum, which
    rounds the exact sum once, gives the bits it gives for [v] * n.

    Overflow can meet this only where the exact sum of everything fsum
    adds passes the largest double.  Half a unit in the last place or
    more past it, fsum raises OverflowError on [v] * n, and ldexp or fsum
    raises it on the terms.  Less than half a unit past it, fsum may
    return the largest double on one and raise OverflowError on the other.
    """
    return [math.ldexp(v, j) for j in range(n.bit_length()) if n >> j & 1]


def cover_iterate(
    lam: complex,
    spec: ThinSetSpec,
    delta: float,
    depth_max: int,
    branch_cap: int,
    m: Optional[int] = None,
    geometry: Optional[InducedGeometry] = None,
    distortion_allowance: float = 1.2,
) -> CoverRun:
    """Depth-indexed cover totals sum (diam K)^{1+delta} against (2pi+1)/2^n.

    Cells are branch compositions; a cell's diameter is at most
    (2 pi + 1) times the product of its legs' derivative reciprocals, so
    the total factors through per-column masses, merged exactly (the
    transition weight depends only on the source column).  Columns past
    branch_cap are absorbed into an analytic tail bucket.  A depth whose
    cells would pass _CELL_LIMIT raises NumericRangeError naming it.

    Without a geometry the run is one-sided: it covers the part of the
    set in {Re z >= M} and transition mass into negative columns is not
    generated.  With a geometry, negative mass continues through the
    level bound and re-enters on the positive side at the worst column.

    The n = 0 row is the bare starting rectangle at column M, total
    (2 pi + 1)^{1+delta}; the budget comparison is meaningful from n = 1 on.

    The masses of a level are runs (lo, n, v, values) of consecutive
    columns, one list of runs per side: the mass is v at the n columns
    lo..lo + n - 1 and values[i] at column lo + n + i, where column c
    stands for -c - 1 on the negative side.  A positive source column's
    image window [s_start, s_stop) is _window_weights' (n, v, tail) of
    (mass n_sup) term: its columns up to floor(E) share one weight, so
    they are one count and one value, and the underflowed end of its
    tail (weights do not increase with s) is cut off.  _deposit opens a
    new run with it, or expands it and the last run it overlaps to lists
    and adds them by one slice assignment, so the columns between windows
    that branch_cap leaves empty are never stored.  This gives the bits
    of a per-column dict: every weight is the same product, each column
    adds its weights in source-column order (a new column holds
    w = 0.0 + w), and fsum, which does not depend on order, takes each
    flat prefix as _flat_terms.  Cells count the nonzero weights on each
    side, which are all of a window's n + len(tail) weights, since none
    before the cut is 0.0.  A column that only zero weights reached holds
    0.0 and, like a column missing from the dict, is skipped.  A negative
    run is expanded only for a band whose bound is not 0.0, where reduce
    adds its masses in column order.

    Columns whose bound is exactly 0.0 add nothing, and two kinds are
    skipped in runs, so the totals and cell counts are those of a loop
    over every column.  Negative columns are taken deepest first in bands
    of one level (the level does not increase with the column), found by
    _level_bands inside each run, with one _negative_level_bound per level,
    and a band whose bound is 0.0 is skipped.  The positive loop stops at
    the first column where _bound_vanishes holds, since the bound is then
    0.0 there and at every larger column.
    """
    lam = _require_lambda(lam)
    _require_run_parameters(delta, distortion_allowance)
    if depth_max < 1 or branch_cap < 1:
        raise ValidationError("need depth_max >= 1 and branch_cap >= 1")
    _require_count(depth_max, "cover depth")
    m = _threshold(lam, m, geometry)
    two_sided = geometry is not None
    sides = 2.0 if two_sided else 1.0
    power = -(1.0 + delta)

    base = TAU + 1.0
    scale = base ** (1.0 + delta)

    positive: list[_Run] = [(m, 0, 0.0, [1.0])]
    negative: list[_Run] = []
    tail_mass = 0.0
    tail_col = math.inf
    levels = [CoverLevel(0, scale, base, 1.0, 0.0)]

    for n in range(1, depth_max + 1):
        new_positive: list[_Run] = []
        new_negative: list[_Run] = []
        new_tail = 0.0
        new_tail_col = math.inf
        cells = 0.0

        if tail_mass > 0.0 and tail_col != math.inf:
            ps = _positive_column_sum(lam, spec, tail_col, delta, float(m), sides)
            new_tail += tail_mass * ps
            new_tail_col = tail_col

        # negative columns, deepest first, in bands of one level: values
        # vals[i:j] of a run; every weight mass * nb > 0 is a cell on
        # column M, where the weights add up in this order
        to_m: list[float] = []
        bound_level = None
        for lo, k, v, vals in reversed(negative):
            # the run's expanded list holds the mass at column -(lo + i) - 1
            # at i, so the columns a..b - 1 are [-b - lo:-a - lo] of it,
            # deepest last
            for lvl, a, b in _level_bands(geometry, -lo - k - len(vals), -lo):
                if lvl != bound_level:
                    bound_level = lvl
                    nb = _negative_level_bound(
                        lam, spec, geometry, lvl, delta, distortion_allowance
                    )
                if nb != 0.0:
                    band = ([v] * k + vals)[-b - lo:-a - lo]
                    weights = map(mul, reversed(band), repeat(nb))
                    to_m += filter(partial(lt, 0.0), weights)
        if to_m:
            cells += len(to_m)
            new_positive.append((m, 0, 0.0, [reduce(add, to_m, 0.0)]))

        sources = chain.from_iterable(
            chain(zip(range(lo, lo + k), repeat(v)), enumerate(vals, lo + k))
            for lo, k, v, vals in positive)
        for col, mass in sources:
            if mass == 0.0:  # no nonzero weight reached this column
                continue
            log_e, n_sup = _column_terms(lam, spec, col)
            if _bound_vanishes(log_e, n_sup, delta, sides):
                break
            ps = _positive_column_sum(lam, spec, float(col), delta, float(m), sides)
            if mass * ps == 0.0:
                continue
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

            if cells + (s_stop - s_start) * sides > _CELL_LIMIT:
                raise NumericRangeError(
                    f"the cover at depth {n} would pass {_CELL_LIMIT:g} cells")

            window = _window_weights(mass * n_sup, e, s_start, s_stop, power)
            count = window[0] + len(window[2])
            if count:
                cells += sides * count
                _deposit(new_positive, s_start, window)
                if two_sided:
                    _deposit(new_negative, s_start, window)

            if s_stop < s_stop_full:
                s_cut = float(s_stop)
                rem = n_sup * _tail(s_cut, e1, delta) * sides
                if mass * rem > 0.0:
                    new_tail += mass * rem
                    new_tail_col = min(new_tail_col, s_cut)

        positive, negative = new_positive, new_negative
        tail_mass, tail_col = new_tail, new_tail_col
        mass_sum = math.fsum(chain.from_iterable(
            chain(_flat_terms(k, v), vals) for _, k, v, vals in positive + negative))
        total = scale * (mass_sum + tail_mass)
        levels.append(CoverLevel(
            n, total, math.ldexp(base, -n), cells, scale * tail_mass
        ))

    return CoverRun(tuple(levels), m, two_sided)
