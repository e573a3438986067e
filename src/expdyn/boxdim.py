"""Box-counting estimates and the certified dimension-bound search.

Box-count slopes of finite-depth samples and certified contraction
bounds are the two honest numerical surrogates produced here; neither is
ever labeled a Hausdorff dimension.

The search imports ``induced`` when it runs, so box counting alone loads
no certificate code.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from .errors import ValidationError
from .dynamics import _require_lambda
from .reports import report_json

if TYPE_CHECKING:
    from .induced import ContractionCertificate
    from .invariant_sets import ThinSetSpec


class BoxCountResult(NamedTuple):
    epsilons: tuple[float, ...]
    counts: tuple[int, ...]
    slope: float
    r2: float
    slope_claim: bool  # False when too few points for the slope to mean much
    n_points: int


def _lsq_fit(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Least-squares slope of ys against xs, and the fit's r^2.

    math.fsum rounds correctly, so the bits do not depend on how an
    interpreter's builtin sum adds floats (3.12 made it compensated).
    """
    mx = math.fsum(xs) / len(xs)
    my = math.fsum(ys) / len(ys)
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    ss_tot = math.fsum((y - my) ** 2 for y in ys)
    ss_res = math.fsum((y - (my + slope * (x - mx))) ** 2 for x, y in zip(xs, ys))
    return slope, 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot


def box_count(points: Sequence[complex], epsilons: Sequence[float]) -> BoxCountResult:
    """Occupied epsilon-grid boxes at each scale, with a least-squares slope.

    Points must be finite.  The grid is anchored at the bounding-box
    corner of the points.  Scales must be finite and strictly
    decreasing, at least three of them, spanning at least one decade.
    Fewer than 100 points clears slope_claim but the slope is still
    reported.
    """
    pts = [complex(p) for p in points]
    return _box_count([p.real for p in pts], [p.imag for p in pts], epsilons)


def _box_count(
    xs: Sequence[float], ys: Sequence[float], epsilons: Sequence[float]
) -> BoxCountResult:
    """box_count on the points' coordinate columns."""
    if not xs:
        raise ValidationError("no points to count")
    if not (all(map(math.isfinite, xs)) and all(map(math.isfinite, ys))):
        raise ValidationError("points must be finite")
    eps = [float(e) for e in epsilons]
    if len(eps) < 3:
        raise ValidationError("need at least 3 scales")
    if not all(map(math.isfinite, eps)):
        raise ValidationError("scales must be finite")
    if any(e <= 0 for e in eps) or any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValidationError("scales must be positive and strictly decreasing")
    if eps[0] / eps[-1] < 10.0:
        raise ValidationError("scales must span at least one decade")

    # the points relative to the grid corner, shifted once for every scale
    x0 = min(xs)
    y0 = min(ys)
    us = [x - x0 for x in xs]
    vs = [y - y0 for y in ys]
    top = max(ys) - y0
    floor = math.floor
    counts: list[int] = []
    try:
        for e in eps:
            # subtraction, division and floor are monotone, so
            # 0 <= floor((y - y0) / e) < k and each integer key names one
            # box; ints, unlike tuples, are not tracked by the garbage
            # collector
            k = floor(top / e) + 1
            counts.append(len({floor(u / e) * k + floor(v / e) for u, v in zip(us, vs)}))
    except OverflowError:  # a box index past the float range
        raise ValidationError(f"points spread too wide for scale {e:g}") from None

    logs = [math.log(1.0 / e) for e in eps]
    slope, r2 = _lsq_fit(logs, [math.log(n) for n in counts])
    return BoxCountResult(
        tuple(eps), tuple(counts), slope, r2, len(xs) >= 100, len(xs)
    )


# ---------------------------------------------------------------------------
# certified bound search


class DimensionReport(NamedTuple):
    certificate: Optional[ContractionCertificate]
    bound_achieved: Optional[float]  # 1 + delta of the best passing certificate
    provenance: dict
    status: str  # "ok" | "no certificate in grid"


def dimension_bound_search(
    lam: complex,
    spec: ThinSetSpec,
    delta_grid: Sequence[float],
    m_grid: Sequence[int] = (),
    l0_grid: Optional[Sequence[int]] = None,
    c: Optional[float] = None,
    r_span: int = 20,
) -> DimensionReport:
    """Scan the grids and return the smallest passing 1 + delta.

    Positive-only mode scans (delta, M) and certifies columns M..M+r_span,
    r_span >= 0.  With l0_grid (c required) it scans (delta, l0), derives
    M from each geometry, and certifies both sides; an M grid or a c that
    the mode would not read is refused.  Absence of a certificate is a
    result ("no certificate in grid"), not an error.
    """
    from .induced import _threshold, negative_geometry, verify_contraction

    lam = _require_lambda(lam)
    deltas = sorted(set(float(d) for d in delta_grid))
    if not deltas:
        raise ValidationError("delta grid must be nonempty")
    if any(not 0.0 < d < 1.0 for d in deltas):
        raise ValidationError("deltas must lie in (0, 1)")
    if l0_grid is None and not m_grid:
        raise ValidationError("need an M grid (or an l0 grid with c)")
    if l0_grid is not None and c is None:
        raise ValidationError("l0 scanning needs the supergrowth constant c")
    if l0_grid is not None and m_grid:
        raise ValidationError("give an M grid or an l0 grid, not both")
    if l0_grid is None and c is not None:
        raise ValidationError("c is read only with an l0 grid")
    if r_span < 0:
        raise ValidationError("r_span must be >= 0")

    if l0_grid is None:
        ms = sorted(set(_threshold(lam, int(m), None) for m in m_grid))
        grid = {"mode": "positive-only", "m_grid": ms}
        candidates = ((m, None) for m in ms)
    else:
        l0s = sorted(set(int(l) for l in l0_grid))
        grid = {"mode": "two-sided", "l0_grid": l0s, "c": c}
        # built on demand, so a GeometryError surfaces at its own l0
        geometries = (negative_geometry(lam, c, l0) for l0 in l0s)
        candidates = ((geo.m, geo) for geo in geometries)
    provenance = {"lambda": [lam.real, lam.imag], "delta_grid": deltas, **grid,
                  "r_span": r_span}

    best: Optional[ContractionCertificate] = None
    for m, geo in candidates:
        for d in deltas:
            if best is not None and 1.0 + d >= 1.0 + best.delta:
                break
            cert = verify_contraction(
                lam, spec, d, m + r_span, m=m, geometry=geo, enumerate_rectangles=False
            )
            if cert.passed:
                best = cert
                break

    if best is None:
        return DimensionReport(None, None, provenance, "no certificate in grid")
    return DimensionReport(best, 1.0 + best.delta, provenance, "ok")


def report_to_json(report: DimensionReport) -> str:
    from .induced import _certificate_doc

    doc = {
        "format_version": 1,
        "status": report.status,
        "bound_achieved": report.bound_achieved,
        "provenance": report.provenance,
        "certificate": (
            _certificate_doc(report.certificate)
            if report.certificate is not None
            else None
        ),
        # a key of format_version 1; box counts are the boxdim command's report
        "boxcount": None,
    }
    return report_json(doc)
