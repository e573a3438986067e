"""Dynamic ray tracing by inverse-branch pullback.

A ray with bounded address s is traced at parameter t by following the
parameter forward through the chain t_0 = t, t_{j+1} = |lambda| e^{t_j}
until it exceeds a fixed escape cap (or a depth budget), seeding at

    z = t_j + i (2 pi s_j - Arg lambda),

the asymptotic position of the shifted ray, and pulling back j times with
the inverse branches prescribed by s_{j-1}, ..., s_0.  Branch contraction
makes the pullback forget the seed error; convergence is confirmed by
re-tracing five levels deeper and comparing.

For chains that never escape (attracting real dynamics, small t) the full
depth budget is used.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .errors import NonConvergenceError, NumericRangeError, ValidationError
from .dynamics import (
    TAU,
    _abs,
    _lambda_logs,
    _require_count,
    _require_lambda,
    _require_strip,
    eval_map,
    inverse_branch,
)
from .coding import ExternalAddress, strip_index

ESCAPE_CAP = 1e14
_LOG_CAP = math.log(ESCAPE_CAP)
# forward coding re-check is meaningless once arg reduction loses ulps
_CODING_MODULUS_LIMIT = 1e15
_CODING_STEPS_MAX = 60


class RaySample(NamedTuple):
    t: float
    point: complex
    depth: int
    residual: float


class Ray(NamedTuple):
    samples: tuple[RaySample, ...]
    residual: float


def _trace_single(
    lam: complex, s: ExternalAddress, t: float, depth: int
) -> tuple[complex, int]:
    """One pullback trace; returns (point, effective depth used)."""
    # inf past DBL_MAX, where log|lambda| + t passes _LOG_CAP at once
    lam_abs = _abs(lam)
    log_lam, arg_lam = _lambda_logs(lam)

    chain = [float(t)]
    while len(chain) <= depth:
        if log_lam + chain[-1] > _LOG_CAP:
            break
        chain.append(lam_abs * math.exp(chain[-1]))
    j = len(chain) - 1

    # the seed's strip is refused as inverse_branch refuses a strip: a huge
    # entry would overflow its float height
    _require_strip(s.entry(j), arg_lam)
    z = complex(chain[j], TAU * s.entry(j) - arg_lam)
    for i in range(j - 1, -1, -1):
        z = inverse_branch(lam, z, s.entry(i))
    return z, j


def _check_coding(lam: complex, z: complex, s: ExternalAddress, horizon: int) -> None:
    w = z
    for n in range(min(horizon, _CODING_STEPS_MAX)):
        if abs(w) > _CODING_MODULUS_LIMIT:
            return
        if strip_index(lam, w) != s.entry(n):
            raise NonConvergenceError(
                f"traced point leaves strip {s.entry(n)} at forward step {n}"
            )
        try:
            w = eval_map(lam, w)
        except NumericRangeError:
            return


def trace_ray(
    lam: complex,
    s: ExternalAddress,
    t_values: Sequence[float],
    depth: int = 20,
    tol: float = 1e-10,
) -> Ray:
    """Trace the ray of address s at the given parameters.

    Each sample is accepted only if re-tracing five levels deeper moves it
    by less than tol, and its forward itinerary matches the address prefix
    as far as native iteration can check.  depth is at most _RANGE_LIMIT,
    tol and the parameters must be finite.  A strip with an edge past
    ARG_TRUST_LIMIT, the seed's or one pulled back through, is a
    NumericRangeError.
    """
    lam = _require_lambda(lam)
    if depth < 1:
        raise ValidationError("depth must be >= 1")
    _require_count(depth, "ray depth")
    if not (0.0 < tol < math.inf):
        raise ValidationError("tol must be positive and finite")
    ts = sorted(float(t) for t in t_values)
    if not ts:
        raise ValidationError("need at least one t value")
    if not all(map(math.isfinite, ts)):
        raise ValidationError("ray parameters must be finite")
    if any(t < 1.0 for t in ts):
        raise ValidationError("ray parameters must be >= 1")
    if any(b >= a for a, b in zip(ts[1:], ts)):
        raise ValidationError("t values must be distinct")

    samples: list[RaySample] = []
    for t in ts:
        z, j = _trace_single(lam, s, t, depth)
        z5, _ = _trace_single(lam, s, t, depth + 5)
        residual = abs(z - z5)
        if not residual < tol:
            raise NonConvergenceError(
                f"pullback at t={t:g} moved by {residual:.3e} between depths "
                f"{depth} and {depth + 5} (tol {tol:g})"
            )
        _check_coding(lam, z, s, j)
        samples.append(RaySample(t, z, j, residual))
    return Ray(tuple(samples), max(s.residual for s in samples))


# ---------------------------------------------------------------------------
# export


def ray_to_csv(ray: Ray) -> str:
    lines = ["t,re,im,depth,residual"]
    for s in ray.samples:
        lines.append(
            f"{s.t:.17g},{s.point.real:.17g},{s.point.imag:.17g},"
            f"{s.depth},{s.residual:.17g}"
        )
    return "\n".join(lines) + "\n"
