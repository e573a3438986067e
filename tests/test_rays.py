"""Ray tracing by pullback and CSV output."""

import math
import random

import pytest

from expdyn import (
    ExternalAddress,
    NonConvergenceError,
    ValidationError,
    eval_map,
    ray_to_csv,
    trace_ray,
)
from expdyn.dynamics import _RANGE_LIMIT
from expdyn.rays import _trace_single

ZERO = ExternalAddress.constant(0)


# ---------------------------------------------------------------------------
# tracing

def test_zero_address_ray_is_the_real_line():
    ray = trace_ray(1.0, ZERO, [2.0, 3.0], depth=10)
    assert [s.point for s in ray.samples] == [2.0 + 0.0j, 3.0 + 0.0j]
    assert [s.residual for s in ray.samples] == [0.0, 0.0]
    assert ray.residual == 0.0
    # the parameter chain t -> e^t caps quickly, so the effective depth
    # is reached after two legs regardless of the requested depth
    assert [s.depth for s in ray.samples] == [2, 2]


def test_zero_ray_imaginary_part_vanishes_along_samples():
    ray = trace_ray(1.0, ZERO, [float(t) for t in range(2, 11)], depth=20)
    assert max(abs(s.point.imag) for s in ray.samples) < 1e-8


def test_real_ray_escapes_monotonically():
    ray = trace_ray(1.0, ZERO, [2.0, 3.0, 5.0, 8.0, 10.0], depth=20)
    res = [s.point.real for s in ray.samples]
    assert all(b > a for a, b in zip(res, res[1:]))


def test_traced_imaginary_part_approaches_asymptote():
    s = ExternalAddress((1,), (0,))
    ray = trace_ray(1.0, s, [50.0], depth=20)
    assert abs(ray.samples[0].point.imag - 2 * math.pi) < 0.1


def test_forward_invariance_of_traced_rays():
    # f(g_s(t)) should land on the shifted ray at parameter e^t
    rng = random.Random(11)
    ts = [3.0, 4.0, 5.0, 6.0]
    worst = 0.0
    for _ in range(3):
        entries = tuple(rng.randint(-2, 2) for _ in range(12))
        s = ExternalAddress(entries, (0,))
        ray = trace_ray(1.0, s, ts, depth=25)
        shifted = trace_ray(1.0, s.shift(), [math.exp(t) for t in ts], depth=24)
        for a, b in zip(ray.samples, shifted.samples):
            worst = max(worst, abs(eval_map(1.0, a.point) - b.point))
    assert worst < 1e-6
    assert worst == 4.1337716761604033e-13


def test_attracting_lambda_rays_are_rejected_honestly():
    # shallow pullbacks have not converged yet
    with pytest.raises(NonConvergenceError, match="pullback at t=2"):
        trace_ray(0.2, ZERO, [2.0], depth=20)
    # deep pullbacks converge to the repelling fixed point instead; its
    # native forward orbit drifts off the address, so the coding check
    # rejects the sample rather than report a bogus ray point
    with pytest.raises(NonConvergenceError, match="leaves strip 0"):
        trace_ray(0.2, ZERO, [2.0], depth=70)


def test_pullback_contracts_geometrically_for_attracting_lambda():
    # successive depth increments shrink by the derivative at the
    # attracting point of the inverse branch, about 0.3933 per level
    pts = [_trace_single(0.2, ZERO, 2.0, d)[0] for d in range(45, 56)]
    gaps = [abs(a - b) for a, b in zip(pts, pts[1:])]
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    ratios = [g2 / g1 for g1, g2 in zip(gaps, gaps[1:])]
    assert max(ratios) < 0.40
    assert ratios[-1] == 0.3932920322009433


def test_trace_validation():
    with pytest.raises(ValidationError):
        trace_ray(1.0, ZERO, [])
    with pytest.raises(ValidationError):
        trace_ray(1.0, ZERO, [0.5])
    with pytest.raises(ValidationError):
        trace_ray(1.0, ZERO, [2.0, 2.0])
    with pytest.raises(ValidationError):
        trace_ray(1.0, ZERO, [2.0], depth=0)
    with pytest.raises(ValidationError):
        trace_ray(1.0, ZERO, [2.0], tol=0.0)


def test_trace_depth_past_the_range_limit_is_refused():
    assert trace_ray(1.0, ZERO, [2.0], depth=_RANGE_LIMIT).samples[0].depth == 2
    with pytest.raises(ValidationError, match="ray depth must be at most 10000"):
        trace_ray(1.0, ZERO, [2.0], depth=_RANGE_LIMIT + 1)


def test_trace_refuses_a_tol_that_is_not_finite():
    # an infinite tol would accept every pullback, converged or not
    with pytest.raises(ValidationError, match="tol must be positive and finite"):
        trace_ray(0.2, ExternalAddress.constant(1), [2.0, 3.0], depth=1, tol=math.inf)


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_trace_refuses_a_parameter_that_is_not_finite(t):
    with pytest.raises(ValidationError, match="ray parameters must be finite"):
        trace_ray(1.0, ZERO, [2.0, t])


# ---------------------------------------------------------------------------
# CSV

def test_ray_csv_round_trip():
    ray = trace_ray(1.0, ZERO, [2.0, 3.0], depth=10)
    want = "t,re,im,depth,residual\n2,2,0,2,0\n3,3,0,2,0\n"
    assert ray_to_csv(ray) == want
