"""The float membership walk against a plain log-polar loop.

The oracle below classifies z itself as point 0, takes step 1 from z's own
coordinates (no log/exp round trip) and then builds every point with
``step_log_polar``, classifying each as a log-polar point.  The walk must
give the same (conservative exit, optimistic exit, caveat), with n + 1 for
"member to depth n", and classify each examined point exactly once.
"""

import cmath
import math
from itertools import accumulate, takewhile

import pytest
from hypothesis import given, settings, strategies as st

from expdyn import (
    LogPolarComplex,
    ThinSetSpec,
    TowerReal,
    horizontal_strip,
    step_log_polar,
    symmetric_strip,
)
from expdyn.dynamics import ARG_TRUST_LIMIT, _lambda_logs, _principal
from expdyn.invariant_sets import EXIT, UNDECIDED, _membership_walk
from expdyn.towers import _EXP_SAFE, LIFT


def first_step(lam, z):
    """f(z) in log-polar form, from Re z and Im z themselves."""
    log_lam = math.log(abs(lam))
    arg_lam = math.atan2(lam.imag, lam.real)
    # |Re z| and |Im z| first: abs(z) overflows past DBL_MAX
    near = max(abs(z.real), abs(z.imag)) <= ARG_TRUST_LIMIT and abs(z) <= ARG_TRUST_LIMIT
    trusted = near or math.sin(math.atan2(z.imag, z.real)) == 0.0
    return LogPolarComplex(TowerReal(0, z.real).add_float(log_lam),
                           _principal(z.imag + arg_lam), trusted)


def oracle_walk(lam, spec, z, n):
    p = complex(z)
    cons = n + 1
    caveat = False
    for i in range(n):
        verdict = spec.classify(p)
        if verdict == EXIT:
            return min(cons, i), i, caveat
        if verdict == UNDECIDED:
            caveat = True
            cons = min(cons, i)
        if i + 1 < n:
            p = first_step(lam, z) if i == 0 else step_log_polar(lam, p)
    return cons, n + 1, caveat


def walk(lam, spec, z, n):
    return _membership_walk(lam, spec, [z.real], z.imag, n, _lambda_logs(lam))[0]


def examined(result, n):
    """Points the walk classifies for an orbit with this result."""
    return n if result[1] > n else result[1] + 1


SPECS = {
    "strip": horizontal_strip(0.0, math.pi),
    "strip-neg": horizontal_strip(-1.0, 0.5),
    "strip-point": horizontal_strip(0.0, 0.0),
    # holds points past DBL_MAX in modulus
    "strip-wide": horizontal_strip(-1.79e308, 1.79e308),
    "symstrip": symmetric_strip(2.0),
}

# -1-0j has Arg -pi, so its steps reduce onto -pi and fold it to pi
LAMBDAS = [1.0, -1.0, complex(-1.0, -0.0), 1 + 0.3j, 0.25, cmath.rect(0.25, 0.3), 2.0]

POINTS = [
    0j,
    0.5 + 0.2j,
    -0.3 + 1.5j,
    complex(0.0, math.pi),
    0.5 + 3.0j,
    3.0 + 0.0j,         # real orbit at lambda = 1 leaves the double range
    40.0 + 1e-20j,      # f(z) = e^40 is past the argument trust bound
    complex(math.log(1e17), 0.0),
    complex(-1e17, 1.0),  # native, |z| > ARG_TRUST_LIMIT, sin arg != 0
    complex(1e17, 0.5),
    complex(1.795e308, 0.0),   # log modulus in (709.78, 710)
    complex(709.79, 0.0),      # next log modulus in (709.78, 710)
    complex(709.9, 1e-300),
    complex(-1e308, 0.0),      # next log modulus below NEG_SENTINEL
    complex(-1e308, 0.25),
    5e-324 + 0j,
    complex(1.7e308, 1.7e308),  # |z| past DBL_MAX, where abs(z) overflows
]


@pytest.fixture
def counted(monkeypatch):
    """Record the point passed to every ThinSetSpec.classify call."""
    seen = []
    orig = ThinSetSpec.classify

    def classify(self, p):
        seen.append(p)
        return orig(self, p)

    monkeypatch.setattr(ThinSetSpec, "classify", classify)
    return seen


@pytest.mark.parametrize("name", sorted(SPECS))
@pytest.mark.parametrize("lam", LAMBDAS)
def test_walk_matches_the_log_polar_loop(name, lam, counted):
    spec = SPECS[name]
    for z in POINTS:
        for n in (1, 2, 8, 25):
            want = oracle_walk(lam, spec, z, n)
            counted.clear()
            got = walk(lam, spec, z, n)
            assert got == want, (name, lam, z, n)
            assert len(counted) == examined(got, n), (name, lam, z, n)
            assert repr(counted[0]) == repr(z)  # z itself, signed zeros included


def test_orbit_leaves_the_double_range_mid_walk(counted):
    # 3 -> e^3 -> e^(e^3) (native) -> e^(e^(e^3)) (tower) ... all real
    spec = symmetric_strip(1.0)
    got = walk(1.0, spec, 3.0 + 0j, 6)
    walked = list(counted)
    assert got == oracle_walk(1.0, spec, 3.0 + 0j, 6) == (7, 7, False)
    assert [type(p) for p in walked] == [complex] * 3 + [LogPolarComplex] * 3
    assert walked[3].log_modulus.level == 1


def test_untrusted_native_point_goes_log_polar(counted):
    # z is native with |z| > ARG_TRUST_LIMIT and sin arg != 0, so f(z),
    # native too (it underflows to 0), has an untrusted argument: the
    # strip cannot decide it and the two policies split
    z = complex(-1e17, 1.0)
    assert abs(z) > ARG_TRUST_LIMIT
    spec = symmetric_strip(20.0)
    got = walk(1.0, spec, z, 4)
    walked = list(counted)
    assert got == oracle_walk(1.0, spec, z, 4) == (1, 5, True)
    assert [type(p) for p in walked] == [complex] + [LogPolarComplex] * 3
    assert walked[1].modulus_float() == 0.0
    assert not walked[1].arg_trusted


def test_degenerate_log_moduli(counted):
    spec = symmetric_strip(1.0)
    # log modulus in (709.78, 710): level 0 but past exp's range
    z = complex(1.795e308, 0.0)
    assert 709.78 < math.log(abs(z)) < 710.0
    assert walk(1.0, spec, z, 3) == oracle_walk(1.0, spec, z, 3)
    assert isinstance(counted[-1], LogPolarComplex)
    # Re z below NEG_SENTINEL: the next point underflows to the sentinel
    z = complex(-1e308, 0.0)
    assert walk(1.0, spec, z, 3) == oracle_walk(1.0, spec, z, 3)


_finite = st.floats(-50.0, 50.0, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(_finite, _finite, st.sampled_from(LAMBDAS), st.sampled_from(sorted(SPECS)),
       st.integers(1, 30))
def test_walk_matches_on_random_orbits(re, im, lam, name, n):
    spec = SPECS[name]
    z = complex(re, im)
    assert walk(lam, spec, z, n) == oracle_walk(lam, spec, z, n)


_strips = st.tuples(st.floats(-10.0, 10.0), st.floats(0.0, 10.0)).map(
    lambda t: horizontal_strip(t[0], t[0] + t[1]))


@settings(max_examples=500, deadline=None)
@given(st.floats(-745.0, 709.78), st.floats(-math.pi, math.pi),
       _strips)
def test_complex_and_log_polar_points_classify_alike(x, a, spec):
    if a == -math.pi:
        a = math.pi
    m = math.exp(x)
    z = complex(m * math.cos(a), m * math.sin(a))
    p = LogPolarComplex(TowerReal(0, x), a, True)
    assert spec.classify(z) == spec.classify(p)


# ---------------------------------------------------------------------------
# row walks: one call walks every pixel of a row, which shares Im z

ROW_LAMBDAS = [1.0, complex(1.0, -0.0), -1.0, complex(-1.0, -0.0), 0.25, 1 + 0.3j]
# Re z for exits at step 0 or 1, native survivors, orbits that leave the
# double range (3 at lambda = 1, 709.79, 1.795e308), Re z past LIFT with a
# native next point at |lambda| < 1 (710.5), points past ARG_TRUST_LIMIT
# (+-1e17), a next log modulus below NEG_SENTINEL, signed zeros and the
# least subnormal
ROW_XS = [0.0, -0.0, 0.5, -0.3, -3.0, 3.0, 40.0, 709.79, 710.5, 1e17, -1e17,
          1.795e308, -1e308, 5e-324]
# the real axis both ways round, the edges of the strips in SPECS, rows
# inside and outside them, and tiny |Im z|, whose argument underflows to 0
# for Re z near 1.8e308
ROW_YS = [0.0, -0.0, math.pi, -math.pi, 0.5, -1.0, 2.0, -2.0, 1e-15, 1.5, 3.0,
          1e-20, -1e-300, 5e-324]
_row_y = st.floats(allow_nan=False, allow_infinity=False)


def walk_row(lam, spec, xs, y, n):
    """The row walk's results, and the points it classified, in order."""
    with pytest.MonkeyPatch.context() as mp:
        seen = []
        orig = ThinSetSpec.classify

        def classify(self, p):
            seen.append(p)
            return orig(self, p)

        mp.setattr(ThinSetSpec, "classify", classify)
        got = _membership_walk(lam, spec, xs, y, n, _lambda_logs(lam))
    return got, seen


def check_row(lam, spec, xs, y, n):
    """A row walk equals the oracle point by point and classifies each
    examined point once: point 0 of every pixel first, in row order, then
    the later points of each orbit.  Returns the results and the
    classified points."""
    got, seen = walk_row(lam, spec, xs, y, n)
    assert len(got) == len(xs)
    for x, result in zip(xs, got):
        assert result == oracle_walk(lam, spec, complex(x, y), n), (lam, x, y, n)
    assert [repr(p) for p in seen[:len(xs)]] == [repr(complex(x, y)) for x in xs]
    assert len(seen) == sum(examined(result, n) for result in got)
    return got, seen


@pytest.mark.parametrize("lam", ROW_LAMBDAS)
def test_row_walks_match_the_oracle(lam):
    exits, handed_over = set(), False
    for name in sorted(SPECS):
        for y in ROW_YS:
            for n in (1, 2, 8, 25):
                got, seen = check_row(lam, SPECS[name], ROW_XS, y, n)
                exits |= {"member" if result[1] > n else result[1] for result in got}
                handed_over |= any(isinstance(p, LogPolarComplex) for p in seen)
    # the rows hold exits at steps 0 and 1, survivors and tower hand-overs
    assert {0, 1, "member"} <= exits
    assert handed_over


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(ROW_XS), _finite), min_size=1, max_size=8),
       st.one_of(st.sampled_from(ROW_YS), _row_y), st.sampled_from(ROW_LAMBDAS),
       st.sampled_from(sorted(SPECS)), st.integers(1, 20))
def test_random_row_walks_match_the_oracle(xs, y, lam, name, n):
    check_row(lam, SPECS[name], xs, y, n)


@pytest.mark.parametrize("lam, spec, y", [
    (1.0, horizontal_strip(1.0, 2.0), math.pi / 2),
    (1.0, horizontal_strip(-2.0, -1.0), -math.pi / 2),
    (1j, horizontal_strip(-1.0, 1.0), 0.0),
    (-1j, horizontal_strip(-1.0, 1.0), 0.0),
])
def test_step1_points_on_the_strip_edges_stay_inside(lam, spec, y):
    # y + Arg lambda = +-pi/2, so Im f(z) = +-e^x exactly, and the pixel at
    # x = 0 lands on an edge of the strip: inside, while the pixel at x = 2
    # leaves
    got, _ = check_row(lam, spec, [-2.0, -1.0, 0.0, 0.5, 1.0, 2.0], y, 4)
    assert got[2][1] > 1
    assert got[5][1] == 1


def test_pixels_past_lift_take_step_1_as_towers():
    # at |lambda| < 1, Re z = 710.5 >= LIFT has a native next point, but the
    # walk lifts it to a tower; the pixels before it step natively
    got, seen = check_row(0.25, horizontal_strip(0.0, math.pi), [700.0, 709.0, 710.5],
                          1.0, 4)
    assert got == [(1, 1, False)] * 3
    assert [type(p) for p in seen[3:]] == [complex, complex, LogPolarComplex]


def test_rows_on_either_side_of_the_trust_bounds():
    # |y| <= ARG_TRUST_LIMIT / 2 settles step 1's trust for the whole row;
    # just past it each pixel's |z| is tested, and past ARG_TRUST_LIMIT
    # step 1 is undecided
    spec, xs = symmetric_strip(1e17), [40.0, 50.0, 60.0]
    for y, want in ((math.nextafter(ARG_TRUST_LIMIT / 2, 0.0), (1, 1, False)),
                    (math.nextafter(ARG_TRUST_LIMIT / 2, math.inf), (1, 1, False)),
                    (1e17, (1, 9, True))):
        got, _ = check_row(1.0, spec, xs, y, 8)
        assert got == [want] * 3


def test_a_row_computes_its_first_argument_once(monkeypatch):
    calls, inline = [], []

    def principal(theta):
        calls.append(theta)
        return _principal(theta)

    def remainder(x, y):
        inline.append(x)
        return math.remainder(x, y)

    monkeypatch.setattr("expdyn.invariant_sets._principal", principal)
    monkeypatch.setattr("expdyn.invariant_sets.remainder", remainder)
    # Im f(z) = e^x sin 0.9 leaves the strip for x > 0.24: the last three
    # pixels exit at step 1 and reduce no argument, and the first two
    # survive it.  They reduce their step-2 arguments inline, after the
    # row's own, and only where the walk goes on to point 2
    xs = [-1.0, 0.0, 0.5, 1.0, 2.0]
    for n, want in ((2, [(3, 3, False)] * 2), (3, [(4, 4, False), (2, 2, False)])):
        calls.clear()
        inline.clear()
        got = _membership_walk(1.0, symmetric_strip(1.0), xs, 0.9, n, _lambda_logs(1.0))
        assert got == want + [(1, 1, False)] * 3
        assert calls == [0.9]
        assert inline == ([] if n == 2 else [math.exp(x) * math.sin(0.9) for x in (-1.0, 0.0)])


# ---------------------------------------------------------------------------
# strip rows against the per-pixel oracle

# 1j and the strip [-2, -1] hold y = -Arg lambda = -pi/2, where step 1's
# argument is exactly 0 and every native step-1 point is on the real axis
STRIP_LAMBDAS = ROW_LAMBDAS + [1j, 2.0, -0.3 + 0.2j, cmath.rect(0.25, 2.5), 1e-300, -1e300j]
STRIP_SPECS = [horizontal_strip(0.0, math.pi), horizontal_strip(-1.0, 0.5),
               horizontal_strip(0.0, 0.0), horizontal_strip(-2.0, -1.0), symmetric_strip(2.0),
               symmetric_strip(1e17)]
# steps along a row: repeated pixels, steps of up to 20, and steps that
# carry a row across +-ARG_TRUST_LIMIT / 2 and +-ARG_TRUST_LIMIT
_gaps = st.one_of(st.sampled_from([0.0, 1e16]), st.floats(0.0, 20.0))


@st.composite
def strip_rows(draw):
    lam = draw(st.sampled_from(STRIP_LAMBDAS))
    spec = draw(st.one_of(st.sampled_from(STRIP_SPECS), _strips))
    log_lam, arg_lam = _lambda_logs(lam)
    edge = draw(st.sampled_from([spec.a, spec.b]))
    y = draw(st.one_of(
        # on an edge and just outside it
        st.sampled_from([edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)]),
        # y + Arg lambda a multiple of pi: s1 is 0 or within rounding of it
        st.integers(-2, 2).map(lambda k: k * math.pi - arg_lam),
        # at the bound that settles step 1's trust for a whole row
        st.sampled_from([ARG_TRUST_LIMIT / 2, math.nextafter(ARG_TRUST_LIMIT / 2, math.inf),
                         -ARG_TRUST_LIMIT / 2]),
        st.floats(spec.a - 1.0, spec.b + 1.0),
    ))
    # rows that start before and cross exp's underflow, _EXP_SAFE -
    # log|lambda|, LIFT, +-ARG_TRUST_LIMIT / 2 and +-ARG_TRUST_LIMIT
    x0 = draw(st.one_of(
        st.sampled_from([-745.0 - log_lam, _EXP_SAFE - log_lam, LIFT]).flatmap(
            lambda c: st.floats(c - 40.0, c + 1.0)),
        st.sampled_from([-ARG_TRUST_LIMIT - 3e16, -ARG_TRUST_LIMIT / 2 - 3e16,
                         ARG_TRUST_LIMIT / 2 - 3e16, ARG_TRUST_LIMIT - 3e16, -1e308]),
        st.floats(-60.0, 60.0),
    ))
    gaps = draw(st.lists(_gaps, max_size=12))
    xs = list(takewhile(math.isfinite, accumulate(gaps, initial=x0)))
    n = draw(st.one_of(st.just(1), st.just(2), st.integers(1, 12)))
    return lam, spec, xs, y, n


@settings(max_examples=200, deadline=None)
@given(strip_rows())
def test_strip_rows_match_the_oracle(row):
    check_row(*row)
