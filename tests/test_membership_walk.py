"""The float membership walk against a plain log-polar loop.

The oracle below classifies z itself as point 0, takes step 1 from z's own
coordinates (no log/exp round trip) and then builds every point with
``step_log_polar``, classifying each as a log-polar point.  The walk must
give the same conservative and optimistic exits, with n + 1 for "member to
depth n", and classify each examined point exactly once; the oracle's
precision caveat is exactly a split of the two exits.
"""

import cmath
import math
from itertools import accumulate, takewhile
from operator import ne

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
from expdyn.invariant_sets import (
    EXIT,
    MEMBER,
    UNDECIDED,
    _membership_walk,
    _native_span,
    _native_walk,
    _step1_moduli,
    lambda_membership,
    sample_lambda_set,
)
from expdyn.towers import _EXP_SAFE, LIFT, NEG_SENTINEL


def step1_trusted(z):
    """Is the argument of f(z) trusted?"""
    # |Re z| and |Im z| first: abs(z) overflows past DBL_MAX
    near = max(abs(z.real), abs(z.imag)) <= ARG_TRUST_LIMIT and abs(z) <= ARG_TRUST_LIMIT
    return near or math.sin(math.atan2(z.imag, z.real)) == 0.0


def first_step(lam, z):
    """f(z) in log-polar form, from Re z and Im z themselves."""
    log_lam = math.log(abs(lam))
    arg_lam = math.atan2(lam.imag, lam.real)
    return LogPolarComplex(TowerReal(0, z.real).add_float(log_lam),
                           _principal(z.imag + arg_lam), step1_trusted(z))


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


def triples(walked):
    """A row walk's two exit lists as the oracle's (conservative exit,
    optimistic exit, caveat) per pixel: a caveat is a split of the two."""
    cons, opt = walked
    return list(zip(cons, opt, map(ne, cons, opt)))


def row_walk(lam, spec, xs, y, n):
    """_membership_walk over one row, with the step-1 table a field builds."""
    lam_logs = _lambda_logs(lam)
    return _membership_walk(lam, spec, xs, _step1_moduli(xs, lam_logs[0]), y, n, lam_logs)


def walk(lam, spec, z, n):
    return triples(row_walk(lam, spec, [z.real], z.imag, n))[0]


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


class Seen(list):
    """The points passed to ThinSetSpec.classify, in call order; a point
    passed as its two floats is recorded as complex(re, im).  ``forms``
    holds the argument types of each call."""

    def __init__(self):
        super().__init__()
        self.forms = []

    def clear(self):
        super().clear()
        self.forms.clear()


def spy_classify(mp):
    """Patch ThinSetSpec.classify on mp to record its calls in a Seen."""
    seen = Seen()
    orig = ThinSetSpec.classify

    def classify(self, p, im=None):
        args = (p,) if im is None else (p, im)
        seen.append(p if im is None else complex(p, im))
        seen.forms.append(tuple(map(type, args)))
        return orig(self, *args)

    mp.setattr(ThinSetSpec, "classify", classify)
    return seen


@pytest.fixture
def counted(monkeypatch):
    """Record the point passed to every ThinSetSpec.classify call."""
    return spy_classify(monkeypatch)


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
    walked, forms = list(counted), list(counted.forms)
    assert got == oracle_walk(1.0, spec, 3.0 + 0j, 6) == (7, 7, False)
    assert [type(p) for p in walked] == [complex] * 3 + [LogPolarComplex] * 3
    # the native points come as two floats, with no complex built for them
    assert forms == [(float, float)] * 3 + [(LogPolarComplex,)] * 3
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
        seen = spy_classify(mp)
        got = triples(row_walk(lam, spec, xs, y, n))
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


def caveat_splits(lam, spec, xs, y, n):
    """Check on every pixel of a row that the oracle's caveat is exactly
    cons != opt, of the oracle's exits and of the walk's two lists; returns
    the caveats."""
    cons, opt = row_walk(lam, spec, xs, y, n)
    assert len(cons) == len(opt) == len(xs)
    caveats = []
    for x, c, o in zip(xs, cons, opt):
        want_c, want_o, caveat = oracle_walk(lam, spec, complex(x, y), n)
        assert caveat == (want_c != want_o) == (c != o), (lam, x, y, n)
        caveats.append(caveat)
    return caveats


def test_caveats_occur_where_the_two_exits_split():
    # the fixed rows hold pixels with and without a caveat
    seen = set()
    for lam in ROW_LAMBDAS:
        for name in sorted(SPECS):
            for y in ROW_YS:
                seen.update(caveat_splits(lam, SPECS[name], ROW_XS, y, 8))
    assert seen == {False, True}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(ROW_XS), _finite), min_size=1, max_size=8),
       st.one_of(st.sampled_from(ROW_YS + [1e17, -1e17]), _row_y),
       st.sampled_from(ROW_LAMBDAS), st.sampled_from(sorted(SPECS)), st.integers(1, 20))
def test_a_caveat_is_exactly_a_split_of_the_two_exits(xs, y, lam, name, n):
    caveat_splits(lam, SPECS[name], xs, y, n)


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
    # Im f(z) = e^x sin 0.9 leaves the strip |Im z| <= 4 for x > 1.63: the
    # last two pixels exit at step 1 and reduce no argument, and the first
    # three survive it.  Their step-2 arguments, Im f(z) + Arg 1, are
    # computed only where the walk goes on to point 2, and of those only
    # the one past pi, at x = 1.5, is reduced, inline; the row's own
    # argument is its one _principal call
    xs = [-1.0, 0.0, 1.5, 2.0, 3.0]
    step2 = [math.exp(x) * math.sin(0.9) for x in xs[:3]]
    assert [-math.pi < a <= math.pi for a in step2] == [True, True, False]
    for n, want in ((2, [(3, 3, False)] * 3), (3, [(4, 4, False)] * 2 + [(2, 2, False)])):
        calls.clear()
        inline.clear()
        got = triples(row_walk(1.0, symmetric_strip(4.0), xs, 0.9, n))
        assert got == want + [(1, 1, False)] * 2
        assert calls == [0.9]
        assert inline == ([] if n == 2 else step2[2:])


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


# ---------------------------------------------------------------------------
# the native walk's fast path against the full test at every step


def full_test_walk(lam, spec, re, im, trusted, n):
    """The exits of the orbit of complex(re, im), whose step-1 argument
    trusted says is trusted, and the points it classifies, from a plain
    loop: every native step takes the full test (a trusted argument, Re z
    below LIFT and a log modulus in [NEG_SENTINEL, _EXP_SAFE]) and reduces
    its argument with _principal, and from the first point that fails it
    the orbit goes on through step_log_polar."""
    log_lam, arg_lam = _lambda_logs(lam)
    seen = [complex(re, im)]
    if spec.classify(re, im) == EXIT:
        return (0, 0), seen
    p, cons = None, n + 1
    for i in range(1, n):
        if p is None:
            x = re + log_lam
            a = _principal(im + arg_lam)
            if trusted and re < LIFT and NEG_SENTINEL <= x <= _EXP_SAFE:
                m = math.exp(x)
                s = math.sin(a)
                re, im = m * math.cos(a), m * s
                trusted = m <= ARG_TRUST_LIMIT or s == 0.0
                seen.append(complex(re, im))
                if spec.classify(re, im) == EXIT:
                    return (i, i), seen
                continue
            p = LogPolarComplex(TowerReal(0, re).add_float(log_lam), a, trusted)
        else:
            p = step_log_polar(lam, p)
        seen.append(p)
        verdict = spec.classify(p)
        if verdict != MEMBER and cons > n:
            cons = i
        if verdict == EXIT:
            return (cons, i), seen
    return (cons, n + 1), seen


def native_from(lam, spec, re, im, trusted, n):
    """The exits of the orbit of complex(re, im) as _native_walk walks it
    from point 1, and the points classified, point 0 first."""
    lam_logs = _lambda_logs(lam)
    with pytest.MonkeyPatch.context() as mp:
        seen = spy_classify(mp)
        classify = spec.classify
        if classify(re, im) == EXIT:
            got = (0, 0)
        elif n == 1:
            got = (2, 2)
        else:
            got = _native_walk(lam, classify, lam_logs, _native_span(lam_logs[0]),
                               re, im, trusted, 1, n)
    return got, seen


def ulps(x, k):
    """The float k steps from x."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


# log|lambda| = -690.8 and 690.8, where the fast path ends at LIFT - 1 and
# at Re z = -654.9; Arg lambda = pi, pi + a rounding step and 2.5
FAST_LAMBDAS = [1e-300, 1e300, 1.0, -1.0, complex(-1.0, -0.0), cmath.rect(0.25, 2.5),
                1e-300j]
FAST_SPECS = [horizontal_strip(-1.79e308, 1.79e308), symmetric_strip(1e17),
              symmetric_strip(4.0)]


@st.composite
def fast_path_starts(draw):
    lam = draw(st.sampled_from(FAST_LAMBDAS))
    log_lam, arg_lam = _lambda_logs(lam)
    lo, hi = _native_span(log_lam)
    re = draw(st.one_of(
        # within a few ulps of the fast path's bounds, of LIFT, and of the
        # Re z whose log modulus reaches log ARG_TRUST_LIMIT
        st.sampled_from([lo, hi, LIFT, math.log(ARG_TRUST_LIMIT) - log_lam]).flatmap(
            lambda e: st.integers(-4, 4).map(lambda k: ulps(e, k))),
        st.floats(-50.0, 50.0),
    ))
    im = draw(st.one_of(
        # Im z + Arg lambda at +-pi, and the floats beside it
        st.sampled_from([math.pi, -math.pi]).flatmap(
            lambda t: st.integers(-2, 2).map(lambda k: ulps(t - arg_lam, k))),
        st.floats(-4.0, 4.0),
        # rows past ARG_TRUST_LIMIT / 2, whose pixels take no step-1 table
        # entry, so that point 0 itself meets the fast path's bounds
        st.sampled_from([0.6 * ARG_TRUST_LIMIT, -0.6 * ARG_TRUST_LIMIT]),
    ))
    untrusted = draw(st.booleans())
    n = draw(st.integers(1, 12))
    return lam, draw(st.sampled_from(FAST_SPECS)), re, im, untrusted, n


@settings(max_examples=400, deadline=None)
@given(fast_path_starts())
def test_walks_near_the_fast_path_bounds_match_the_full_test(start):
    lam, spec, re, im, untrusted, n = start
    z = complex(re, im)
    trusted = not untrusted and step1_trusted(z)
    want, want_seen = full_test_walk(lam, spec, re, im, trusted, n)
    # _native_walk from point 1: the same exits and the same points, in
    # the same form and with the same bits
    got, seen = native_from(lam, spec, re, im, trusted, n)
    assert got == want
    assert list(map(repr, seen)) == list(map(repr, want_seen))
    if untrusted:
        return
    # the row walk of the one pixel z, against the oracle too
    got, seen = walk_row(lam, spec, [re], im, n)
    assert got[0] == (*want, want[0] != want[1])
    assert got[0] == oracle_walk(lam, spec, z, n)
    assert list(map(repr, seen)) == list(map(repr, want_seen))


def test_the_fast_path_bounds():
    # lambda = 1e-300 runs the fast path up to LIFT - 1, and lambda = 1e300
    # only to where the log modulus stays below log ARG_TRUST_LIMIT - 1
    for lam in (1e-300, 1e300, 1.0, 5e-324, 1.7e308):
        log_lam = _lambda_logs(lam)[0]
        lo, hi = _native_span(log_lam)
        assert NEG_SENTINEL < lo + log_lam
        assert hi < LIFT
        assert math.exp(hi + log_lam) <= ARG_TRUST_LIMIT / 2
    assert _native_span(_lambda_logs(1e-300)[0])[1] == LIFT - 1.0
    assert _native_span(_lambda_logs(1e300)[0])[1] < -650.0


# ---------------------------------------------------------------------------
# the field's step-1 table against per-pixel membership


def pixels_match_membership(lam, spec, window, res, n):
    """Every pixel of the field against lambda_membership (one pixel, a
    one-entry step-1 table) and the oracle; returns the field's Re z."""
    field = sample_lambda_set(lam, spec, window, res, n)
    for iy in range(field.ny):
        for ix in range(field.nx):
            z = field.point(ix, iy)
            k = iy * field.nx + ix
            want = oracle_walk(lam, spec, z, n)
            assert (field.conservative[k], field.optimistic[k]) == want[:2], (lam, z, n)
            for policy, ex in (("conservative", want[0]), ("optimistic", want[1])):
                got = lambda_membership(lam, spec, z, n, policy)
                assert got == (ex > n, None if ex > n else ex, want[2]), (lam, z, n, policy)
    return [field.point(ix, 0).real for ix in range(field.nx)]


@pytest.mark.parametrize("n", [1, 2, 5])
def test_field_rows_on_either_side_of_the_table_bounds(n):
    wide = horizontal_strip(-1.79e308, 1.79e308)
    half = ARG_TRUST_LIMIT / 2
    # rows at |Im z| = ARG_TRUST_LIMIT / 2 and one float past it, on both
    # sides of the real axis; the ones past it take no table entry
    for y0 in (half, -math.nextafter(half, math.inf)):
        pixels_match_membership(1.0, wide, (-3.0, y0, 3.0, math.nextafter(y0, math.inf)),
                                (4, 2), n)
    # Re z at the float below LIFT and at LIFT: a table entry and none
    below = math.nextafter(LIFT, 0.0)
    xs = pixels_match_membership(1e-300, wide, (below, -1.0, LIFT, 1.0), (2, 3), n)
    assert xs == [below, LIFT]
    assert [m is None for m in _step1_moduli(xs, _lambda_logs(1e-300)[0])] == [False, True]
    # Re z + log|lambda| on either side of _EXP_SAFE, below LIFT
    for lam in (1.0, 2.0, 1e300):
        log_lam = _lambda_logs(lam)[0]
        c = _EXP_SAFE - log_lam
        xs = pixels_match_membership(lam, wide, (c - 1e-12, -1.0, c + 1e-12, 1.0), (5, 3), n)
        assert {x + log_lam <= _EXP_SAFE for x in xs} == {False, True}
        assert {m is None for m in _step1_moduli(xs, log_lam)} == {False, True}
