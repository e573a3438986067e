"""The float membership walk against a plain log-polar loop.

The oracle below classifies z itself as point 0, takes step 1 from z's own
coordinates (no log/exp round trip) and then builds every point with
``step_log_polar``, classifying each as a log-polar point.  The walk must
give the same (conservative exit, optimistic exit, caveat), the same exit
points, and classify each examined point exactly once.
"""

import cmath
import math

import pytest
from hypothesis import given, settings, strategies as st

from expdyn import (
    LogPolarComplex,
    ThinSetSpec,
    TowerReal,
    cone_band,
    horizontal_strip,
    step_log_polar,
    symmetric_strip,
)
from expdyn.dynamics import ARG_TRUST_LIMIT, _lambda_logs, _principal
from expdyn.invariant_sets import EXIT, UNDECIDED, _membership_walk


def first_step(lam, z):
    """f(z) in log-polar form, from Re z and Im z themselves."""
    log_lam = math.log(abs(lam))
    arg_lam = math.atan2(lam.imag, lam.real)
    trusted = abs(z) <= ARG_TRUST_LIMIT or math.sin(math.atan2(z.imag, z.real)) == 0.0
    return LogPolarComplex(TowerReal(0, z.real).add_float(log_lam),
                           _principal(z.imag + arg_lam), trusted)


def oracle_walk(lam, spec, z, n):
    p = complex(z)
    cons = cons_point = None
    caveat = False
    for i in range(n):
        verdict = spec.classify(p)
        if verdict == EXIT:
            if cons is None:
                return i, i, caveat, p, p
            return cons, i, caveat, cons_point, p
        if verdict == UNDECIDED:
            caveat = True
            if cons is None:
                cons, cons_point = i, p
        if i + 1 < n:
            p = first_step(lam, z) if i == 0 else step_log_polar(lam, p)
    return cons, None, caveat, cons_point, None


def walk(lam, spec, z, n):
    return _membership_walk(lam, spec, [z.real], z.imag, n, _lambda_logs(lam))[0]


def _as_complex(p):
    if isinstance(p, LogPolarComplex):
        return None if p.modulus_float() == math.inf else p.to_complex()
    return p


def settled(result):
    """A walk result with its exit points as complex numbers (or None)."""
    return result[:3] + tuple(_as_complex(p) for p in result[3:])


SQRT_BAND = cone_band(
    lambda z: abs(z.imag) <= math.sqrt(abs(z.real) + 1.0),
    5.0, lambda r: 2.0 * math.sqrt(r + 1.0), "sqrt band")
# a band with a closed edge, as a cone band: undecided past the double range
EDGE_BAND = cone_band(lambda z: abs(z.imag) <= 2.0, 4.0, lambda r: 4.0,
                      "edge band")

SPECS = {
    "strip": horizontal_strip(0.0, math.pi),
    "strip-neg": horizontal_strip(-1.0, 0.5),
    "strip-point": horizontal_strip(0.0, 0.0),
    "symstrip": symmetric_strip(2.0),
    "sqrt-band": SQRT_BAND,
    "edge-band": EDGE_BAND,
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
            assert settled(got) == settled(want), (name, lam, z, n)
            examined = n if got[1] is None else got[1] + 1
            assert len(counted) == examined, (name, lam, z, n)
            assert repr(counted[0]) == repr(z)  # z itself, signed zeros included


def test_orbit_leaves_the_double_range_mid_walk(counted):
    # 3 -> e^3 -> e^(e^3) (native) -> e^(e^(e^3)) (tower) ... all real
    spec = symmetric_strip(1.0)
    got = walk(1.0, spec, 3.0 + 0j, 6)
    walked = list(counted)
    assert got[:3] == oracle_walk(1.0, spec, 3.0 + 0j, 6)[:3] == (None, None, False)
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
    assert settled(got) == settled(oracle_walk(1.0, spec, z, 4))
    assert got[:3] == (1, None, True)
    assert [type(p) for p in walked] == [complex] + [LogPolarComplex] * 3
    assert walked[1].modulus_float() == 0.0
    assert not walked[1].arg_trusted


def test_degenerate_log_moduli(counted):
    spec = symmetric_strip(1.0)
    # log modulus in (709.78, 710): level 0 but past exp's range
    z = complex(1.795e308, 0.0)
    assert 709.78 < math.log(abs(z)) < 710.0
    assert settled(walk(1.0, spec, z, 3)) == settled(oracle_walk(1.0, spec, z, 3))
    assert isinstance(counted[-1], LogPolarComplex)
    # Re z below NEG_SENTINEL: the next point underflows to the sentinel
    z = complex(-1e308, 0.0)
    assert settled(walk(1.0, spec, z, 3)) == settled(oracle_walk(1.0, spec, z, 3))


_finite = st.floats(-50.0, 50.0, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(_finite, _finite, st.sampled_from(LAMBDAS), st.sampled_from(sorted(SPECS)),
       st.integers(1, 30))
def test_walk_matches_on_random_orbits(re, im, lam, name, n):
    spec = SPECS[name]
    z = complex(re, im)
    assert settled(walk(lam, spec, z, n)) == settled(oracle_walk(lam, spec, z, n))


_strips = st.tuples(st.floats(-10.0, 10.0), st.floats(0.0, 10.0)).map(
    lambda t: horizontal_strip(t[0], t[0] + t[1]))


@settings(max_examples=500, deadline=None)
@given(st.floats(-745.0, 709.78), st.floats(-math.pi, math.pi),
       st.one_of(_strips, st.just(SQRT_BAND)))
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
# double range (3 at lambda = 1, 709.79, 1.795e308), points past
# ARG_TRUST_LIMIT (+-1e17) and a next log modulus below NEG_SENTINEL
ROW_XS = [0.0, -0.0, 0.5, -0.3, -3.0, 3.0, 40.0, 709.79, 1e17, -1e17,
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
    """A row walk equals the oracle point by point, and classifies each
    examined point once, each orbit starting at its pixel."""
    got, seen = walk_row(lam, spec, xs, y, n)
    assert len(got) == len(xs)
    start = 0
    for x, result in zip(xs, got):
        z = complex(x, y)
        assert settled(result) == settled(oracle_walk(lam, spec, z, n)), (lam, z, n)
        assert repr(seen[start]) == repr(z)
        start += n if result[1] is None else result[1] + 1
    assert start == len(seen)
    return got, seen


@pytest.mark.parametrize("lam", ROW_LAMBDAS)
def test_row_walks_match_the_oracle(lam):
    exits, handed_over = set(), False
    for name in sorted(SPECS):
        for y in ROW_YS:
            for n in (1, 2, 8, 25):
                got, seen = check_row(lam, SPECS[name], ROW_XS, y, n)
                exits |= {result[1] for result in got}
                handed_over |= any(isinstance(p, LogPolarComplex) for p in seen)
    # the rows hold exits at steps 0 and 1, survivors and tower hand-overs
    assert {0, 1, None} <= exits
    assert handed_over


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(ROW_XS), _finite), min_size=1, max_size=8),
       st.one_of(st.sampled_from(ROW_YS), _row_y), st.sampled_from(ROW_LAMBDAS),
       st.sampled_from(sorted(SPECS)), st.integers(1, 20))
def test_random_row_walks_match_the_oracle(xs, y, lam, name, n):
    check_row(lam, SPECS[name], xs, y, n)


def test_a_row_computes_its_first_argument_once(monkeypatch):
    calls = []

    def principal(theta):
        calls.append(theta)
        return _principal(theta)

    monkeypatch.setattr("expdyn.invariant_sets._principal", principal)
    # every pixel passes step 0 and exits at step 1, so only the row's own
    # first argument is reduced
    got = _membership_walk(1.0, symmetric_strip(1.0), [0.5, 1.0, 2.0], 0.9, 8,
                           _lambda_logs(1.0))
    assert [result[1] for result in got] == [1, 1, 1]
    assert calls == [0.9]
