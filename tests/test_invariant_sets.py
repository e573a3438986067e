"""Thin-set specs, orbit membership under both policies, and fields."""

import math
import pickle

import pytest
from hypothesis import example, given, settings, strategies as st

from expdyn import (
    LogPolarComplex,
    NumericRangeError,
    Strip,
    ThinSetSpec,
    TowerReal,
    ValidationError,
    build_zm,
    certificate_to_json,
    horizontal_strip,
    lambda_membership,
    sample_lambda_set,
    symmetric_strip,
    verify_contraction,
)
from expdyn.invariant_sets import (
    EXIT,
    MEMBER,
    UNDECIDED,
    _RANGE_LIMIT,
    field_to_csv,
    field_to_pgm,
    write_field_pgm,
)

STRIP = horizontal_strip(0.0, math.pi)


# ---------------------------------------------------------------------------
# specs

def test_strip_spec_basics():
    assert STRIP.cone_constant == math.pi + 2.0
    assert STRIP.width == math.pi
    assert STRIP.classify(1.0 + 1.0j) == MEMBER
    assert STRIP.classify(1.0 - 0.1j) == EXIT
    sym = symmetric_strip(2.0)
    assert sym.classify(-5.0 - 2.0j) == MEMBER
    assert sym.cone_constant == 4.0


def test_spec_validation():
    with pytest.raises(ValidationError):
        horizontal_strip(1.0, 0.0)
    with pytest.raises(ValidationError):
        symmetric_strip(0.0)


def test_a_cone_height_past_the_double_range_is_a_range_error():
    # an edge at 1e308 has no resolved strip index: a range error before
    # any strip is tested, not an OverflowError
    with pytest.raises(NumericRangeError, match="strip edges must lie within"):
        build_zm(horizontal_strip(0.0, 1e308), 1.0, 10, 12)
    # without the rectangles nothing enumerates the strips
    cert = verify_contraction(1.0, horizontal_strip(0.0, 1e308), 0.5, 11,
                              m=10, enumerate_rectangles=False)
    assert not cert.passed


def test_the_strip_is_the_one_spec_class():
    assert ThinSetSpec is Strip and horizontal_strip is Strip
    assert type(STRIP) is Strip
    assert symmetric_strip(2.0) == Strip(-2.0, 2.0)
    # classify is written once, on the class itself
    assert "classify" in vars(Strip)
    assert [c.__name__ for c in Strip.__mro__] == ["Strip", "_Frozen", "object"]


def test_strips_are_plain_data():
    s = Strip(-1.0, 2.5)
    assert s == Strip(-1.0, 2.5) and s != Strip(-1.0, 2.0)
    assert hash(s) == hash(Strip(-1.0, 2.5))
    assert repr(s) == "Strip(a=-1.0, b=2.5)"
    assert (s.a, s.b) == (-1.0, 2.5)
    copy = pickle.loads(pickle.dumps(STRIP))
    assert copy == STRIP and copy is not STRIP
    assert copy.cone_constant == STRIP.cone_constant

    def certificate(spec):
        return certificate_to_json(
            verify_contraction(1.0, spec, 0.5, 15, m=10))

    assert certificate(copy) == certificate(STRIP)


def test_strip_classification_beyond_native_range():
    huge = TowerReal(1, 50.0)
    assert STRIP.classify(LogPolarComplex(huge, 0.0, True)) == MEMBER
    assert STRIP.classify(LogPolarComplex(huge, 0.5, True)) == EXIT
    assert STRIP.classify(LogPolarComplex(huge, 1e-13, True)) == UNDECIDED
    assert STRIP.classify(LogPolarComplex(huge, 0.5, False)) == UNDECIDED
    assert STRIP.classify(LogPolarComplex.from_complex(1.0 + 1.0j)) == MEMBER


_EDGES = st.floats(min_value=-1e300, max_value=1e300)
_STRIPS = st.one_of(
    st.tuples(_EDGES, _EDGES).map(lambda ab: Strip(min(ab), max(ab))),
    _EDGES.map(lambda a: Strip(a, a)),  # zero height
    st.sampled_from([Strip(-2.0, -1.0), Strip(-3.5, -3.5), Strip(0.0, 0.0),
                     symmetric_strip(1e17)]),
)


@st.composite
def _strip_points(draw):
    """A strip and a point on an edge, one float either side of it, at
    +-0.0 or anywhere."""
    spec = draw(_STRIPS)
    edge = st.sampled_from([spec.a, spec.b])
    im = draw(st.one_of(
        edge,
        edge.map(lambda e: math.nextafter(e, -math.inf)),
        edge.map(lambda e: math.nextafter(e, math.inf)),
        st.sampled_from([0.0, -0.0]),
        _EDGES,
    ))
    re = draw(st.one_of(st.sampled_from([0.0, -0.0]), _EDGES))
    return spec, complex(re, im)


@settings(max_examples=400, deadline=None)
@given(_strip_points())
# signed zeros on a zero-height strip, and Im z at +-inf and NaN, which
# no strip holds
@example((Strip(0.0, 0.0), complex(1.0, -0.0)))
@example((Strip(-0.0, -0.0), complex(-0.0, 0.0)))
@example((STRIP, complex(0.0, math.inf)))
@example((symmetric_strip(1e17), complex(-1.0, -math.inf)))
@example((STRIP, complex(0.0, math.nan)))
@example((STRIP, complex(math.nan, 1.0)))
def test_strip_classify_is_its_membership(case):
    spec, z = case
    got = spec.classify(z)
    assert got == (MEMBER if spec.a <= z.imag <= spec.b else EXIT)
    # the walk's form: a native point as its two floats
    assert spec.classify(z.real, z.imag) == got
    # the log-polar verdict rounds |z| sin Arg z, off Im z by a few ulps of
    # |z| times log|z|, so it agrees wherever Im z is clear of both edges
    m = abs(z)
    margin = 1e-10 * m * (1.0 + abs(math.log(m))) + 1e-320 if m else 1e-320
    if min(abs(z.imag - spec.a), abs(z.imag - spec.b)) > margin:
        assert got == spec.classify(LogPolarComplex.from_complex(z))


# ---------------------------------------------------------------------------
# membership

def test_i_pi_orbit_exits_at_six():
    # float pi is not exactly pi; the residue sin(pi) = 1.22e-16 grows
    # through the orbit and leaves the strip at the sixth iterate, while
    # the argument is still fully trusted
    for policy in ("conservative", "optimistic"):
        r = lambda_membership(1.0, STRIP, complex(0.0, math.pi), 50, policy=policy)
        assert r.exit_index == 6
        assert not r.precision_caveat
        assert not r.is_member


def test_exit_with_native_point():
    r = lambda_membership(1.0, STRIP, 0.5 + 3.0j, 10, policy="conservative")
    assert (r.is_member, r.exit_index) == (False, 5)
    assert not r.precision_caveat


def test_policies_split_when_trust_dies():
    # |f(z)| = e^40 exceeds the argument trust bound and sin != 0 there,
    # so from step 2 on membership is undecided; the conservative policy
    # exits, the optimistic one keeps the point
    z = 40.0 + 1e-20j
    cons = lambda_membership(1.0, STRIP, z, 8, policy="conservative")
    opt = lambda_membership(1.0, STRIP, z, 8, policy="optimistic")
    assert (cons.is_member, cons.exit_index) == (False, 2)
    assert cons.precision_caveat
    assert (opt.is_member, opt.exit_index) == (True, None)
    assert opt.precision_caveat


def test_undecided_exit_keeps_its_native_point():
    # f(z) = -1e17 is past the argument trust bound, so step 2 is
    # undecided while f^2(z) = -e^(-1e17) is still native (it underflows
    # to -0): the conservative policy exits there, the optimistic one
    # keeps the point to the full depth
    spec = symmetric_strip(20.0)
    z = complex(math.log(1e17), 0.0)
    cons = lambda_membership(-1.0, spec, z, 8, policy="conservative")
    opt = lambda_membership(-1.0, spec, z, 8, policy="optimistic")
    assert (cons.is_member, cons.exit_index) == (False, 2)
    assert cons.precision_caveat
    assert (opt.is_member, opt.exit_index) == (True, None)
    assert opt.precision_caveat


def test_exit_point_past_the_exp_range_is_none():
    # f(z) = e^z has log modulus 709.9, past the double range: the exit is
    # still reported, decided in log-polar form
    r = lambda_membership(1.0, symmetric_strip(20.0), complex(709.9, 0.5), 3,
                          policy="conservative")
    assert (r.is_member, r.exit_index) == (False, 1)
    # f(z) = 0.2 e^z is a double although e^z is not
    r = lambda_membership(0.2, symmetric_strip(20.0), complex(709.9, 1e-300), 3,
                          policy="conservative")
    assert (r.is_member, r.exit_index) == (False, 1)


def test_pixels_on_a_strip_edge_are_members_at_step_0():
    # Im z = pi is the strip's closed top edge, so z itself is a member;
    # a log/exp round trip of z would land just above it for many of them
    for k in range(2000):
        z = complex(0.05 + 0.03 * k, math.pi)
        assert lambda_membership(1.0, STRIP, z, 1).is_member, z
        assert lambda_membership(1.0, STRIP, z, 3).exit_index != 0, z


def test_membership_validation():
    with pytest.raises(ValidationError):
        lambda_membership(1.0, STRIP, 1.0, 0)
    with pytest.raises(ValidationError):
        lambda_membership(1.0, STRIP, 1.0, 5, policy="bold")


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
       st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
       st.integers(min_value=2, max_value=12))
def test_membership_is_monotone_in_depth(re, im, n):
    z = complex(re, im)
    for policy in ("conservative", "optimistic"):
        deep = lambda_membership(1.0, STRIP, z, n, policy=policy)
        shallow = lambda_membership(1.0, STRIP, z, n - 1, policy=policy)
        if deep.is_member:
            assert shallow.is_member
        if not shallow.is_member:
            assert not deep.is_member
            assert deep.exit_index == shallow.exit_index


# ---------------------------------------------------------------------------
# exit-depth fields

def test_small_field_values_and_grid():
    field = sample_lambda_set(1.0, STRIP, (0.0, 0.0, 2.0, 2.0), (2, 2), 3)
    assert field.data("conservative") == (4, 4, 4, 1)
    assert field.data("optimistic") == (4, 4, 4, 1)
    assert field.caveat_count == 0
    assert field.point(0, 0) == 0.0 + 0.0j
    assert field.point(1, 1) == 2.0 + 2.0j
    assert field.survivor_count() == 3
    survivors = [field.point(i % 2, i // 2) for i, v in enumerate(field.data()) if v == 4]
    assert survivors == [0.0 + 0.0j, 2.0 + 0.0j, 0.0 + 2.0j]


def test_field_counts_each_caveat_once():
    # |f(z)| ~ e^Re z is past the argument trust bound; on the real axis
    # the orbit stays real, but above it Arg f(z) = Im z is nonzero, so
    # step 2 is undecided for the 9 pixels whose f(z) is still in the
    # strip (at 40 + 2e-17i, Im f(z) = 4.7 has left it): the policies split
    field = sample_lambda_set(1.0, STRIP, (38.0, 0.0, 40.0, 2e-17), (5, 3), 4)
    assert field.caveat_count == 9
    assert field.survivor_count("conservative") == 5
    assert field.survivor_count("optimistic") == 14
    assert field.caveat_count == sum(
        c != o for c, o in zip(field.conservative, field.optimistic))


def test_field_matches_pointwise_membership():
    field = sample_lambda_set(1.0, STRIP, (0.0, 0.0, 4.0, math.pi), (5, 4), 4)
    for policy in ("conservative", "optimistic"):
        for iy in range(4):
            for ix in range(5):
                r = lambda_membership(1.0, STRIP, field.point(ix, iy), 4,
                                      policy=policy)
                want = 5 if r.is_member else r.exit_index
                assert field.data(policy)[iy * 5 + ix] == want


def test_field_validation():
    with pytest.raises(ValidationError):
        sample_lambda_set(1.0, STRIP, (0.0, 0.0, 2.0, 2.0), (1, 4), 3)
    with pytest.raises(ValidationError):
        sample_lambda_set(1.0, STRIP, (2.0, 0.0, 0.0, 2.0), (4, 4), 3)
    with pytest.raises(ValidationError):
        sample_lambda_set(1.0, STRIP, (0.0, 0.0, 2.0, 2.0), (4, 4), 0)
    field = sample_lambda_set(1.0, STRIP, (0.0, 0.0, 2.0, 2.0), (2, 2), 3)
    with pytest.raises(ValidationError):
        field.data("bold")


@pytest.mark.parametrize("window", [
    (-1e308, 0.0, 1e308, 1.0),             # dx overflows
    (0.0, 0.0, math.inf, 1.0),
    (0.0, math.nan, 1.0, 1.0),
    (0.0, 0.0, 1.7976931348623157e308, 1.0),  # dx finite, last pixel not
])
def test_field_rejects_a_window_that_is_not_finite(window, monkeypatch):
    def walk(*args):
        raise AssertionError("a pixel was walked")

    monkeypatch.setattr("expdyn.invariant_sets._membership_walk", walk)
    with pytest.raises(ValidationError, match="^window must be finite$"):
        sample_lambda_set(1.0, STRIP, window, (4, 4), 3)


@pytest.mark.parametrize("res", [(10_001, 2), (2, 10_001), (10 ** 8, 10 ** 8)])
def test_field_refuses_a_side_past_the_range_limit(res, monkeypatch):
    def walk(*args):
        raise AssertionError("a pixel was walked")

    monkeypatch.setattr("expdyn.invariant_sets._membership_walk", walk)
    with pytest.raises(ValidationError, match="^resolution must be 2 to 10000 pixels"):
        sample_lambda_set(1.0, STRIP, (0.0, 0.0, 1.0, 1.0), res, 1)


def test_field_sides_reach_the_range_limit():
    field = sample_lambda_set(1.0, STRIP, (0.0, 0.0, 1.0, 1.0), (_RANGE_LIMIT, 2), 1)
    assert len(field.conservative) == 2 * _RANGE_LIMIT
    assert field.survivor_count() == 2 * _RANGE_LIMIT


def test_the_range_limit_is_defined_once():
    from expdyn import cli, dynamics, induced
    assert (dynamics._RANGE_LIMIT is induced._RANGE_LIMIT is cli._RANGE_LIMIT
            is _RANGE_LIMIT == 10_000)


def test_zero_height_strip_has_positive_width():
    point = horizontal_strip(0.0, 0.0)
    assert point.width > 0.0
    assert horizontal_strip(-1.0, 2.0).width == 3.0


def test_field_writers(tmp_path):
    field = sample_lambda_set(1.0, STRIP, (0.0, 0.0, 2.0, 2.0), (2, 2), 3)
    want_pgm = b"P5\n2 2\n65535\n\x00\x04\x00\x01\x00\x04\x00\x04"
    want_csv = ("ix,iy,re,im,exit_depth\n"
                "0,0,0,0,4\n1,0,2,0,4\n0,1,0,2,4\n1,1,2,2,1\n")
    assert field_to_pgm(field) == want_pgm
    assert field_to_csv(field) == want_csv
    pgm = tmp_path / "f.pgm"
    write_field_pgm(field, str(pgm))
    assert pgm.read_bytes() == want_pgm

