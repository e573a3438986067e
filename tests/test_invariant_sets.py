"""Thin-set specs, orbit membership under both policies, and fields."""

import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from expdyn import (
    ConeBand,
    LogPolarComplex,
    NumericRangeError,
    Strip,
    ThinSetSpec,
    TowerReal,
    ValidationError,
    build_zm,
    certificate_to_json,
    cone_band,
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
    write_field_csv,
    write_field_pgm,
)

STRIP = horizontal_strip(0.0, math.pi)


# ---------------------------------------------------------------------------
# specs

def test_strip_spec_basics():
    assert STRIP.descriptor == "strip[0,3.14159]"
    assert STRIP.cone_constant == math.pi + 2.0
    assert STRIP.width_profile(7.0) == math.pi
    assert STRIP.membership(1.0 + 1.0j)
    assert not STRIP.membership(1.0 - 0.1j)
    sym = symmetric_strip(2.0)
    assert sym.membership(-5.0 - 2.0j)
    assert sym.cone_constant == 4.0


def test_spec_validation():
    with pytest.raises(ValidationError):
        horizontal_strip(1.0, 0.0)
    with pytest.raises(ValidationError):
        symmetric_strip(0.0)
    with pytest.raises(ValidationError):
        cone_band(lambda z: True, 0.0, lambda r: 1.0, "bad")


@pytest.mark.parametrize("k", [math.inf, math.nan, -math.inf])
def test_cone_band_rejects_a_cone_constant_that_is_not_finite(k):
    with pytest.raises(ValidationError, match="cone constant must be positive"):
        cone_band(STRIP.membership, k, lambda r: 1.0, "bad")


def test_a_cone_height_past_the_double_range_is_a_range_error():
    # K(|r| + 2) overflows at column 12: a range error, not an OverflowError
    for spec in (horizontal_strip(0.0, 1e308),
                 cone_band(STRIP.membership, 1e308, lambda r: 1.0, "tall")):
        with pytest.raises(NumericRangeError, match="scan height"):
            build_zm(spec, 1.0, 10, 12)
    # without the rectangles nothing scans the strips
    cert = verify_contraction(1.0, horizontal_strip(0.0, 1e308), 0.5, [10, 11],
                              m=10, enumerate_rectangles=False)
    assert not cert.passed


def test_specs_are_two_kinds_on_one_base():
    assert isinstance(STRIP, Strip) and isinstance(STRIP, ThinSetSpec)
    band = cone_band(STRIP.membership, 1.0, lambda r: 1.0, "band")
    assert isinstance(band, ConeBand) and isinstance(band, ThinSetSpec)
    assert horizontal_strip is Strip and cone_band is ConeBand
    assert symmetric_strip(2.0) == Strip(-2.0, 2.0)
    # classify is written once, on the base
    assert "classify" not in vars(Strip) and "classify" not in vars(ConeBand)


def test_strips_are_plain_data():
    s = Strip(-1.0, 2.5)
    assert s == Strip(-1.0, 2.5) and s != Strip(-1.0, 2.0)
    assert hash(s) == hash(Strip(-1.0, 2.5))
    assert repr(s) == "Strip(a=-1.0, b=2.5)"
    assert (s.a, s.b) == (-1.0, 2.5)
    assert s.descriptor == "strip[-1,2.5]"
    copy = pickle.loads(pickle.dumps(STRIP))
    assert copy == STRIP and copy is not STRIP
    assert (copy.cone_constant, copy.descriptor) == \
        (STRIP.cone_constant, STRIP.descriptor)

    def certificate(spec):
        return certificate_to_json(
            verify_contraction(1.0, spec, 0.5, range(10, 16), m=10))

    assert certificate(copy) == certificate(STRIP)


def test_strip_classification_beyond_native_range():
    huge = TowerReal(1, 50.0)
    assert STRIP.classify(LogPolarComplex(huge, 0.0, True)) == MEMBER
    assert STRIP.classify(LogPolarComplex(huge, 0.5, True)) == EXIT
    assert STRIP.classify(LogPolarComplex(huge, 1e-13, True)) == UNDECIDED
    assert STRIP.classify(LogPolarComplex(huge, 0.5, False)) == UNDECIDED
    assert STRIP.classify(LogPolarComplex.from_complex(1.0 + 1.0j)) == MEMBER


# ---------------------------------------------------------------------------
# membership

def test_i_pi_orbit_exits_at_six():
    # float pi is not exactly pi; the residue sin(pi) = 1.22e-16 grows
    # through the orbit and leaves the strip at the sixth iterate, while
    # the argument is still fully trusted
    for policy in ("conservative", "optimistic"):
        r = lambda_membership(1.0, STRIP, complex(0.0, math.pi), 50, policy=policy)
        assert r.status == "exit-at 6"
        assert r.exit_point == complex(1.4348893269328528e+30, 2.7498897110938428e+16)
        assert not r.precision_caveat
        assert not r.is_member


def test_exit_with_native_point():
    r = lambda_membership(1.0, STRIP, 0.5 + 3.0j, 10, policy="conservative")
    assert r.status == "exit-at 5"
    assert r.exit_point == complex(27.829056381633837, 5.132217469949684)
    assert not r.precision_caveat


def test_policies_split_when_trust_dies():
    # |f(z)| = e^40 exceeds the argument trust bound and sin != 0 there,
    # so from step 2 on membership is undecided; the conservative policy
    # exits, the optimistic one keeps the point
    z = 40.0 + 1e-20j
    cons = lambda_membership(1.0, STRIP, z, 8, policy="conservative")
    opt = lambda_membership(1.0, STRIP, z, 8, policy="optimistic")
    assert cons.status == "exit-at 2"
    assert cons.exit_point is None  # the native value overflowed before
    assert cons.precision_caveat
    assert opt.status == "member-to-depth 8"
    assert opt.is_member and opt.precision_caveat


def test_undecided_exit_keeps_its_native_point():
    # f(z) = -1e17 is past the argument trust bound, so step 2 is
    # undecided while f^2(z) = -e^(-1e17) is still native (it underflows
    # to -0): the conservative exit point is that value, not None
    spec = symmetric_strip(20.0)
    z = complex(math.log(1e17), 0.0)
    cons = lambda_membership(-1.0, spec, z, 8, policy="conservative")
    opt = lambda_membership(-1.0, spec, z, 8, policy="optimistic")
    assert cons.status == "exit-at 2"
    assert cons.exit_point == 0j
    assert math.copysign(1.0, cons.exit_point.real) == -1.0
    assert cons.precision_caveat
    assert opt.status == "member-to-depth 8"
    assert opt.exit_point is None
    assert opt.precision_caveat


def test_exit_point_past_the_exp_range_is_none():
    # f(z) = e^z has log modulus 709.9, past the double range: the exit is
    # still reported, without a native point
    r = lambda_membership(1.0, symmetric_strip(20.0), complex(709.9, 0.5), 3,
                          policy="conservative")
    assert r.status == "exit-at 1"
    assert r.exit_point is None
    # f(z) = 0.2 e^z is a double although e^z is not: the exit point is the
    # point the walk classified
    r = lambda_membership(0.2, symmetric_strip(20.0), complex(709.9, 1e-300), 3,
                          policy="conservative")
    assert r.status == "exit-at 1"
    assert r.exit_point == complex(4.042804112238944e+307, 40428041.12238944)


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
    assert field.survivor_points() == [0.0 + 0.0j, 2.0 + 0.0j, 0.0 + 2.0j]


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
    assert point.width_profile(10.0) > 0.0
    assert horizontal_strip(-1.0, 2.0).width_profile(10.0) == 3.0


def test_field_writers(tmp_path):
    field = sample_lambda_set(1.0, STRIP, (0.0, 0.0, 2.0, 2.0), (2, 2), 3)
    want_pgm = b"P5\n2 2\n65535\n\x00\x04\x00\x01\x00\x04\x00\x04"
    want_csv = ("ix,iy,re,im,exit_depth\n"
                "0,0,0,0,4\n1,0,2,0,4\n0,1,0,2,4\n1,1,2,2,1\n")
    assert field_to_pgm(field) == want_pgm
    assert field_to_csv(field) == want_csv
    pgm, csv = tmp_path / "f.pgm", tmp_path / "f.csv"
    write_field_pgm(field, str(pgm))
    write_field_csv(field, str(csv))
    assert pgm.read_bytes() == want_pgm
    assert csv.read_text() == want_csv

