"""Thin-set specs, orbit membership under both policies, fields, thinness."""

import cmath
import math

import pytest
from hypothesis import given, settings, strategies as st

from expdyn import (
    LogPolarComplex,
    ThinSetSpec,
    TowerReal,
    ValidationError,
    classify_trajectory,
    cone_band,
    horizontal_strip,
    lambda_membership,
    measure_expansion,
    sample_lambda_set,
    symmetric_strip,
    thin_check,
)
from expdyn.invariant_sets import (
    EXIT,
    MEMBER,
    UNDECIDED,
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
    # f(z) = 0.2 e^z is finite but e^z overflows: the exit is still
    # reported, without a native point
    r = lambda_membership(0.2, symmetric_strip(20.0), complex(709.9, 1e-300), 3,
                          policy="conservative")
    assert r.status == "exit-at 1"
    assert r.exit_point is None


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
    assert field.value_at(1, 1) == 1
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
                assert field.value_at(ix, iy, policy) == want


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


# ---------------------------------------------------------------------------
# trajectory classes

def test_trajectory_classification_fixtures():
    t = classify_trajectory(1.0, 0.0, 3)
    assert (t.status, t.evidence) == ("bounded-within-R", 3)
    t = classify_trajectory(1.0, 0.0, 4)
    assert (t.status, t.evidence) == ("undecided", 4)
    t = classify_trajectory(1.0, 1.0, 6)
    assert (t.status, t.evidence) == ("escaping", 5)
    t = classify_trajectory(0.2, 0.0, 40)
    assert (t.status, t.evidence) == ("bounded-within-R", 40)


def test_attracting_fixed_point_stays_bounded():
    x = 0.0
    for _ in range(200):
        x = 0.2 * math.exp(x)
    assert x == 0.25917110181907377
    t = classify_trajectory(0.2, x, 40)
    assert t.status == "bounded-within-R"


# ---------------------------------------------------------------------------
# expansion estimates

def test_expansion_at_repelling_fixed_point():
    # fixed point of e^z in the first strip: |f'| = |z*| at every step
    z = 0.3 + 1.3j
    for _ in range(60):
        z = z - (cmath.exp(z) - z) / (cmath.exp(z) - 1)
    est = measure_expansion(1.0, 4.0, [z], 6)
    assert est.status == "ok"
    assert est.gamma_hat == 1.3745570107437075
    assert est.c_hat == 0.9999999999999998
    assert (est.surviving, est.dropped) == (1, 0)
    assert est.gamma_hat == pytest.approx(abs(z), rel=1e-12)


def test_expansion_on_attracting_orbit_contracts():
    samples = [0.0, 0.1, 0.2 + 0.1j, 0.3, 0.5j, 1.0]
    est = measure_expansion(0.2, 10.0, samples, 20)
    assert est.status == "ok"
    assert est.gamma_hat == 0.25862575426955003
    assert est.c_hat == 0.6963016342505238
    assert (est.surviving, est.dropped) == (6, 0)
    assert est.gamma_hat < 1.0  # contraction, not expansion


def test_expansion_with_no_survivors():
    est = measure_expansion(1.0, 0.5, [5.0], 4)
    assert est.status == "no surviving samples"
    assert est.gamma_hat is None
    assert (est.surviving, est.dropped) == (0, 1)


# ---------------------------------------------------------------------------
# thinness checks

def test_strip_passes_thin_check():
    rep = thin_check(STRIP, [1.0, 2.0, 4.0, 8.0, 16.0], samples_per_slice=4096)
    assert rep.cone_ok and rep.width_ok
    assert rep.empty_slices == ()
    assert rep.cone_violation is None
    # constant width means exponent ~ 0
    assert rep.thinness_exponent == -0.002780271947995247
    assert abs(rep.thinness_exponent) < 0.05
    assert len(rep.measured_widths) == 5


def test_sqrt_band_has_half_exponent():
    band = ThinSetSpec(
        membership=lambda z: 0.0 <= z.imag <= math.sqrt(abs(z.real) + 1.0),
        cone_constant=STRIP.cone_constant,
        width_profile=lambda r: math.sqrt(r + 1.0),
        descriptor="sqrt band",
    )
    rep = thin_check(band, [float(2 ** k) for k in range(7)],
                     samples_per_slice=2048)
    assert rep.cone_ok and rep.width_ok
    assert rep.thinness_exponent == 0.4186729557593942
    assert abs(rep.thinness_exponent - 0.5) < 0.09


def test_vertical_bar_fails_the_cone_condition():
    vert = ThinSetSpec(
        membership=lambda z: abs(z.real) <= 0.5,
        cone_constant=STRIP.cone_constant,
        width_profile=lambda r: 60.0,
        descriptor="vertical bar",
    )
    rep = thin_check(vert, [2.0, 4.0], samples_per_slice=64)
    assert not rep.cone_ok
    assert rep.cone_violation == complex(0.0, -25.707963267948966)
    assert rep.empty_slices == (2.0, 4.0)
    assert rep.thinness_exponent is None


def test_thin_check_validation():
    with pytest.raises(ValidationError):
        thin_check(STRIP, [])
    with pytest.raises(ValidationError):
        thin_check(STRIP, [0.5])
    with pytest.raises(ValidationError):
        thin_check(STRIP, [2.0, 1.0])
