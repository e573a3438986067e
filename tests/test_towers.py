"""Tower-real arithmetic: canonical form, order, exp/log, float ops."""

import math

import pytest
from hypothesis import given, strategies as st

from expdyn import DomainError, NumericRangeError, TowerReal, ValidationError
from expdyn.towers import LIFT, NEG_SENTINEL, _LOG_LIFT


# ---------------------------------------------------------------------------
# canonical form

def test_native_values_stay_at_level_zero():
    t = TowerReal.from_float(3.0)
    assert (t.level, t.mantissa) == (0, 3.0)
    assert TowerReal.from_float(709.9999).level == 0
    assert TowerReal.from_float(-5.25).mantissa == -5.25


def test_lift_threshold_is_710():
    t = TowerReal.from_float(710.0)
    assert t.level == 1
    assert t.mantissa == math.log(710.0)
    big = TowerReal.from_float(1e308)
    assert big.level == 1
    assert big.mantissa == math.log(1e308)


def test_small_mantissa_drops_a_level():
    # level 1 with mantissa below ln(710) is value e^2 < 710: not canonical
    t = TowerReal(1, 2.0)
    assert (t.level, t.mantissa) == (0, math.exp(2.0))


def test_oversized_mantissa_lifts_levels():
    t = TowerReal(2, 800.0)
    assert (t.level, t.mantissa) == (3, math.log(800.0))
    assert _LOG_LIFT <= t.mantissa < LIFT


def test_negative_overflow_clamps_to_sentinel():
    assert TowerReal(0, -8.95e307).mantissa == NEG_SENTINEL


def test_non_finite_mantissa_rejected():
    with pytest.raises(ValidationError):
        TowerReal(0, math.nan)
    with pytest.raises(ValidationError):
        TowerReal(0, math.inf)
    with pytest.raises(ValidationError):
        TowerReal(-1, 3.0)


# ---------------------------------------------------------------------------
# conversions

def test_to_float_on_native_range():
    assert TowerReal.from_float(42.5).to_float() == 42.5
    assert TowerReal(1, 6.7).to_float() == math.exp(6.7)


def test_to_float_overflow_is_inf():
    assert TowerReal(1, 709.9).to_float() == math.inf
    assert TowerReal(2, 7.0).to_float() == math.inf
    assert TowerReal.from_float(1.0).to_float() == 1.0


# ---------------------------------------------------------------------------
# exp / log

def test_exp_lifts_exactly_one_level():
    t = TowerReal.from_float(100.0)
    e = t.exp()
    assert (e.level, e.mantissa) == (1, 100.0)
    # below the lift the result is evaluated natively
    small = TowerReal.from_float(2.0).exp()
    assert (small.level, small.mantissa) == (0, math.exp(2.0))


def test_log_inverts_exp():
    for t in (TowerReal.from_float(3.7), TowerReal(1, 50.0), TowerReal(3, 9.0)):
        assert t.exp().log() == t
    assert TowerReal.from_float(math.e).log().mantissa == pytest.approx(1.0)


def test_log_of_nonpositive_raises():
    with pytest.raises(DomainError):
        TowerReal.from_float(0.0).log()
    with pytest.raises(DomainError):
        TowerReal.from_float(-2.0).log()


# ---------------------------------------------------------------------------
# add_float

def test_add_float_native():
    assert TowerReal.from_float(5.0).add_float(2.5).mantissa == 7.5


def test_add_float_level_one_matches_native_oracle():
    # e^7 + 5 evaluated both ways
    t = TowerReal(1, 7.0).add_float(5.0)
    assert t.to_float() == pytest.approx(math.exp(7.0) + 5.0, rel=1e-15)


def test_add_float_level_one_negative_fallback():
    # e^6.6 - 800 < 0 is representable natively only
    t = TowerReal(1, 6.6).add_float(-800.0)
    assert t.level == 0
    assert t.mantissa == pytest.approx(math.exp(6.6) - 800.0)


def test_add_float_beyond_positive_range_raises():
    # mantissa past the native-overflow cutoff but with e^m still at most
    # the largest float, so a maximal negative offset drives the value to 0
    with pytest.raises(NumericRangeError):
        TowerReal(1, 709.781).add_float(-1.7976931348623157e308)


def test_add_float_is_noop_at_level_two():
    t = TowerReal(2, 8.0)
    assert t.add_float(1e300) == t


def test_add_float_validation():
    with pytest.raises(ValidationError):
        TowerReal.from_float(1.0).add_float(math.inf)


# ---------------------------------------------------------------------------
# order

def test_order_is_lexicographic_across_levels():
    assert TowerReal.from_float(709.0) < TowerReal.from_float(710.0)
    assert TowerReal(1, 700.0) < TowerReal(2, 7.0)
    assert TowerReal(1, 50.0) <= TowerReal(1, 50.0)
    assert TowerReal(2, 7.0) > TowerReal(1, 709.0)


finite = st.floats(min_value=-1e300, max_value=1e300,
                   allow_nan=False, allow_infinity=False)


@given(finite, finite)
def test_order_matches_float_order(a, b):
    ta, tb = TowerReal.from_float(a), TowerReal.from_float(b)
    assert (ta < tb) == (a < b)
    assert (ta <= tb) == (a <= b)


@given(finite, finite)
def test_exp_is_monotone(a, b):
    # non-strict: native rounding can merge neighbours (and e^x underflows
    # to 0 below about -745), but order is never reversed
    ta, tb = TowerReal.from_float(a), TowerReal.from_float(b)
    if a < b:
        assert ta.exp() <= tb.exp()
    elif a == b:
        assert ta.exp() == tb.exp()


@given(st.integers(min_value=0, max_value=5),
       st.floats(min_value=7.0, max_value=709.0,
                 allow_nan=False, allow_infinity=False))
def test_log_exp_round_trip(level, mantissa):
    t = TowerReal(level, mantissa)
    assert t.exp().log() == t
    back = t.log().exp()
    if t.level >= 1:
        # pure level arithmetic, exact
        assert back == t
    else:
        # one native log/exp round trip, exact to rounding
        assert back.level == 0
        assert back.mantissa == pytest.approx(t.mantissa, rel=1e-12)


@given(st.floats(min_value=-700.0, max_value=700.0,
                 allow_nan=False, allow_infinity=False),
       st.floats(min_value=-700.0, max_value=700.0,
                 allow_nan=False, allow_infinity=False))
def test_add_float_agrees_with_native(a, d):
    got = TowerReal.from_float(a).add_float(d)
    assert got.to_float() == pytest.approx(a + d, rel=1e-12, abs=1e-12)
