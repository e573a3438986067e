"""TowerReal at levels 2 and above, the tower branch of step_log_polar and
the log-space column bound, against mpmath.

mpmath's exponent range is unbounded, so it holds e^(e^x) for every double
x and evaluates the towers without the float arithmetic they are built
from.  A result is compared at its own level: its mantissa against log^level
of the exact value, to a few ulps.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

mpmath = pytest.importorskip("mpmath")

from expdyn import (  # noqa: E402
    LogPolarComplex,
    TowerReal,
    horizontal_strip,
    step_log_polar,
)
from expdyn.dynamics import _principal  # noqa: E402
from expdyn.induced import (  # noqa: E402
    _EXP_NATIVE,
    _column_terms,
    _positive_column_sum,
)
from expdyn.towers import _LOG_LIFT, LIFT, NEG_SENTINEL  # noqa: E402

PREC = 240  # bits
MAX_FLOAT = 1.7976931348623157e308
# canonical mantissas of levels >= 1, the bottom of the range weighted up
# (there a float offset still moves a level-2 value)
MANTISSAS = st.one_of(
    st.floats(min_value=_LOG_LIFT, max_value=LIFT, exclude_max=True),
    st.floats(min_value=_LOG_LIFT, max_value=6.65),
)
OFFSETS = st.floats(min_value=-MAX_FLOAT, max_value=MAX_FLOAT).filter(lambda d: d != 0.0)


def _shift(x, k):
    """log^k of x for k >= 0, exp^-k of x for k < 0."""
    for _ in range(k):
        x = mpmath.log(x)
    for _ in range(-k):
        x = mpmath.exp(x)
    return x


def _log_k(t, k):
    """log^k of the value of tower t, exactly as mpmath sees it."""
    return _shift(mpmath.mpf(t.mantissa), k - t.level)


def _assert_matches(r, log_value, k):
    """r's value has log^k equal to log_value (an mpf), to 4 ulps."""
    want = float(_shift(log_value, r.level - k))
    assert abs(r.mantissa - want) <= 4 * math.ulp(want), (r, want)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=3), MANTISSAS)
def test_exp_and_log_match_mpmath(level, mantissa):
    t = TowerReal(level, mantissa)
    with mpmath.workprec(PREC):
        up, down = t.exp(), t.log()
        assert up.level == level + 1 and down.level == level - 1
        # log^k(e^v) = log^(k-1)(v) and log^k(log v) = log^(k+1)(v)
        _assert_matches(up, _log_k(t, up.level - 1), up.level)
        _assert_matches(down, _log_k(t, down.level + 1), down.level)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=LIFT, max_value=MAX_FLOAT))
def test_exp_of_a_lifted_float_matches_mpmath(x):
    with mpmath.workprec(PREC):
        r = TowerReal.from_float(x).exp()
        assert r.level == 2
        _assert_matches(r, mpmath.log(mpmath.mpf(x)), 2)


def _log_plus(w, d):
    """log(e^w + d) for w >= LIFT and a float d."""
    if w > 2000:  # |d| e^-w < e^-1290, far below PREC bits of w
        return w
    return w + mpmath.log1p(d * mpmath.exp(-w))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=3), MANTISSAS, OFFSETS)
def test_add_float_matches_mpmath(level, mantissa, d):
    t = TowerReal(level, mantissa)
    with mpmath.workprec(PREC):
        _assert_matches(t.add_float(d), _log_plus(_log_k(t, 1), d), 1)


@pytest.mark.parametrize("mantissa", [_LOG_LIFT, 6.57, 6.6, 6.61, 7.0, 709.0])
@pytest.mark.parametrize("d", [-MAX_FLOAT, -1.7e308, -1e300, -1e295, 1e295, 1e300, MAX_FLOAT])
def test_add_float_at_the_bottom_of_level_two(mantissa, d):
    # e^(e^6.5653) = e^710 is only about 1.24 times the largest float
    t = TowerReal(2, mantissa)
    with mpmath.workprec(PREC):
        _assert_matches(t.add_float(d), _log_plus(_log_k(t, 1), d), 1)


@pytest.mark.parametrize("log_modulus", [TowerReal(0, 709.9), TowerReal(1, 8.0),
                                         TowerReal(2, 6.6)])
@pytest.mark.parametrize("arg", [0.0, 0.1, -1.2, 2.0])
@pytest.mark.parametrize("lam", [1.0, 0.3 - 2.0j, -5.0 + 0j])
def test_tower_step_matches_mpmath(log_modulus, arg, lam):
    p = LogPolarComplex(log_modulus, arg, True)
    assert p.modulus_float() == math.inf  # |z| is past the double range
    q = step_log_polar(lam, p)
    with mpmath.workprec(PREC):
        # log|f(z)| = Re z + log|lambda|, Re z = |z| cos(arg)
        log_abs_z = _log_k(log_modulus, 0)
        cos = mpmath.cos(mpmath.mpf(arg))
        log_lam = mpmath.log(abs(mpmath.mpc(lam)))
        if cos > 0:
            _assert_matches(q.log_modulus, _log_plus(log_abs_z + mpmath.log(cos), log_lam), 1)
        else:
            # Re z is below -e^709: the log modulus clamps to the sentinel
            assert q.log_modulus == TowerReal(0, NEG_SENTINEL)
        if arg == 0.0:
            # Im z is exactly 0, so arg f(z) = Arg lambda
            want = float(mpmath.arg(mpmath.mpc(lam)))
            assert q.argument == _principal(want) and q.arg_trusted
        else:
            assert not q.arg_trusted


STRIP = horizontal_strip(0.0, math.pi)


def _native_column_sum(spec, log_e, n_sup, delta, m):
    """_positive_column_sum's native formula, evaluated exactly for E = e^log_e."""
    e = mpmath.exp(mpmath.mpf(log_e))
    d = mpmath.mpf(delta)
    count = max(0, e - max(m, e / spec.cone_constant - 2) + 1)
    s0 = max(mpmath.ceil(max(e, m)), 1)
    tail = s0 ** -(1 + d) + max(0, (s0 ** -d - (mpmath.e * e + 1) ** -d) / d)
    return 2.0 * n_sup * (count * e ** -(1 + d) + tail)


@pytest.mark.parametrize("spec", [STRIP], ids=["strip"])  # K = pi + 2
@pytest.mark.parametrize("delta", [0.01, 0.1, 0.5, 0.9])
def test_log_space_column_bound_covers_the_native_formula(spec, delta):
    # past (1 + delta) log E = 690 the bound has E factored out and a pad
    # for rounding, so it lies at or above the exact native value
    checked = 0
    for r in list(range(340, 820, 7)) + [2000, 10 ** 4]:
        log_e, n_sup = _column_terms(1.0, spec, float(r))
        if (1.0 + delta) * log_e <= _EXP_NATIVE:
            continue
        got = _positive_column_sum(1.0, spec, float(r), delta, 10.0)
        with mpmath.workprec(PREC):
            want = _native_column_sum(spec, log_e, n_sup, delta, 10)
            if want < 2.3e-308:  # below the normal range the float rounds coarser
                continue
            rel = float(got / want - 1)
        assert 0.0 <= rel <= 1e-10, (r, got, want)
        checked += 1
    assert checked >= 10
