"""TowerReal at levels 2 and above, the tower branch of step_log_polar,
the log-space column bound and the exit depths of fields, against mpmath.

mpmath's exponent range is unbounded, so it holds e^(e^x) for every double
x and evaluates the towers without the float arithmetic they are built
from.  A result is compared at its own level: its mantissa against log^level
of the exact value, to a few ulps.
"""

import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

mpmath = pytest.importorskip("mpmath")

from expdyn import (  # noqa: E402
    LogPolarComplex,
    TowerReal,
    horizontal_strip,
    sample_lambda_set,
    step_log_polar,
    symmetric_strip,
)
from expdyn.dynamics import ARG_TRUST_LIMIT, _principal  # noqa: E402
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


def _exact_exit(lam, spec, z, n, prec):
    """(exit, peak) of the orbit of z in mpmath at prec bits: exit is the
    first i < n whose point leaves a <= Im <= b, n + 1 when none does, or
    None when the float walk is not bound to agree; peak is the largest
    log2 |(f^i)'(z)| on the way.

    (f^i)' is the product of the points after z, since f' = f.  A point's
    float error bound err grows as err_i = |z_i| err_{i-1} + 2^-50 (1 +
    |z_i|), from 2^-50 (1 + |z|), which is at least 2^(log2 |(f^i)'| - 50)
    (1 + |z|).  A point past ARG_TRUST_LIMIT (the walk has no trusted
    argument there), within err of a strip edge, or with err past 2^-20
    (where the first-order bound stops holding) gives None.
    """
    with mpmath.workprec(prec):
        lam_mp, w = mpmath.mpc(lam), mpmath.mpc(z)
        a, b = mpmath.mpf(spec.a), mpmath.mpf(spec.b)
        err = 2.0 ** -50 * (1.0 + abs(z))
        log2_deriv = peak = 0.0
        for i in range(n):
            if i:
                w = lam_mp * mpmath.exp(w)
                r = float(abs(w))
                if r > ARG_TRUST_LIMIT:
                    return None, peak
                log2_deriv += math.log2(r)
                peak = max(peak, log2_deriv)
                err = r * err + 2.0 ** -50 * (1.0 + r)
            if err > 2.0 ** -20 or min(abs(w.imag - a), abs(w.imag - b)) <= err:
                return None, peak
            if not a <= w.imag <= b:
                return i, peak
        return n + 1, peak


def _oracle_exit(lam, spec, z, n):
    """The exact exit of z, at a precision that grows with log2 |(f^i)'|:
    a first orbit finds the derivative's peak, and a second one carries
    80 bits past it."""
    prec = 80 + math.ceil(math.log2(1.0 + abs(z)))
    peak = _exact_exit(lam, spec, z, n, prec)[1]
    return _exact_exit(lam, spec, z, n, prec + math.ceil(peak))[0]


# (lambda, strip, window, res, depth): lambda = 1, whose orbits leave the
# strip at steps 1 to 5, and two attracting lambdas whose orbits mostly
# stay; the windows keep off the strip edges
FIELD_CASES = [
    (1.0, STRIP, (-3.0, 0.1, 1.5, 3.0), (12, 8), 4),
    (1.0, STRIP, (-3.0, 0.1, 1.5, 3.0), (12, 8), 8),
    (0.25, horizontal_strip(-2.0, 2.0), (-3.0, -1.9, 3.0, 1.9), (12, 8), 20),
    (0.3 + 0.15j, symmetric_strip(1.0), (-3.0, -0.9, 3.0, 0.9), (12, 8), 21),
]


def test_field_exits_match_an_mpmath_orbit_of_each_pixel():
    disagree, skipped, kinds = [], 0, Counter()
    for lam, spec, window, (nx, ny), n in FIELD_CASES:
        field = sample_lambda_set(lam, spec, window, (nx, ny), n)
        for iy in range(ny):
            for ix in range(nx):
                got = field.data("conservative")[iy * nx + ix]
                want = _oracle_exit(lam, spec, field.point(ix, iy), n)
                if want is None:
                    skipped += 1
                elif got != want:
                    disagree.append((lam, n, ix, iy, got, want))
                else:
                    kinds["trapped" if want == n + 1 else min(want, 2)] += 1
    assert disagree == []
    assert skipped <= 20
    # most pixels exit at step 2 or later, or stay to full depth
    assert kinds[2] >= 80 and kinds["trapped"] >= 200, (kinds, skipped)
