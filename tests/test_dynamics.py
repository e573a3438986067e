"""Orbits, log-polar stepping, derivatives, and the supergrowth check."""

import cmath
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from expdyn import (
    DomainError,
    LogPolarComplex,
    NumericRangeError,
    TowerReal,
    ValidationError,
    check_supergrowth,
    eval_map,
    inverse_branch,
    iterate_orbit,
    orbit_derivative_log,
    singular_orbit,
    step_log_polar,
    strip_index,
)
from expdyn import dynamics
from expdyn.dynamics import ARG_TRUST_LIMIT, TAU, _principal
from expdyn.towers import _EXP_SAFE, LIFT, NEG_SENTINEL


# ---------------------------------------------------------------------------
# eval_map

def test_eval_map_is_lambda_exp():
    assert eval_map(1.0, 0.0) == 1.0
    assert eval_map(0.5, 1.0 + 2.0j) == 0.5 * cmath.exp(1.0 + 2.0j)


def test_eval_map_rejects_zero_lambda():
    with pytest.raises(ValidationError, match="lambda must be nonzero"):
        eval_map(0.0, 1.0)


def test_eval_map_rejects_non_finite_point():
    with pytest.raises(ValidationError):
        eval_map(1.0, complex(math.nan, 0.0))


def test_eval_map_overflow_raises_numeric_range():
    with pytest.raises(NumericRangeError):
        eval_map(1.0, 1000.0)
    # 0.2 e^z is still native here, but e^z alone overflows
    with pytest.raises(NumericRangeError):
        eval_map(0.2, 709.9)


# ---------------------------------------------------------------------------
# log-polar stepping

def test_step_matches_native_map_while_representable():
    lam = 0.8 + 0.1j
    z = 1.3 - 0.7j
    p = step_log_polar(lam, LogPolarComplex.from_complex(z))
    w = eval_map(lam, z)
    assert p.log_modulus.to_float() == pytest.approx(math.log(abs(w)), rel=1e-14)
    assert p.argument == pytest.approx(cmath.phase(w), abs=1e-14)
    assert p.arg_trusted


def _tower_step(lam, p, log_lam=None):
    """Reference for a point of native modulus: the tower formula."""
    lam = complex(lam)
    if log_lam is None:
        log_lam = math.log(abs(lam))
    m = p.modulus_float()
    s = math.sin(p.argument)
    assert m != math.inf
    return LogPolarComplex(
        p.real_part_tower().add_float(log_lam),
        _principal(m * s + math.atan2(lam.imag, lam.real)),
        p.arg_trusted and (m <= ARG_TRUST_LIMIT or s == 0.0),
    )


def _bits(p):
    lm = p.log_modulus
    return lm.level, lm.mantissa.hex(), p.argument.hex(), p.arg_trusted


def _near(x, k=4):
    """x and its k nearest floats on either side."""
    out = [x]
    lo = hi = x
    for _ in range(k):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


# log|lambda| = 0.0 (|lambda| = 1, signed-zero imaginary parts included),
# small, large positive and large negative
_EDGE_LAMBDAS = (1.0, -1.0, complex(-1.0, -0.0), 1j, -1j, 0.25 + 0.1j,
                 -0.3, 2.0 - 1.0j, math.exp(20.0), -math.exp(-10.0), 1e-300j)


def _re_exactly_lift():
    """Points whose Re z is exactly LIFT, found by search (libm dependent)."""
    pts = []
    for lm in _near(math.log(LIFT), 8):
        m = math.exp(lm)
        if m >= LIFT:
            pts += [LogPolarComplex(TowerReal(0, lm), a, True)
                    for a in _near(math.acos(LIFT / m), 64) if m * math.cos(a) == LIFT]
    return pts


def _edge_points():
    pts = [LogPolarComplex.from_complex(0.0)]
    # modulus underflowed to 0: Re z is -0.0 in the left half-plane
    pts += [LogPolarComplex(TowerReal(0, lm), a, True)
            for lm in (NEG_SENTINEL, -800.0) for a in (math.pi, 3.0, -2.0)]
    # Re z just below, at and above LIFT
    pts += _re_exactly_lift()
    for lm in _near(math.log(LIFT)):
        pts += [LogPolarComplex(TowerReal(0, lm), a, True) for a in (0.0, -0.0, 1e-9)]
    # Re z near LIFT - log|lambda| for the large lambdas (sum crossing LIFT)
    for re in (LIFT - 20.0, LIFT + 10.0, 705.0, 715.0):
        pts += [LogPolarComplex(TowerReal(0, lm), 0.0, True)
                for lm in _near(math.log(re), 2)]
    # Re z below NEG_SENTINEL, and the largest native modulus
    for lm in (709.7, _EXP_SAFE, math.log(-NEG_SENTINEL)):
        pts += [LogPolarComplex(TowerReal(0, x), a, t)
                for x in _near(lm, 2) for a in (math.pi, 3.0, -math.pi / 2) for t in (True, False)]
    # modulus at ARG_TRUST_LIMIT, with sin(arg) zero and nonzero
    for lm in _near(math.log(ARG_TRUST_LIMIT)):
        pts += [LogPolarComplex(TowerReal(0, lm), a, True) for a in (0.0, -0.0, 0.5, math.pi)]
    return [p for p in pts if p.modulus_float() != math.inf]


def test_native_step_matches_the_tower_formula_on_edges():
    pts = _edge_points()
    res = [p.modulus_float() * math.cos(p.argument) for p in pts]
    # Re z and Re z + log|lambda| (log|lambda| = 20 and -10 below)
    # straddle both ends of the level-0 range, and |z| the trust limit
    assert min(res) < NEG_SENTINEL
    assert any(r == 0.0 and math.copysign(1.0, r) < 0 for r in res)
    assert any(LIFT - 1e-9 < r < LIFT for r in res) and LIFT in res
    assert any(LIFT <= r < LIFT + 1e-9 for r in res)
    assert any(r < LIFT <= r + 20.0 for r in res)
    assert any(r - 10.0 < LIFT <= r for r in res)
    ms = [p.modulus_float() for p in pts]
    assert any(ARG_TRUST_LIMIT * (1.0 - 1e-14) < m <= ARG_TRUST_LIMIT for m in ms)
    assert any(ARG_TRUST_LIMIT < m < ARG_TRUST_LIMIT * (1.0 + 1e-14) for m in ms)
    for lam in _EDGE_LAMBDAS:
        for p in pts:
            assert _bits(step_log_polar(lam, p)) == _bits(_tower_step(lam, p)), (lam, p)


@pytest.mark.parametrize("log_lam", [0.0, -0.0, 0.75, 709.0])
def test_native_step_adds_log_lambda_like_add_float(monkeypatch, log_lam):
    # log|lambda| of -0.0 or exactly 709 comes from no lambda; substitute it
    monkeypatch.setattr(dynamics, "_lambda_logs", lambda lam: (log_lam, 0.0))
    # Re z = 1 + 709 lands exactly on LIFT
    extra = [LogPolarComplex(TowerReal(0, 0.0), 0.0, True)]
    for p in _edge_points() + extra:
        assert _bits(step_log_polar(1.0, p)) == _bits(_tower_step(1.0, p, log_lam))


@settings(max_examples=300)
@given(st.floats(min_value=NEG_SENTINEL, max_value=_EXP_SAFE),
       st.floats(min_value=-math.pi, max_value=math.pi),
       st.booleans(),
       st.complex_numbers(min_magnitude=1e-300, max_magnitude=1e300,
                          allow_nan=False, allow_infinity=False))
def test_native_step_matches_the_tower_formula(lm, arg, trusted, lam):
    p = LogPolarComplex(TowerReal(0, lm), arg, trusted)
    assert _bits(step_log_polar(lam, p)) == _bits(_tower_step(lam, p))


def _imag_part_float(p):
    """Im z as a float, or None: the helper the step once called."""
    s = math.sin(p.argument)
    m = p.modulus_float()
    if m != math.inf:
        return m * s
    if s == 0.0:
        return 0.0
    v = p.log_modulus.add_float(math.log(abs(s))).exp().to_float()
    if v == math.inf:
        return None
    return math.copysign(v, s)


def _two_pass_step(lam, p):
    """step_log_polar as it was before the Im z helper was folded in."""
    log_lam, arg_lam = dynamics._lambda_logs(lam)
    m = p.modulus_float()
    s = math.sin(p.argument)
    if m == math.inf and s == 0.0:
        new_arg = _principal(arg_lam)
    else:
        im = _imag_part_float(p)
        new_arg = 0.0 if im is None else _principal(im + arg_lam)
    trusted = p.arg_trusted and (m <= ARG_TRUST_LIMIT or s == 0.0)
    return LogPolarComplex(p.real_part_tower().add_float(log_lam), new_arg, trusted)


def _outcome(step, lam, p):
    try:
        return repr(step(lam, p))
    except Exception as exc:  # both steps must fail alike, too
        return f"{type(exc).__name__}: {exc}"


_FOLD_LAMBDAS = (1.0, -1.0, complex(-1.0, -0.0), 1e-300, 1e300, 2.5j, 0.3 + 0.2j)
_FOLD_ARGS = (0.0, -0.0, math.pi, -math.pi, math.pi / 2, -math.pi / 2, 5e-324, 1e-300)


@settings(max_examples=500)
@given(st.sampled_from(_FOLD_LAMBDAS),
       st.one_of(
           # native moduli, and level 0 past exp's range
           st.builds(TowerReal, st.just(0),
                     st.floats(min_value=NEG_SENTINEL, max_value=LIFT)),
           # towers: level 1 and the levels >= 2 above it
           st.builds(TowerReal, st.integers(1, 4), st.floats(min_value=0.0, max_value=LIFT))),
       st.one_of(st.sampled_from(_FOLD_ARGS),
                 st.floats(min_value=-math.pi, max_value=math.pi)),
       st.booleans())
@example(1.0, TowerReal(1, 10.0), 0.0, True)  # m = inf, sin arg = 0
@example(-1.0, TowerReal(1, 10.0), -0.0, False)
@example(2.5j, TowerReal(1, 10.0), 0.5, True)  # Im z a tower that is no float
@example(1e-300, TowerReal(0, 700.0), 1e-300, True)  # Im z a float past exp
@example(1e300, TowerReal(2, 5.0), -math.pi / 2, False)
@example(complex(-1.0, -0.0), TowerReal(0, 1.0), -0.0, True)
def test_step_gives_the_bits_of_the_two_pass_step(lam, log_modulus, arg, trusted):
    p = LogPolarComplex(log_modulus, arg, trusted)
    assert _outcome(step_log_polar, lam, p) == _outcome(_two_pass_step, lam, p)


def test_signed_zero_lambdas_keep_their_own_argument():
    p = LogPolarComplex.from_complex(0.5 + 0.25j)
    for lam in (complex(-1.0, 0.0), complex(-1.0, -0.0), complex(-1.0, 0.0)):
        assert _bits(step_log_polar(lam, p)) == _bits(_tower_step(lam, p))
        assert eval_map(lam, 0.5j) == complex(lam) * cmath.exp(0.5j)


def test_native_step_points_behave_like_normally_built_ones():
    stepped = [step_log_polar(0.5 + 0.25j, p) for p in _edge_points()]
    built = [LogPolarComplex(q.log_modulus, q.argument, q.arg_trusted) for q in stepped]
    for q, b in zip(stepped, built):
        assert type(q) is LogPolarComplex
        assert q == b and b == q and hash(q) == hash(b)
        assert repr(q) == repr(b)
        assert q != b._replace(arg_trusted=not b.arg_trusted)
    assert set(stepped) == set(built)
    q = stepped[0]
    for field, value in (("log_modulus", TowerReal(0, 1.0)), ("argument", 1.0),
                         ("arg_trusted", False)):
        with pytest.raises(AttributeError):
            setattr(q, field, value)
    with pytest.raises(AttributeError):
        del q.argument


@pytest.mark.parametrize("lam", [0.0, 0j, complex(math.nan, 1.0), math.inf,
                                 complex(1.0, -math.inf)])
def test_invalid_lambda_raises_on_every_call(lam):
    p = LogPolarComplex.from_complex(1.0)
    for _ in range(2):
        with pytest.raises(ValidationError, match="lambda must be"):
            step_log_polar(lam, p)
        with pytest.raises(ValidationError, match="lambda must be"):
            eval_map(lam, 1.0)


@pytest.mark.parametrize("m", [5e-324, 1e-300, 1.0, 1.7e308])
def test_from_complex_is_the_level_zero_log(m):
    for z in (m, complex(0.0, -m)):
        t = LogPolarComplex.from_complex(z).log_modulus
        ref = TowerReal.from_float(math.log(m))
        assert (t.level, t.mantissa.hex()) == (ref.level, ref.mantissa.hex())
        assert t == ref and hash(t) == hash(ref)


def test_from_complex_of_zero_uses_sentinel():
    p = LogPolarComplex.from_complex(0.0)
    assert p.log_modulus.mantissa == NEG_SENTINEL
    assert p.argument == 0.0


def test_log_polar_part_helpers():
    p = LogPolarComplex.from_complex(3.0 + 4.0j)
    assert p.modulus_float() == pytest.approx(5.0)
    assert p.real_part_tower().to_float() == pytest.approx(3.0)
    huge = LogPolarComplex(TowerReal(1, 10.0), 0.5, True)
    assert huge.modulus_float() == math.inf
    # Re = e^(e^10) cos(0.5), still a tower
    assert huge.real_part_tower() == huge.log_modulus.add_float(
        math.log(math.cos(0.5))).exp()


def test_real_part_of_huge_left_half_point_clamps():
    p = LogPolarComplex(TowerReal(1, 69.43864051197014), -1.6415443777270937, True)
    assert p.real_part_tower().mantissa == NEG_SENTINEL


# ---------------------------------------------------------------------------
# orbit iteration: the orbit of i*pi in double precision

def test_orbit_of_i_pi_trusted_escape():
    orb = iterate_orbit(1.0, complex(0.0, math.pi), 8)
    assert orb.escaped_at == 7
    # sin(float pi) = 1.22e-16 pushes the orbit off the real line and it
    # escapes through the huge sixth iterate; every step stays trusted
    natives = [p.native for p in orb.points[:7]]
    assert natives[1] == pytest.approx(-1.0 + 1.2246467991473532e-16j)
    assert natives[6] == complex(1.4348893269328528e+30, 2.7498897110938428e+16)
    assert [p.escaped for p in orb.points] == [False] * 7 + [True, False]
    assert [p.precision_flag for p in orb.points] == [False] * 6 + [True] * 3
    p7 = orb.points[7].point
    assert (p7.log_modulus.level, p7.log_modulus.mantissa) == (1, 69.43864051197014)
    assert p7.argument == -1.6415443777270937
    assert orb.points[7].native is None


def test_every_orbit_point_is_a_normalised_tower(monkeypatch):
    calls = []
    post_init = TowerReal.__post_init__

    def counted(self):
        calls.append(self.level)
        post_init(self)

    monkeypatch.setattr(TowerReal, "__post_init__", counted)
    orb = iterate_orbit(0.25, 0.1, 10)
    # each of the 11 points' log modulus goes through the constructor
    assert len(orb.points) == 11
    assert len(calls) >= 11


def test_orbit_natives_match_direct_iteration():
    lam, z = 0.6 + 0.2j, 0.1 + 0.3j
    orb = iterate_orbit(lam, z, 6)
    w = z
    for p in orb.points:
        assert p.native == w
        w = eval_map(lam, w)


def test_orbit_validation():
    assert len(iterate_orbit(1.0, 0.0, 0).points) == 1
    with pytest.raises(ValidationError):
        iterate_orbit(1.0, 0.0, -1)
    with pytest.raises(ValidationError):
        iterate_orbit(0.0, 0.0, 3)
    for kwarg in ("escape_log_modulus", "derivative_flag_threshold"):
        with pytest.raises(TypeError, match=kwarg):
            iterate_orbit(1.0, 0.0, 3, **{kwarg: 1.0})


def test_orbit_lengths_past_the_range_limit_are_refused():
    assert len(iterate_orbit(0.25, 0.1, dynamics._RANGE_LIMIT).points) == 10_001
    with pytest.raises(ValidationError, match="orbit length must be at most 10000"):
        iterate_orbit(0.25, 0.1, dynamics._RANGE_LIMIT + 1)
    assert len(singular_orbit(0.25, dynamics._RANGE_LIMIT)) == 10_000
    for call in (lambda n: singular_orbit(0.25, n),
                 lambda n: check_supergrowth(0.25, 0.1, n)):
        with pytest.raises(ValidationError,
                           match="singular orbit length must be at most 10000"):
            call(dynamics._RANGE_LIMIT + 1)


def test_singular_orbit_starts_at_lambda():
    lam = 0.65
    orbit = singular_orbit(lam, 8)
    assert len(orbit) == 8
    assert cmath.rect(orbit[0].modulus_float(), orbit[0].argument) == pytest.approx(lam)
    # log|beta_{n+1}| = Re beta_n + log|lambda| while native
    for a, b in zip(orbit, orbit[1:]):
        ra = a.real_part_tower().to_float()
        if ra == math.inf:
            break
        assert b.log_modulus.to_float() == pytest.approx(
            ra + math.log(lam), rel=1e-12)


# ---------------------------------------------------------------------------
# derivatives and inverse branches

def test_orbit_derivative_log_matches_product_oracle():
    lam, z0, n = 0.2, 0.3 + 0.2j, 6
    got = orbit_derivative_log(lam, z0, n)
    w, acc = z0, 0.0
    for _ in range(n):
        w = lam * cmath.exp(w)
        acc += math.log(abs(w))
    assert got == acc


def test_orbit_derivative_log_leaves_native_range():
    with pytest.raises(NumericRangeError):
        orbit_derivative_log(1.0, 10.0, 6)


def test_inverse_branch_round_trip():
    lam = 1.0
    for k in range(-5, 6):
        z = inverse_branch(lam, 2.0 + 1.0j, k)
        assert eval_map(lam, z) == pytest.approx(2.0 + 1.0j, rel=1e-12)
        assert strip_index(lam, z) == k


def test_inverse_branch_rejects_zero():
    with pytest.raises(DomainError):
        inverse_branch(1.0, 0.0, 0)


@settings(max_examples=60)
@given(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
       st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
       st.integers(min_value=-5, max_value=5))
def test_inverse_branch_lands_in_named_strip(re, im, k):
    w = complex(re, im)
    if abs(w) < 1e-6:
        return
    z = inverse_branch(1.0, w, k)
    assert strip_index(1.0, z) == k
    assert abs(eval_map(1.0, z) - w) <= 1e-9 * max(1.0, abs(w))


def test_inverse_branch_next_to_a_strip_edge():
    # every preimage of these w lies within ulps of a strip edge; the
    # rounded offset once picked the preimage a period away (strip 4 for
    # k = 3 at the first w), and the sum could round across the edge
    for w in (complex(-0.125, -2.220446049250313e-16), complex(-3.0, -1e-300),
              complex(-0.5, 1e-17), -1.0, complex(-1.553861772869886, 0.0),
              complex(-1.526, -0.0)):
        for k in range(-50, 51):
            z = inverse_branch(1.0, w, k)
            assert strip_index(1.0, z) == k, (w, k, z)
            assert abs(eval_map(1.0, z) - w) <= 1e-12 * abs(w)


def test_inverse_branch_refuses_strips_past_the_trust_limit():
    # strip k spans ((2k - 1) pi, (2k + 1) pi] at lambda = 1; past
    # ARG_TRUST_LIMIT = 2^53 pi one ulp is wider than a strip, so k is not
    # resolved.  2^53 + 1 rounds to 2^53, so the outer edges of strips
    # +-2^52 round onto the limit itself
    for k in (2**52, -2**52):
        z = inverse_branch(1.0, 2.0 + 1.0j, k)
        assert strip_index(1.0, z) == k
    for k in (2**52 + 1, -2**52 - 1, 10**20, -10**400):
        with pytest.raises(NumericRangeError, match=f"strip {k} has an edge past"):
            inverse_branch(1.0, 2.0 + 1.0j, k)


@pytest.mark.parametrize("ulps, lands", [(4, True), (5, False)])
def test_inverse_branch_checks_every_nudge(monkeypatch, ulps, lands):
    # a strip edge this many ulps above the rounded preimage TAU of w = 1
    # in strip 1: the fourth and last nudge still lands, a fifth would be
    # needed, and then the preimage is refused, not returned in strip 0
    edge = TAU
    for _ in range(ulps):
        edge = math.nextafter(edge, math.inf)
    monkeypatch.setattr(dynamics, "_strip_of_imag", lambda im, arg: int(im >= edge))
    if lands:
        assert inverse_branch(1.0, 1.0, 1) == complex(0.0, edge)
    else:
        with pytest.raises(NumericRangeError, match="lies in strip 1"):
            inverse_branch(1.0, 1.0, 1)


# ---------------------------------------------------------------------------
# supergrowth

def test_supergrowth_lambda_one_exact_ratios():
    rep = check_supergrowth(1.0, 1.0, 15)
    assert rep.holds and rep.sustained
    assert rep.first_failure_index is None
    # alpha_{n+1} = e^{alpha_n} exactly on the real orbit, so each ratio
    # that is still resolvable in floats is exactly 1
    native = [r for r in rep.ratios if r is not None]
    assert native == [1.0, 1.0, 1.0, 1.0]
    assert rep.ratios.count(None) == 10
    assert rep.largest_passing_c == 1.0
    assert rep.tail_ratio == 4.947866569697378e-06
    assert rep.escape_threshold is None  # c = 1 > 1/e has no finite root


def test_supergrowth_tail_ratio_oracle():
    # (alpha_1 + alpha_2 + alpha_3) / alpha_4 with alphas 1, e, e^e, e^(e^e)
    a1, a2, a3 = 1.0, math.e, math.exp(math.e)
    want = (a1 + a2 + a3) / math.exp(a3)
    rep = check_supergrowth(1.0, 1.0, 15)
    assert rep.tail_ratio == pytest.approx(want, rel=1e-12)


def test_supergrowth_large_lambda_tower_ratios():
    rep = check_supergrowth(10.0, 9.0, 12)
    assert rep.holds
    assert rep.ratios[0] == pytest.approx(10.0 / 9.0, rel=1e-12)
    assert rep.ratios[1] == pytest.approx(10.0 / 9.0, rel=1e-9)
    # past the native range a multiplicative margin is below one ulp of
    # the tower mantissa, so it is reported as unresolvable
    assert all(r is None for r in rep.ratios[2:])
    assert rep.largest_passing_c == pytest.approx(10.0, rel=1e-12)


def test_supergrowth_attracting_lambda_fails_by_sustainability():
    rep = check_supergrowth(0.2, 0.1, 12)
    # every stepwise ratio clears 1 (the orbit sits near the attracting
    # point), yet alpha_n never crosses the escape threshold of c e^x = x
    assert rep.ratios[0] == pytest.approx(2.0, rel=1e-12)
    assert rep.first_failure_index is None
    assert not rep.sustained
    assert not rep.holds
    assert rep.escape_threshold == 3.577152063957297


def test_supergrowth_monotone_in_c():
    held = [check_supergrowth(1.0, c, 12).holds for c in (0.3, 0.8, 1.0)]
    assert held == [True, True, True]
    # a c above every ratio must fail at the first comparison
    rep = check_supergrowth(1.0, 1.5, 12)
    assert not rep.holds
    assert rep.first_failure_index is not None


def test_supergrowth_validation():
    with pytest.raises(ValidationError):
        check_supergrowth(1.0, 0.0, 10)
    with pytest.raises(ValidationError):
        check_supergrowth(1.0, 1.0, 0)
    with pytest.raises(ValidationError, match="need n >= 2"):
        check_supergrowth(1.0, 1.0, 1)
    with pytest.raises(TypeError, match="n_min"):
        check_supergrowth(1.0, 1.0, 3, n_min=1)
