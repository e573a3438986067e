"""Rectangle families, column sums, negative-side geometry, certificates."""

import cmath
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from expdyn import induced
from expdyn import (
    GeometryError,
    NumericRangeError,
    RectangleIndex,
    Strip,
    ValidationError,
    build_zm,
    certificate_to_json,
    cover_iterate,
    eval_map,
    horizontal_strip,
    negative_geometry,
    symmetric_strip,
    verify_contraction,
)

STRIP = horizontal_strip(0.0, math.pi)
TAU = 2.0 * math.pi


# ---------------------------------------------------------------------------
# rectangle families

def test_zm_family_for_the_strip():
    # the columns M..r_max of a certificate without a geometry
    fam = build_zm(STRIP, 1.0, 5, 10)
    assert fam == tuple(RectangleIndex(0, r) for r in range(5, 11))
    assert fam == tuple(sorted(fam, key=lambda q: (q.r, q.k)))


def test_zm_family_truncates_at_rmax():
    fam = build_zm(STRIP, 1.0, 5, 6)
    assert [q.r for q in fam] == [5, 6]


def test_zm_family_rotated_lambda_doubles_the_strips():
    # rotating lambda shifts the strip grid so the set straddles two strips
    fam = build_zm(STRIP, cmath.rect(1.0, 2.5), 5, 10)
    assert set(Counter(q.r for q in fam).values()) == {2}


def test_zm_validation():
    with pytest.raises(ValidationError, match="need M >= 1"):
        build_zm(STRIP, 1.0, 0, 10)
    with pytest.raises(ValidationError, match="r_max must be at least M = 5"):
        build_zm(STRIP, 1.0, 5, 4)


# ---------------------------------------------------------------------------
# positive column sums

def test_positive_sum_is_independent_of_m_in_range():
    assert induced._positive_column_sum(1.0, STRIP, 10, 0.5, 5) == 0.0536547399495383
    assert induced._positive_column_sum(1.0, STRIP, 10, 0.5, 10) == 0.0536547399495383


def test_positive_sum_is_zero_while_no_image_column_reaches_m():
    # at lambda = 0.001 the image moduli of column r lie in [E, eE] with
    # E = 0.001 e^r, and eE + 1 < M = 3 up to r = 6, so no image column
    # reaches M and the bound is 0.0; a certificate on columns 3..6 passes
    # whatever the columns past 6 hold
    spec = horizontal_strip(1.0, 1.2)
    sums = [induced._positive_column_sum(0.001, spec, r, 0.9, 3) for r in range(3, 9)]
    assert sums == [0.0, 0.0, 0.0, 0.0, 0.8815564283644027, 2.065559189780574]


def test_positive_sum_one_sided_is_half():
    two = induced._positive_column_sum(1.0, STRIP, 10, 0.5, 10, sides=2.0)
    one = induced._positive_column_sum(1.0, STRIP, 10, 0.5, 10, sides=1.0)
    assert one == two / 2.0


def test_positive_sum_upper_bounds_a_sampled_branch_sum():
    # Monte Carlo lower bound: sample the source rectangle, group image
    # points by target cell in the positive strip-0 region, and sum the
    # worst derivative reciprocal per cell
    rng = random.Random(7)
    lam, r, m, delta = 1.0, 3, 2, 0.5
    bound = induced._positive_column_sum(lam, STRIP, r, delta, m, sides=1.0)
    assert bound == 0.9765572986408728
    cells = {}
    for _ in range(10 ** 4):
        z = complex(r + rng.random(), rng.random() * math.pi)
        w = eval_map(lam, z)
        s = math.floor(w.real)
        k = math.floor((w.imag + math.pi) / TAU)
        if s < m or k != 0:
            continue
        d = abs(w)  # |f'(z)| = |f(z)| for this family
        cells[(k, s)] = min(cells.get((k, s), math.inf), d)
    mc = math.fsum(v ** -(1 + delta) for v in cells.values())
    assert mc == 0.19146296760432924
    assert mc <= bound


@pytest.mark.parametrize("delta", [0.01, 0.1, 0.5, 0.9])
def test_column_bound_never_rises_with_the_column(delta):
    # past (1 + delta) log E = 690 the bound is evaluated with E factored
    # out; it must not jump there (column 691 at delta = 0.01, 461 at 0.5)
    # nor lose its E^-(1+delta) term to underflow
    bounds = [induced._positive_column_sum(1.0, STRIP, r, delta, 300)
              for r in range(300, 801)]
    assert all(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:]))
    assert all(b > 0.0 for b in bounds[:200])


def test_column_bound_is_continuous_across_the_switch():
    b690, b691 = (induced._positive_column_sum(1.0, STRIP, r, 0.01, 10)
                  for r in (690, 691))
    assert b691 == pytest.approx(b690 * math.exp(-0.01), rel=1e-4)


def _smallest_passing_delta(m):
    """Bisect the smallest delta whose certificate over M..M+20 passes."""
    lo, hi = 1e-6, 0.99
    for _ in range(40):
        mid = math.sqrt(lo * hi)
        cert = verify_contraction(1.0, STRIP, mid, m + 20, m=m,
                                  enumerate_rectangles=False)
        lo, hi = (lo, mid) if cert.passed else (mid, hi)
    return hi


def test_smallest_passing_delta_falls_like_one_over_m():
    # dim <= 1 + delta* at every M, and delta* M stays near 2.89: the
    # paper's dim <= 1 in numbers
    ms = [10, 100, 650, 680, 691, 700, 1000, 5000]
    star = {m: _smallest_passing_delta(m) for m in ms}
    assert all(star[b] <= star[a] for a, b in zip(ms, ms[1:]))
    for m in (10, 100, 700, 5000):
        assert 2.8 <= star[m] * m <= 3.0


# ---------------------------------------------------------------------------
# negative-side geometry

def test_geometry_for_supergrowing_real_lambda():
    geo = negative_geometry(0.65, 0.65, 4, 6)
    assert geo.m == 7
    assert geo.d == 0.25  # c / (4 |lambda|)
    assert geo.l0 == 4 and geo.n_levels == 6
    # bands decrease and deepen doubly exponentially; once the boundary
    # leaves float range the remaining floors are all -inf
    finite = [s for s in geo.sigmas if s != -math.inf]
    assert all(b < a for a, b in zip(finite, finite[1:]))
    assert all(s == -math.inf for s in geo.sigmas[len(finite):])
    assert geo.sigmas[0] == pytest.approx(-3.944559, abs=1e-6)
    assert geo.sigmas[3] == pytest.approx(-336.025735, abs=1e-6)
    assert geo.sigmas[5] == -math.inf
    assert [geo.level_of_column(r) for r in (-7, -9, -12, -20, -300)] == \
        [5, 5, 5, 6, 6]
    assert geo.log_betas[6] == 324.47080018300846
    assert geo.r_prime_min(5) == 243


def _sigma(geo, l):
    return geo.sigmas[l - geo.l0]


def test_sigmas_are_the_documented_sums_bit_for_bit():
    # sigma_l = log D - log 4 - 1 - (alpha_{l-2} + ... + alpha_0) - l log|lambda|
    geo = negative_geometry(0.65, 0.65, 4, 6)
    const = -math.log(4.0) - 1.0 + math.log(geo.d)
    for l in range(geo.l0, geo.l0 + geo.n_levels + 2):
        total = 0.0
        for a in geo.alphas[:l - 1]:
            total += a
        assert _sigma(geo, l) == const - total - l * math.log(0.65)


def test_geometry_level_ties_go_to_the_smaller_level():
    geo = negative_geometry(0.65, 0.65, 4, 6)
    for r in range(-30, -geo.m + 1):
        l = geo.level_of_column(r)
        assert _sigma(geo, l + 1) < r + 1 and _sigma(geo, l) > r


def test_geometry_validation():
    with pytest.raises(ValidationError):
        negative_geometry(0.65, 0.7, 4, 6)  # c > |lambda|
    with pytest.raises(ValidationError):
        negative_geometry(0.65, 0.65, 0, 6)
    with pytest.raises(GeometryError):
        # attracting parameter: supergrowth fails outright
        negative_geometry(0.2, 0.1, 3, 4)
    with pytest.raises(ValidationError, match="singular orbit length"):
        # the bands need the singular orbit to level l0 + n_levels + 1
        negative_geometry(0.65, 0.65, 4, induced._RANGE_LIMIT - 4)
    geo = negative_geometry(0.65, 0.65, 4, 6)
    with pytest.raises(ValidationError):
        geo.level_of_column(0)
    # the deepest computed band has an infinite floor, so far-out columns
    # still resolve to a level instead of erroring
    assert geo.level_of_column(-10 ** 6) == 7


def _level_by_scan(geo, r):
    """Reference: the first level whose band holds column r, or None."""
    for l in range(geo.l0, geo.l0 + geo.n_levels + 1):
        if _sigma(geo, l + 1) < r + 1 and _sigma(geo, l) > r:
            return l
    return None


@pytest.mark.parametrize("geo", [
    negative_geometry(0.65, 0.13, 5, 1),
    negative_geometry(0.65, 0.65, 4, 6),
    negative_geometry(1.0, 1.0, 3, 1),
    negative_geometry(1.0, 0.2, 3, 6),
    negative_geometry(2.0, 0.4, 3, 1),
    negative_geometry(5.0, 1.0, 2, 1),
    # band edges on integers, repeated sigmas and a finite deepest floor
    negative_geometry(1.0, 1.0, 3, 6)._replace(
        m=4, sigmas=(-4.0, -7.0, -7.0, -9.0, -10.0, -10.0, -13.0, -20.0)),
], ids=lambda g: f"lam{g.lam.real:g}-l0{g.l0}-n{g.n_levels}-top{g.sigmas[0]:g}")
def test_level_of_column_bisect_matches_the_scan(geo):
    finite = [s for s in geo.sigmas if s != -math.inf]
    deepest = max(math.floor(finite[-1]) - 3, -geo.m - 3000)
    cols = set(range(-geo.m, deepest - 1, -1))
    for s in finite:  # columns at and beside every band edge
        cols.update(c for c in range(math.floor(s) - 2, math.floor(s) + 3)
                    if c <= -geo.m)
    assert all(b <= a for a, b in zip(geo.sigmas, geo.sigmas[1:]))
    for r in sorted(cols, reverse=True):
        want = _level_by_scan(geo, r)
        if want is None:
            with pytest.raises(GeometryError):
                geo.level_of_column(r)
        else:
            assert geo.level_of_column(r) == want, r


# ---------------------------------------------------------------------------
# contraction certificates

def test_positive_certificate_passes_at_m_ten():
    cert = verify_contraction(1.0, STRIP, 0.5, 30, m=10)
    assert cert.passed
    assert cert.status == "pass"
    assert cert.max_sum == 0.0536547399495383
    assert len(cert.per_column) == 21
    assert dict(cert.per_column)[10] == cert.max_sum
    assert cert.c is None and cert.l0 is None
    # per-column bounds decay at least like e^(-delta/2) per column
    bounds = [b for _, b in cert.per_column]
    ratios = [b2 / b1 for b1, b2 in zip(bounds, bounds[1:])]
    assert max(ratios) <= math.exp(-0.25)
    assert max(ratios) == pytest.approx(math.exp(-0.5), rel=1e-10)


def test_certificate_tightens_with_m():
    cert = verify_contraction(1.0, STRIP, 0.5, 32, m=12)
    assert cert.passed
    assert cert.max_sum == 0.01973670580368357


def test_certificate_failure_is_reported_not_raised():
    cert = verify_contraction(1.0, STRIP, 0.01, 30, m=10)
    assert not cert.passed
    assert cert.max_sum == 8.146695738234074
    assert cert.status == ("certificate not achieved at M=10, delta=0.01 "
                           "(max bound 8.1467)")


def test_certificate_without_rectangle_enumeration():
    cert = verify_contraction(1.0, STRIP, 0.5, 30, m=10,
                              enumerate_rectangles=False)
    assert cert.passed and cert.max_sum == 0.0536547399495383
    assert cert.zm_strips is None
    assert json.loads(certificate_to_json(cert))["per_rectangle"] == []
    assert len(cert.per_column) == 21


def test_two_sided_certificate_with_geometry():
    geo = negative_geometry(1.0, 1.0, 3, 6)
    assert geo.m == 16
    cert = verify_contraction(1.0, STRIP, 0.2, geo.m + 20, geometry=geo)
    assert [r for r, _ in cert.per_column] == \
        list(range(-geo.m - 20, -geo.m + 1)) + list(range(geo.m, geo.m + 21))
    assert cert.passed
    assert cert.m == 16 and cert.c == 1.0 and cert.l0 == 3
    assert cert.max_sum == 0.34889479114215693
    # deep negative columns land beyond native resolution: honest zeros
    neg = [b for r, b in cert.per_column if r < 0]
    assert len(neg) == 21 and all(b == 0.0 for b in neg)


def test_mixed_depth_negative_bounds():
    geo = negative_geometry(0.65, 0.65, 4, 6)
    cert = verify_contraction(0.65, STRIP, 0.5, 20, geometry=geo)
    assert cert.passed
    assert cert.max_sum == 0.29928725932049105
    bound = dict(cert.per_column)
    assert bound[-7] == 8.022493104028301e-48
    assert bound[-12] == bound[-7]  # same level ball
    assert bound[-20] == 0.0
    assert bound[7] == cert.max_sum
    assert 11**3 not in bound


def test_certificate_validation():
    with pytest.raises(ValidationError):
        verify_contraction(1.0, STRIP, 0.5, 30)  # no M anywhere
    with pytest.raises(ValidationError):
        verify_contraction(1.0, STRIP, 1.5, 30, m=10)
    with pytest.raises(ValidationError, match="r_max must be at least M = 10"):
        verify_contraction(1.0, STRIP, 0.5, 9, m=10)
    geo = negative_geometry(1.0, 1.0, 3, 6)
    with pytest.raises(ValidationError, match="disagrees"):
        verify_contraction(1.0, STRIP, 0.5, 20, m=10, geometry=geo)
    with pytest.raises(ValidationError, match="r_max must be at least M = 16"):
        verify_contraction(1.0, STRIP, 0.5, 15, geometry=geo)


# ---------------------------------------------------------------------------
# Z_M oracle: strip k is ((2k - 1) pi - A, (2k + 1) pi - A], with pi the
# float math.pi and A = Arg lambda, and meets the closed strip [a, b] iff
# its lower edge lies below b and its upper edge at or above a, compared in
# rationals; a rectangle R^k_r = [r, r + 1) x strip k meets |Re z| >= m iff
# r >= m or r <= -m

_PI = Fraction(math.pi)


def _strip_meets(strip, arg_lam, k):
    lo = (2 * k - 1) * _PI - Fraction(arg_lam)
    return lo < Fraction(strip.b) and Fraction(strip.a) <= lo + 2 * _PI


def _window_hits(strip, lam):
    """The strip indices that meet the strip, tested one by one over a
    window three strips wider on each side than a float estimate."""
    arg_lam = induced._lambda_logs(lam)[1]
    ks = range(math.floor((strip.a + arg_lam) / TAU) - 3,
               math.ceil((strip.b + arg_lam) / TAU) + 4)
    return [k for k in ks if _strip_meets(strip, arg_lam, k)]


def _exact_rows(strip, lam, m, columns):
    """Z_M rows of a strip, rectangle by rectangle, ordered by (r, k)."""
    hits = _window_hits(strip, lam)
    return sorted((RectangleIndex(k, r) for r in columns if r >= m or r <= -m
                   for k in hits), key=lambda q: (q.r, q.k))


def _listed_rows(cert):
    """The certificate's JSON per_rectangle rows as (k, r, bound)."""
    doc = json.loads(certificate_to_json(cert))
    return [(row["k"], row["r"], row["bound"]) for row in doc["per_rectangle"]]


def test_certificate_enumerates_only_its_own_columns(monkeypatch):
    calls = []
    strip_of = induced._strip_of_imag

    def counted(im, arg_lam):
        calls.append(im)
        return strip_of(im, arg_lam)

    monkeypatch.setattr(induced, "_strip_of_imag", counted)
    cert = verify_contraction(1.0, STRIP, 0.5, 30, m=10)
    bound = dict(cert.per_column)
    assert cert.zm_strips == range(0, 1)
    assert _listed_rows(cert) == [(0, r, bound[r]) for r in range(10, 31)]
    assert _listed_rows(cert) == [
        (q.k, q.r, bound[q.r]) for q in _exact_rows(STRIP, 1.0, 10, range(10, 31))]
    # the strip decides its strip range once, from its edges 0 and pi,
    # however far the columns
    assert calls == [0.0, math.pi]
    calls.clear()
    assert verify_contraction(1.0, STRIP, 0.5, 2000, m=10).zm_strips == range(0, 1)
    assert calls == [0.0, math.pi]
    # the rows are the family's rows in the certified columns, both sides;
    # a rotated lambda puts two rectangles in each column
    lam = cmath.rect(0.65, 2.5)
    geo = negative_geometry(0.65, 0.65, 4, 6)._replace(lam=lam)
    cert = verify_contraction(lam, STRIP, 0.5, 20, geometry=geo)
    family = build_zm(STRIP, lam, 7, 20)
    assert [r for r, _ in cert.per_column] == list(range(-20, -6)) + list(range(7, 21))
    assert len(cert.zm_strips) == 2
    rows = _listed_rows(cert)
    assert [(k, r) for k, r, _ in rows] == [
        (q.k, q.r) for q in _exact_rows(STRIP, lam, 7, range(-20, 21))]
    assert [(k, r) for k, r, _ in rows if r > 0] == [(q.k, q.r) for q in family]


def test_strip_specs_carry_their_band():
    strip = horizontal_strip(-1.0, 2.5)
    assert (strip.a, strip.b) == (-1.0, 2.5)
    assert symmetric_strip(0.5) == Strip(-0.5, 0.5)
    assert isinstance(STRIP, Strip)


_ZM_LAMBDAS = [1.0, -1.0, 1 + 0.3j, cmath.rect(0.65, 2.5)]


def _edge(lam, k):
    """The edge (2k + 1) pi - Arg lambda between strips k and k + 1."""
    return (2 * k + 1) * math.pi - cmath.phase(lam)


def _band_cases(lam):
    e0, e1, em = _edge(lam, 0), _edge(lam, 1), _edge(lam, -1)
    return [
        (0.0, math.pi),
        (-2.0, 5.0),  # negative a
        (-7.5, -6.0),
        (0.3, 0.31),  # slivers far narrower than a strip
        (1.0, 1.2),
        (1.1, 2.4),
        (-0.2, 1.3),
        (3.0, 3.0),
        (e0, e0),  # on strip edges
        (e0, e1),
        (em, e0),
        (em - 0.1, em + 0.1),
        (e0 - 1.0, e0),
        (e0, e0 + 1.0),
    ]


@pytest.mark.parametrize("lam", _ZM_LAMBDAS)
@pytest.mark.parametrize("m", [1, 5, 10])
@pytest.mark.parametrize("two_sided", [False, True])
def test_strip_rows_match_the_sampled_rows(lam, m, two_sided):
    cols = induced._columns(m, m + 8, two_sided)
    seen = set()
    for a, b in _band_cases(lam):
        strip = horizontal_strip(a, b)
        ks = induced._zm_strips(strip, lam, len(cols))
        assert [RectangleIndex(k, r) for r in cols for k in ks] == \
            _exact_rows(strip, lam, m, cols)
        seen.add(len(ks))
    # the cases cover one- and two-strip columns
    assert {1, 2} <= seen


def _edge_heights(lam, ks):
    """Strip edges (2k + 1) pi - Arg lambda for k drawn from ks, and the
    floats either side of them."""
    return ks.map(lambda k: _edge(lam, k)).flatmap(lambda e: st.sampled_from(
        [e, math.nextafter(e, -math.inf), math.nextafter(e, math.inf)]))


@st.composite
def _strips_near(draw, lam, limit):
    """Strips with |a| up to about limit: zero-height strips, slivers,
    edges on strip edges, and strips of any height up to a few strips."""
    k_max = int(limit / TAU) - 8
    a = draw(st.one_of(st.floats(-limit, limit - 64.0),
                       _edge_heights(lam, st.integers(-k_max, k_max))))
    k_a = round((a + cmath.phase(lam)) / TAU)
    b = draw(st.one_of(
        st.just(a), st.floats(a, a + 0.5), st.floats(a, a + 30.0),
        _edge_heights(lam, st.integers(k_a - 2, k_a + 4)).map(
            lambda e: max(e, a))))
    return horizontal_strip(a, b)


@st.composite
def _zm_cases(draw):
    """(lam, strip, m, two_sided), with strip edges up to about 1e4 or up
    to ARG_TRUST_LIMIT, where an ulp of Im z nears a strip height."""
    lam = draw(st.sampled_from(_ZM_LAMBDAS))
    m = draw(st.sampled_from([1, 5, 10]))
    limit = draw(st.sampled_from([1e4, induced.ARG_TRUST_LIMIT]))
    return lam, draw(_strips_near(lam, limit)), m, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(_zm_cases())
def test_every_column_holds_the_strips_decided_once(case):
    lam, strip, m, two_sided = case
    cols = induced._columns(m, m + 6, two_sided)
    ks = induced._zm_strips(strip, lam, len(cols))
    assert list(ks) == _window_hits(strip, lam)
    assert [RectangleIndex(k, r) for r in cols for k in ks] == \
        _exact_rows(strip, lam, m, cols)


def test_column_ranges_stop_at_the_range_limit():
    limit = induced._RANGE_LIMIT
    assert len(induced._columns(10, 10 + limit - 1, False)) == limit
    assert len(induced._columns(10, 10 + limit // 2 - 1, True)) == limit
    for two_sided, r_max in ((False, 10 + limit), (True, 10 + limit // 2),
                             (True, 10 ** 8)):
        with pytest.raises(ValidationError, match=f"more than {limit}"):
            induced._columns(10, r_max, two_sided)


def test_strip_rows_skip_columns_inside_m():
    # a certificate's columns, ascending, never reach inside |r| < M
    cols = induced._columns(3, 9, True)
    assert cols == [-9, -8, -7, -6, -5, -4, -3, 3, 4, 5, 6, 7, 8, 9]
    ks = induced._zm_strips(STRIP, 1.0, len(cols))
    assert [RectangleIndex(k, r) for r in cols for k in ks] == \
        _exact_rows(STRIP, 1.0, 3, range(-9, 10))


@pytest.mark.parametrize("m", [0, -3])
def test_m_below_one_is_rejected(m):
    with pytest.raises(ValidationError, match="need M >= 1"):
        verify_contraction(1.0, STRIP, 0.5, 5, m=m, enumerate_rectangles=False)
    with pytest.raises(ValidationError, match="need M >= 1"):
        cover_iterate(1.0, STRIP, 0.5, 2, 10 ** 3, m=m)


@pytest.mark.parametrize("allowance", [0.0, -1.0, math.nan, 0.5, math.inf])
def test_distortion_allowance_must_be_finite_and_at_least_one(allowance):
    geo = negative_geometry(1.0, 1.0, 3, 6)
    for r_max, kw in ((11, {"m": 10}), (16, {"geometry": geo})):
        with pytest.raises(ValidationError, match="distortion allowance"):
            verify_contraction(1.0, STRIP, 0.5, r_max,
                               distortion_allowance=allowance, **kw)
        with pytest.raises(ValidationError, match="distortion allowance"):
            cover_iterate(1.0, STRIP, 0.5, 2, 10 ** 3,
                          distortion_allowance=allowance, **kw)
    assert verify_contraction(1.0, STRIP, 0.5, 16, geometry=geo,
                              distortion_allowance=1.0).passed


def test_certificate_json_is_deterministic():
    cert = verify_contraction(1.0, STRIP, 0.5, 12, m=10)
    text = certificate_to_json(cert)
    assert text == certificate_to_json(cert)
    doc = json.loads(text)
    assert doc["format_version"] == 1
    assert doc["M"] == 10
    assert doc["pass"] is True
    assert doc["max_sum"] == cert.max_sum
    assert list(doc) == sorted(doc)


def test_certificate_json_refuses_a_bound_that_is_not_finite():
    cert = verify_contraction(1.0, horizontal_strip(0.0, 1e308), 0.5, 12,
                              m=10, enumerate_rectangles=False)
    assert cert.max_sum == math.inf
    with pytest.raises(NumericRangeError, match="not finite"):
        certificate_to_json(cert)


def _no_scan(*args):
    raise AssertionError("a rectangle was listed")


@pytest.mark.parametrize("spec, message", [
    # edges past ARG_TRUST_LIMIT, where strip indices are not resolved
    (horizontal_strip(-1e307, 1e307), "strip edges must lie within"),
    # about 3e14 strip indices in each of 3 columns
    (horizontal_strip(-1e15, 1e15), "more than 1e[+]07 rectangles"),
], ids=["strip", "tall-strip"])
def test_zm_enumeration_refuses_a_scan_past_the_cell_limit(monkeypatch, spec, message):
    # the enumeration raises before it lists a single rectangle
    monkeypatch.setattr(induced, "RectangleIndex", _no_scan)
    with pytest.raises(NumericRangeError, match=message):
        induced._zm_strips(spec, 1.0, 3)
    with pytest.raises(NumericRangeError, match=message):
        build_zm(spec, 1.0, 10, 12)


def test_zm_cell_limit_counts_the_strip_indices_of_every_column(monkeypatch):
    assert induced._zm_strips(STRIP, 1.0, 6) == range(0, 1)
    # strip 0, which holds both edges 0 and pi, in each of the 6 columns
    # 10..15: 6 rectangles
    monkeypatch.setattr(induced, "_CELL_LIMIT", 6.0)
    assert verify_contraction(1.0, STRIP, 0.5, 15, m=10).zm_strips == range(0, 1)
    monkeypatch.setattr(induced, "_CELL_LIMIT", 5.0)
    with pytest.raises(NumericRangeError, match="more than 5 rectangles"):
        verify_contraction(1.0, STRIP, 0.5, 15, m=10)
    # without the rectangles nothing is counted
    assert verify_contraction(1.0, STRIP, 0.5, 15, m=10,
                              enumerate_rectangles=False).passed


# ---------------------------------------------------------------------------
# iterated covers

def test_one_sided_cover_run():
    run = cover_iterate(1.0, STRIP, 0.5, 5, 10 ** 5, m=10)
    assert run.m == 10
    assert not run.two_sided
    totals = [lv.total for lv in run.levels]
    assert totals == [19.655406945087897, 0.5272892162643755, 0.0, 0.0, 0.0, 0.0]
    # depth zero is the baseline cell (2 pi + 1)^(1+delta)
    assert totals[0] == pytest.approx((TAU + 1.0) ** 1.5, rel=1e-12)
    assert run.levels[0].cells == 1.0
    assert run.levels[1].cells == 55594.0
    budgets = [lv.budget for lv in run.levels]
    assert budgets[0] == TAU + 1.0
    assert budgets[1:] == [(TAU + 1.0) / 2 ** n for n in range(1, 6)]
    for lv in run.levels[1:]:
        assert lv.total < lv.budget
    assert all(lv.tail_mass == 0.0 for lv in run.levels)


def test_two_sided_cover_run():
    geo = negative_geometry(1.0, 1.0, 3, 6)
    run = cover_iterate(1.0, STRIP, 0.2, 4, 10 ** 5, geometry=geo)
    assert run.two_sided
    assert [lv.total for lv in run.levels] == \
        [10.833920188558238, 6.132437790904324, 0.0, 0.0, 0.0]


def test_cover_aborts_on_cell_blowup(monkeypatch):
    monkeypatch.setattr(induced, "_CELL_LIMIT", 10.0)
    with pytest.raises(NumericRangeError, match="at depth 1 would pass 10 cells"):
        cover_iterate(1.0, STRIP, 0.5, 5, 10 ** 5, m=10)
    with pytest.raises(TypeError):
        cover_iterate(1.0, STRIP, 0.5, 5, 10 ** 5, m=10, cell_limit=10.0)


def test_cover_validation():
    with pytest.raises(ValidationError):
        cover_iterate(1.0, STRIP, 0.5, 0, 10 ** 5, m=10)
    with pytest.raises(ValidationError):
        cover_iterate(1.0, STRIP, 0.5, 3, 0, m=10)
    with pytest.raises(ValidationError):
        cover_iterate(1.0, STRIP, 0.5, 3, 10 ** 5)
    with pytest.raises(ValidationError, match="cover depth must be at most 10000"):
        cover_iterate(1.0, STRIP, 0.5, induced._RANGE_LIMIT + 1, 10 ** 5, m=10)


def test_cover_rejects_an_m_that_disagrees_with_the_geometry():
    geo = negative_geometry(1.0, 1.0, 3, 6)
    with pytest.raises(ValidationError, match="disagrees"):
        cover_iterate(1.0, STRIP, 0.2, 2, 10 ** 3, m=geo.m + 1, geometry=geo)
    agreed = cover_iterate(1.0, STRIP, 0.2, 2, 10 ** 3, m=geo.m, geometry=geo)
    assert agreed == cover_iterate(1.0, STRIP, 0.2, 2, 10 ** 3, geometry=geo)
    assert agreed.m == 16


def test_certificate_json_lists_every_column_bound():
    geo = negative_geometry(0.65, 0.65, 4, 6)
    for cert in (verify_contraction(1.0, STRIP, 0.5, 30, m=10,
                                    enumerate_rectangles=False),
                 verify_contraction(0.65, STRIP, 0.5, 8, geometry=geo)):
        doc = json.loads(certificate_to_json(cert))
        assert doc["format_version"] == 1
        assert doc["per_column"] == [{"r": r, "bound": b} for r, b in cert.per_column]
        assert [row["r"] for row in doc["per_column"]] == doc["r_range"]
        assert max(row["bound"] for row in doc["per_column"]) == doc["max_sum"]
