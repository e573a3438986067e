"""External addresses, strip indices and address shifts."""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from expdyn import (
    ExternalAddress,
    ValidationError,
    inverse_branch,
    parse_address,
    strip_index,
)
from expdyn.dynamics import ARG_TRUST_LIMIT


# ---------------------------------------------------------------------------
# strip indices

def test_strip_zero_spans_minus_pi_to_pi_upper_inclusive():
    assert strip_index(1.0, 1.0 + 0.0j) == 0
    assert strip_index(1.0, complex(0.0, math.pi)) == 0
    assert strip_index(1.0, complex(0.0, math.pi + 1e-3)) == 1
    assert strip_index(1.0, complex(0.0, -math.pi)) == -1


def test_strip_index_shifts_by_full_periods():
    for k in range(-3, 4):
        z = complex(0.7, 0.4 + 2.0 * math.pi * k)
        assert strip_index(1.0, z) == k


# exact oracle: strip k is ((2k - 1) pi - A, (2k + 1) pi - A], upper edge
# inclusive, with pi the float math.pi and A = Arg lambda, compared in
# rationals

_PI = Fraction(math.pi)
_EDGE_LAMBDAS = [1.0, 1 + 0.3j, -1.0, cmath.exp(1j)]


def _in_strip(lam, im, k):
    x = Fraction(im) + Fraction(cmath.phase(complex(lam)))
    return (2 * k - 1) * _PI < x <= (2 * k + 1) * _PI


def _edge(lam, k):
    """The float edge (2k + 1) pi - Arg lambda between strips k and k + 1."""
    return (2 * k + 1) * math.pi - cmath.phase(complex(lam))


def _step(x, n):
    """The float n ulps above x (below it for n < 0)."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


def _around(x, n):
    """x and the n floats on each side of it."""
    return [_step(x, i) for i in range(-n, n + 1)]


@given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
       st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
@example(0.0, 3.1415926535897936)  # Im z + 2 pi rounds onto the edge 3 pi
def test_strip_index_full_period_moves_index_by_one(re, im):
    z = complex(re, im)
    shifted = z + 2.0j * math.pi
    if Fraction(im) + Fraction(2.0 * math.pi) == Fraction(shifted.imag):
        assert strip_index(1.0, shifted) == strip_index(1.0, z) + 1
    else:
        # the sum rounded, and may have crossed an edge: only the exact
        # rule can say which strip it landed in
        assert _in_strip(1.0, shifted.imag, strip_index(1.0, shifted))


@pytest.mark.parametrize("lam", _EDGE_LAMBDAS)
def test_strip_index_is_exact_on_the_floats_around_each_edge(lam):
    wrong = [im for k in range(-60, 61) for im in _around(_edge(lam, k), 4)
             if not _in_strip(lam, im, strip_index(lam, complex(0.0, im)))]
    assert wrong == []


def test_strip_index_of_a_float_just_above_an_edge():
    # the float -119 * math.pi rounds to 5/16 of an ulp above the edge
    # between strips -60 and -59
    assert strip_index(1.0, -373.84952577718536j) == -59


_far = st.floats(min_value=2.0 * ARG_TRUST_LIMIT, max_value=1.7e308)


def _heights(lam):
    """Any float, +-0.0, floats a few ulps from an edge of lambda's strips,
    and heights far past ARG_TRUST_LIMIT."""
    return st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, -0.0]),
        st.builds(lambda k, n: _step(_edge(lam, k), n),
                  st.integers(-10 ** 6, 10 ** 6), st.integers(-6, 6)),
        _far, _far.map(lambda x: -x))


@given(st.sampled_from(_EDGE_LAMBDAS).flatmap(
    lambda lam: st.tuples(st.just(lam), _heights(lam))))
def test_strip_index_agrees_with_the_exact_edges(case):
    lam, im = case
    assert _in_strip(lam, im, strip_index(lam, complex(1.0, im)))


@pytest.mark.parametrize("lam", _EDGE_LAMBDAS)
def test_inverse_branch_lands_in_its_strip_when_arg_w_is_next_to_pi(lam):
    # Arg w within a few ulps of +-pi puts Im log w - Arg lambda next to an
    # edge of each strip
    ws = [cmath.rect(r, t) for r in (0.5, 1.0, 3.0)
          for t in _around(math.pi, 3) + _around(-math.pi, 3)]
    ws += [complex(-1.0, y) for y in (0.0, -0.0, 5e-324, -5e-324, 2e-16, -2e-16)]
    assert any(cmath.phase(w) == math.pi for w in ws)
    assert any(cmath.phase(w) == -math.pi for w in ws)
    for k in range(-60, 61):
        for w in ws:
            assert _in_strip(lam, inverse_branch(lam, w, k).imag, k), (w, k)


# ---------------------------------------------------------------------------
# addresses

def test_address_constructors_and_entries():
    fin = ExternalAddress.from_entries([1, -2, 3])
    assert (fin.entries, fin.tail) == ((1, -2, 3), None)
    with pytest.raises(ValidationError, match="only 3 entries"):
        fin.entry(3)

    const = ExternalAddress.constant(2)
    assert [const.entry(i) for i in range(4)] == [2, 2, 2, 2]

    per = ExternalAddress.periodic([3, 0])
    assert [per.entry(i) for i in range(5)] == [3, 0, 3, 0, 3]


def test_shift_drops_the_first_entry():
    s = ExternalAddress((1, 2), ("constant", 0))
    assert s.shift().entries == (2,)
    assert s.shift().shift().entries == ()
    assert s.shift().shift().entry(7) == 0
    c = ExternalAddress.constant(4)
    assert c.shift() == c
    p = ExternalAddress.periodic([1, 2, 3])
    assert [p.shift().entry(i) for i in range(4)] == [2, 3, 1, 2]


def test_describe_forms():
    assert parse_address("0...const").describe() == "(0,0,...)"
    assert parse_address("periodic:2,0").describe() == "(2,0,...)"
    assert parse_address("1,2,3").describe() == "(1,2,3)"


# ---------------------------------------------------------------------------
# address literals

def test_parse_const_and_periodic_keywords():
    assert parse_address("const:4") == ExternalAddress.constant(4)
    assert parse_address("periodic:1,0,-2") == ExternalAddress.periodic([1, 0, -2])


def test_parse_suffix_literals():
    assert parse_address("0...const") == ExternalAddress((), ("constant", 0))
    assert parse_address("1,0...const") == ExternalAddress((1,), ("constant", 0))
    assert parse_address("2,0,0,0...period") == ExternalAddress.periodic([2, 0, 0, 0])
    # bare trailing ellipsis repeats the last value
    assert parse_address("0,1,2,...") == ExternalAddress((0, 1), ("constant", 2))


def test_parse_finite_lists():
    assert parse_address("0, 1, -2") == ExternalAddress.from_entries([0, 1, -2])
    assert parse_address("7") == ExternalAddress.from_entries([7])


def test_parse_rejects_garbage():
    for bad in ("x;y", "", "const:", "periodic:", "1,2,...nonsense"):
        with pytest.raises(ValidationError):
            parse_address(bad)


@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=8))
def test_parse_round_trips_finite_lists(entries):
    text = ",".join(str(e) for e in entries)
    assert parse_address(text) == ExternalAddress.from_entries(entries)

