"""External addresses, strip indices, itineraries, and address transport."""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from expdyn import (
    ExternalAddress,
    NumericRangeError,
    UntrustedArgumentError,
    ValidationError,
    eval_map,
    itinerary,
    parse_address,
    rempe_address,
    shift,
    strip_index,
)


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


@given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
       st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
def test_strip_index_full_period_moves_index_by_one(re, im):
    z = complex(re, im)
    assert strip_index(1.0, z + 2.0j * math.pi) == strip_index(1.0, z) + 1


# ---------------------------------------------------------------------------
# addresses

def test_address_constructors_and_entries():
    fin = ExternalAddress.from_entries([1, -2, 3])
    assert fin.entries == (1, -2, 3)
    assert not fin.is_infinite
    assert len(fin) == 3
    assert fin.prefix(2) == (1, -2)

    const = ExternalAddress.constant(2)
    assert const.is_infinite
    assert [const.entry(i) for i in range(4)] == [2, 2, 2, 2]

    per = ExternalAddress.periodic([3, 0])
    assert [per.entry(i) for i in range(5)] == [3, 0, 3, 0, 3]
    with pytest.raises(ValidationError):
        len(per)


def test_address_bound_is_max_abs_entry():
    assert ExternalAddress.from_entries([1, -4, 2]).bound == 4
    assert ExternalAddress.constant(-3).bound == 3
    assert ExternalAddress((5,), ("periodic", (1, -2))).bound == 5


def test_shift_drops_the_first_entry():
    s = ExternalAddress((1, 2), ("constant", 0))
    assert s.shift().entries == (2,)
    assert s.shift().shift().entries == ()
    assert s.shift().shift().entry(7) == 0
    assert shift(s) == s.shift()
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


# ---------------------------------------------------------------------------
# itineraries

def test_itinerary_of_real_orbit_is_all_zeros():
    assert itinerary(1.0, 1.0, 3).entries == (0, 0, 0)
    assert itinerary(1.0, 0.5 + 3.0j, 5).entries == (0, 0, 0, 0, 0)


def test_itinerary_matches_native_strips():
    lam, z = 1.0, 0.4 + 1.2j
    it = itinerary(lam, z, 4)
    w = z
    for n in range(4):
        assert it.entry(n) == strip_index(lam, w)
        w = eval_map(lam, w)


def test_itinerary_raises_once_argument_trust_dies():
    # |f(z)| = e^40 > 2/ulp, and sin(arg) != 0 kills the argument there
    with pytest.raises(UntrustedArgumentError,
                       match="argument precision exhausted at orbit step 2"):
        itinerary(1.0, 40.0 + 1e-20j, 4)


def test_itinerary_raises_once_rounding_can_cross_a_strip_edge():
    # |f^3(z)| ~ 3e29: its Im carries an error far wider than a strip, and
    # the two ways of reaching f^3 used to report different huge indices
    z = complex(1.484375, 0.125)
    assert itinerary(1.0, z, 3).entries == (0, 0, 7)
    for start, n in ((z, 4), (eval_map(1.0, z), 3)):
        with pytest.raises(UntrustedArgumentError,
                           match="strip of the orbit point undecided at orbit step"):
            itinerary(1.0, start, n)


@settings(max_examples=40)
@given(st.floats(min_value=-1.5, max_value=1.5, allow_nan=False),
       st.floats(min_value=-1.2, max_value=1.2, allow_nan=False))
def test_itinerary_is_shift_compatible(re, im):
    lam, z, n = 1.0, complex(re, im), 3
    w = z
    # stay clear of strip boundaries so both runs decide identically, and
    # reject orbits that leave the native range or exhaust argument trust
    try:
        for _ in range(n + 1):
            assume(min(abs(w.imag - (2 * k + 1) * math.pi)
                       for k in range(-3, 3)) > 1e-6)
            w = eval_map(lam, w)
        a = itinerary(lam, z, n + 1)
        b = itinerary(lam, eval_map(lam, z), n)
    except (NumericRangeError, UntrustedArgumentError):
        assume(False)
    assert a.entries[1:] == b.entries


# ---------------------------------------------------------------------------
# target addresses with separating blocks

def test_rempe_address_examples():
    zero = ExternalAddress.constant(0)
    assert rempe_address(zero, (3, 2)).entries == (2, 0, 0, 0, 2, 0, 0, 2)
    assert rempe_address(ExternalAddress.constant(3), (1,)).entries == (5, 3, 5)
    assert rempe_address(zero, (1,)).entries == (2, 0, 2)


@given(st.lists(st.integers(min_value=-4, max_value=4), min_size=5, max_size=8),
       st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4))
def test_rempe_address_is_bounded_by_source_bound(entries, blocks):
    # the source must reach at least max(blocks) entries
    r = ExternalAddress.from_entries(entries)
    out = rempe_address(r, blocks)
    assert out.bound <= 2 + r.bound
    assert not out.is_infinite


def test_rempe_address_validation():
    with pytest.raises(ValidationError):
        rempe_address(ExternalAddress.constant(0), ())
    with pytest.raises(ValidationError):
        rempe_address(ExternalAddress.constant(0), (0,))
