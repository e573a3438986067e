"""External addresses, strip indices and address shifts."""

import math

import pytest
from hypothesis import given, strategies as st

from expdyn import (
    ExternalAddress,
    ValidationError,
    parse_address,
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

