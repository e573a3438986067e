"""Box counting and the certified dimension-bound search."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from expdyn import (
    ValidationError,
    box_count,
    dimension_bound_search,
    horizontal_strip,
    report_to_json,
)

STRIP = horizontal_strip(0.0, math.pi)
EPS = [0.1, 0.05, 0.025, 0.0125, 0.01]


# ---------------------------------------------------------------------------
# box counting

def test_unit_segment_counts_exactly():
    seg = [complex(i / 1000.0, 0.0) for i in range(1000)]
    res = box_count(seg, EPS)
    assert res.counts == (10, 20, 40, 80, 100)
    assert res.slope == 1.0
    assert res.r2 == 1.0
    assert res.slope_claim
    assert res.n_points == 1000


def test_filled_square_slope_near_two():
    sq = [complex(i / 100.0, j / 100.0) for i in range(100) for j in range(100)]
    res = box_count(sq, EPS)
    assert res.counts[0] == 100
    assert res.slope == 1.9775743891554682
    assert abs(res.slope - 2.0) < 0.05


def test_single_point_has_slope_zero():
    res = box_count([0.3 + 0.4j], EPS)
    assert res.counts == (1, 1, 1, 1, 1)
    assert res.slope == 0.0
    assert res.r2 == 1.0  # zero variance fits perfectly by convention
    assert not res.slope_claim  # too few points to claim anything


def test_anchor_shift_barely_moves_the_slope():
    seg = [complex(i / 1000.0, 0.0) for i in range(1000)]
    base = box_count(seg, EPS)
    shifted = box_count(seg, EPS, anchor_offset=(0.3, 0.7))
    assert abs(shifted.slope - base.slope) < 0.1


def test_box_counts_are_pinned_with_and_without_anchor_offset():
    pts = [complex(3.7 + i / 997.0, -1.2 + 0.3 * math.sin(0.37 * i)) for i in range(2000)]
    pinned = {
        (0.0, 0.0): (125, 362, 1083, 1737, 1862),
        (0.3, 0.7): (147, 476, 1102, 1874, 1898),
        (-0.45, 0.25): (147, 457, 1139, 1845, 1885),
    }
    for offset, counts in pinned.items():
        assert box_count(pts, EPS, anchor_offset=offset).counts == counts
    assert box_count(pts, EPS).slope == 1.1870782814954444


def test_box_count_validation():
    seg = [complex(i / 100.0, 0.0) for i in range(100)]
    with pytest.raises(ValidationError):
        box_count([], EPS)
    with pytest.raises(ValidationError):
        box_count(seg, [0.1, 0.05])  # fewer than three scales
    with pytest.raises(ValidationError):
        box_count(seg, [0.1, 0.2, 0.01])  # not decreasing
    with pytest.raises(ValidationError):
        box_count(seg, [0.1, 0.05, 0.02])  # spans less than a decade


@settings(max_examples=30)
@given(st.lists(st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                                   allow_infinity=False),
                min_size=1, max_size=60))
def test_counts_never_decrease_as_scale_shrinks(points):
    res = box_count(points, [1.0, 0.5, 0.25, 0.1, 0.05])
    assert all(b >= a for a, b in zip(res.counts, res.counts[1:]))
    assert res.counts[0] >= 1


# ---------------------------------------------------------------------------
# certified searches

def test_search_bound_tightens_with_larger_m():
    deltas = [0.1, 0.2, 0.3, 0.5, 0.7]
    bests = [dimension_bound_search(1.0, STRIP, deltas, m_grid=g).bound_achieved
             for g in ([5], [5, 10], [5, 10, 20], [5, 10, 20, 40])]
    assert bests == [1.7, 1.3, 1.2, 1.1]
    assert all(b <= a for a, b in zip(bests, bests[1:]))


def test_search_reports_the_winning_certificate():
    rep = dimension_bound_search(1.0, STRIP, [0.1, 0.2, 0.3], m_grid=[5, 10])
    assert rep.bound_achieved == 1.3
    assert rep.certificate is not None
    assert rep.certificate.passed
    assert rep.certificate.delta == 0.3
    assert rep.certificate.m == 10
    assert rep.status == "ok"
    assert rep.provenance["mode"] == "positive-only"


def test_search_with_geometry_grid():
    rep = dimension_bound_search(1.0, STRIP, [0.5, 0.2], l0_grid=[3], c=1.0)
    assert rep.bound_achieved == 1.2
    assert rep.status == "ok"
    assert rep.certificate.m == 16
    assert rep.certificate.l0 == 3


def test_search_can_fail_honestly():
    rep = dimension_bound_search(1.0, STRIP, [0.01], m_grid=[5], r_span=10)
    assert rep.bound_achieved is None
    assert rep.certificate is None


def test_search_validation():
    with pytest.raises(ValidationError):
        dimension_bound_search(1.0, STRIP, [], m_grid=[5])
    with pytest.raises(ValidationError):
        dimension_bound_search(1.0, STRIP, [0.5])  # no grids at all


def test_report_json_shape():
    rep = dimension_bound_search(1.0, STRIP, [0.5], m_grid=[10])
    text = report_to_json(rep)
    assert text == report_to_json(rep)
    doc = json.loads(text)
    assert doc["format_version"] == 1
    assert doc["bound_achieved"] == 1.5
    assert list(doc) == sorted(doc)


def test_search_provenance_in_both_modes():
    rep = dimension_bound_search(1.0, STRIP, [0.5, 0.2, 0.2], m_grid=[10, 5, 10],
                                 r_span=12)
    assert rep.provenance == {
        "lambda": [1.0, 0.0],
        "mode": "positive-only",
        "delta_grid": [0.2, 0.2, 0.5],  # sorted, duplicates kept
        "m_grid": [5, 10],
        "r_span": 12,
    }
    rep = dimension_bound_search(1.0, STRIP, [0.5, 0.2], l0_grid=[3, 3], c=1.0)
    assert rep.provenance == {
        "lambda": [1.0, 0.0],
        "mode": "two-sided",
        "delta_grid": [0.2, 0.5],
        "l0_grid": [3],
        "c": 1.0,
        "r_span": 20,
    }
