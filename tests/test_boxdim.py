"""Box counting and the certified dimension-bound search."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from expdyn import boxdim, induced
from expdyn import (
    NumericRangeError,
    ValidationError,
    box_count,
    certificate_to_json,
    dimension_bound_search,
    horizontal_strip,
    report_to_json,
    verify_contraction,
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


def test_least_squares_fit_has_the_same_bits_on_every_interpreter():
    # builtin sum of ten 0.1s is 0.9999999999999999 before Python 3.12 and
    # 1.0 from 3.12 on; correctly rounded sums give 1.0 on both, so flat
    # data fits exactly, and box-count data keeps its last bits
    xs = [float(i) for i in range(10)]
    assert boxdim._lsq_fit(xs, [0.1] * 10) == (0.0, 1.0)
    logs = [math.log(1 / e) for e in (0.1, 0.05, 0.02, 0.01)]
    counts = [math.log(n) for n in (7, 15, 41, 77)]
    assert boxdim._lsq_fit(logs, counts) == (1.0490469928686925, 0.9983792565983856)


def test_box_counts_are_pinned_with_and_without_anchor_offset():
    # the grid is anchored at the points' bounding-box corner, always
    pts = [complex(3.7 + i / 997.0, -1.2 + 0.3 * math.sin(0.37 * i)) for i in range(2000)]
    res = box_count(pts, EPS)
    assert res.counts == (125, 362, 1083, 1737, 1862)
    assert res.slope == 1.1870782814954444
    with pytest.raises(TypeError, match="anchor_offset"):
        box_count(pts, EPS, anchor_offset=(0.3, 0.7))


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
    for eps in ([1.0, math.nan, 0.01], [1.0, 0.1, math.nan], [math.inf, 1.0, 0.01]):
        with pytest.raises(ValidationError, match="scales must be finite"):
            box_count(seg, eps)


@pytest.mark.parametrize("bad", [complex(math.nan, 0.5), complex(0.5, math.nan),
                                 complex(math.inf, 0.5), complex(0.5, -math.inf)])
def test_box_count_rejects_non_finite_points(bad):
    seg = [complex(i / 100.0, 0.0) for i in range(100)]
    with pytest.raises(ValidationError, match="points must be finite"):
        box_count(seg[:50] + [bad] + seg[50:], EPS)



def test_box_count_rejects_a_spread_past_the_float_range():
    with pytest.raises(ValidationError, match="spread too wide for scale 0.1"):
        box_count([complex(1e308, 0.0), complex(-1e308, 0.0), 0j], EPS)
    with pytest.raises(ValidationError, match="spread too wide for scale 0.01"):
        box_count([complex(0.0, 1e306), complex(0.0, -1e306), 0j], EPS)


@settings(max_examples=30)
@given(st.lists(st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                                   allow_infinity=False),
                min_size=1, max_size=60))
def test_counts_never_decrease_as_scale_shrinks(points):
    # halving the scale divides offsets by 2^k exactly, so each finer box
    # lies in one coarser box and no count can fall
    res = box_count(points, [1.0, 0.5, 0.25, 0.125, 0.0625])
    assert all(b >= a for a, b in zip(res.counts, res.counts[1:]))
    assert res.counts[0] >= 1


def _tuple_key_counts(points, eps):
    """Box counts keyed by (column, row) tuples, and the scale at which a
    box index first leaves the float range (None if none does)."""
    x0 = min(p.real for p in points)
    y0 = min(p.imag for p in points)
    counts = []
    for e in eps:
        try:
            counts.append(len({(math.floor((p.real - x0) / e), math.floor((p.imag - y0) / e))
                               for p in points}))
        except OverflowError:
            return counts, e
    return counts, None


_COORDS = st.floats(-1.0, 1.0) | st.floats(-1e300, 1e300)


@settings(max_examples=60)
@given(st.lists(st.builds(complex, _COORDS, _COORDS), min_size=1, max_size=40),
       st.sampled_from([[1.0, 0.25, 0.1, 0.03, 0.01], [1.0, 1e-3, 1e-6, 1e-9, 1e-12]]))
def test_integer_keys_count_what_tuple_keys_count(points, eps):
    # spreads near 1e300 make keys far past 64 bits, and past 1e308 / e a
    # box index leaves the float range
    counts, overflow_at = _tuple_key_counts(points, eps)
    if overflow_at is not None:
        with pytest.raises(ValidationError, match=f"spread too wide for scale {overflow_at:g}$"):
            box_count(points, eps)
    else:
        assert box_count(points, eps).counts == tuple(counts)


def test_counts_can_fall_between_scales_whose_grids_are_not_nested():
    # boxes of 0.1 do not refine boxes of 0.25: the 0.25 grid splits these
    # three points into 3 boxes and the finer 0.1 grid into 2
    res = box_count([0j, 0.0625j, -1.21875j], [1.0, 0.5, 0.25, 0.1, 0.05])
    assert res.counts == (2, 2, 3, 2, 3)


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
    with pytest.raises(TypeError, match="boxcount"):
        dimension_bound_search(1.0, STRIP, [0.5], m_grid=[5], boxcount=None)


def test_report_json_shape():
    rep = dimension_bound_search(1.0, STRIP, [0.5], m_grid=[10])
    text = report_to_json(rep)
    assert text == report_to_json(rep)
    doc = json.loads(text)
    assert doc["format_version"] == 1
    assert doc["bound_achieved"] == 1.5
    assert list(doc) == sorted(doc)


@pytest.mark.parametrize("kwargs", [
    {"m_grid": [10, 12]},
    {"l0_grid": [3], "c": 1.0},
])
def test_report_json_holds_the_certificate_document(kwargs):
    rep = dimension_bound_search(1.0, STRIP, [0.5, 0.2], **kwargs)
    text = report_to_json(rep)
    # the same bytes as a report that parses the certificate writer's output
    doc = json.loads(text)
    doc["certificate"] = json.loads(certificate_to_json(rep.certificate))
    assert json.dumps(doc, indent=2, sort_keys=True) == text


def test_report_json_refuses_a_certificate_bound_that_is_not_finite():
    cert = verify_contraction(1.0, horizontal_strip(0.0, 1e308), 0.5, 12,
                              m=10, enumerate_rectangles=False)
    rep = boxdim.DimensionReport(cert, 1.5, {}, "ok")
    with pytest.raises(NumericRangeError, match="not finite"):
        report_to_json(rep)


def test_search_provenance_in_both_modes():
    rep = dimension_bound_search(1.0, STRIP, [0.5, 0.2, 0.2], m_grid=[10, 5, 10],
                                 r_span=12)
    assert rep.provenance == {
        "lambda": [1.0, 0.0],
        "mode": "positive-only",
        "delta_grid": [0.2, 0.5],  # sorted and deduplicated, like the M grid
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


def test_search_verifies_each_grid_point_once(monkeypatch):
    seen = []
    verify = induced.verify_contraction

    def counted(lam, spec, delta, r_max, **kw):
        seen.append((kw["m"], delta))
        return verify(lam, spec, delta, r_max, **kw)

    monkeypatch.setattr(induced, "verify_contraction", counted)
    rep = dimension_bound_search(1.0, STRIP, [0.5, 0.2, 0.2, 0.5], m_grid=[5, 5])
    assert rep.provenance["delta_grid"] == [0.2, 0.5]
    # 0.2 fails at M = 5, so the scan goes on to 0.5, each once
    assert seen == [(5, 0.2), (5, 0.5)]


@pytest.mark.parametrize("m", [0, -3])
def test_search_rejects_m_below_one(m):
    with pytest.raises(ValidationError, match="need M >= 1"):
        dimension_bound_search(1.0, STRIP, [0.5], m_grid=[10, m])
