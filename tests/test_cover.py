"""Iterated covers: masses in runs of columns, zero bounds skipped.

`cover_iterate` keeps each level's masses as runs of consecutive columns,
with a window's columns up to floor(E) as one count and one value, takes
negative columns in bands of one level and stops its positive loop at the
first column where `_bound_vanishes` holds.  These tests pin totals and
cell counts taken from the loop that evaluated every column, and compare
against a copy of that loop, which keeps one dict of masses.
"""

import cmath
import math
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from expdyn import (
    GeometryError,
    NumericRangeError,
    cover_iterate,
    horizontal_strip,
    induced,
    negative_geometry,
)

STRIP = horizontal_strip(0.0, math.pi)
# a strip this tall has a cone constant that starts every image window at
# column M, so the negative columns -M-1, -M-2, ... cross several level bands
TALL_STRIP = horizontal_strip(-1e12, 1e12)
# a zero-height strip: the smallest width, so the smallest n_sup
POINT_STRIP = horizontal_strip(1.0, 1.0)
GEOMETRIES = ((1.0, 1.0, 3), (2.0, 1.0, 2), (0.65, 0.65, 4), (0.9, 0.5, 3))


def reference_cover(lam, spec, delta, depth, cap, m=None, geometry=None,
                    distortion_allowance=1.2):
    """cover_iterate as one bound per column with mass: the loop before the
    band and cut skips.  Returns (total, cells, tail_mass) per depth n >= 1
    and the source masses of each depth."""
    lam = complex(lam)
    if geometry is not None:
        m = geometry.m
    two_sided = geometry is not None
    sides = 2.0 if two_sided else 1.0
    scale = (2.0 * math.pi + 1.0) ** (1.0 + delta)
    masses = {m: 1.0}
    tail_mass, tail_col = 0.0, math.inf
    rows, sources = [], []
    for _ in range(depth):
        sources.append(dict(masses))
        new, new_tail, new_tail_col, cells = {}, 0.0, math.inf, 0.0
        if tail_mass > 0.0 and tail_col != math.inf:
            ps = induced._positive_column_sum(lam, spec, tail_col, delta, float(m), sides)
            new_tail += tail_mass * ps
            new_tail_col = tail_col
        for col in sorted(masses):
            mass = masses[col]
            if col <= -m:
                lvl = geometry.level_of_column(col)
                nb = induced._negative_level_bound(
                    lam, spec, geometry, lvl, delta, distortion_allowance)
                if mass * nb > 0.0:
                    new[m] = new.get(m, 0.0) + mass * nb
                    cells += 1.0
                continue
            ps = induced._positive_column_sum(lam, spec, float(col), delta, float(m), sides)
            if mass * ps == 0.0:
                continue
            log_e, n_sup = induced._column_terms(lam, spec, col)
            if log_e > induced._EXP_NATIVE:
                new_tail += mass * ps
                new_tail_col = min(new_tail_col, induced._HUGE_COLUMN)
                cells += 1.0
                continue
            e = math.exp(log_e)
            e1 = math.exp(log_e + 1.0)
            inner = max(float(m), e / spec.cone_constant - 2.0)
            s_start = max(math.ceil(inner), m)
            s_stop_full = math.floor(e1) + 2
            s_stop = min(s_stop_full, s_start + cap)
            inner_term = e ** -(1.0 + delta)
            for s in range(s_start, s_stop):
                term = inner_term if s <= e else float(s) ** -(1.0 + delta)
                w = mass * n_sup * term
                if w == 0.0:
                    continue
                new[s] = new.get(s, 0.0) + w
                if two_sided:
                    new[-s - 1] = new.get(-s - 1, 0.0) + w
                cells += sides
            if s_stop < s_stop_full:
                rem = n_sup * induced._tail(float(s_stop), e1, delta) * sides
                if mass * rem > 0.0:
                    new_tail += mass * rem
                    new_tail_col = min(new_tail_col, float(s_stop))
        masses, tail_mass, tail_col = new, new_tail, new_tail_col
        total = scale * (math.fsum(masses.values()) + tail_mass)
        rows.append((total, cells, scale * tail_mass))
    return rows, sources


def _rows(run):
    return [(lv.total, lv.cells, lv.tail_mass) for lv in run.levels[1:]]


def _reference_rows(monkeypatch, *args, **kwargs):
    """The reference loop with the log branch's short-circuit switched off,
    so every column bound comes from evaluating exp."""
    with monkeypatch.context() as mp:
        mp.setattr(induced, "_EXP_ZERO", -math.inf)
        return reference_cover(*args, **kwargs)


# ---------------------------------------------------------------------------
# pinned totals (repr) and cells at depths 1..3, taken from the loop that
# evaluated every column; delta 0.5, branch cap 300

ONE_SIDED_PINS = [
    (1.0, ["6.497664025329082", "7.864312276762854e-07", "3.0797665328975492e-77"],
     [300.0, 90000.0, 0.0]),
    (-1.0, ["6.497664025329082", "7.864312276762854e-07", "3.0797665328975492e-77"],
     [300.0, 90000.0, 0.0]),
    (1 + 0.3j, ["6.337771854895048", "2.6542374384047646e-07", "3.7423612656709356e-78"],
     [300.0, 90000.0, 0.0]),
    (0.9, ["6.860817713400571", "4.351284159834412e-06", "8.049982907028356e-76"],
     [300.0, 90000.0, 0.0]),
]
TWO_SIDED_PINS = [
    ((1.0, 1.0, 3), ["0.1095073669593123", "0.0", "0.0"], [600.0, 0.0, 0.0]),
    ((2.0, 1.0, 2), ["0.1276611419989653", "0.0", "0.0"], [600.0, 0.0, 0.0]),
    ((0.65, 0.65, 4), ["6.498312259418082", "2.4087075978945875e-31",
                       "3.041010644946868e-125"], [600.0, 180000.0, 0.0]),
    # the n = 2 total is subnormal
    ((0.9, 0.5, 3), ["3.3962256773223367", "3.3763311096286e-311", "0.0"],
     [600.0, 53.0, 0.0]),
]


@pytest.mark.parametrize("lam, totals, cells", ONE_SIDED_PINS)
def test_one_sided_cover_totals_are_pinned(lam, totals, cells):
    run = cover_iterate(lam, STRIP, 0.5, 3, 300, m=5)
    assert [repr(lv.total) for lv in run.levels[1:]] == totals
    assert [lv.cells for lv in run.levels[1:]] == cells


@pytest.mark.parametrize("params, totals, cells", TWO_SIDED_PINS)
def test_two_sided_cover_totals_are_pinned(params, totals, cells):
    lam = params[0]
    run = cover_iterate(lam, STRIP, 0.5, 3, 300, geometry=negative_geometry(*params))
    assert [repr(lv.total) for lv in run.levels[1:]] == totals
    assert [lv.cells for lv in run.levels[1:]] == cells


# ---------------------------------------------------------------------------
# the same bits as the loop over every column


@pytest.mark.parametrize("lam, spec, m", [
    (1.0, STRIP, 5), (0.9, STRIP, 5), (1 + 0.3j, TALL_STRIP, 3), (-1.0, POINT_STRIP, 4),
])
def test_one_sided_cover_matches_the_per_column_loop(monkeypatch, lam, spec, m):
    want, _ = _reference_rows(monkeypatch, lam, spec, 0.5, 3, 40, m=m)
    assert _rows(cover_iterate(lam, spec, 0.5, 3, 40, m=m)) == want


@pytest.mark.parametrize("params", GEOMETRIES)
@pytest.mark.parametrize("delta", [0.2, 0.5])
def test_two_sided_cover_matches_the_per_column_loop(monkeypatch, params, delta):
    geo = negative_geometry(*params)
    want, _ = _reference_rows(monkeypatch, params[0], STRIP, delta, 3, 40, geometry=geo)
    assert _rows(cover_iterate(params[0], STRIP, delta, 3, 40, geometry=geo)) == want


@pytest.mark.parametrize("params", GEOMETRIES)
def test_negative_bands_take_one_bound_per_level(monkeypatch, params):
    # no real geometry gives negative columns a nonzero bound, so substitute
    # one that differs from level to level
    geo = negative_geometry(*params)
    calls = []

    def level_bound(lam, spec, geometry, l, delta, distortion_allowance):
        calls.append(l)
        return 1e-3 * (l - geometry.l0 + 1) ** 2

    monkeypatch.setattr(induced, "_negative_level_bound", level_bound)
    want, sources = _reference_rows(monkeypatch, params[0], TALL_STRIP, 0.5, 3, 40,
                                    geometry=geo)
    calls.clear()
    got = _rows(cover_iterate(params[0], TALL_STRIP, 0.5, 3, 40, geometry=geo))
    assert got == want
    assert any(total > 0.0 for total, _, _ in want)
    # one call per band: the distinct levels of each depth's negative columns
    bands = []
    for masses in sources:
        levels = [geo.level_of_column(c) for c in sorted(masses) if c <= -geo.m]
        bands += sorted(set(levels), reverse=True)
    assert calls == bands
    # some depth's negative columns cross more than one level band
    assert len(bands) > len(sources)


def test_a_column_below_the_computed_bands_still_raises(monkeypatch):
    # negative_geometry's deepest band reaches sigma = -inf, so keep the
    # bands of levels 3 and 4 alone: a finite floor at sigma_5
    geo = negative_geometry(1.0, 1.0, 3)
    geo = geo._replace(sigmas=geo.sigmas[:3])
    assert geo.sigmas[-1] > -math.inf
    with pytest.raises(GeometryError, match="below the deepest") as want:
        _reference_rows(monkeypatch, 1.0, STRIP, 0.5, 2, 300, geometry=geo)
    with pytest.raises(GeometryError, match="below the deepest") as got:
        cover_iterate(1.0, STRIP, 0.5, 2, 300, geometry=geo)
    assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# masses as runs of columns


def _runs(columns):
    """Maximal runs [lo, hi) of consecutive columns."""
    runs = []
    for c in sorted(columns):
        if runs and runs[-1][1] == c:
            runs[-1][1] = c + 1
        else:
            runs.append([c, c + 1])
    return runs


def _window(lam, spec, col, m, cap):
    """[s_start, s_stop) of the image window of positive column col."""
    log_e = induced._column_terms(lam, spec, col)[0]
    e = math.exp(log_e)
    s_start = max(math.ceil(max(float(m), e / spec.cone_constant - 2.0)), m)
    return s_start, min(math.floor(math.exp(log_e + 1.0)) + 2, s_start + cap)


def _record_sources(monkeypatch):
    """The positive source columns cover_iterate evaluates, in order: those
    where its cut test _bound_vanishes does not hold.  The test gets log E,
    which is the column itself at lambda = 1."""
    seen = []
    vanishes = induced._bound_vanishes

    def recording(log_e, n_sup, delta, sides):
        cut = vanishes(log_e, n_sup, delta, sides)
        if not cut and sys._getframe(1).f_code is induced.cover_iterate.__code__:
            seen.append(log_e)
        return cut

    monkeypatch.setattr(induced, "_bound_vanishes", recording)
    return seen


def _source_columns(lam, spec, delta, m, sides, sources):
    """The positive columns of each depth's masses, up to the cut."""
    want = []
    for masses in sources:
        for c in sorted(c for c in masses if c > 0):
            terms = induced._column_terms(lam, spec, c)
            if induced._bound_vanishes(*terms, delta, sides):
                break
            want.append(float(c))
    return want


def _expand(n, v, vals):
    return [v] * n + vals


def test_deposits_match_a_dict_of_masses():
    rng = random.Random(5)
    for _ in range(200):
        runs, masses, start, windows = [], {}, 0, []
        for _ in range(rng.randrange(1, 12)):
            # starts never decrease; a window may start inside the last
            # run, right after it or past it, and end anywhere after it;
            # its flat prefix or its tail may be empty
            start += rng.choice([0, 0, 1, 2, 3, 7, 40])
            n = rng.choice([0, 0, 1, 5, 30])
            v = rng.uniform(0.0, 1.0) * 10.0 ** rng.randrange(-20, 3)
            tail = [v * rng.uniform(0.0, 1.0) ** (i + 1)
                    for i in range(rng.randrange(0 if n else 1, 30))]
            windows.append((tail, list(tail)))
            flat_run = not runs or start >= runs[-1][0] + runs[-1][1] + len(runs[-1][3])
            induced._deposit(runs, start, (n, v, tail))
            if flat_run:  # a window that opens a run keeps its flat prefix
                assert runs[-1][:3] == (start, n, v)
            for s, w in enumerate(_expand(n, v, tail), start):
                masses[s] = masses.get(s, 0.0) + w
        # the runs do not share a list with any window
        assert all(tail == kept for tail, kept in windows)
        assert not {id(vals) for *_, vals in runs} & {id(tail) for tail, _ in windows}
        got = {}
        for lo, n, v, vals in runs:
            got.update(enumerate(_expand(n, v, vals), lo))
        assert got == masses
        # the runs hold each column once, in order
        columns = [c for lo, n, _, vals in runs for c in range(lo, lo + n + len(vals))]
        assert columns == sorted(masses)


def test_window_weights_are_the_per_column_products():
    rng = random.Random(11)
    partial = flat = mixed = 0
    for _ in range(300):
        e = math.exp(rng.uniform(0.0, 12.0))
        power = -(1.0 + rng.uniform(0.01, 0.99))
        # every other k puts the first weights a few steps above the
        # smallest subnormal, so that the window ends in underflows
        k = rng.uniform(1.0, 4.0) * 10.0 ** -rng.randrange(0, 300)
        if rng.random() < 0.5:
            k = rng.uniform(1.0, 8.0) * 5e-324 * e ** -power
        s_start = max(math.ceil(e / rng.uniform(1.0, 6.0) - 2.0), 1)
        s_stop = min(math.floor(e * math.e) + 2, s_start + rng.randrange(1, 400))
        want = [k * (e ** power if s <= e else float(s) ** power)
                for s in range(s_start, s_stop)]
        n, v, tail = induced._window_weights(k, e, s_start, s_stop, power)
        got = _expand(n, v, tail)
        assert got == want[:len(got)]
        assert not any(want[len(got):])
        # no weight before the cut is 0.0, so every one is a cell
        assert 0.0 not in got
        # the flat prefix is every column up to floor(E) when any weight is
        # nonzero
        if got:
            assert n == len(range(s_start, min(math.floor(e) + 1, s_stop)))
        partial += 0 < len(got) < len(want)
        flat += n > 0
        mixed += n > 0 and len(tail) > 0
    assert partial >= 3 and flat >= 100 and mixed >= 10
    # an empty window has no weights, nor does one whose first weight is 0.0
    assert induced._window_weights(1.0, 3.0, 5, 2, -1.5) == (0, 0.0, [])
    assert induced._window_weights(1.0, 3.0, 5, 5, -1.5) == (0, 0.0, [])
    assert induced._window_weights(5e-324, 3.0, 1, 9, -1.5) == (0, 0.0, [])


def test_overlapping_windows_match_the_per_column_loop(monkeypatch):
    delta, m, cap = 0.5, 3, 40
    want, sources = _reference_rows(monkeypatch, 1.0, STRIP, delta, 3, cap, m=m)
    # several native source columns at depth 2 whose windows overlap
    windows = [_window(1.0, STRIP, c, m, cap) for c in sorted(sources[1])]
    assert len(windows) > 10
    assert sum(b[0] < a[1] for a, b in zip(windows, windows[1:])) >= 2
    seen = _record_sources(monkeypatch)
    assert _rows(cover_iterate(1.0, STRIP, delta, 3, cap, m=m)) == want
    assert seen == _source_columns(1.0, STRIP, delta, m, 1.0, sources)


def test_windows_split_by_the_branch_cap_match_the_per_column_loop(monkeypatch):
    delta, m, cap = 0.5, 3, 5
    want, sources = _reference_rows(monkeypatch, 1.0, STRIP, delta, 4, cap, m=m)
    # the cap leaves columns between windows that hold no mass
    assert [len(_runs(masses)) for masses in sources] == [1, 1, 5, 25]
    seen = _record_sources(monkeypatch)
    assert _rows(cover_iterate(1.0, STRIP, delta, 4, cap, m=m)) == want
    assert seen == _source_columns(1.0, STRIP, delta, m, 1.0, sources)
    assert len(seen) > 30


def test_a_level_band_across_negative_runs_takes_one_bound(monkeypatch):
    geo = negative_geometry(0.65, 0.65, 4)
    calls = []

    def level_bound(lam, spec, geometry, l, delta, distortion_allowance):
        calls.append(l)
        return 1e-3 * (l - geometry.l0 + 1) ** 2

    monkeypatch.setattr(induced, "_negative_level_bound", level_bound)
    want, sources = _reference_rows(monkeypatch, 0.65, STRIP, 0.5, 3, 40, geometry=geo)
    negative = [[c for c in masses if c < 0] for masses in sources]
    # depth 3 draws on 40 negative runs, all in the band of level 7
    assert len(_runs(negative[2])) == 40
    assert {geo.level_of_column(c) for c in negative[2]} == {7}
    calls.clear()
    assert _rows(cover_iterate(0.65, STRIP, 0.5, 3, 40, geometry=geo)) == want
    assert calls == [6, 7]
    assert want[2][1] > 0.0


@pytest.mark.parametrize("lam, kwargs", [
    (1.0, {"m": 5}),
    (0.65, {"geometry": negative_geometry(0.65, 0.65, 4)}),
])
def test_the_cell_limit_stops_at_the_same_depth(monkeypatch, lam, kwargs):
    want, _ = _reference_rows(monkeypatch, lam, STRIP, 0.5, 3, 300, **kwargs)
    limit = 1000.0
    depth = next(n for n, row in enumerate(want, 1) if row[1] > limit)
    assert depth == 2
    monkeypatch.setattr(induced, "_CELL_LIMIT", limit)
    with pytest.raises(NumericRangeError, match=f"at depth {depth} would pass 1000 cells"):
        cover_iterate(lam, STRIP, 0.5, 3, 300, **kwargs)
    # the depths before it stay under the limit
    assert _rows(cover_iterate(lam, STRIP, 0.5, depth - 1, 300, **kwargs)) == want[:depth - 1]


def test_a_window_far_from_m_stores_only_its_own_columns():
    # the depth-1 window starts near e^15 / K = 6.4e5; storing every column
    # from M on would take megabytes
    tracemalloc.start()
    try:
        run = cover_iterate(1.0, STRIP, 0.5, 2, 1000, m=15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.levels[1].cells == 1000.0
    assert peak < 1 << 20


def test_a_flat_window_is_one_count_and_one_value():
    # the depth-1 window holds 10^6 columns, all up to floor(E), so they
    # share one weight; a list of them would take 8 MB
    tracemalloc.start()
    try:
        run = cover_iterate(1.0, STRIP, 0.5, 2, 10 ** 6, m=16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.levels[1].cells == 1e6
    assert peak < 64 << 10


# ---------------------------------------------------------------------------
# every window shape against the per-column loop

# (lam, m, branch cap, depth) of one-sided covers, by the window shape
# they hold
WINDOW_SHAPES = {
    "flat": (1.0, 16, 3000, 2),
    "pow": (0.05, 4, 300, 2),
    "mixed": (0.1, 10, 3000, 2),
    "overlap": (1.0, 3, 40, 3),
    "cap": (1.0, 3, 5, 3),
}
# the cells of the per-column loop's run, over all depths, stay within
# this, so that it takes well under a second
_REFERENCE_CELLS = 2e5


@pytest.mark.parametrize("shape", WINDOW_SHAPES)
def test_each_window_shape_is_reached(monkeypatch, shape):
    lam, m, cap, depth = WINDOW_SHAPES[shape]
    windows, overlaps = [], []
    window_weights, deposit = induced._window_weights, induced._deposit

    def recording_window(*args):
        windows.append(window_weights(*args))
        return windows[-1]

    def recording_deposit(runs, start, window):
        if runs:
            lo, n, _, vals = runs[-1]
            overlaps.append(start < lo + n + len(vals))
        deposit(runs, start, window)

    monkeypatch.setattr(induced, "_window_weights", recording_window)
    monkeypatch.setattr(induced, "_deposit", recording_deposit)
    run = cover_iterate(lam, STRIP, 0.5, depth, cap, m=m)
    flat = [n > 0 for n, _, tail in windows]
    powers = [len(tail) for _, _, tail in windows]
    reached = {
        "flat": all(flat) and not any(powers),
        "pow": any(not f and p > 1 for f, p in zip(flat, powers)),
        "mixed": any(f and p > 0 for f, p in zip(flat, powers)),
        "overlap": any(overlaps),
        "cap": any(lv.tail_mass > 0.0 for lv in run.levels),
    }
    assert windows and reached[shape]


def _lam(modulus, kind, arg):
    if kind == "negative":
        return -modulus
    return cmath.rect(modulus, arg) if kind == "complex" else modulus


def _shape_example(shape):
    lam, m, cap, depth = WINDOW_SHAPES[shape]
    return example(modulus=lam, kind="real", arg=0.0, delta=0.5, m=m, cap=cap,
                   depth=depth, params=None, level_bound=False)


@settings(max_examples=200, deadline=None)
@given(modulus=st.floats(0.05, 3.0), kind=st.sampled_from(["real", "negative", "complex"]),
       arg=st.floats(-math.pi, math.pi),
       delta=st.floats(0.01, 0.99, exclude_min=True, exclude_max=True),
       m=st.integers(1, 16), cap=st.integers(1, 3000), depth=st.integers(1, 3),
       params=st.sampled_from((None,) + GEOMETRIES), level_bound=st.booleans())
@_shape_example("flat")
@_shape_example("pow")
@_shape_example("mixed")
@_shape_example("overlap")
@_shape_example("cap")
@example(modulus=0.65, kind="real", arg=0.0, delta=0.5, m=1, cap=40, depth=3,
         params=(0.65, 0.65, 4), level_bound=True)
def test_cover_matches_the_per_column_loop_bit_for_bit(
        modulus, kind, arg, delta, m, cap, depth, params, level_bound):
    """repr(total), cells and repr(tail_mass) at each depth; a two-sided
    run takes the geometry's lambda and M, and may take a level bound that
    is not 0.0 (no real geometry gives one)."""
    if params is None:
        lam, kwargs = _lam(modulus, kind, arg), {"m": m}
    else:
        lam, kwargs = params[0], {"geometry": negative_geometry(*params)}
    with pytest.MonkeyPatch.context() as mp:
        if params is not None and level_bound:
            mp.setattr(induced, "_negative_level_bound",
                       lambda lam, spec, geometry, l, delta, distortion_allowance:
                       1e-3 * (l - geometry.l0 + 1) ** 2)
        # the depths before the cell limit, and then those whose cells keep
        # the per-column loop quick
        while True:
            try:
                got = _rows(cover_iterate(lam, STRIP, delta, depth, cap, **kwargs))
                break
            except NumericRangeError:
                depth -= 1
        while depth > 1 and sum(row[1] for row in got[:depth]) > _REFERENCE_CELLS:
            depth -= 1
        want, _ = _reference_rows(mp, lam, STRIP, delta, depth, cap, **kwargs)
    assert [(repr(t), c, repr(tm)) for t, c, tm in got[:depth]] == [
        (repr(t), c, repr(tm)) for t, c, tm in want]


# ---------------------------------------------------------------------------
# a flat prefix in the level total

SUBNORMALS = st.floats(5e-324, 2.225073858507201e-308)
_MAX = sys.float_info.max
# half a unit in the last place of the largest double
_HALF_ULP = Fraction(2) ** 970


def _fsum(terms):
    """The hex of math.fsum(terms()), or the name of the error that building
    or summing the terms raised."""
    try:
        return math.fsum(terms()).hex()
    except OverflowError:
        return "OverflowError"


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 10 ** 5), v=st.floats(5e-324, 1e300) | SUBNORMALS,
       rest=st.lists(st.floats(0.0, 1e300) | SUBNORMALS, max_size=8))
@example(n=10 ** 5, v=5e-324, rest=[])
@example(n=10 ** 5 - 1, v=0.1, rest=[5e-324, 1e-17])
def test_flat_terms_sum_as_the_copies(n, v, rest):
    assert math.fsum([v] * n + rest).hex() == math.fsum(induced._flat_terms(n, v) + rest).hex()


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 10 ** 5), scale=st.floats(1.0 - 1e-11, 1.0 + 1e-11))
def test_flat_terms_overflow_only_past_the_largest_double(n, scale):
    v = min(_MAX / n * scale, _MAX)
    exact = Fraction(v) * n
    copies = _fsum(lambda: [v] * n)
    terms = _fsum(lambda: induced._flat_terms(n, v))
    if exact <= _MAX:
        assert copies == terms != "OverflowError"
    elif exact >= _MAX + _HALF_ULP:
        assert copies == terms == "OverflowError"
    else:
        assert {copies, terms} <= {_MAX.hex(), "OverflowError"}


def test_flat_terms_can_overflow_where_the_copies_round_down():
    # the exact sum is inside the half unit above the largest double: the
    # copies round to it, and a partial sum of the terms overflows
    n, v = 87069, float.fromhex("0x1.8160a2acdaab1p+1007")
    assert _MAX < Fraction(v) * n < _MAX + _HALF_ULP
    assert _fsum(lambda: [v] * n) == _MAX.hex()
    assert _fsum(lambda: induced._flat_terms(n, v)) == "OverflowError"
    # past it a term can overflow: ldexp raises
    with pytest.raises(OverflowError, match="math range error"):
        induced._flat_terms(2, 2.0 ** 1023)
    assert _fsum(lambda: [2.0 ** 1023] * 2) == "OverflowError"


# ---------------------------------------------------------------------------
# the cut after the last nonzero positive column


def _first_cut(lam, spec, delta, m, sides):
    r = m
    while not induced._bound_vanishes(
            *induced._column_terms(lam, spec, r), delta, sides):
        r += 1
    return r


@pytest.mark.parametrize("lam, spec, delta, sides", [
    (1.0, STRIP, 0.5, 1.0),
    (0.9, STRIP, 0.1, 2.0),
    (1 + 0.3j, TALL_STRIP, 0.9, 2.0),
    (-1.0, STRIP, 0.01, 1.0),
    (2.0, POINT_STRIP, 0.3, 1.0),
])
def test_every_column_from_the_cut_on_bounds_to_zero(monkeypatch, lam, spec, delta, sides):
    m = 5
    cut = _first_cut(lam, spec, delta, m, sides)
    first_zero = m
    while induced._positive_column_sum(lam, spec, float(first_zero), delta,
                                       float(m), sides) != 0.0:
        first_zero += 1
    # exp rounds to 0.0 below about -745.13, the cut waits for -746: at
    # most 0.87 / delta columns in between still get evaluated
    assert first_zero <= cut <= first_zero + 1 + 0.9 / delta
    columns = range(cut, cut + 2001)
    for r in columns:
        terms = induced._column_terms(lam, spec, r)
        assert induced._bound_vanishes(*terms, delta, sides)
        assert induced._positive_column_sum(lam, spec, float(r), delta, float(m), sides) == 0.0
    # evaluating exp gives the same 0.0, so the short-circuit moves no value
    monkeypatch.setattr(induced, "_EXP_ZERO", -math.inf)
    for r in columns:
        assert induced._positive_column_sum(lam, spec, float(r), delta, float(m), sides) == 0.0


def test_the_positive_loop_stops_at_the_cut(monkeypatch):
    # delta puts the cut inside the depth-1 window of columns 1574..1593
    delta, m = 0.473, 9
    cut = _first_cut(1.0, STRIP, delta, m, 1.0)
    want, sources = _reference_rows(monkeypatch, 1.0, STRIP, delta, 2, 20, m=m)
    assert min(sources[1]) < cut <= max(sources[1])
    seen = _record_sources(monkeypatch)
    assert _rows(cover_iterate(1.0, STRIP, delta, 2, 20, m=m)) == want
    assert seen == [float(c) for masses in sources for c in sorted(masses) if c < cut]


def test_bound_vanishes_only_below_the_exponent_limit():
    # sides * n_sup = 1 makes the exponent -delta log E exactly
    assert induced._EXP_ZERO == -746.0
    assert not induced._bound_vanishes(1492.0, 0.5, 0.5, 2.0)
    assert induced._bound_vanishes(math.nextafter(1492.0, math.inf), 0.5, 0.5, 2.0)
    # below log E + 1 = _EXP_NATIVE the bound is never taken to vanish,
    # whatever lead is
    assert not induced._bound_vanishes(688.0, 1e-300, 0.5, 1.0)


# ---------------------------------------------------------------------------
# budgets


def test_cover_budget_past_depth_1023():
    run = cover_iterate(1.0, STRIP, 0.5, 1100, 5, m=10)
    assert len(run.levels) == 1101
    budgets = [lv.budget for lv in run.levels]
    assert budgets[:1024] == [(2.0 * math.pi + 1.0) / 2 ** n for n in range(1024)]
    assert 0.0 < budgets[1077] < budgets[1076] and budgets[1078:] == [0.0] * 23
