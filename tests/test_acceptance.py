"""End-to-end acceptance checks, one printed verdict line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines;
each test also enforces its runtime budget.
"""

import cmath
import math
import random
import time

from expdyn import (
    ExternalAddress,
    box_count,
    check_supergrowth,
    cover_iterate,
    dimension_bound_search,
    eval_map,
    horizontal_strip,
    iterate_orbit,
    lambda_membership,
    orbit_derivative_log,
    sample_lambda_set,
    symmetric_strip,
    trace_ray,
    verify_contraction,
)

STRIP = horizontal_strip(0.0, math.pi)
CAL_EPS = [0.1, 0.05, 0.025, 0.0125, 0.01]


def _report(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _lsq_slope(xs, ys):
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def test_criterion_01():
    t0 = time.monotonic()
    rep = check_supergrowth(1.0, 1.0, 15)
    native = [r for r in rep.ratios if r is not None]
    worst = max(abs(r - 1.0) for r in native)
    elapsed = time.monotonic() - t0
    ok = rep.holds and bool(native) and worst <= 1e-12 and elapsed < 1.0
    _report(1, ok, f"{len(native)} native ratios, max |ratio - 1| = {worst:.3g}, "
                   f"{elapsed:.2f}s")


def test_criterion_02():
    t0 = time.monotonic()
    orbit = iterate_orbit(0.2, 0.0, 40)
    final = orbit.points[-1].native
    err = abs(final - 0.259171)
    sg = check_supergrowth(0.2, 0.1, 10)
    elapsed = time.monotonic() - t0
    ok = err <= 1e-6 and not sg.holds and elapsed < 1.0
    _report(2, ok, f"orbit of 0 -> {final.real:.9f} (err {err:.2e}), "
                   f"supergrowth holds = {sg.holds}, {elapsed:.2f}s")


def test_criterion_03():
    t0 = time.monotonic()
    ray = trace_ray(1.0, ExternalAddress.constant(0),
                    [float(t) for t in range(2, 11)], depth=20)
    worst = max(abs(s.point.imag) for s in ray.samples)
    elapsed = time.monotonic() - t0
    ok = worst < 1e-8 and elapsed < 1.0
    _report(3, ok, f"max |Im| = {worst:.3g} over {len(ray.samples)} samples, "
                   f"{elapsed:.2f}s")


def test_criterion_04():
    t0 = time.monotonic()
    s = ExternalAddress((1,), ("constant", 0))
    ray = trace_ray(1.0, s, [50.0], depth=20)
    gap = abs(ray.samples[0].point.imag - 2 * math.pi)
    elapsed = time.monotonic() - t0
    ok = gap < 0.1 and elapsed < 1.0
    _report(4, ok, f"|Im - 2 pi| = {gap:.3g} at t = 50, {elapsed:.2f}s")


def test_criterion_05():
    t0 = time.monotonic()
    rng = random.Random(11)
    ts = [3.0, 4.0, 5.0, 6.0]
    worst = 0.0
    for _ in range(3):
        entries = tuple(rng.randint(-2, 2) for _ in range(12))
        s = ExternalAddress(entries, ("constant", 0))
        ray = trace_ray(1.0, s, ts, depth=25)
        shifted = trace_ray(1.0, s.shift(), [math.exp(t) for t in ts], depth=24)
        for a, b in zip(ray.samples, shifted.samples):
            worst = max(worst, abs(eval_map(1.0, a.point) - b.point))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-6 and elapsed < 5.0
    _report(5, ok, f"max |f(g_s(t)) - g_shift(e^t)| = {worst:.3g} "
                   f"over 3 addresses, {elapsed:.2f}s")


def test_criterion_06():
    t0 = time.monotonic()
    cert = verify_contraction(1.0, STRIP, 0.5, 30, m=10)
    cols = list(range(10, 31))
    bound = dict(cert.per_column)
    logs = [math.log(bound[r]) for r in cols]
    rate = -_lsq_slope(cols, logs)
    elapsed = time.monotonic() - t0
    ok = cert.passed and cert.max_sum < 0.1 and rate >= 0.25 and elapsed < 10.0
    _report(6, ok, f"max_sum = {cert.max_sum:.4g}, fitted decay rate "
                   f"{rate:.3f} per column (needs >= 0.25), {elapsed:.2f}s")


def test_a_certificate_bounds_only_orbits_that_stay_past_m():
    # not the whole trapped set: at the attracting lambda = 0.2 a one-sided
    # certificate for symstrip:1 passes, while an open piece of the basin,
    # whose orbits stay near the fixed point inside |Re z| < M, keeps 849
    # of 861 pixels in the strip to depth 30
    spec = symmetric_strip(1.0)
    cert = verify_contraction(0.2, spec, 0.5, 30, m=10)
    assert cert.passed and cert.max_sum == 0.10160123525459788
    field = sample_lambda_set(0.2, spec, (-2.0, -1.0, 2.0, 1.0), (41, 21), 30)
    assert field.survivor_count("conservative") == 849


def test_criterion_07():
    t0 = time.monotonic()
    run = cover_iterate(1.0, STRIP, 0.5, 5, 10 ** 5, m=10)
    margins = []
    for level in run.levels[1:]:
        budget = (2 * math.pi + 1) / 2 ** level.n
        margins.append(level.total / budget)
        assert level.budget == budget
    elapsed = time.monotonic() - t0
    ok = all(m < 1.0 for m in margins) and len(margins) == 5 and elapsed < 60.0
    _report(7, ok, f"total/budget ratios n=1..5: "
                   f"{', '.join(f'{m:.3g}' for m in margins)}, {elapsed:.2f}s")


def test_criterion_08():
    t0 = time.monotonic()
    deltas = [0.1, 0.2, 0.3, 0.5, 0.7]
    bests = []
    for grid in ([5], [5, 10], [5, 10, 20], [5, 10, 20, 40]):
        rep = dimension_bound_search(1.0, STRIP, deltas, m_grid=grid)
        bests.append(rep.bound_achieved)
    bests_ok = (all(b is not None for b in bests)
                and all(b <= a for a, b in zip(bests, bests[1:])))

    field = sample_lambda_set(1.0, STRIP, (20.0, 0.0, 40.0, math.pi),
                              (512, 512), 6)
    top = field.depth + 1
    surv = [field.point(i % field.nx, i // field.nx)
            for i, v in enumerate(field.data("conservative")) if v == top]
    eps = [2.0, 1.0, 0.5, 0.25, 0.125]
    slopes = []
    for m_cut in (5, 10, 20, 40):
        pts = [p for p in surv if abs(p.real) >= m_cut]
        slopes.append(box_count(pts, eps).slope)
    slopes_ok = (all(b <= a + 1e-12 for a, b in zip(slopes, slopes[1:]))
                 and slopes[2] <= 1.3)
    elapsed = time.monotonic() - t0
    ok = bests_ok and slopes_ok and elapsed < 300.0
    _report(8, ok, f"bests = {bests}, survivor slopes = "
                   f"{[round(s, 4) for s in slopes]} ({len(surv)} survivors), "
                   f"{elapsed:.1f}s")


def test_criterion_09():
    t0 = time.monotonic()
    segment = [complex(i / 1000, 0.0) for i in range(1000)]
    square = [complex(i / 100, j / 100) for i in range(100) for j in range(100)]
    point = [0.3 + 0.4j]
    s_seg = box_count(segment, CAL_EPS).slope
    s_sq = box_count(square, CAL_EPS).slope
    s_pt = box_count(point, CAL_EPS).slope
    elapsed = time.monotonic() - t0
    ok = (abs(s_seg - 1.0) <= 0.05 and abs(s_sq - 2.0) <= 0.05
          and abs(s_pt) <= 0.01 and elapsed < 5.0)
    _report(9, ok, f"segment {s_seg:.3f}, square {s_sq:.3f}, point {s_pt:.3f}, "
                   f"{elapsed:.2f}s")


def test_criterion_10():
    t0 = time.monotonic()
    field = sample_lambda_set(1.0, STRIP, (0.0, 0.0, 8.0, math.pi), (64, 64), 6)
    identical = True
    for policy in ("conservative", "optimistic"):
        want = []
        for iy in range(64):
            for ix in range(64):
                r = lambda_membership(1.0, STRIP, field.point(ix, iy), 6,
                                      policy=policy)
                want.append(7 if r.is_member else r.exit_index)
        identical = identical and field.data(policy) == tuple(want)

    def bounded_orbit(z, n, cap):
        for _ in range(n):
            z = cmath.exp(z)
            if abs(z) > cap:
                raise OverflowError

    rng = random.Random(2026)
    worst = 0.0
    kept = skipped = 0
    h = 1e-6
    while kept < 100:
        z = complex(rng.uniform(-2, 2), rng.uniform(-3, 3))
        n = rng.randint(1, 5)
        try:
            bounded_orbit(z, n, 6.0)

            def fn(w):
                for _ in range(n):
                    w = cmath.exp(w)
                return w

            d_h = (fn(z + h) - fn(z - h)) / (2 * h)
            d_h2 = (fn(z + h / 2) - fn(z - h / 2)) / h
            rich = (4.0 * d_h2 - d_h) / 3.0
            approx = math.log(abs(rich))
            exact = orbit_derivative_log(1.0, z, n)
        except OverflowError:
            skipped += 1
            continue
        rel = abs(approx - exact) / max(1.0, abs(exact))
        worst = max(worst, rel)
        kept += 1
    elapsed = time.monotonic() - t0
    ok = identical and worst < 1e-5 and elapsed < 10.0
    _report(10, ok, f"64x64 field bit-identical = {identical}, finite-difference "
                    f"worst rel err = {worst:.3g} ({kept} kept, {skipped} skipped), "
                    f"{elapsed:.2f}s")
