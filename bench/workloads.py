"""Seeded workload generator.

Each workload is a fixed grid of cells over the parameters that drive an
op's cost (depth, branch cap, tile location, command type).  Every cell
holds VARIANTS pre-drawn ops that differ in everything else.  A run's
seed picks one variant per cell and shuffles the order, so different
seeds send different inputs while the cost profile of a run stays the
same, so the choice of seed adds little to the run-to-run spread.

Because the catalogue is finite, every op a seed can produce has a
stored reference output (``refs/<workload>.json``, built by
``make_refs.py``).

CLI flags are always passed as ``--flag=value`` so that negative values
(lambda, windows, ``--z``, addresses) parse.
"""

from __future__ import annotations

import math
import random

VARIANTS = 4
STRIP_0_PI = f"strip:0,{math.pi!r}"

# why each workload exists; BENCHMARK.json carries the one-line form
WHY = {
    "field-escape": (
        "48px tiles at lambda=1, depth 5-8: nearly every pixel exits at "
        "step 0-1, so per-pixel set-up, classify, lambda checks, rendering "
        "and the row pool dominate"
    ),
    "field-trapped": (
        "16px tiles at attracting lambda, depth 15-25: almost every pixel "
        "survives with native iterates, so level-0 step_log_polar and the "
        "shadow eval_map dominate"
    ),
    "certify": (
        "certify (one- and two-sided covers, rectangles) and searchbound: "
        "no orbits, time goes to column sums, _max_width, level_of_column "
        "and cover steps"
    ),
    "queries": (
        "short orbit, supergrowth, ray and boxdim commands: argparse, "
        "writers, high tower levels, inverse branches and strip coding"
    ),
}
NAMES = tuple(WHY)


def _r(x: float, digits: int = 6) -> float:
    return float(f"{x:.{digits}g}")


def _c(z: complex) -> str:
    return f"{z.real!r},{z.imag!r}"


# ---------------------------------------------------------------------------
# field workloads: library chain sample_lambda_set -> write_field_pgm ->
# render_field(palette="fire")


def _field_escape(cell: int, rng: random.Random) -> dict:
    depth = 5 + cell % 4
    band = cell // 4  # 25 bands of width 2 across Re 5..55
    x0 = _r(5.0 + 2.0 * band + 2.0 * rng.random())
    x1 = _r(x0 + rng.uniform(1.0, 4.0))
    y0 = _r(rng.uniform(0.0, 0.5))
    y1 = _r(math.pi - rng.uniform(0.0, 0.5))
    return {
        "kind": "field",
        "lam": [1.0, 0.0],
        "set": STRIP_0_PI,
        "window": [x0, y0, x1, y1],
        "res": [rng.randint(44, 52), rng.randint(44, 52)],
        "depth": depth,
    }


def _field_trapped(cell: int, rng: random.Random) -> dict:
    depth = (15, 17, 19, 21, 23)[cell % 5] + rng.randint(0, 1 + (cell % 5 == 4))
    cls = (cell // 5) % 4
    r = rng.uniform(0.2, 0.3)
    if cls == 0:
        lam = complex(r, 0.0)
    elif cls == 1:
        lam = complex(-r, 0.0)
    else:
        theta = rng.uniform(0.1, 0.4) * (1 if cls == 2 else -1)
        lam = complex(r * math.cos(theta), r * math.sin(theta))
    h = _r(1.0 + 0.4 * (cell // 20) + 0.4 * rng.random())
    return {
        "kind": "field",
        "lam": [_r(lam.real), _r(lam.imag)],
        "set": f"symstrip:{h!r}",
        "window": [
            _r(rng.uniform(-4.0, -2.0)),
            _r(-h * rng.uniform(0.6, 1.0)),
            _r(rng.uniform(0.5, 2.0)),
            _r(h * rng.uniform(0.6, 1.0)),
        ],
        "res": [rng.randint(12, 14), rng.randint(12, 14)],
        "depth": depth,
    }


# ---------------------------------------------------------------------------
# certify workload: CLI commands


def _cap(band: int, bands: int, rng: random.Random) -> int:
    """Branch cap in 1e3..3e4; band b of n covers log-quantiles (b/n)^2 to
    ((b+1)/n)^2, which favours small caps so that a pass stays short."""
    lo, hi = math.log(1e3), math.log(3e4)
    u = (band + rng.random()) / bands
    return int(round(math.exp(lo + (hi - lo) * u * u)))


_ONE_SIDED_LAMBDAS = ("1,0", "1.3,0", "0.8,0", "1,0.3", "-1,0")
# (lambda, l0) pairs whose supergrowth geometry exists
_TWO_SIDED = (("1,0", 3), ("2,0", 2))


def _certify(cell: int, rng: random.Random) -> dict:
    kind = cell % 4
    j = cell // 4  # 0..24
    delta = _r(rng.uniform(0.2, 0.8), 3)
    if kind == 0:
        m = rng.randint(10, 14)
        argv = [
            "certify", f"--lambda={rng.choice(_ONE_SIDED_LAMBDAS)}",
            f"--set={STRIP_0_PI}", f"--delta={delta!r}", f"--m={m}",
            f"--rmax={m + rng.randint(5, 25)}",
            f"--cover-depth={2 + j % 2}", f"--branch-cap={_cap(j, 25, rng)}",
        ]
    elif kind == 1:
        lam, l0 = _TWO_SIDED[(j // 2) % 2]
        argv = [
            "certify", f"--lambda={lam}", f"--set={STRIP_0_PI}",
            f"--delta={delta!r}", f"--l0={l0}",
            f"--c={_r(rng.uniform(0.5, 1.0), 3)!r}",
            f"--rmax={rng.randint(30, 45)}",
            f"--distortion={_r(rng.uniform(1.1, 1.5), 3)!r}",
            f"--cover-depth={2 + j % 2}", f"--branch-cap={_cap(j, 25, rng)}",
        ]
    elif kind == 2:
        m = rng.randint(5, 14)
        argv = [
            "certify", f"--lambda={rng.choice(_ONE_SIDED_LAMBDAS)}",
            f"--set={STRIP_0_PI}", f"--delta={delta!r}", f"--m={m}",
            f"--rmax={m + 5 + j}", "--rectangles",
        ]
    else:
        deltas = sorted(rng.sample([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
                                   rng.randint(3, 6)))
        argv = [
            "searchbound", f"--set={STRIP_0_PI}",
            "--delta-grid=" + ",".join(repr(d) for d in deltas),
            f"--r-span={rng.randint(10, 30)}",
        ]
        if j % 2 == 0:
            ms = sorted(rng.sample([5, 8, 10, 12, 15, 20, 30, 40], rng.randint(2, 4)))
            argv[1:1] = [f"--lambda={rng.choice(_ONE_SIDED_LAMBDAS)}"]
            argv.append("--m-grid=" + ",".join(str(m) for m in ms))
        else:
            lam, l0 = rng.choice(_TWO_SIDED)
            argv[1:1] = [f"--lambda={lam}"]
            argv += [f"--l0-grid={l0}", f"--c={_r(rng.uniform(0.5, 1.0), 3)!r}"]
    return {"kind": "cli", "argv": argv}


# ---------------------------------------------------------------------------
# queries workload: short CLI commands

_ESCAPING = ("1,0", "1.5,0", "2,0")
_RAY_LAMBDAS = ("1,0", "1.5,0", "0.9,0.2", "-1,0")
_CLOUDS = ("segment", "square", "disc", "cantor", "spiral")


def _queries(cell: int, rng: random.Random) -> dict:
    kind = cell % 4
    j = cell // 4  # 0..24 sets the parameter that governs the cost of each kind
    if kind == 0:
        z = complex(_r(rng.uniform(-3.0, 6.0)), _r(rng.uniform(-0.5, 0.5)))
        argv = ["orbit", f"--lambda={rng.choice(_ESCAPING)}", f"--z={_c(z)}",
                f"--steps={50 + (20 * j) // 24}"]
    elif kind == 1:
        lam = rng.choice(_ESCAPING + ("0.8,0.3", "-1,0", "0.5,0"))
        argv = ["supergrowth", f"--lambda={lam}",
                f"--c={_r(rng.uniform(0.3, 2.0), 3)!r}", f"--steps={8 + j}"]
    elif kind == 2:
        entries = [rng.randint(-3, 3) for _ in range(rng.randint(1, 6))]
        samples = 4 + j // 2
        t0 = _r(rng.uniform(1.0, 1.5), 4)
        step = _r(rng.uniform(0.05, 0.3), 3)
        t1 = _r(t0 + step * (samples - 0.5), 6)
        argv = ["ray", f"--lambda={rng.choice(_RAY_LAMBDAS)}",
                "--address=" + ",".join(str(v) for v in entries) + "...const",
                f"--t={t0!r}:{t1!r}:{step!r}", f"--depth={15 + (15 * j) // 24}"]
    else:
        factor = rng.choice((2, 3))
        e0 = _r(rng.uniform(0.2, 0.5), 4)
        cloud = {
            "shape": rng.choice(_CLOUDS),
            "n": 500 + 140 * j + rng.randint(0, 100),
            "seed": rng.randrange(1 << 30),
        }
        argv = ["boxdim", "--points={points}",
                f"--scales={e0!r}:{e0 / factor ** (4 + j % 3)!r}:{factor}"]
        return {"kind": "cli", "argv": argv, "cloud": cloud}
    return {"kind": "cli", "argv": argv}


_CELLS = {
    "field-escape": (100, _field_escape),
    "field-trapped": (100, _field_trapped),
    "certify": (100, _certify),
    "queries": (100, _queries),
}


def catalogue(workload: str) -> list[list[dict]]:
    """All ops a seed can draw: catalogue[cell][variant]."""
    n_cells, make = _CELLS[workload]
    return [
        [make(cell, random.Random(f"{workload}/{cell}/{v}")) for v in range(VARIANTS)]
        for cell in range(n_cells)
    ]


def op_key(cell: int, variant: int) -> str:
    return f"{cell}.{variant}"


def generate(workload: str, seed: int) -> list[tuple[str, dict]]:
    """The seed's op list: one variant per cell, in seeded order."""
    if workload not in _CELLS:
        raise ValueError(f"unknown workload {workload!r} (choose from {', '.join(NAMES)})")
    rng = random.Random(f"{workload}/seed/{seed}")
    cat = catalogue(workload)
    ops = []
    for cell, variants in enumerate(cat):
        v = rng.randrange(len(variants))
        ops.append((op_key(cell, v), variants[v]))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# point clouds for boxdim, written by the benchmark at set-up


def cloud_points(spec: dict) -> list[tuple[float, float]]:
    rng = random.Random(spec["seed"])
    n = spec["n"]
    shape = spec["shape"]
    if shape == "segment":
        a, b = rng.uniform(-1, 1), rng.uniform(-1, 1)
        return [(t, a * t + b) for t in (rng.random() for _ in range(n))]
    if shape == "square":
        side = max(2, int(math.sqrt(n)))
        return [(i / side, j / side) for i in range(side) for j in range(side)]
    if shape == "disc":
        out = []
        for _ in range(n):
            r, a = math.sqrt(rng.random()), rng.uniform(0, 2 * math.pi)
            out.append((r * math.cos(a), r * math.sin(a)))
        return out
    if shape == "cantor":
        out = []
        for _ in range(n):
            x = y = 0.0
            scale = 1.0
            for _ in range(12):
                scale /= 3.0
                x += scale * 2 * rng.randint(0, 1)
                y += scale * 2 * rng.randint(0, 1)
            out.append((x, y))
        return out
    if shape == "spiral":
        turns = rng.uniform(2, 6)
        return [
            (t * math.cos(turns * 2 * math.pi * t), t * math.sin(turns * 2 * math.pi * t))
            for t in (k / n for k in range(1, n + 1))
        ]
    raise ValueError(f"unknown cloud shape {shape!r}")


def write_cloud(spec: dict, path: str) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("re,im\n")
        for x, y in cloud_points(spec):
            fh.write(f"{x!r},{y!r}\n")
