"""expdyn benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src/`` beside this
directory and nowhere else.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a
human-readable summary goes to stderr, and a full record (machine,
metrics, failures, spans when traced) to ``.bench_out/results/``.

``--trace 0`` repeats the seed's op list (a "pass") untraced, starting
another pass only while it should end within S seconds, and reports the
end-to-end metrics.  ``--trace 1`` alternates an untraced and a traced
pass under the same rule (at least one pair) and reports the per-layer
metrics; counts come from the first traced pass and are exact, times are
medians over traced passes.  Both modes check every op against the
stored references.  Reported times are scaled to a reference machine
speed (``calibrate``); the record keeps the raw ones.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import oplib
import workloads
from tracer import Tracer

SETUP_REPEATS = 9
# The host's speed drifts by up to half over tens of seconds, and every op
# slows with it alike.  A fixed pure-Python snippet is timed after each op;
# an op's time is scaled by REFERENCE_CAL_S / (median snippet time of its
# pass), which reads as the time on a machine where the snippet takes
# REFERENCE_CAL_S (the typical reading on the 2-vCPU machine in README.md).
CAL_LOOPS = 1200
REFERENCE_CAL_S = 0.00045

# per-layer metrics: (name, unit); see README.md for what each should move
PER_LAYER = (
    ("invariant_sets.sample_lambda_set.self_ms", "ms"),
    ("invariant_sets.membership_walk.count", "count"),
    ("invariant_sets.membership_walk.self_ms", "ms"),
    ("invariant_sets.classify.count", "count"),
    ("invariant_sets.classify.self_ms", "ms"),
    ("invariant_sets.shadow_eval_ratio", "ratio"),
    ("invariant_sets.steps_per_pixel", "1/px"),
    ("invariant_sets.survivor_ratio", "ratio"),
    ("invariant_sets.write_field_pgm.total_ms", "ms"),
    ("dynamics.require_lambda.per_item", "1/item"),
    ("dynamics.step_log_polar.count", "count"),
    ("dynamics.step_log_polar.self_ms", "ms"),
    ("dynamics.eval_map.count", "count"),
    ("dynamics.eval_map.self_ms", "ms"),
    ("dynamics.iterate_orbit.total_ms", "ms"),
    ("dynamics.check_supergrowth.total_ms", "ms"),
    ("dynamics.inverse_branch.count", "count"),
    ("dynamics.inverse_branch.self_ms", "ms"),
    ("towers.new.count", "count"),
    ("towers.new.self_ms", "ms"),
    ("towers.lift.count", "count"),
    ("towers.to_float.count", "count"),
    ("parallel.ordered_map.total_ms", "ms"),
    ("parallel.ordered_map.self_ms", "ms"),
    ("parallel.workers", "count"),
    ("parallel.utilisation", "ratio"),
    ("induced.positive_column_sum.count", "count"),
    ("induced.positive_column_sum.self_ms", "ms"),
    ("induced.max_width.count", "count"),
    ("induced.max_width.self_ms", "ms"),
    ("induced.level_of_column.count", "count"),
    ("induced.level_of_column.self_ms", "ms"),
    ("induced.cover_iterate.total_ms", "ms"),
    ("induced.cover_iterate.self_ms", "ms"),
    ("induced.cover_cells", "count"),
    ("induced.verify_contraction.total_ms", "ms"),
    ("induced.negative_geometry.total_ms", "ms"),
    ("induced.build_zm.total_ms", "ms"),
    ("boxdim.dimension_bound_search.total_ms", "ms"),
    ("boxdim.pass_ratio", "ratio"),
    ("boxdim.box_count.total_ms", "ms"),
    ("rays.trace_ray.total_ms", "ms"),
    ("rays.pullbacks_per_sample", "ratio"),
    ("coding.strip_index.count", "count"),
    ("coding.strip_index.self_ms", "ms"),
    ("render.render_field.total_ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)


def _percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 1]."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def calibrate() -> float:
    """Wall time of a fixed piece of interpreter work: complex exp, float
    arithmetic and a loop, with no allocation the garbage collector tracks,
    so that nothing the program leaves behind changes its cost."""
    t0 = time.perf_counter()
    z, acc = 0.3 + 0.1j, 0.0
    for i in range(CAL_LOOPS):
        z = cmath.exp(z) * 0.25 + 0.001 * (i & 7)
        acc += abs(z) * (i % 13)
    return time.perf_counter() - t0


def speed_scale(samples: list[float]) -> float:
    """Factor that turns a time measured next to these calibration samples
    into the time at the reference speed."""
    return REFERENCE_CAL_S / statistics.median(samples)


def measure_setup() -> float:
    """Median time to import expdyn and expdyn.cli in a fresh interpreter,
    each at the reference speed of calibrations taken just before it."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {oplib.SRC!r})\n"
        "t0 = time.perf_counter()\n"
        "import expdyn, expdyn.cli\n"
        "print(repr(time.perf_counter() - t0))\n"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        scale = speed_scale([calibrate() for _ in range(9)])
        proc = subprocess.run([sys.executable, "-c", code], cwd=oplib.ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(scale * float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Pass:
    """One run of the seed's op list, with per-op timings and check results."""

    def __init__(self):
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.cal: list[float] = []  # calibration time after each op
        self.items = 0
        self.outputs: list[tuple[dict, dict]] = []  # (projection, raw digests)
        self.failures: list[tuple[str, str]] = []
        self.raw_mismatch = 0

    @property
    def busy(self) -> float:
        return sum(self.wall)

    @property
    def scale(self) -> float:
        return speed_scale(self.cal)


def run_pass(expdyn, ops, refs, points, tracer=None, keep_outputs=False) -> Pass:
    p = Pass()
    for key, op in ops:
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = oplib.execute(expdyn, op, points.get(key))
            else:
                with tracer.op(op["argv"][0] if op["kind"] == "cli" else "field"):
                    out = oplib.execute(expdyn, op, points.get(key))
            err = None
        except Exception as exc:  # an op that raises is a failed op
            out, err = None, f"{type(exc).__name__}: {exc}"
        p.wall.append(time.perf_counter() - t0)
        p.cpu.append(time.process_time() - c0)
        p.cal.append(calibrate())
        p.items += oplib.items_of(op)
        if err is None:
            proj, raw = oplib.project(op, out), oplib.raw_digests(out)
            err = oplib.check(refs[key]["ref"], proj)
            p.raw_mismatch += raw != refs[key]["raw"]
        else:
            proj = raw = None
        if keep_outputs:
            p.outputs.append((proj, raw))
        if err is not None:
            p.failures.append((key, err))
    return p


def end_to_end(passes: list[Pass], setup_s: float, attempted: int, failed: int) -> dict:
    """Each op's wall and CPU time, at the reference speed of its pass, is its
    median over the run's passes, which keeps one disturbed pass on a shared
    machine from moving the result."""
    walls = [statistics.median(w) for w in zip(*([t * p.scale for t in p.wall] for p in passes))]
    cpus = [statistics.median(c) for c in zip(*([t * p.scale for t in p.cpu] for p in passes))]
    return {
        "items_per_s": (passes[0].items / sum(walls), "1/s"),
        "op_p50_ms": (1e3 * _percentile(walls, 0.5), "ms"),
        "op_p90_ms": (1e3 * _percentile(walls, 0.9), "ms"),
        "cpu_s": (sum(cpus), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
        "correct_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(first: dict, traced: list[dict], overhead: list[float], items: int) -> dict:
    """Per-layer metrics from tracer snapshots: counts from the first traced
    pass, times at the reference speed as medians over traced passes."""
    def med_ms(name: str, col: int) -> float:
        return 1e3 * statistics.median(
            t["stats"].get(name, (0, 0.0, 0.0))[col] * t["scale"] for t in traced)

    stats, counts = first["stats"], first["counts"]

    def n(name: str) -> int:
        return stats.get(name, (0, 0.0, 0.0))[0]

    values = {}
    for name, _unit in PER_LAYER:
        base, _, what = name.rpartition(".")
        if what == "count":
            values[name] = n(base)
        elif what == "self_ms":
            values[name] = med_ms(base, 2)
        elif what == "total_ms":
            values[name] = med_ms(base, 1)
    values.update({
        "invariant_sets.shadow_eval_ratio": _ratio(
            counts.get("dynamics.eval_map@field", 0),
            counts.get("dynamics.step_log_polar@field", 0)),
        "invariant_sets.steps_per_pixel": _ratio(counts.get("field.points", 0),
                                                 counts.get("field.pixels", 0)),
        "invariant_sets.survivor_ratio": _ratio(counts.get("field.survivors", 0),
                                                counts.get("field.pixels", 0)),
        "dynamics.require_lambda.per_item": _ratio(n("dynamics.require_lambda"), items),
        "towers.lift.count": int(counts.get("towers.lift", 0)),
        "parallel.workers": first["workers"],
        "parallel.utilisation": statistics.median(
            _ratio(t["counts"].get("parallel.item_cpu", 0.0),
                   t["counts"].get("parallel.capacity", 0.0)) for t in traced),
        "induced.cover_cells": int(counts.get("cover.cells", 0)),
        "boxdim.pass_ratio": _ratio(counts.get("certs.passed", 0), counts.get("certs.tried", 0)),
        "rays.pullbacks_per_sample": _ratio(n("dynamics.inverse_branch"),
                                            counts.get("ray.samples", 0)),
        "trace.overhead_ratio": statistics.median(overhead),
    })
    return {name: (values[name], unit) for name, unit in PER_LAYER}


def pin_to_one_cpu() -> None:
    """Keep this process, the program's pool threads and the set-up
    children on one CPU.  The pool size still comes from the CPU count, so
    the pool keeps its threads; but on a shared host two threads that pass
    the interpreter lock between two CPUs wait for each other to be
    scheduled at every hand-off, and that wait, not the program, set the
    spread of the field workloads."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def machine_record(expdyn) -> dict:
    par = sys.modules.get("expdyn.parallel")
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "thread_count": par.thread_count() if hasattr(par, "thread_count") else None,
        "expdyn_version": getattr(expdyn, "__version__", None),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # the program runs with its defaults (pool size = CPU count)
    os.environ.pop("EXPDYN_THREADS", None)
    pin_to_one_cpu()
    try:
        expdyn = oplib.import_program()
    except oplib.ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    ops = workloads.generate(args.workload, args.seed)
    all_refs = oplib.load_refs(args.workload)
    refs = {}
    for key, op in ops:
        if key not in all_refs or all_refs[key]["op"] != op:
            print(f"bench: no reference for op {key}; rebuild with make_refs.py",
                  file=sys.stderr)
            return 1
        refs[key] = all_refs[key]
    del all_refs

    workdir = os.path.join(oplib.OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        points = {}
        for key, op in ops:
            if "cloud" in op:
                points[key] = os.path.join(workdir, f"cloud-{key}.csv")
                workloads.write_cloud(op["cloud"], points[key])
        record = measure(expdyn, args, ops, refs, points)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = record["metrics"]
    os.makedirs(os.path.join(oplib.OUT_DIR, "results"), exist_ok=True)
    path = os.path.join(oplib.OUT_DIR, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"bench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{record['ops_per_pass']} ops/pass x {record['passes']} passes, "
          f"{record['attempted']} attempted, {record['failed']} failed, "
          f"{record['raw_mismatch']} raw-digest changes (not gating)", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:45s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    for key, why in record["failures"][:10]:
        print(f"  FAILED {key}: {why}", file=sys.stderr)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


def measure(expdyn, args, ops, refs, points) -> dict:
    setup_s = measure_setup() if not args.trace else None
    untraced: list[Pass] = []
    traced: list[Pass] = []
    snapshots: list[dict] = []
    overhead: list[float] = []
    spans = []
    failures: list[tuple[str, str]] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain = run_pass(expdyn, ops, refs, points, keep_outputs=bool(args.trace))
        untraced.append(plain)
        failures += plain.failures
        if args.trace:
            tracer = Tracer()
            with tracer.installed_for():
                p = run_pass(expdyn, ops, refs, points, tracer, keep_outputs=True)
            traced.append(p)
            overhead.append(p.busy * p.scale / (plain.busy * plain.scale))
            snapshots.append({"scale": p.scale, "stats": tracer.stats(), "counts": tracer.counts(),
                              "workers": tracer.max_workers, "missing": tracer.missing})
            if len(traced) == 1:
                spans = [s.__dict__ for s in tracer.spans]
            # traced outputs must equal the untraced ones, byte for byte
            failing = {key for key, _ in p.failures}
            for (key, _op), a, b in zip(ops, plain.outputs, p.outputs):
                if a != b and key not in failing:
                    p.failures.append((key, "traced output differs from untraced"))
            failures += p.failures
            plain.outputs = p.outputs = []
        now = time.perf_counter()
        # start another pass (or pair) only if it should end within the budget
        if now - start + (now - t0) > args.seconds:
            break

    passes = untraced + traced
    attempted = sum(len(p.wall) for p in passes)
    failed = sum(len({key for key, _ in p.failures}) for p in passes)
    if args.trace:
        values = per_layer(snapshots[0], snapshots, overhead, untraced[0].items)
    else:
        values = end_to_end(untraced, setup_s, attempted, failed)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(expdyn),
        "ops_per_pass": len(ops),
        "passes": len(untraced),
        "attempted": attempted,
        "failed": failed,
        "raw_mismatch": sum(p.raw_mismatch for p in passes),
        "per_pass": [{"traced": p in traced, "wall": p.wall, "cpu": p.cpu, "cal": p.cal,
                      "items": p.items}
                     for p in passes],
        "failures": failures[:100],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
        "missing_targets": snapshots[0]["missing"] if snapshots else [],
        "spans_first_traced_pass": spans,
    }


if __name__ == "__main__":
    sys.exit(main())
