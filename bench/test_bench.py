"""Tests of the benchmark itself: the seeded generator, the tracer's
self-time arithmetic, traced against untraced outputs, and the reference
check.  Run with ``python3 -m pytest bench``."""

import copy
import json
import os
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import oplib  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_time, union_length  # noqa: E402

expdyn = oplib.import_program()


def test_generator_is_deterministic_per_seed():
    for name in workloads.NAMES:
        ops = workloads.generate(name, 7)
        assert ops == workloads.generate(name, 7)
        assert ops != workloads.generate(name, 8)
        assert len(ops) >= 100
        refs = oplib.load_refs(name)
        assert all(refs[key]["op"] == op for key, op in ops)


def test_union_and_self_time_on_overlapping_children():
    assert union_length([(1, 4), (3, 6), (8, 12)]) == 9
    assert union_length([]) == 0
    # children clipped to the parent's interval: covered 1..6 and 8..10
    assert self_time(0, 10, [(1, 4), (3, 6), (8, 12)]) == 3


def _fake_program(clock):
    def work(dt):
        clock[0] += dt

    core = types.ModuleType("fakeprog.core")
    core.work = work
    exec(
        "def leaf():\n    work(2)\n"
        "def mid():\n    work(1); leaf(); work(3); leaf()\n"
        "def top():\n    work(5); mid(); work(1)\n",
        core.__dict__,
    )
    other = types.ModuleType("fakeprog.other")
    other.leaf = core.leaf  # a second binding of the same function
    exec("def side():\n    leaf()\n", other.__dict__)
    return core, other


def test_self_time_on_synthetic_call_tree():
    clock = [0.0]
    core, other = _fake_program(clock)
    originals = (core.leaf, core.mid, core.top)
    saved = {k: sys.modules.get(k) for k in ("fakeprog", "fakeprog.core", "fakeprog.other")}
    sys.modules.update({"fakeprog": types.ModuleType("fakeprog"),
                        "fakeprog.core": core, "fakeprog.other": other})
    targets = (
        ("fakeprog.core", "leaf", "core.leaf", "hot"),
        ("fakeprog.core", "mid", "core.mid", "hot"),
        ("fakeprog.core", "top", "core.top", "span"),
        ("fakeprog.core", "gone", "core.gone", "hot"),
        ("fakeprog.absent", "x", "absent.x", "span"),
    )
    tracer = Tracer(clock=lambda: clock[0], cpu_clock=lambda: clock[0])
    try:
        with tracer.installed_for(targets, prefix="fakeprog"):
            with tracer.op("op") as op_id:
                core.top()
                other.side()
        assert (core.leaf, core.mid, core.top) == originals
        assert other.leaf is core.leaf
    finally:
        for k, v in saved.items():
            if v is None:
                sys.modules.pop(k, None)
            else:
                sys.modules[k] = v
    stats = tracer.stats()
    # top: 5 + mid(1 + 2 + 3 + 2) + 1; side's leaf reached through other.leaf
    assert stats["core.top"] == (1, 14.0, 6.0)
    assert stats["core.mid"] == (1, 8.0, 4.0)
    assert stats["core.leaf"] == (3, 6.0, 6.0)
    assert sorted(tracer.missing) == ["absent.x", "core.gone"]
    assert "core.gone" not in stats
    top_span = [s for s in tracer.spans if s.name == "core.top"]
    assert len(top_span) == 1 and top_span[0].parent == op_id and top_span[0].op == op_id


def _sample_ops():
    picks = []
    for name in workloads.NAMES:
        ops = workloads.generate(name, 3)
        light = [(k, op) for k, op in ops
                 if not any(a.startswith("--branch-cap=") and int(a.split("=")[1]) > 2000
                            for a in op.get("argv", []))]
        picks += [(name, k, op) for k, op in light[:3]]
    return picks


def test_traced_and_untraced_outputs_are_identical(tmp_path):
    ops = _sample_ops()

    def run(tracer=None):
        outs = []
        for _name, key, op in ops:
            points = None
            if "cloud" in op:
                points = str(tmp_path / f"{key}.csv")
                workloads.write_cloud(op["cloud"], points)
            if tracer is None:
                out = oplib.execute(expdyn, op, points)
            else:
                with tracer.op("op"):
                    out = oplib.execute(expdyn, op, points)
            outs.append((oplib.project(op, out), oplib.raw_digests(out)))
        return outs

    plain = run()
    tracer = Tracer()
    with tracer.installed_for():
        traced = run(tracer)
    assert traced == plain
    assert not tracer.missing
    refs = {name: oplib.load_refs(name) for name in workloads.NAMES}
    for (name, key, _op), (proj, _raw) in zip(ops, plain):
        assert oplib.check(refs[name][key]["ref"], proj) is None
    # field ops: every examined orbit point is classified exactly once
    counts, stats = tracer.counts(), tracer.stats()
    assert counts["field.points"] == stats["invariant_sets.classify"][0]
    assert stats["parallel.item"][0] > 0


def test_reference_check_flags_perturbed_output():
    refs = oplib.load_refs("certify")
    entry = next(e for e in refs.values() if e["op"]["argv"][0] == "certify")
    ref = entry["ref"]
    assert oplib.check(ref, copy.deepcopy(ref)) is None

    drift = copy.deepcopy(ref)
    drift["out"]["cert"]["max_sum"] *= 1 + 1e-6
    assert "max_sum" in oplib.check(ref, drift)

    noise = copy.deepcopy(ref)
    noise["out"]["cert"]["max_sum"] *= 1 + 1e-13
    assert oplib.check(ref, noise) is None

    verdict = copy.deepcopy(ref)
    verdict["out"]["cert"]["pass"] = not verdict["out"]["cert"]["pass"]
    assert oplib.check(ref, verdict) is not None

    assert "exit code" in oplib.check(ref, dict(ref, code=2))

    field_ref = next(iter(oplib.load_refs("field-escape").values()))["ref"]
    depths = dict(field_ref, cons="0" * 64)
    assert "cons" in oplib.check(field_ref, depths)


def test_benchmark_json_names_what_run_reports():
    with open(os.path.join(oplib.ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    p = run.Pass()
    p.wall, p.cpu, p.cal, p.items = [0.1, 0.3], [0.1, 0.2], [4e-4, 5e-4], 2
    e2e = run.end_to_end([p], 0.05, 2, 0)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (k, unit) for k, (_v, unit) in e2e.items()]
    assert all(v > 0 for v, _unit in e2e.values())
