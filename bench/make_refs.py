"""Build the stored reference outputs for every op a seed can draw.

    python3 bench/make_refs.py [WORKLOAD ...]

Runs each op of the workload catalogues once, untraced, checks that it
exits 0 or 3 (3 is an honest negative: certificate or supergrowth not
achieved), and writes ``refs/<workload>.json`` with the op, its semantic
projection and its raw byte digests.  Rebuild only when the program's
output is meant to change; the benchmark's correctness check compares
against these files.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import oplib
import workloads


def build(expdyn, workload: str, workdir: str) -> dict:
    ops = {}
    bad = []
    for cell, variants in enumerate(workloads.catalogue(workload)):
        for v, op in enumerate(variants):
            key = workloads.op_key(cell, v)
            points = None
            if "cloud" in op:
                points = os.path.join(workdir, f"cloud-{key}.csv")
                workloads.write_cloud(op["cloud"], points)
            try:
                out = oplib.execute(expdyn, op, points)
            except Exception as exc:  # recorded and reported below
                bad.append((key, op, repr(exc)))
                continue
            proj = oplib.project(op, out)
            if proj["code"] not in (0, 3):
                bad.append((key, op, f"exit {proj['code']}"))
                continue
            ops[key] = {"op": op, "ref": proj, "raw": oplib.raw_digests(out)}
    if bad:
        for key, op, why in bad:
            print(f"{workload} {key}: {why}: {op}", file=sys.stderr)
        raise SystemExit(f"{len(bad)} {workload} ops fail; adjust the generator ranges")
    return ops


def main(argv: list[str]) -> int:
    names = argv or list(workloads.NAMES)
    expdyn = oplib.import_program()
    workdir = os.path.join(oplib.OUT_DIR, f"refs-work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(oplib.REFS_DIR, exist_ok=True)
    try:
        for name in names:
            t0 = time.perf_counter()
            ops = build(expdyn, name, workdir)
            codes = {}
            for entry in ops.values():
                codes[entry["ref"]["code"]] = codes.get(entry["ref"]["code"], 0) + 1
            path = os.path.join(oplib.REFS_DIR, f"{name}.json")
            # one op per line keeps diffs of a rebuild readable
            lines = [f"{json.dumps(k)}: {json.dumps(ops[k], sort_keys=True)}"
                     for k in sorted(ops, key=lambda k: tuple(map(int, k.split("."))))]
            with open(path, "w", encoding="ascii", newline="\n") as fh:
                fh.write(f'{{"workload": {json.dumps(name)}, "ops": {{\n')
                fh.write(",\n".join(lines))
                fh.write("\n}}\n")
            print(f"{name}: {len(ops)} ops, exit codes {codes}, "
                  f"{time.perf_counter() - t0:.1f}s -> {path}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
