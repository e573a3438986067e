"""Running one benchmark op and checking what it produced.

An op goes through a public entry point only: ``expdyn.cli.main(argv)``
with stdout and stderr captured, or, for fields, the library chain
``sample_lambda_set`` -> ``write_field_pgm`` -> ``render_field``.  Names
are looked up on the package at call time, so a traced pass sees the
tracer's wrappers.

The check compares a semantic projection of the output with the stored
reference: exit code and verdicts, exit-depth arrays, survivor and box
counts exactly, floats to a relative tolerance.  Raw byte digests are
recorded beside it but do not gate, so a planned change of format (a new
JSON key, image row order) is not a failure while numeric drift is.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field as dc_field
from typing import Optional

REL_TOL = 1e-9

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
REFS_DIR = os.path.join(BENCH_DIR, "refs")
OUT_DIR = os.path.join(ROOT, ".bench_out")


class ProgramMissing(RuntimeError):
    """The checkout holds no expdyn sources next to the benchmark."""


def import_program():
    """Import expdyn and expdyn.cli from this checkout's src/, nowhere else."""
    pkg = os.path.join(SRC, "expdyn")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        raise ProgramMissing(f"no expdyn package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    expdyn = importlib.import_module("expdyn")
    importlib.import_module("expdyn.cli")
    if os.path.dirname(os.path.abspath(expdyn.__file__)) != pkg:
        raise ProgramMissing(f"expdyn imported from {expdyn.__file__}, not {pkg}")
    return expdyn


def load_refs(workload: str) -> dict:
    with open(os.path.join(REFS_DIR, f"{workload}.json"), encoding="ascii") as fh:
        return json.load(fh)["ops"]


@dataclass
class Output:
    code: int
    stdout: str = ""
    fld: object = None
    blobs: dict = dc_field(default_factory=dict)


def items_of(op: dict) -> int:
    """Work units an op counts for: pixels for fields, one per command."""
    if op["kind"] == "field":
        return op["res"][0] * op["res"][1]
    return 1


def _spec(expdyn, text: str):
    kind, _, rest = text.partition(":")
    if kind == "strip":
        a, b = (float(v) for v in rest.split(","))
        return expdyn.horizontal_strip(a, b)
    return expdyn.symmetric_strip(float(rest))


def execute(expdyn, op: dict, points_path: Optional[str] = None) -> Output:
    """Run one op through the program's public entry points."""
    if op["kind"] == "field":
        spec = _spec(expdyn, op["set"])
        fld = expdyn.sample_lambda_set(
            complex(*op["lam"]), spec, tuple(op["window"]), tuple(op["res"]), op["depth"]
        )
        pgm, ppm = io.BytesIO(), io.BytesIO()
        expdyn.write_field_pgm(fld, pgm)
        expdyn.render_field(fld, ppm, palette="fire")
        return Output(0, fld=fld, blobs={"pgm": pgm.getvalue(), "ppm": ppm.getvalue()})
    argv = [a.replace("{points}", points_path or "") for a in op["argv"]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = expdyn.cli.main(argv)
    return Output(code, stdout=out.getvalue())


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def raw_digests(out: Output) -> dict:
    if out.fld is not None:
        return {k: _sha(v) for k, v in sorted(out.blobs.items())}
    return {"stdout": _sha(out.stdout)}


# ---------------------------------------------------------------------------
# semantic projections.  Keys starting with "xy_" hold plane coordinates,
# compared with an absolute floor so that values near 0 do not fail on
# rounding noise.


def _float(text: str) -> Optional[float]:
    try:
        return float(text)
    except ValueError:
        return None


def _csv_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.strip().splitlines()[1:]]


def _project_orbit(text: str) -> dict:
    rows = []
    for n, level, mant, arg, re, im, esc, flag in _csv_rows(text):
        row = [int(n), int(level), float(mant), int(esc), int(flag)]
        # past the precision flag these carry amplified rounding error
        row += [None, None, None] if int(flag) else [float(arg), _float(re), _float(im)]
        rows.append(row)
    return {"xy_rows": rows}


def _project_ray(text: str) -> dict:
    return {"xy_rows": [[float(t), float(re), float(im), int(d)]
                        for t, re, im, d, _residual in _csv_rows(text)]}


def _split_certify(text: str) -> tuple[dict, list[str]]:
    lines = text.splitlines()
    end = lines.index("}") + 1
    return json.loads("\n".join(lines[:end])), lines[end:]


def _cert_core(doc: dict) -> dict:
    rects = [(row["k"], row["r"]) for row in doc["per_rectangle"]]
    bounds = {str(row["r"]): row["bound"] for row in doc["per_rectangle"]}
    return {"pass": doc["pass"], "M": doc["M"], "l0": doc["l0"], "c": doc["c"],
            "delta": doc["delta"], "r_range": doc["r_range"], "max_sum": doc["max_sum"],
            "rectangles": _sha(json.dumps(rects)), "rect_bounds": bounds}


def _project_certify(text: str) -> dict:
    doc, cover = _split_certify(text)
    levels = []
    for line in cover:
        words = line.replace(":", "").split()
        # cover n=N: total T (<|>=) budget B
        levels.append({"n": int(words[1][2:]), "below": words[4] == "<",
                       "total": _float(words[3]), "budget": float(words[6])})
    return {"cert": _cert_core(doc), "cover": levels}


def _project_searchbound(text: str) -> dict:
    doc = json.loads(text)
    cert = doc["certificate"]
    return {"status": doc["status"], "bound": doc["bound_achieved"],
            "mode": doc["provenance"]["mode"],
            "cert": _cert_core(cert) if cert is not None else None}


def _project_supergrowth(text: str) -> dict:
    doc = json.loads(text)
    keep = ("holds", "sustained", "first_failure_index", "n_checked", "c",
            "ratios", "tail_ratio", "largest_passing_c", "escape_threshold")
    out = {k: doc[k] for k in keep}
    out["alphas"] = [[a["level"], a["mantissa"]] for a in doc["alphas"]]
    return out


def _project_boxdim(text: str) -> dict:
    doc = json.loads(text)
    keep = ("epsilons", "counts", "slope", "r2", "slope_claim", "n_points")
    return {k: doc[k] for k in keep}


_CLI_PROJECTIONS = {
    "orbit": _project_orbit,
    "ray": _project_ray,
    "certify": _project_certify,
    "searchbound": _project_searchbound,
    "supergrowth": _project_supergrowth,
    "boxdim": _project_boxdim,
}


def project(op: dict, out: Output) -> dict:
    """Semantic projection of an op's output (what the check compares)."""
    if op["kind"] == "field":
        f = out.fld
        return {"code": 0, "cons": _sha(json.dumps(list(f.data("conservative")))),
                "opt": _sha(json.dumps(list(f.data("optimistic")))),
                "survivors": f.survivor_count("conservative"),
                "caveats": f.caveat_count, "pixels": f.nx * f.ny}
    proj = {"code": out.code}
    if out.code in (0, 3):
        proj["out"] = _CLI_PROJECTIONS[op["argv"][0]](out.stdout)
    return proj


# ---------------------------------------------------------------------------
# comparison


def _close(a: float, b: float, coord: bool) -> bool:
    if a == b:
        return True
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    scale = max(abs(a), abs(b), 1.0 if coord else 0.0)
    return abs(a - b) <= REL_TOL * scale


def mismatch(ref, got, path: str = "", coord: bool = False) -> Optional[str]:
    """First difference between a reference projection and an output's, or None."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if ref.keys() != got.keys():
            return f"{path}: keys {sorted(ref)} != {sorted(got)}"
        for k in ref:
            d = mismatch(ref[k], got[k], f"{path}.{k}", coord or k.startswith("xy_"))
            if d:
                return d
        return None
    if isinstance(ref, (list, tuple)) and isinstance(got, (list, tuple)):
        if len(ref) != len(got):
            return f"{path}: length {len(ref)} != {len(got)}"
        for i, (a, b) in enumerate(zip(ref, got)):
            d = mismatch(a, b, f"{path}[{i}]", coord)
            if d:
                return d
        return None
    if type(ref) is float and type(got) in (int, float):
        same = _close(ref, float(got), coord)
    else:
        same = type(ref) is type(got) and ref == got
    return None if same else f"{path}: {ref!r} != {got!r}"


def check(ref: dict, proj: dict) -> Optional[str]:
    """Failure reason for an op's projection against its reference, or None."""
    if proj.get("code") not in (0, 3):
        return f"exit code {proj.get('code')}"
    # round-trip through JSON so that tuples and lists compare alike
    return mismatch(ref, json.loads(json.dumps(proj)))
