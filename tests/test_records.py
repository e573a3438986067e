"""The record contract: every public record is immutable, equal and hashed
by value, shown as ``Name(field=value, ...)``, picklable and copied with a
change by ``_replace``; and importing the package builds them without the
dataclasses machinery."""

import math
import os
import pickle
import subprocess
import sys

import pytest

import expdyn
from expdyn import (
    DimensionReport,
    ExternalAddress,
    LogPolarComplex,
    RectangleIndex,
    Strip,
    TowerReal,
)

STRIP = Strip(0.0, 3.14)


def _examples():
    """(record, field, another value) for each public record class, built
    the way the package builds them where that is cheap."""
    orbit = expdyn.iterate_orbit(0.25, 0.1, 3)
    ray = expdyn.trace_ray(1.0, ExternalAddress.constant(0), [2.0, 3.0])
    cover = expdyn.cover_iterate(1.0, STRIP, 0.5, 2, 50, m=10)
    points = [complex(i / 16, (i * i % 13) / 13) for i in range(40)]
    return [
        (TowerReal(1, 50.0), "mantissa", 60.0),
        (LogPolarComplex(TowerReal(0, 0.5), 0.25, False), "arg_trusted", True),
        (Strip(-1.0, 2.5), "b", 3.0),
        (ExternalAddress((1, 2), (0,)), "entries", (3,)),
        (expdyn.lambda_membership(0.25, STRIP, 0.1, 5), "precision_caveat", True),
        (expdyn.sample_lambda_set(0.25, STRIP, (-1, -1, 1, 1), (3, 2), 4),
         "caveat_count", 7),
        (orbit.points[1], "escaped", True),
        (orbit, "escaped_at", 2),
        (expdyn.check_supergrowth(1.0, 1.0, 4), "c", 0.5),
        (ray.samples[0], "depth", 99),
        (ray, "residual", 1.0),
        (RectangleIndex(0, 7), "r", 8),
        (expdyn.negative_geometry(1.0, 1.0, 3), "l0", 4),
        (expdyn.verify_contraction(1.0, STRIP, 0.5, 12, m=10), "status", "x"),
        (cover.levels[0], "cells", 2.0),
        (cover, "two_sided", True),
        (expdyn.box_count(points, [1.0, 0.5, 0.25, 0.1]), "n_points", 3),
        (DimensionReport(None, None, {"mode": "positive-only"}, "no certificate in grid"),
         "status", "ok"),
    ]


EXAMPLES = _examples()


def _fields(cls):
    return getattr(cls, "_fields", None) or cls.__slots__


def _values(rec):
    return tuple(getattr(rec, f) for f in _fields(type(rec)))


def test_every_public_record_class_has_an_example():
    records = {cls for name in expdyn.__all__
               if isinstance(cls := getattr(expdyn, name), type)
               and (issubclass(cls, tuple) or "__slots__" in vars(cls) and cls.__slots__)}
    assert records == {type(rec) for rec, _, _ in EXAMPLES}
    assert len(records) == 18


@pytest.mark.parametrize("rec, field, value", EXAMPLES,
                         ids=[type(e[0]).__name__ for e in EXAMPLES])
def test_record_contract(rec, field, value):
    cls = type(rec)
    fields = _fields(cls)
    values = _values(rec)
    assert field in fields
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, value)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert _values(rec) == values

    twin = cls(*values)
    assert twin == rec and not twin != rec
    try:
        hash(values)
    except TypeError:  # a dict or Counter field: unhashable, as its value is
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(twin) == hash(rec)

    shown = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
    assert repr(rec) == f"{cls.__name__}({shown})"

    copy = pickle.loads(pickle.dumps(rec))
    assert type(copy) is cls and copy == rec

    changed = rec._replace(**{field: value})
    assert type(changed) is cls and changed != rec
    assert changed == cls(*(value if f == field else v for f, v in zip(fields, values)))
    assert getattr(changed, field) == value
    assert rec == twin  # the original is untouched


def test_tower_construction_normalises():
    assert TowerReal(0, 1e5) == TowerReal(1, math.log(1e5))
    assert (TowerReal(0, 1e5).level, TowerReal(0, 1e5).mantissa) == (1, math.log(1e5))
    assert (TowerReal(2, 1.0).level, TowerReal(2, 1.0).mantissa) == (0, math.exp(math.e))
    # _replace and unpickling go through the constructor, so they normalise too
    assert TowerReal(1, 50.0)._replace(mantissa=1e5) == TowerReal(2, math.log(1e5))
    t = TowerReal(3, 7.0)
    assert pickle.loads(pickle.dumps(t)) == t
    assert TowerReal(0, 1.0) < TowerReal(1, 7.0) <= TowerReal(1, 7.0) < TowerReal(2, 7.0)


def test_importing_the_package_loads_no_dataclasses_machinery():
    # the package loads each submodule on first use, so import every one
    package = os.path.dirname(expdyn.__file__)
    names = sorted(f[:-3] for f in os.listdir(package)
                   if f.endswith(".py") and f != "__init__.py")
    code = ("import sys, expdyn\n"
            f"for name in {names!r}:\n"
            "    __import__('expdyn.' + name)\n"
            "print(sorted(k for k in sys.modules if k.startswith('expdyn.')), "
            "sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(package))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out == f"{['expdyn.' + name for name in names]} []\n"
