"""Deterministic image rendering of exit-depth fields.

Two palettes: "gray" emits binary PGM (P5, 8 bit), "fire" emits binary
PPM (P6) with a black-red-yellow-white ramp.  Pixels that never exit map
to the top of the palette.  Rows are written top first, as Netpbm
rasters run, so Im z grows upward in the image.
"""

from __future__ import annotations

import io
from os import PathLike
from typing import BinaryIO, Union

from .errors import ValidationError
from .invariant_sets import ExitDepthField, _write_payload


def _fire(t: float) -> tuple[int, int, int]:
    r = min(1.0, 3.0 * t)
    g = min(1.0, max(0.0, 3.0 * t - 1.0))
    b = min(1.0, max(0.0, 3.0 * t - 2.0))
    return round(255 * r), round(255 * g), round(255 * b)


def render_field(
    field: ExitDepthField,
    dest: Union[str, PathLike, BinaryIO],
    palette: str = "gray",
    policy: str = "conservative",
) -> None:
    if palette not in ("gray", "fire"):
        raise ValidationError(f"unknown palette {palette!r}")
    data = field.data(policy)
    top = field.depth + 1
    if data and not (min(data) >= 0 and max(data) <= top):
        raise ValidationError(f"field values must lie in 0..{top}")
    # pixel bytes of each value 0..top (exits and the survivor value)
    if palette == "gray":
        table = [bytes((round(255 * (v / top)),)) for v in range(top + 1)]
    else:
        table = [bytes(_fire(v / top)) for v in range(top + 1)]
    buf = io.BytesIO()
    magic = b"P5" if palette == "gray" else b"P6"
    buf.write(magic + b"\n%d %d\n255\n" % (field.nx, field.ny))
    for row in field.raster(policy):
        buf.write(b"".join(table[v] for v in row))
    _write_payload(dest, buf.getvalue())
