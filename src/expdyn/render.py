"""Deterministic image rendering of exit-depth fields.

Two palettes: "gray" emits binary PGM (P5, 8 bit), "fire" emits binary
PPM (P6) with a black-red-yellow-white ramp.  Pixels that never exit map
to the top of the palette.  Rows are written top first, as Netpbm
rasters run, so Im z grows upward in the image.
"""

from __future__ import annotations

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
    top = field.depth + 1
    # pixel bytes of each value 0..top (exits and the survivor value)
    if palette == "gray":
        table = [bytes((round(255 * (v / top)),)) for v in range(top + 1)]
    else:
        table = [bytes(_fire(v / top)) for v in range(top + 1)]
    magic = b"P5" if palette == "gray" else b"P6"
    rows = [b"".join(map(table.__getitem__, row)) for row in field.raster(policy)]
    _write_payload(dest, magic + b"\n%d %d\n255\n" % (field.nx, field.ny) + b"".join(rows))
