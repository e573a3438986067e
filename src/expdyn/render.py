"""Deterministic image rendering of exit-depth fields.

Two palettes: "gray" emits binary PGM (P5, 8 bit), "fire" emits binary
PPM (P6) with a black-red-yellow-white ramp.  Pixels that never exit map
to the top of the palette.  Rows are written bottom first so the image's
y axis matches the imaginary axis.
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
    buf = io.BytesIO()
    magic = b"P5" if palette == "gray" else b"P6"
    buf.write(magic + b"\n%d %d\n255\n" % (field.nx, field.ny))
    for iy in range(field.ny):
        row = bytearray()
        for ix in range(field.nx):
            t = data[iy * field.nx + ix] / top
            if palette == "gray":
                row.append(round(255 * t))
            else:
                row.extend(_fire(t))
        buf.write(bytes(row))
    _write_payload(dest, buf.getvalue())
