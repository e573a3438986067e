"""Deterministic image rendering of exit-depth fields.

Two palettes: "gray" emits binary PGM (P5, 8 bit), "fire" emits binary
PPM (P6) with a black-red-yellow-white ramp.  Pixels that never exit map
to the top of the palette.  Rows are written top first, as Netpbm
rasters run, so Im z grows upward in the image.
"""

from __future__ import annotations

from os import PathLike
from typing import BinaryIO, Callable, Union

from .errors import ValidationError
from .invariant_sets import ExitDepthField
from .reports import _write_payload


def _gray(t: float) -> tuple[int]:
    return (round(255 * t),)


def _fire(t: float) -> tuple[int, int, int]:
    r = min(1.0, 3.0 * t)
    g = min(1.0, max(0.0, 3.0 * t - 1.0))
    b = min(1.0, max(0.0, 3.0 * t - 2.0))
    return round(255 * r), round(255 * g), round(255 * b)


class _Palette(dict):
    """Pixel bytes of each field value, made on its first lookup: the cost
    follows the values a raster holds, not the depth."""

    def __init__(self, shade: Callable[[float], tuple[int, ...]], top: int) -> None:
        self.shade, self.top = shade, top

    def __missing__(self, v: int) -> bytes:
        entry = self[v] = bytes(self.shade(v / self.top))
        return entry


def render_field(
    field: ExitDepthField,
    dest: Union[str, PathLike, BinaryIO],
    palette: str = "gray",
    policy: str = "conservative",
) -> None:
    if palette not in ("gray", "fire"):
        raise ValidationError(f"unknown palette {palette!r}")
    table = _Palette(_gray if palette == "gray" else _fire, field.depth + 1)
    magic = b"P5" if palette == "gray" else b"P6"
    rows = [b"".join(map(table.__getitem__, row)) for row in field.raster(policy)]
    _write_payload(dest, magic + b"\n%d %d\n255\n" % (field.nx, field.ny) + b"".join(rows))
