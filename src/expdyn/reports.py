"""The JSON report writer shared by the certificate, search, box-count and
supergrowth reports, and the payload writer of every file output.

They sit apart from the modules that compute those reports, so that a
command which only writes a report or a file loads none of their code.
"""

from __future__ import annotations

import json
from functools import cache
from itertools import chain, repeat
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Union


def _write_payload(dest, payload: Union[str, bytes]) -> None:
    """Write to an open file object, or to a path: text as ASCII with
    newlines untranslated, bytes as binary."""
    if hasattr(dest, "write"):
        dest.write(payload)
    elif isinstance(payload, str):
        with open(dest, "w", encoding="ascii", newline="") as fh:
            fh.write(payload)
    else:
        with open(dest, "wb") as fh:
            fh.write(payload)


def report_json(doc) -> str:
    """doc exactly as json.dumps(doc, indent=2, sort_keys=True) writes it:
    ASCII, sorted keys, a 2-space indent.  Every dict key must be a str.

    json.dumps runs its pure-Python encoder whenever indent is set.  Here
    the C encoder writes each container of scalars, and each list of such
    dicts, in one call: its item separator carries the line break and
    indent.  Only the other containers that hold containers are joined in
    Python.
    """
    if c_make_encoder is None:  # an interpreter without the _json accelerator
        return json.dumps(doc, indent=2, sort_keys=True)
    return _report_value(doc, 0)


_CONTAINERS = (dict, list, tuple)


@cache
def _flat_encoder(depth: int):
    """The C encoder for a value whose items sit at indent level depth."""
    return c_make_encoder(
        None, json.JSONEncoder().default, encode_basestring_ascii, None,
        ": ", ",\n" + "  " * depth, True, False, True,
    )


def _holds_container(values) -> bool:
    return any(map(isinstance, values, repeat(_CONTAINERS)))


def _report_value(obj, depth: int) -> str:
    """obj, written at indent level depth, as report_json writes it."""
    if isinstance(obj, dict):
        values = obj.values()
    elif isinstance(obj, (list, tuple)):
        values = obj
    else:
        return "".join(_flat_encoder(depth)(obj, 0))
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    inner = "\n" + "  " * (depth + 1)
    outer = "\n" + "  " * depth
    if not _holds_container(values):
        text = "".join(_flat_encoder(depth + 1)(obj, 0))
        return text[0] + inner + text[1:-1] + outer + text[-1]
    if isinstance(obj, dict):
        parts = [encode_basestring_ascii(k) + ": " + _report_value(obj[k], depth + 1)
                 for k in sorted(obj)]
        return "{" + inner + ("," + inner).join(parts) + outer + "}"
    if (all(map(isinstance, obj, repeat(dict))) and all(obj)
            and not _holds_container(chain.from_iterable(map(dict.values, obj)))):
        # nonempty dicts of scalars, written with the dicts' separator; no
        # scalar ends in "}", so each "}" before a separator ends a dict
        text = "".join(_flat_encoder(depth + 2)(obj, 0))
        head = "{\n" + "  " * (depth + 2)
        tail = "\n" + "  " * (depth + 1) + "}"
        body = text[2:-2].replace("}" + ",\n" + "  " * (depth + 2) + "{",
                                  tail + "," + inner + head)
        return "[" + inner + head + body + tail + outer + "]"
    parts = [_report_value(v, depth + 1) for v in obj]
    return "[" + inner + ("," + inner).join(parts) + outer + "]"
