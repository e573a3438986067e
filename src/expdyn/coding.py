"""Strip partition and external addresses.

The plane splits into horizontal strips

    P_k = { z : (2k-1) pi - Arg lambda < Im z <= (2k+1) pi - Arg lambda },

each mapped bijectively onto C minus the negative real half-line through 0.
An external address is a bounded integer sequence; orbits get one by
recording the strip of each iterate, rays carry one by construction.
"""

from __future__ import annotations

from typing import Optional

from .errors import ValidationError
from .dynamics import _lambda_logs, _require_lambda, _require_point, _strip_of_imag
from .towers import _Frozen, _set


def strip_index(lam: complex, z: complex) -> int:
    """Index k of the horizontal strip containing z, upper edge inclusive."""
    lam = _require_lambda(lam)
    z = _require_point(z)
    return _strip_of_imag(z.imag, _lambda_logs(lam)[1])


# ---------------------------------------------------------------------------
# external addresses


class ExternalAddress(_Frozen):
    """Bounded integer sequence, stored as a finite prefix plus an optional
    deterministic tail rule.

    ``tail`` is either None (the address is just the finite prefix),
    ("constant", k), or ("periodic", pattern): the tail starts right after
    the prefix and, for the periodic rule, cycles the pattern from its
    first element.
    """

    __slots__ = ("entries", "tail")

    def __init__(self, entries: tuple[int, ...] = (), tail: Optional[tuple] = None) -> None:
        if tail is not None:
            kind = tail[0]
            if kind == "constant":
                if not isinstance(tail[1], int):
                    raise ValidationError("constant tail value must be an integer")
            elif kind == "periodic":
                pat = tail[1]
                if not pat or not all(isinstance(v, int) for v in pat):
                    raise ValidationError("periodic tail needs a nonempty integer pattern")
            else:
                raise ValidationError(f"unknown tail rule {kind!r}")
        _set(self, "entries", entries)
        _set(self, "tail", tail)

    # -- constructors

    @classmethod
    def constant(cls, k: int) -> "ExternalAddress":
        return cls((), ("constant", int(k)))

    @classmethod
    def periodic(cls, pattern) -> "ExternalAddress":
        return cls((), ("periodic", tuple(int(v) for v in pattern)))

    @classmethod
    def from_entries(cls, entries) -> "ExternalAddress":
        return cls(tuple(int(v) for v in entries), None)

    # -- access

    def entry(self, n: int) -> int:
        if n < 0:
            raise ValidationError("address index must be >= 0")
        if n < len(self.entries):
            return self.entries[n]
        if self.tail is None:
            raise ValidationError(
                f"address has only {len(self.entries)} entries, asked for index {n}"
            )
        if self.tail[0] == "constant":
            return self.tail[1]
        pat = self.tail[1]
        return pat[(n - len(self.entries)) % len(pat)]

    def shift(self) -> "ExternalAddress":
        """Drop the first entry."""
        if self.entries:
            return ExternalAddress(self.entries[1:], self.tail)
        if self.tail is None:
            raise ValidationError("cannot shift an empty address")
        if self.tail[0] == "constant":
            return self
        pat = self.tail[1]
        return ExternalAddress((), ("periodic", pat[1:] + pat[:1]))

    def describe(self) -> str:
        head = ",".join(str(v) for v in self.entries)
        if self.tail is None:
            return f"({head})"
        if self.tail[0] == "constant":
            tail = f"{self.tail[1]},{self.tail[1]},..."
        else:
            tail = ",".join(str(v) for v in self.tail[1]) + ",..."
        return f"({head},{tail})" if head else f"({tail})"


def parse_address(text: str) -> ExternalAddress:
    """Parse an address literal.

    Accepted forms: "const:K", "periodic:a,b,c", a comma-separated finite
    list "0,1,-2", a list with the suffix "...const" (the last value
    repeats forever, e.g. "0...const") or "...period" (the whole prefix
    repeats, e.g. "2,0,0,0...period"), and a bare trailing ellipsis
    "0,1,2,..." as shorthand for "...const".
    """
    t = text.strip().replace("…", "...")
    try:
        if t.startswith("const:"):
            return ExternalAddress.constant(int(t[6:]))
        if t.startswith("periodic:"):
            vals = [int(v) for v in t[9:].split(",") if v.strip()]
            if not vals:
                raise ValueError
            return ExternalAddress.periodic(vals)
        tail_kind = None
        for suffix, kind in (("...const", "constant"), ("...period", "periodic"),
                             ("...", "constant")):
            if t.endswith(suffix):
                tail_kind = kind
                t = t[: -len(suffix)].rstrip().rstrip(",")
                break
        vals = [int(v) for v in t.replace(",", " ").split()]
        if not vals:
            raise ValueError
        if tail_kind == "constant":
            return ExternalAddress(tuple(vals[:-1]), ("constant", vals[-1]))
        if tail_kind == "periodic":
            return ExternalAddress.periodic(vals)
        return ExternalAddress.from_entries(vals)
    except ValueError:
        raise ValidationError(f"cannot parse address literal {text!r}") from None

