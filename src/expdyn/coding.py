"""Strip partition and external addresses.

The plane splits into horizontal strips

    P_k = { z : (2k-1) pi - Arg lambda < Im z <= (2k+1) pi - Arg lambda },

each mapped bijectively onto C minus the negative real half-line through 0.
The edges are taken with pi the float math.pi, as TAU, inverse branches
and ray seeds take them, and a point's strip is decided exactly against
them (dynamics._strip_of_imag).  They differ from the edges at the real
pi by under one ulp: of the 1,089 floats within 4 ulps of an edge
(2k+1) pi, |k| <= 60, at lambda = 1, 29 lie in a different strip.

An external address is a bounded integer sequence; orbits get one by
recording the strip of each iterate, rays carry one by construction.
"""

from __future__ import annotations

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
    """Bounded integer sequence: the finite prefix ``entries``, then the
    tuple ``cycle`` repeated forever from its first element.

    An empty cycle makes the address finite, and ``(k,)`` is the constant
    tail k.  No canonical form is computed: ``periodic([1, 1])`` and
    ``periodic([1])`` are the same sequence but different values.
    """

    __slots__ = ("entries", "cycle")

    def __init__(self, entries: tuple[int, ...] = (), cycle: tuple[int, ...] = ()) -> None:
        for v in entries + cycle:
            if not isinstance(v, int):
                raise ValidationError(f"address entries must be integers, got {v!r}")
        _set(self, "entries", entries)
        _set(self, "cycle", cycle)

    # -- constructors

    @classmethod
    def constant(cls, k: int) -> "ExternalAddress":
        return cls((), (k,))

    @classmethod
    def periodic(cls, pattern) -> "ExternalAddress":
        cycle = tuple(pattern)
        if not cycle:
            raise ValidationError("periodic address needs a nonempty pattern")
        return cls((), cycle)

    @classmethod
    def from_entries(cls, entries) -> "ExternalAddress":
        return cls(tuple(entries))

    # -- access

    def entry(self, n: int) -> int:
        if n < 0:
            raise ValidationError("address index must be >= 0")
        entries, cycle = self.entries, self.cycle
        if n < len(entries):
            return entries[n]
        # a one-entry cycle skips the modulo: rays read such tails the most
        if len(cycle) == 1:
            return cycle[0]
        if not cycle:
            raise ValidationError(f"address has only {len(entries)} entries, asked for index {n}")
        return cycle[(n - len(entries)) % len(cycle)]

    def shift(self) -> "ExternalAddress":
        """Drop the first entry."""
        if self.entries:
            return ExternalAddress(self.entries[1:], self.cycle)
        if not self.cycle:
            raise ValidationError("cannot shift an empty address")
        return ExternalAddress((), self.cycle[1:] + self.cycle[:1])

    def describe(self) -> str:
        """The prefix, then the cycle (twice when it has one entry), then "..."."""
        if not self.cycle:
            return "(" + ",".join(map(str, self.entries)) + ")"
        shown = self.entries + self.cycle * (2 if len(self.cycle) == 1 else 1)
        return "(" + ",".join(map(str, shown)) + ",...)"


def parse_address(text: str) -> ExternalAddress:
    """Parse an address literal into its prefix and cycle.

    "const:K" is ((), (K,)); "periodic:a,b,c" is ((), (a, b, c)); a
    comma-separated list "0,1,-2" is finite, ((0, 1, -2), ()); a list with
    the suffix "...const", or a bare trailing "...", repeats its last value
    ("1,0...const" is ((1,), (0,))); a list with the suffix "...period"
    repeats as a whole ("2,0,0,0...period" is ((), (2, 0, 0, 0))).
    """
    t = text.strip().replace("…", "...")
    try:
        if t.startswith("const:"):
            return ExternalAddress((), (int(t[6:]),))
        if t.startswith("periodic:"):
            vals = tuple(int(v) for v in t[9:].split(",") if v.strip())
            if not vals:
                raise ValueError
            return ExternalAddress((), vals)
        suffix = next((s for s in ("...const", "...period", "...") if t.endswith(s)), "")
        vals = tuple(int(v) for v in t[: len(t) - len(suffix)].replace(",", " ").split())
        if not vals:
            raise ValueError
        if suffix == "...period":
            return ExternalAddress((), vals)
        if suffix:
            return ExternalAddress(vals[:-1], vals[-1:])
        return ExternalAddress(vals)
    except ValueError:
        raise ValidationError(f"cannot parse address literal {text!r}") from None
