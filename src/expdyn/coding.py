"""Strip partition, itineraries, and external addresses.

The plane splits into horizontal strips

    P_k = { z : (2k-1) pi - Arg lambda < Im z <= (2k+1) pi - Arg lambda },

each mapped bijectively onto C minus the negative real half-line through 0.
An external address is a bounded integer sequence; orbits get one by
recording the strip of each iterate, rays carry one by construction.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

from .errors import UntrustedArgumentError, ValidationError
from .dynamics import (
    LogPolarComplex,
    TAU,
    _lambda_logs,
    _require_lambda,
    _require_point,
    _strip_coordinate,
    _strip_of_imag,
    step_log_polar,
)


def strip_index(lam: complex, z: complex) -> int:
    """Index k of the horizontal strip containing z, upper edge inclusive."""
    lam = _require_lambda(lam)
    z = _require_point(z)
    return _strip_of_imag(z.imag, _lambda_logs(lam)[1])


# ---------------------------------------------------------------------------
# external addresses


@dataclass(frozen=True)
class ExternalAddress:
    """Bounded integer sequence, stored as a finite prefix plus an optional
    deterministic tail rule.

    ``tail`` is either None (the address is just the finite prefix),
    ("constant", k), or ("periodic", pattern): the tail starts right after
    the prefix and, for the periodic rule, cycles the pattern from its
    first element.
    """

    entries: tuple[int, ...] = ()
    tail: Optional[tuple] = None

    def __post_init__(self):
        if self.tail is not None:
            kind = self.tail[0]
            if kind == "constant":
                if not isinstance(self.tail[1], int):
                    raise ValidationError("constant tail value must be an integer")
            elif kind == "periodic":
                pat = self.tail[1]
                if not pat or not all(isinstance(v, int) for v in pat):
                    raise ValidationError("periodic tail needs a nonempty integer pattern")
            else:
                raise ValidationError(f"unknown tail rule {kind!r}")

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


# ---------------------------------------------------------------------------
# itineraries


# rounding allowance per step, relative, in the itinerary error bounds
_ROUND = 8 * sys.float_info.epsilon


def _times(a: float, b: float) -> float:
    """a * b with 0 * inf = 0: an exact zero error stays exact."""
    return 0.0 if a == 0.0 or b == 0.0 else a * b


def itinerary(lam: complex, z: complex, n: int) -> ExternalAddress:
    """Strip indices of z, f(z), ..., f^{n-1}(z) as a finite address.

    z is taken as known to its last bits.  First-order bounds on the
    errors of Re and Im follow the orbit (f' = f: an error in Re scales
    the next point, an error in Im turns it), and a point whose Im error
    passes the nearest strip edge raises UntrustedArgumentError instead
    of reporting a guessed index.
    """
    lam = _require_lambda(lam)
    if n < 1:
        raise ValidationError("itinerary length must be >= 1")
    log_lam, arg_lam = _lambda_logs(lam)
    p = LogPolarComplex.from_complex(z)
    # absolute errors of the log modulus and the argument of the point
    d_log = _ROUND * (1.0 + abs(p.log_modulus.mantissa))
    d_arg = _ROUND * abs(p.argument)
    out: list[int] = []
    for i in range(n):
        if not p.arg_trusted:
            raise UntrustedArgumentError(
                f"argument precision exhausted at orbit step {i}"
            )
        m = p.modulus_float()
        abs_re = _times(m, abs(math.cos(p.argument)))
        abs_im = _times(m, abs(math.sin(p.argument)))
        err_re = _times(abs_re, d_log) + _times(abs_im, d_arg)
        err_im = _times(abs_im, d_log) + _times(abs_re, d_arg)
        im = p.imag_part_float()
        if im is None:
            raise UntrustedArgumentError(
                f"imaginary part not representable at orbit step {i}"
            )
        # edges of the strips sit at integer u
        u = _strip_coordinate(im, arg_lam)
        if err_im > TAU * abs(u - round(u)):
            raise UntrustedArgumentError(
                f"strip of the orbit point undecided at orbit step {i}"
            )
        out.append(math.ceil(u))
        if i + 1 < n:
            d_log = err_re + _ROUND * (abs_re + abs(log_lam))
            d_arg = err_im + _ROUND * (abs_im + abs(arg_lam))
            p = step_log_polar(lam, p)
    return ExternalAddress.from_entries(out)
