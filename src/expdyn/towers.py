"""Overflow-safe reals for iterated-exponential growth.

A TowerReal stores a value as ``exp`` applied ``level`` times to a native
float ``mantissa``.  Orbits of z -> lambda*e^z produce real parts like
e^(e^(e^x)) within a handful of steps, so a plain float dies at the third
or fourth iterate; the tower keeps exact track of the growth while staying
in native precision as long as possible.

Canonical form uses a single lift threshold at every level:

* level 0 whenever the value is below LIFT (= 710, just above the native
  exp overflow point ~709.78); the mantissa is then the plain value and
  may be any float, including negatives,
* level >= 1 with mantissa in [ln(LIFT), LIFT).

With that normalization the value ranges of distinct levels are disjoint
and increasing, so comparison is lexicographic in (level, mantissa).

Values at or below -LIFT in magnitude cannot be lifted (towers are
positive); anything that would fall below the representable range is
clamped to NEG_SENTINEL.  The clamp error is of order e^(-huge), far below
one ulp of anything downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NumericRangeError, ValidationError

# Native-to-tower switchover, just above math.exp's overflow threshold.
LIFT = 710.0
_LOG_LIFT = math.log(LIFT)  # ~6.565
_EXP_SAFE = 709.78  # math.exp overflows above this

# Stand-in for "hugely negative, beyond every float": still a valid float,
# so level-0 arithmetic and comparisons keep working.
NEG_SENTINEL = -8.9e307


def _normalize(level: int, mantissa: float) -> tuple[int, float]:
    if math.isnan(mantissa) or math.isinf(mantissa):
        raise ValidationError(f"tower mantissa must be finite, got {mantissa!r}")
    while mantissa >= LIFT:
        mantissa = math.log(mantissa)
        level += 1
    while level >= 1 and mantissa < _LOG_LIFT:
        # exp stays below LIFT here, so this cannot ping-pong with the lift
        mantissa = math.exp(mantissa)
        level -= 1
    if level == 0 and mantissa < NEG_SENTINEL:
        mantissa = NEG_SENTINEL
    return level, mantissa


@dataclass(frozen=True, order=True)
class TowerReal:
    """exp applied ``level`` times to ``mantissa``; total order; exp/log lifts.

    The canonical form makes level ranges disjoint, so the generated
    field-wise order on (level, mantissa) is the value order.
    """

    level: int
    mantissa: float

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValidationError("tower level must be non-negative")
        lvl, man = _normalize(self.level, self.mantissa)
        object.__setattr__(self, "level", lvl)
        object.__setattr__(self, "mantissa", man)

    # ---- constructors -------------------------------------------------

    @classmethod
    def from_float(cls, x: float) -> "TowerReal":
        return cls(0, float(x))

    # ---- conversions ---------------------------------------------------

    def to_float(self) -> float:
        """Native value; math.inf when the value exceeds the float range."""
        level, x = self.level, self.mantissa
        while level > 0:
            if x > _EXP_SAFE:
                return math.inf
            x = math.exp(x)
            level -= 1
        return x

    def is_native(self) -> bool:
        return self.to_float() != math.inf

    # ---- arithmetic ----------------------------------------------------

    def exp(self) -> "TowerReal":
        """exp of the value; lifts the raw level by exactly one."""
        return TowerReal(self.level + 1, self.mantissa)

    def log(self) -> "TowerReal":
        """Natural log; defined for positive values only."""
        if self.level >= 1:
            return TowerReal(self.level - 1, self.mantissa)
        if self.mantissa <= 0.0:
            raise DomainError("log of a non-positive tower value")
        return TowerReal(0, math.log(self.mantissa))

    def add_float(self, d: float) -> "TowerReal":
        """Value + d for a native float d.

        At level 2 the value is e^w with w = e^mantissa >= LIFT, and d moves
        w by log1p(d e^-w); that is below half an ulp of w once w passes
        about 741 (mantissa about 6.61), and at level 3 and above always,
        so the tower is returned unchanged there.
        """
        if math.isnan(d) or math.isinf(d):
            raise ValidationError("offset must be finite")
        if d == 0.0:
            return self
        if self.level == 0:
            return TowerReal(0, self.mantissa + d)
        if self.level == 1:
            # e^m + d = e^(m + log1p(d e^-m)); e^-m never overflows here
            t = d * math.exp(-self.mantissa)
            if t <= -1.0:
                # result <= 0: fall back to native (value is < LIFT only
                # if |d| ~ e^m, which forces the value native anyway)
                v = self.to_float()
                if v == math.inf:
                    raise NumericRangeError("tower + offset left the positive range")
                return TowerReal.from_float(v + d)
            return TowerReal(1, self.mantissa + math.log1p(t))
        if self.level == 2 and self.mantissa <= _EXP_SAFE:
            w = math.exp(self.mantissa)
            # |d| < e^LIFT <= e^w, so the log1p argument lies in (-1, 1)
            v = w + math.log1p(math.copysign(math.exp(math.log(abs(d)) - w), d))
            if v != w:
                return TowerReal(1, v)
        return self

    def mul_float(self, c: float) -> "TowerReal":
        """Value * c for a native float c > 0."""
        if not c > 0.0 or math.isinf(c):
            raise ValidationError("factor must be a finite positive float")
        if c == 1.0:
            return self
        if self.level == 0:
            prod = self.mantissa * c
            if abs(prod) != math.inf:
                return TowerReal(0, prod)
            if self.mantissa < 0.0:
                return TowerReal(0, NEG_SENTINEL)
            return TowerReal(1, math.log(self.mantissa) + math.log(c))
        # multiply by shifting the log one level down
        return self.log().add_float(math.log(c)).exp()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.level == 0:
            return f"TowerReal({self.mantissa!r})"
        return f"TowerReal(level={self.level}, mantissa={self.mantissa!r})"


ZERO = TowerReal(0, 0.0)
