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
from operator import attrgetter

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


_set = object.__setattr__


class _Frozen:
    """Base of the immutable values with fields stored in ``__slots__``.

    A subclass lists its fields, in order, as its ``__slots__`` and sets
    them once in ``__init__`` through ``object.__setattr__``.  Values of
    one class are equal, and hash alike, when their fields are; repr,
    pickling, copying and ``_replace`` go through the fields too.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # the field values as a tuple: every subclass has two fields or more
        cls._values = property(attrgetter(*cls.__slots__))

    def _replace(self, **changes):
        """A copy with the named fields changed, built by the constructor."""
        return type(self)(**dict(zip(self.__slots__, self._values), **changes))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self.__slots__, self._values))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values


class TowerReal(_Frozen):
    """exp applied ``level`` times to ``mantissa``; total order; exp/log lifts.

    The canonical form makes level ranges disjoint, so the order on
    (level, mantissa) is the value order.
    """

    __slots__ = ("level", "mantissa")

    def __init__(self, level: int, mantissa: float) -> None:
        _set(self, "level", level)
        _set(self, "mantissa", mantissa)
        # every construction, unpickling and _replace included, runs this once
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValidationError("tower level must be non-negative")
        lvl, man = _normalize(self.level, self.mantissa)
        _set(self, "level", lvl)
        _set(self, "mantissa", man)

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.level, self.mantissa) < (other.level, other.mantissa)
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return (self.level, self.mantissa) <= (other.level, other.mantissa)
        return NotImplemented

    def __gt__(self, other):
        if other.__class__ is self.__class__:
            return (self.level, self.mantissa) > (other.level, other.mantissa)
        return NotImplemented

    def __ge__(self, other):
        if other.__class__ is self.__class__:
            return (self.level, self.mantissa) >= (other.level, other.mantissa)
        return NotImplemented

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

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.level == 0:
            return f"TowerReal({self.mantissa!r})"
        return f"TowerReal(level={self.level}, mantissa={self.mantissa!r})"


ZERO = TowerReal(0, 0.0)
