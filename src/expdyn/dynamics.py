"""Core dynamics of the exponential family z -> lambda * e^z.

Forward iteration is done in log-polar form: a point is stored as
(log modulus, argument), with the log modulus a TowerReal so that orbits
may grow through iterated exponentials without overflow.  The recursion
is exact in that representation:

    log|z_{n+1}| = log|lambda| + Re z_n
    arg  z_{n+1} = (Im z_n + Arg lambda)  mod 2 pi

Arguments are native floats.  Once |z_n| exceeds 2 pi / ulp the reduction
of Im z_n modulo 2 pi carries no information; from that step on arguments
are marked untrusted (they are still propagated deterministically).

step_log_polar applies that recursion to every point through the tower
formula real_part_tower().add_float(log|lambda|); log|lambda| and Arg
lambda are computed once per lambda value (_lambda_logs).
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

from .errors import (
    _RANGE_LIMIT,
    DomainError,
    NumericRangeError,
    ValidationError,
)
from .towers import _EXP_SAFE, NEG_SENTINEL, TowerReal, ZERO, _Frozen, _set

TAU = 2.0 * math.pi
# |z| beyond which Im z mod 2pi is below one ulp of Im z
ARG_TRUST_LIMIT = TAU / 2.220446049250313e-16

# iterate_orbit marks a point escaped past this log modulus, and flags
# precision loss once prod |f'| along the orbit passes e^_LOG_DERIVATIVE_FLAG
_ESCAPE_LOG_MODULUS = TowerReal.from_float(1e8)
_LOG_DERIVATIVE_FLAG = math.log(1e15)


def _require_lambda(lam: complex) -> complex:
    lam = complex(lam)
    if lam == 0:
        raise ValidationError("lambda must be nonzero")
    if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
        raise ValidationError("lambda must be finite")
    return lam


def _lambda_logs(lam: complex) -> tuple[float, float]:
    """(log|lambda|, Arg lambda); lambda is validated the first time a
    value is seen, so an invalid one raises as in _require_lambda."""
    lam = complex(lam)
    # -1+0j == -1-0j, but their arguments are pi and -pi
    return _lambda_logs_of(lam, math.copysign(1.0, lam.imag))


@lru_cache(maxsize=256)
def _lambda_logs_of(lam: complex, imag_sign: float) -> tuple[float, float]:
    lam = _require_lambda(lam)
    return _log_abs(lam), math.atan2(lam.imag, lam.real)


def _log_abs(z: complex) -> float:
    """log|z| of a finite nonzero z.  Where |z| passes DBL_MAX, abs(z)
    overflows, and the log is taken of |z / 2| instead; every other z
    gets math.log(abs(z)) bit for bit."""
    try:
        m = abs(z)
    except OverflowError:
        return math.log(abs(complex(z.real / 2, z.imag / 2))) + math.log(2.0)
    return math.log(m)


def _abs(z: complex) -> float:
    """|z| of a finite z, or inf where |z| passes DBL_MAX and abs(z)
    overflows (_log_abs gives its log there); every other z gets abs(z)
    bit for bit."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _require_point(z: complex) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValidationError("point must be finite")
    return z


def _require_count(n: int, what: str) -> None:
    if n > _RANGE_LIMIT:
        raise ValidationError(f"{what} must be at most {_RANGE_LIMIT}")


def _principal(theta: float) -> float:
    """Reduce to (-pi, pi]."""
    r = math.remainder(theta, TAU)
    # invariant_sets._native_walk applies this rule inline and calls
    # remainder only for a theta outside (-pi, pi]: inside, it returns theta
    return math.pi if r == -math.pi else r


class LogPolarComplex(_Frozen):
    """Point stored as (log modulus, argument in (-pi, pi], trust flag)."""

    __slots__ = ("log_modulus", "argument", "arg_trusted")

    def __init__(
        self, log_modulus: TowerReal, argument: float, arg_trusted: bool = True
    ) -> None:
        _set(self, "log_modulus", log_modulus)
        _set(self, "argument", argument)
        _set(self, "arg_trusted", arg_trusted)

    @classmethod
    def from_complex(cls, z: complex) -> "LogPolarComplex":
        z = _require_point(z)
        if z == 0:
            return cls(TowerReal(0, NEG_SENTINEL), 0.0, True)
        return cls(TowerReal(0, _log_abs(z)), math.atan2(z.imag, z.real), True)

    def modulus_float(self) -> float:
        """Native modulus, or inf when it exceeds the float range."""
        lm = self.log_modulus
        if lm.level == 0 and lm.mantissa <= _EXP_SAFE:
            return math.exp(lm.mantissa)
        return math.inf

    def real_part_tower(self) -> TowerReal:
        """Re z as a TowerReal (clamped to the negative sentinel if below range)."""
        c = math.cos(self.argument)
        m = self.modulus_float()
        if m != math.inf:
            return TowerReal.from_float(m * c)
        if c == 0.0:
            return ZERO
        if c > 0.0:
            return self.log_modulus.add_float(math.log(c)).exp()
        return TowerReal(0, NEG_SENTINEL)


def eval_map(lam: complex, z: complex) -> complex:
    """One application of z -> lambda * e^z in native arithmetic."""
    log_lam = _lambda_logs(lam)[0]
    z = _require_point(z)
    if z.real > _EXP_SAFE or log_lam + z.real > _EXP_SAFE:
        raise NumericRangeError(
            f"Re(z) = {z.real:.6g} exceeds the native exponent budget for this lambda"
        )
    return complex(lam) * cmath.exp(z)


def step_log_polar(lam: complex, p: LogPolarComplex) -> LogPolarComplex:
    """One exact map step in log-polar form.

    The new log modulus is Re z + log|lambda| and the new argument is
    Im z + Arg lambda reduced to (-pi, pi].  The argument stays trusted
    while |z| <= ARG_TRUST_LIMIT or z points exactly along the real axis.
    Past the double range Im z = |z| sin(Arg z) is taken as a tower; when
    it is not a finite float either, the new argument is 0.0.
    """
    log_lam, arg_lam = _lambda_logs(lam)
    m = p.modulus_float()
    s = math.sin(p.argument)
    if m != math.inf:
        new_arg = _principal(m * s + arg_lam)
    elif s == 0.0:
        # exactly real direction past the double range: Im z is an exact
        # zero, and Arg lambda alone keeps the sign of a zero argument
        new_arg = _principal(arg_lam)
    else:
        v = p.log_modulus.add_float(math.log(abs(s))).exp().to_float()
        new_arg = 0.0 if v == math.inf else _principal(math.copysign(v, s) + arg_lam)
    trusted = p.arg_trusted and (m <= ARG_TRUST_LIMIT or s == 0.0)
    return LogPolarComplex(p.real_part_tower().add_float(log_lam), new_arg, trusted)


# ---------------------------------------------------------------------------
# orbits


class OrbitPoint(NamedTuple):
    index: int
    point: LogPolarComplex
    native: Optional[complex]
    escaped: bool
    precision_flag: bool


class OrbitResult(NamedTuple):
    points: tuple[OrbitPoint, ...]
    escaped_at: Optional[int]


def iterate_orbit(lam: complex, z0: complex, n: int) -> OrbitResult:
    """Orbit z0, f(z0), ..., f^n(z0) in log-polar form with per-step status.

    ``escaped`` marks each index whose log modulus exceeds 1e8;
    ``precision_flag`` is set once the accumulated derivative bound
    prod |f'| along the orbit exceeds 1e15 (native re/im values past that
    point carry amplified rounding error).  n is at most _RANGE_LIMIT.
    """
    lam = _require_lambda(lam)
    if n < 0:
        raise ValidationError("orbit length must be non-negative")
    _require_count(n, "orbit length")

    cur = LogPolarComplex.from_complex(z0)
    native: Optional[complex] = complex(z0)
    pts: list[OrbitPoint] = []
    escaped_at: Optional[int] = None
    precision_at: Optional[int] = None
    deriv_log_sum = 0.0

    for i in range(n + 1):
        esc = cur.log_modulus > _ESCAPE_LOG_MODULUS
        if esc and escaped_at is None:
            escaped_at = i
        flag = precision_at is not None
        pts.append(OrbitPoint(i, cur, native, esc, flag))
        if i == n:
            break
        if native is not None:
            try:
                native = eval_map(lam, native)
            except NumericRangeError:
                native = None
        cur = step_log_polar(lam, cur)
        # |f'| at the previous point equals |f| at this one
        lm = cur.log_modulus
        deriv_log_sum += lm.mantissa if lm.level == 0 else math.inf
        if precision_at is None and deriv_log_sum > _LOG_DERIVATIVE_FLAG:
            precision_at = i + 1
    return OrbitResult(tuple(pts), escaped_at)


def singular_orbit(lam: complex, n: int) -> tuple[LogPolarComplex, ...]:
    """beta_1 .. beta_n, the forward orbit of 0 (beta_1 = lambda), exactly
    in log-polar form; n is at most _RANGE_LIMIT."""
    lam = _require_lambda(lam)
    if n < 1:
        raise ValidationError("need at least one orbit point")
    _require_count(n, "singular orbit length")
    out = [LogPolarComplex.from_complex(lam)]
    for _ in range(n - 1):
        out.append(step_log_polar(lam, out[-1]))
    return tuple(out)


def orbit_derivative_log(lam: complex, z0: complex, n: int) -> float:
    """log |(f^n)'(z0)| = sum of log |f^i(z0)| for i = 1..n, native range only."""
    lam = _require_lambda(lam)
    if n < 1:
        raise ValidationError("derivative order must be >= 1")
    z = _require_point(z0)
    total = 0.0
    for _ in range(n):
        z = eval_map(lam, z)
        m = abs(z)
        if m == 0.0:
            raise NumericRangeError("orbit modulus underflowed to zero")
        total += math.log(m)
    return total


# ---------------------------------------------------------------------------
# inverse branches


def inverse_branch(lam: complex, w: complex, k: int) -> complex:
    """The preimage z of w under lambda * e^z with Im z in strip k.

    Strip k is ((2k-1) pi - Arg lambda, (2k+1) pi - Arg lambda], upper edge
    inclusive.  NumericRangeError refuses a strip with an edge past
    ARG_TRUST_LIMIT, where one ulp is wider than a strip, and a preimage
    that no float next to the rounded one puts in strip k.
    """
    lam = _require_lambda(lam)
    w = _require_point(w)
    if w == 0:
        raise DomainError("0 has no preimage under lambda * e^z")
    arg_lam = _lambda_logs(lam)[1]
    _require_strip(k, arg_lam)
    base = cmath.log(w) - cmath.log(lam)
    im = base.imag + TAU * (k - _strip_of_imag(base.imag, arg_lam))
    # next to a strip edge the sum can round across the edge: step it back
    s = _strip_of_imag(im, arg_lam)
    for _ in range(4):
        if s == k:
            break
        im = math.nextafter(im, math.inf if s < k else -math.inf)
        s = _strip_of_imag(im, arg_lam)
    if s != k:
        raise NumericRangeError(f"no float near the preimage lies in strip {k}")
    return complex(base.real, im)


def _require_strip(k: int, arg_lam: float) -> None:
    """NumericRangeError unless both edges of strip k lie within
    ARG_TRUST_LIMIT, where floats still tell strips apart."""
    # a |k| past ARG_TRUST_LIMIT has both edges past it too; testing it
    # first keeps a huge k, whose float edges would overflow, out of them
    if abs(k) > ARG_TRUST_LIMIT or max(
            abs((2 * k - 1) * math.pi - arg_lam), abs((2 * k + 1) * math.pi - arg_lam)
    ) > ARG_TRUST_LIMIT:
        raise NumericRangeError(
            f"strip {k} has an edge past |Im z| = {ARG_TRUST_LIMIT:g}, "
            "where floats cannot tell strips apart")


def _strip_of_imag(im: float, arg_lam: float) -> int:
    """The strip k, ((2k-1) pi - A, (2k+1) pi - A] with pi = math.pi, that
    holds Im z = im, A = arg_lam: the one rule that decides strips.

    Exactly, k = ceil(q), q = (im + A) / TAU - 1/2, with TAU = 2 pi exact.
    The float q takes three roundings, each off by at most u = 2^-53
    relative (an underflowing quotient by under 2^-1074), so it is within
    (3|q| + 1) u + O(u^2) < (|q| + 1) 2^-50 of the exact q.  If both float
    gaps k - q and q - (k - 1) exceed that bound, so do the exact ones
    (rounding is monotone, the bound a float), and k is exact; otherwise,
    always once |q| >= 2^50, k is decided in rationals."""
    q = (im + arg_lam) / TAU - 0.5
    k = math.ceil(q)
    bound = (abs(q) + 1.0) * 2.0 ** -50
    if k - q > bound and q - (k - 1) > bound:
        return k
    from fractions import Fraction

    return math.ceil((Fraction(im) + Fraction(arg_lam)) / Fraction(TAU) - Fraction(1, 2))


# ---------------------------------------------------------------------------
# super-growth of the singular orbit


class SupergrowthReport(NamedTuple):
    c: float
    n_checked: int
    holds: bool
    first_failure_index: Optional[int]
    ratios: tuple[Optional[float], ...]
    tail_ratio: Optional[float]
    largest_passing_c: Optional[float]
    sustained: bool
    escape_threshold: Optional[float]
    alphas: tuple[TowerReal, ...]


def _largest_growth_root(c: float) -> Optional[float]:
    """Largest solution of c * e^x = x (exists iff 0 < c <= 1/e)."""
    if c >= 1.0 / math.e:
        return None
    x0 = -math.log(c)  # argmin of c e^x - x, negative there

    def above(x: float) -> bool:
        """c e^x > x, in log form where e^x overflows (x0 > 1, so x > 0)."""
        if x > _EXP_SAFE:
            return x - x0 > math.log(x)
        return c * math.exp(x) - x > 0.0

    hi = x0 + 1.0
    while not above(hi):
        hi = x0 + 2.0 * (hi - x0)
    lo = x0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if above(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def check_supergrowth(lam: complex, c: float, n: int) -> SupergrowthReport:
    """Check alpha_{k+1} >= c * e^{alpha_k} along the singular orbit.

    ``holds`` additionally requires the growth to be self-sustaining at the
    horizon: for c below 1/e the map x -> c e^x has a largest fixed point,
    and only orbits past it are driven to infinity by the inequality.  A
    bounded orbit (attracting fixed point) can satisfy every finite ratio
    check while alpha stays small forever; the surrogate rejects it.
    """
    lam = _require_lambda(lam)
    if not (c > 0.0 and math.isfinite(c)):
        raise ValidationError("c must be a positive real")
    if n < 2:
        raise ValidationError("need n >= 2")

    orbit = singular_orbit(lam, n)
    alphas = tuple(p.real_part_tower() for p in orbit)  # alphas[i] = alpha_{i+1}
    log_c = math.log(c)

    ratios: list[Optional[float]] = []
    first_fail: Optional[int] = None
    log_margins: list[float] = []
    for k in range(1, n):
        a_prev = alphas[k - 1]
        a_next = alphas[k]
        if not a_next > ZERO:
            ok = False
            ratios.append(None)
            log_margins.append(-math.inf)
        else:
            lhs = a_next.log()
            rhs = a_prev.add_float(log_c)
            ok = lhs >= rhs
            fa, fb = lhs.to_float(), rhs.to_float()
            if fa != math.inf and fb != math.inf:
                # both logs native: the difference carries float precision
                d = fa - fb
                ratios.append(math.exp(d) if abs(d) <= _EXP_SAFE else None)
                log_margins.append(d)
            else:
                # past native range the ratio is below representation
                # resolution (towers differing by a factor collapse to the
                # same mantissa); report it as unresolvable, not as 1
                ratios.append(None)
                if not ok:
                    log_margins.append(-math.inf)
        if not ok and first_fail is None:
            first_fail = k

    threshold = _largest_growth_root(c)
    if threshold is None:
        sustained = alphas[-1] > ZERO
    else:
        sustained = alphas[-1] > TowerReal.from_float(threshold)
    holds = first_fail is None and sustained

    # largest c passing the ratio checks over this horizon, from the
    # margins that are resolvable (none resolvable: no improvement on c)
    worst = min(log_margins) if log_margins else 0.0
    if worst == -math.inf:
        largest_c: Optional[float] = 0.0
    elif worst + log_c > _EXP_SAFE:
        largest_c = None
    elif worst > _EXP_SAFE:  # a tiny c: e^worst alone would overflow
        largest_c = math.exp(worst + log_c)
    else:
        largest_c = c * math.exp(worst)

    tail_ratio = _tail_ratio(alphas)
    return SupergrowthReport(
        c=c,
        n_checked=n,
        holds=holds,
        first_failure_index=first_fail,
        ratios=tuple(ratios),
        tail_ratio=tail_ratio,
        largest_passing_c=largest_c,
        sustained=sustained,
        escape_threshold=threshold,
        alphas=alphas,
    )


def _tail_ratio(alphas: Sequence[TowerReal]) -> Optional[float]:
    """(alpha_1 + ... + alpha_k) / alpha_{k+1} at the deepest native k+1."""
    best: Optional[float] = None
    partial = 0.0
    for i in range(1, len(alphas)):
        a = alphas[i - 1].to_float()
        if a == math.inf:
            break
        partial += a
        nxt = alphas[i].to_float()
        if nxt != math.inf and nxt > 0.0:
            best = partial / nxt
    return best
