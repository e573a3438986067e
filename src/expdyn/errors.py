"""Exception hierarchy shared across the package.

The split mirrors the command-line exit codes: validation problems are the
caller's fault (bad arguments, malformed literals, preconditions), numeric
range problems mean the requested computation left the representable range
(native exponent budget, tower levels where a native float is required).
The one limit on how far a count or range may expand lives here too, so
that the command-line front end can check it without loading the modules
that compute.
"""

# most values a count or range may expand to: the points of an orbit, the
# levels of a geometry, a ray's or a cover's depth, the pixels of a field
# side, the columns of a certificate, and the values of a T0:T1:STEP or
# E0:E1:FACTOR range
_RANGE_LIMIT = 10_000


class ExpdynError(Exception):
    """Base class for package errors."""


class ValidationError(ExpdynError):
    """Input violates a documented precondition."""


class DomainError(ValidationError):
    """Mathematically undefined request (inverse branch at 0, log of 0)."""


class NumericRangeError(ExpdynError):
    """Result or intermediate left the representable numeric range."""


class NonConvergenceError(NumericRangeError):
    """An iterative procedure failed its self-consistency check."""


class GeometryError(ValidationError):
    """Induced-map geometry could not be constructed at these parameters."""
