"""Numerical laboratory for the exponential family f(z) = lambda * e^z.

Submodules:
  towers          iterated-exponential real arithmetic
  dynamics        orbits, log-polar iteration, supergrowth checks
  coding          strip partition, external addresses
  rays            dynamic-ray tracing by pullback
  invariant_sets  forward-invariant sets in a thin set W, exit-depth fields
  induced         contraction certificates, iterated covers
  boxdim          box counting and the certified dimension-bound search
  render          image output for exit-depth fields
  cli             command-line front end
"""

from .errors import (
    DomainError,
    ExpdynError,
    GeometryError,
    NonConvergenceError,
    NumericRangeError,
    ValidationError,
)
from .towers import TowerReal
from .dynamics import (
    LogPolarComplex,
    OrbitPoint,
    OrbitResult,
    SupergrowthReport,
    check_supergrowth,
    eval_map,
    inverse_branch,
    iterate_orbit,
    orbit_derivative_log,
    singular_orbit,
    step_log_polar,
)
from .coding import (
    ExternalAddress,
    parse_address,
    strip_index,
)
from .rays import (
    Ray,
    RaySample,
    ray_to_csv,
    trace_ray,
    write_ray_csv,
)
from .invariant_sets import (
    ConeBand,
    ExitDepthField,
    MembershipResult,
    Strip,
    ThinSetSpec,
    field_to_csv,
    field_to_pgm,
    horizontal_strip,
    lambda_membership,
    sample_lambda_set,
    symmetric_strip,
    write_field_csv,
    write_field_pgm,
)
from .induced import (
    ContractionCertificate,
    CoverLevel,
    CoverRun,
    InducedGeometry,
    RectangleIndex,
    ZMFamily,
    build_zm,
    certificate_to_json,
    cover_iterate,
    negative_geometry,
    positive_sum,
    verify_contraction,
)
from .boxdim import (
    BoxCountResult,
    DimensionReport,
    box_count,
    dimension_bound_search,
    report_to_json,
)
from .render import render_field

__version__ = "0.1.0"

__all__ = [
    "BoxCountResult",
    "ConeBand",
    "ContractionCertificate",
    "CoverLevel",
    "CoverRun",
    "DimensionReport",
    "DomainError",
    "ExitDepthField",
    "ExpdynError",
    "ExternalAddress",
    "GeometryError",
    "InducedGeometry",
    "LogPolarComplex",
    "MembershipResult",
    "NonConvergenceError",
    "NumericRangeError",
    "OrbitPoint",
    "OrbitResult",
    "Ray",
    "RaySample",
    "RectangleIndex",
    "Strip",
    "SupergrowthReport",
    "ThinSetSpec",
    "TowerReal",
    "ValidationError",
    "ZMFamily",
    "box_count",
    "build_zm",
    "certificate_to_json",
    "check_supergrowth",
    "cover_iterate",
    "dimension_bound_search",
    "eval_map",
    "field_to_csv",
    "field_to_pgm",
    "horizontal_strip",
    "inverse_branch",
    "iterate_orbit",
    "lambda_membership",
    "negative_geometry",
    "orbit_derivative_log",
    "parse_address",
    "positive_sum",
    "ray_to_csv",
    "render_field",
    "report_to_json",
    "sample_lambda_set",
    "singular_orbit",
    "step_log_polar",
    "strip_index",
    "symmetric_strip",
    "trace_ray",
    "verify_contraction",
    "write_field_csv",
    "write_field_pgm",
    "write_ray_csv",
]
