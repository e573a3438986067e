"""Numerical laboratory for the exponential family f(z) = lambda * e^z.

Submodules:
  towers          iterated-exponential real arithmetic
  dynamics        orbits, log-polar iteration, supergrowth checks
  coding          strip partition, external addresses, itineraries
  rays            dynamic-ray tracing by pullback, landing probes
  invariant_sets  forward-invariant sets in a thin set W, exit-depth fields
  induced         induced map, contraction certificates, iterated covers
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
    UntrustedArgumentError,
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
    itinerary,
    parse_address,
    rempe_address,
    shift,
    strip_index,
)
from .rays import (
    LandingProbe,
    Ray,
    RaySample,
    landing_probe,
    ray_asymptote,
    ray_to_csv,
    trace_ray,
    write_ray_csv,
)
from .invariant_sets import (
    ExitDepthField,
    ExpansionEstimate,
    MembershipResult,
    ThinCheckReport,
    ThinSetSpec,
    TrajectoryClass,
    classify_trajectory,
    cone_band,
    field_to_csv,
    field_to_pgm,
    horizontal_strip,
    lambda_membership,
    measure_expansion,
    sample_lambda_set,
    symmetric_strip,
    thin_check,
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
    induced_apply,
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
    "ContractionCertificate",
    "CoverLevel",
    "CoverRun",
    "DimensionReport",
    "DomainError",
    "ExitDepthField",
    "ExpansionEstimate",
    "ExpdynError",
    "ExternalAddress",
    "GeometryError",
    "InducedGeometry",
    "LandingProbe",
    "LogPolarComplex",
    "MembershipResult",
    "NonConvergenceError",
    "NumericRangeError",
    "OrbitPoint",
    "OrbitResult",
    "Ray",
    "RaySample",
    "RectangleIndex",
    "SupergrowthReport",
    "ThinCheckReport",
    "ThinSetSpec",
    "TowerReal",
    "TrajectoryClass",
    "UntrustedArgumentError",
    "ValidationError",
    "ZMFamily",
    "box_count",
    "build_zm",
    "certificate_to_json",
    "check_supergrowth",
    "classify_trajectory",
    "cone_band",
    "cover_iterate",
    "dimension_bound_search",
    "eval_map",
    "field_to_csv",
    "field_to_pgm",
    "horizontal_strip",
    "induced_apply",
    "inverse_branch",
    "itinerary",
    "iterate_orbit",
    "lambda_membership",
    "landing_probe",
    "measure_expansion",
    "negative_geometry",
    "orbit_derivative_log",
    "parse_address",
    "positive_sum",
    "ray_asymptote",
    "ray_to_csv",
    "rempe_address",
    "render_field",
    "report_to_json",
    "sample_lambda_set",
    "shift",
    "singular_orbit",
    "step_log_polar",
    "strip_index",
    "symmetric_strip",
    "thin_check",
    "trace_ray",
    "verify_contraction",
    "write_field_csv",
    "write_field_pgm",
    "write_ray_csv",
]
