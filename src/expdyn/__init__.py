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
  reports         the JSON report writer
  cli             command-line front end

Importing the package loads only the exception classes of ``errors``.
Each other public name below is bound on its first access, which imports
the submodule that defines it (PEP 562), so a caller pays for loading a
submodule when it first uses one of its names, and never for the others.
"""

from importlib import import_module

from .errors import (
    DomainError,
    ExpdynError,
    GeometryError,
    NonConvergenceError,
    NumericRangeError,
    ValidationError,
)

__version__ = "0.1.0"

# each public name outside errors -> the submodule that defines it
_SOURCES = {
    name: module
    for module, names in {
        "towers": ("TowerReal",),
        "dynamics": (
            "LogPolarComplex",
            "OrbitPoint",
            "OrbitResult",
            "SupergrowthReport",
            "check_supergrowth",
            "eval_map",
            "inverse_branch",
            "iterate_orbit",
            "orbit_derivative_log",
            "singular_orbit",
            "step_log_polar",
        ),
        "coding": ("ExternalAddress", "parse_address", "strip_index"),
        "rays": ("Ray", "RaySample", "ray_to_csv", "trace_ray", "write_ray_csv"),
        "invariant_sets": (
            "ExitDepthField",
            "MembershipResult",
            "Strip",
            "ThinSetSpec",
            "field_to_csv",
            "field_to_pgm",
            "horizontal_strip",
            "lambda_membership",
            "sample_lambda_set",
            "symmetric_strip",
            "write_field_csv",
            "write_field_pgm",
        ),
        "induced": (
            "ContractionCertificate",
            "CoverLevel",
            "CoverRun",
            "InducedGeometry",
            "RectangleIndex",
            "ZMFamily",
            "build_zm",
            "certificate_to_json",
            "cover_iterate",
            "negative_geometry",
            "positive_sum",
            "verify_contraction",
        ),
        "boxdim": (
            "BoxCountResult",
            "DimensionReport",
            "box_count",
            "dimension_bound_search",
            "report_to_json",
        ),
        "render": ("render_field",),
    }.items()
    for name in names
}
# every submodule the package once loaded eagerly, and reports, which holds
# what induced did; each loads by its own name on first access
_SUBMODULES = frozenset(_SOURCES.values()) | {"parallel", "reports"}

# the exception classes imported above, and every name in the table
__all__ = sorted(
    [name for name, value in globals().items()
     if isinstance(value, type) and issubclass(value, ExpdynError)]
    + list(_SOURCES)
)


def __getattr__(name: str):
    """The public name from its submodule, imported and bound here on first
    access; a submodule in _SUBMODULES is imported by its own name."""
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    try:
        module = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
