"""Spherical and hyperspherical numbers: dual-representation algebra for any
dimension N >= 2, plus an escape-time 3D fractal generator and a
Minkowski-interval invariance check."""

from .core import (
    CartesianVec,
    DegenerateArgs,
    DegenerateLongitudeError,
    PartialModuli,
    SphericalForm,
    add,
    canonicalize,
    divide,
    equals_argumentwise,
    equals_cartesian,
    identity,
    inverse,
    is_canonical,
    mul_cartesian,
    mul_geometric,
    partial_moduli,
    pow_int,
    promote,
    to_cartesian,
    to_spherical,
)
from .extensions import (
    ConjugateVariant,
    RootSet,
    conjugate,
    distributivity_residual,
    j_squared,
    nth_roots,
    replicate,
    replicate_products,
    scalar_embed,
)
from .relativity import (
    EventDelta,
    SquareProjection,
    doubled_latitude_quadrant,
    interval_sq,
    lorentz_boost,
    square_and_project,
)

__version__ = "0.1.0"

# The renderer needs numpy; the algebra does not.  Its names load on first
# use (PEP 562), so the algebra and its CLI commands never import numpy.
_FRACTAL_NAMES = frozenset({
    "FractalConfig",
    "MembershipGrid",
    "escape_time",
    "export_grid",
    "iterate_first",
    "iterate_second",
    "render_grid",
})


def __getattr__(name):
    if name in _FRACTAL_NAMES:
        from . import fractal

        return getattr(fractal, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CartesianVec",
    "DegenerateArgs",
    "DegenerateLongitudeError",
    "PartialModuli",
    "SphericalForm",
    "add",
    "canonicalize",
    "divide",
    "equals_argumentwise",
    "equals_cartesian",
    "identity",
    "inverse",
    "is_canonical",
    "mul_cartesian",
    "mul_geometric",
    "partial_moduli",
    "pow_int",
    "promote",
    "to_cartesian",
    "to_spherical",
    "ConjugateVariant",
    "RootSet",
    "conjugate",
    "distributivity_residual",
    "j_squared",
    "nth_roots",
    "replicate",
    "replicate_products",
    "scalar_embed",
    "FractalConfig",
    "MembershipGrid",
    "escape_time",
    "export_grid",
    "iterate_first",
    "iterate_second",
    "render_grid",
    "EventDelta",
    "SquareProjection",
    "doubled_latitude_quadrant",
    "interval_sq",
    "lorentz_boost",
    "square_and_project",
    "__version__",
]
