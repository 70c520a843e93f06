"""Spherical and hyperspherical numbers: dual-representation algebra for any
dimension N >= 2, plus an escape-time 3D fractal generator and a
Minkowski-interval invariance check."""

from . import core, extensions, relativity
from .core import *
from .extensions import *
from .relativity import *

__version__ = "0.1.0"

# The renderer needs numpy; the algebra does not.  Its names load on first
# use (PEP 562), so the algebra and its CLI commands never import numpy.
_FRACTAL_NAMES = frozenset({
    "FractalConfig",
    "MembershipGrid",
    "escape_time",
    "export_grid",
    "render_grid",
})


def __getattr__(name):
    if name in _FRACTAL_NAMES:
        from . import fractal

        return getattr(fractal, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    *core.__all__,
    *extensions.__all__,
    *relativity.__all__,
    *sorted(_FRACTAL_NAMES),
    "__version__",
]
