"""Minkowski-interval check through the squared 4D number.

A spacetime displacement ``(dx, dy, dz, c*dt)`` becomes a 4D value; squaring
it doubles the arguments, and the spatial modulus of the square equals
``|ds^2|`` -- a quantity a Lorentz boost cannot change.  The time component
of the square is ``2 * c*dt * r3`` with ``r3`` the spatial modulus of the
displacement itself.
"""

from __future__ import annotations

import math

from .core import TAU, HALF_PI, CartesianVec, _Value, pow_int, to_cartesian, to_spherical

__all__ = [
    "EventDelta",
    "interval_sq",
    "square_and_project",
    "doubled_latitude_quadrant",
    "lorentz_boost",
]


class EventDelta(_Value):
    """Displacement between two events; time carried as c*dt (length units),
    so no numeric speed of light ever appears."""

    __slots__ = ("dx", "dy", "dz", "cdt")
    dx: float
    dy: float
    dz: float
    cdt: float

    def __init__(self, dx: float, dy: float, dz: float, cdt: float):
        for name, v in zip(self.__slots__, (dx, dy, dz, cdt)):
            v = float(v)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, v)


def _scaled(d: EventDelta) -> tuple[float, tuple[float, float, float, float]]:
    """``(k, components of d / k)``: k is 2^512 when a component is past
    2^510, else 1.  The division is exact, and a square of the scaled
    components multiplied by k twice is past the float range only where the
    square of ``d``'s is."""
    comps = (d.dx, d.dy, d.dz, d.cdt)
    k = 2.0 ** 512 if max(map(abs, comps)) > 2.0 ** 510 else 1.0
    return k, tuple(v / k for v in comps)


def interval_sq(d: EventDelta) -> float:
    """``ds^2 = (c*dt)^2 - dx^2 - dy^2 - dz^2`` (negative for spacelike),
    +-inf only where ds^2 is past the float range."""
    k, (x, y, z, t) = _scaled(d)
    return (t * t - x * x - y * y - z * z) * k * k


def _as_form(components: tuple[float, ...]):
    # a purely temporal displacement has degenerate spatial longitudes;
    # default (zero) longitudes are fine, the square's moduli do not see them
    return to_spherical(CartesianVec(components))


def square_and_project(d: EventDelta) -> tuple[float, float]:
    """Square the 4D form of ``d`` and project the result onto the pair
    ``(spatial modulus, time component)``.

    The spatial modulus is the Euclidean norm of the square's first three
    Cartesian components (by ``hypot``, so it neither overflows nor
    underflows) and equals ``|ds^2|``; the time component is the fourth
    component and equals ``2 * cdt * sqrt(dx^2 + dy^2 + dz^2)``.  Either
    one past the float range raises ``ValueError``.  The time component
    rides on the form's last latitude, about cdt / r3: it loses bits where
    that is subnormal and is 0.0 where it underflows, so ``EventDelta(1e10,
    0, 0, 1e-320)`` gives 0.0 for 2.0e-310, and the 2^-512 scaling past
    2^510 flushes ``EventDelta(2**511, 0, 0, 2**-600)``'s 3.2e-27 the same.
    The spatial modulus stays exact.
    """
    k, comps = _scaled(d)
    x, y, z, w = to_cartesian(pow_int(_as_form(comps), 2)).components
    spatial, time = math.hypot(x, y, z) * k * k, w * k * k
    if spatial == math.inf:
        raise ValueError("result modulus overflowed to inf")
    if not math.isfinite(time):
        raise ValueError("result components overflowed")
    return spatial, time


def doubled_latitude_quadrant(d: EventDelta) -> int:
    """Quadrant (0..3) of twice the final latitude of ``d``'s 4D form.

    Quadrants 1 and 2 are where the square's spatial part points backwards,
    i.e. where ``ds^2 > 0``.  Exposed for inspection only; nothing in this
    module interprets it.
    """
    psi2 = (2.0 * _as_form((d.dx, d.dy, d.dz, d.cdt)).args[-1]) % TAU
    return int(psi2 // HALF_PI) % 4


def lorentz_boost(d: EventDelta, beta: float) -> EventDelta:
    """Standard boost along x with velocity ``beta`` (fraction of c)."""
    if not abs(beta) < 1.0:
        raise ValueError(f"|beta| must be < 1, got {beta}")
    gamma = 1.0 / math.sqrt(1.0 - beta * beta)
    return EventDelta(
        gamma * (d.dx - beta * d.cdt),
        d.dy,
        d.dz,
        gamma * (d.cdt - beta * d.dx),
    )
