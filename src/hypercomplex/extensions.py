"""Conjugates, replicates, multivalued roots and products, and diagnostics.

Everything here exploits the same fact: an argument tuple is not unique for
its Cartesian point.  Folding a latitude (``theta_k -> pi - theta_k`` with a
pi shift absorbed by ``theta_{k-1}``) produces a *replicate* -- a different
tuple for the same point that multiplies differently.  Replicates are where
the extra roots and the multivalued products come from.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Optional

from .core import (
    HALF_PI,
    TAU,
    CartesianVec,
    SphericalForm,
    _Value,
    _canonical_args,
    _cartesian,
    _form,
    _wrap_pm_pi,
    identity,
    is_canonical,
    mul_cartesian,
)

__all__ = [
    "RootSet",
    "conjugate",
    "replicate",
    "nth_roots",
    "replicate_products",
    "j_squared",
    "scalar_embed",
    "distributivity_residual",
]

# Both cuts compare points on the unit sphere, that is relative to |h| for
# the power-back check and to |h|**(1/m) for the dedup, so they hold at any
# scale.  Every filtered root reproduces the input to well below the check
# tolerance once raised back; under even m, a candidate that canonicalization
# folded at latitude k lands on the input's point with x_k negated.
_ROOT_CHECK_TOL = 1e-8
_ROOT_DEDUP_TOL = 1e-9
# Dedup cells: a unit-sphere coordinate c lies in cell floor(c / _DEDUP_CELL).
# A candidate probes every cell its box c +- _DEDUP_REACH overlaps; the reach
# is twice the tolerance so that rounding in c +- reach cannot hide a kept
# point within the tolerance.  Cells 1024 tolerances wide make a box
# straddle an edge rarely, so most probes read one cell.
_DEDUP_CELL = 1024 * _ROOT_DEDUP_TOL
_DEDUP_REACH = 2 * _ROOT_DEDUP_TOL
# root guard: (N-1) * m**(N-1) candidates, under 2 s of enumeration at the
# limit; the test suite, the demos and the benchmark stay below 25 000
_MAX_ROOT_CANDIDATES = 1 << 20


class RootSet(_Value):
    """Deduplicated m-th roots plus how many candidates survived pre-dedup.

    On generic inputs the note is ``(N-1) * m**(N-1)`` for odd ``m`` (every
    replicate family repeats the roots) and the root count for even ``m``.
    """

    __slots__ = ("roots", "multiplicity_note")
    roots: tuple[SphericalForm, ...]
    multiplicity_note: int

    def __init__(self, roots: tuple[SphericalForm, ...], multiplicity_note: int):
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "multiplicity_note", multiplicity_note)


def conjugate(h: SphericalForm, variant: str = "full") -> SphericalForm:
    """One of the three conjugates, canonicalized.

    ``full`` negates every argument, in any dimension: ``h * conj(h)`` is
    the real ``r^2``.  ``second`` and ``third`` reflect across the two
    coordinate planes of 3D space and are rejected elsewhere: ``second``
    negates the longitude (the product is ``r^2 e^(j 2 phi)``), ``third``
    the latitude (``r^2 e^(i 2 theta)``).
    """
    if variant == "full":
        return _form(h.modulus, tuple(map(operator.neg, h.args)))
    if variant not in ("second", "third"):
        raise ValueError(f"conjugate variant must be 'full', 'second' or 'third', got {variant!r}")
    if h.dim != 3:
        raise ValueError(f"{variant} conjugate is defined for dimension 3 only, got {h.dim}")
    theta, phi = h.args
    if variant == "second":
        return _form(h.modulus, (-theta, phi))
    return _form(h.modulus, (theta, -phi))


def replicate(h: SphericalForm, k: int) -> SphericalForm:
    """The replicate tuple at latitude index ``k``: ``theta_k -> pi - theta_k``,
    ``theta_{k-1} -> theta_{k-1} + pi``.

    Returned raw (not canonicalized): the point is the same, the tuple is the
    payload.  ``3 <= k <= dim``.
    """
    if not 3 <= k <= h.dim:
        raise ValueError(f"replicate index must be in [3, {h.dim}], got {k}")
    args = list(h.args)
    args[k - 2] = math.pi - args[k - 2]
    args[k - 3] = args[k - 3] + math.pi
    return _form(h.modulus, tuple(args), canonical=False)


def nth_roots(h: SphericalForm, m: int) -> RootSet:
    """All distinct m-th roots reachable from ``h`` and its replicates.

    The candidates are ``r' = r**(1/m)`` with every argument combination
    ``theta_k/m + 2*pi*j/m`` (``j = 0..m-1`` independently per argument),
    once for ``h`` itself and once for each single-index replicate form.  A
    candidate is a root if its m-th power lands back on ``h``'s point; roots
    are deduplicated by Cartesian position in first-seen order, and
    ``multiplicity_note`` counts them before deduplication.  Both tests run
    on the unit sphere (the arguments alone), so the arguments of the roots
    do not depend on the scale of ``h``.  Their modulus ``r**(1/m)`` does,
    through the rounding of ``1/m``: it is off by up to about |ln r| * 2**-53
    relatively (``(1e300) ** (1/3)`` is ``9.999999999999872e+99``), so the
    roots of ``s**m * h`` are ``s`` times those of ``h`` only to that bound.

    Generic canonical inputs (see :func:`_generic_families`) are built
    directly from the replicate structure.  For odd ``m`` every candidate is
    a root and each replicate family repeats the points of ``h``'s own, so
    there are ``m**(N-1)`` roots and ``(N-1) * m**(N-1)`` candidates survive.
    For even ``m`` a candidate is a root exactly when canonicalization folds
    none of its latitudes, and all of those are distinct: ``(N-1) *
    m**(N-1) / 2**(N-2)`` roots.  Both give ``m**2`` in 3D.  Every other
    input takes the filtered enumeration; the two agree bit for bit.

    Roots of zero are defined as the single zero value.  A degree whose
    ``(N-1) * m**(N-1)`` candidates pass ``2**20`` raises ``ValueError``
    before any is built.
    """
    m = operator.index(m)
    if m < 1:
        raise ValueError(f"root degree must be >= 1, got {m}")
    if h.modulus == 0.0:
        return RootSet((SphericalForm(0.0, (0.0,) * (h.dim - 1)),), 1)

    r_root = h.modulus ** (1.0 / m)  # a degree past the float range fails here
    count = (h.dim - 1) * m ** (h.dim - 1)
    if count > _MAX_ROOT_CANDIDATES:
        shown = count if count < 1 << 64 else "more than 2^64"
        raise ValueError(f"degree {m} in {h.dim}D makes (N-1)*m^(N-1) = {shown} root "
                         f"candidates, past the bound of {_MAX_ROOT_CANDIDATES}")
    forms = [h] + [replicate(h, k) for k in range(3, h.dim + 1)]
    offsets = [j * (TAU / m) for j in range(m)]
    families = [[[t / m + o for o in offsets] for t in form.args] for form in forms]

    generic = _generic_families(h, m, families)
    if generic is not None:
        roots = tuple(
            _form(r_root, raw) for per_arg in generic for raw in itertools.product(*per_arg)
        )
        return RootSet(roots, count if m % 2 else len(roots))

    target = _cartesian(1.0, h.args)
    roots: list[SphericalForm] = []
    cells: dict[tuple[int, ...], list[tuple[float, ...]]] = {}
    survivors = 0
    for per_arg in families:
        for raw in itertools.product(*per_arg):
            args = _canonical_args(raw)
            back = _cartesian(1.0, _canonical_args(tuple(m * t for t in args)))
            if not all(abs(p - t) <= _ROOT_CHECK_TOL for p, t in zip(back, target)):
                continue
            survivors += 1
            cart = _cartesian(1.0, args)
            near = itertools.product(*(
                range(
                    math.floor((c - _DEDUP_REACH) / _DEDUP_CELL),
                    math.floor((c + _DEDUP_REACH) / _DEDUP_CELL) + 1,
                )
                for c in cart
            ))
            if any(
                all(abs(c - kc) <= _ROOT_DEDUP_TOL for c, kc in zip(cart, other))
                for key in near
                for other in cells.get(key, ())
            ):
                continue
            key = tuple(math.floor(c / _DEDUP_CELL) for c in cart)
            cells.setdefault(key, []).append(cart)
            roots.append(_form(r_root, args, canonical=False))
    return RootSet(tuple(roots), survivors)


def _generic_families(
    h: SphericalForm, m: int, families: list[list[list[float]]]
) -> Optional[list[list[list[float]]]]:
    """The per-argument candidate lists whose product is exactly the root
    set, or ``None`` when ``h`` is too close to a degenerate case for the
    enumeration's two cuts to be decided by structure alone.

    A candidate's canonical tuple is its raw tuple with one replicate move
    (``t_k -> pi - t_k``, ``t_{k-1} -> t_{k-1} + pi``) per folded latitude,
    and raising it to the m-th power multiplies those moves by ``m``.  For
    odd ``m`` they stay replicate moves, so every candidate powers back onto
    ``h``'s point.  For even ``m`` the pi shifts vanish and a fold at
    latitude ``k`` negates ``x_k`` of the target instead: a power-back gap
    of ``2|x_k|``.

    Canonicalization moves nothing when no latitude folds, and a latitude
    folds exactly when its own wrapped value leaves [-pi/2, pi/2], so even
    ``m`` filters each latitude list on its own.  For odd ``m`` family ``k``
    holds the replicates of family 0's candidates, so family 0 alone gives
    every point once.

    The guard keeps both cuts away from their tolerances:

    * ``h`` is canonical, so every argument is O(1) and the rounding in a
      candidate's power stays orders of magnitude inside the power-back cut;
    * for even ``m``, every latitude component of the unit target has
      ``|x_k| > _ROOT_CHECK_TOL``, so a folded candidate misses by more than
      twice the tolerance;
    * two distinct roots differ by at least ``pi/m`` in some argument: their
      powers differ by pi in one component (another family or fold
      pattern), or their candidates by a multiple of ``2*pi/m``.  Peeling
      the latitudes off from the top then bounds their chord below by
      ``2 * r2 * sin(pi/(2m))``, where ``r2`` multiplies the smallest
      ``|cos|`` of each root latitude list.  The check holds that chord
      above ``2 * sqrt(N)`` dedup tolerances, so the largest component gap
      is more than twice the tolerance.
    """
    if not is_canonical(h):
        return None
    if m % 2:
        generic = families[:1]
    else:
        if any(abs(x) <= _ROOT_CHECK_TOL for x in _cartesian(1.0, h.args)[2:]):
            return None
        generic = [
            [per_arg[0]] + [
                [t for t in lats if -HALF_PI <= _wrap_pm_pi(t) <= HALF_PI]
                for lats in per_arg[1:]
            ]
            for per_arg in families
        ]
    r2 = math.prod(
        min(abs(math.cos(t)) for per_arg in generic for t in per_arg[k])
        for k in range(1, h.dim - 1)
    )
    if r2 * math.sin(math.pi / (2 * m)) <= math.sqrt(h.dim) * _ROOT_DEDUP_TOL:
        return None
    return generic


def replicate_products(a: SphericalForm, b: SphericalForm) -> tuple[SphericalForm, ...]:
    """The four products of two 3D values, one per choice of replicate.

    All share modulus ``r r'`` and longitude ``theta' + theta''``; the
    latitudes are ``phi' + phi''``, ``phi'' - phi'``, ``phi' - phi''`` and
    ``-phi' - phi''`` (pairwise opposite: 1st/4th and 2nd/3rd).  Reported
    raw, since the spread of latitudes is the point.
    """
    if a.dim != 3 or b.dim != 3:
        raise ValueError("replicate products are enumerated for dimension 3 only")
    r = a.modulus * b.modulus
    lon = a.args[0] + b.args[0]
    pa, pb = a.args[1], b.args[1]
    return tuple(
        _form(r, (lon, lat), canonical=False)
        for lat in (pa + pb, pb - pa, pa - pb, -pa - pb)
    )


def j_squared(theta: float) -> tuple[float, float]:
    """Square of the second imaginary unit sitting at longitude ``theta``.

    The unit is insensitive to rotation in the base complex plane, so its
    square is the plain complex number ``exp(i*(2*theta + pi))`` -- returned
    as an ``(re, im)`` pair: -1 at theta=0, +1 at theta=pi/2, -i at theta=pi/4.
    """
    return (-math.cos(2.0 * theta), -math.sin(2.0 * theta))


def scalar_embed(s: float, dim: int) -> SphericalForm:
    """The dim-N value that scales every Cartesian component by ``s``.

    Non-negative ``s`` is ``(s, 0, ..., 0)``.  Negative ``s`` is ``(|s|, 0,
    ..., 0, pi)``: the pi in the *last* argument flips every component at
    once.  Returned raw -- canonicalizing would trade the tuple for one that
    is Cartesian-equivalent but multiplies differently (it would only negate
    the first two components).
    """
    args = identity(dim).args
    s = float(s)
    if s >= 0.0:
        return SphericalForm(s, args)
    return SphericalForm(-s, args[:-1] + (math.pi,))


def distributivity_residual(a: CartesianVec, b: CartesianVec, c: CartesianVec) -> CartesianVec:
    """``a*(b + c) - (a*b + a*c)``, componentwise.

    Zero exactly when b and c are collinear through the origin (equal
    longitude and latitude); generically nonzero -- the product does not
    distribute over addition.  A degenerate nonzero operand, or a degenerate
    nonzero ``b + c``, has no longitudes to multiply with and raises
    :class:`DegenerateLongitudeError`.
    """
    return mul_cartesian(a, b + c) - (mul_cartesian(a, b) + mul_cartesian(a, c))
