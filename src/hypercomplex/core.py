"""Dual-representation number algebra on N-dimensional spherical coordinates.

A value lives in one of two representations:

* :class:`SphericalForm` -- a modulus ``r >= 0`` plus ordered arguments
  ``(theta_2, ..., theta_N)``: one longitude ``theta_2`` and ``N - 2``
  latitudes.  Multiplication is exact here: moduli multiply, arguments add
  index by index.
* :class:`CartesianVec` -- the familiar component tuple ``(x_1, ..., x_N)``.
  Addition is exact here.  The representation is lossy for points whose
  leading components vanish: their longitudes cannot be recovered and must
  be supplied externally (:class:`DegenerateArgs`).

Both representations are immutable; every operation is a pure function, so
the module is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
import operator
from typing import Optional, Sequence

TAU = 2.0 * math.pi
HALF_PI = 0.5 * math.pi

__all__ = [
    "SphericalForm",
    "CartesianVec",
    "DegenerateArgs",
    "DegenerateLongitudeError",
    "identity",
    "promote",
    "partial_moduli",
    "to_cartesian",
    "to_spherical",
    "canonicalize",
    "is_canonical",
    "add",
    "mul_geometric",
    "mul_cartesian",
    "inverse",
    "divide",
    "pow_int",
    "equals_cartesian",
    "equals_argumentwise",
]


class DegenerateLongitudeError(ValueError):
    """A product needs longitudes that Cartesian coordinates cannot encode.

    Raised by :func:`mul_cartesian` when an operand has two or more leading
    zero components (so its longitude is unrecoverable) and no fallback was
    supplied.  Callers that are happy with zero longitudes must say so by
    passing an explicit ``DegenerateArgs``.
    """


class _Value:
    """Base of the value types: an immutable slotted record whose fields are
    its ``__slots__``.  Like a frozen dataclass it compares, hashes, prints
    and pickles by its field tuple, and equals only its own class."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{self.__class__.__qualname__}({body})"

    def __reduce__(self):
        # rebuild through the public constructor: the default protocol
        # restores slots by setattr, which is blocked below
        return self.__class__, self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class SphericalForm(_Value):
    """Geometric form ``(r, theta_2, ..., theta_N)``.

    ``modulus`` must be finite and non-negative.  The arguments are plain
    radians and are *not* forced into canonical ranges at construction:
    out-of-range argument tuples are meaningful (they name the same Cartesian
    point through a different tuple, and multiply differently), so range
    reduction is an explicit operation, :func:`canonicalize`.
    """

    __slots__ = ("modulus", "args")
    modulus: float
    args: tuple[float, ...]

    def __init__(self, modulus: float, args: Sequence[float]):
        modulus = float(modulus)
        args = tuple(map(float, args))
        # the modulus is checked first; () passes the argument check
        if not 0.0 <= modulus < math.inf:
            raise ValueError(f"modulus must be finite and >= 0, got {modulus}")
        if not all(map(math.isfinite, args)):
            raise ValueError("arguments must be finite")
        if not args:
            raise ValueError("need at least one argument (dimension >= 2)")
        _put_modulus(self, modulus)
        _put_args(self, args)

    @property
    def dim(self) -> int:
        return len(self.args) + 1

    def to_cartesian(self) -> "CartesianVec":
        return to_cartesian(self)

    def canonicalize(self) -> "SphericalForm":
        return canonicalize(self)

    def __mul__(self, other: "SphericalForm") -> "SphericalForm":
        return mul_geometric(self, other)

    def __truediv__(self, other: "SphericalForm") -> "SphericalForm":
        return divide(self, other)

    def __pow__(self, m: int) -> "SphericalForm":
        return pow_int(self, m)


class CartesianVec(_Value):
    """Component form ``(x_1, ..., x_N)``, N >= 2, all components finite."""

    __slots__ = ("components",)
    components: tuple[float, ...]

    def __init__(self, components: Sequence[float]):
        components = tuple(map(float, components))
        if len(components) < 2:
            raise ValueError("need at least two components (dimension >= 2)")
        if not all(map(math.isfinite, components)):
            raise ValueError("components must be finite")
        _put_components(self, components)

    @property
    def dim(self) -> int:
        return len(self.components)

    def to_spherical(self, fallback: Optional["DegenerateArgs"] = None) -> SphericalForm:
        return to_spherical(self, fallback)

    def norm(self) -> float:
        return math.hypot(*self.components)

    def __add__(self, other: "CartesianVec") -> "CartesianVec":
        return add(self, other)

    def __neg__(self) -> "CartesianVec":
        return _vec(tuple(map(operator.neg, self.components)))

    def __sub__(self, other: "CartesianVec") -> "CartesianVec":
        return add(self, -other)


class DegenerateArgs(_Value):
    """Longitudes ``theta_2, ..., theta_m`` for a value whose first ``m``
    Cartesian components are all zero.

    Only consulted when a leading partial modulus vanishes; entries beyond
    what a given conversion needs are ignored, missing entries default to 0.
    """

    __slots__ = ("longitudes",)
    longitudes: tuple[float, ...]

    def __init__(self, longitudes: Sequence[float]):
        longitudes = tuple(map(float, longitudes))
        if not all(map(math.isfinite, longitudes)):
            raise ValueError("fallback longitudes must be finite")
        object.__setattr__(self, "longitudes", longitudes)


# The constructors set slots through their descriptors, past the blocked
# __setattr__.
_new = object.__new__
_put_modulus = SphericalForm.modulus.__set__
_put_args = SphericalForm.args.__set__
_put_components = CartesianVec.components.__set__


def _form(r: float, args: Sequence[float], canonical: bool = True) -> SphericalForm:
    """Internal constructor for a form the library computed from valid
    values.  Its inputs are floats already, so it skips the coercion, but it
    keeps the checks: a product or power can overflow, and the error says
    so.  ``canonical`` reduces the arguments once they are known finite
    (``_canonical_args`` cannot take an infinite one); without it ``args``
    must be a tuple."""
    if not 0.0 <= r < math.inf:
        raise ValueError(f"result modulus overflowed to {r}")
    if not all(map(math.isfinite, args)):
        raise ValueError("result arguments overflowed")
    h = _new(SphericalForm)
    _put_modulus(h, r)
    _put_args(h, _canonical_args(args) if canonical else args)
    return h


def _vec(components: tuple[float, ...]) -> CartesianVec:
    """Internal constructor for computed float components, still checked."""
    if not all(map(math.isfinite, components)):
        raise ValueError("result components overflowed")
    v = _new(CartesianVec)
    _put_components(v, components)
    return v


def identity(dim: int) -> SphericalForm:
    """Multiplicative identity ``(1, 0, ..., 0)``."""
    if dim < 2:
        raise ValueError("dimension must be >= 2")
    return SphericalForm(1.0, (0.0,) * (dim - 1))


def promote(h: SphericalForm, dim: int) -> SphericalForm:
    """Embed ``h`` in a higher dimension by appending zero arguments.

    The Cartesian image gains trailing zero components; nothing else moves.
    """
    if dim < h.dim:
        raise ValueError(f"cannot demote dim {h.dim} value to dim {dim}")
    if dim == h.dim:
        return h
    return SphericalForm(h.modulus, h.args + (0.0,) * (dim - h.dim))


def partial_moduli(v: CartesianVec) -> tuple[float, ...]:
    """The nondecreasing chain ``r_n = sqrt(x_1^2 + ... + x_n^2)`` of running
    Euclidean norms of the leading components; last entry = |v|.

    Accumulated with ``hypot`` so that finite components whose squares would
    overflow or underflow still give the finite, nonzero norm.
    """
    out = []
    r = 0.0
    for c in v.components:
        r = math.hypot(r, c)
        out.append(r)
    return tuple(out)


def to_cartesian(h: SphericalForm) -> CartesianVec:
    """Exact image: ``x_k = r sin(theta_k) * prod_{n>k} cos(theta_n)``.

    (``x_1`` takes the full cosine product and no sine.)  Total on every
    SphericalForm; the Euclidean norm of the result equals the modulus.
    """
    return _vec(_cartesian(h.modulus, h.args))


def _cartesian(r: float, args: Sequence[float]) -> tuple[float, ...]:
    """The float work of :func:`to_cartesian`, on a bare modulus and tuple."""
    n = len(args) + 1
    out = [0.0] * n
    cum = 1.0
    for k in range(n, 1, -1):
        out[k - 1] = r * math.sin(args[k - 2]) * cum
        cum *= math.cos(args[k - 2])
    out[0] = r * cum
    return tuple(out)


def to_spherical(
    v: CartesianVec, fallback: Optional[DegenerateArgs] = None
) -> SphericalForm:
    """Recover the canonical geometric form of ``v``.

    Arguments come from ``theta_k = atan2(x_k, r_{k-1})`` (for the longitude,
    ``atan2(x_2, x_1)`` so its sign survives).  When the first ``m``
    components are all zero the longitudes ``theta_2..theta_m`` are not
    encoded in ``v`` at all: they are read from ``fallback`` (or default to
    0), and ``theta_{m+1}`` comes out as +-pi/2 from the sign of
    ``x_{m+1}``.  The zero vector keeps modulus 0 with the recorded
    (fallback or zero) arguments.
    """
    comps = v.components
    n = v.dim
    chain = partial_moduli(v)
    m = _leading_zeros(comps)
    fb = fallback.longitudes if fallback is not None else ()
    args = [0.0] * (n - 1)
    for i in range(max(m - 1, 0)):
        args[i] = fb[i] if i < len(fb) else 0.0
    for k in range(max(m + 1, 2), n + 1):
        adjacent = comps[0] if k == 2 else chain[k - 2]
        args[k - 2] = math.atan2(comps[k - 1], adjacent)
    return _form(chain[-1], args)


def _wrap_pm_pi(t: float) -> float:
    """Reduce an angle into (-pi, pi]."""
    t = math.remainder(t, TAU)
    if t <= -math.pi:
        t += TAU
    return t


def canonicalize(h: SphericalForm) -> SphericalForm:
    """Reduce the arguments into canonical ranges without moving the point.

    Canonical means ``theta_2 in [0, 2*pi)`` and ``theta_k in [-pi/2, pi/2]``
    for ``k >= 3``.  Latitudes are reduced from the highest index down: an
    out-of-range ``theta_k`` is replaced by ``pi - theta_k`` (folded back into
    range) while ``theta_{k-1}`` absorbs a pi shift -- the replicate move,
    which leaves every Cartesian component unchanged.  Finally the longitude
    is reduced mod 2*pi.  Idempotent.
    """
    return _form(h.modulus, h.args)


def _canonical_args(args: Sequence[float]) -> tuple[float, ...]:
    """The float work of :func:`canonicalize`, on a bare argument tuple."""
    args = list(args)
    for i in range(len(args) - 1, 0, -1):
        t = _wrap_pm_pi(args[i])
        if t > HALF_PI or t < -HALF_PI:
            t = _wrap_pm_pi(math.pi - t)
            args[i - 1] += math.pi
        args[i] = t
    lon = args[0] % TAU
    if lon >= TAU:
        lon = 0.0
    args[0] = lon
    return tuple(args)


def is_canonical(h: SphericalForm) -> bool:
    if not 0.0 <= h.args[0] < TAU:
        return False
    return all(-HALF_PI <= a <= HALF_PI for a in h.args[1:])


def add(a: CartesianVec, b: CartesianVec) -> CartesianVec:
    """Componentwise sum.  Dimensions must match exactly (no promotion here:
    a silent pad would mask caller bugs in additive code paths)."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} != {b.dim}")
    return _vec(tuple(map(operator.add, a.components, b.components)))


def mul_geometric(
    a: SphericalForm, b: SphericalForm, canonical: bool = True
) -> SphericalForm:
    """Product in geometric form: moduli multiply, arguments add.

    Operands of different dimension are first promoted by appending zero
    arguments.  The raw sum tuple is returned when ``canonical=False``;
    by default the result is canonicalized.
    """
    if a.dim != b.dim:
        d = max(a.dim, b.dim)
        a, b = promote(a, d), promote(b, d)
    return _form(
        a.modulus * b.modulus, tuple(map(operator.add, a.args, b.args)), canonical
    )


def _leading_zeros(comps: Sequence[float]) -> int:
    m = 0
    for c in comps:
        if c != 0.0:
            break
        m += 1
    return m


def mul_cartesian(
    a: CartesianVec,
    b: CartesianVec,
    a_fallback: Optional[DegenerateArgs] = None,
    b_fallback: Optional[DegenerateArgs] = None,
) -> CartesianVec:
    """Product evaluated directly on Cartesian components.

    For non-degenerate operands::

        x''_1 = (x_1 x'_1 - x_2 x'_2) * F_3
        x''_2 = (x_1 x'_2 + x_2 x'_1) * F_3
        x''_k = (x_k r'_{k-1} + x'_k r_{k-1}) * F_{k+1}        (3 <= k < N)
        x''_N =  x_N r'_{N-1} + x'_N r_{N-1}

    where ``F_k = prod_{n=k..N} (1 - x_n x'_n / (r_{n-1} r'_{n-1}))`` and
    ``r_n`` are the partial moduli.  The denominators must be nonzero; when
    one vanishes (a zero ``r_2`` on either side, or a product of tiny moduli
    that underflows), or is so small that a factor overflows although the
    product is in range, the product is computed through the geometric form
    instead, which requires the unrecoverable longitudes:
    a degenerate *nonzero* operand without a fallback is rejected with
    :class:`DegenerateLongitudeError` (a zero operand is fine -- the product
    is zero whatever its arguments are).
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} != {b.dim}")
    n = a.dim
    ca, cb = a.components, b.components
    ra = partial_moduli(a)
    rb = partial_moduli(b)

    # the partial moduli are nondecreasing, so r_2 r'_2 is the smallest
    # denominator; testing the product also catches one that underflows
    if n < 3 or ra[1] * rb[1] != 0.0:
        # suffix[k] = prod of factors for indices k..N (1-based k, suffix[n+1] = 1)
        suffix = [1.0] * (n + 2)
        for k in range(n, 2, -1):
            f = 1.0 - (ca[k - 1] * cb[k - 1]) / (ra[k - 2] * rb[k - 2])
            suffix[k] = f * suffix[k + 1]

        out = [0.0] * n
        out[0] = (ca[0] * cb[0] - ca[1] * cb[1]) * suffix[3]
        out[1] = (ca[0] * cb[1] + ca[1] * cb[0]) * suffix[3]
        for k in range(3, n):
            out[k - 1] = (ca[k - 1] * rb[k - 2] + cb[k - 1] * ra[k - 2]) * suffix[k + 1]
        if n >= 3:
            out[n - 1] = ca[n - 1] * rb[n - 2] + cb[n - 1] * ra[n - 2]
        try:
            return _vec(tuple(out))
        except ValueError:  # a tiny r_2 r'_2 overflowed a factor, not the product
            if ra[-1] * rb[-1] == math.inf:
                raise

    for comps, chain, fb, side in (
        (ca, ra, a_fallback, "left"),
        (cb, rb, b_fallback, "right"),
    ):
        if _leading_zeros(comps) >= 2 and chain[-1] > 0.0 and fb is None:
            raise DegenerateLongitudeError(
                f"{side} operand has unrecoverable longitudes "
                "(leading components are zero); pass a DegenerateArgs fallback"
            )
    return to_cartesian(
        mul_geometric(to_spherical(a, a_fallback), to_spherical(b, b_fallback))
    )


def inverse(h: SphericalForm) -> SphericalForm:
    """Invert the modulus, negate every argument; canonicalized."""
    if h.modulus == 0.0:
        raise ZeroDivisionError("zero modulus has no multiplicative inverse")
    return _form(1.0 / h.modulus, tuple(map(operator.neg, h.args)))


def divide(a: SphericalForm, b: SphericalForm) -> SphericalForm:
    if b.modulus == 0.0:
        raise ZeroDivisionError("division by a zero-modulus value")
    return mul_geometric(a, inverse(b))


def pow_int(h: SphericalForm, m: int) -> SphericalForm:
    """Integer power ``(r**m, m*theta_2, ..., m*theta_N)``, canonicalized.

    ``m = 0`` gives the identity; negative ``m`` needs a nonzero modulus.
    A power past the float range raises ``ValueError``.
    """
    m = int(m)
    if m == 0:
        return identity(h.dim)
    if m < 0 and h.modulus == 0.0:
        raise ZeroDivisionError("cannot raise zero modulus to a negative power")
    try:
        r = h.modulus ** m
    except OverflowError:
        r = math.inf  # _form names the overflow
    return _form(r, tuple(m * t for t in h.args))


def equals_cartesian(a: SphericalForm, b: SphericalForm, tol: float) -> bool:
    """True iff the Cartesian images differ by at most ``tol`` per component.

    Deliberately distinct from argument-wise equality: tuples that disagree
    argument-wise can still name the same point (replicates, degenerate
    longitudes), and vice versa.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} != {b.dim}")
    ca = to_cartesian(a).components
    cb = to_cartesian(b).components
    return all(abs(x - y) <= tol for x, y in zip(ca, cb))


def equals_argumentwise(a: SphericalForm, b: SphericalForm, tol: float = 0.0) -> bool:
    """Exact (or tol-bounded) comparison of modulus and argument tuples."""
    if a.dim != b.dim:
        return False
    if abs(a.modulus - b.modulus) > tol:
        return False
    return all(abs(x - y) <= tol for x, y in zip(a.args, b.args))
