import math
import random

import numpy as np
import pytest

from conftest import TAU, angle_gap, assert_value_contract, max_gap, random_form, random_vec
from hypercomplex import (
    CartesianVec,
    DegenerateArgs,
    DegenerateLongitudeError,
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

PI = math.pi


# -- construction -------------------------------------------------------------

def test_spherical_form_validation():
    with pytest.raises(ValueError):
        SphericalForm(-1.0, (0.0, 0.0))
    with pytest.raises(ValueError):
        SphericalForm(1.0, ())
    with pytest.raises(ValueError):
        SphericalForm(math.inf, (0.0,))
    assert SphericalForm(1, (0, 0)).dim == 3


def test_cartesian_vec_validation():
    with pytest.raises(ValueError):
        CartesianVec((1.0,))
    with pytest.raises(ValueError):
        CartesianVec((1.0, math.nan))
    assert CartesianVec((1, 2, 3, 4)).dim == 4


# -- value-type contract --------------------------------------------------------

def test_value_types_are_frozen_records():
    assert_value_contract(
        SphericalForm(1, (0, 0)),
        "SphericalForm(modulus=1.0, args=(0.0, 0.0))",
        modulus=1.0, args=(0.0, 0.0),
    )
    assert_value_contract(
        CartesianVec((1, -2.5, 0)),
        "CartesianVec(components=(1.0, -2.5, 0.0))",
        components=(1.0, -2.5, 0.0),
    )
    assert_value_contract(
        DegenerateArgs((0.5,)), "DegenerateArgs(longitudes=(0.5,))", longitudes=(0.5,)
    )


def test_value_types_equal_only_their_own_class():
    # equal field tuples, different classes
    assert CartesianVec((0.5, 1.0)) != DegenerateArgs((0.5, 1.0))
    assert DegenerateArgs((0.5, 1.0)) != CartesianVec((0.5, 1.0))
    assert SphericalForm(1.0, (0.0,)) != CartesianVec((1.0, 0.0))
    assert len({CartesianVec((0.5, 1.0)), DegenerateArgs((0.5, 1.0))}) == 2


def test_constructors_take_keywords_and_coerce_to_float():
    h = SphericalForm(modulus=2, args=[1, 0])
    v = CartesianVec(components=iter([3, -4]))
    fb = DegenerateArgs(longitudes=[1])
    assert (h.modulus, h.args, v.components, fb.longitudes) == (2.0, (1.0, 0.0), (3.0, -4.0), (1.0,))
    for x in (h.modulus, *h.args, *v.components, *fb.longitudes):
        assert type(x) is float
    assert type(h.args) is type(v.components) is type(fb.longitudes) is tuple


@pytest.mark.parametrize("make, message", [
    (lambda: SphericalForm(math.inf, (0.0,)), "modulus must be finite and >= 0, got inf"),
    (lambda: SphericalForm(math.nan, (0.0,)), "modulus must be finite and >= 0, got nan"),
    (lambda: SphericalForm(-1, (0.0,)), "modulus must be finite and >= 0, got -1.0"),
    # the modulus is checked before the arguments
    (lambda: SphericalForm(-math.inf, ()), "modulus must be finite and >= 0, got -inf"),
    (lambda: SphericalForm(-1, (math.nan,)), "modulus must be finite and >= 0, got -1.0"),
    (lambda: SphericalForm(1, ()), "need at least one argument (dimension >= 2)"),
    (lambda: SphericalForm(1, (0.0, math.inf)), "arguments must be finite"),
    (lambda: SphericalForm(0, (math.nan,)), "arguments must be finite"),
    (lambda: CartesianVec((math.inf,)), "need at least two components (dimension >= 2)"),
    (lambda: CartesianVec((1, -math.inf)), "components must be finite"),
    (lambda: CartesianVec((math.nan, 0, 0)), "components must be finite"),
    (lambda: DegenerateArgs((0.0, math.nan)), "fallback longitudes must be finite"),
], ids=[
    "inf-modulus", "nan-modulus", "negative-modulus", "modulus-before-empty-args",
    "modulus-before-nan-arg", "no-args", "inf-arg", "nan-arg", "one-component",
    "inf-component", "nan-component", "nan-fallback",
])
def test_constructor_error_messages(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


@pytest.mark.parametrize("compute, message", [
    (lambda: mul_geometric(SphericalForm(1e200, (0.1, 0.2)), SphericalForm(1e200, (0.3, 0.4))),
     "result modulus overflowed to inf"),
    (lambda: divide(SphericalForm(1e200, (0.1, 0.2)), SphericalForm(1e-200, (0.1, 0.2))),
     "result modulus overflowed to inf"),
    (lambda: inverse(SphericalForm(5e-324, (0.1, 0.2))),
     "result modulus overflowed to inf"),
    (lambda: to_spherical(CartesianVec((1.7e308, 1.7e308, 0.0))),
     "result modulus overflowed to inf"),
    # an argument that overflows is reported before any range reduction,
    # which would fail on an infinite latitude with "math domain error"
    (lambda: pow_int(SphericalForm(1, (1e308, 0.2)), 3), "result arguments overflowed"),
    (lambda: pow_int(SphericalForm(1, (0.2, 1e308)), 3), "result arguments overflowed"),
    (lambda: mul_geometric(SphericalForm(1, (1e308, 0.2)), SphericalForm(1, (1e308, 0.4))),
     "result arguments overflowed"),
    (lambda: mul_geometric(SphericalForm(1, (0.1, 0.2, 1e308)), SphericalForm(1, (0.3, 0.4, 1e308))),
     "result arguments overflowed"),
    (lambda: mul_geometric(SphericalForm(1, (0.1, -1e308)), SphericalForm(1, (0.3, -1e308)),
                           canonical=False),
     "result arguments overflowed"),
    (lambda: mul_geometric(SphericalForm(1e200, (1e308, 0.2)), SphericalForm(1e200, (1e308, 0.4))),
     "result modulus overflowed to inf"),
    (lambda: add(CartesianVec((1.7e308, 0.0)), CartesianVec((1.7e308, 0.0))),
     "result components overflowed"),
    (lambda: mul_cartesian(CartesianVec((1e200, 1e200, 1e200)), CartesianVec((1e200, 1e200, 1e200))),
     "result components overflowed"),
], ids=[
    "mul-modulus", "divide-modulus", "inverse-modulus", "to-spherical-modulus", "pow-longitude",
    "pow-latitude", "mul-longitude", "mul-latitude", "raw-mul-args",
    "mul-modulus-first", "add-components", "mul-cartesian-components",
])
def test_computed_values_are_checked(compute, message):
    with pytest.raises(ValueError) as exc:
        compute()
    assert str(exc.value) == message


# -- to_cartesian --------------------------------------------------------------

def test_to_cartesian_axis_aligned():
    got = to_cartesian(SphericalForm(2.0, (PI / 2, 0.0)))
    assert max_gap(got.components, (0.0, 2.0, 0.0)) < 1e-12


def test_to_cartesian_pole():
    got = to_cartesian(SphericalForm(1.0, (0.0, PI / 2)))
    assert max_gap(got.components, (0.0, 0.0, 1.0)) < 1e-12


def test_to_cartesian_generic():
    got = to_cartesian(SphericalForm(2.0, (PI / 3, PI / 6)))
    assert max_gap(got.components, (math.sqrt(3) / 2, 1.5, 1.0)) < 1e-12


def test_to_cartesian_norm_matches_modulus():
    rng = random.Random(7)
    for _ in range(500):
        h = random_form(rng, rng.choice((2, 3, 4, 7)))
        assert abs(to_cartesian(h).norm() - h.modulus) <= 1e-12 * h.modulus


# -- to_spherical ----------------------------------------------------------------

def test_to_spherical_plane_point():
    h = to_spherical(CartesianVec((1.0, 1.0, 0.0)))
    assert abs(h.modulus - math.sqrt(2)) < 1e-12
    assert max_gap(h.args, (PI / 4, 0.0)) < 1e-12


def test_to_spherical_degenerate_default():
    h = to_spherical(CartesianVec((0.0, 0.0, 3.0)))
    assert h.modulus == 3.0
    assert h.args == (0.0, PI / 2)


def test_to_spherical_degenerate_fallback():
    h = to_spherical(CartesianVec((0.0, 0.0, -3.0)), DegenerateArgs((1.1,)))
    assert h.args == (1.1, -PI / 2)


def test_to_spherical_negative_axis():
    h = to_spherical(CartesianVec((-1.0, 0.0, 0.0)))
    assert h.modulus == 1.0
    assert h.args == (PI, 0.0)


def test_to_spherical_zero_vector_keeps_recorded_args():
    h = to_spherical(CartesianVec((0.0, 0.0, 0.0)))
    assert h.modulus == 0.0 and h.args == (0.0, 0.0)
    h = to_spherical(CartesianVec((0.0, 0.0, 0.0)), DegenerateArgs((0.5, 0.25)))
    assert h.args == (0.5, 0.25)


# (1, 1, 1) direction: longitude pi/4, latitude atan(1/sqrt(2))
DIAG_ARGS = (PI / 4, math.atan(1.0 / math.sqrt(2)))


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_to_spherical_extreme_finite_scale(scale):
    # the squares of these components overflow (or underflow) a float, the
    # norm does not
    v = CartesianVec((scale,) * 3)
    h = to_spherical(v)
    want = math.sqrt(3) * scale
    for got in (h.modulus, v.norm()):
        assert abs(got - want) <= 1e-15 * want
    assert max_gap(h.args, DIAG_ARGS) < 1e-15


def test_roundtrip_is_argumentwise_identity():
    rng = random.Random(11)
    for _ in range(800):
        h = random_form(rng, rng.choice((2, 3, 4, 7)))
        back = to_spherical(to_cartesian(h))
        assert abs(back.modulus - h.modulus) <= 1e-12 * h.modulus
        assert all(angle_gap(x, y) < 1e-12 for x, y in zip(h.args, back.args))


# -- canonicalize ----------------------------------------------------------------

def test_canonicalize_latitude_fold():
    got = canonicalize(SphericalForm(1.0, (PI / 4, 2 * PI / 3)))
    assert max_gap((got.args[0], got.args[1]), (5 * PI / 4, PI / 3)) < 1e-12


def test_canonicalize_longitude_mod():
    got = canonicalize(SphericalForm(1.0, (9 * PI / 4, 0.0)))
    assert abs(got.args[0] - PI / 4) < 1e-12 and got.args[1] == 0.0


def test_canonicalize_is_idempotent_and_point_preserving():
    rng = random.Random(13)
    for _ in range(500):
        dim = rng.choice((3, 4, 7))
        h = SphericalForm(
            rng.uniform(0.0, 2.0), tuple(rng.uniform(-10, 10) for _ in range(dim - 1))
        )
        c = canonicalize(h)
        assert is_canonical(c)
        assert canonicalize(c) == c
        assert max_gap(to_cartesian(c).components, to_cartesian(h).components) < 1e-12


@pytest.mark.parametrize("t", [1e3, -1e3, 1e6, -1e6, 1e12, -1e12])
@pytest.mark.parametrize("position", [0, 1, 2], ids=["longitude", "latitude-2", "latitude-3"])
def test_canonicalize_moves_the_point_by_at_most_a_bound_per_turn(t, position):
    # a known limit: each whole turn removed is one of the float TAU, which
    # is 2*sin(float pi) = 2.45e-16 below 2*pi, so the point of a unit form
    # moves by up to that much per turn removed (libm's sin and cos reduce
    # against 2*pi itself)
    assert 2.4e-16 < 2 * math.sin(PI) < 2.5e-16
    rng = random.Random(f"{t}:{position}")
    for _ in range(50):
        args = [rng.uniform(0.0, TAU), rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2)]
        args[position] = t * rng.uniform(1.0, 1.1)
        h = SphericalForm(1.0, args)
        c = canonicalize(h)
        turns = round((h.args[position] - c.args[position]) / TAU)
        gap = max_gap(to_cartesian(c).components, to_cartesian(h).components)
        assert gap <= (abs(turns) + 1) * 2.5e-16


@pytest.mark.parametrize("lon", [-5e-324, -1e-17])
def test_canonicalize_longitude_just_below_zero_is_zero(lon):
    # lon % TAU rounds up to TAU itself, which is out of [0, TAU)
    assert lon % TAU == TAU
    got = canonicalize(SphericalForm(1.0, (lon, 0.2)))
    assert got.args == (0.0, 0.2) and math.copysign(1.0, got.args[0]) == 1.0
    assert is_canonical(got)


@pytest.mark.parametrize("args, want", [
    ((0.0, 0.2), True),
    ((-0.0, 0.2), True),
    ((math.nextafter(TAU, 0.0), 0.2), True),
    ((1.0, PI / 2), True),
    ((1.0, -PI / 2), True),
    ((TAU, 0.2), False),
    ((-5e-324, 0.2), False),
    ((7.0, 0.2), False),
    ((1.0, math.nextafter(PI / 2, math.inf)), False),
    ((1.0, -PI), False),
], ids=["lon-0", "lon-neg-0", "lon-below-tau", "lat-half-pi", "lat-neg-half-pi", "lon-tau",
        "lon-neg-subnormal", "lon-7", "lat-past-half-pi", "lat-neg-pi"])
def test_is_canonical_at_the_range_boundaries(args, want):
    assert is_canonical(SphericalForm(1.0, args)) is want


def test_canonical_already_unchanged():
    h = SphericalForm(2.0, (1.0, 0.3, -0.4))
    assert canonicalize(h) == h


# -- add ---------------------------------------------------------------------------

def test_add_componentwise():
    got = add(CartesianVec((1, 2, 3)), CartesianVec((4, 5, 6)))
    assert got.components == (5.0, 7.0, 9.0)


def test_add_inverse_and_identity():
    v = CartesianVec((1.5, -2.0, 0.25))
    assert add(v, -v).components == (0.0, 0.0, 0.0)
    assert add(v, CartesianVec((0, 0, 0))) == v


def test_identity_needs_dimension_two():
    assert identity(2) == SphericalForm(1.0, (0.0,))
    with pytest.raises(ValueError, match="dimension must be >= 2"):
        identity(1)


def test_add_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        add(CartesianVec((1, 2)), CartesianVec((1, 2, 3)))


# -- multiplication -----------------------------------------------------------------

def test_mul_geometric_identity():
    h = SphericalForm(2.5, (1.0, 0.5))
    assert mul_geometric(h, identity(3)) == h


def test_mul_geometric_adds_arguments():
    got = mul_geometric(SphericalForm(2, (PI / 3, PI / 6)), SphericalForm(3, (PI / 6, PI / 6)))
    assert abs(got.modulus - 6.0) < 1e-15
    assert max_gap(got.args, (PI / 2, PI / 3)) < 1e-12


def test_mul_geometric_4d_pure_k_squared():
    got = pow_int(SphericalForm(1.0, (0.0, 0.0, PI / 2)), 2)
    assert max_gap(got.args, (PI, 0.0, 0.0)) < 1e-12
    assert max_gap(to_cartesian(got).components, (-1.0, 0.0, 0.0, 0.0)) < 1e-12


def test_mul_geometric_promotes_dimension():
    a = SphericalForm(2.0, (0.5,))
    b = SphericalForm(3.0, (0.25, 0.1, 0.2))
    got = mul_geometric(a, b)
    assert got.dim == 4
    assert max_gap(got.args, (0.75, 0.1, 0.2)) < 1e-15
    with pytest.raises(ValueError):
        promote(b, 2)


def test_mul_geometric_modulus_exactly_multiplicative():
    rng = random.Random(17)
    for _ in range(300):
        a, b = random_form(rng, 4), random_form(rng, 4)
        assert mul_geometric(a, b).modulus == a.modulus * b.modulus


def test_mul_cartesian_rejects_dim_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch: 3 != 4"):
        mul_cartesian(CartesianVec((1, 2, 3)), CartesianVec((1, 2, 3, 4)))


def test_mul_cartesian_identity():
    v = CartesianVec((0.3, -0.7, 1.1))
    got = mul_cartesian(CartesianVec((1.0, 0.0, 0.0)), v)
    assert max_gap(got.components, v.components) < 1e-15


def test_mul_cartesian_self_product():
    got = mul_cartesian(CartesianVec((1, 1, 1)), CartesianVec((1, 1, 1)))
    assert max_gap(got.components, (0.0, 1.0, 2.0 * math.sqrt(2))) < 1e-12


def test_mul_cartesian_degenerate_needs_fallback():
    z = CartesianVec((0.0, 0.0, 1.0))
    with pytest.raises(DegenerateLongitudeError):
        mul_cartesian(z, z)
    fb = DegenerateArgs((0.0,))
    got = mul_cartesian(z, z, fb, fb)
    assert max_gap(got.components, (-1.0, 0.0, 0.0)) < 1e-12


@pytest.mark.parametrize("a, b, nth", [
    ((0.0, 0.0, 1.0), (1.0, 2.0, 3.0), "first"),
    ((1.0, 2.0, 3.0), (0.0, 0.0, 1.0), "second"),
    ((0.0, -0.0, 0.0, 2.0), (0.0, 0.0, 5e-324, 1.0), "first"),
    ((1.0, 0.0, 0.0, 0.0), (-0.0, 0.0, 0.0, -3.0), "second"),
])
def test_mul_cartesian_names_the_degenerate_operand_and_its_fallback(a, b, nth):
    with pytest.raises(DegenerateLongitudeError) as info:
        mul_cartesian(CartesianVec(a), CartesianVec(b))
    assert str(info.value) == (f"the {nth} operand has unrecoverable longitudes (leading "
                               f"components are zero); pass them as the {nth} fallback")


def test_mul_cartesian_one_sided_degenerate():
    z = CartesianVec((0.0, 0.0, 2.0))
    v = CartesianVec((1.0, 1.0, 0.5))
    got = mul_cartesian(z, v, DegenerateArgs((0.0,)), None)
    # theta = 0 for the axis value: x'' = -z z' cos(theta'), y'' = -z z' sin(theta')
    want = to_cartesian(
        mul_geometric(to_spherical(z, DegenerateArgs((0.0,))), to_spherical(v))
    )
    assert max_gap(got.components, want.components) < 1e-12


def test_mul_cartesian_accepts_empty_fallback_as_explicit_default():
    z = CartesianVec((0.0, 0.0, 1.0))
    fb = DegenerateArgs(())
    got = mul_cartesian(z, z, fb, fb)
    assert max_gap(got.components, (-1.0, 0.0, 0.0)) < 1e-12


def test_mul_cartesian_zero_operand_needs_no_fallback():
    zero = CartesianVec((0.0, 0.0, 0.0))
    got = mul_cartesian(zero, CartesianVec((1.0, 2.0, 3.0)))
    assert got.components == (0.0, 0.0, 0.0)


def test_mul_cartesian_huge_times_tiny_matches_geometric():
    a, b = CartesianVec((1e160,) * 3), CartesianVec((1e-160,) * 3)
    got = mul_cartesian(a, b)
    want = to_cartesian(mul_geometric(to_spherical(a), to_spherical(b)))
    assert max_gap(got.components, want.components) < 1e-12 * 3.0


@pytest.mark.parametrize("a, b", [
    ((5e-324, 5e-324, 1.0), (1.0, 1.0, 1.0)),         # r_2 r'_2 is subnormal
    ((1e-150, 1e-150, 1e10), (1e-150, 1e-150, 1e10)),  # normal, yet 1e20 / it overflows
    ((1e-160, 1e-160, 1.0, 1.0), (1e-160, 1e-160, 1.0, 1.0)),
], ids=["subnormal-r2", "normal-r2", "4d"])
def test_mul_cartesian_tiny_denominator_matches_geometric(a, b):
    # r_2 r'_2 is nonzero but so small that a factor 1 - x_k x'_k / (r_{k-1} r'_{k-1})
    # overflows; the product itself is in range, so the geometric path computes it
    a, b = CartesianVec(a), CartesianVec(b)
    got = mul_cartesian(a, b)
    want = to_cartesian(mul_geometric(to_spherical(a), to_spherical(b)))
    assert max_gap(got.components, want.components) <= 1e-12 * a.norm() * b.norm()


def test_mul_cartesian_tiny_times_tiny_is_zero():
    # r_2 r'_2 underflows to 0; the true product (modulus 3e-400) rounds to 0
    t = CartesianVec((1e-200,) * 3)
    assert all(c == 0.0 for c in mul_cartesian(t, t).components)


def test_mul_cartesian_dim2_is_complex_multiplication():
    rng = random.Random(19)
    for _ in range(200):
        x, y, u, v = (rng.uniform(-2, 2) for _ in range(4))
        got = mul_cartesian(CartesianVec((x, y)), CartesianVec((u, v)))
        assert got.components == (x * u - y * v, x * v + u * y)


def test_mul_cartesian_plane_embedding_is_exact():
    rng = random.Random(23)
    for _ in range(200):
        x, y, u, v = (rng.uniform(-2, 2) for _ in range(4))
        got = mul_cartesian(CartesianVec((x, y, 0.0)), CartesianVec((u, v, 0.0)))
        assert got.components == (x * u - y * v, x * v + u * y, 0.0)


def test_representation_agreement():
    rng = random.Random(29)
    for dim in (3, 4, 7):
        for _ in range(300):
            ha, hb = random_form(rng, dim), random_form(rng, dim)
            direct = mul_cartesian(to_cartesian(ha), to_cartesian(hb))
            via_geo = to_cartesian(mul_geometric(ha, hb))
            scale = ha.modulus * hb.modulus
            assert max_gap(direct.components, via_geo.components) <= 1e-9 * scale


def test_unit_imaginary_invariance():
    # unit-modulus value with arguments only below index m times the pure
    # m-th imaginary unit returns that unit's point
    rng = random.Random(31)
    for _ in range(300):
        dim = rng.choice((3, 4, 7))
        m = rng.randrange(3, dim + 1)
        args = [rng.uniform(0, TAU)] + [
            rng.uniform(-1.2, 1.2) if k < m else 0.0 for k in range(3, dim + 1)
        ]
        a = SphericalForm(1.0, tuple(args))
        b_args = [0.0] * (dim - 1)
        b_args[m - 2] = rng.choice((-1.0, 1.0)) * PI / 2
        b = SphericalForm(1.0, tuple(b_args))
        got = to_cartesian(mul_geometric(a, b))
        assert max_gap(got.components, to_cartesian(b).components) < 1e-12


# -- inverse / divide / pow -----------------------------------------------------------

def test_inverse_rule():
    got = inverse(SphericalForm(2.0, (PI / 3, -PI / 4)))
    assert got == canonicalize(SphericalForm(0.5, (-PI / 3, PI / 4)))


def test_inverse_identity():
    assert inverse(identity(4)) == identity(4)


def test_inverse_cartesian_value():
    got = to_cartesian(inverse(to_spherical(CartesianVec((1.0, 1.0, 1.0)))))
    assert max_gap(got.components, (1 / 3, -1 / 3, -1 / 3)) < 1e-12


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        inverse(SphericalForm(0.0, (0.0, 0.0)))


def test_inverse_times_value_is_identity():
    rng = random.Random(37)
    for _ in range(300):
        h = random_form(rng, rng.choice((3, 4, 7)))
        prod = mul_geometric(h, inverse(h))
        assert abs(prod.modulus - 1.0) < 1e-12
        assert all(angle_gap(a, 0.0) < 1e-12 for a in prod.args)


def test_divide_examples():
    h = SphericalForm(2.0, (1.0, 0.5))
    assert equals_argumentwise(divide(h, h), identity(3), 1e-15)
    got = divide(SphericalForm(6, (PI / 2, PI / 3)), SphericalForm(3, (PI / 6, PI / 6)))
    assert abs(got.modulus - 2.0) < 1e-15
    assert max_gap(got.args, (PI / 3, PI / 6)) < 1e-12
    assert divide(h, identity(3)) == h


def test_divide_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        divide(identity(3), SphericalForm(0.0, (0.0, 0.0)))


def test_pow_int():
    h = SphericalForm(2.0, (0.4, 0.2))
    assert pow_int(h, 0) == identity(3)
    assert pow_int(h, -1) == inverse(h)
    got = pow_int(SphericalForm(math.sqrt(2), (PI / 8, PI / 12)), 2)
    assert abs(got.modulus - 2.0) < 1e-12
    assert max_gap(got.args, (PI / 4, PI / 6)) < 1e-12
    with pytest.raises(ZeroDivisionError):
        pow_int(SphericalForm(0.0, (0.0, 0.0)), -2)


def test_default_products_depend_on_bracketing():
    # canonicalizing folds h^2's latitude 2 by the replicate move, and the
    # replicate multiplies differently; the raw tuples form the group
    h = SphericalForm(1, (0, 1))
    cube = to_cartesian(pow_int(h, 3)).components
    assert max_gap(cube, (-0.98999, 0.0, 0.14112)) < 1e-5
    squared_then_h = to_cartesian(mul_geometric(pow_int(h, 2), h)).components
    assert max_gap(squared_then_h, (0.54030, 0.0, 0.84147)) < 1e-5
    raw = mul_geometric(h, mul_geometric(h, h, canonical=False), canonical=False)
    assert max_gap(to_cartesian(raw).components, cube) < 1e-12


@pytest.mark.parametrize("m", [2.5, 2.0, "3"])
def test_pow_int_exponent_must_be_an_integer(m):
    # a degree is an integer, not a value that int() truncates or parses
    with pytest.raises(TypeError):
        pow_int(SphericalForm(2.0, (0.4, 0.2)), m)


def test_pow_int_takes_numpy_integers_and_bools():
    h = SphericalForm(2.0, (0.4, 0.2))
    assert pow_int(h, np.int64(3)) == pow_int(h, 3)
    assert pow_int(h, True) == pow_int(h, 1)


@pytest.mark.parametrize("r, m", [(1e200, 2), (1e-200, -3)])
def test_pow_int_overflow_is_a_value_error(r, m):
    # r**m past the float range is a domain error, like an infinite product
    with pytest.raises(ValueError, match="^result modulus overflowed to inf$"):
        pow_int(SphericalForm(r, (0.1, 0.2)), m)


# -- partial moduli --------------------------------------------------------------------

def test_partial_moduli_values():
    got = partial_moduli(CartesianVec((1.0, 1.0, 1.0)))
    assert max_gap(got, (1.0, math.sqrt(2), math.sqrt(3))) < 1e-15
    assert partial_moduli(CartesianVec((0.0, 0.0, 5.0))) == (0.0, 0.0, 5.0)
    assert partial_moduli(CartesianVec((3.0, 4.0))) == (3.0, 5.0)


def test_partial_moduli_nondecreasing_and_match_norm():
    rng = random.Random(41)
    for _ in range(200):
        v = random_vec(rng, rng.choice((3, 4, 7)))
        chain = partial_moduli(v)
        assert all(a <= b for a, b in zip(chain, chain[1:]))
        assert abs(chain[-1] - v.norm()) <= 1e-12 * chain[-1]


# -- equality predicates ----------------------------------------------------------------

def test_equals_cartesian_degenerate_longitudes():
    r = 2.0
    assert equals_cartesian(
        SphericalForm(r, (PI / 3, PI / 2)), SphericalForm(r, (PI, PI / 2)), 1e-12
    )


def test_equals_cartesian_replicate_pair():
    h = SphericalForm(1.5, (0.7, 0.3))
    rep = SphericalForm(1.5, (0.7 + PI, PI - 0.3))
    assert equals_cartesian(h, rep, 1e-12)
    assert not equals_argumentwise(h, rep)


def test_equals_cartesian_distinct_points():
    assert not equals_cartesian(
        SphericalForm(1.0, (0.0, 0.0)), SphericalForm(1.0, (0.0, PI / 2)), 1e-6
    )


def test_equals_cartesian_rejects_dim_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch: 3 != 4"):
        equals_cartesian(identity(3), identity(4), 1.0)


@pytest.mark.parametrize("b", [
    SphericalForm(1.0, (0.5, 0.25, 0.0)),           # another dimension
    SphericalForm(1.5, (0.5, 0.25)),                # another modulus
    SphericalForm(1.0, (0.5, 0.2500001)),           # another argument
], ids=["dim", "modulus", "argument"])
def test_equals_argumentwise_false(b):
    a = SphericalForm(1.0, (0.5, 0.25))
    assert equals_argumentwise(a, a, 0.0)
    assert not equals_argumentwise(a, b)
    assert not equals_argumentwise(a, b, 1e-8)
    assert equals_argumentwise(a, b, 1.0) == (a.dim == b.dim)


# -- public surface ----------------------------------------------------------------------

def test_value_types_have_no_method_aliases():
    # every operation is a module function; the types carry their fields,
    # dim, and CartesianVec's norm and signed sums
    def public(cls):
        return sorted(n for n in dir(cls) if not n.startswith("_"))

    def methods(cls):
        return sorted(n for n, v in vars(cls).items()
                      if callable(v) and n not in ("__init__", "__annotate__"))

    assert public(SphericalForm) == ["args", "dim", "modulus"]
    assert public(CartesianVec) == ["components", "dim", "norm"]
    assert methods(SphericalForm) == []
    assert methods(CartesianVec) == ["__add__", "__neg__", "__sub__", "norm"]


def test_package_public_names():
    import hypercomplex

    names = [
        "CartesianVec", "DegenerateArgs", "DegenerateLongitudeError", "SphericalForm",
        "add", "canonicalize", "divide", "equals_argumentwise", "equals_cartesian",
        "identity", "inverse", "is_canonical", "mul_cartesian", "mul_geometric",
        "partial_moduli", "pow_int", "promote", "to_cartesian", "to_spherical",
        "RootSet", "conjugate", "distributivity_residual",
        "j_squared", "nth_roots", "replicate", "replicate_products", "scalar_embed",
        "EventDelta", "doubled_latitude_quadrant", "interval_sq",
        "lorentz_boost", "square_and_project",
        "FractalConfig", "MembershipGrid", "escape_time", "export_grid", "render_grid",
        "__version__",
    ]
    assert len(names) == 38
    assert len(hypercomplex.__all__) == len(set(hypercomplex.__all__))
    assert set(hypercomplex.__all__) == set(names)
    assert all(hasattr(hypercomplex, name) for name in names)
