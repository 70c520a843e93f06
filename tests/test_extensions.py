import math
import random

import pytest

from conftest import TAU, float_bits, max_gap, naive_nth_roots, random_form, random_vec
from hypercomplex import (
    CartesianVec,
    DegenerateLongitudeError,
    SphericalForm,
    canonicalize,
    conjugate,
    distributivity_residual,
    equals_cartesian,
    j_squared,
    mul_geometric,
    nth_roots,
    pow_int,
    replicate,
    replicate_products,
    scalar_embed,
    to_cartesian,
    to_spherical,
)
from hypercomplex.extensions import _DEDUP_CELL

PI = math.pi


# -- conjugates -------------------------------------------------------------------

def test_conjugate_full_reflects_imaginary_components():
    h = to_spherical(CartesianVec((1.0, 1.0, 1.0)))
    got = to_cartesian(conjugate(h, "full"))
    assert max_gap(got.components, (1.0, -1.0, -1.0)) < 1e-12


def test_conjugate_second_and_third():
    h = to_spherical(CartesianVec((1.0, 1.0, 1.0)))
    assert max_gap(to_cartesian(conjugate(h, "second")).components, (1.0, -1.0, 1.0)) < 1e-12
    assert max_gap(to_cartesian(conjugate(h, "third")).components, (1.0, 1.0, -1.0)) < 1e-12


def test_conjugate_product_is_real():
    h = to_spherical(CartesianVec((1.0, 1.0, 1.0)))
    got = to_cartesian(mul_geometric(h, conjugate(h)))
    assert max_gap(got.components, (3.0, 0.0, 0.0)) < 1e-12


def test_conjugate_product_laws():
    rng = random.Random(5)
    for _ in range(300):
        h = random_form(rng, 3)
        r2 = h.modulus * h.modulus
        theta, phi = h.args
        second = to_cartesian(mul_geometric(h, conjugate(h, "second")))
        assert max_gap(second.components,
                       (r2 * math.cos(2 * phi), 0.0, r2 * math.sin(2 * phi))) <= 1e-9 * r2
        third = to_cartesian(mul_geometric(h, conjugate(h, "third")))
        assert max_gap(third.components,
                       (r2 * math.cos(2 * theta), r2 * math.sin(2 * theta), 0.0)) <= 1e-9 * r2


def test_conjugate_full_works_in_any_dim():
    rng = random.Random(9)
    for _ in range(200):
        h = random_form(rng, rng.choice((4, 5, 7)))
        prod = to_cartesian(mul_geometric(h, conjugate(h)))
        want = (h.modulus * h.modulus,) + (0.0,) * (h.dim - 1)
        assert max_gap(prod.components, want) <= 1e-9 * h.modulus * h.modulus


def test_conjugate_involution_gives_canonical_original():
    rng = random.Random(3)
    for _ in range(300):
        h = canonicalize(random_form(rng, rng.choice((3, 4, 7))))
        back = conjugate(conjugate(h))
        assert abs(back.modulus - h.modulus) < 1e-15
        assert max_gap(back.args, h.args) < 1e-12


def test_conjugate_variant_needs_dim3():
    h = random_form(random.Random(1), 4)
    for variant in ("second", "third"):
        with pytest.raises(ValueError):
            conjugate(h, variant)
    with pytest.raises(ValueError):
        conjugate(h, "fourth")


# -- replicates --------------------------------------------------------------------

def test_replicate_rule_3d():
    got = replicate(SphericalForm(1.0, (PI / 4, PI / 6)), 3)
    assert max_gap(got.args, (5 * PI / 4, 5 * PI / 6)) < 1e-12


def test_replicate_highest_index_4d():
    got = replicate(SphericalForm(1.0, (0.0, 0.0, PI / 3)), 4)
    assert max_gap(got.args, (0.0, PI, 2 * PI / 3)) < 1e-12


def test_replicate_twice_returns_to_point():
    h = SphericalForm(2.0, (0.5, 0.25, -0.4))
    twice = replicate(replicate(h, 3), 3)
    assert equals_cartesian(h, twice, 1e-12)


def test_replicate_preserves_point():
    rng = random.Random(15)
    for _ in range(300):
        h = random_form(rng, rng.choice((3, 4, 7)))
        k = rng.randrange(3, h.dim + 1)
        assert equals_cartesian(h, replicate(h, k), 1e-12)


def test_replicate_index_range():
    h = SphericalForm(1.0, (0.0, 0.0))
    for k in (2, 4):
        with pytest.raises(ValueError):
            replicate(h, k)


# -- roots --------------------------------------------------------------------------

def test_square_roots_of_pure_complex_value():
    # complex value at latitude zero: the two complex roots plus the two
    # opposite pure z-axis points
    rs = nth_roots(SphericalForm(4.0, (PI / 2, 0.0)), 2)
    carts = sorted(tuple(round(c, 9) for c in to_cartesian(r).components) for r in rs.roots)
    s = math.sqrt(2)
    want = sorted([(s, s, 0.0), (-s, -s, 0.0), (0.0, 0.0, 2.0), (0.0, 0.0, -2.0)])
    assert len(carts) == 4
    for got, exp in zip(carts, want):
        assert max_gap(got, exp) < 1e-9
    assert rs.multiplicity_note == 8


def test_first_degree_root_is_the_value():
    h = SphericalForm(2.0, (0.6, -0.2))
    rs = nth_roots(h, 1)
    assert len(rs.roots) == 1
    assert rs.roots[0] == canonicalize(h)


def test_roots_of_zero():
    rs = nth_roots(SphericalForm(0.0, (1.0, 2.0)), 3)
    assert len(rs.roots) == 1 and rs.roots[0].modulus == 0.0


def test_root_degree_validation():
    with pytest.raises(ValueError):
        nth_roots(SphericalForm(1.0, (0.0, 0.0)), 0)


def test_roots_power_back_and_3d_count_bounds():
    rng = random.Random(21)
    for _ in range(60):
        dim = rng.choice((3, 4))
        m = rng.choice((2, 3, 4))
        h = canonicalize(random_form(rng, dim))
        rs = nth_roots(h, m)
        if dim == 3:
            assert m <= len(rs.roots) <= 2 * m * m
        target = to_cartesian(h).components
        for root in rs.roots:
            back = to_cartesian(pow_int(root, m)).components
            assert max_gap(back, target) <= 1e-8


def assert_matches_naive_scan(h, m):
    rs = nth_roots(h, m)
    roots, survivors = naive_nth_roots(h, m)
    assert [float_bits(r) for r in rs.roots] == [float_bits(r) for r in roots]
    assert rs.multiplicity_note == survivors


def test_roots_match_naive_scan_seeded():
    rng = random.Random(5)
    for dim in range(3, 8):
        for m in range(1, 5):
            assert_matches_naive_scan(random_form(rng, dim), m)
    for _ in range(40):
        dim, m = rng.choice((3, 4, 5)), rng.choice((1, 2, 3, 4))
        assert_matches_naive_scan(random_form(rng, dim, lat_bound=PI / 2), m)


_BOUNDARY_LONS = (0.0, -0.0, math.nextafter(TAU, 0.0), 0.9)
_BOUNDARY_LATS = (PI / 2, -PI / 2, 0.0, -0.0, 0.7)


@pytest.mark.parametrize("dim", (3, 4))
@pytest.mark.parametrize("m", (1, 2, 3))
def test_roots_match_naive_scan_on_boundaries(dim, m):
    for lon in _BOUNDARY_LONS:
        for lat in _BOUNDARY_LATS:
            assert_matches_naive_scan(SphericalForm(1.7, (lon,) + (lat,) * (dim - 2)), m)
            assert_matches_naive_scan(SphericalForm(0.4, (lon, -0.0) + (lat,) * (dim - 3)), m)


def test_roots_dedup_across_a_bucket_edge():
    # at the pole, h and its replicate differ only in longitude (by pi), so
    # their points are equal up to cos(pi/2) ~ 6e-17 with x and y of
    # opposite signs: the pair straddles the bucket edge at 0
    h = SphericalForm(1.0, (0.3, PI / 2))
    a, b = (to_cartesian(canonicalize(f)).components for f in (h, replicate(h, 3)))
    assert max_gap(a, b) <= 1e-9
    assert [math.floor(c / _DEDUP_CELL) for c in a] != [math.floor(c / _DEDUP_CELL) for c in b]
    rs = nth_roots(h, 1)
    assert len(rs.roots) == 1 and rs.multiplicity_note == 2
    assert_matches_naive_scan(h, 1)


@pytest.mark.parametrize("s", (1e-30, 1e-12, 1e8, 1e100))
def test_roots_are_scale_invariant(s):
    # roots of s**m * h are s times the roots of h: same count, same
    # argument tuples, moduli scaled by s (up to the rounding of the 1/m
    # exponent in r**(1/m), a relative |ln r| * 2**-53 <= 8e-14)
    rng = random.Random(8)
    cases = [(SphericalForm(1.0, (0.3, 0.2)), 3)] + [
        (random_form(rng, dim), m) for dim in (3, 4, 5) for m in (2, 3)
    ]
    for h, m in cases:
        ref = nth_roots(h, m)
        got = nth_roots(SphericalForm(s ** m * h.modulus, h.args), m)
        assert len(got.roots) == len(ref.roots)
        assert got.multiplicity_note == ref.multiplicity_note
        for g, r in zip(got.roots, ref.roots):
            assert g.args == r.args
            assert g.modulus == pytest.approx(s * r.modulus, rel=1e-13)
    assert len(nth_roots(SphericalForm(s ** 3, (0.3, 0.2)), 3).roots) == 9


@pytest.mark.parametrize("r", (5e-324, 1e-310, 1.7976931348623157e308))
def test_roots_at_subnormal_and_largest_moduli(r):
    # the power of a root would underflow to a few bits or overflow; the
    # roots are still the unit-modulus ones scaled by r**(1/m)
    for m in (1, 2, 3):
        unit = nth_roots(SphericalForm(1.0, (0.3, 0.2)), m)
        rs = nth_roots(SphericalForm(r, (0.3, 0.2)), m)
        assert [root.args for root in rs.roots] == [root.args for root in unit.roots]
        assert all(root.modulus == r ** (1.0 / m) for root in rs.roots)
        assert rs.multiplicity_note == unit.multiplicity_note


# -- replicate products ----------------------------------------------------------------

def test_replicate_products_table():
    a = SphericalForm(1.0, (0.3, 0.2))
    b = SphericalForm(1.0, (0.5, 0.45))
    prods = replicate_products(a, b)
    assert [p.args[0] for p in prods] == [0.8] * 4
    lats = [p.args[1] for p in prods]
    assert max_gap(lats, (0.65, 0.25, -0.25, -0.65)) < 1e-15
    # pairwise opposite latitudes: cases 1&4 and 2&3
    assert abs(lats[0] + lats[3]) < 1e-15 and abs(lats[1] + lats[2]) < 1e-15


def test_replicate_products_match_replicate_combinations():
    rng = random.Random(33)
    for _ in range(100):
        a, b = random_form(rng, 3), random_form(rng, 3)
        table = replicate_products(a, b, canonical=True)
        combos = (
            mul_geometric(a, b),
            mul_geometric(a, replicate(b, 3)),
            mul_geometric(replicate(a, 3), b),
            mul_geometric(replicate(a, 3), replicate(b, 3)),
        )
        for row, combo in zip(table, combos):
            assert equals_cartesian(row, combo, 1e-9)


def test_replicate_products_need_dim3():
    h4 = SphericalForm(1.0, (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        replicate_products(h4, h4)


# -- j squared, scalars ------------------------------------------------------------------

def test_j_squared_reference_points():
    assert max_gap(j_squared(0.0), (-1.0, 0.0)) < 1e-12
    assert max_gap(j_squared(PI / 2), (1.0, 0.0)) < 1e-12
    assert max_gap(j_squared(PI / 4), (0.0, -1.0)) < 1e-12


def test_j_squared_lies_on_unit_circle():
    rng = random.Random(2)
    for _ in range(200):
        re, im = j_squared(rng.uniform(-10, 10))
        assert abs(math.hypot(re, im) - 1.0) < 1e-12


def test_scalar_embed_forms():
    assert scalar_embed(1.0, 4) == SphericalForm(1.0, (0.0, 0.0, 0.0))
    assert scalar_embed(2.5, 3) == SphericalForm(2.5, (0.0, 0.0))
    assert scalar_embed(-1.0, 3) == SphericalForm(1.0, (0.0, PI))


def test_scalar_embed_scales_every_component():
    rng = random.Random(27)
    for _ in range(300):
        dim = rng.choice((3, 4, 7))
        s = rng.uniform(-3, 3)
        h = random_form(rng, dim)
        got = to_cartesian(mul_geometric(h, scalar_embed(s, dim)))
        want = tuple(s * c for c in to_cartesian(h).components)
        assert max_gap(got.components, want) < 1e-12


# -- distributivity residual ----------------------------------------------------------------

def test_distributivity_witness_value():
    got = distributivity_residual(
        CartesianVec((1.0, 1.0, 1.0)),
        CartesianVec((1.0, 0.0, 1.0)),
        CartesianVec((0.0, 1.0, 1.0)),
    )
    want = (0.0, math.sqrt(2) - 2.0, math.sqrt(2) - 2.0)
    assert max_gap(got.components, want) < 1e-12
    assert got.norm() > 0.1


def test_distributivity_exactly_zero_for_equal_operands():
    rng = random.Random(35)
    for _ in range(100):
        a, b = random_vec(rng, 3), random_vec(rng, 3)
        assert distributivity_residual(a, b, b).components == (0.0, 0.0, 0.0)


def test_distributivity_zero_for_collinear_operands():
    rng = random.Random(39)
    for _ in range(200):
        a = random_vec(rng, 3)
        lon, lat = rng.uniform(0, TAU), rng.uniform(-1.2, 1.2)
        b = to_cartesian(SphericalForm(rng.uniform(0.2, 3.0), (lon, lat)))
        c = to_cartesian(SphericalForm(rng.uniform(0.2, 3.0), (lon, lat)))
        assert distributivity_residual(a, b, c).norm() < 1e-9


def test_distributivity_zero_in_complex_plane():
    rng = random.Random(43)
    for _ in range(200):
        a, b, c = (
            CartesianVec((rng.uniform(-2, 2), rng.uniform(-2, 2), 0.0)) for _ in range(3)
        )
        assert distributivity_residual(a, b, c).norm() < 1e-12


def test_distributivity_propagates_degenerate_errors():
    axis = CartesianVec((0.0, 0.0, 1.0))
    v = CartesianVec((1.0, 0.5, 0.2))
    with pytest.raises(DegenerateLongitudeError):
        distributivity_residual(axis, v, v)
