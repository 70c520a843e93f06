import math
import random
import sys

import numpy as np
import pytest

from conftest import (
    TAU,
    assert_matches_naive_scan,
    assert_value_contract,
    max_gap,
    random_form,
    random_vec,
)
from hypercomplex import (
    CartesianVec,
    DegenerateLongitudeError,
    RootSet,
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
from hypercomplex import extensions
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
        with pytest.raises(ValueError, match=f"{variant} conjugate is defined for dimension 3"):
            conjugate(h, variant)
    # an unknown name is rejected in any dimension, naming the variants
    for g in (h, random_form(random.Random(2), 3)):
        with pytest.raises(ValueError) as err:
            conjugate(g, "bogus")
        assert str(err.value) == (
            "conjugate variant must be 'full', 'second' or 'third', got 'bogus'")


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


def test_root_set_is_a_frozen_record():
    rs = nth_roots(SphericalForm(4.0, (0.0, 0.0)), 1)
    assert type(rs) is RootSet
    assert_value_contract(
        rs,
        "RootSet(roots=(SphericalForm(modulus=4.0, args=(0.0, 0.0)),), multiplicity_note=2)",
        roots=(SphericalForm(4.0, (0.0, 0.0)),),
        multiplicity_note=2,
    )


def test_roots_of_zero():
    rs = nth_roots(SphericalForm(0.0, (1.0, 2.0)), 3)
    assert len(rs.roots) == 1 and rs.roots[0].modulus == 0.0


def test_root_degree_validation():
    with pytest.raises(ValueError):
        nth_roots(SphericalForm(1.0, (0.0, 0.0)), 0)


@pytest.mark.parametrize("m", [2.5, 2.0, "3"])
def test_root_degree_must_be_an_integer(m):
    # a degree is an integer, not a value that int() truncates or parses
    with pytest.raises(TypeError):
        nth_roots(SphericalForm(2.0, (0.3, 0.2)), m)


def test_root_degree_takes_numpy_integers():
    h = SphericalForm(2.0, (0.3, 0.2))
    assert nth_roots(h, np.int64(3)) == nth_roots(h, 3)


@pytest.mark.parametrize("dim, m", [(3, 10 ** 6), (6, 10 ** 9), (20, 10 ** 300)])
def test_a_huge_root_degree_fails_before_enumerating(monkeypatch, dim, m):
    def never(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(extensions, "replicate", never)
    with pytest.raises(ValueError, match=r"\(N-1\)\*m\^\(N-1\) = .* root candidates, past "
                                         r"the bound of 1048576"):
        nth_roots(SphericalForm(2.0, (0.3,) * (dim - 1)), m)


def test_the_root_bound_counts_every_candidate(monkeypatch):
    # 2 * 5**2 = 50 candidates in 3D is the last degree the bound admits
    monkeypatch.setattr(extensions, "_MAX_ROOT_CANDIDATES", 50)
    h = SphericalForm(2.0, (0.3, 0.2))
    assert len(nth_roots(h, 5).roots) == 25
    with pytest.raises(ValueError, match=r"^degree 6 in 3D makes \(N-1\)\*m\^\(N-1\) = 72 root "
                                         r"candidates, past the bound of 50$"):
        nth_roots(h, 6)


def test_roots_power_back_and_3d_count_bounds():
    rng = random.Random(21)
    for _ in range(60):
        dim = rng.choice((3, 4))
        m = rng.choice((2, 3, 4))
        h = canonicalize(random_form(rng, dim))
        rs = nth_roots(h, m)
        # generic inputs: m**2 roots in 3D; in 4D, m**3 for odd m and the
        # 3 * m**3 / 4 unfolded candidates for even m.  Odd m counts every
        # replicate family's copy of each root, even m finds no duplicates.
        count = m * m if dim == 3 else (m ** 3 if m % 2 else 3 * m ** 3 // 4)
        assert len(rs.roots) == count
        assert rs.multiplicity_note == ((dim - 1) * count if m % 2 else count)
        target = to_cartesian(h).components
        for root in rs.roots:
            back = to_cartesian(pow_int(root, m)).components
            assert max_gap(back, target) <= 1e-8


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


# -- roots by construction: the edges of the closed-form guard -----------------------

@pytest.fixture
def cartesian_calls(monkeypatch):
    """Records nth_roots' own calls to ``_cartesian``: none on the
    closed-form path; on the filtered enumeration one for the target, one
    per candidate's power-back and one per surviving candidate."""
    calls = []
    real = extensions._cartesian

    def counted(r, args):
        if sys._getframe(1).f_code is extensions.nth_roots.__code__:
            calls.append(args)
        return real(r, args)

    monkeypatch.setattr(extensions, "_cartesian", counted)
    return calls


def built_directly(h, m, calls):
    calls.clear()
    nth_roots(h, m)
    return not calls


def test_generic_roots_skip_the_filter(cartesian_calls):
    h = random_form(random.Random(13), 6)
    nth_roots(h, 3)
    assert cartesian_calls == []
    rs = nth_roots(SphericalForm(h.modulus, (h.args[0] + TAU,) + h.args[1:]), 3)
    # 5 replicate families of 3**5 candidates, and for odd m all survive
    assert rs.multiplicity_note == 5 * 3 ** 5
    assert len(cartesian_calls) == 1 + 2 * 5 * 3 ** 5


def guard_edge(make, m, lo, hi, calls):
    """Adjacent floats ``x < y`` in ``[lo, hi]`` where ``nth_roots(make(.), m)``
    switches between its two paths, found by bisection."""
    low_side = built_directly(make(lo), m, calls)
    assert built_directly(make(hi), m, calls) != low_side
    while math.nextafter(lo, hi) != hi:
        mid = lo + (hi - lo) / 2
        if built_directly(make(mid), m, calls) == low_side:
            lo = mid
        else:
            hi = mid
    return lo, hi


_GUARD_EDGES = {
    # |x_3| of the unit target crosses the power-back tolerance: a folded
    # square root misses by 2|x_3|
    "x3-3d-m2": (lambda t: SphericalForm(1.7, (0.7, t)), 2, 1e-9, 1e-7),
    # x_3 = sin(-0.5) cos(theta_4) shrinks as theta_4 nears the pole
    "x3-under-pole-4d-m2": (lambda d: SphericalForm(0.6, (2.0, -0.5, PI / 2 - d)), 2, 1e-9, 1e-6),
    # a candidate latitude -t/4 + pi/2 nears the pole as x_4 shrinks
    "x4-4d-m4": (lambda t: SphericalForm(0.6, (2.0, 0.4, -t)), 4, 1e-9, 1e-5),
    # the cube-root candidate theta/3 + 2pi/3 nears pi/2: r2 -> 0
    "candidate-pole-3d-m3": (lambda e: SphericalForm(1.0, (0.4, -PI / 2 + e)), 3, 1e-12, 1e-5),
    "candidate-pole-4d-m1": (lambda d: SphericalForm(1.0, (0.4, 0.3, PI / 2 - d)), 1, 1e-12, 1e-6),
    "pole-adjacent-5d-m3": (
        lambda d: SphericalForm(1.3, (0.9,) + (PI / 2 - d,) * 3), 3, 1e-4, 1e-1),
    "pole-adjacent-6d-m2": (
        lambda d: SphericalForm(1.3, (0.9,) + (PI / 2 - d,) * 4), 2, 1e-3, 1e-2),
}


@pytest.mark.parametrize("name", sorted(_GUARD_EDGES))
def test_roots_match_naive_scan_on_either_side_of_the_guard(name, cartesian_calls):
    make, m, lo, hi = _GUARD_EDGES[name]
    for x in guard_edge(make, m, lo, hi, cartesian_calls):
        assert_matches_naive_scan(make(x), m)


def test_pole_adjacent_square_roots_keep_the_folded_candidates(cartesian_calls):
    # x_3 = cos(d) sin(d)**3 ~ 1.3e-9: the folded candidates power back
    # within 1e-8, so there are twice the closed form's 10 roots
    h = SphericalForm(1.3, (0.9,) + (PI / 2 - 1.1e-3,) * 4)
    assert not built_directly(h, 2, cartesian_calls)
    rs = nth_roots(h, 2)
    assert len(rs.roots) == 20 and rs.multiplicity_note == 20
    assert_matches_naive_scan(h, 2)


@pytest.mark.parametrize("x3", (4.9e-9, 5e-9, 5.1e-9, 2e-8))
def test_square_roots_around_the_power_back_cut(x3, cartesian_calls):
    # 2|x_3| below 1e-8 lets the folded candidates through; the closed form
    # takes over only once |x_3| is a whole tolerance past that
    h = SphericalForm(1.7, (0.7, math.asin(x3)))
    assert built_directly(h, 2, cartesian_calls) == (x3 > 1e-8)
    assert_matches_naive_scan(h, 2)


_ONE_ULP_OUTSIDE = (
    ((math.nextafter(TAU, 0.0), 0.4), (TAU, 0.4)),
    ((0.0, 0.4), (-5e-324, 0.4)),
    ((1.1, PI / 2), (1.1, math.nextafter(PI / 2, 4.0))),
    ((1.1, -PI / 2), (1.1, math.nextafter(-PI / 2, -4.0))),
)


@pytest.mark.parametrize("inside, outside", _ONE_ULP_OUTSIDE)
@pytest.mark.parametrize("m", (2, 3))
@pytest.mark.parametrize("dim", (3, 4))
def test_roots_one_ulp_outside_canonical(inside, outside, m, dim, cartesian_calls):
    mid = (0.3,) * (dim - 3)
    for args in (inside, outside):
        assert_matches_naive_scan(SphericalForm(0.8, args[:1] + mid + args[1:]), m)
    assert not built_directly(SphericalForm(0.8, outside[:1] + mid + outside[1:]), m,
                              cartesian_calls)


def latitude_with_candidate(c, m, j):
    """A latitude ``t`` whose root candidate ``t/m + j*(2pi/m)`` is exactly ``c``."""
    t = (c - j * (TAU / m)) * m
    for _ in range(64):
        got = t / m + j * (TAU / m)
        if got == c:
            return t
        t = math.nextafter(t, math.inf if got < c else -math.inf)
    raise AssertionError(f"no latitude gives candidate {c!r} for m={m}, j={j}")


_HALF_PI = PI / 2
_UP, _DOWN = math.nextafter(_HALF_PI, 4.0), math.nextafter(_HALF_PI, 0.0)


@pytest.mark.parametrize("m, j, c", (
    (1, 0, _DOWN), (1, 0, _HALF_PI), (1, 0, _UP),
    (1, 0, -_DOWN), (1, 0, -_HALF_PI), (1, 0, -_UP),
    (3, 1, _HALF_PI), (3, 1, _UP), (5, 1, _DOWN), (5, 1, _HALF_PI),
))
@pytest.mark.parametrize("dim", (3, 4))
def test_roots_with_a_candidate_latitude_at_the_pole(m, j, c, dim):
    t = latitude_with_candidate(c, m, j)
    assert_matches_naive_scan(SphericalForm(0.8, (0.5,) + (0.3,) * (dim - 3) + (t,)), m)


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
        table = replicate_products(a, b)
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
    assert scalar_embed(2.0, 2) == SphericalForm(2.0, (0.0,))
    with pytest.raises(ValueError, match="dimension must be >= 2"):
        scalar_embed(2.0, 1)


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
    with pytest.raises(DegenerateLongitudeError, match="^the first operand .* first fallback$"):
        distributivity_residual(axis, v, v)
