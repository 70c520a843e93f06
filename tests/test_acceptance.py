"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Sample counts and tolerances are pinned here, not
configurable.
"""

import math
import random
import time

import numpy as np

from conftest import TAU, angle_gap, classical_escape, max_gap, random_form
from hypercomplex import (
    CartesianVec,
    EventDelta,
    FractalConfig,
    SphericalForm,
    add,
    canonicalize,
    conjugate,
    distributivity_residual,
    export_grid,
    identity,
    interval_sq,
    inverse,
    j_squared,
    lorentz_boost,
    mul_cartesian,
    mul_geometric,
    nth_roots,
    partial_moduli,
    pow_int,
    render_grid,
    square_and_project,
    to_cartesian,
    to_spherical,
)
from hypercomplex.fractal import axis_centers

PI = math.pi
DIMS = (3, 4, 7)


def _criterion(name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_criterion_01_group_laws():
    rng = random.Random(101)
    start = time.monotonic()
    worst_add = worst_raw = worst_cart = 0.0
    for dim in DIMS:
        zero = CartesianVec((0.0,) * dim)
        for _ in range(10_000):
            fa, fb, fc = (random_form(rng, dim) for _ in range(3))
            a, b, c = (to_cartesian(f) for f in (fa, fb, fc))
            # additive axioms, absolute 1e-12
            assoc = add(add(a, b), c) - add(a, add(b, c))
            comm = add(a, b) - add(b, a)
            ident = add(a, zero) - a
            inv = add(a, -a)
            for v in (assoc, comm, ident, inv):
                worst_add = max(worst_add, max(abs(x) for x in v.components))
            # multiplicative axioms on raw (modulus, args), 1e-12
            left = mul_geometric(mul_geometric(fa, fb, canonical=False), fc, canonical=False)
            right = mul_geometric(fa, mul_geometric(fb, fc, canonical=False), canonical=False)
            worst_raw = max(worst_raw, abs(left.modulus - right.modulus),
                            max_gap(left.args, right.args))
            ab = mul_geometric(fa, fb, canonical=False)
            ba = mul_geometric(fb, fa, canonical=False)
            worst_raw = max(worst_raw, abs(ab.modulus - ba.modulus), max_gap(ab.args, ba.args))
            one = mul_geometric(fa, identity(dim), canonical=False)
            worst_raw = max(worst_raw, abs(one.modulus - fa.modulus), max_gap(one.args, fa.args))
            unit = mul_geometric(fa, inverse(fa), canonical=False)
            worst_raw = max(worst_raw, abs(unit.modulus - 1.0))
            worst_raw = max(worst_raw, max(abs(angle_gap(t, 0.0)) for t in unit.args))
            # canonicalized products Cartesian-equivalent, 1e-9
            worst_cart = max(worst_cart, max_gap(
                to_cartesian(canonicalize(left)).components,
                to_cartesian(canonicalize(right)).components,
            ))
    elapsed = time.monotonic() - start
    ok = worst_add <= 1e-12 and worst_raw <= 1e-12 and worst_cart <= 1e-9 and elapsed < 10.0
    _criterion(
        "criterion-01 group laws (dims 3/4/7, 1e4 triples each)", ok,
        f"add {worst_add:.2e}, raw mul {worst_raw:.2e}, cart {worst_cart:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_representation_agreement():
    rng = random.Random(102)
    start = time.monotonic()
    worst = 0.0
    for dim in DIMS:
        for _ in range(10_000):
            fa, fb = random_form(rng, dim), random_form(rng, dim)
            a, b = to_cartesian(fa), to_cartesian(fb)
            direct = mul_cartesian(a, b)
            via_geo = to_cartesian(mul_geometric(to_spherical(a), to_spherical(b)))
            scale = fa.modulus * fb.modulus
            worst = max(worst, max_gap(direct.components, via_geo.components) / scale)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    _criterion(
        "criterion-02 representation agreement (1e4 pairs per dim)", ok,
        f"max relative gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_roundtrip_conversion():
    rng = random.Random(103)
    worst = 0.0
    n_cases = 10_000
    for i in range(n_cases):
        dim = DIMS[i % 3]
        h = random_form(rng, dim)
        assert min(partial_moduli(to_cartesian(h))) > 1e-6
        back = to_spherical(to_cartesian(h))
        worst = max(worst, abs(back.modulus - h.modulus) / h.modulus)
        for x, y in zip(h.args, back.args):
            worst = max(worst, angle_gap(x, y))
    ok = worst < 1e-12
    _criterion(
        "criterion-03 spherical->cartesian->spherical roundtrip (1e4 cases)", ok,
        f"max argument-wise error {worst:.2e}",
    )


def test_criterion_04_non_distributivity():
    witness = distributivity_residual(
        CartesianVec((1.0, 1.0, 1.0)),
        CartesianVec((1.0, 0.0, 1.0)),
        CartesianVec((0.0, 1.0, 1.0)),
    )
    wnorm = witness.norm()
    pinned = 2.0 * math.sqrt(2) - 2.0  # brute-force value of the witness norm
    rng = random.Random(104)
    worst = 0.0
    for _ in range(1_000):
        a = to_cartesian(random_form(rng, 3))
        lon, lat = rng.uniform(0, TAU), rng.uniform(-1.2, 1.2)
        b = to_cartesian(SphericalForm(rng.uniform(0.2, 3.0), (lon, lat)))
        c = to_cartesian(SphericalForm(rng.uniform(0.2, 3.0), (lon, lat)))
        worst = max(worst, distributivity_residual(a, b, c).norm())
    ok = wnorm > 0.1 and abs(wnorm - pinned) < 1e-9 and worst < 1e-9
    _criterion(
        "criterion-04 non-distributivity witness + collinear null cases", ok,
        f"witness {wnorm:.9f} (pinned {pinned:.9f}), collinear max {worst:.2e}",
    )


def test_criterion_05_roots():
    rng = random.Random(105)
    worst = 0.0
    cases = 0
    counts_ok = True
    for m in (2, 3, 4):
        for dim in (3, 4):
            for _ in range(167):
                cases += 1
                h = canonicalize(random_form(rng, dim))
                rs = nth_roots(h, m)
                if dim == 3 and not (m <= len(rs.roots) <= 2 * m * m):
                    counts_ok = False
                target = to_cartesian(h).components
                for root in rs.roots:
                    back = to_cartesian(pow_int(root, m)).components
                    worst = max(worst, max_gap(back, target))
    # the square-root table of a pure complex value, reproduced exactly
    rs = nth_roots(SphericalForm(4.0, (PI / 2, 0.0)), 2)
    carts = sorted(tuple(round(v, 6) for v in to_cartesian(r).components) for r in rs.roots)
    s = math.sqrt(2)
    want = sorted(
        tuple(round(v, 6) for v in w)
        for w in ((s, s, 0.0), (-s, -s, 0.0), (0.0, 0.0, 2.0), (0.0, 0.0, -2.0))
    )
    table_ok = len(carts) == 4 and all(max_gap(g, w) < 1e-9 for g, w in zip(carts, want))
    ok = worst <= 1e-8 and counts_ok and table_ok
    _criterion(
        "criterion-05 roots: power-back 1e-8, 3D counts in [m, 2m^2], sqrt table", ok,
        f"{cases} inputs, max power-back gap {worst:.2e}",
    )


def test_criterion_06_first_approach_complex_slice():
    start = time.monotonic()
    cfg = FractalConfig(
        approach="first",
        n_max=100,
        region=((-2.0, 2.0), (-2.0, 2.0), (0.0, 0.0)),
        resolution=(256, 256, 1),
    )
    grid = render_grid(cfg)
    xs = axis_centers(-2.0, 2.0, 256)
    ys = axis_centers(-2.0, 2.0, 256)
    oracle = np.empty((256, 256), dtype=np.int32)
    for ix in range(256):
        cx = xs[ix]
        for iy in range(256):
            oracle[ix, iy] = classical_escape(cx, ys[iy], 100)
    equal = bool(np.array_equal(grid.counts[:, :, 0], oracle))
    elapsed = time.monotonic() - start
    ok = equal and elapsed < 30.0
    _criterion(
        "criterion-06 first-approach z=0 slice == classical map (256^2, exact)", ok,
        f"equal={equal}, {elapsed:.1f}s",
    )


def test_criterion_07_second_approach_complex_slice():
    start = time.monotonic()
    cfg = FractalConfig(
        approach="second",
        n_max=100,
        region=((-2.0, 2.0), (0.0, 0.0), (-2.0, 2.0)),
        resolution=(256, 1, 256),
    )
    grid = render_grid(cfg)
    xs = axis_centers(-2.0, 2.0, 256)
    zs = axis_centers(-2.0, 2.0, 256)
    oracle = np.empty((256, 256), dtype=np.int32)
    for ix in range(256):
        cx = xs[ix]
        for iz in range(256):
            oracle[ix, iz] = classical_escape(cx, zs[iz], 100)
    equal = bool(np.array_equal(grid.counts[:, 0, :], oracle))
    elapsed = time.monotonic() - start
    ok = equal and elapsed < 30.0
    _criterion(
        "criterion-07 second-approach y=0 slice == classical map under y->z (exact)", ok,
        f"equal={equal}, {elapsed:.1f}s",
    )


def test_criterion_08_membership_containment():
    worst = 0.0
    half_diag = 0.5 * math.sqrt(3.0) * (5.0 / 64)
    for approach in ("first", "second"):
        cfg = FractalConfig(
            approach=approach, n_max=100, region=((-2.5, 2.5),) * 3, resolution=(64, 64, 64)
        )
        grid = render_grid(cfg, workers=4)
        centers = axis_centers(-2.5, 2.5, 64)
        cx, cy, cz = np.meshgrid(centers, centers, centers, indexing="ij")
        radius = np.sqrt(cx * cx + cy * cy + cz * cz)
        members = grid.counts == cfg.n_max
        if members.any():
            worst = max(worst, float(radius[members].max()))
    ok = worst <= 2.0 + half_diag
    _criterion(
        "criterion-08 member cells within radius 2 (+half cell diagonal), 64^3", ok,
        f"max member radius {worst:.6f} vs bound {2.0 + half_diag:.6f}",
    )


def test_criterion_09_deterministic_slab_render(tmp_path):
    cfg = FractalConfig(n_max=60, region=((-2.0, 2.0),) * 3, resolution=(48, 48, 48))
    out_a, out_b = tmp_path / "a.raw", tmp_path / "b.raw"
    export_grid(render_grid(cfg, workers=1), "voxel_raw", out_a)
    export_grid(render_grid(cfg, workers=5), "voxel_raw", out_b)
    ok = out_a.read_bytes() == out_b.read_bytes()
    _criterion("criterion-09 voxel output bitwise identical across worker counts", ok)


def test_criterion_10_relativity_invariance():
    rng = random.Random(110)
    worst_spatial = worst_time = 0.0
    for _ in range(1_000):
        while True:
            d = EventDelta(*(rng.uniform(-3, 3) for _ in range(4)))
            r2 = d.dx ** 2 + d.dy ** 2 + d.dz ** 2 + d.cdt ** 2
            if abs(interval_sq(d)) > 1e-3 * r2 > 0.0:
                break
        beta = rng.uniform(-0.99, 0.99)
        target = abs(interval_sq(d))
        for delta in (d, lorentz_boost(d, beta)):
            spatial, _ = square_and_project(delta)
            worst_spatial = max(worst_spatial, abs(spatial - target) / target)
        _, time_comp = square_and_project(d)
        r3 = math.sqrt(d.dx ** 2 + d.dy ** 2 + d.dz ** 2)
        worst_time = max(
            worst_time, abs(time_comp - 2.0 * d.cdt * r3) / max(1.0, r2)
        )
    ok = worst_spatial <= 1e-9 and worst_time <= 1e-9
    _criterion(
        "criterion-10 |ds^2| invariance through squared 4D values (1e3 boosts)", ok,
        f"spatial rel {worst_spatial:.2e}, time component rel {worst_time:.2e}",
    )


def test_criterion_11_conjugate_products():
    rng = random.Random(111)
    worst = 0.0
    for _ in range(1_000):
        h = random_form(rng, 3)
        r2 = h.modulus * h.modulus
        theta, phi = h.args
        full = to_cartesian(mul_geometric(h, conjugate(h, "full"))).components
        worst = max(worst, abs(full[0] - r2) / r2, abs(full[1]) / r2, abs(full[2]) / r2)
        second = to_cartesian(mul_geometric(h, conjugate(h, "second"))).components
        want = (r2 * math.cos(2 * phi), 0.0, r2 * math.sin(2 * phi))
        worst = max(worst, max_gap(second, want) / r2)
        third = to_cartesian(mul_geometric(h, conjugate(h, "third"))).components
        want = (r2 * math.cos(2 * theta), r2 * math.sin(2 * theta), 0.0)
        worst = max(worst, max_gap(third, want) / r2)
    ok = worst <= 1e-9
    _criterion(
        "criterion-11 conjugate product laws (1e3 values)", ok,
        f"max relative gap {worst:.2e}",
    )


def test_criterion_12_imaginary_unit_squares():
    j_ok = (
        max_gap(j_squared(0.0), (-1.0, 0.0)) < 1e-12
        and max_gap(j_squared(PI / 2), (1.0, 0.0)) < 1e-12
    )
    k2 = to_cartesian(pow_int(SphericalForm(1.0, (0.0, 0.0, PI / 2)), 2))
    k_ok = max_gap(k2.components, (-1.0, 0.0, 0.0, 0.0)) < 1e-12
    rng = random.Random(112)
    worst = 0.0
    for _ in range(1_000):
        dim = rng.choice((4, 5, 7))
        m = rng.randrange(3, dim + 1)
        args = [rng.uniform(0, TAU)] + [
            rng.uniform(-1.2, 1.2) if k < m else 0.0 for k in range(3, dim + 1)
        ]
        a = SphericalForm(1.0, tuple(args))
        b_args = [0.0] * (dim - 1)
        b_args[m - 2] = rng.choice((-1.0, 1.0)) * PI / 2
        b = SphericalForm(1.0, tuple(b_args))
        got = to_cartesian(mul_geometric(a, b)).components
        worst = max(worst, max_gap(got, to_cartesian(b).components))
    ok = j_ok and k_ok and worst <= 1e-12
    _criterion(
        "criterion-12 j^2 / k^2 values and unit-imaginary invariance (1e3 cases)", ok,
        f"invariance max gap {worst:.2e}",
    )
