import functools
import itertools
import math
import os
import pickle
import random
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import (
    assert_value_contract,
    classical_escape,
    escape_byte,
    kernel_step,
    lockstep_counts,
    max_gap,
)
from hypercomplex import (
    CartesianVec,
    FractalConfig,
    MembershipGrid,
    escape_time,
    export_grid,
    render_grid,
)
from hypercomplex import fractal
from hypercomplex.fractal import _byte_array, _slice_config, _slice_index, axis_centers

ORIGIN = CartesianVec((0.0, 0.0, 0.0))


# -- single steps of the array kernels -------------------------------------------

def test_step_first_from_origin_returns_c():
    rng = random.Random(3)
    cs = [(0.3, -0.2, 0.9)] + [
        (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(100)
    ]
    assert kernel_step("first", [ORIGIN.components] * len(cs), cs) == cs


def test_step_first_axis_state_uses_zero_longitude():
    # a pure z-axis state squares with longitude 0: (0, 0, z)^2 = (-z^2, 0, 0)
    zs = [1.0, -1.0, 0.5, -1.75, 3.0]
    got = kernel_step("first", [(0.0, 0.0, z) for z in zs], ORIGIN.components)
    assert got[0] == (-1.0, 0.0, 0.0)
    assert got == [(-z * z, 0.0, 0.0) for z in zs]


@pytest.mark.parametrize("approach", ["first", "second"])
def test_z_axis_square_keeps_the_signed_zeros_of_c(approach):
    # (0, 0, 1/2)^2 + c = (-1/4 + c_x, c_y, c_z) with every sign bit of c
    for c in itertools.product((0.0, -0.0), repeat=3):
        [got] = kernel_step(approach, [(0.0, 0.0, 0.5)], c)
        want = (-0.25 + c[0], c[1], c[2])
        assert [v.hex() for v in got] == [v.hex() for v in want], c


def test_step_first_matches_cartesian_self_product():
    from hypercomplex import mul_cartesian

    rng = random.Random(4)
    states, cs = [], []
    for _ in range(1000):
        states.append((rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2)))
        cs.append((rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2)))
    for s, c, got in zip(states, cs, kernel_step("first", states, cs)):
        want = mul_cartesian(CartesianVec(s), CartesianVec(s)) + CartesianVec(c)
        assert max_gap(got, want.components) < 1e-12


@pytest.mark.parametrize("approach", ["first", "second"])
@pytest.mark.parametrize("c", [(1e-158, 2e-159, 0.1), (1e-158, 5e-159, -0.1)])
def test_subnormal_rho2_cell_is_a_member(approach, c):
    # rho^2 of c is about 1e-316: z^2/rho^2 overflows, but |c| is about 0.1
    assert escape_time(CartesianVec(c), FractalConfig(approach=approach)) == 100


def _first_step_bits(x, y, z, c, rho2_form):
    """One ``first`` step in Python floats, in the kernel's order of
    operations: the F = 1 - z^2/rho^2 form or the quotient form."""
    d, rho2, zz = x * x - y * y, x * x + y * y, z * z
    xy2 = 2.0 * x * y
    if rho2_form == "F":
        f = 1.0 - zz / rho2
        xn, yn = d * f + c[0], xy2 * f + c[1]
    else:
        xn, yn = (d - d / rho2 * zz) + c[0], (xy2 - xy2 / rho2 * zz) + c[1]
    return xn, yn, 2.0 * z * math.sqrt(rho2) + c[2]


_TINY = np.finfo(float).tiny


@pytest.mark.parametrize("x, y, rho2, rho2_form", [
    # the smallest normal, y^2 underflowing to 0: the forms round alike here
    (2.0 ** -511, 2.0 ** -540, _TINY, "Q"),
    # one ulp above it, and the largest subnormal: there the two forms round
    # apart at z = -0.7 or 1.5
    (4.467474863360443e-155, 1.423197295514444e-154, math.nextafter(_TINY, 1.0), "F"),
    (1.3090619532675985e-154, 7.151438044298648e-155, math.nextafter(_TINY, 0.0), "Q"),
    (math.nextafter(2.0 ** -511, 0.0), 2.0 ** -540, math.nextafter(_TINY, 0.0), "Q"),
], ids=["smallest-normal", "above-smallest-normal", "largest-subnormal", "largest-subnormal-y0"])
def test_step_first_takes_the_quotient_form_below_the_smallest_normal(x, y, rho2, rho2_form):
    assert x * x + y * y == rho2
    c = (0.3, -0.2, 0.1)
    forms = set()
    for z in (0.1, -0.7, 1.5):
        [got] = kernel_step("first", [(x, y, z)], c)
        assert got == _first_step_bits(x, y, z, c, rho2_form)
        forms.add(_first_step_bits(x, y, z, c, "F") == _first_step_bits(x, y, z, c, "Q"))
    # the middle two states tell the forms apart
    assert (False in forms) == (y > 2.0 ** -540)


def test_step_first_at_the_smallest_normal_rho2_and_z2_of_4_matches_second():
    # 4 / 2**-1022 overflows, so the F form would give (-inf, nan, ...)
    state, c = (2.0 ** -511, 0.0, 2.0), (2.0, 0.0, 0.0)
    assert kernel_step("first", [state], c) == kernel_step("second", [state], c)
    assert kernel_step("first", [state], c)[0][:2] == (-2.0, 0.0)


@pytest.mark.parametrize("state", [(1e-158, 2e-159, 0.1), (-3e-160, 1e-158, -1.2)])
def test_step_first_on_a_subnormal_rho2_is_the_self_product(state):
    from hypercomplex import mul_cartesian

    x, y, z = state
    [got] = kernel_step("first", [state], (0.0, 0.0, 0.0))
    assert got == _first_step_bits(x, y, z, (0.0, 0.0, 0.0), "Q")
    # a subnormal square is off by up to half of 2**-1074, which the
    # quotients scale by z^2/rho^2
    h = CartesianVec(state)
    tol = z * z * 2.0 ** -1073 / (x * x + y * y) + 1e-15
    assert max_gap(got, mul_cartesian(h, h).components) < tol


@pytest.mark.parametrize("cy", [1e-155, -3e-156])
def test_z0_orbit_through_a_subnormal_rho2_is_classical(cy):
    # h_2 = (0, -cy, 0): rho^2 = cy^2 is subnormal, then the orbit cycles
    c = (-1.0, cy, 0.0)
    [h2] = kernel_step("first", [c], c)
    assert 0.0 < h2[0] ** 2 + h2[1] ** 2 < np.finfo(float).tiny
    for n_max in (3, 100):
        cfg = FractalConfig(n_max=n_max)
        assert escape_time(CartesianVec(c), cfg) == classical_escape(c[0], c[1], n_max)


def test_step_second_examples():
    c = (0.4, 0.1, -0.7)
    assert kernel_step("second", [ORIGIN.components], c) == [c]
    assert kernel_step("second", [(1.0, 0.0, 0.0)], ORIGIN.components) == [(1.0, 0.0, 0.0)]
    [got] = kernel_step("second", [(0.0, 1.0, 0.0)], ORIGIN.components)
    assert max_gap(got, (-1.0, 0.0, 0.0)) < 1e-12


def _trig_second_step(x, y, z, cx, cy, cz):
    """Literal angle-resolution reference: arctan case table, doubled angles;
    pure z-axis states take the plane rule theta = 0."""
    if x == 0.0 and y == 0.0 and z == 0.0:
        return cx, cy, cz
    theta = (0.0 if y == 0.0 else math.pi / 2) if x == 0.0 else math.atan(y / x)
    rho = math.hypot(x, y)
    if x > 0.0:
        phi = math.atan(z / rho)
    elif x < 0.0:
        phi = (math.pi if z >= 0.0 else -math.pi) - math.atan(z / rho)
    elif y > 0.0:
        phi = math.atan(z / y)
    elif y < 0.0:
        phi = (math.pi if z >= 0.0 else -math.pi) - math.atan(z / abs(y))
    else:
        phi = math.pi / 2 if z > 0.0 else -math.pi / 2
    r2 = x * x + y * y + z * z
    return (
        r2 * math.cos(2 * theta) * math.cos(2 * phi) + cx,
        r2 * math.sin(2 * theta) * math.cos(2 * phi) + cy,
        r2 * math.sin(2 * phi) + cz,
    )


def test_step_second_agrees_with_trig_reference():
    rng = random.Random(8)
    states = [
        (0.0, 0.0, 1.3), (0.0, -1.1, 0.4), (0.0, 0.7, -0.2), (-0.5, 0.0, 0.8),
        (-0.5, 0.0, -0.8), (1.2, 0.0, 0.0), (0.0, 0.0, -2.0),
    ]
    states += [
        (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(1000)
    ]
    for s, got in zip(states, kernel_step("second", states, ORIGIN.components)):
        want = _trig_second_step(*s, 0.0, 0.0, 0.0)
        scale = 1.0 + sum(v * v for v in s)
        assert max_gap(got, want) <= 1e-12 * scale


# -- escape times ---------------------------------------------------------------

def test_escape_time_reference_points():
    cfg = FractalConfig()
    assert escape_time(ORIGIN, cfg) == cfg.n_max
    assert escape_time(CartesianVec((3.0, 0.0, 0.0)), cfg) == 1
    assert escape_time(CartesianVec((-1.0, 0.0, 0.0)), cfg) == cfg.n_max
    assert classical_escape(-1.0, 0.0, cfg.n_max) == cfg.n_max


@pytest.mark.parametrize("components", [(0.0, 0.0), (0.0, 0.0, 0.0, 0.0)])
def test_escape_time_rejects_points_outside_3d(components):
    with pytest.raises(ValueError, match="expected dimension 3"):
        escape_time(CartesianVec(components), FractalConfig())


def test_escape_time_matches_grid_cells():
    for approach in ("first", "second"):
        cfg = FractalConfig(approach=approach, n_max=40, resolution=(8, 8, 8))
        grid = render_grid(cfg)
        xs = axis_centers(*cfg.region[0], 8)
        ys = axis_centers(*cfg.region[1], 8)
        zs = axis_centers(*cfg.region[2], 8)
        for ix in range(8):
            for iy in range(8):
                for iz in range(8):
                    c = CartesianVec((xs[ix], ys[iy], zs[iz]))
                    assert grid.counts[ix, iy, iz] == escape_time(c, cfg)


def test_first_approach_plane_slice_equals_classical_map():
    cfg = FractalConfig(
        approach="first",
        region=((-2.0, 2.0), (-2.0, 2.0), (0.0, 0.0)),
        resolution=(64, 64, 1),
    )
    grid = render_grid(cfg)
    xs = axis_centers(-2.0, 2.0, 64)
    ys = axis_centers(-2.0, 2.0, 64)
    for ix in range(64):
        for iy in range(64):
            assert grid.counts[ix, iy, 0] == classical_escape(xs[ix], ys[iy], cfg.n_max)


def test_second_approach_plane_slice_equals_classical_map_under_y_to_z():
    cfg = FractalConfig(
        approach="second",
        region=((-2.0, 2.0), (0.0, 0.0), (-2.0, 2.0)),
        resolution=(64, 1, 64),
    )
    grid = render_grid(cfg)
    xs = axis_centers(-2.0, 2.0, 64)
    zs = axis_centers(-2.0, 2.0, 64)
    for ix in range(64):
        for iz in range(64):
            assert grid.counts[ix, 0, iz] == classical_escape(xs[ix], zs[iz], cfg.n_max)


def test_second_approach_slice_survives_exact_axis_hit():
    # x2 = cx^2 - cz^2 + cx cancels to exactly 0 for this 192-lattice cell
    # (cx = 25/96, cz = 55/96: 25*121 = 55^2), parking the orbit on the
    # z-axis; the plane rule must keep the slice classical even there
    cx = -2.0 + 4.0 * (108 + 0.5) / 192
    cz = -2.0 + 4.0 * (123 + 0.5) / 192
    c = (cx, 0.0, cz)
    [state] = kernel_step("second", [ORIGIN.components], c)
    [state] = kernel_step("second", [state], c)
    assert state[0] == 0.0 and state[1] == 0.0
    cfg = FractalConfig(approach="second", region=((cx, cx), (0.0, 0.0), (cz, cz)),
                        resolution=(1, 1, 1))
    assert render_grid(cfg).counts[0, 0, 0] == classical_escape(cx, cz, cfg.n_max)


def _assert_plane_is_classical(approach, lo, hi, res, n_max=100):
    """Render the plane an approach keeps exactly complex -- c_z = 0 for
    ``first``, c_y = 0 (with y -> z) for ``second`` -- over [lo, hi]^2 and
    compare every cell with the classical map.  Returns the plane's counts."""
    flat = (0.0, 0.0)
    if approach == "first":
        region, resolution = ((lo, hi), (lo, hi), flat), (res, res, 1)
    else:
        region, resolution = ((lo, hi), flat, (lo, hi)), (res, 1, res)
    cfg = FractalConfig(approach=approach, n_max=n_max, region=region,
                        resolution=resolution)
    counts = render_grid(cfg).counts.reshape(res, res)
    cs = axis_centers(lo, hi, res).tolist()  # Python floats for the oracle
    assert counts.tolist() == [[classical_escape(a, b, n_max) for b in cs] for a in cs]
    return counts


# plane (lo, hi, res) and how many of its cells escape.  On the second plane
# 7 of 441 cells escape, too few dead lanes for a compaction, so they are
# stepped on to inf and NaN beside the members: no count may be rewritten,
# and no RuntimeWarning may leak (pyproject.toml makes one fail the test).
_CLASSICAL_PLANES = {"": (-0.5, 0.5, 41, 236), "-few-escapers": (-0.6, 0.3, 21, 7)}


@pytest.mark.parametrize("approach, plane", [
    pytest.param(approach, plane, id=approach + tag)
    for tag, plane in _CLASSICAL_PLANES.items() for approach in ("first", "second")
])
def test_member_heavy_zoom_plane_equals_classical_map(approach, plane):
    lo, hi, res, escapers = plane
    counts = _assert_plane_is_classical(approach, lo, hi, res)
    assert np.count_nonzero(counts < 100) == escapers


@pytest.mark.parametrize("approach", ["first", "second"])
def test_box_outside_radius_two_escapes_on_first_step(approach):
    # h_1 = c already lies outside the disk: the active set empties at n = 1
    cfg = FractalConfig(approach=approach, region=((2.5, 6.0), (-3.0, 3.0), (-3.0, 3.0)),
                        resolution=(7, 5, 3))
    assert (render_grid(cfg).counts == 1).all()
    _assert_plane_is_classical(approach, 2.5, 6.0, 9)


@pytest.mark.parametrize("approach", ["first", "second"])
def test_escape_test_is_strict_on_the_radius(approach):
    # |h| = 2 exactly is not an escape: c = 2 leaves at n = 2, c = -2 never
    for cx in (2.0, -2.0):
        cfg = FractalConfig(approach=approach, region=((cx, cx), (0.0, 0.0), (0.0, 0.0)),
                            resolution=(1, 1, 1))
        assert render_grid(cfg).counts[0, 0, 0] == classical_escape(cx, 0.0, cfg.n_max)


@pytest.mark.parametrize("n_max", [1, 2, 3])
@pytest.mark.parametrize("lo, hi", [
    pytest.param(-2.5, 2.5, id="centres-on-radius-two"),  # centres -2, -1, 0, 1, 2
    pytest.param(-3e200, 3e200, id="overflowing-squares"),
])
@pytest.mark.parametrize("approach", ["first", "second"])
def test_first_escape_test_matches_classical_map_at_the_edges(approach, lo, hi, n_max):
    # cells exactly on |c| = 2 stay for n = 2 (the test is strict), cells
    # whose squares overflow leave at n = 1, and n_max = 1 stops there
    _assert_plane_is_classical(approach, lo, hi, 5, n_max=n_max)


@pytest.mark.parametrize("approach", ["first", "second"])
def test_overflowing_squares_escape_without_warnings(approach):
    # squares past the float range are inf, which escapes at n = 1; numpy's
    # overflow warning must not leak out of the render loop
    far = (1e160, 2e160)
    cfg = FractalConfig(approach=approach, region=(far, far, far), resolution=(3, 2, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert escape_time(CartesianVec((1e200, 0.0, 0.0)),
                           FractalConfig(approach=approach)) == 1
        assert (render_grid(cfg).counts == 1).all()
        assert (render_grid(cfg, workers=2).counts == 1).all()


@pytest.mark.parametrize("approach", ["first", "second"])
def test_n_max_one(approach):
    cfg = FractalConfig(approach=approach, n_max=1, resolution=(7, 5, 3))
    assert (render_grid(cfg).counts == 1).all()
    _assert_plane_is_classical(approach, -2.0, 2.0, 9, n_max=1)


def test_members_stay_inside_radius_two():
    for approach in ("first", "second"):
        cfg = FractalConfig(
            approach=approach,
            n_max=60,
            region=((-2.5, 2.5),) * 3,
            resolution=(16, 16, 16),
        )
        grid = render_grid(cfg)
        xs = axis_centers(-2.5, 2.5, 16)
        half_diag = 0.5 * math.sqrt(3) * (5.0 / 16)
        members = np.argwhere(grid.counts == cfg.n_max)
        for ix, iy, iz in members:
            assert math.sqrt(xs[ix] ** 2 + xs[iy] ** 2 + xs[iz] ** 2) <= 2.0 + half_diag


def test_raising_n_max_preserves_escape_times():
    lo = FractalConfig(n_max=30, region=((-2.0, 2.0), (-2.0, 2.0), (0.25, 0.25)),
                       resolution=(24, 24, 1))
    hi = FractalConfig(n_max=60, region=lo.region, resolution=lo.resolution)
    a, b = render_grid(lo).counts, render_grid(hi).counts
    escaped = a < 30
    assert np.array_equal(a[escaped], b[escaped])
    assert (b[~escaped] >= 30).all()


def test_render_is_deterministic_across_worker_counts():
    for resolution, workers in (
        ((33, 17, 29), 4),
        ((33, 17, 29), 0),
        ((5, 4, 3), 8),  # more workers than x-planes: one slab per x-plane
    ):
        cfg = FractalConfig(n_max=50, resolution=resolution)
        a = render_grid(cfg, workers=1)
        b = render_grid(cfg, workers=workers)
        assert np.array_equal(a.counts, b.counts)


def _negated_pairs(c: np.ndarray) -> np.ndarray:
    """Indices i of the centres whose mirror c[n-1-i] is exactly -c[i]."""
    i = np.arange(len(c) // 2)
    return i[c[i] == -c[len(c) - 1 - i]]


@pytest.mark.parametrize("lo, hi, n", [
    (-2.0, 2.0, 32), (-2.0, 2.0, 48), (-1.5, 1.5, 40), (-2.0, 2.0, 49), (-0.5, 0.5, 41),
])
@pytest.mark.parametrize("approach", ["first", "second"])
def test_exact_mirror_symmetries(approach, lo, hi, n):
    # every kernel operation commutes with negation under round-to-nearest,
    # so a cell and its exactly negated mirror have the same count.  second
    # reads y where an orbit meets x = +-0, so its y-mirror holds only on
    # even resolutions, which have no x = 0 column.  The counts come from
    # the lockstep oracle: render_grid copies these planes.
    cfg = FractalConfig(approach=approach, region=((lo, hi),) * 3, resolution=(n, n, n))
    counts = lockstep_counts(cfg)
    c = axis_centers(lo, hi, n)
    i = _negated_pairs(c)
    assert len(i) >= n // 4
    assert (c[i] == -c[n - 1 - i]).all()
    assert np.array_equal(counts[:, :, i], counts[:, :, n - 1 - i])
    if approach == "first" or n % 2 == 0:
        assert np.array_equal(counts[:, i, :], counts[:, n - 1 - i, :])


# -- lane pool ---------------------------------------------------------------------

_SMALL_POOL = 64
# every cell of the mixed box lies inside radius 2, so each is a lane after
# iteration 1; its orbits escape early, late or never.  No pair of its
# centres negates, so no plane is mirrored and every cell is swept
_MIXED = ((-1.9, 0.4), (-0.3, 0.25), (-0.2, 0.15))
# along z, about 20 of every 100 cells lie inside radius 2: the swept cells
# come in runs more than one pool apart in lattice order
_SPARSE = ((-1.0, 1.0), (0.0, 0.0), (-9.0, 10.0))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n_max", [1, 2, 7, 100])
@pytest.mark.parametrize("approach", ["first", "second"])
@pytest.mark.parametrize("region, resolution, pool, kind", [
    pytest.param(_MIXED, (7, 3, 3), _SMALL_POOL, None, id="P-1-lanes"),
    pytest.param(_MIXED, (4, 4, 4), _SMALL_POOL, None, id="P-lanes"),
    pytest.param(_MIXED, (1, 1, 65), _SMALL_POOL, None, id="P+1-lanes-one-column"),
    pytest.param(_MIXED, (8, 4, 4), _SMALL_POOL, None, id="2P-lanes"),
    pytest.param(_MIXED, (43, 3, 1), _SMALL_POOL, None, id="2P+1-lanes"),
    pytest.param(_MIXED, (7, 3, 3), 1, None, id="1-lane-pool"),
    pytest.param(_SPARSE, (5, 1, 100), 16, None, id="runs-pools-apart"),
    pytest.param(((0.5, 1.5), (-0.5, 0.5), (-0.5, 0.5)), (5, 5, 5), _SMALL_POOL, "escape",
                 id="all-escape"),
    pytest.param(((-0.2, 0.1),) * 3, (5, 5, 5), _SMALL_POOL, "member", id="all-member"),
])
def test_render_matches_lockstep_across_pool_boundaries(monkeypatch, region, resolution, pool,
                                                        kind, approach, n_max, workers):
    monkeypatch.setattr(fractal, "_POOL_LANES", pool)
    cfg = FractalConfig(approach=approach, n_max=n_max, region=region, resolution=resolution)
    counts = render_grid(cfg, workers=workers).counts
    assert np.array_equal(counts, lockstep_counts(cfg))
    if n_max == 100 and kind is not None:
        assert ((counts < n_max) if kind == "escape" else (counts == n_max)).all()


_lockstep = functools.lru_cache(maxsize=None)(lockstep_counts)


def _spy_on_step(monkeypatch, approach):
    """Swap spies in for ``_sweep`` and the approach's step kernel; they
    collect the c_y and the c_z of every cell a sweep is handed, and how many
    lanes each step call steps, and check that every lane buffer a step is
    handed starts on a 64-byte cache line."""
    real_sweep, real_step = fractal._sweep, fractal._STEPS[approach]
    seen_y, seen_z, lanes = set(), set(), []

    def sweep(cfg, todo, counts, CX1, CY1, zs):
        cells = todo.nonzero()[0]
        seen_y.update(CY1[cells // zs.size].tolist())
        seen_z.update(zs[cells % zs.size].tolist())
        return real_sweep(cfg, todo, counts, CX1, CY1, zs)

    def step(X, *rest):
        assert all(a.ctypes.data % 64 == 0 for a in (X, *rest))
        lanes.append(X.size)
        return real_step(X, *rest)

    monkeypatch.setattr(fractal, "_sweep", sweep)
    monkeypatch.setitem(fractal._STEPS, approach, step)
    return seen_y, seen_z, lanes


@pytest.mark.parametrize("pool", [_SMALL_POOL, None])
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("approach", ["first", "second"])
@pytest.mark.parametrize("lo, hi, n, exact", [
    (-2.0, 2.0, 49, 16), (-0.5, 0.5, 41, 12), (-2.0, 2.0, 32, 16),
])
def test_mirrored_render_matches_lockstep(monkeypatch, lo, hi, n, exact, approach, workers,
                                          pool):
    # y and z are the mirrored axes; x has 4 cells, so no cell meets x = 0
    # and second keeps its y-mirror.  Of the n // 2 centre pairs, `exact`
    # negate exactly; at 32 cells all do, so first renders a quarter.  Two
    # and three x-slabs each hold whole y and z pairs and mirror their own.
    cfg = FractalConfig(approach=approach, region=((lo, hi),) * 3, resolution=(4, n, n))
    want = _lockstep(cfg)
    c = axis_centers(lo, hi, n)
    i = _negated_pairs(c)
    assert len(i) == exact
    skipped = set(c[n - 1 - i].tolist())
    if pool:
        monkeypatch.setattr(fractal, "_POOL_LANES", pool)
    seen_y, seen_z, _ = _spy_on_step(monkeypatch, approach)
    assert np.array_equal(render_grid(cfg, workers=workers).counts, want)
    # no sweep is ever handed a cell on a skipped plane
    assert seen_z and not seen_z & skipped
    assert seen_y and not seen_y & skipped


@pytest.mark.parametrize("pool", [_SMALL_POOL, None])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_second_renders_its_y_mirror_once_an_orbit_meets_x_zero(monkeypatch, workers, pool):
    # 9 cells over a symmetric x range put a column on x = 0, where second's
    # sign rule reads y: copying its y-planes would get cells of this box
    # wrong, so the skipped ones are rendered after all.  The z-mirror holds.
    cfg = FractalConfig(approach="second", region=((-2.0, 2.0),) * 3, resolution=(9, 8, 8))
    want = lockstep_counts(cfg)
    upper = set(axis_centers(-2.0, 2.0, 8)[4:].tolist())
    if pool:
        monkeypatch.setattr(fractal, "_POOL_LANES", pool)
    seen_y, seen_z, _ = _spy_on_step(monkeypatch, "second")
    assert np.array_equal(render_grid(cfg, workers=workers).counts, want)
    assert upper <= seen_y
    assert seen_z and not seen_z & upper


def test_render_memory_is_the_counts_plus_one_pool():
    # A 64^3 member-heavy render keeps 262144 lanes alive at n = 1.  What
    # grows with the lattice is the counts (4 B a cell), the inside mask
    # (1 B a cell) and the list of iterated cells (8 B each): a quarter of
    # the -0.5:0.5 box, whose y and z pairs all negate, and every cell of
    # the shifted -0.5:0.49 box, which has no exact pair.  The radius-2
    # test's sums (8 B a cell) are freed before that list is made.  The
    # pool's 16 lane buffers take at most 8 B a lane each.
    cells = 64 ** 3
    for hi, swept in ((0.5, cells // 4), (0.49, cells)):
        cfg = FractalConfig(approach="second", region=((-0.5, hi),) * 3, resolution=(64, 64, 64))
        bound = (4 + 1) * cells + 8 * swept + 16 * 8 * fractal._POOL_LANES + (1 << 20)
        tracemalloc.start()
        try:
            grid = render_grid(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.counts.nbytes == 4 * cells
        assert peak <= bound <= 8 << 20, (hi, peak / 2 ** 20, bound / 2 ** 20)


# -- contraction certificate -------------------------------------------------------

def _trap(approach, b, a, alive=True):
    """Whether ``_trapped`` retires one lane at state b, stepped from a."""
    X, Y, Z = (np.array([v], dtype=float) for v in b)
    XN, YN, ZN = (np.array([v], dtype=float) for v in a)
    D, RHO2, ZZ = np.empty((3, 1))
    fractal._squares(X, Y, Z, D, RHO2, ZZ)
    out = fractal._trapped(approach == "second", X, Y, Z, RHO2, ZZ, XN, YN, ZN,
                           np.full(1, alive), np.empty(1, dtype=bool))
    return bool(out[0])


@pytest.mark.parametrize("approach", ["first", "second"])
def test_trapped_takes_a_still_state_inside_the_cone_and_only_live_lanes(approach):
    still = (0.2, 0.1, -0.1)
    assert _trap(approach, still, still)
    assert not _trap(approach, still, still, alive=False)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("approach", ["first", "second"])
def test_trapped_refuses_balls_that_reach_the_cone(approach, sign):
    # still states with rho = 0.2, so s = 2^-30 and the ball must keep
    # sqrt(3) rho - |z| >= 2(s + eps) from the cone |phi| = pi/3
    rho = 0.2
    edge = math.sqrt(3.0) * rho
    for z in (edge, math.nextafter(edge, 1.0), edge - 2.0 ** -30, edge - 2.0 ** -29, 0.5):
        b = (rho, 0.0, sign * z)
        assert not _trap(approach, b, b), z
    b = (rho, 0.0, sign * (edge - 2.0 ** -28))
    assert _trap(approach, b, b)


@pytest.mark.parametrize("approach", ["first", "second"])
def test_trapped_refuses_states_near_radius_one_half(approach):
    # a still state is taken while 2(R + s) s + 2 eps <= s, so up to about
    # R = 1/2 - 2^-10; a slow drift near |h| = 1/2 is the parabolic point
    assert _trap(approach, (0.49, 0.0, 0.0), (0.49, 0.0, 0.0))
    for k in range(11, 54):
        b = (0.5 - 2.0 ** -k, 0.0, 0.0)
        assert not _trap(approach, b, b), k
        assert not _trap(approach, b, (b[0] - 2.0 ** -60, 0.0, 0.0)), k
    assert not _trap(approach, (0.5, 0.0, 0.0), (0.5, 0.0, 0.0))
    # a state that moved d needs a ball of s = 16 d about it: L = 2(R + s)
    # may reach s / (s + d) = 16/17, while s = d would stop at L = 1/2
    assert _trap(approach, (0.4, 0.0, 0.0), (0.4 + 1e-6, 0.0, 0.0))
    assert not _trap(approach, (0.3, 0.0, 0.0), (0.3 + 0.02, 0.0, 0.0))


@pytest.mark.parametrize("x", [0.0, -0.0, 2.0 ** -31, -(2.0 ** -31), 2.0 ** -30])
def test_trapped_refuses_second_balls_that_cross_x_zero(x):
    # s = 2^-30 for a still state: second's ball must keep |b_x| > s, since
    # its sign rule flips z across x = 0; first has no such rule
    b = (x, 0.3, 0.1)
    assert not _trap("second", b, b)
    assert _trap("first", b, b)
    b = (math.copysign(2.0 ** -29, x), 0.3, 0.1)
    assert _trap("second", b, b)


_CERT_POOL = 16  # the certificate's gate opens at _POOL_LANES // 4 = 4 live lanes


def _certified_counts(monkeypatch, cfg):
    """Render ``cfg`` on a small pool, with a spy on the certificate; returns
    the counts and how many lanes it retired."""
    monkeypatch.setattr(fractal, "_POOL_LANES", _CERT_POOL)
    real, fired = fractal._trapped, []

    def spy(*args):
        out = real(*args)
        fired.append(np.count_nonzero(out))
        return out

    monkeypatch.setattr(fractal, "_trapped", spy)
    counts = render_grid(cfg).counts
    monkeypatch.undo()  # a second render in the test wraps the real one again
    assert np.array_equal(counts, lockstep_counts(cfg))
    return counts, sum(fired)


def _certified_plane(monkeypatch, approach, xs, ys, res, n_max):
    """The exactly complex plane of an approach over xs x ys (c_z = 0 for
    first, c_y = 0 for second), rendered by _certified_counts and compared
    with the classical map too."""
    if approach == "first":
        region, resolution = (xs, ys, (0.0, 0.0)), (*res, 1)
    else:
        region, resolution = (xs, (0.0, 0.0), ys), (res[0], 1, res[1])
    cfg = FractalConfig(approach, n_max, region, resolution)
    counts = _certified_counts(monkeypatch, cfg)[0].reshape(res)
    xc, yc = (axis_centers(*r, n).tolist() for r, n in zip((xs, ys), res))
    assert counts.tolist() == [[classical_escape(a, b, n_max) for b in yc] for a in xc]
    return counts


@pytest.mark.parametrize("approach", ["first", "second"])
def test_certificate_keeps_slow_escapes_past_the_parabolic_point(monkeypatch, approach):
    # just past c = 1/4 an orbit crawls by the fixed point 1/2 for hundreds
    # of iterations and then escapes; cells off the real axis near the cusp
    # are members and are certified
    xs, small = (0.2500001, 0.26), (-1e-3, 1e-3)
    cfg = FractalConfig(approach, 3000, (xs, small, small), (12, 4, 4))
    counts, fired = _certified_counts(monkeypatch, cfg)
    assert fired and (counts == 3000).any() and (counts < 3000).any()
    plane = _certified_plane(monkeypatch, approach, (0.2500001, 0.2502), (-1e-6, 1e-6),
                             (24, 5), 3000)
    assert plane.min() < 250 and 1500 < plane[plane < 3000].max()


@pytest.mark.parametrize("approach", ["first", "second"])
def test_certificate_keeps_the_period_two_boundary(monkeypatch, approach):
    # at c = -3/4 the fixed point -1/2 meets the period-2 cycle: orbits
    # near it converge slowly, to a state of modulus near 1/2 or to a cycle
    xs, ys = (-0.76, -0.74), (-0.02, 0.02)
    cfg = FractalConfig(approach, 2000, (xs, ys, (-1e-3, 1e-3)), (12, 4, 4))
    _certified_counts(monkeypatch, cfg)
    plane = _certified_plane(monkeypatch, approach, xs, ys, (24, 9), 2000)
    assert (plane == 2000).any()


def test_certificate_in_second_keeps_an_x_zero_column(monkeypatch):
    # 9 cells over a symmetric x range put a column on x = 0, where second
    # reads the sign of y; its y-mirror is rendered, and the certificate
    # retires members off that plane
    cfg = FractalConfig("second", 100, ((-0.5, 0.5),) * 3, (9, 8, 8))
    assert axis_centers(-0.5, 0.5, 9)[4] == 0.0
    counts, fired = _certified_counts(monkeypatch, cfg)
    assert fired and (counts[4] == 100).any()


@pytest.mark.parametrize("workers, lengths", [
    (0, [6]),
    (1, [6]),
    (3, [2, 2, 2]),
    (4, [2, 2, 1, 1]),
    (8, [1] * 6),        # more slabs than x-columns: one slab per column
    (np.int64(2), [3, 3]),
    (True, [6]),
])
def test_workers_is_an_x_slab_count(monkeypatch, workers, lengths):
    real = fractal._render_block
    slabs, blocks, threads = [], [], []

    def spy(cfg, xs, ys, zs):
        slabs.append(xs)
        threads.append(threading.get_ident())
        blocks.append(real(cfg, xs, ys, zs))
        return blocks[-1]

    monkeypatch.setattr(fractal, "_render_block", spy)
    cfg = FractalConfig(n_max=20, resolution=(6, 2, 3))
    grid = render_grid(cfg, workers=workers)
    # the slabs tile the x-axis in order and render in turn on this thread
    assert [len(s) for s in slabs] == lengths
    assert np.array_equal(np.concatenate(slabs), axis_centers(-2.0, 2.0, 6))
    assert set(threads) == {threading.get_ident()}
    assert np.array_equal(grid.counts, lockstep_counts(cfg))
    if len(blocks) == 1:
        assert grid.counts is blocks[0]  # one slab is returned without a copy


@pytest.mark.parametrize("workers", [2.7, 2.0, "3"])
def test_workers_must_be_an_integer(workers):
    # as for FractalConfig's integers: a float is not silently truncated
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        render_grid(FractalConfig(n_max=20, resolution=(6, 2, 3)), workers=workers)


@pytest.mark.parametrize("n_max", [1, 2, 3, 4, 17])
@pytest.mark.parametrize("approach", ["first", "second"])
def test_a_member_lane_is_stepped_n_max_minus_2_times(monkeypatch, approach, n_max):
    # a lane alive after iteration n_max - 1 is a member whatever h_n_max
    # is: the step to h_n_max is never taken, and at n_max <= 2 no step is
    *_, lanes = _spy_on_step(monkeypatch, approach)
    assert escape_time(CartesianVec((0.0, 0.0, 0.0)), FractalConfig(approach, n_max)) == n_max
    assert lanes == [1] * max(n_max - 2, 0)
    # a box of 125 members, none mirrored, on one pool that never compacts
    lanes.clear()
    cfg = FractalConfig(approach, n_max, ((-0.2, 0.1),) * 3, (5, 5, 5))
    assert (render_grid(cfg).counts == n_max).all()
    assert lanes == [125] * max(n_max - 2, 0)


@pytest.mark.parametrize("n_max", [1, 2])
@pytest.mark.parametrize("approach", ["first", "second"])
def test_kernels_are_never_called_at_n_max_up_to_2(monkeypatch, approach, n_max):
    cfg = FractalConfig(approach, n_max, _MIXED, (7, 3, 3))
    want = lockstep_counts(cfg)
    *_, lanes = _spy_on_step(monkeypatch, approach)
    assert np.array_equal(render_grid(cfg, workers=2).counts, want)
    assert (render_grid(FractalConfig(approach, n_max, resolution=(9, 8, 8))).counts <= 2).all()
    assert lanes == []


def test_single_cell_grid_is_member():
    cfg = FractalConfig(region=((0.0, 0.0),) * 3, resolution=(1, 1, 1))
    assert render_grid(cfg).counts[0, 0, 0] == cfg.n_max


def test_package_serves_fractal_names():
    import hypercomplex

    ns = {}
    exec("from hypercomplex import *", ns)
    for name in ("FractalConfig", "MembershipGrid", "escape_time", "export_grid",
                 "render_grid"):
        assert name in hypercomplex.__all__
        assert ns[name] is getattr(fractal, name)
    with pytest.raises(AttributeError):
        hypercomplex.no_such_name


# -- config validation -------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        FractalConfig(approach="third")
    with pytest.raises(ValueError):
        FractalConfig(n_max=0)
    with pytest.raises(TypeError):  # a float budget would never be reached
        FractalConfig(n_max=2.5)
    assert type(FractalConfig(n_max=np.int64(7)).n_max) is int
    assert list(map(type, FractalConfig(resolution=(np.int64(2), 3, 4)).resolution)) == [int] * 3
    with pytest.raises(TypeError):  # the radius is fixed at 2: no such field
        FractalConfig(escape_radius=2.5)
    with pytest.raises(ValueError):
        FractalConfig(resolution=(0, 4, 4))
    with pytest.raises(ValueError):
        FractalConfig(resolution=(3000, 3000, 3000))
    with pytest.raises(ValueError):
        FractalConfig(slice_spec=("w", 0.0))
    with pytest.raises(ValueError):
        FractalConfig(region=((1.0, -1.0), (-1.0, 1.0), (-1.0, 1.0)))


@pytest.mark.parametrize("region", [
    pytest.param(((math.nan, 1.0), (-1.0, 1.0), (-1.0, 1.0)), id="nan-bound"),
    pytest.param(((-1.0, 1.0), (-1.0, math.inf), (-1.0, 1.0)), id="inf-bound"),
    pytest.param(((-1.0, 1.0), (-1.0, 1.0), (-math.inf, math.inf)), id="infinite-box"),
    pytest.param(((-1e308, 1e308), (-1.0, 1.0), (-1.0, 1.0)), id="overflowing-span"),
])
def test_config_rejects_non_finite_regions(region):
    with pytest.raises(ValueError, match="finite"):
        FractalConfig(region=region)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_slice(value):
    with pytest.raises(ValueError, match="finite"):
        FractalConfig(slice_spec=("z", value))


@pytest.mark.parametrize("resolution", [
    pytest.param((2.5, 4, 4), id="fraction"),
    pytest.param((4, 4.0, 4), id="integral-float"),
    pytest.param((4, 4, np.float64(4.0)), id="numpy-float"),
    pytest.param(("8", 8, 8), id="string"),
])
def test_config_rejects_non_integer_resolution(resolution):
    # a resolution component is a cell count: never truncated or parsed
    with pytest.raises(TypeError):
        FractalConfig(resolution=resolution)


# -- record contracts ----------------------------------------------------------------

def test_config_is_a_value_record():
    assert_value_contract(
        FractalConfig(),
        "FractalConfig(approach='first', n_max=100, region=((-2.0, 2.0), (-2.0, 2.0), "
        "(-2.0, 2.0)), resolution=(64, 64, 64), slice_spec=None)",
        approach="first", n_max=100, region=((-2.0, 2.0),) * 3, resolution=(64, 64, 64),
        slice_spec=None,
    )
    sliced = FractalConfig("second", 7, ((-1, 1), (0, 0), (-0.5, 0.5)), (3, 1, 2), ("y", 0))
    assert_value_contract(
        sliced,
        "FractalConfig(approach='second', n_max=7, region=((-1.0, 1.0), (0.0, 0.0), "
        "(-0.5, 0.5)), resolution=(3, 1, 2), slice_spec=('y', 0.0))",
        approach="second", n_max=7, region=((-1.0, 1.0), (0.0, 0.0), (-0.5, 0.5)),
        resolution=(3, 1, 2), slice_spec=("y", 0.0),
    )


def test_membership_grid_is_a_frozen_record_equal_only_to_itself():
    grid = render_grid(FractalConfig(n_max=5, resolution=(3, 2, 2)))
    for name in ("config", "counts"):
        with pytest.raises(AttributeError):
            setattr(grid, name, getattr(grid, name))
        with pytest.raises(AttributeError):
            delattr(grid, name)
    twin = MembershipGrid(config=grid.config, counts=grid.counts)
    assert grid == grid and not grid != grid
    assert grid != twin and not grid == twin
    assert grid != (grid.config, grid.counts)
    assert len({grid, twin, grid}) == 2
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(grid, protocol))
        assert type(back) is MembershipGrid and back != grid
        assert back.config == grid.config
        assert np.array_equal(back.counts, grid.counts)


def test_fractal_import_does_not_load_dataclasses():
    # a fresh interpreter; modules its site already loaded do not count.  It
    # also renders mirrored boxes, the second one with second's fallback:
    # numpy's set routines would load numpy.ma, about 1.3 MiB of memory.
    import hypercomplex

    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from hypercomplex.fractal import FractalConfig, render_grid\n"
        "render_grid(FractalConfig(n_max=20, resolution=(8, 8, 8)), workers=3)\n"
        "render_grid(FractalConfig('second', 20, resolution=(9, 8, 8)), workers=3)\n"
        "print(sorted({'concurrent.futures', 'dataclasses', 'numpy.ma'}\n"
        "             & (set(sys.modules) - before)))\n"
    )
    src = os.path.dirname(os.path.dirname(hypercomplex.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, encoding="utf-8", timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


# -- exporters -----------------------------------------------------------------------

def test_escape_byte_mapping():
    def byte(n, n_max):
        return int(_byte_array(np.array([n]), n_max)[0])

    assert byte(100, 100) == 0
    assert byte(1, 100) == 1
    assert byte(99, 100) == 1 + (254 * 98) // 99
    assert byte(1, 2) == 1
    # int32 counts on both sides of (2**31 - 1) // 254: the scaled product
    # must not wrap
    edge = (2**31 - 1) // 254
    for n, n_max in ((edge - 1, edge), (edge, edge + 1), (10**7, 10**8), (2**31 - 2, 2**31 - 1)):
        data = _byte_array(np.array([n], dtype=np.int32), n_max)
        assert int(data[0]) == escape_byte(n, n_max)
    assert escape_byte(10**7, 10**8) == 26


@pytest.mark.parametrize("n_max", [1, 2, 3, 100, 255, 256, 1000])
def test_byte_array_matches_scalar_oracle_for_every_count(n_max):
    data = _byte_array(np.arange(1, n_max + 1), n_max)
    assert data.dtype == np.uint8
    assert data.tolist() == [escape_byte(n, n_max) for n in range(1, n_max + 1)]


def test_pgm_member_slice_bytes(tmp_path):
    cfg = FractalConfig(
        region=((-0.1, 0.1), (-0.1, 0.1), (0.0, 0.0)),
        resolution=(2, 2, 1),
        slice_spec=("z", 0.0),
    )
    out = tmp_path / "slice.pgm"
    export_grid(render_grid(cfg), "pgm_slice", out)
    assert out.read_bytes() == b"P5\n2 2\n255\n" + bytes(4)


def test_pgm_requires_slice(tmp_path):
    # the one-plane config the CLI renders for a PGM raises the export's error
    cfg = FractalConfig(resolution=(2, 2, 2))
    for fails in (lambda: export_grid(render_grid(cfg), "pgm_slice", tmp_path / "x.pgm"),
                  lambda: _slice_config(cfg)):
        with pytest.raises(ValueError, match="^config has no slice; pgm_slice needs one$"):
            fails()


# The sliced axis spans [-2, 2] in 8 cells, whose centres -1.75, -1.25, ...,
# 1.75 are exact, so 0.0 lies exactly midway between planes 3 and 4.
_SLICE_VALUES = [
    pytest.param(0.75, 5, id="on-plane"),
    pytest.param(0.0, 3, id="midway-lower-wins"),
    pytest.param(3.0, 7, id="above-box"),
    pytest.param(-2.5, 0, id="below-box"),
]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n_max", [1, 100])
@pytest.mark.parametrize("value, plane", _SLICE_VALUES)
@pytest.mark.parametrize("approach", ["first", "second"])
@pytest.mark.parametrize("axis", ["x", "y", "z"])
def test_one_plane_render_is_the_plane_of_the_full_render(tmp_path, axis, approach, value,
                                                          plane, n_max, workers):
    ai = "xyz".index(axis)
    region = [(-1.3, 0.9), (-1.1, 1.2), (-0.8, 1.4)]
    res = [9, 7, 6]
    region[ai], res[ai] = (-2.0, 2.0), 8
    cfg = FractalConfig(approach, n_max, region, res, (axis, value))
    assert _slice_index(cfg)[:2] == (ai, plane)
    one = _slice_config(cfg)
    c = float(axis_centers(-2.0, 2.0, 8)[plane])
    want_region, want_res = list(cfg.region), list(cfg.resolution)
    want_region[ai], want_res[ai] = (c, c), 1
    assert one == FractalConfig(approach, n_max, want_region, want_res, (axis, value))
    full = render_grid(cfg)
    part = render_grid(one, workers=workers)
    want = np.take(full.counts, plane, axis=ai)
    assert part.counts.shape == tuple(want_res)
    assert np.array_equal(np.take(part.counts, 0, axis=ai), want)
    export_grid(full, "pgm_slice", tmp_path / "full.pgm")
    export_grid(part, "pgm_slice", tmp_path / "one.pgm")
    assert (tmp_path / "one.pgm").read_bytes() == (tmp_path / "full.pgm").read_bytes()


@pytest.mark.parametrize("c", [5e-324, -5e-324, 1.5e-323, 2.2250738585072014e-308, 0.1, -1.9,
                               1.7976931348623157e308])
def test_one_cell_axis_over_a_point_is_that_point(c):
    # _slice_config narrows the sliced axis to (c, c) at one cell and needs c
    # back bit for bit; a midpoint 0.5*lo + 0.5*hi would give 0.0 for 5e-324
    [got] = axis_centers(c, c, 1).tolist()
    assert float.hex(got) == float.hex(c)


def test_pgm_orientation_top_row_is_high_coordinate(tmp_path):
    # member at the high-y cell only; the top PGM row must carry the 0 byte
    # (n_max 1 and 2 are the smallest byte scales: all members, and 1 or 0)
    for n_max in (1, 2, 25):
        cfg = FractalConfig(
            region=((0.0, 0.0), (-2.2, 2.2), (0.0, 0.0)),
            resolution=(1, 2, 1),
            n_max=n_max,
            slice_spec=("z", 0.0),
        )
        grid = render_grid(cfg)
        low_y, high_y = int(grid.counts[0, 0, 0]), int(grid.counts[0, 1, 0])
        out = tmp_path / "o.pgm"
        export_grid(grid, "pgm_slice", out)
        payload = out.read_bytes().split(b"255\n", 1)[1]
        assert payload == bytes([escape_byte(high_y, n_max), escape_byte(low_y, n_max)])


def test_csv_rows(tmp_path):
    cfg = FractalConfig(region=((0.0, 0.0),) * 3, resolution=(1, 1, 1), n_max=10)
    out = tmp_path / "grid.csv"
    export_grid(render_grid(cfg), "csv", out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x,y,z,escape"
    assert lines[1].endswith(",-1")
    cfg = FractalConfig(region=((3.0, 3.0), (0.0, 0.0), (0.0, 0.0)),
                        resolution=(1, 1, 1), n_max=10)
    export_grid(render_grid(cfg), "csv", out)
    row = out.read_text(encoding="utf-8").splitlines()[1]
    assert row.split(",")[-1] == "1"
    assert float(row.split(",")[0]) == 3.0


def test_csv_suffix_table_follows_the_counts_not_n_max(tmp_path):
    # one cell escaping at n = 1 under a huge budget: the exporter must not
    # build a suffix per possible count
    cfg = FractalConfig(region=((3.0, 3.0), (0.0, 0.0), (0.0, 0.0)),
                        resolution=(1, 1, 1), n_max=10**9)
    out = tmp_path / "grid.csv"
    start = time.perf_counter()
    export_grid(render_grid(cfg), "csv", out)
    assert time.perf_counter() - start < 0.5
    assert out.read_text(encoding="utf-8") == "x,y,z,escape\n3.000000000e+00,0.000000000e+00,0.000000000e+00,1\n"


_CSV_BOX = (((-1.5, 1.0), (-1.2, 1.2), (-0.9, 0.3)), (7, 5, 3))


@pytest.mark.parametrize("n_max, region, resolution", [
    pytest.param(1, *_CSV_BOX, id="1"),
    pytest.param(3, *_CSV_BOX, id="3"),
    pytest.param(20, *_CSV_BOX, id="20"),
    # x prints with three-digit exponents and y with two- and three-digit
    # ones of either sign, so the field widths vary between cells
    pytest.param(20, ((1e100, 3e100), (-3e100, 3e100), (-0.9, 0.3)), (4, 4, 2),
                 id="three-digit-exponents"),
    pytest.param(20, ((-0.5, -0.5), (-1.2, 1.2), (0.0, 0.0)), (1, 4, 1), id="one-column"),
    # one cell per z-plane, fewer than the suffixes
    pytest.param(20, ((0.3, 0.3), (0.0, 0.0), (-1.5, 1.5)), (1, 1, 16), id="thin"),
])
def test_csv_whole_file_matches_plain_rows(tmp_path, n_max, region, resolution):
    cfg = FractalConfig(n_max=n_max, region=region, resolution=resolution)
    grid = render_grid(cfg)
    out = tmp_path / "grid.csv"
    export_grid(grid, "csv", out)
    xs, ys, zs = (axis_centers(lo, hi, n) for (lo, hi), n in zip(cfg.region, cfg.resolution))
    want = ["x,y,z,escape"]
    for iz, z in enumerate(zs):
        for iy, y in enumerate(ys):
            for ix, x in enumerate(xs):
                n = int(grid.counts[ix, iy, iz])
                esc = -1 if n == n_max else n
                want.append(f"{x:.9e},{y:.9e},{z:.9e},{esc}")
    assert out.read_bytes() == ("\n".join(want) + "\n").encode("ascii")


def test_voxel_raw_layout(tmp_path):
    for n_max in (1, 2, 20):
        cfg = FractalConfig(n_max=n_max, resolution=(3, 2, 2))
        grid = render_grid(cfg)
        out = tmp_path / "vol.raw"
        export_grid(grid, "voxel_raw", out)
        data = out.read_bytes()
        assert len(data) == 3 * 2 * 2
        for iz in range(2):
            for iy in range(2):
                for ix in range(3):
                    want = escape_byte(int(grid.counts[ix, iy, iz]), cfg.n_max)
                    assert data[ix + 3 * iy + 6 * iz] == want
        meta = (tmp_path / "vol.raw.meta").read_text(encoding="utf-8")
        assert f"n_max={n_max}" in meta and "approach=first" in meta


def test_unknown_export_format(tmp_path):
    cfg = FractalConfig(resolution=(1, 1, 1))
    with pytest.raises(ValueError):
        export_grid(render_grid(cfg), "png", tmp_path / "x")
