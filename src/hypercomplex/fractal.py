"""Escape-time 3D Mandelbrot generator over a sampled box.

Two iteration schemes for ``h_{n+1} = h_n**2 + c`` on 3D values:

* ``first`` -- squares through the Cartesian product formula.  Orbits with
  ``c_z = 0`` never leave the z = 0 plane and reproduce the classical complex
  escape map bit for bit.
* ``second`` -- squares through doubled arguments of an alternative angle
  resolution (longitude in (-pi/2, pi/2], latitude in (-pi, pi]).  Orbits
  with ``c_y = 0`` stay in the y = 0 plane, where the map is the classical
  complex one under the substitution y -> z.

Each approach has a single array step kernel.  The lattice render and the
one-cell ``escape_time`` both run it, so per-cell results are bitwise
independent of grid shape, tiling and parallelism.

The render starts every orbit at ``h_1 = c``, which is exactly the step from
``h_0 = 0``, so iteration 1 is the radius-2 test on ``c`` itself.  Its
squares come from the lattice axes, and a cell outside radius 2 gets its
count 1 and never gets a lane.  The other cells go through a fixed pool of
lanes, allocated once per block and written in place, which a cursor fills
in lattice order; so a render holds the counts and one pool, not state for
every cell.  Each iteration squares the state once: ``x^2 - y^2``,
``x^2 + y^2`` and ``z^2`` feed the escape test and are then reused by the
next step.  An escaped cell gets its count and leaves the live mask but is
stepped on with the rest until 1/8 of the pool is dead; then the live lanes
are packed to the front and the freed lanes take the next cells, so lanes
that started at different iterations share every pass.  A lane that reaches
``n_max`` leaves as a member.  The cost follows the cell iterations actually
run rather than cells x ``n_max``.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

import numpy as np

from .core import CartesianVec, _Value

__all__ = [
    "FractalConfig",
    "MembershipGrid",
    "axis_centers",
    "escape_time",
    "render_grid",
    "export_grid",
]

_APPROACHES = ("first", "second")
_AXES = ("x", "y", "z")
# lattice guard: the counts and the lane mask take 5 bytes a cell, 320 MiB
# at the limit; the iterated state is a fixed-size pool
_MAX_CELLS = 1 << 26
_MAX_N = (1 << 31) - 1  # the counts are int32


class FractalConfig(_Value):
    """Sampling box, resolution and iteration budget for one render.

    The escape radius is fixed at 2, not configurable: membership is only
    meaningful inside that disk, and every exporter and oracle assumes it.
    """

    __slots__ = ("approach", "n_max", "region", "resolution", "slice_spec")
    approach: str
    n_max: int
    region: tuple[tuple[float, float], ...]
    resolution: tuple[int, int, int]
    slice_spec: Optional[tuple[str, float]]

    def __init__(self, approach: str = "first", n_max: int = 100, region=((-2.0, 2.0),) * 3,
                 resolution=(64, 64, 64), slice_spec=None):
        if approach not in _APPROACHES:
            raise ValueError(f"approach must be one of {_APPROACHES}")
        # integers: a float n_max is never met, a float resolution truncated
        n_max = operator.index(n_max)
        if not 1 <= n_max <= _MAX_N:
            raise ValueError(f"n_max must be in [1, {_MAX_N}]")
        region = tuple((float(lo), float(hi)) for lo, hi in region)
        # a NaN or infinite bound, hi < lo and a span past the float range
        # all leave hi - lo outside [0, inf)
        if len(region) != 3 or not all(0.0 <= hi - lo < math.inf for lo, hi in region):
            raise ValueError("region must be three inclusive intervals lo <= hi "
                             "with finite bounds and a finite span hi - lo")
        res = tuple(map(operator.index, resolution))
        if len(res) != 3 or any(r < 1 for r in res):
            raise ValueError("resolution components must be >= 1")
        if res[0] * res[1] * res[2] > _MAX_CELLS:
            raise ValueError(f"lattice larger than {_MAX_CELLS} cells")
        if slice_spec is not None:
            axis, value = slice_spec
            if axis not in _AXES:
                raise ValueError("slice axis must be one of x, y, z")
            value = float(value)
            if not math.isfinite(value):
                raise ValueError(f"slice value must be finite, got {value!r}")
            slice_spec = (axis, value)
        for name, v in zip(self.__slots__, (approach, n_max, region, res, slice_spec)):
            object.__setattr__(self, name, v)


class MembershipGrid(_Value):
    """Escape-iteration counts on the lattice, shape = resolution.

    ``counts[ix, iy, iz]`` is the first iteration whose state left the
    radius-2 disk, or ``n_max`` for cells that never did (members).
    """

    __slots__ = ("config", "counts")
    config: FractalConfig
    counts: np.ndarray

    def __init__(self, config: FractalConfig, counts: np.ndarray):
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "counts", counts)

    # an array has no single truth value, so a grid equals only itself
    __eq__ = object.__eq__
    __hash__ = object.__hash__


def axis_centers(lo: float, hi: float, n: int) -> np.ndarray:
    """Cell-center coordinates of an n-cell axis over [lo, hi]."""
    return lo + (hi - lo) * (np.arange(n) + 0.5) / n


# -- step kernels: one per approach, on arrays ---------------------------------

def _squares(X, Y, Z, D, RHO2, ZZ):
    """``X^2 - Y^2``, ``X^2 + Y^2`` and ``Z^2`` of a state, written into D,
    RHO2 and ZZ: the escape test reads the last two, and the next step reads
    all three."""
    XX = np.multiply(X, X, out=RHO2)
    YY = np.multiply(Y, Y, out=ZZ)
    np.subtract(XX, YY, out=D)
    XX += YY
    np.multiply(Z, Z, out=ZZ)
    return D, RHO2, ZZ


# Each kernel takes a state, its _squares and c, and writes the next state
# into XN, YN and ZN, which it returns.  The squares are scratch: a kernel may
# overwrite RHO2, and ZN holds a factor until the new z is computed.  Callers
# silence numpy's floating-point warnings: 0/0 on degenerate cells is patched
# over, and an orbit past the float range is inf or NaN, which the escape
# test and CartesianVec each handle.

def _step_first(X, Y, Z, D, RHO2, ZZ, CX, CY, CZ, XN, YN, ZN):
    deg = (RHO2 == 0.0).nonzero()[0]
    F = np.divide(ZZ, RHO2, out=ZN)
    np.subtract(1.0, F, out=F)
    np.multiply(D, F, out=XN)
    XN += CX
    np.multiply(2.0, X, out=YN)
    YN *= Y
    YN *= F
    YN += CY
    np.multiply(2.0, Z, out=ZN)
    ZN *= np.sqrt(RHO2, out=RHO2)
    ZN += CZ
    if deg.size:
        # pure z-axis states (rho = 0) need a longitude to square: it is
        # fixed at 0 so the iteration stays deterministic
        XN[deg] = CX[deg] - ZZ[deg]
        YN[deg] = CY[deg]
        ZN[deg] = CZ[deg]
    return XN, YN, ZN


def _step_second(X, Y, Z, D, RHO2, ZZ, CX, CY, CZ, XN, YN, ZN):
    # Doubled-angle square of the alternative resolution, evaluated through
    # exact half-angle algebra instead of trig calls:
    #   cos 2T = (x^2 - y^2)/rho^2      sin 2T = 2xy/rho^2
    #   cos 2P = (rho^2 - z^2)/r^2      sin 2P = s*2*rho*z/r^2
    # with s = -1 in the x < 0 (or x = 0, y < 0) half-space where the
    # latitude is offset by +-pi.  The r^2 modulus of the square cancels the
    # 1/r^2 of the doubled angles.  Pure z-axis states take the first
    # approach's zero-longitude rule (T = 0, P = +-pi/2), which keeps the
    # y = 0 plane exactly complex; at the origin, where the latitude is
    # undetermined, that rule gives c - 0 = c.
    deg = (RHO2 == 0.0).nonzero()[0]
    T = np.subtract(RHO2, ZZ, out=ZN)
    np.divide(D, RHO2, out=XN)
    XN *= T
    XN += CX
    np.multiply(2.0, X, out=YN)
    YN *= Y
    YN /= RHO2
    YN *= T
    YN += CY
    # s takes the sign of x, or of y where x = +-0 (a zero y there is a
    # degenerate cell, patched below)
    np.sqrt(RHO2, out=ZN)
    ZN *= 2.0
    np.copysign(ZN, X, out=ZN)
    on_yz = (X == 0.0).nonzero()[0]
    if on_yz.size:
        ZN[on_yz] = np.copysign(ZN[on_yz], Y[on_yz])
    ZN *= Z
    ZN += CZ
    if deg.size:
        XN[deg] = CX[deg] - ZZ[deg]
        YN[deg] = CY[deg]
        ZN[deg] = CZ[deg]
    return XN, YN, ZN


_STEPS = {"first": _step_first, "second": _step_second}


def escape_time(c: CartesianVec, cfg: FractalConfig) -> int:
    """First n in [1, n_max] with |h_n| > 2, else n_max (member), for a 3D
    ``c``: the lattice render of one cell, on a pool of one lane.  Each
    iteration pays numpy's per-call overhead, so a loop over many points
    should use :func:`render_grid` on a lattice."""
    if c.dim != 3:
        raise ValueError(f"expected dimension 3, got {c.dim}")
    return int(_render_block(cfg, *([v] for v in c.components))[0, 0, 0])


# -- lattice render ----------------------------------------------------------------

def _cell_axes(cfg: FractalConfig) -> list[np.ndarray]:
    """Cell-center coordinates along x, y and z."""
    return [axis_centers(lo, hi, n) for (lo, hi), n in zip(cfg.region, cfg.resolution)]


_COMPACT_SHARE = 8  # pack and refill the pool once 1/8 of its lanes are dead
# Lanes iterated at once.  Their 12 float64 buffers take 768 KiB, which a
# core's L2 cache holds; a smaller pool pays numpy's per-call cost on more
# iterations, a larger one spills.  Picked from interleaved renders with
# pools of 4096 to 32768 lanes.
_POOL_LANES = 8192


def _render_block(cfg: FractalConfig, xs, ys, zs) -> np.ndarray:
    # The orbit starts at h_1 = c, the exact step from h_0 = 0, so iteration
    # 1 is the escape test on c.  Its squares separate by axis: the tables
    # D1 = x^2 - y^2 and R1 = x^2 + y^2 per (x, y) column, and z^2 per plane,
    # each the same float operations as in _squares.  A cell outside radius
    # 2 gets count 1; every other cell is marked in `todo`.
    #
    # The later iterations run on a pool of at most _POOL_LANES lanes, whose
    # buffers are allocated once and written through out=.  A cursor hands
    # the marked cells to the pool in lattice order, each at h_1 with the
    # squares of c taken from the tables; idx maps a lane back to its cell,
    # and start is the iteration at which the lane held h_1, so a lane that
    # escapes at iteration n has count n - start + 1.  Each iteration steps
    # the lanes, squares them once, for the escape test and then the next
    # step, and tests them.  An escaped lane only leaves `alive`: it is
    # stepped on, to inf and NaN, and its count is never written again
    # (new & alive), until 1/8 of the carried lanes are dead.  Then the live
    # lanes past the first n_alive move into the dead slots before them, and
    # the cursor refills the slots behind.  The lanes of one refill are a
    # cohort; on the iteration a cohort reaches n_max, its live lanes leave
    # as members, whose count n_max is already set.  Once the lattice is
    # used up the pool shrinks to its live lanes instead.
    xs, ys, zs = (np.asarray(a, dtype=float) for a in (xs, ys, zs))
    shape = (xs.size, ys.size, zs.size)
    n_max = cfg.n_max
    step = _STEPS[cfg.approach]
    # a square past the float range is inf, which escapes, and a dead lane
    # runs on to inf - inf = NaN; both are answers, not faults worth a warning
    with np.errstate(all="ignore"):
        xx, yy, zz = xs * xs, ys * ys, zs * zs
        D1 = (xx[:, None] - yy).ravel()
        R1 = (xx[:, None] + yy).ravel()
        CX1 = np.repeat(xs, ys.size)
        CY1 = np.tile(ys, xs.size)
        # radius-2 escape test on squared moduli, in blocks of about one pool,
        # so no float array the size of the lattice is made; a NaN state
        # never passes it and so stays a member
        todo = np.empty((R1.size, zs.size), dtype=bool)
        rows, cols = max(1, _POOL_LANES // zs.size), min(zs.size, _POOL_LANES)
        for i in range(0, R1.size, rows):
            for j in range(0, zs.size, cols):
                np.greater(R1[i:i + rows, None] + zz[j:j + cols], 4.0,
                           out=todo[i:i + rows, j:j + cols])
        counts = np.where(todo, np.int32(1), np.int32(n_max)).ravel()
        todo = np.logical_not(todo, out=todo).ravel()

        # at n_max = 1 the first test already gave every count
        size = min(_POOL_LANES, np.count_nonzero(todo)) if n_max > 1 else 0
        X, Y, Z, XN, YN, ZN, D, RHO2, ZZ, CX, CY, CZ = (np.empty(size) for _ in range(12))
        idx = np.empty(size, dtype=np.intp)
        # int64: the iteration number runs past n_max once a pool of members
        # has retired and the next one started, so near the int32 bound of
        # n_max it would overflow int32
        start = np.empty(size, dtype=np.int64)
        alive = np.zeros(size, dtype=bool)
        hit = np.empty(size, dtype=bool)
        cohorts = deque()
        cursor = n_alive = 0
        for n in itertools.count(2):
            if _COMPACT_SHARE * (alive.size - n_alive) >= alive.size:
                holes = (~alive[:n_alive]).nonzero()[0]
                if holes.size:
                    movers = alive[n_alive:].nonzero()[0] + n_alive
                    for a in (X, Y, Z, D, RHO2, ZZ, CX, CY, CZ, idx, start):
                        a[holes] = a[movers]
                m = n_alive
                while m < alive.size and cursor < todo.size:
                    found = todo[cursor:cursor + _POOL_LANES].nonzero()[0]
                    k = min(found.size, alive.size - m)
                    if k:
                        fill = slice(m, m + k)
                        cells = np.add(found[:k], cursor, out=idx[fill])
                        col = cells // zs.size
                        iz = cells - col * zs.size
                        X[fill] = CX[fill] = CX1[col]
                        Y[fill] = CY[fill] = CY1[col]
                        Z[fill] = CZ[fill] = zs[iz]
                        D[fill] = D1[col]
                        RHO2[fill] = R1[col]
                        ZZ[fill] = zz[iz]
                        start[fill] = n - 1
                        m += k
                    cursor += found[k - 1] + 1 if k < found.size else _POOL_LANES
                if m > n_alive:
                    cohorts.append(n - 1)
                if m < alive.size:
                    X, Y, Z, XN, YN, ZN, D, RHO2, ZZ, CX, CY, CZ, idx, start, alive, hit = (
                        a[:m] for a in (X, Y, Z, XN, YN, ZN, D, RHO2, ZZ, CX, CY, CZ,
                                        idx, start, alive, hit))
                if not m:
                    break
                alive[:] = True
                n_alive = m
            step(X, Y, Z, D, RHO2, ZZ, CX, CY, CZ, XN, YN, ZN)
            X, Y, Z, XN, YN, ZN = XN, YN, ZN, X, Y, Z
            _squares(X, Y, Z, D, RHO2, ZZ)
            # the old state's buffer is free until the next step
            new = np.greater(np.add(RHO2, ZZ, out=XN), 4.0, out=hit)
            new &= alive
            n_new = np.count_nonzero(new)
            if n_new:
                at = new.nonzero()[0]
                counts[idx[at]] = n + 1 - start[at]
                alive[at] = False
                n_alive -= n_new
            if cohorts[0] + n_max - 1 == n:
                done = np.equal(start, cohorts.popleft(), out=hit)
                done &= alive
                alive ^= done
                n_alive -= np.count_nonzero(done)
    return counts.reshape(shape)


def _z_slabs(zs: np.ndarray, workers: int) -> list[np.ndarray]:
    """Split the z-axis into one slab per worker, at most one per z-plane
    and one per CPU."""
    return np.array_split(zs, min(max(workers, 1), len(zs), os.cpu_count() or 1))


def render_grid(cfg: FractalConfig, workers: int = 1) -> MembershipGrid:
    """Escape time at every cell center of the configured lattice.

    ``workers > 1`` splits the lattice into z-slabs, at most one per z-plane
    and one per CPU, computed concurrently; each cell is independent, so the
    counts are bitwise identical for any worker count.
    """
    xs, ys, zs = _cell_axes(cfg)
    slabs = _z_slabs(zs, workers)
    if len(slabs) == 1:
        # A single slab runs on the calling thread: a pool thread would get
        # its own malloc arena and raise peak memory for no parallelism.
        counts = _render_block(cfg, xs, ys, zs)
    else:
        with ThreadPoolExecutor(max_workers=len(slabs)) as pool:
            parts = pool.map(lambda zslab: _render_block(cfg, xs, ys, zslab), slabs)
            counts = np.concatenate(list(parts), axis=2)
    counts.flags.writeable = False
    return MembershipGrid(config=cfg, counts=counts)


# -- exporters ---------------------------------------------------------------

def _byte_array(counts: np.ndarray, n_max: int) -> np.ndarray:
    # 0 = member, else 1 + floor(254 (n - 1) / (n_max - 1)); at n_max == 1
    # every count is 1, a member, so the divisor never matters
    scaled = 1 + (254 * (counts - 1)) // max(n_max - 1, 1)
    return np.where(counts >= n_max, 0, scaled).astype(np.uint8)


def _slice_plane(grid: MembershipGrid):
    """2D view of the sliced plane plus (width, height) image geometry."""
    if grid.config.slice_spec is None:
        raise ValueError("config has no slice; pgm_slice needs one")
    axis, value = grid.config.slice_spec
    ai = _AXES.index(axis)
    centers = _cell_axes(grid.config)[ai]
    idx = int(np.argmin(np.abs(centers - value)))
    plane = np.take(grid.counts, idx, axis=ai)
    # remaining axes in (x, y, z) order: first is image width, second height
    return plane, plane.shape[0], plane.shape[1]


def export_grid(grid: MembershipGrid, fmt: str, destination) -> None:
    """Write ``grid`` to ``destination`` as ``pgm_slice``, ``csv`` or
    ``voxel_raw`` (the latter with a ``<destination>.meta`` sidecar)."""
    cfg = grid.config
    if fmt == "pgm_slice":
        plane, width, height = _slice_plane(grid)
        data = _byte_array(plane, cfg.n_max)
        with open(destination, "wb") as fh:
            fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
            for row in range(height - 1, -1, -1):  # top row = highest coordinate
                fh.write(data[:, row].tobytes())
    elif fmt == "csv":
        # each centre is formatted once per axis, each escape suffix once per
        # count up to the largest escape count present, and members (count
        # n_max) are clipped to the last slot, -1; one write per z-plane
        # bounds the memory
        xs, ys, zs = ([f"{v:.9e}" for v in axis] for axis in _cell_axes(cfg))
        top = 1 + int(np.max(grid.counts, where=grid.counts < cfg.n_max, initial=0))
        tails = [f",{n}\n" for n in range(top)] + [",-1\n"]
        with open(destination, "w", encoding="ascii") as fh:
            fh.write("x,y,z,escape\n")
            for iz, zc in enumerate(zs):
                plane = np.minimum(grid.counts[:, :, iz], top).T.tolist()  # plane[iy][ix]
                fh.write("".join(
                    f"{xc},{yc},{zc}{tails[n]}"
                    for yc, row in zip(ys, plane)
                    for xc, n in zip(xs, row)
                ))
    elif fmt == "voxel_raw":
        data = _byte_array(grid.counts, cfg.n_max)
        with open(destination, "wb") as fh:
            fh.write(data.transpose(2, 1, 0).tobytes())  # x fastest, then y, then z
        with open(f"{destination}.meta", "w", encoding="ascii") as fh:
            fh.write(f"region={cfg.region!r}\n")
            fh.write(f"resolution={cfg.resolution!r}\n")
            fh.write(f"approach={cfg.approach}\n")
            fh.write(f"n_max={cfg.n_max}\n")
    else:
        raise ValueError(f"unknown export format {fmt!r}")
