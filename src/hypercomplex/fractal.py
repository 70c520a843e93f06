"""Escape-time 3D Mandelbrot generator over a sampled box.

Two iteration schemes for ``h_{n+1} = h_n**2 + c`` on 3D values:

* ``first`` -- squares through the Cartesian product formula.  Orbits with
  ``c_z = 0`` never leave the z = 0 plane and reproduce the classical complex
  escape map bit for bit.
* ``second`` -- squares through doubled arguments of an alternative angle
  resolution (longitude in (-pi/2, pi/2], latitude in (-pi, pi]).  Orbits
  with ``c_y = 0`` stay in the y = 0 plane, where the map is the classical
  complex one under the substitution y -> z.

Each approach has a single array step kernel.  The lattice render, the
one-cell ``escape_time`` and the one-step ``iterate_*`` helpers (on
one-element arrays) all run it, so per-cell results are bitwise independent
of grid shape, tiling and parallelism.

The render starts every orbit at ``h_1 = c``, which is exactly the step from
``h_0 = 0``.  Each iteration squares the state once: ``x^2 - y^2``,
``x^2 + y^2`` and ``z^2`` feed the radius-2 escape test and are then reused
by the next step.  An escaped cell gets its count and leaves the live mask
but is stepped on with the rest until 1/8 of the carried cells are dead;
one compaction then drops them all.  So the cost follows the cell
iterations actually run rather than cells x ``n_max``, with the copying of
compaction paid only now and then.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import CartesianVec

__all__ = [
    "FractalConfig",
    "MembershipGrid",
    "axis_centers",
    "iterate_first",
    "iterate_second",
    "escape_time",
    "render_grid",
    "escape_byte",
    "export_grid",
]

_APPROACHES = ("first", "second")
_AXES = ("x", "y", "z")
_MAX_CELLS = 1 << 26  # lattice guard, ~0.5 GiB of float64 state


@dataclass(frozen=True)
class FractalConfig:
    """Sampling box, resolution and iteration budget for one render.

    The escape radius is fixed at 2, not configurable: membership is only
    meaningful inside that disk, and every exporter and oracle assumes it.
    """

    approach: str = "first"
    n_max: int = 100
    region: tuple[tuple[float, float], ...] = ((-2.0, 2.0), (-2.0, 2.0), (-2.0, 2.0))
    resolution: tuple[int, int, int] = (64, 64, 64)
    slice_spec: Optional[tuple[str, float]] = None

    def __post_init__(self):
        if self.approach not in _APPROACHES:
            raise ValueError(f"approach must be one of {_APPROACHES}")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        region = tuple((float(lo), float(hi)) for lo, hi in self.region)
        object.__setattr__(self, "region", region)
        if len(region) != 3 or any(hi < lo for lo, hi in region):
            raise ValueError("region must be three inclusive intervals")
        res = tuple(int(r) for r in self.resolution)
        object.__setattr__(self, "resolution", res)
        if len(res) != 3 or any(r < 1 for r in res):
            raise ValueError("resolution components must be >= 1")
        if res[0] * res[1] * res[2] > _MAX_CELLS:
            raise ValueError(f"lattice larger than {_MAX_CELLS} cells")
        if self.slice_spec is not None:
            axis, value = self.slice_spec
            if axis not in _AXES:
                raise ValueError("slice axis must be one of x, y, z")
            object.__setattr__(self, "slice_spec", (axis, float(value)))


@dataclass(frozen=True, eq=False)
class MembershipGrid:
    """Escape-iteration counts on the lattice, shape = resolution.

    ``counts[ix, iy, iz]`` is the first iteration whose state left the
    radius-2 disk, or ``n_max`` for cells that never did (members).
    """

    config: FractalConfig
    counts: np.ndarray


def axis_centers(lo: float, hi: float, n: int) -> np.ndarray:
    """Cell-center coordinates of an n-cell axis over [lo, hi]."""
    return lo + (hi - lo) * (np.arange(n) + 0.5) / n


# -- step kernels: one per approach, on arrays ---------------------------------

def _squares(X, Y, Z):
    """``X^2 - Y^2``, ``X^2 + Y^2`` and ``Z^2`` of a state: the escape test
    reads the last two, and the next step reads all three."""
    XX = X * X
    YY = Y * Y
    D = XX - YY
    XX += YY
    return D, XX, Z * Z


# Each kernel takes a state, its _squares and c, and returns the next state.
# The squares are scratch: a kernel overwrites D and RHO2.  Callers silence
# numpy's floating-point warnings: 0/0 on degenerate cells is patched over,
# and an orbit past the float range is inf or NaN, which the escape test and
# CartesianVec each handle.

def _step_first(X, Y, Z, D, RHO2, ZZ, CX, CY, CZ):
    deg = np.flatnonzero(RHO2 == 0.0)
    F = np.divide(ZZ, RHO2)
    np.subtract(1.0, F, out=F)
    XN = np.multiply(D, F, out=D)
    XN += CX
    YN = 2.0 * X
    YN *= Y
    YN *= F
    YN += CY
    ZN = 2.0 * Z
    ZN *= np.sqrt(RHO2, out=RHO2)
    ZN += CZ
    if deg.size:
        # pure z-axis states (rho = 0) need a longitude to square: it is
        # fixed at 0 so the iteration stays deterministic
        XN[deg] = CX[deg] - ZZ[deg]
        YN[deg] = CY[deg]
        ZN[deg] = CZ[deg]
    return XN, YN, ZN


def _step_second(X, Y, Z, D, RHO2, ZZ, CX, CY, CZ):
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
    deg = np.flatnonzero(RHO2 == 0.0)
    T = RHO2 - ZZ
    XN = np.divide(D, RHO2, out=D)
    XN *= T
    XN += CX
    YN = 2.0 * X
    YN *= Y
    YN /= RHO2
    YN *= T
    YN += CY
    # s takes the sign of x, or of y where x = +-0 (a zero y there is a
    # degenerate cell, patched below)
    ZN = np.sqrt(RHO2, out=RHO2)
    ZN *= 2.0
    np.copysign(ZN, X, out=ZN)
    on_yz = np.flatnonzero(X == 0.0)
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


def _require3(*vs: CartesianVec):
    for v in vs:
        if v.dim != 3:
            raise ValueError(f"expected dimension 3, got {v.dim}")


def _iterate(step, state: CartesianVec, c: CartesianVec) -> CartesianVec:
    _require3(state, c)
    X, Y, Z, CX, CY, CZ = (np.array([v]) for v in state.components + c.components)
    # a state too large to square overflows to inf, which CartesianVec rejects
    with np.errstate(all="ignore"):
        return CartesianVec(np.concatenate(step(X, Y, Z, *_squares(X, Y, Z), CX, CY, CZ)))


def iterate_first(state: CartesianVec, c: CartesianVec) -> CartesianVec:
    """One Cartesian-formula step of ``h -> h**2 + c`` (3D).

    Runs the array kernel on one cell, so every call pays numpy's per-call
    overhead; a loop over many points should render them as a lattice with
    :func:`render_grid` instead.
    """
    return _iterate(_step_first, state, c)


def iterate_second(state: CartesianVec, c: CartesianVec) -> CartesianVec:
    """One doubled-angle step of ``h -> h**2 + c`` (3D).

    Runs the array kernel on one cell, with numpy's per-call overhead; see
    :func:`iterate_first`.
    """
    return _iterate(_step_second, state, c)


def escape_time(c: CartesianVec, cfg: FractalConfig) -> int:
    """First n in [1, n_max] with |h_n| > 2, else n_max (member): the
    lattice render of a single cell at ``c``.

    Every iteration pays numpy's per-call overhead on a one-cell array, so
    a loop over many points should use :func:`render_grid` on a lattice.
    """
    _require3(c)
    return int(_render_block(cfg, *([v] for v in c.components))[0, 0, 0])


# -- lattice render ----------------------------------------------------------------

def _cell_axes(cfg: FractalConfig) -> list[np.ndarray]:
    """Cell-center coordinates along x, y and z."""
    return [axis_centers(lo, hi, n) for (lo, hi), n in zip(cfg.region, cfg.resolution)]


_COMPACT_SHARE = 8  # compact once 1/8 of the carried lanes are dead


def _render_block(cfg: FractalConfig, xs, ys, zs) -> np.ndarray:
    # Flattened lanes of the cells not yet compacted away; idx maps each lane
    # back to its lattice cell.  The orbit starts at h_1 = c, the exact step
    # from h_0 = 0.  Each iteration squares the state once, for the escape
    # test and then the next step.  An escaped lane only leaves `alive`: it
    # is stepped on, to inf and NaN, and its count is never written again
    # (new & alive), until 1/8 of the carried lanes are dead and one
    # compaction drops them all.
    CX, CY, CZ = (a.ravel() for a in np.meshgrid(xs, ys, zs, indexing="ij"))
    step = _STEPS[cfg.approach]
    counts = np.full(CX.size, cfg.n_max, dtype=np.int32)
    idx = np.arange(CX.size)
    alive = np.ones(CX.size, dtype=bool)
    n_alive = CX.size
    X, Y, Z = CX, CY, CZ
    # a square past the float range is inf, which escapes, and a dead lane
    # runs on to inf - inf = NaN; both are answers, not faults worth a warning
    with np.errstate(all="ignore"):
        for n in range(1, cfg.n_max + 1):
            D, RHO2, ZZ = _squares(X, Y, Z)
            # radius-2 escape test on squared moduli; a NaN state never
            # passes it and so stays a member
            new = RHO2 + ZZ > 4.0
            new &= alive
            n_new = np.count_nonzero(new)
            if n_new:
                counts[idx[new]] = n
                alive ^= new
                n_alive -= n_new
            if not n_alive or n == cfg.n_max:
                break
            if _COMPACT_SHARE * (alive.size - n_alive) >= alive.size:
                # one array at a time, so each old array is freed before the
                # next copy is made
                keep = np.flatnonzero(alive)
                alive = alive[keep]
                idx = idx[keep]
                X = X[keep]
                Y = Y[keep]
                Z = Z[keep]
                D = D[keep]
                RHO2 = RHO2[keep]
                ZZ = ZZ[keep]
                CX = CX[keep]
                CY = CY[keep]
                CZ = CZ[keep]
            X, Y, Z = step(X, Y, Z, D, RHO2, ZZ, CX, CY, CZ)
    return counts.reshape(len(xs), len(ys), len(zs))


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

def escape_byte(n: int, n_max: int) -> int:
    """Byte coding shared by PGM and voxel output: 0 = member, escape at n
    maps to ``1 + floor(254*(n - 1)/(n_max - 1))``."""
    if n >= n_max:
        return 0
    return 1 + (254 * (n - 1)) // (n_max - 1)


def _byte_array(counts: np.ndarray, n_max: int) -> np.ndarray:
    # at n_max == 1 every count is 1, a member, so the divisor never matters
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
        # count (members -> -1); one write per z-plane bounds the memory
        xs, ys, zs = ([f"{v:.9e}" for v in axis] for axis in _cell_axes(cfg))
        tails = [f",{n}\n" for n in range(cfg.n_max)] + [",-1\n"]
        with open(destination, "w", encoding="ascii") as fh:
            fh.write("x,y,z,escape\n")
            for iz, zc in enumerate(zs):
                plane = grid.counts[:, :, iz].T.tolist()  # plane[iy][ix]
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
