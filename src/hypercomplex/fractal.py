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
one-cell ``escape_time`` and the one-step ``iterate_*`` helpers all run it,
so per-cell results are bitwise independent of grid shape, tiling and
parallelism.  The render steps only the cells still inside the radius-2
disk, dropping each one once it escapes, so its cost follows the cell
iterations actually run rather than cells x ``n_max``.
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


# -- step kernels: one per approach, on arrays or numpy scalars ---------------

def _step_first(X, Y, Z, CX, CY, CZ):
    RHO2 = X * X + Y * Y
    # pure z-axis states (rho = 0) need a longitude to square: it is fixed at
    # 0 so the iteration stays deterministic
    deg = RHO2 == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        F = 1.0 - (Z * Z) / RHO2
        XN = np.where(deg, -(Z * Z) + CX, (X * X - Y * Y) * F + CX)
        YN = np.where(deg, CY, (2.0 * X * Y) * F + CY)
        ZN = np.where(deg, CZ, (2.0 * Z) * np.sqrt(RHO2) + CZ)
    return XN, YN, ZN


def _step_second(X, Y, Z, CX, CY, CZ):
    # Doubled-angle square of the alternative resolution, evaluated through
    # exact half-angle algebra instead of trig calls:
    #   cos 2T = (x^2 - y^2)/rho^2      sin 2T = 2xy/rho^2
    #   cos 2P = (rho^2 - z^2)/r^2      sin 2P = s*2*rho*z/r^2
    # with s = -1 in the x < 0 (or x = 0, y < 0) half-space where the
    # latitude is offset by +-pi.  The r^2 modulus of the square cancels the
    # 1/r^2 of the doubled angles.  At the origin the latitude is undetermined
    # and the next state is just c; other pure z-axis states take the first
    # approach's zero-longitude rule (T = 0, P = +-pi/2), which keeps the
    # y = 0 plane exactly complex.
    RHO2 = X * X + Y * Y
    deg = RHO2 == 0.0
    zero = deg & (Z == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        T = RHO2 - Z * Z
        RHO = np.sqrt(RHO2)
        SRHO = np.where((X > 0.0) | ((X == 0.0) & (Y > 0.0)), RHO, -RHO)
        XN = np.where(
            zero, CX, np.where(deg, -(Z * Z) + CX, ((X * X - Y * Y) / RHO2) * T + CX)
        )
        YN = np.where(deg, CY, ((2.0 * X * Y) / RHO2) * T + CY)
        ZN = np.where(deg, CZ, (2.0 * SRHO) * Z + CZ)
    return XN, YN, ZN


_STEPS = {"first": _step_first, "second": _step_second}


def _require3(*vs: CartesianVec):
    for v in vs:
        if v.dim != 3:
            raise ValueError(f"expected dimension 3, got {v.dim}")


def _iterate(step, state: CartesianVec, c: CartesianVec) -> CartesianVec:
    _require3(state, c)
    # a state too large to square overflows to inf, which CartesianVec rejects
    with np.errstate(over="ignore"):
        return CartesianVec(step(*map(np.float64, state.components + c.components)))


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


def _render_block(cfg: FractalConfig, xs, ys, zs) -> np.ndarray:
    # Flattened state of the still-active cells only; idx maps each back to
    # its lattice cell, so escaped cells cost nothing after their last step.
    CX, CY, CZ = (a.ravel() for a in np.meshgrid(xs, ys, zs, indexing="ij"))
    step = _STEPS[cfg.approach]
    counts = np.full(CX.size, cfg.n_max, dtype=np.int32)
    idx = np.arange(CX.size)
    X = Y = Z = np.zeros(CX.size)
    # a square past the float range is inf, which escapes; that is the
    # answer, not a fault worth a warning
    with np.errstate(over="ignore"):
        for n in range(1, cfg.n_max + 1):
            X, Y, Z = step(X, Y, Z, CX, CY, CZ)
            # radius-2 escape test on squared moduli; a NaN state never
            # passes it and so stays a member
            escaped = (X * X + Y * Y) + Z * Z > 4.0
            counts[idx[escaped]] = n
            live = ~escaped
            idx, X, Y, Z, CX, CY, CZ = (a[live] for a in (idx, X, Y, Z, CX, CY, CZ))
            if not idx.size:
                break
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
