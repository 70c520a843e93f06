"""Escape-time 3D Mandelbrot generator over a sampled box.

Two iteration schemes for ``h_{n+1} = h_n**2 + c`` on 3D values:

* ``first`` -- squares through the Cartesian product formula.  Orbits with
  ``c_z = 0`` never leave the z = 0 plane and reproduce the classical complex
  escape map bit for bit.
* ``second`` -- squares through doubled arguments of an alternative angle
  resolution (longitude in (-pi/2, pi/2], latitude in (-pi, pi]).  Orbits
  with ``c_y = 0`` stay in the y = 0 plane, where the map is the classical
  complex one under the substitution y -> z.

Each approach has a single array kernel, which squares; the render adds c.
The lattice render and the one-cell ``escape_time`` both run it, so
per-cell results are bitwise independent of grid shape and tiling.

The render starts every orbit at ``h_1 = c``, which is exactly the step from
``h_0 = 0``, so iteration 1 is the radius-2 test on ``c`` itself.  Its
squares come from the lattice axes, and a cell outside radius 2 gets its
count 1 and never gets a lane.  The other cells go through a fixed pool of
lanes, allocated once per sweep of a block and written in place, which a
cursor fills in lattice order; so a render holds the counts and one pool,
not state for every cell.  Each iteration squares the state once:
``x^2 - y^2``, ``x^2 + y^2`` and ``z^2`` feed the escape test and are then
reused by the next step.  An escaped cell gets its count and leaves the
live mask but is stepped on with the rest until 1/8 of the pool is dead;
then the live lanes are packed to the front and the freed lanes take the
next cells, so lanes that started at different iterations share every pass.
A lane alive after iteration ``n_max - 1`` is a member.  The cost follows
the cell iterations actually run rather than cells x ``n_max``.

Members are retired early where that is provable.  Every 8th iteration,
while at least a quarter of the pool is live, a contraction certificate
(``_trapped``) looks at each lane's last two states a and b = F(a).  The
square maps (r, theta, phi) to (r^2, 2 theta, 2 phi), so where |phi| <=
pi/3 it stretches no direction by more than 2|h|; if a ball about b that
holds a lies there and F maps it into itself with room for rounding, every
later state stays below radius 1/2 and the cell is a member.  This is the
3D form of the attracting-fixed-point argument (Milnor, *Dynamics in One
Complex Variable*, 3rd ed., section 8).  The counts are the same bits.

Every kernel operation commutes with negation under round-to-nearest, so
both approaches are exactly mirror-symmetric in z, and ``first`` in y as well.
The render splits x, which no map mirrors, into slabs.  Of each pair of y-
or z-planes whose centres negate exactly, a slab steps only the lower plane
and copies it into the upper one.  ``second`` reads the sign of y where an
orbit meets x = +-0, so if a rendered orbit did, the slab renders its
skipped y-planes after all.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import deque
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


# Each kernel takes a state and its _squares, writes the square of the
# state into XN, YN and ZN, and returns the number of lanes whose square read
# the sign of y (second's rule on x = +-0; first never reads it), the one step
# that breaks the y-mirror.  The sweep then adds c.  The squares are scratch:
# a kernel may overwrite RHO2, and ZN holds a factor until the new z is
# computed.  Callers silence numpy's floating-point warnings: 0/0 on
# degenerate cells is patched over, and an orbit past the float range is inf
# or NaN, which the escape test and CartesianVec each handle.

def _z_axis_rule(deg, ZZ, XN, YN, ZN) -> None:
    # pure z-axis states (rho = 0, the lanes in deg) square with longitude 0
    # to (-z^2, -0, -0): -0.0 is the zero that adds to any c bit for bit
    if deg.size:
        XN[deg] = -ZZ[deg]
        YN[deg] = ZN[deg] = -0.0


_TINY = np.finfo(float).tiny  # the smallest normal float


def _step_first(X, Y, Z, D, RHO2, ZZ, XN, YN, ZN) -> int:
    # F = 1 - z^2/rho^2 overflows where rho^2 is subnormal, or the smallest
    # normal with z^2 = 4, so those lanes (the z-axis ones among them) are
    # redone below as D - (D/rho^2) z^2 and 2xy - (2xy/rho^2) z^2, whose
    # quotients are at most 1, as in second
    sub = (RHO2 <= _TINY).nonzero()[0]
    F = np.divide(ZZ, RHO2, out=ZN)
    np.subtract(1.0, F, out=F)
    np.multiply(D, F, out=XN)
    np.multiply(2.0, X, out=YN)
    YN *= Y
    YN *= F
    np.multiply(2.0, Z, out=ZN)
    ZN *= np.sqrt(RHO2, out=RHO2)
    if sub.size:
        x, y, d, zz = X[sub], Y[sub], D[sub], ZZ[sub]
        r2, xy2 = x * x + y * y, 2.0 * x * y  # rho^2 as _squares made it
        XN[sub] = d - d / r2 * zz
        YN[sub] = xy2 - xy2 / r2 * zz
        _z_axis_rule(sub[r2 == 0.0], ZZ, XN, YN, ZN)
    return 0


def _step_second(X, Y, Z, D, RHO2, ZZ, XN, YN, ZN) -> int:
    # Doubled-angle square of the alternative resolution, evaluated through
    # exact half-angle algebra instead of trig calls:
    #   cos 2T = (x^2 - y^2)/rho^2      sin 2T = 2xy/rho^2
    #   cos 2P = (rho^2 - z^2)/r^2      sin 2P = s*2*rho*z/r^2
    # with s = -1 in the x < 0 (or x = 0, y < 0) half-space where the
    # latitude is offset by +-pi.  The r^2 modulus of the square cancels the
    # 1/r^2 of the doubled angles.  Pure z-axis states take the first
    # approach's zero-longitude rule (T = 0, P = +-pi/2), which keeps the
    # y = 0 plane exactly complex; at the origin, where the latitude is
    # undetermined, that rule squares it to -0, and the sweep adds c.
    deg = (RHO2 == 0.0).nonzero()[0]
    T = np.subtract(RHO2, ZZ, out=ZN)
    np.divide(D, RHO2, out=XN)
    XN *= T
    np.multiply(2.0, X, out=YN)
    YN *= Y
    YN /= RHO2
    YN *= T
    # s takes the sign of x, or of y where x = +-0 (a zero y there is a
    # degenerate cell, patched below)
    np.sqrt(RHO2, out=ZN)
    ZN *= 2.0
    np.copysign(ZN, X, out=ZN)
    on_yz = (X == 0.0).nonzero()[0]
    if on_yz.size:
        ZN[on_yz] = np.copysign(ZN[on_yz], Y[on_yz])
    ZN *= Z
    _z_axis_rule(deg, ZZ, XN, YN, ZN)
    return on_yz.size


_STEPS = {"first": _step_first, "second": _step_second}


# -- contraction certificate -----------------------------------------------------

_TRAP_EVERY = 8  # iterations between certificate tests of the pool
_TRAP_FLOOR = 2.0 ** -30  # least ball radius s
_TRAP_EPS = 2.0 ** -40  # bound on one float step's error, and on the test's own
_SQRT3 = math.sqrt(3.0)


def _trapped(second: bool, X, Y, Z, RHO2, ZZ, XN, YN, ZN, alive, out) -> np.ndarray:
    """Marks in ``out`` the ``alive`` lanes whose orbit provably never
    escapes.  The state b = (X, Y, Z), with its squares RHO2 and ZZ, was
    stepped from the state a in XN, YN and ZN, which are overwritten.

    The square maps (r, theta, phi) to (r^2, 2 theta, 2 phi), so it
    stretches a radial step by 2r, a latitude step by 2r and a longitude
    step by 2r |cos 2phi| / cos phi, which is at most 2r where the latitude
    |phi| <= pi/3, that is |z| <= sqrt(3) rho.  ``second`` is ``first`` with
    z negated where x < 0, so off the plane x = 0 the same holds.  With d =
    |b - a|, R = |b| and s = 16 d + 2^-30, the ball B(b, s) holds a, and if
    it lies in that cone (for ``second`` also off x = 0), F is L = 2(R +
    s)-Lipschitz on it.  For h in the ball, |F(h) - b| <= L|h - b| + L|b -
    a| + |F(a) - b| <= L(s + d) + eps, where the float step from a to b
    erred by at most eps.  So if L(s + d) + 2 eps <= s, the next float state
    lies in the ball too, by induction every later one does, and each stays
    below radius R + s < 1/2: the cell is a member, whatever n_max is.  A
    float step of a state below radius 1/2 with |c| < 3/4 errs by about
    2^-48, so eps = 2^-40 also covers the rounding of this test.  The ball's
    distance to the cone is (sqrt(3) rho - |z|) / 2, and no ball inside the
    cone holds the origin, so the kernels' rho = 0 rules never apply on it."""
    d = np.subtract(XN, X, out=XN)
    d *= d
    for A, B in ((YN, Y), (ZN, Z)):
        np.subtract(A, B, out=A)
        A *= A
        d += A
    np.sqrt(d, out=d)
    s = np.multiply(d, 16.0, out=YN)
    s += _TRAP_FLOOR
    # 2(R + s)(s + d) + 2 eps <= s
    m = np.add(RHO2, ZZ, out=ZN)
    np.sqrt(m, out=m)
    m += s
    d += s
    m *= d
    m *= 2.0
    m += 2.0 * _TRAP_EPS
    np.less_equal(m, s, out=out)
    # sqrt(3) rho - |z| >= 2(s + eps): the ball lies in the cone
    w = np.sqrt(RHO2, out=XN)
    w *= _SQRT3
    w -= np.abs(Z, out=ZN)
    np.add(s, _TRAP_EPS, out=ZN)
    ZN *= 2.0
    np.greater_equal(w, ZN, out=out, where=out)
    if second:  # |b_x| > s: the ball stays off x = 0
        np.greater(np.abs(X, out=XN), s, out=out, where=out)
    out &= alive
    return out


def escape_time(c: CartesianVec, cfg: FractalConfig) -> int:
    """First n in [1, n_max] with |h_n| > 2, else n_max (member), for a 3D
    ``c``: the lattice render of one cell, on a pool of one lane.  Each
    iteration pays numpy's per-call overhead, so a loop over many points
    should use :func:`render_grid` on a lattice."""
    if c.dim != 3:
        raise ValueError(f"expected dimension 3, got {c.dim}")
    return int(_render_block(cfg, *(np.array([v]) for v in c.components))[0, 0, 0])


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


def _mirror_pairs(c: np.ndarray) -> np.ndarray:
    """Indices i < n // 2 of the centres whose mirror c[n-1-i] is exactly
    -c[i]."""
    i = np.arange(len(c) // 2)
    return i[c[i] == -c[len(c) - 1 - i]]


def _render_block(cfg: FractalConfig, xs: np.ndarray, ys: np.ndarray,
                  zs: np.ndarray) -> np.ndarray:
    # The orbit starts at h_1 = c, the exact step from h_0 = 0, so iteration
    # 1 is the escape test on c, whose squared modulus is x^2 + y^2 per
    # (x, y) column plus z^2 per plane.  A cell outside radius 2 gets count
    # 1; _sweep iterates every other cell, marked in `todo`.
    #
    # Of each y pair and each z pair whose centres negate exactly, the upper
    # plane is left out of `todo`.  The y-planes are copied from the lower
    # ones, unless an orbit's square read the sign of y (second's rule on
    # x = +-0); then they take a second sweep.  The z-planes are copied last.
    shape = (xs.size, ys.size, zs.size)
    lower_y, lower_z = _mirror_pairs(ys), _mirror_pairs(zs)
    upper_y, upper_z = ys.size - 1 - lower_y, zs.size - 1 - lower_z
    # a square past the float range is inf, which escapes, and a dead lane
    # runs on to inf - inf = NaN; both are answers, not faults worth a warning
    with np.errstate(all="ignore"):
        xx, yy, zz = xs * xs, ys * ys, zs * zs
        R1 = (xx[:, None] + yy).ravel()
        # the cells inside radius 2, in blocks of about one pool, so no float
        # array the size of the lattice is made; the sums are of non-negative
        # squares of finite centres, inf at worst, so never NaN
        todo = np.empty((R1.size, zs.size), dtype=bool)
        rows, cols = max(1, _POOL_LANES // zs.size), min(zs.size, _POOL_LANES)
        for i in range(0, R1.size, rows):
            for j in range(0, zs.size, cols):
                np.less_equal(R1[i:i + rows, None] + zz[j:j + cols], 4.0,
                              out=todo[i:i + rows, j:j + cols])
        todo = todo.reshape(shape)
        counts = np.where(todo, np.int32(cfg.n_max), np.int32(1))
        todo[:, upper_y] = False
        todo[:, :, upper_z] = False
        # flat views: the sweeps write through them into counts and read todo
        args = (cfg, todo.ravel(), counts.ravel(), np.repeat(xs, ys.size),
                np.tile(ys, xs.size), zs)
        if _sweep(*args) and upper_y.size:
            # an upper y-plane's centres square as its lower plane's do, so
            # its cells inside radius 2 are the lower plane's
            inside = todo[:, lower_y]
            todo[:] = False
            todo[:, upper_y] = inside
            _sweep(*args)
        else:
            counts[:, upper_y] = counts[:, lower_y]
        counts[:, :, upper_z] = counts[:, :, lower_z]
    return counts


def _sweep(cfg: FractalConfig, todo, counts, CX1, CY1, zs) -> int:
    # Iterates the cells marked in the flat `todo` and writes their counts;
    # returns how many lane steps read the sign of y.
    #
    # The iterations after the first run on a pool of at most _POOL_LANES
    # lanes, whose buffers are allocated once and written through out=.  A
    # cursor hands the marked cells to the pool in lattice order, each at h_1
    # with its _squares; idx maps a lane back to its cell, and start is the
    # iteration at which the lane held h_1, so a lane that escapes at
    # iteration n has count n - start + 1.  Each iteration squares the
    # lanes' states by the kernel and adds c, takes _squares once, for the
    # escape test and then the next step, and tests them.  An escaped lane only leaves `alive`: it is stepped on, to
    # inf and NaN, and its count is never written again (new & alive), until
    # 1/8 of the carried lanes are dead.  Then the live lanes past the first
    # n_alive move into the dead slots before them, and the cursor refills
    # the slots behind.  The lanes of one refill are a cohort.  A lane alive
    # after iteration n_max - 1 is a member, so its cohort retires it then,
    # with its count n_max already set, after n_max - 2 steps.  Every 8th
    # iteration, while a quarter of the pool is live, the certificate retires
    # the lanes it proves members, with that same count.  Once the lattice
    # is used up the pool shrinks to its live lanes instead.
    n_max = cfg.n_max
    step = _STEPS[cfg.approach]
    second = cfg.approach == "second"
    # at n_max <= 2 the first test already gave every count
    size = min(_POOL_LANES, np.count_nonzero(todo)) if n_max > 2 else 0
    X, Y, Z, XN, YN, ZN, D, RHO2, ZZ, CX, CY, CZ = np.empty((12, size))
    # int64: the iteration number runs past n_max once a pool of members
    # has retired and the next one started, so near the int32 bound of
    # n_max it would overflow int32
    idx, start = np.empty((2, size), dtype=np.int64)
    alive, hit = np.zeros((2, size), dtype=bool)
    cohorts = deque()
    cursor = n_alive = read_y = 0
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
                    X[fill] = CX[fill] = CX1[col]
                    Y[fill] = CY[fill] = CY1[col]
                    Z[fill] = CZ[fill] = zs[cells - col * zs.size]
                    _squares(X[fill], Y[fill], Z[fill], D[fill], RHO2[fill], ZZ[fill])
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
                return read_y
            alive[:] = True
            n_alive = m
        read_y += step(X, Y, Z, D, RHO2, ZZ, XN, YN, ZN)
        XN += CX
        YN += CY
        ZN += CZ
        X, Y, Z, XN, YN, ZN = XN, YN, ZN, X, Y, Z
        _squares(X, Y, Z, D, RHO2, ZZ)
        # the certificate reads the old state last: then its buffer is free
        # until the next step
        # under a quarter pool its calls cost more than the lane steps they save
        if n % _TRAP_EVERY == 0 and n_alive >= _POOL_LANES // 4:
            done = _trapped(second, X, Y, Z, RHO2, ZZ, XN, YN, ZN, alive, hit)
            alive ^= done
            n_alive -= np.count_nonzero(done)
        new = np.greater(np.add(RHO2, ZZ, out=XN), 4.0, out=hit)
        new &= alive
        at = new.nonzero()[0]
        if at.size:
            counts[idx[at]] = n + 1 - start[at]
            alive[at] = False
            n_alive -= at.size
        if cohorts[0] + n_max - 2 == n:
            done = np.equal(start, cohorts.popleft(), out=hit)
            done &= alive
            alive ^= done
            n_alive -= np.count_nonzero(done)


def render_grid(cfg: FractalConfig, workers: int = 1) -> MembershipGrid:
    """Escape time at every cell center of the configured lattice.

    ``workers`` is an x-slab count, an integer: the lattice is split into
    ``min(workers, nx)`` x-slabs, at least one, rendered in turn on the
    calling thread.  Each cell is independent, so the counts are bitwise
    identical for any slab count.

    Both approaches square exactly symmetrically under z -> -z, and
    ``first`` also under y -> -y: every kernel operation commutes with
    negation under round-to-nearest.  ``second`` reads the sign of y where
    an orbit meets x = +-0, so its y-mirror holds only while no orbit does.
    No map is symmetric in x, so each x-slab holds whole pairs: of each pair
    of y- or z-planes whose centres negate exactly (``c[n-1-i] == -c[i]``),
    it renders the lower one and copies it into the upper one, unless a
    rendered orbit of ``second`` met x = +-0, which makes it render its
    skipped y-planes too.  The counts are the same bits as a full render.
    """
    xs, ys, zs = _cell_axes(cfg)
    slabs = min(max(operator.index(workers), 1), xs.size)
    blocks = [_render_block(cfg, part, ys, zs) for part in np.array_split(xs, slabs)]
    counts = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=0)
    counts.flags.writeable = False
    return MembershipGrid(config=cfg, counts=counts)


# -- exporters ---------------------------------------------------------------

def _byte_array(counts: np.ndarray, n_max: int) -> np.ndarray:
    # 0 = member, else 1 + floor(254 (n - 1) / (n_max - 1)); at n_max == 1
    # every count is 1, a member, so the divisor never matters. 254 n wraps
    # int32 once n > 8.45 million, so the product is taken in int64, and the
    # steps run in place so there is one such temporary.
    data = np.multiply(counts, 254, dtype=np.int64)
    data -= 254
    data //= max(n_max - 1, 1)
    data += 1
    data[counts >= n_max] = 0
    return data.astype(np.uint8)


def _slice_index(cfg: FractalConfig) -> tuple[int, int, float]:
    """Axis, index and centre of the sliced plane: the lattice plane whose
    centre is nearest the slice value, the lower one on a tie."""
    if cfg.slice_spec is None:
        raise ValueError("config has no slice; pgm_slice needs one")
    axis, value = cfg.slice_spec
    ai = _AXES.index(axis)
    centers = _cell_axes(cfg)[ai]
    idx = int(np.argmin(np.abs(centers - value)))
    return ai, idx, float(centers[idx])


def _slice_config(cfg: FractalConfig) -> FractalConfig:
    """The one-plane config of a sliced ``cfg``: the sliced axis narrowed to
    the centre c of its chosen plane, at resolution 1.  ``axis_centers(c, c,
    1)`` is exactly c (a centre is never -0.0), and a cell's count depends
    only on its own centre, so this render is that plane of the full one,
    bit for bit, and exports the same ``pgm_slice``."""
    ai, _, c = _slice_index(cfg)
    region, res = list(cfg.region), list(cfg.resolution)
    region[ai], res[ai] = (c, c), 1
    return FractalConfig(cfg.approach, cfg.n_max, region, res, cfg.slice_spec)


def export_grid(grid: MembershipGrid, fmt: str, destination) -> None:
    """Write ``grid`` to ``destination`` as ``pgm_slice``, ``csv`` or
    ``voxel_raw`` (the latter with a ``<destination>.meta`` sidecar)."""
    cfg = grid.config
    if fmt == "pgm_slice":
        ai, idx, _ = _slice_index(cfg)
        # the remaining axes in (x, y, z) order are the image width and height
        plane = np.take(grid.counts, idx, axis=ai)
        width, height = plane.shape
        data = _byte_array(plane, cfg.n_max)
        with open(destination, "wb") as fh:
            fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
            fh.write(data[:, ::-1].T.tobytes())  # top row = highest coordinate
    elif fmt == "csv":
        # Members (count n_max) are clipped to the last suffix slot, -1. A
        # plane with fewer cells than suffixes joins its suffixes per cell,
        # so no plane costs more than its size. One join and one write per
        # z-plane bound the memory.
        xs, ys, zs = ([f"{v:.9e}" for v in axis] for axis in _cell_axes(cfg))
        top = 1 + int(np.max(grid.counts, where=grid.counts < cfg.n_max, initial=0))
        tails = [f",{n}\n" for n in range(top)] + [",-1\n"]
        parts = [""] * (2 * len(xs) * len(ys))
        parts[::2] = [f"{xc},{yc}," for yc in ys for xc in xs]
        with open(destination, "w", encoding="ascii") as fh:
            fh.write("x,y,z,escape\n")
            for iz, zc in enumerate(zs):
                plane = np.minimum(grid.counts[:, :, iz], top).T.ravel()  # [iy, ix]
                if len(tails) <= plane.size:
                    ends = np.array([zc + tail for tail in tails], dtype=object)
                    parts[1::2] = ends[plane].tolist()
                else:
                    parts[1::2] = [zc + tails[n] for n in plane.tolist()]
                fh.write("".join(parts))
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
