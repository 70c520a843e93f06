"""Shared samplers and oracles for the test suite."""

import copy
import itertools
import math
import pickle
import random

import numpy as np
import pytest

from hypercomplex import SphericalForm, canonicalize, nth_roots, pow_int, replicate, to_cartesian

TAU = 2.0 * math.pi


def random_form(rng: random.Random, dim: int, max_modulus: float = 3.0,
                lat_bound: float = 1.2) -> SphericalForm:
    """Canonical-range value with latitudes bounded away from +-pi/2 so all
    partial moduli stay comfortably nonzero."""
    args = [rng.uniform(0.0, TAU)] + [
        rng.uniform(-lat_bound, lat_bound) for _ in range(dim - 2)
    ]
    return SphericalForm(rng.uniform(0.2, max_modulus), tuple(args))


def random_vec(rng: random.Random, dim: int, **kw):
    return to_cartesian(random_form(rng, dim, **kw))


def classical_escape(cx: float, cy: float, n_max: int) -> int:
    """Independent complex-plane escape map: z -> z^2 + c, strict radius-2
    test on the squared modulus, n_max = member."""
    x = y = 0.0
    for n in range(1, n_max + 1):
        x, y = x * x - y * y + cx, 2.0 * x * y + cy
        if x * x + y * y > 4.0:
            return n
    return n_max


def lockstep_counts(cfg) -> np.ndarray:
    """Escape counts with every cell of the lattice stepped together, from
    h_1 = c, until all have escaped or n_max is reached: the render without
    its lane pool, its axis tables or its compaction.  It runs the module's
    own ``_squares`` and step kernel, so the render must match it bit for
    bit."""
    from hypercomplex import fractal

    axes = [fractal.axis_centers(lo, hi, n) for (lo, hi), n in zip(cfg.region, cfg.resolution)]
    CX, CY, CZ = (a.ravel() for a in np.meshgrid(*axes, indexing="ij"))
    X, Y, Z = CX.copy(), CY.copy(), CZ.copy()
    D, RHO2, ZZ, XN, YN, ZN = np.empty((6, CX.size))
    step = fractal._STEPS[cfg.approach]
    counts = np.full(CX.size, cfg.n_max, dtype=np.int32)
    alive = np.ones(CX.size, dtype=bool)
    with np.errstate(all="ignore"):
        for n in range(1, cfg.n_max + 1):
            if n > 1:
                X, Y, Z, XN, YN, ZN = *step(X, Y, Z, D, RHO2, ZZ, CX, CY, CZ, XN, YN, ZN), X, Y, Z
            fractal._squares(X, Y, Z, D, RHO2, ZZ)
            new = (RHO2 + ZZ > 4.0) & alive
            counts[new] = n
            alive &= ~new
            if not alive.any():
                break
    return counts.reshape(cfg.resolution)


def kernel_step(approach: str, states, cs) -> list[tuple[float, float, float]]:
    """One step ``h -> h**2 + c`` of an approach's array kernel on many
    points in one call: the module's own ``_squares`` and step, as the render
    runs them.  ``states`` is a sequence of (x, y, z); ``cs`` is one per
    state or a single point for all.  Returns the next states as tuples of
    Python floats."""
    from hypercomplex import fractal

    X, Y, Z = np.array(states, dtype=float).reshape(-1, 3).T.copy()
    CX, CY, CZ = np.broadcast_to(np.asarray(cs, dtype=float), (X.size, 3)).T.copy()
    D, RHO2, ZZ, XN, YN, ZN = np.empty((6, X.size))
    with np.errstate(all="ignore"):
        fractal._squares(X, Y, Z, D, RHO2, ZZ)
        nxt = fractal._STEPS[approach](X, Y, Z, D, RHO2, ZZ, CX, CY, CZ, XN, YN, ZN)
    return [tuple(p) for p in np.stack(nxt, axis=1).tolist()]


def escape_byte(n: int, n_max: int) -> int:
    """Independent scalar PGM/voxel byte of an escape count: 0 for a member
    (count n_max), else ``1 + floor(254*(n - 1)/(n_max - 1))``."""
    if n >= n_max:
        return 0
    return 1 + (254 * (n - 1)) // (n_max - 1)


def max_gap(seq_a, seq_b) -> float:
    return max(abs(x - y) for x, y in zip(seq_a, seq_b))


def angle_gap(a: float, b: float) -> float:
    return abs(math.remainder(a - b, TAU))


def naive_nth_roots(h: SphericalForm, m: int):
    """The root enumeration written plainly: public ``canonicalize``,
    ``pow_int`` and ``to_cartesian`` on every candidate, the power-back check
    and the Cartesian dedup on the unit sphere (tolerances 1e-8 and 1e-9),
    and a linear first-seen scan over the kept roots.

    Returns ``(roots, multiplicity_note)``."""
    if h.modulus == 0.0:
        return [SphericalForm(0.0, (0.0,) * (h.dim - 1))], 1

    def unit_point(form):
        return to_cartesian(SphericalForm(1.0, form.args)).components

    target = unit_point(h)
    r_root = h.modulus ** (1.0 / m)
    kept, survivors = [], 0
    for form in [h] + [replicate(h, k) for k in range(3, h.dim + 1)]:
        for combo in itertools.product(range(m), repeat=h.dim - 1):
            cand = canonicalize(SphericalForm(
                r_root, tuple(t / m + j * (TAU / m) for t, j in zip(form.args, combo))))
            back = unit_point(pow_int(cand, m))
            if max_gap(back, target) > 1e-8:
                continue
            survivors += 1
            point = unit_point(cand)
            if not any(max_gap(point, other) <= 1e-9 for _, other in kept):
                kept.append((cand, point))
    return [root for root, _ in kept], survivors


def float_bits(root: SphericalForm):
    """Modulus and arguments as hex strings, so -0.0 and last bits count."""
    return (root.modulus.hex(),) + tuple(a.hex() for a in root.args)


def assert_matches_naive_scan(h: SphericalForm, m: int) -> None:
    """``nth_roots`` equals the naive oracle: same bits, order and note."""
    rs = nth_roots(h, m)
    roots, survivors = naive_nth_roots(h, m)
    assert [float_bits(r) for r in rs.roots] == [float_bits(r) for r in roots]
    assert rs.multiplicity_note == survivors
    assert rs.roots


def assert_value_contract(value, text: str, **fields) -> None:
    """The frozen-record contract of a value type: ``repr`` is ``text``;
    ``==`` and ``hash`` go by the field tuple, positional or keyword, but
    the bare tuple is not equal; fields can be neither assigned nor
    deleted; pickle (every protocol), copy and deepcopy round-trip; class
    patterns match the fields positionally."""
    cls = type(value)
    values = tuple(fields.values())
    assert repr(value) == text
    assert cls.__match_args__ == tuple(fields)
    assert value == cls(*values) == cls(**fields)
    assert not value != cls(*values)
    assert hash(value) == hash(values)
    assert value != values
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in fields) == values
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is cls and back == value
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
