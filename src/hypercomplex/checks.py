"""Seeded invariant probes behind ``property-check``.

Each probe is a sampler: a generator over its own ``random.Random(seed)``
stream, so a fixed seed reproduces the report byte for byte.  Per trial it
yields a tuple with one gap per measure, or the failure text of an exact
law; set-up such as the distributivity witness runs once, before the first
sample.  A ``_CHECKS`` row holds a probe's name, its sampler and a ``(label,
tolerance)`` pair per measure.  ``_worst`` keeps each measure's worst value
and ``_report`` decides pass or fail and writes the detail.  A tolerance is
the text of an upper bound; ``None`` marks a witness the sampler checks
itself or, with no value yielded, an exact law whose label is the detail.

Sampling keeps latitudes within +-1.2 rad and moduli in [0.2, 3] so partial
moduli stay well away from the degenerate axis; the degenerate paths have
their own probes.
"""

from __future__ import annotations

import math
import random
from itertools import islice, zip_longest
from typing import NamedTuple

from . import extensions as ext
from .core import (
    TAU,
    CartesianVec,
    SphericalForm,
    add,
    canonicalize,
    identity,
    inverse,
    mul_cartesian,
    mul_geometric,
    pow_int,
    to_cartesian,
    to_spherical,
)

__all__ = ["CheckResult", "run_property_checks"]


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _rand_form(rng: random.Random, dim: int) -> SphericalForm:
    args = [rng.uniform(0.0, TAU)] + [
        rng.uniform(-1.2, 1.2) for _ in range(dim - 2)
    ]
    return SphericalForm(rng.uniform(0.2, 3.0), tuple(args))


def _max_gap(xs, ys) -> float:
    return max(abs(x - y) for x, y in zip(xs, ys))


def _max_cart_gap(a: SphericalForm, b: SphericalForm) -> float:
    return _max_gap(to_cartesian(a).components, to_cartesian(b).components)


def _additive_group(rng):
    while True:
        dim = rng.choice((3, 4, 7))
        a, b, c = (to_cartesian(_rand_form(rng, dim)) for _ in range(3))
        assoc = add(add(a, b), c) - add(a, add(b, c))
        comm = add(a, b) - add(b, a)
        ident = add(a, CartesianVec((0.0,) * dim)) - a
        inv = add(a, -a)
        yield (max(abs(x) for v in (assoc, comm, ident, inv) for x in v.components),)


def _multiplicative_group(rng):
    while True:
        dim = rng.choice((3, 4, 7))
        a, b, c = (_rand_form(rng, dim) for _ in range(3))
        left = mul_geometric(mul_geometric(a, b, canonical=False), c, canonical=False)
        right = mul_geometric(a, mul_geometric(b, c, canonical=False), canonical=False)
        ab, ba = mul_geometric(a, b, canonical=False), mul_geometric(b, a, canonical=False)
        raw = max(
            _max_gap((left.modulus, *left.args), (right.modulus, *right.args)),
            _max_gap((ab.modulus, *ab.args), (ba.modulus, *ba.args)),
            abs(mul_geometric(a, identity(dim), canonical=False).modulus - a.modulus),
            abs(mul_geometric(a, inverse(a)).modulus - 1.0),
        )
        yield raw, _max_cart_gap(canonicalize(left), canonicalize(right))


def _representation_agreement(rng):
    while True:
        dim = rng.choice((3, 4, 7))
        ha, hb = _rand_form(rng, dim), _rand_form(rng, dim)
        a, b = to_cartesian(ha), to_cartesian(hb)
        direct = mul_cartesian(a, b)
        via_geo = to_cartesian(mul_geometric(to_spherical(a), to_spherical(b)))
        scale = ha.modulus * hb.modulus
        yield (_max_gap(direct.components, via_geo.components) / scale,)


def _roundtrip(rng):
    while True:
        dim = rng.choice((3, 4, 7))
        h = canonicalize(_rand_form(rng, dim))
        back = to_spherical(to_cartesian(h))
        yield (abs(h.modulus - back.modulus) / max(h.modulus, 1e-300),
               max(abs(math.remainder(x - y, TAU)) for x, y in zip(h.args, back.args)))


def _modulus_multiplicative(rng):
    while True:
        dim = rng.choice((3, 4, 7))
        a, b = _rand_form(rng, dim), _rand_form(rng, dim)
        exact = mul_geometric(a, b).modulus == a.modulus * b.modulus
        yield () if exact else "modulus of product != product of moduli"


def _complex_plane(rng):
    while True:
        x, y, u, v = (rng.uniform(-2, 2) for _ in range(4))
        got = mul_cartesian(CartesianVec((x, y, 0.0)), CartesianVec((u, v, 0.0)))
        want = (x * u - y * v, x * v + u * y, 0.0)
        yield () if got.components == want else f"plane product diverged at {(x, y, u, v)}"


def _unit_imaginary_invariance(rng):
    while True:
        dim = rng.choice((4, 5, 7))
        m = rng.randrange(3, dim + 1)
        args = [rng.uniform(0.0, TAU)] + [
            rng.uniform(-1.2, 1.2) if k < m else 0.0 for k in range(3, dim + 1)
        ]
        a = SphericalForm(1.0, tuple(args))
        b_args = [0.0] * (dim - 1)
        b_args[m - 2] = rng.choice((1.0, -1.0)) * (0.5 * math.pi)
        b = SphericalForm(1.0, tuple(b_args))
        yield (_max_cart_gap(mul_geometric(a, b), b),)


def _root_roundtrip(rng):
    while True:
        dim = rng.choice((3, 4))
        m = rng.choice((2, 3, 4))
        h = canonicalize(_rand_form(rng, dim))
        rs = ext.nth_roots(h, m)
        if dim == 3 and len(rs.roots) != m * m:
            yield f"3D root count {len(rs.roots)} != {m * m}"
        else:
            target = to_cartesian(h).components
            backs = (to_cartesian(pow_int(root, m)).components for root in rs.roots)
            yield (max((_max_gap(back, target) for back in backs), default=0.0),)


def _conjugates(rng):
    while True:
        h = _rand_form(rng, 3)
        r2 = h.modulus * h.modulus
        theta, phi = h.args
        full = to_cartesian(mul_geometric(h, ext.conjugate(h, "full"))).components
        second = to_cartesian(mul_geometric(h, ext.conjugate(h, "second"))).components
        want2 = (r2 * math.cos(2 * phi), 0.0, r2 * math.sin(2 * phi))
        third = to_cartesian(mul_geometric(h, ext.conjugate(h, "third"))).components
        want3 = (r2 * math.cos(2 * theta), r2 * math.sin(2 * theta), 0.0)
        yield (max(abs(full[0] - r2) / r2, abs(full[1]) / r2, abs(full[2]) / r2,
                   _max_gap(second, want2) / r2, _max_gap(third, want3) / r2),)


def _distributivity(rng):
    witness = ext.distributivity_residual(
        CartesianVec((1.0, 1.0, 1.0)),
        CartesianVec((1.0, 0.0, 1.0)),
        CartesianVec((0.0, 1.0, 1.0)),
    ).norm()
    if witness <= 0.1:
        yield f"witness residual {witness:.3e} not > 0.1"
    while True:
        a = to_cartesian(_rand_form(rng, 3))
        lon, lat = rng.uniform(0, TAU), rng.uniform(-1.2, 1.2)
        b = to_cartesian(SphericalForm(rng.uniform(0.2, 3.0), (lon, lat)))
        c = to_cartesian(SphericalForm(rng.uniform(0.2, 3.0), (lon, lat)))
        yield witness, ext.distributivity_residual(a, b, c).norm()


def _replicate_preserves_point(rng):
    while True:
        dim = rng.choice((3, 4, 7))
        h = _rand_form(rng, dim)
        k = rng.randrange(3, dim + 1)
        yield (_max_cart_gap(h, ext.replicate(h, k)),)


def _scalar_embedding(rng):
    while True:
        dim = rng.choice((3, 4, 7))
        s = rng.uniform(-3.0, 3.0)
        h = _rand_form(rng, dim)
        scaled = to_cartesian(mul_geometric(h, ext.scalar_embed(s, dim))).components
        yield (_max_gap(scaled, (s * c for c in to_cartesian(h).components)),)


_CHECKS = (
    ("additive-group", _additive_group, ("max deviation", "1e-12")),
    ("multiplicative-group", _multiplicative_group, ("raw", "1e-12"), ("cartesian", "1e-9")),
    ("representation-agreement", _representation_agreement, ("max relative gap", "1e-9")),
    ("spherical-roundtrip", _roundtrip, ("modulus relative error", "1e-12"),
     ("max argument error", "1e-12")),
    ("modulus-multiplicativity", _modulus_multiplicative, ("exact over all samples", None)),
    ("complex-plane-embedding", _complex_plane, ("bitwise equal to complex multiplication", None)),
    ("unit-imaginary-invariance", _unit_imaginary_invariance, ("max |a*b - b|", "1e-12")),
    ("root-roundtrip", _root_roundtrip, ("max power-back gap", "1e-8")),
    ("conjugate-products", _conjugates, ("max relative gap", "1e-9")),
    ("distributivity-residual", _distributivity, ("witness", None), ("collinear residual", "1e-9")),
    ("replicate-preserves-point", _replicate_preserves_point, ("max displacement", "1e-12")),
    ("scalar-embedding", _scalar_embedding, ("max |s*v - embed(s)*v|", "1e-12")),
)


def _worst(samples, trials: int):
    """Each measure's worst value over ``trials`` samples, or the first failure text."""
    worst = ()
    for got in islice(samples, trials):
        if isinstance(got, str):
            return got
        worst = tuple(map(max, worst or (0.0,) * len(got), got))
    return worst


def _report(name: str, measures, worst) -> CheckResult:
    """Pass or fail, with each measure's label, worst value and tolerance."""
    if isinstance(worst, str):
        return CheckResult(name, False, worst)
    passed, texts = True, []
    for (label, tol), value in zip_longest(measures, worst):
        if value is None:  # an exact law that held on every sample
            texts.append(label)
        elif tol is None:  # a witness its sampler has checked
            texts.append(f"{label} {value:.6f}")
        else:
            passed = passed and value <= float(tol)
            texts.append(f"{label} {value:.3e} (tol {tol})")
    return CheckResult(name, passed, ", ".join(texts))


def run_property_checks(seed: int = 0, trials: int = 200) -> list[CheckResult]:
    """Run every probe with its own seeded stream; same seed, same report."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    return [
        _report(name, measures, _worst(sampler(random.Random(f"{seed}:{name}")), trials))
        for name, sampler, *measures in _CHECKS
    ]
