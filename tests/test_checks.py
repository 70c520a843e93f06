import math
import re
import types

import pytest

from hypercomplex import CartesianVec, SphericalForm, checks
from hypercomplex import extensions as ext
from hypercomplex.cli import main

NAMES = [row[0] for row in checks._CHECKS]


def _squares_left(mul):
    # not commutative: a*b and b*a are a*a and b*b
    return lambda a, b, canonical=True: mul(a, a, canonical=canonical)


def _one_ulp_off(mul):
    def broken(a, b, canonical=True):
        p = mul(a, b, canonical=canonical)
        return SphericalForm(math.nextafter(p.modulus, math.inf), p.args)
    return broken


def _unflipped_replicate(replicate):
    # theta_k -> pi - theta_k without the half turn of theta_{k-1}: another point
    def broken(h, k):
        args = list(h.args)
        args[k - 2] = math.pi - args[k - 2]
        return SphericalForm(h.modulus, tuple(args))
    return broken


# probe name -> (module, function the probe calls, breaker of that function)
BREAKS = {
    "additive-group": (checks, "add", lambda add: lambda a, b: add(a, a)),
    "multiplicative-group": (checks, "mul_geometric", _squares_left),
    "representation-agreement": (checks, "mul_cartesian", lambda mul: lambda a, b: mul(a, a)),
    "spherical-roundtrip": (
        checks, "to_spherical",
        lambda to_sph: lambda v: SphericalForm(2.0 * to_sph(v).modulus, to_sph(v).args),
    ),
    "modulus-multiplicativity": (checks, "mul_geometric", _one_ulp_off),
    "complex-plane-embedding": (checks, "mul_cartesian", lambda mul: lambda a, b: mul(b, b)),
    "unit-imaginary-invariance": (checks, "mul_geometric", _squares_left),
    "root-roundtrip": (
        ext, "nth_roots",
        lambda roots: lambda h, m: types.SimpleNamespace(roots=roots(h, m).roots[1:]),
    ),
    "conjugate-products": (ext, "conjugate", lambda conj: lambda h, variant="full": h),
    # a componentwise product distributes over addition
    "distributivity-residual": (
        ext, "mul_cartesian",
        lambda mul: lambda a, b, *fallbacks: CartesianVec(
            tuple(x * y for x, y in zip(a.components, b.components))
        ),
    ),
    "replicate-preserves-point": (ext, "replicate", _unflipped_replicate),
    "scalar-embedding": (ext, "scalar_embed", lambda embed: lambda s, dim: embed(abs(s), dim)),
}


def _turned_longitude(to_sph):
    # the same modulus at another longitude
    def broken(v):
        h = to_sph(v)
        return SphericalForm(h.modulus, (h.args[0] + 0.5,) + h.args[1:])
    return broken


@pytest.mark.parametrize("breaker, broken", [
    (BREAKS["spherical-roundtrip"][2], "modulus relative error"),
    (_turned_longitude, "max argument error"),
])
def test_spherical_roundtrip_fails_only_the_broken_measure(monkeypatch, breaker, broken):
    monkeypatch.setattr(checks, "to_spherical", breaker(checks.to_spherical))
    result = {r.name: r for r in checks.run_property_checks(seed=0, trials=20)}[
        "spherical-roundtrip"]
    assert not result.passed, result
    measures = [re.fullmatch(r"(.+) (\S+) \(tol (\S+)\)", text).groups()
                for text in result.detail.split(", ")]
    assert [label for label, _, _ in measures] == ["modulus relative error",
                                                  "max argument error"]
    assert [float(value) > float(tol) for label, value, tol in measures] == [
        label == broken for label, _, _ in measures]


def test_every_probe_has_a_breaker():
    assert sorted(BREAKS) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_each_probe_fails_when_its_law_breaks(capsys, monkeypatch, name):
    module, attr, breaker = BREAKS[name]
    monkeypatch.setattr(module, attr, breaker(getattr(module, attr)))
    result = {r.name: r for r in checks.run_property_checks(seed=0, trials=20)}[name]
    assert not result.passed, result
    assert main(["property-check", "--trials", "20"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert f"FAIL {name}: {result.detail}" in lines


@pytest.mark.parametrize("seed", range(10))
def test_default_report_passes_on_seeds_0_to_9(seed):
    failed = [r for r in checks.run_property_checks(seed, 200) if not r.passed]
    assert failed == []


@pytest.mark.parametrize("trials", [0, -3])
def test_run_property_checks_needs_a_trial(trials):
    with pytest.raises(ValueError, match="trials must be at least 1"):
        checks.run_property_checks(seed=0, trials=trials)


def test_detail_holds_each_measure_with_its_tolerance():
    details = {r.name: r.detail for r in checks.run_property_checks(seed=0, trials=1)}
    assert details["modulus-multiplicativity"] == "exact over all samples"
    assert details["complex-plane-embedding"] == "bitwise equal to complex multiplication"
    raw, cart = details["multiplicative-group"].split(", ")
    assert raw.startswith("raw ") and raw.endswith(" (tol 1e-12)")
    assert cart.startswith("cartesian ") and cart.endswith(" (tol 1e-9)")
    witness, residual = details["distributivity-residual"].split(", ")
    assert witness == "witness 0.828427"  # |a*(b + c) - (a*b + a*c)| = 2*sqrt(2) - 2
    assert residual.startswith("collinear residual ") and residual.endswith(" (tol 1e-9)")
