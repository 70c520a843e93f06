import math
import random

import pytest

from conftest import assert_value_contract
from hypercomplex import (
    CartesianVec,
    EventDelta,
    doubled_latitude_quadrant,
    interval_sq,
    lorentz_boost,
    pow_int,
    square_and_project,
    to_cartesian,
    to_spherical,
)


def test_interval_reference_points():
    assert interval_sq(EventDelta(1, 0, 0, 2)) == 3.0
    assert interval_sq(EventDelta(0, 0, 0, 0)) == 0.0
    assert interval_sq(EventDelta(1, 0, 0, 1)) == 0.0


@pytest.mark.parametrize("d, want", [
    # (c*dt)^2 and dx^2 each overflow, but their difference does not
    (EventDelta(1e155, 0, 0, 1e155), 0.0),
    (EventDelta(1e200, 0, 0, 1e200), 0.0),
    (EventDelta(1.9e154, 0, 0, 2e154), 3.9e307),
    # ds^2 itself past the float range
    (EventDelta(1e300, 0, 0, 0), -math.inf),
    (EventDelta(0, 1e200, 0, 1e300), math.inf),
])
def test_interval_of_huge_components(d, want):
    # the squares round as in the plain expression, to within 2^-52 of the
    # largest, so a difference 10x smaller keeps about 14 digits
    assert interval_sq(d) == pytest.approx(want, rel=1e-14)


def test_interval_keeps_the_plain_expression_below_the_scaling():
    rng = random.Random(28)
    for _ in range(1000):
        d = EventDelta(*(rng.uniform(-1, 1) * 10.0 ** rng.uniform(-300, 150)
                         for _ in range(4)))
        plain = d.cdt * d.cdt - d.dx * d.dx - d.dy * d.dy - d.dz * d.dz
        got = interval_sq(d)
        assert got == plain and math.copysign(1, got) == math.copysign(1, plain)


def test_square_and_project_returns_a_plain_pair():
    got = square_and_project(EventDelta(1, 0, 0, 2))
    assert type(got) is tuple and len(got) == 2
    assert all(type(v) is float for v in got)


def test_square_and_project_reference_points():
    spatial, time_comp = square_and_project(EventDelta(1, 0, 0, 2))
    assert abs(spatial - 3.0) < 1e-12
    assert abs(time_comp - 4.0) < 1e-12

    spatial, time_comp = square_and_project(EventDelta(0, 0, 0, 1.5))
    assert abs(spatial - 1.5 ** 2) < 1e-12
    assert abs(time_comp) < 1e-12

    spatial, _ = square_and_project(EventDelta(1, 0, 0, 1))
    assert abs(spatial) < 1e-12


@pytest.mark.parametrize("scale", [1e100, 1e-100])
def test_square_and_project_extreme_scale(scale):
    # the square's components are 1e+-200: their squares leave the float range
    d = EventDelta(scale, 0, 0, 0)
    spatial, time_comp = square_and_project(d)
    target = abs(interval_sq(d))
    assert 0.0 < spatial < math.inf
    assert abs(spatial - target) <= 1e-12 * target
    assert time_comp == 0.0


def test_square_and_project_scales_a_huge_delta():
    # the unscaled square's modulus, 1.8e308, is past the float range, but
    # |ds^2| = 1.7856e308 and the time component 2.68e307 are not
    spatial, time_comp = square_and_project(EventDelta(1e153, 0, 0, 1.34e154))
    assert spatial == pytest.approx(1.7856e308, rel=1e-12)
    assert time_comp == pytest.approx(2.68e307, rel=1e-12)


@pytest.mark.parametrize("d, exact_time", [
    (EventDelta(1e10, 0, 0, 1e-320), 2.0e-310),  # the latitude underflows
    (EventDelta(2.0 ** 511, 0, 0, 2.0 ** -600), 3.23e-27),  # the scaling flushes cdt
])
def test_square_and_project_loses_a_time_component_below_the_latitude_range(d, exact_time):
    # a representation limit: the time component 2 cdt r3 is a nonzero
    # float, but the latitude that carries it is 0.0
    assert math.isclose(2.0 * d.cdt * d.dx, exact_time, rel_tol=1e-3)
    assert square_and_project(d) == (d.dx * d.dx, 0.0)


@pytest.mark.parametrize("d, message", [
    (EventDelta(1e200, 0, 0, 2), "result modulus overflowed to inf"),
    (EventDelta(1e154, 0, 0, 1e154), "result components overflowed"),  # time 2e308
])
def test_square_and_project_result_past_the_float_range(d, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        square_and_project(d)


def test_square_and_project_keeps_the_plain_square_below_the_scaling():
    rng = random.Random(29)
    for _ in range(1000):
        d = EventDelta(*(rng.uniform(-1, 1) * 2.0 ** rng.uniform(-500, 510)
                         for _ in range(4)))
        x, y, z, w = to_cartesian(pow_int(to_spherical(CartesianVec(
            (d.dx, d.dy, d.dz, d.cdt))), 2)).components
        assert square_and_project(d) == (math.hypot(x, y, z), w)


def test_boost_reference_points():
    d = EventDelta(1, 0, 0, 2)
    assert lorentz_boost(d, 0.0) == d
    b = lorentz_boost(d, 0.6)
    assert abs(b.dx - (-0.25)) < 1e-12
    assert abs(b.cdt - 1.75) < 1e-12
    assert b.dy == 0.0 and b.dz == 0.0
    assert abs(interval_sq(b) - 3.0) < 1e-12


def test_boost_speed_validation():
    for beta in (1.0, -1.0, 1.5):
        with pytest.raises(ValueError):
            lorentz_boost(EventDelta(1, 0, 0, 2), beta)


def _sample(rng):
    while True:
        d = EventDelta(*(rng.uniform(-3, 3) for _ in range(4)))
        r2 = d.dx ** 2 + d.dy ** 2 + d.dz ** 2 + d.cdt ** 2
        if abs(interval_sq(d)) > 1e-3 * r2 > 0:
            return d


def test_interval_invariance_under_boost():
    rng = random.Random(6)
    for _ in range(300):
        d = _sample(rng)
        beta = rng.uniform(-0.99, 0.99)
        got = interval_sq(lorentz_boost(d, beta))
        assert abs(got - interval_sq(d)) <= 1e-9 * abs(interval_sq(d))


def test_spatial_modulus_equals_abs_interval():
    rng = random.Random(10)
    for _ in range(300):
        d = _sample(rng)
        beta = rng.uniform(-0.99, 0.99)
        target = abs(interval_sq(d))
        for delta in (d, lorentz_boost(d, beta)):
            spatial, _ = square_and_project(delta)
            assert abs(spatial - target) <= 1e-9 * target


def test_time_component_closed_form():
    rng = random.Random(14)
    for _ in range(300):
        d = _sample(rng)
        _, time_comp = square_and_project(d)
        r3 = math.sqrt(d.dx ** 2 + d.dy ** 2 + d.dz ** 2)
        want = 2.0 * d.cdt * r3
        scale = d.dx ** 2 + d.dy ** 2 + d.dz ** 2 + d.cdt ** 2
        assert abs(time_comp - want) <= 1e-9 * max(1.0, scale)


def test_quadrant_tracks_interval_sign():
    # timelike displacement: doubled latitude lands in quadrants 1-2,
    # spacelike: quadrant 0 or 3
    assert doubled_latitude_quadrant(EventDelta(0.1, 0, 0, 2.0)) in (1, 2)
    assert doubled_latitude_quadrant(EventDelta(2.0, 0, 0, 0.1)) in (0, 3)


def test_event_delta_validation():
    with pytest.raises(ValueError):
        EventDelta(math.nan, 0, 0, 0)


def test_event_delta_is_a_frozen_record():
    assert_value_contract(
        EventDelta(1, -2, 0.5, 3),
        "EventDelta(dx=1.0, dy=-2.0, dz=0.5, cdt=3.0)",
        dx=1.0, dy=-2.0, dz=0.5, cdt=3.0,
    )


@pytest.mark.parametrize("coords, message", [
    ((math.inf, 0, 0, 0), "dx must be finite"),
    ((0, math.nan, 0, 0), "dy must be finite"),
    ((0, 0, -math.inf, 0), "dz must be finite"),
    ((0, 0, 0, math.nan), "cdt must be finite"),
    # fields are coerced and checked in order
    ((math.nan, "not a number", 0, 0), "dx must be finite"),
    ((0, "not a number", math.nan, 0), "could not convert string to float: 'not a number'"),
])
def test_event_delta_error_messages(coords, message):
    with pytest.raises(ValueError) as exc:
        EventDelta(*coords)
    assert str(exc.value) == message
