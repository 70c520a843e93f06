"""Hypothesis properties of ``nth_roots``.

The first draws the boundaries the seeded probes avoid: latitudes exactly on
+-pi/2, longitudes 0, -0.0 and one ulp below 2*pi, and moduli from subnormal
to the largest float.  These mostly take the filtered enumeration.  The
second draws the generic region, open-interval latitudes in dims 3-6, which
mostly takes the closed form.

Oracle: ``naive_nth_roots`` in ``conftest``, the plain enumeration with a
linear first-seen dedup scan."""

import math

import pytest

from conftest import TAU, assert_matches_naive_scan
from hypercomplex import SphericalForm

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

PI = math.pi

longitudes = st.sampled_from((0.0, -0.0, math.nextafter(TAU, 0.0), PI)) | st.floats(0.0, TAU)
latitudes = st.sampled_from((PI / 2, -PI / 2, 0.0, -0.0)) | st.floats(-PI / 2, PI / 2)
moduli = st.sampled_from((0.0, 5e-324, 1e-310, 1.0, 1.7976931348623157e308)) | st.floats(
    1e-300, 1e300)


@st.composite
def root_inputs(draw):
    dim = draw(st.integers(3, 4))
    args = (draw(longitudes),) + tuple(draw(latitudes) for _ in range(dim - 2))
    return SphericalForm(draw(moduli), args), draw(st.integers(1, 3))


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(root_inputs())
def test_roots_equal_naive_scan_on_boundaries(case):
    assert_matches_naive_scan(*case)


# The oracle's linear dedup scan grows with the square of the root count, so
# (dim, m) pairs stop at 1024 candidates: 6D m=3 (1215) takes half a second
# per example and is covered by the seeded and guard-edge tests instead.
generic_shapes = st.sampled_from(tuple(
    (dim, m) for dim in range(3, 7) for m in range(1, 6) if (dim - 1) * m ** (dim - 1) <= 1024
))


@st.composite
def generic_root_inputs(draw):
    dim, m = draw(generic_shapes)
    args = (draw(st.floats(0.0, TAU, exclude_max=True)),) + tuple(
        draw(st.floats(-PI / 2, PI / 2, exclude_min=True, exclude_max=True))
        for _ in range(dim - 2))
    return SphericalForm(draw(st.floats(1e-300, 1e300)), args), m


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(generic_root_inputs())
def test_roots_equal_naive_scan_on_generic_inputs(case):
    assert_matches_naive_scan(*case)
