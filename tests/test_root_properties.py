"""Hypothesis properties of ``nth_roots`` on the boundaries the seeded probes
avoid: latitudes exactly on +-pi/2, longitudes 0, -0.0 and one ulp below
2*pi, and moduli from subnormal to the largest float.

Oracle: ``naive_nth_roots`` in ``conftest``, the plain enumeration with a
linear first-seen dedup scan."""

import math

import pytest

from conftest import TAU, float_bits, naive_nth_roots
from hypercomplex import SphericalForm, nth_roots

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
    h, m = case
    rs = nth_roots(h, m)
    roots, survivors = naive_nth_roots(h, m)
    assert [float_bits(r) for r in rs.roots] == [float_bits(r) for r in roots]
    assert rs.multiplicity_note == survivors
    assert rs.roots
