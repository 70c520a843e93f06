"""Hypothesis property of ``render_grid``.

It draws lattices over the whole box and over member-heavy zooms, pool
sizes from one lane to the default, x-slab counts and iteration budgets,
so the pool's refills, compaction, cohort retirement, y- and z-mirrors and
the contraction certificate all run, in every mix.

Oracle: ``lockstep_counts`` in ``conftest``, which steps every cell of the
lattice together to n_max with no pool, no mirror and no certificate."""

from unittest import mock

import numpy as np
import pytest

from conftest import lockstep_counts
from hypercomplex import fractal
from hypercomplex.fractal import FractalConfig, render_grid

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# a bound that spans the box and one that zooms on the members near the
# origin, symmetric or not
bounds = st.sampled_from((-2.0, -0.5, -0.25, 0.0, 0.25, 0.5, 2.0)) | st.floats(-2.0, 2.0)
pools = st.sampled_from((1, 2, 3, 16, 64, fractal._POOL_LANES)) | st.integers(1, fractal._POOL_LANES)


@st.composite
def render_cases(draw):
    region = tuple(sorted((draw(bounds), draw(bounds))) for _ in range(3))
    resolution = tuple(draw(st.integers(1, 9)) for _ in range(3))
    pool = draw(pools)
    # a one-lane pool steps each cell alone, so the budget shrinks with it
    cells = resolution[0] * resolution[1] * resolution[2]
    n_max = draw(st.integers(1, min(120, max(24, 4000 * pool // cells))))
    cfg = FractalConfig(draw(st.sampled_from(("first", "second"))), n_max, region, resolution)
    return cfg, pool, draw(st.integers(1, 4))


def test_render_equals_lockstep_on_random_lattices():
    real = fractal._trapped
    fired = []

    def spy(*args):
        out = real(*args)
        fired.append(np.count_nonzero(out))
        return out

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(render_cases())
    def check(case):
        cfg, pool, workers = case
        with mock.patch.object(fractal, "_POOL_LANES", pool), \
                mock.patch.object(fractal, "_trapped", spy):
            counts = render_grid(cfg, workers=workers).counts
        assert np.array_equal(counts, lockstep_counts(cfg))

    check()
    # the certificate retired lanes in some of the renders it had to match
    assert sum(fired) > 0
