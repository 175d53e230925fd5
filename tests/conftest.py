import numpy as np
import pytest

from supersigma.gridfield import GrassmannField
from supersigma.spin_surface import GravitinoField, SpinorField
from supersigma.suites import _even_field, _odd_field, _odd_spinor
from supersigma.suites import _trig_array as trig_array  # noqa: F401 (re-exported to tests)

N_GEN = 6


@pytest.fixture
def rng():
    return np.random.default_rng(20260824)


def even_field(rng, grid, scale=1.0, soul_mask=None, cutoff=3, n_gen=N_GEN):
    return _even_field(rng, grid, n_gen, scale=scale, soul_mask=soul_mask, cutoff=cutoff)


def odd_field(rng, grid, gens, scale=1.0, cutoff=3, n_gen=N_GEN):
    return _odd_field(rng, grid, n_gen, gens, scale=scale, cutoff=cutoff)


def odd_spinor(rng, grid, gens, scale=1.0, cutoff=3, n_gen=N_GEN):
    return _odd_spinor(rng, grid, n_gen, gens, scale=scale, cutoff=cutoff)


def constant_odd_spinor(rng, grid, gen, n_gen=N_GEN):
    return SpinorField([
        GrassmannField(grid, n_gen,
                       {1 << (gen - 1): np.full(grid.shape, float(rng.normal()))})
        for _ in range(2)])


def gravitino(rng, grid, gens=(3, 4), scale=0.5, n_gen=N_GEN):
    return GravitinoField([odd_spinor(rng, grid, gens, scale, n_gen=n_gen)
                           for _ in range(2)])
