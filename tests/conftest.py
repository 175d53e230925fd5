from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pytest
from hypothesis import strategies as st

from supersigma.grassmann import require_odd
from supersigma.gridfield import GrassmannField
from supersigma.spin_surface import GravitinoField, SpinorField
from supersigma.suites import _even_field, _odd_field, _odd_spinor
from supersigma.suites import _trig_array as trig_array  # noqa: F401 (re-exported to tests)
from supersigma.superdomain import Q_SIGN, SuperFunction

N_GEN = 6


@pytest.fixture
def rng():
    return np.random.default_rng(20260824)


@pytest.fixture
def derivative_log(monkeypatch):
    """Every (field, axis) pair ``GrassmannField.derivative`` is called with.

    The log holds the fields themselves, so no id is reused while it lives.
    """
    log = []
    original = GrassmannField.derivative

    def recording(self, axis):
        log.append((self, axis))
        return original(self, axis)

    monkeypatch.setattr(GrassmannField, "derivative", recording)
    return log


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


# Hypothesis strategies with small-integer coefficients: every sum and product
# of a few such elements is an exact float, so algebraic laws hold to 0.0.

def small_int_arrays(shape):
    size = int(np.prod(shape))
    return st.lists(st.integers(-3, 3), min_size=size, max_size=size).map(
        lambda v: np.array(v, dtype=float).reshape(shape))


def grassmann_fields(grid, n_gen, max_terms=3):
    return st.dictionaries(st.integers(0, (1 << n_gen) - 1), small_int_arrays(grid.shape),
                           max_size=max_terms).map(lambda d: GrassmannField(grid, n_gen, d))


def superfunctions(grid, n_odd, n_gen, max_terms=3):
    return st.dictionaries(st.integers(0, (1 << n_odd) - 1),
                           grassmann_fields(grid, n_gen, max_terms),
                           max_size=1 << n_odd).map(
        lambda d: SuperFunction(grid, n_odd, n_gen, d))


def homogeneous_part(f: SuperFunction, parity: int) -> SuperFunction:
    """The terms eta^gamma e^m of total degree |gamma| + |m| = parity (mod 2)."""
    return SuperFunction(f.grid, f.n_odd, f.n_gen, {
        gamma: GrassmannField(f.grid, f.n_gen, {
            m: a for m, a in c.terms.items() if (gamma.bit_count() + m.bit_count()) % 2 == parity})
        for gamma, c in f.terms.items()})


# An independent oracle for apply_Q: Q written as a super vector field.

@dataclass
class SuperVectorField:
    """V = V^a d_{x^a} + V^alpha d_{eta^alpha} with superfunction components."""

    even_components: Sequence[SuperFunction | None]
    odd_components: Sequence[SuperFunction | None]

    def apply(self, f: SuperFunction) -> SuperFunction:
        out = None
        for a, comp in enumerate(self.even_components, start=1):
            if comp is not None:
                term = comp * f.partial_even(a)
                out = term if out is None else out + term
        for alpha, comp in enumerate(self.odd_components, start=1):
            if comp is not None:
                term = comp * f.partial_odd(alpha)
                out = term if out is None else out + term
        if out is None:
            raise ValueError("vector field has no components")
        return out


def susy_vector_field(grid, n_gen, q) -> SuperVectorField:
    """Q as a SuperVectorField on R^{1|1}; agrees with apply_Q."""
    require_odd(q, "supersymmetry parameter q")
    q_field = SuperFunction.from_even(grid, 1, n_gen, GrassmannField.constant(grid, q))
    # Q = q d_eta + Q_SIGN * (q eta) d_x.  mul_odd_coordinate builds eta*q,
    # and q eta = -eta q for the odd constant q.
    even = q_field.mul_odd_coordinate(1) * (-Q_SIGN)
    return SuperVectorField(even_components=[even], odd_components=[q_field])
