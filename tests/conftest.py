from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pytest
from hypothesis import strategies as st

from supersigma.grassmann import GrassmannNumber, require_odd
from supersigma.gridfield import GrassmannField
from supersigma.sigma2d import ComponentFields
from supersigma.spin_surface import GravitinoField, SpinorField, SurfaceGeometry
from supersigma.suites import CHI_GENS, PSI_GENS, Q_GEN, _draw_modes, _synthesize
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


# Per-fixture builders: each draws its arrays one at a time, with the scalar
# generator calls of the suites' chunk draws, so they serve as oracles for the
# stacked suites as well as fixtures for the unit tests.

def trig_array(rng, grid, cutoff=3, n_modes=3, scale=1.0):
    """One trig array of ``n_modes`` modes, drawn from ``rng`` and synthesized."""
    return _synthesize(grid, _draw_modes(rng, grid.ndim, cutoff, scale, n_modes))


def even_field(rng, grid, scale=1.0, soul_mask=None, cutoff=3, n_gen=N_GEN):
    terms = {0: trig_array(rng, grid, cutoff=cutoff, scale=scale)}
    if soul_mask is not None:
        terms[soul_mask] = trig_array(rng, grid, cutoff=cutoff, scale=scale)
    return GrassmannField(grid, n_gen, terms)


def odd_field(rng, grid, gens, scale=1.0, cutoff=3, n_gen=N_GEN):
    return GrassmannField(grid, n_gen, {1 << (g - 1): trig_array(rng, grid, cutoff=cutoff,
                                                                 scale=scale)
                                        for g in gens})


def odd_spinor(rng, grid, gens, scale=1.0, cutoff=3, n_gen=N_GEN):
    return SpinorField([odd_field(rng, grid, [g], scale, cutoff, n_gen) for g in gens])


def constant_odd_spinor(rng, grid, gen, n_gen=N_GEN):
    return SpinorField([
        GrassmannField(grid, n_gen,
                       {1 << (gen - 1): np.full(grid.shape, float(rng.normal()))})
        for _ in range(2)])


def gravitino(rng, grid, gens=CHI_GENS, scale=0.5, n_gen=N_GEN):
    return GravitinoField([odd_spinor(rng, grid, gens, scale, n_gen=n_gen)
                           for _ in range(2)])


def sigma_fixture(rng, grid, with_chi, n_gen=N_GEN, local_q=False):
    """(geom, chi, fields, q) as the suites draw one sigma-model fixture on the
    flat identity frame, F = 0: phi, psi, chi if ``with_chi`` (else chi = 0),
    then q on generator 5, constant or (``local_q``) two trig arrays."""
    fields = ComponentFields(phi=[even_field(rng, grid, scale=0.7, n_gen=n_gen)],
                             psi=[odd_spinor(rng, grid, PSI_GENS, scale=0.6, n_gen=n_gen)],
                             F=[GrassmannField.zero(grid, n_gen)])
    chi = gravitino(rng, grid, n_gen=n_gen) if with_chi else GravitinoField.zero(grid, n_gen)
    if local_q:
        q = odd_spinor(rng, grid, (Q_GEN, Q_GEN), scale=0.7, n_gen=n_gen)
    else:
        q = constant_odd_spinor(rng, grid, Q_GEN, n_gen=n_gen)
    return SurfaceGeometry.flat(grid, n_gen), chi, fields, q


def stack(items: list):
    """One value holding every fixture of ``items`` on a leading sample axis.

    ``items`` are like-shaped per-fixture values: Grassmann numbers, fields,
    spinors, gravitinos, component fields, or tuples of these.  A monomial
    missing from some fixture is zero there; a single item is returned as it
    is.  Stacked Grassmann numbers have one coefficient per fixture.
    """
    first = items[0]
    if len(items) == 1:
        return first
    if isinstance(first, tuple):
        return tuple(stack(list(column)) for column in zip(*items))
    if isinstance(first, GrassmannNumber):
        masks = dict.fromkeys(m for q in items for m in q.terms)
        return GrassmannNumber(first.n_gen, {
            m: np.array([q.terms.get(m, 0.0) for q in items]) for m in masks})
    if isinstance(first, GrassmannField):
        masks = dict.fromkeys(m for f in items for m in f.terms)
        zero = np.zeros(first.grid.shape)
        return GrassmannField(first.grid, first.n_gen, {
            m: np.stack([f.terms.get(m, zero) for f in items]) for m in masks})
    if isinstance(first, SpinorField):
        return SpinorField(stack([s.comps for s in items]))
    if isinstance(first, GravitinoField):
        return GravitinoField(stack([g.chi for g in items]))
    if isinstance(first, ComponentFields):
        # The fixtures stacked here have no winding.
        return ComponentFields(phi=list(stack([tuple(f.phi) for f in items])),
                               psi=list(stack([tuple(f.psi) for f in items])),
                               F=list(stack([tuple(f.F) for f in items])),
                               winding=first.winding)
    raise TypeError(f"cannot stack {type(first).__name__}")


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
