import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from supersigma.berezin import berezin_integrate
from supersigma.gridfield import GrassmannField, Grid
from supersigma.superdomain import SuperFunction

from conftest import N_GEN, even_field, odd_field, superfunctions


@pytest.fixture
def grid():
    return Grid((64,), (2.0 * np.pi,))


def test_top_coefficient_rule(rng, grid):
    f0 = even_field(rng, grid, soul_mask=0b11) + odd_field(rng, grid, [1])
    f1 = even_field(rng, grid) + odd_field(rng, grid, [2])
    sf = SuperFunction(grid, 1, N_GEN, {0: f0, 1: f1})
    value = berezin_integrate(sf)
    assert value.max_abs_diff(f1.integral()) < 1e-13


def test_body_only_function_integrates_to_zero(rng, grid):
    sf = SuperFunction.from_even(grid, 1, N_GEN, np.sin(grid.axis_points(0)))
    assert berezin_integrate(sf).is_zero()


def test_two_odd_coordinates_top_slot(rng, grid):
    top = even_field(rng, grid)
    sf = SuperFunction(grid, 2, N_GEN, {
        0: even_field(rng, grid),
        0b01: odd_field(rng, grid, [1]),
        0b10: odd_field(rng, grid, [2]),
        0b11: top,
    })
    value = berezin_integrate(sf)
    assert value.max_abs_diff(top.integral()) < 1e-13


def test_linearity(rng, grid):
    a = SuperFunction(grid, 1, N_GEN, {1: even_field(rng, grid)})
    b = SuperFunction(grid, 1, N_GEN, {1: odd_field(rng, grid, [3])})
    lhs = berezin_integrate(a * 2.0 + b)
    rhs = berezin_integrate(a) * 2.0 + berezin_integrate(b)
    assert lhs.max_abs_diff(rhs) < 1e-13


def test_quadrature_spectrally_exact(grid):
    x = grid.axis_points(0)
    sf = SuperFunction(grid, 1, N_GEN,
                       {1: GrassmannField(grid, N_GEN, {0: np.cos(x) ** 2})})
    value = berezin_integrate(sf)
    assert abs(value.body() - np.pi) < 1e-12



# 8 points and period 4.0: the quadrature's mean and volume factor are exact
# on small-integer data, so linearity holds to 0.0.
LAW_GRID = Grid((8,), (4.0,))


@settings(max_examples=100, deadline=None)
@given(superfunctions(LAW_GRID, 2, 4), superfunctions(LAW_GRID, 2, 4),
       st.integers(-3, 3), st.integers(-3, 3))
def test_linearity_exact(a, b, s, t):
    lhs = berezin_integrate(a * s + b * t)
    rhs = berezin_integrate(a) * s + berezin_integrate(b) * t
    assert lhs.max_abs_diff(rhs) == 0.0
