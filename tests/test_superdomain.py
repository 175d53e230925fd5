import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from supersigma import gridfield, superdomain
from supersigma.grassmann import GrassmannNumber, ParityError, generator
from supersigma.gridfield import GrassmannField, Grid
from supersigma.suites import _stack
from supersigma.superdomain import (
    CoordinateChange,
    Embedding,
    SuperFunction,
    _apply_Q,
    apply_D,
    apply_Q,
    pullback_coordinate_change,
    restrict,
)

from conftest import (N_GEN, even_field, homogeneous_part, odd_field, superfunctions,
                      susy_vector_field)


@pytest.fixture
def grid():
    return Grid((64,), (2.0 * np.pi,))


def random_superfunction(rng, grid):
    f0 = even_field(rng, grid, soul_mask=0b11) + odd_field(rng, grid, [1])
    f1 = odd_field(rng, grid, [2]) + even_field(rng, grid, soul_mask=0b110)
    return SuperFunction(grid, 1, N_GEN, {0: f0, 1: f1})


def test_d_squared_is_minus_dx(rng, grid):
    f = random_superfunction(rng, grid)
    lhs = apply_D(apply_D(f))
    rhs = f.partial_even(1) * -1.0
    assert lhs.max_abs_diff(rhs) < 1e-12


def test_d_commutes_with_q(rng, grid):
    # With the odd parameter attached, Q is an even operator, so the
    # relevant bracket with D is the commutator; it vanishes identically.
    f = random_superfunction(rng, grid)
    q = generator(N_GEN, 5) * 1.3
    dq = apply_D(apply_Q(f, q))
    qd = apply_Q(apply_D(f), q)
    assert dq.max_abs_diff(qd) < 1e-12


def test_q_algebra_with_parameters_attached(rng, grid):
    # With odd parameters attached the variations are even operators: they
    # commute in pairs (anticommutator of the stripped operators times the
    # antisymmetric parameter product), and a repeated parameter kills the
    # square outright since q^2 = 0.
    f = random_superfunction(rng, grid)
    q1, q2 = generator(N_GEN, 5), generator(N_GEN, 6)
    anti = apply_Q(apply_Q(f, q1), q2) + apply_Q(apply_Q(f, q2), q1)
    assert anti.max_abs() < 1e-12
    assert apply_Q(apply_Q(f, q1), q1).max_abs() < 1e-12
    # The translation content of the algebra survives in the commutator.
    comm = apply_Q(apply_Q(f, q1), q2) - apply_Q(apply_Q(f, q2), q1)
    expected = (q2 * q1) * f.partial_even(1) * -2.0
    assert comm.max_abs_diff(expected) < 1e-12


def test_partial_odd_squares_to_zero(rng, grid):
    f = SuperFunction(grid, 2, N_GEN, {
        0: even_field(rng, grid), 0b01: odd_field(rng, grid, [1]),
        0b10: odd_field(rng, grid, [2]), 0b11: even_field(rng, grid)})
    for alpha in (1, 2):
        assert f.partial_odd(alpha).partial_odd(alpha).max_abs() == 0.0


def test_partial_odd_graded_leibniz(rng, grid):
    # Odd (homogeneous) superfunction f: d_eta(f g) = (d_eta f) g - f d_eta g.
    f = SuperFunction(grid, 1, N_GEN, {0: odd_field(rng, grid, [1]),
                                       1: even_field(rng, grid)})
    g = random_superfunction(rng, grid)
    lhs = (f * g).partial_odd(1)
    rhs = f.partial_odd(1) * g - f * g.partial_odd(1)
    assert lhs.max_abs_diff(rhs) < 1e-12


def test_product_associative(rng, grid):
    f, g, h = (random_superfunction(rng, grid) for _ in range(3))
    assert ((f * g) * h).max_abs_diff(f * (g * h)) < 1e-11


def test_odd_coordinate_squares_to_zero(rng, grid):
    f = random_superfunction(rng, grid)
    assert f.mul_odd_coordinate(1).mul_odd_coordinate(1).max_abs() == 0.0


def test_susy_vector_field_agrees_with_apply_q(rng, grid):
    f = random_superfunction(rng, grid)
    q = generator(N_GEN, 5) * -0.7
    V = susy_vector_field(grid, N_GEN, q)
    assert V.apply(f).max_abs_diff(apply_Q(f, q)) < 1e-12


def test_apply_q_requires_odd_parameter(rng, grid):
    f = random_superfunction(rng, grid)
    with pytest.raises(ParityError):
        apply_Q(f, generator(N_GEN, 5) * generator(N_GEN, 6))


def test_restrict_zero_embedding(rng, grid):
    f = random_superfunction(rng, grid)
    zero = Embedding(xi=[GrassmannField.zero(grid, N_GEN)])
    assert restrict(f, zero).max_abs_diff(f.coefficient(0)) == 0.0


def test_restrict_general_embedding(rng, grid):
    f = random_superfunction(rng, grid)
    xi = odd_field(rng, grid, [6])
    emb = Embedding(xi=[xi])
    expected = f.coefficient(0) + xi * f.coefficient(1)
    assert restrict(f, emb).max_abs_diff(expected) < 1e-13


def test_pullback_identity_change(rng, grid):
    f = random_superfunction(rng, grid)
    ident = CoordinateChange.identity(grid, N_GEN)
    assert pullback_coordinate_change(f, ident).max_abs_diff(f) < 1e-12


def test_pullback_then_inverse_is_identity(rng, grid):
    f = random_superfunction(rng, grid)
    x = grid.axis_points(0)
    change = CoordinateChange(
        g0=x + 1.25,
        gamma0=odd_field(rng, grid, [6], scale=0.6),
        gamma1=GrassmannField(grid, N_GEN, {
            0: np.ones(grid.shape), 0b11: 0.4 * np.cos(x)}),
    )
    moved = pullback_coordinate_change(f, change)
    back = pullback_coordinate_change(moved, change.inverse(grid, N_GEN))
    assert back.max_abs_diff(f) < 1e-10


def test_orientation_reversal_rejected(grid):
    x = grid.axis_points(0)
    bad = CoordinateChange(g0=(-x) % grid.periods[0])
    f = SuperFunction.from_even(grid, 1, N_GEN, np.sin(x))
    with pytest.raises(ValueError):
        pullback_coordinate_change(f, bad)


# Property-based laws.  Grids of 4 points with period 4.0 and small-integer
# coefficients keep every product and odd derivative exact.
LAW_GRID = Grid((4,), (4.0,))
LAW_GEN = 3


@settings(max_examples=100, deadline=None)
@given(superfunctions(LAW_GRID, 2, LAW_GEN), superfunctions(LAW_GRID, 2, LAW_GEN),
       superfunctions(LAW_GRID, 2, LAW_GEN))
def test_product_associative_exact(f, g, h):
    assert ((f * g) * h).max_abs_diff(f * (g * h)) == 0.0


@settings(max_examples=100, deadline=None)
@given(superfunctions(LAW_GRID, 2, LAW_GEN), superfunctions(LAW_GRID, 2, LAW_GEN),
       superfunctions(LAW_GRID, 2, LAW_GEN))
def test_product_distributive_exact(f, g, h):
    assert (f * (g + h)).max_abs_diff(f * g + f * h) == 0.0
    assert ((g + h) * f).max_abs_diff(g * f + h * f) == 0.0


@settings(max_examples=100, deadline=None)
@given(superfunctions(LAW_GRID, 2, LAW_GEN), superfunctions(LAW_GRID, 2, LAW_GEN),
       st.integers(0, 1), st.integers(1, 2))
def test_partial_odd_graded_leibniz_exact(f, g, parity, alpha):
    # d_alpha(f g) = (d_alpha f) g + (-1)^|f| f d_alpha g for homogeneous f.
    f = homogeneous_part(f, parity)
    lhs = (f * g).partial_odd(alpha)
    rhs = f.partial_odd(alpha) * g + f * g.partial_odd(alpha) * (-1.0) ** parity
    assert lhs.max_abs_diff(rhs) == 0.0


@settings(max_examples=100, deadline=None)
@given(superfunctions(Grid((8,), (4.0,)), 1, 4))
def test_d_squared_is_minus_dx_exact(f):
    assert apply_D(apply_D(f)).max_abs_diff(f.partial_even(1) * -1.0) == 0.0


@settings(max_examples=100, deadline=None)
@given(superfunctions(Grid((8,), (4.0,)), 1, 4),
       st.lists(st.integers(-3, 3), min_size=2, max_size=2))
def test_d_commutes_with_parameter_attached_q(f, qc):
    # Spectral derivatives of the same data in a different order: rounding only.
    q = GrassmannNumber(4, {0b0100: qc[0], 0b1000: qc[1]})
    assert apply_D(apply_Q(f, q)).max_abs_diff(apply_Q(apply_D(f), q)) < 1e-12


def test_left_multiplication_by_a_number_passes_odd_coordinates(rng, grid):
    # q (eta f1) = -eta (q f1) for odd q: the Koszul sign of the shared product.
    f1 = even_field(rng, grid)
    f = SuperFunction(grid, 1, N_GEN, {1: f1})
    q = generator(N_GEN, 5) * 1.5
    expected = SuperFunction(grid, 1, N_GEN, {1: -(q * f1)})
    assert (q * f).max_abs_diff(expected) == 0.0


def _pullback_per_call(f, change):
    """The pullback with one ``compose_body`` (one phase matrix) per field."""
    grid, n_gen = f.grid, f.n_gen
    g0 = np.asarray(change.g0, dtype=float)
    f0, f1 = f.coefficient(0), f.coefficient(1)
    f0_at, f1_at = f0.compose_body(g0), f1.compose_body(g0)
    slot0 = f0_at
    slot1 = GrassmannField.zero(grid, n_gen)
    if change.gamma0 is not None:
        slot0 = slot0 + change.gamma0 * f1_at
    if change.g1 is not None:
        slot1 = slot1 + change.g1 * f0.derivative(0).compose_body(g0)
        if change.gamma0 is not None:
            slot1 = slot1 - change.gamma0 * change.g1 * f1.derivative(0).compose_body(g0)
    gamma1 = change.gamma1
    if gamma1 is None:
        gamma1 = GrassmannField.from_array(grid, n_gen, np.ones(grid.shape))
    slot1 = slot1 + gamma1 * f1_at
    return SuperFunction(grid, 1, n_gen, {0: slot0, 1: slot1})


@pytest.mark.parametrize("n", [15, 64])
def test_pullback_builds_one_phase_matrix(rng, monkeypatch, n):
    grid = Grid((n,), (2.0 * np.pi,))
    x = grid.axis_points(0)
    f = random_superfunction(rng, grid)
    changes = [
        CoordinateChange(g0=x + 0.3 * np.sin(x)),
        CoordinateChange(g0=x + 0.5, gamma0=odd_field(rng, grid, [6], scale=0.6)),
        CoordinateChange(g0=x + 0.2 * np.cos(x), g1=odd_field(rng, grid, [5], scale=0.4),
                         gamma0=odd_field(rng, grid, [6], scale=0.6),
                         gamma1=GrassmannField(grid, N_GEN, {
                             0: np.ones(grid.shape), 0b11: 0.4 * np.cos(x)})),
    ]
    calls = []
    original = gridfield._interpolation_phase

    def counted(*args):
        calls.append(args)
        return original(*args)

    for change in changes:
        expected = _pullback_per_call(f, change)
        for module in (gridfield, superdomain):
            monkeypatch.setattr(module, "_interpolation_phase", counted)
        calls.clear()
        moved = pullback_coordinate_change(f, change)
        monkeypatch.undo()
        assert len(calls) == 1
        assert sorted(moved.terms) == sorted(expected.terms)
        for gamma, slot in moved.terms.items():
            assert list(slot.terms) == list(expected.terms[gamma].terms)
            for m, a in slot.terms.items():
                assert np.array_equal(a, expected.terms[gamma].terms[m])


# -- superfunctions stacked over fixtures ----------------------------------------

def _fixture(f, i):
    """Fixture i of a stacked field or superfunction, with the same masks."""
    if isinstance(f, SuperFunction):
        return SuperFunction(f.grid, f.n_odd, f.n_gen,
                             {g: _fixture(c, i) for g, c in f.terms.items()})
    return GrassmannField(f.grid, f.n_gen, {
        m: a[i] if a.ndim > f.grid.ndim else a for m, a in f.terms.items()})


def _assert_same_bits(stacked_fixture, f):
    """Equal samples on every slot and monomial; a monomial one side lacks is zero."""
    if isinstance(f, SuperFunction):
        assert set(stacked_fixture.terms) == set(f.terms)
        for gamma, c in f.terms.items():
            _assert_same_bits(stacked_fixture.terms[gamma], c)
        return
    zero = np.zeros(f.grid.shape)
    assert set(f.terms) <= set(stacked_fixture.terms)
    for m, a in stacked_fixture.terms.items():
        assert np.array_equal(a, f.terms.get(m, zero)), m


def _stacked_superfunctions(rng, grid, count):
    fs = [random_superfunction(rng, grid) for _ in range(count)]
    f0, f1 = _stack([(f.coefficient(0), f.coefficient(1)) for f in fs])
    return fs, SuperFunction(grid, 1, N_GEN, {0: f0, 1: f1})


@pytest.mark.parametrize("n", [15, 64])
def test_pullback_of_a_stacked_superfunction_matches_each_fixture(rng, n):
    grid = Grid((n,), (2.0 * np.pi,))
    x = grid.axis_points(0)
    count = 3
    fs, f = _stacked_superfunctions(rng, grid, count)
    gamma0s = [odd_field(rng, grid, [6], scale=0.6) for _ in range(count)]
    g1s = [odd_field(rng, grid, [5], scale=0.4) for _ in range(count)]
    gamma1 = GrassmannField(grid, N_GEN, {0: np.ones(grid.shape), 0b11: 0.4 * np.cos(x)})
    g0 = x + 0.2 * np.cos(x)
    changes = [
        # The toy suite's change: eta = xi + eta~, one xi per fixture.
        (CoordinateChange(g0=x, gamma0=_stack(gamma0s)),
         [CoordinateChange(g0=x, gamma0=c) for c in gamma0s]),
        (CoordinateChange(g0=g0, g1=_stack(g1s), gamma0=_stack(gamma0s), gamma1=gamma1),
         [CoordinateChange(g0=g0, g1=a, gamma0=c, gamma1=gamma1)
          for a, c in zip(g1s, gamma0s)]),
    ]
    for stacked_change, each in changes:
        moved = pullback_coordinate_change(f, stacked_change)
        for i in range(count):
            _assert_same_bits(_fixture(moved, i), pullback_coordinate_change(fs[i], each[i]))


def test_apply_q_and_restrict_with_a_per_fixture_parameter(rng, grid):
    count = 4
    fs, f = _stacked_superfunctions(rng, grid, count)
    qs = [generator(N_GEN, 5) * float(rng.normal()) for _ in range(count)]
    q = _stack(qs)
    assert q.terms[1 << 4].shape == (count,)
    xis = [odd_field(rng, grid, [6], scale=0.8) for _ in range(count)]
    moved = _apply_Q(f, f.partial_even(1), q)
    zero = Embedding(xi=[GrassmannField.zero(grid, N_GEN)])
    on_zero = restrict(moved, zero)
    on_xi = restrict(moved, Embedding(xi=[_stack(xis)]))
    for i in range(count):
        each = _apply_Q(fs[i], fs[i].partial_even(1), qs[i])
        _assert_same_bits(_fixture(moved, i), each)
        _assert_same_bits(_fixture(on_zero, i), restrict(each, zero))
        _assert_same_bits(_fixture(on_xi, i), restrict(each, Embedding(xi=[xis[i]])))
