import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from supersigma import gridfield
from supersigma.grassmann import GrassmannNumber, Parity, generator, unit
from supersigma.gridfield import GrassmannField, Grid, spectral_derivative

from conftest import N_GEN, even_field, grassmann_fields, odd_field, trig_array


@pytest.fixture
def grid():
    return Grid((64,), (2.0 * np.pi,))


@pytest.fixture
def grid2d():
    return Grid((16, 16), (2.0 * np.pi, 4.0 * np.pi))


def test_spectral_derivative_exact_on_trig(grid):
    x = grid.axis_points(0)
    d = spectral_derivative(np.cos(3.0 * x), grid, 0)
    assert np.max(np.abs(d + 3.0 * np.sin(3.0 * x))) < 1e-12


def test_spectral_derivative_respects_period(grid2d):
    X, Y = grid2d.coordinates()
    f = np.sin(2.0 * X) * np.cos(0.5 * Y)
    dY = spectral_derivative(f, grid2d, 1)
    assert np.max(np.abs(dY + 0.5 * np.sin(2.0 * X) * np.sin(0.5 * Y))) < 1e-12


def test_trig_interpolate_exact(grid):
    x = grid.axis_points(0)
    f = GrassmannField(grid, N_GEN, {0: np.cos(2.0 * x) + 0.3 * np.sin(5.0 * x)})
    pts = x + 0.1 + 0.3 * np.sin(x)
    expected = np.cos(2.0 * pts) + 0.3 * np.sin(5.0 * pts)
    assert np.max(np.abs(f.compose_body(pts).terms[0] - expected)) < 1e-12


def test_integral_spectrally_exact(grid):
    x = grid.axis_points(0)
    f = GrassmannField(grid, N_GEN, {0: np.cos(x) ** 2})
    assert abs(f.integral().body() - np.pi) < 1e-12


def test_field_product_matches_pointwise(rng, grid):
    f = even_field(rng, grid) + odd_field(rng, grid, [1, 3])
    g = even_field(rng, grid, soul_mask=0b110) + odd_field(rng, grid, [2])
    prod = f * g
    for idx in [(0,), (13,), (50,)]:
        expected = f.value_at(idx) * g.value_at(idx)
        assert prod.value_at(idx).max_abs_diff(expected) < 1e-13


def test_field_derivative_acts_per_mask(rng, grid):
    x = grid.axis_points(0)
    f = GrassmannField(grid, N_GEN, {0b1: np.sin(2.0 * x)})
    d = f.derivative(0)
    assert np.max(np.abs(d.terms[0b1] - 2.0 * np.cos(2.0 * x))) < 1e-12


def test_scale_by_parity(grid):
    f = GrassmannField(grid, N_GEN, {0: np.ones(grid.shape), 0b1: np.ones(grid.shape)})
    g = f.scale_by_parity(1.0, -1.0)
    assert np.all(g.terms[0] == 1.0)
    assert np.all(g.terms[0b1] == -1.0)


def test_nilpotent_power_inverse(rng, grid):
    f = GrassmannField(grid, N_GEN, {
        0: 2.0 + 0.5 * np.cos(grid.axis_points(0)),
        0b11: trig_array(rng, grid),
        0b1111: trig_array(rng, grid),
    })
    inv = f.nilpotent_power(-1.0)
    one = GrassmannField.from_array(grid, N_GEN, np.ones(grid.shape))
    assert (f * inv).max_abs_diff(one) < 1e-12


def test_nilpotent_power_sqrt(rng, grid):
    f = GrassmannField(grid, N_GEN, {0: 4.0 + np.zeros(grid.shape),
                                     0b11: trig_array(rng, grid)})
    r = f.nilpotent_power(0.5)
    assert (r * r).max_abs_diff(f) < 1e-12


def test_parity_detection(rng, grid):
    assert even_field(rng, grid).parity() is Parity.EVEN
    assert odd_field(rng, grid, [1]).parity() is Parity.ODD
    mixed = even_field(rng, grid) + odd_field(rng, grid, [1])
    assert mixed.parity() is Parity.MIXED


def test_constant_and_to_number(grid):
    value = unit(N_GEN) * 2.0 + generator(N_GEN, 1)
    f = GrassmannField.constant(grid, value)
    assert f.value_at((0,)).max_abs_diff(value) == 0.0


def test_compose_body(rng, grid):
    x = grid.axis_points(0)
    f = GrassmannField(grid, N_GEN, {0: np.sin(x), 0b1: np.cos(x)})
    shifted = f.compose_body((x + 1.0) % grid.periods[0])
    assert np.max(np.abs(shifted.terms[0] - np.sin(x + 1.0))) < 1e-12
    assert np.max(np.abs(shifted.terms[0b1] - np.cos(x + 1.0))) < 1e-12


def _reference_trig_interpolate(values, grid, points):
    """The per-call interpolant: fresh wavenumbers and phase matrix per array."""
    n = grid.shape[0]
    fhat = np.fft.fft(values) / n
    k = grid.wavenumbers(0).copy()
    if n % 2 == 0:
        k_nyq = np.pi * n / grid.periods[0]
        fhat = np.concatenate([fhat, [0.5 * fhat[n // 2]]])
        fhat[n // 2] *= 0.5
        k = np.concatenate([k, [k_nyq]])
        k[n // 2] = -k_nyq
    return np.real(np.exp(1j * np.multiply.outer(points, k)) @ fhat)


@pytest.mark.parametrize("n", [15, 16])
def test_compose_body_shares_one_phase_matrix(rng, monkeypatch, n):
    grid = Grid((n,), (3.0,))
    x = grid.axis_points(0)
    points = x + 0.3 * np.sin(x)
    f = GrassmannField(grid, N_GEN, {m: rng.normal(size=n) for m in (0, 0b11, 0b101, 0b111000)})
    calls = []
    original = gridfield._interpolation_phase

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(gridfield, "_interpolation_phase", counted)
    out = f.compose_body(points)
    assert len(calls) == 1
    assert sorted(out.terms) == sorted(f.terms)
    for m, a in f.terms.items():
        assert np.array_equal(out.terms[m], _reference_trig_interpolate(a, grid, points))
    assert GrassmannField.zero(grid, N_GEN).compose_body(points).is_zero()


def test_graded_commutativity_of_fields(rng, grid):
    a = odd_field(rng, grid, [1])
    b = odd_field(rng, grid, [2])
    assert (a * b + b * a).max_abs() < 1e-14
    e = even_field(rng, grid)
    assert (e * a - a * e).max_abs() < 1e-14


LAW_GRID = Grid((2, 3), (2.0, 3.0))


@settings(max_examples=200, deadline=None)
@given(grassmann_fields(LAW_GRID, 4), grassmann_fields(LAW_GRID, 4),
       grassmann_fields(LAW_GRID, 4))
def test_field_product_associative_exact(a, b, c):
    assert ((a * b) * c).max_abs_diff(a * (b * c)) == 0.0


@settings(max_examples=200, deadline=None)
@given(grassmann_fields(LAW_GRID, 4), grassmann_fields(LAW_GRID, 4),
       grassmann_fields(LAW_GRID, 4))
def test_field_product_distributive_exact(a, b, c):
    assert (a * (b + c)).max_abs_diff(a * b + a * c) == 0.0
    assert ((b + c) * a).max_abs_diff(b * a + c * a) == 0.0


def _reference_spectral_derivative(values, grid, axis):
    """The per-call kernel: fresh wavenumbers and one fft/ifft pair per array."""
    k = grid.wavenumbers(axis)
    n = grid.shape[axis]
    if n % 2 == 0:
        k = k.copy()
        k[n // 2] = 0.0
    shape = [1] * values.ndim
    shape[axis] = n
    fhat = np.fft.fft(values, axis=axis)
    return np.real(np.fft.ifft(1j * k.reshape(shape) * fhat, axis=axis))


@pytest.mark.parametrize("shape", [(12,), (13,), (8, 6), (9, 7), (16, 15), (40, 50)])
@pytest.mark.parametrize("masks", [(), (0b1,), (0, 0b11, 0b101, 0b111000)])
def test_batched_derivative_matches_per_mask_kernel_exactly(rng, shape, masks):
    # At 40x50 the five masks need two stacks.
    grid = Grid(shape, tuple(rng.uniform(1.0, 8.0, len(shape))))
    terms = {m: rng.normal(size=shape) for m in masks}
    if masks:
        terms[0b10] = np.full(shape, 0.5)  # a constant: its derivative is zero or round-off
    f = GrassmannField(grid, N_GEN, terms)
    for axis in range(grid.ndim):
        expected = GrassmannField(grid, N_GEN, {
            m: _reference_spectral_derivative(a, grid, axis) for m, a in f.terms.items()})
        d = f.derivative(axis)
        assert sorted(d.terms) == sorted(expected.terms)
        assert d.max_abs_diff(expected) == 0.0
        for a in f.terms.values():
            assert np.max(np.abs(spectral_derivative(a, grid, axis)
                                 - _reference_spectral_derivative(a, grid, axis))) == 0.0


@pytest.mark.parametrize("shape", [(0,), (4, 0), (-1, 3)])
def test_grid_rejects_sizes_below_one(shape):
    with pytest.raises(ValueError, match="at least 1"):
        Grid(shape, (1.0,) * len(shape))


@pytest.mark.parametrize("shape, periods, message", [
    ((16.7, 16), (1.0, 1.0), "shape[0] must be an integer, got 16.7"),
    ((16, True), (1.0, 1.0), "shape[1] must be an integer, got True"),
    (("16",), (1.0,), "shape[0] must be an integer, got '16'"),
    (16, (1.0,), "shape must be a list, got 16"),
    ((16,), None, "periods must be a list, got None"),
    ((16, 16), (0.0, 1.0), "periods[0] must be finite and positive, got 0.0"),
    ((16, 16), (1.0, -6.0), "periods[1] must be finite and positive, got -6.0"),
    ((16, 16), (float("nan"), 1.0), "periods[0] must be finite and positive, got nan"),
    ((16, 16), (1.0, float("inf")), "periods[1] must be finite and positive, got inf"),
    ((16,), (True,), "periods[0] must be finite and positive, got True"),
    ((16,), ("6",), "periods[0] must be finite and positive, got '6'"),
], ids=["size-float", "size-bool", "size-str", "shape-int", "periods-none", "period-zero",
        "period-negative", "period-nan", "period-inf", "period-bool", "period-str"])
def test_grid_rejects_sizes_and_periods_of_wrong_type_or_range(shape, periods, message):
    with pytest.raises(ValueError) as exc:
        Grid(shape, periods)
    assert str(exc.value) == message


def test_grid_accepts_numpy_scalars_and_stores_python_numbers():
    grid = Grid([np.int64(8), 4], [np.float64(2.5), 3])
    assert grid == Grid((8, 4), (2.5, 3.0))
    assert [type(v) for v in grid.shape + grid.periods] == [int, int, float, float]


def _samples(shape, fill=0.0, **at):
    """An array of ``fill`` with the given samples set: first=..., last=..."""
    a = np.full(shape, fill)
    if "first" in at:
        a.flat[0] = at["first"]
    if "last" in at:
        a.flat[-1] = at["last"]
    return a


ZERO_TEST_CASES = {
    # name: (samples, kept)
    "all-zero": (lambda s: _samples(s), False),
    "minus-zero-only": (lambda s: _samples(s, -0.0), False),
    "minus-zero-then-plus-zero": (lambda s: _samples(s, 0.0, first=-0.0), False),
    "nan-first": (lambda s: _samples(s, first=np.nan), True),
    "nan-last": (lambda s: _samples(s, last=np.nan), True),
    "nonzero-last-only": (lambda s: _samples(s, last=1e-300), True),
    "nonzero-first-only": (lambda s: _samples(s, first=-2.0), True),
}


@pytest.mark.parametrize("shape", [(8,), (4, 3)])
def test_construction_drops_exactly_the_zero_terms(shape):
    grid = Grid(shape, (1.0,) * len(shape))
    names = list(ZERO_TEST_CASES)
    terms = {1 << i: ZERO_TEST_CASES[name][0](shape) for i, name in enumerate(names)}
    f = GrassmannField(grid, N_GEN + 2, terms)
    kept = [1 << i for i, name in enumerate(names) if ZERO_TEST_CASES[name][1]]
    # The old rule was a full scan: a term stays when np.any() finds a sample.
    assert kept == [m for m, a in terms.items() if np.any(a)]
    assert list(f.terms) == kept  # and in the order given


@pytest.mark.parametrize("shape", [(8,), (4, 3)])
def test_sums_products_and_derivatives_drop_exactly_the_zero_terms(shape):
    grid = Grid(shape, (1.0,) * len(shape))
    ones = np.ones(shape)
    alternating = np.indices(shape).sum(axis=0) % 2 == 0
    n_gen = N_GEN

    def field(a):
        return GrassmannField(grid, n_gen, {0b1: a})

    def unit_field(a):
        return GrassmannField(grid, n_gen, {0: a})

    # Sums: x + y cancels to +0.0 except where y differs from -x.
    x = 1.0 + np.arange(ones.size).reshape(shape)
    sums = {
        "all-zero": (field(x) + field(-x), False),
        "nan-first": (field(x) + field(-_samples(shape, first=np.nan) - x), True),
        "nan-last": (field(x) + field(_samples(shape, last=np.nan) - x), True),
        "nonzero-last-only": (field(x) + field(_samples(shape, last=0.5) - x), True),
    }
    # Products: every sample has one zero factor, so +0.0 or -0.0 by sign.
    p, q = np.where(alternating, 1.0, 0.0), np.where(alternating, 0.0, 1.0)
    assert np.all(np.signbit(p * -q))
    products = {
        "all-zero": (unit_field(p) * field(q), False),
        "minus-zero-only": (unit_field(p) * field(-q), False),
        "nan-first": (unit_field(_samples(shape, 1.0, first=np.nan)) * field(q), True),
        "nan-last": (unit_field(p) * field(_samples(shape, 0.0, last=np.nan)), True),
        "nonzero-last-only": (unit_field(ones) * field(_samples(shape, last=3.0)), True),
    }
    # Derivatives: a constant's is zero; a NaN spreads over every sample.
    derivatives = {
        "constant": (field(ones * 0.25).derivative(0), False),
        "nan-first": (field(_samples(shape, 1.0, first=np.nan)).derivative(0), True),
        "nan-last": (field(_samples(shape, 1.0, last=np.nan)).derivative(len(shape) - 1), True),
    }
    for table in (sums, products, derivatives):
        for name, (result, kept) in table.items():
            assert (0b1 in result.terms) is kept, name
            if kept:
                assert np.any(result.terms[0b1]), name


def _meshgrid_trig_array(rng, grid, cutoff=3, n_modes=3, scale=1.0):
    """The fixture sum on full meshgrid coordinate arrays."""
    coords = grid.coordinates()
    a = np.zeros(grid.shape)
    for _ in range(n_modes):
        arg = rng.uniform(0.0, 2.0 * np.pi)
        for i in range(grid.ndim):
            k = int(rng.integers(-cutoff, cutoff + 1))
            arg = arg + (2.0 * np.pi * k / grid.periods[i]) * coords[i]
        a = a + rng.normal() * scale * np.cos(arg)
    return a


@pytest.mark.parametrize("shape, periods", [
    ((64,), (2.0 * np.pi,)), ((7,), (3.0,)),
    ((16, 16), (2.0 * np.pi, 4.0 * np.pi)), ((15, 9), (3.0, 5.5)), ((1, 5), (1.0, 2.0)),
])
def test_trig_array_matches_meshgrid_sum_bitwise(shape, periods):
    grid = Grid(shape, periods)
    for seed in range(5):
        for kwargs in ({}, {"cutoff": 6, "n_modes": 4, "scale": 0.3}):
            a = trig_array(np.random.default_rng(seed), grid, **kwargs)
            b = _meshgrid_trig_array(np.random.default_rng(seed), grid, **kwargs)
            assert a.shape == grid.shape
            assert np.array_equal(a, b)


# -- fields stacked over fixtures ---------------------------------------------

def _fixture(f, i):
    """Fixture i of a stacked field, as an unstacked field with the same masks."""
    return GrassmannField(f.grid, f.n_gen, {
        m: a[i] if a.ndim > f.grid.ndim else a for m, a in f.terms.items()})


def _assert_same_bits(f, g):
    assert list(f.terms) == list(g.terms)
    for m, a in f.terms.items():
        assert a.shape == g.terms[m].shape
        assert np.array_equal(a, g.terms[m], equal_nan=True), m


def _stacked_pair(rng, grid, count):
    """Two per-fixture field lists and their stacks."""
    fs = [even_field(rng, grid, soul_mask=0b11) + odd_field(rng, grid, [1]) for _ in range(count)]
    gs = [even_field(rng, grid, soul_mask=0b110) + odd_field(rng, grid, [2]) for _ in range(count)]
    stack = [GrassmannField(grid, N_GEN, {m: np.stack([h.terms[m] for h in hs]) for m in hs[0].terms})
             for hs in (fs, gs)]
    return fs, gs, stack[0], stack[1]


@pytest.mark.parametrize("shape", [(12,), (33,), (9, 7), (16, 16), (64, 64)])
def test_stacked_operations_match_each_fixture_bitwise(rng, shape):
    # At 64^2 three fixtures exceed one derivative stack of 8,192 samples.
    grid = Grid(shape, tuple(rng.uniform(1.0, 8.0, len(shape))))
    count = 3
    fs, gs, f, g = _stacked_pair(rng, grid, count)
    assert all(a.shape == (count,) + shape for a in f.terms.values())
    results = {
        "product": (f * g, [a * b for a, b in zip(fs, gs)]),
        "sum": (f + g, [a + b for a, b in zip(fs, gs)]),
        "difference": (f - g, [a - b for a, b in zip(fs, gs)]),
        "scaled": (f * 2.5, [a * 2.5 for a in fs]),
        "array-scaled": (f * grid.axis_points(0).reshape((-1,) + (1,) * (grid.ndim - 1)),
                         [a * grid.axis_points(0).reshape((-1,) + (1,) * (grid.ndim - 1))
                          for a in fs]),
        "power": ((f * f + 1.0).nilpotent_power(-0.5), [(a * a + 1.0).nilpotent_power(-0.5)
                                                       for a in fs]),
    }
    for axis in range(grid.ndim):
        results[f"derivative-{axis}"] = (f.derivative(axis), [a.derivative(axis) for a in fs])
    for name, (stacked, each) in results.items():
        for i in range(count):
            _assert_same_bits(_fixture(stacked, i), each[i])
    integral = (f * g).integral()
    for m, c in integral.terms.items():
        assert c.shape == (count,)
        assert list(c) == [(a * b).integral().terms[m] for a, b in zip(fs, gs)]
    # max_abs keeps the fixture axis: one value per fixture.
    assert f.max_abs().tolist() == [a.max_abs() for a in fs]
    assert (f * g).integral().max_abs().tolist() == [(a * b).integral().max_abs()
                                                     for a, b in zip(fs, gs)]


@pytest.mark.parametrize("shape", [(12,), (9, 7)])
def test_mixed_stacked_and_unstacked_terms(rng, shape):
    grid = Grid(shape, tuple(rng.uniform(1.0, 8.0, len(shape))))
    body = rng.normal(size=shape)
    soul = rng.normal(size=(4,) + shape)
    f = GrassmannField(grid, N_GEN, {0: body, 0b11: soul})
    # The unstacked term is broadcast to the fixture axis, in the given order.
    assert list(f.terms) == [0, 0b11]
    assert f.terms[0].shape == (4,) + shape
    fs = [GrassmannField(grid, N_GEN, {0: body, 0b11: soul[i]}) for i in range(4)]
    plain = GrassmannField(grid, N_GEN, {0: rng.normal(size=shape), 0b100: rng.normal(size=shape)})
    for axis in range(grid.ndim):
        d = f.derivative(axis)
        for i in range(4):
            _assert_same_bits(_fixture(d, i), fs[i].derivative(axis))
    for stacked, each in [(f * plain, [a * plain for a in fs]),
                          (plain * f, [plain * a for a in fs]),
                          (f + plain, [a + plain for a in fs]),
                          (plain - f, [plain - a for a in fs])]:
        assert all(a.shape == (4,) + shape for a in stacked.terms.values())
        for i in range(4):
            _assert_same_bits(_fixture(stacked, i), each[i])


def test_terms_must_stack_one_fixture_count(grid):
    with pytest.raises(ValueError, match="different fixture counts"):
        GrassmannField(grid, N_GEN, {0: np.ones((2, 64)), 1: np.ones((3, 64))})
    f = GrassmannField(grid, N_GEN, {0: np.ones((2, 64))})
    with pytest.raises(ValueError):
        f + GrassmannField(grid, N_GEN, {0: np.ones((3, 64))})


def test_nan_in_one_fixture_reaches_max_abs(rng, grid):
    samples = rng.normal(size=(5, 64))
    samples[3, 17] = np.nan
    f = GrassmannField(grid, N_GEN, {0b1: rng.normal(size=(5, 64)), 0b10: samples})
    # The NaN reaches fixture 3's value and no other fixture's.
    for value in (f, f.integral(), f * f.derivative(0)):
        assert np.isnan(value.max_abs()).tolist() == [False, False, False, True, False]


def test_value_at_rejects_stacked_fields(rng, grid):
    f = GrassmannField(grid, N_GEN, {0: rng.normal(size=(2, 64)), 0b1: rng.normal(size=64)})
    with pytest.raises(ValueError, match="stacked over 2 fixtures"):
        f.value_at((3,))
    # The unstacked parts of the same fixtures still work.
    _fixture(f, 1).value_at((3,))


@pytest.mark.parametrize("n", [7, 16, 33, 64])
def test_compose_body_on_a_stacked_field_matches_each_fixture(rng, n):
    grid = Grid((n,), (2.5,))
    x = grid.axis_points(0)
    points = x + 0.2 * np.sin(2.0 * np.pi * x / 2.5)
    # One stacked term beside an unstacked one, which is broadcast.
    f = GrassmannField(grid, N_GEN, {0: rng.normal(size=(5, n)), 0b11: rng.normal(size=n),
                                     0b100: rng.normal(size=(5, n))})
    out = f.compose_body(points)
    assert all(a.shape == (5, n) for a in out.terms.values())
    for i in range(5):
        _assert_same_bits(_fixture(out, i), _fixture(f, i).compose_body(points))
        for m, a in out.terms.items():
            assert np.array_equal(a[i], _reference_trig_interpolate(f.terms[m][i], grid, points))


def test_grassmann_number_with_per_fixture_coefficients(grid):
    a = GrassmannNumber(N_GEN, {0: np.array([1.0, -3.0]), 0b11: np.array([0.0, -0.0]),
                                0b1: 2.0})
    # An all-zero coefficient array is dropped like a zero float.
    assert list(a.terms) == [0, 0b1]
    # A float coefficient stands for every fixture alike.
    assert a.max_abs().tolist() == [2.0, 3.0]
    assert (a * a).terms[0].tolist() == [1.0, 9.0]
    with_nan = GrassmannNumber(N_GEN, {0: np.array([1.0, np.nan])}).max_abs()
    assert with_nan[0] == 1.0 and np.isnan(with_nan[1])
    with pytest.raises(ValueError, match="per-fixture"):
        repr(a)
    with pytest.raises(ValueError, match="1-d"):
        GrassmannNumber(N_GEN, {0: np.ones((2, 2))})
    # As a constant field it takes one value per fixture.
    c = GrassmannField.constant(grid, a)
    assert c.terms[0].shape == (2, 64)
    assert np.array_equal(c.terms[0][1], np.full(64, -3.0))
    assert np.array_equal(c.terms[0b1][0], np.full(64, 2.0))


# -- in-place spectral transforms ---------------------------------------------
# Oracles: the out-of-place kernels that the in-place transforms replaced,
# with a fresh array at every step.

def _out_of_place_fourier_derivative(values, grid, axis):
    ik = (1j * gridfield.derivative_wavenumbers(grid, axis)).reshape(
        (-1,) + (1,) * (grid.ndim - axis - 1))
    fhat = np.fft.fft(values, axis=axis - grid.ndim)
    return np.fft.ifft(ik * fhat, axis=axis - grid.ndim)


def _out_of_place_spectral_derivative(values, grid, axis):
    out = _out_of_place_fourier_derivative(values, grid, axis)
    return np.real(out) if np.isrealobj(values) else out


def _out_of_place_field_derivative(f, axis):
    arrays = list(f.terms.values())
    per_stack = max(1, gridfield._STACK_SAMPLES // arrays[0].size)
    out = []
    for i in range(0, len(arrays), per_stack):
        chunk = arrays[i:i + per_stack]
        stacked = np.stack(chunk) if len(chunk) > 1 else chunk[0][None]
        out.extend(_out_of_place_fourier_derivative(stacked, f.grid, axis).real)
    return GrassmannField(f.grid, f.n_gen, dict(zip(f.terms, out)))


def _kernel_fields(rng, grid, masks):
    """An unstacked, a stacked (3 fixtures) and a mixed field with ``masks``."""
    unstacked = {m: rng.normal(size=grid.shape) for m in masks}
    stacked = {m: rng.normal(size=(3,) + grid.shape) for m in masks}
    mixed = {m: (stacked if i % 2 else unstacked)[m] for i, m in enumerate(masks)}
    return [GrassmannField(grid, N_GEN, t) for t in (unstacked, stacked, mixed)]


def _assert_derivatives_match_out_of_place(f):
    for axis in range(f.grid.ndim):
        d = f.derivative(axis)
        _assert_same_bits(d, _out_of_place_field_derivative(f, axis))
        for a in d.terms.values():
            assert a.dtype == float
            # The terms do not keep a complex transform buffer alive.
            assert a.base is None or not np.iscomplexobj(a.base)
        for a in f.terms.values():
            before = a.copy()
            got = spectral_derivative(a, f.grid, axis)
            want = _out_of_place_spectral_derivative(a, f.grid, axis)
            assert got.dtype == want.dtype == float and got.base is None
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(a, before, equal_nan=True)


@pytest.mark.parametrize("shape", [(12,), (13,), (15, 13), (16, 16)])
def test_in_place_derivative_matches_out_of_place_kernel_bitwise(rng, shape):
    grid = Grid(shape, tuple(rng.uniform(1.0, 8.0, len(shape))))
    for f in _kernel_fields(rng, grid, (0, 0b11, 0b101, 0b111000, 0b1)):
        _assert_derivatives_match_out_of_place(f)


def test_in_place_derivative_matches_out_of_place_kernel_at_64_squared(rng):
    # Two 64^2 samples arrays fill one stack of 8,192 samples: five masks
    # take three stacks, and three fixtures one stack per mask.
    grid = Grid((64, 64), (3.0, 7.0))
    for f in _kernel_fields(rng, grid, (0, 0b11, 0b101, 0b111000, 0b1)):
        _assert_derivatives_match_out_of_place(f)


def test_in_place_derivative_matches_out_of_place_kernel_at_256_squared(rng):
    grid = Grid((256, 256), (2.0 * np.pi, 5.0))
    _assert_derivatives_match_out_of_place(GrassmannField(grid, N_GEN, {
        m: rng.normal(size=grid.shape) for m in (0, 0b11)}))


@pytest.mark.parametrize("shape", [(12,), (15, 13)])
def test_in_place_derivative_carries_a_nan_sample_as_before(rng, shape):
    grid = Grid(shape, (3.0,) * len(shape))
    terms = {m: rng.normal(size=(2,) + shape) for m in (0, 0b11)}
    terms[0b11][1].flat[4] = np.nan
    f = GrassmannField(grid, N_GEN, terms)
    assert np.isnan(f.derivative(0).terms[0b11]).any()
    _assert_derivatives_match_out_of_place(f)


@pytest.mark.parametrize("shape", [(12,), (13,), (15, 13), (64, 64)])
def test_spectral_derivative_of_complex_input_leaves_it_unchanged(rng, shape):
    grid = Grid(shape, tuple(rng.uniform(1.0, 8.0, len(shape))))
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    before = values.copy()
    for axis in range(grid.ndim):
        got = spectral_derivative(values, grid, axis)
        want = _out_of_place_spectral_derivative(before, grid, axis)
        assert got.dtype == want.dtype == complex
        assert np.array_equal(got, want)
        assert np.array_equal(values, before)


@pytest.mark.parametrize("axis", [0, 1])
def test_in_place_derivative_of_a_large_grid_allocates_no_temporary(rng, axis):
    # numpy reports its array allocations to tracemalloc: an out-of-place
    # fft / multiply / ifft would take three buffers the size of ``buf``;
    # in place, a transform along the outer axis holds a block of columns
    # (128 KB here).
    grid = Grid((256, 256), (2.0 * np.pi, 5.0))
    buf = (rng.normal(size=(1,) + grid.shape)).astype(complex)
    want = _out_of_place_fourier_derivative(buf.copy(), grid, axis)
    gridfield._derivative_multiplier(grid, axis)
    tracemalloc.start()
    try:
        got = gridfield._fourier_derivative(buf, grid, axis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got is buf and np.array_equal(got, want)
    assert peak < buf.nbytes // 4


@pytest.mark.parametrize("n_gen, mask, message", [
    (64, None, "generator count must be between 0 and 63"),
    (-1, None, "generator count must be between 0 and 63"),
    (3, 8, "monomial mask 8 out of range for n_gen=3"),
    (3, -1, "monomial mask -1 out of range for n_gen=3"),
    (63, 1 << 63, f"monomial mask {1 << 63} out of range for n_gen=63"),
], ids=["n_gen-64", "n_gen-negative", "mask-2^n_gen", "mask-negative", "mask-2^63"])
def test_field_rejects_what_a_number_rejects(grid, n_gen, mask, message):
    # The same checks, with the same messages, as a Grassmann number's.
    terms = {} if mask is None else {mask: np.ones(grid.shape)}
    with pytest.raises(ValueError) as field_error:
        GrassmannField(grid, n_gen, terms)
    with pytest.raises(ValueError) as number_error:
        GrassmannNumber(n_gen, {m: 1.0 for m in terms})
    assert str(field_error.value) == str(number_error.value) == message


def test_field_accepts_the_top_monomial_of_63_generators(grid):
    f = GrassmannField(grid, 63, {(1 << 63) - 1: np.ones(grid.shape)})
    assert f.integral().terms == {(1 << 63) - 1: grid.volume}


@pytest.mark.parametrize("stacked", [False, True], ids=["one-fixture", "stacked"])
@pytest.mark.parametrize("shape", [(64,), (33,), (16, 16), (15, 12), (9, 13)])
def test_gradient_is_each_derivative_bit_for_bit_and_kept(rng, derivative_log, shape, stacked):
    grid = Grid(shape, (2.0 * np.pi,) * len(shape))
    fs, _, f_stack, _ = _stacked_pair(rng, grid, 3)
    f = f_stack if stacked else fs[0]
    grad = f.gradient()
    assert len(grad) == grid.ndim == len(derivative_log)
    for k, d in enumerate(grad):
        _assert_same_bits(d, f.derivative(k))
    # Every later call returns the kept tuple and transforms nothing.
    derivative_log.clear()
    assert f.gradient() is grad
    assert derivative_log == []


def test_gradient_of_a_zero_field_is_zero(grid2d):
    f = GrassmannField.zero(grid2d, N_GEN)
    assert all(d.is_zero() for d in f.gradient())

