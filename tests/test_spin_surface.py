import numpy as np
import pytest

from supersigma.grassmann import ParityError
from supersigma.gridfield import GrassmannField, Grid
from supersigma.spin_surface import (
    GAMMA,
    GAMMA_PRODUCTS,
    PAIRING_MATRIX,
    SpinorField,
    SurfaceGeometry,
    clifford,
    pairing,
    super_weyl,
    weyl,
)

from conftest import (N_GEN, even_field, gravitino,
                      odd_field, odd_spinor, stack, trig_array)


@pytest.fixture
def grid():
    return Grid((16, 16), (2.0 * np.pi, 2.0 * np.pi))


def test_clifford_relations():
    for a in (1, 2):
        for b in (1, 2):
            assert np.array_equal(GAMMA_PRODUCTS[a, b], GAMMA[a] @ GAMMA[b])
            anti = GAMMA_PRODUCTS[a, b] + GAMMA_PRODUCTS[b, a]
            assert np.array_equal(anti, 2.0 * (a == b) * np.eye(2))


def test_pairing_matrix_antisymmetric():
    C = PAIRING_MATRIX
    assert np.array_equal(C, GAMMA[1] @ GAMMA[2])
    assert np.array_equal(C, -C.T)
    assert np.array_equal(C @ C, -np.eye(2))  # nondegenerate: C^-1 = -C


def test_clifford_constants_are_read_only():
    for m in [*GAMMA.values(), PAIRING_MATRIX, *GAMMA_PRODUCTS.values()]:
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 2.0
    with pytest.raises(TypeError):
        GAMMA[1] = np.eye(2)
    with pytest.raises(TypeError):
        GAMMA_PRODUCTS[1, 1] = np.eye(2)


def test_pairing_symmetric_on_odd_spinors(rng, grid):
    u = odd_spinor(rng, grid, [1, 2])
    v = odd_spinor(rng, grid, [3, 4])
    assert pairing(u, v).max_abs_diff(pairing(v, u)) < 1e-14


def test_pairing_antisymmetric_on_even_spinors(rng, grid):
    u = SpinorField([even_field(rng, grid) for _ in range(2)])
    v = SpinorField([even_field(rng, grid) for _ in range(2)])
    assert (pairing(u, v) + pairing(v, u)).max_abs() < 1e-14
    assert pairing(u, u).max_abs() < 1e-14


@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stacked"])
def test_gamma5_correction_drops_out_of_the_dirac_pairing(rng, grid, stacked):
    # sigma2d.dirac omits the gravitino-corrected connection c gamma5 psi
    # (c = <gamma^b chi_b, chi_a>): the action reads it only through
    # <psi, gamma^a (c gamma5 psi)>, which vanishes for odd psi and even c.
    def draw():
        psi = SpinorField([odd_field(rng, grid, [1, 2, 3, 4])
                           + odd_field(rng, grid, [1]) * even_field(rng, grid, soul_mask=0b110000)
                           for _ in range(2)])
        return psi, even_field(rng, grid, soul_mask=0b000011)

    def residuals(psi, c):
        rotated = c * psi.matrix_apply(PAIRING_MATRIX)
        return [pairing(psi, clifford(a, rotated)).max_abs() for a in (1, 2)]

    fixtures = [draw() for _ in range(3 if stacked else 1)]
    got = residuals(*stack(fixtures))
    # One residual per fixture, each that fixture's own.
    each = [residuals(*f) for f in fixtures]
    assert np.array_equal(got, np.transpose(each) if stacked else each[0])
    assert np.max(got) <= 1e-13


def test_clifford_action_componentwise(rng, grid):
    s = odd_spinor(rng, grid, [1, 2])
    g1 = GAMMA[1]
    rotated = clifford(1, s)
    for i in range(2):
        expected = s.comps[0] * g1[i, 0] + s.comps[1] * g1[i, 1]
        assert rotated.comps[i].max_abs_diff(expected) < 1e-14


CLIFFORD_MATRICES = {"gamma1": GAMMA[1], "gamma2": GAMMA[2], "gamma5": PAIRING_MATRIX}


def _dense_matrix_apply(s, m):
    """Every entry of m multiplied in, zeros included."""
    return [s.comps[0] * float(m[i, 0]) + s.comps[1] * float(m[i, 1]) for i in range(2)]


@pytest.mark.parametrize("name", ["gamma1", "gamma2", "gamma5", "full"])
def test_matrix_apply_matches_dense_product_bitwise(rng, grid, name):
    m = {**CLIFFORD_MATRICES, "full": np.array([[0.5, -2.0], [1.5, 0.25]])}[name]
    s = odd_spinor(rng, grid, [1, 2])
    out = s.matrix_apply(m)
    for got, want in zip(out.comps, _dense_matrix_apply(s, m)):
        assert list(got.terms) == list(want.terms)
        for mask, a in want.terms.items():
            assert np.array_equal(got.terms[mask], a)


@pytest.mark.parametrize("name", ["gamma1", "gamma2", "gamma5"])
@pytest.mark.parametrize("component", [0, 1])
def test_nan_in_one_spinor_component_reaches_the_output(rng, grid, name, component):
    # Skipping a zero matrix entry skips NaN * 0.0; the NaN must still reach
    # the row where its entry is nonzero.
    m = CLIFFORD_MATRICES[name]
    s = odd_spinor(rng, grid, [1, 2])
    comps = list(s.comps)
    bad = {mask: a.copy() for mask, a in comps[component].terms.items()}
    next(iter(bad.values()))[3, 5] = np.nan
    comps[component] = GrassmannField(grid, N_GEN, bad)
    out = SpinorField(comps).matrix_apply(m)
    assert np.isnan(out.max_abs())
    assert any(np.isnan(c.max_abs()) for c in out.comps)


def test_super_weyl_shifts_gravitino(rng, grid):
    chi = gravitino(rng, grid)
    t = odd_spinor(rng, grid, [1, 2])
    shifted = super_weyl(chi, t)
    for a in (1, 2):
        assert shifted[a].max_abs_diff(chi[a] + clifford(a, t)) < 1e-14


def test_gamma_trace(rng, grid):
    chi = gravitino(rng, grid)
    gt = chi.gamma_trace()
    expected = clifford(1, chi[1]) + clifford(2, chi[2])
    assert gt.max_abs_diff(expected) == 0.0


def test_weyl_scales_frame(grid):
    geom = SurfaceGeometry.flat(grid, N_GEN)
    lam = GrassmannField(grid, N_GEN, {0: np.full(grid.shape, 4.0)})
    scaled = weyl(geom, lam)
    # g -> lambda g means the orthonormal frame scales by lambda^{-1/2}.
    for a in range(2):
        for k in range(2):
            expected = geom.frame[a][k] * 0.5
            assert scaled.frame[a][k].max_abs_diff(expected) < 1e-14


def test_frame_parity_enforced(rng, grid):
    odd_entry = odd_field(rng, grid, [1])
    one = GrassmannField.from_array(grid, N_GEN, np.ones(grid.shape))
    zero = GrassmannField.zero(grid, N_GEN)
    with pytest.raises(ParityError):
        SurfaceGeometry(grid, N_GEN, [[one, odd_entry], [zero, one]])


def test_frame_orientation_enforced(grid):
    one = GrassmannField.from_array(grid, N_GEN, np.ones(grid.shape))
    zero = GrassmannField.zero(grid, N_GEN)
    with pytest.raises(ValueError):
        SurfaceGeometry(grid, N_GEN, [[-1.0 * one, zero], [zero, one]])


def test_volume_factor_inverts_determinant(rng, grid):
    one = GrassmannField.from_array(grid, N_GEN, np.ones(grid.shape))
    zero = GrassmannField.zero(grid, N_GEN)
    scale = GrassmannField(grid, N_GEN, {0: 2.0 + 0.5 * np.cos(grid.coordinates()[0]),
                                         0b11: trig_array(rng, grid)})
    geom = SurfaceGeometry(grid, N_GEN, [[scale, zero], [zero, one]])
    prod = geom.volume_factor() * geom.frame_determinant()
    assert prod.max_abs_diff(one) < 1e-12
