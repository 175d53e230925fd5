import tracemalloc

import numpy as np
import pytest

from supersigma import deformations
from supersigma.config import SuiteConfig
from supersigma.deformations import (
    DecompositionResult,
    MetricDeformation,
    decompose_gravitino,
    decompose_metric,
    lie_derivative_metric,
    true_deformation_dimensions,
)
from supersigma.grassmann import ParityError
from supersigma.gridfield import GrassmannField, Grid
from supersigma.report import SuiteReport, render_report
from supersigma.sigma2d import UnsupportedRegimeError, susy_gravitino_variation
from supersigma.spin_surface import GAMMA, GravitinoField, SpinorField, SurfaceGeometry
from supersigma.suites import run_suite

from conftest import N_GEN, even_field, gravitino, odd_field, odd_spinor, stack, trig_array


@pytest.fixture
def grid():
    return Grid((32, 32), (2.0 * np.pi, 2.0 * np.pi))


@pytest.fixture
def geom(grid):
    return SurfaceGeometry.flat(grid, N_GEN)


@pytest.fixture
def chi0(grid):
    return GravitinoField.zero(grid, N_GEN)


def band_field(rng, grid, masks=(0,), cutoff=6):
    from conftest import trig_array
    return GrassmannField(grid, N_GEN, {
        m: trig_array(rng, grid, cutoff=cutoff) for m in masks})


def test_lie_derivative_closed_form(geom, grid):
    X2 = grid.coordinates()[1]
    X = [GrassmannField(grid, N_GEN, {0: np.sin(X2)}),
         GrassmannField.zero(grid, N_GEN)]
    lie = lie_derivative_metric(geom, X)
    assert np.max(np.abs(lie.tensor[0][1].terms[0] - np.cos(X2))) < 1e-12
    assert lie.tensor[0][0].max_abs() == 0.0
    assert lie.tensor[1][1].max_abs() == 0.0


def test_lie_derivative_of_killing_field_vanishes(geom, grid):
    X = [GrassmannField.from_array(grid, N_GEN, np.full(grid.shape, 2.0)),
         GrassmannField.from_array(grid, N_GEN, np.full(grid.shape, -1.0))]
    assert lie_derivative_metric(geom, X).max_abs() < 1e-12


def test_lie_derivative_rejects_odd_vector(rng, geom, grid):
    with pytest.raises(ParityError):
        lie_derivative_metric(geom, [odd_field(rng, grid, [1]),
                                     GrassmannField.zero(grid, N_GEN)])


def test_conformal_input_recovered(geom, chi0, grid):
    three = GrassmannField.from_array(grid, N_GEN, np.full(grid.shape, 3.0))
    zero = GrassmannField.zero(grid, N_GEN)
    r = decompose_metric(geom, chi0, MetricDeformation([[three, zero], [zero, three]]))
    assert np.max(np.abs(r.weyl.terms[0] - 3.0)) < 1e-12
    assert r.residual_metric.max_abs() < 1e-12
    assert r.reassembly_residual < 1e-12


def test_lie_derivative_input_absorbed(rng, geom, chi0, grid):
    X = [band_field(rng, grid), band_field(rng, grid)]
    dg = lie_derivative_metric(geom, X)
    r = decompose_metric(geom, chi0, dg)
    assert r.residual_metric.max_abs() < 1e-8
    assert r.reassembly_residual < 1e-8


def test_constant_trace_free_tensor_is_true_deformation(geom, chi0, grid):
    one = GrassmannField.from_array(grid, N_GEN, np.ones(grid.shape))
    zero = GrassmannField.zero(grid, N_GEN)
    dg = MetricDeformation([[one, zero], [zero, -1.0 * one]])
    r = decompose_metric(geom, chi0, dg)
    assert r.weyl.max_abs() < 1e-12
    assert r.residual_metric.max_abs_diff(dg) < 1e-12
    assert r.trace_residual < 1e-12
    assert r.divergence_residual < 1e-12


def test_metric_reassembly_on_random_input(rng, geom, chi0, grid):
    g11 = band_field(rng, grid, (0, 0b11))
    g12 = band_field(rng, grid, (0, 0b1100))
    g22 = band_field(rng, grid, (0,))
    dg = MetricDeformation([[g11, g12], [g12, g22]])
    r = decompose_metric(geom, chi0, dg)
    assert r.reassembly_residual < 1e-8
    assert r.trace_residual < 1e-8
    assert r.divergence_residual < 1e-8


def test_nan_sample_reaches_every_metric_residual(geom, chi0, grid):
    # All-zero modes are dropped by GrassmannField itself; a NaN sample must
    # not be dropped with them and read as a zero residual.
    g11 = np.cos(grid.coordinates()[0])
    g11[3, 4] = np.nan
    entry = GrassmannField(grid, N_GEN, {0: g11})
    zero = GrassmannField.zero(grid, N_GEN)
    r = decompose_metric(geom, chi0, MetricDeformation([[entry, zero], [zero, entry]]))
    assert np.isnan(r.reassembly_residual)
    assert np.isnan(r.trace_residual)
    assert np.isnan(r.divergence_residual)
    assert np.isnan(r.weyl.max_abs())


def test_super_weyl_input_recovered(rng, geom, chi0, grid):
    t = SpinorField([band_field(rng, grid, (0b1,)), band_field(rng, grid, (0b10,))])
    dchi = GravitinoField([t.matrix_apply(GAMMA[1]), t.matrix_apply(GAMMA[2])])
    r = decompose_gravitino(geom, chi0, dchi)
    assert r.residual_gravitino.max_abs() < 1e-8
    assert r.super_weyl.max_abs_diff(t) < 1e-8


def test_susy_image_absorbed(rng, geom, chi0, grid):
    q = SpinorField([band_field(rng, grid, (0b1,)), band_field(rng, grid, (0b10,))])
    dchi = GravitinoField([q.derivative(0), q.derivative(1)])
    r = decompose_gravitino(geom, chi0, dchi)
    assert r.residual_gravitino.max_abs() < 1e-8
    assert r.reassembly_residual < 1e-8


def test_fitted_susy_parameter_is_the_q_of_the_transformation(rng, geom, chi0, grid):
    # At chi = 0 the supersymmetry moves the gravitino by delta chi_a = -d_a q,
    # and a q without a zero mode is fixed by its derivatives: the split
    # returns q itself, not -q, and no super-Weyl part.
    def without_zero_mode():
        a = trig_array(rng, grid, cutoff=6)
        return a - a.mean()

    q = SpinorField([GrassmannField(grid, N_GEN, {0b10000: without_zero_mode()})
                     for _ in range(2)])
    r = decompose_gravitino(geom, chi0, susy_gravitino_variation(geom, chi0, q))
    assert r.susy_parameter.max_abs_diff(q) <= 1e-12
    assert r.super_weyl.max_abs() <= 1e-12


def test_constant_gamma_trace_free_section_is_true_deformation(geom, chi0, grid):
    A = np.zeros((2, 4))
    A[:, 0:2] = GAMMA[1]
    A[:, 2:4] = GAMMA[2]
    null = np.linalg.svd(A)[2][-1]
    dchi = GravitinoField([
        SpinorField([GrassmannField(grid, N_GEN, {0b1: np.full(grid.shape, null[2 * a])}),
                     GrassmannField(grid, N_GEN, {0b1: np.full(grid.shape, null[2 * a + 1])})])
        for a in range(2)])
    r = decompose_gravitino(geom, chi0, dchi)
    assert r.residual_gravitino.max_abs_diff(dchi) < 1e-12
    assert r.gamma_trace_residual < 1e-12


def test_gravitino_reassembly_on_random_input(rng, geom, chi0, grid):
    dchi = GravitinoField([odd_spinor(rng, grid, [1, 3], cutoff=6),
                           odd_spinor(rng, grid, [2, 4], cutoff=6)])
    r = decompose_gravitino(geom, chi0, dchi)
    assert r.reassembly_residual < 1e-8
    assert r.gamma_trace_residual < 1e-8


def test_true_dimensions_flat_torus(geom):
    assert true_deformation_dimensions(geom) == (2, 2)


def test_true_dimensions_stable_under_refinement(geom):
    geom64 = SurfaceGeometry.flat(Grid((64, 64), (2.0 * np.pi, 2.0 * np.pi)), N_GEN)
    assert true_deformation_dimensions(geom) == true_deformation_dimensions(geom64)


def test_nonzero_gravitino_background_unsupported(rng, geom, grid):
    chi = gravitino(rng, grid)
    one = GrassmannField.from_array(grid, N_GEN, np.ones(grid.shape))
    zero = GrassmannField.zero(grid, N_GEN)
    dg = MetricDeformation([[one, zero], [zero, one]])
    with pytest.raises(UnsupportedRegimeError):
        decompose_metric(geom, chi, dg)


@pytest.mark.parametrize("call", ["metric", "gravitino", "lie", "dimensions"])
def test_frame_near_identity_is_not_flat(rng, geom, chi0, grid, call):
    # A frame 1e-12 away from the identity used to pass an allclose gate and
    # then be treated as exactly flat.
    assert geom.is_identity_frame()
    near = geom.moved_frame([[1e-12, 0.0], [0.0, 0.0]])
    assert not near.is_identity_frame()
    zero = GrassmannField.zero(grid, N_GEN)
    calls = {
        "metric": lambda: decompose_metric(near, chi0, MetricDeformation([[zero, zero], [zero, zero]])),
        "gravitino": lambda: decompose_gravitino(near, chi0, gravitino(rng, grid)),
        "lie": lambda: lie_derivative_metric(near, [even_field(rng, grid), even_field(rng, grid)]),
        "dimensions": lambda: true_deformation_dimensions(near),
    }
    with pytest.raises(UnsupportedRegimeError):
        calls[call]()


def test_metric_deformation_must_be_symmetric(rng, grid):
    a = band_field(rng, grid)
    b = band_field(rng, grid)
    zero = GrassmannField.zero(grid, N_GEN)
    with pytest.raises(ValueError):
        MetricDeformation([[zero, a], [b, zero]])


def test_gravitino_deformation_must_be_odd(rng, grid):
    # Parity is already enforced when the section itself is built.
    with pytest.raises(ParityError):
        GravitinoField([
            SpinorField([even_field(rng, grid) for _ in range(2)])
            for _ in range(2)])


# ---------------------------------------------------------------------------
# Reference oracle: the per-mode pinv loop that the batched solve replaced.
# ---------------------------------------------------------------------------

def reference_metric_columns(kap1, kap2):
    return np.array([
        [1.0, 2j * kap1, 0.0],
        [0.0, 1j * kap2, 1j * kap1],
        [1.0, 0.0, 2j * kap2],
    ], dtype=complex)


def reference_gravitino_columns(kap1, kap2):
    A = np.zeros((4, 4), dtype=complex)
    A[0:2, 0:2] = GAMMA[1]
    A[2:4, 0:2] = GAMMA[2]
    A[0:2, 2:4] = 1j * kap1 * np.eye(2)
    A[2:4, 2:4] = 1j * kap2 * np.eye(2)
    return A


def reference_solve(comps, cutoff, build_columns):
    """One pinv per (mode, mask); returns (parameter fields, residual fields)."""
    grid, n_gen = comps[0].grid, comps[0].n_gen
    masks = sorted({m for f in comps for m in f.terms}) or [0]
    n1, n2 = grid.shape
    # Mode numbers in fftfreq order, as integers.
    m1 = (np.arange(n1) + n1 // 2) % n1 - n1 // 2
    m2 = (np.arange(n2) + n2 // 2) % n2 - n2 // 2
    k1 = 2.0 * np.pi * m1 / grid.periods[0]
    k2 = 2.0 * np.pi * m2 / grid.periods[1]
    n_par = build_columns(k1[0], k2[0]).shape[1]
    params, resid = {}, {}
    for m in masks:
        F = np.fft.fft2(np.stack([f.terms.get(m, np.zeros(grid.shape)) for f in comps]),
                        axes=(1, 2))
        params[m] = np.zeros((n_par,) + grid.shape, dtype=complex)
        resid[m] = np.array(F, dtype=complex)
        for i1 in range(n1):
            if abs(m1[i1]) > cutoff:
                continue
            for i2 in range(n2):
                if abs(m2[i2]) > cutoff:
                    continue
                A = build_columns(k1[i1], k2[i2])
                rhs = F[:, i1, i2]
                sol = np.linalg.pinv(A, rcond=1e-10) @ rhs
                params[m][:, i1, i2] = sol
                resid[m][:, i1, i2] = rhs - A @ sol

    def to_field(modes, j):
        terms = {}
        for m in masks:
            vals = np.fft.ifft2(modes[m][j]).real
            if np.max(np.abs(vals)) > 0.0:
                terms[m] = vals
        return GrassmannField(grid, n_gen, terms)

    return ([to_field(params, j) for j in range(n_par)],
            [to_field(resid, c) for c in range(len(comps))])


def reference_dimensions(geom, cutoff):
    grid = geom.grid

    def nullity(A):
        s = np.linalg.svd(A, compute_uv=False)
        smax = s[0] if len(s) and s[0] > 0 else 1.0
        return A.shape[1] - int(np.sum(s > 1e-10 * smax))

    d_even = d_odd = 0
    for n1 in range(0, cutoff + 1):
        for n2 in range(-cutoff, cutoff + 1):
            if n1 == 0 and n2 < 0:
                continue
            kap1 = 2.0 * np.pi * n1 / grid.periods[0]
            kap2 = 2.0 * np.pi * n2 / grid.periods[1]
            mult = 1 if (n1 == 0 and n2 == 0) else 2
            Ae = np.array([[1.0, 0.0, 1.0],
                           [1j * kap1, 1j * kap2, 0.0],
                           [0.0, 1j * kap1, 1j * kap2]], dtype=complex)
            Ao = np.zeros((4, 4), dtype=complex)
            Ao[0:2, 0:2] = GAMMA[1]
            Ao[0:2, 2:4] = GAMMA[2]
            Ao[2:4, 0:2] = 1j * kap1 * np.eye(2)
            Ao[2:4, 2:4] = 1j * kap2 * np.eye(2)
            d_even += mult * nullity(Ae)
            d_odd += mult * nullity(Ao)
    return d_even, d_odd


# Odd and even sides; the bands min(shape) // 4 are 0, 1, 2, 2, 3, 3, 4, 4,
# 5 and 6.  fftfreq(49, d=1/49) misses the integers by an ulp.
ORACLE_GRIDS = [
    Grid((3, 5), (2.0 * np.pi, 2.0 * np.pi)),
    Grid((6, 7), (2.0, 3.0)),
    Grid((12, 10), (2.0 * np.pi, 2.0 * np.pi)),
    Grid((15, 9), (3.0, 5.5)),
    Grid((15, 12), (3.0, 5.5)),
    Grid((49, 12), (3.0, 2.0 * np.pi)),
    Grid((16, 16), (7.5, 7.5)),
    Grid((19, 17), (4.0, 2.5)),
    Grid((20, 23), (2.5, 4.0)),
    Grid((27, 24), (2.0 * np.pi, 3.0)),
]


def shape_id(grid):
    return f"{grid.shape[0]}x{grid.shape[1]}"


def band_cutoff(grid):
    """The largest |m| of the grid's band on either axis."""
    return min(grid.shape) // 4


@pytest.mark.parametrize("grid_", ORACLE_GRIDS, ids=shape_id)
def test_metric_matches_per_mode_reference(rng, grid_):
    geom_ = SurfaceGeometry.flat(grid_, N_GEN)
    g11 = band_field(rng, grid_, (0, 0b11), cutoff=7)
    g12 = band_field(rng, grid_, (0, 0b1100), cutoff=7)
    g22 = band_field(rng, grid_, (0, 0b110000), cutoff=7)
    dg = MetricDeformation([[g11, g12], [g12, g22]])
    r = decompose_metric(geom_, GravitinoField.zero(grid_, N_GEN), dg)
    params, res = reference_solve([g11, g12, g22], band_cutoff(grid_),
                                  reference_metric_columns)
    assert r.weyl.max_abs_diff(params[0]) == 0.0
    assert max(r.vector[a].max_abs_diff(params[1 + a]) for a in range(2)) == 0.0
    D = MetricDeformation([[res[0], res[1]], [res[1], res[2]]])
    assert r.residual_metric.max_abs_diff(D) == 0.0


@pytest.mark.parametrize("cache", ["cold", "metric-line-cached"])
@pytest.mark.parametrize("grid_", ORACLE_GRIDS, ids=shape_id)
def test_gravitino_matches_per_mode_reference(rng, grid_, cache):
    geom_ = SurfaceGeometry.flat(grid_, N_GEN)
    dchi = GravitinoField([odd_spinor(rng, grid_, [1, 3], cutoff=7),
                           odd_spinor(rng, grid_, [2, 4], cutoff=7)])
    dchi = GravitinoField([dchi[1] + odd_spinor(rng, grid_, [5, 6], cutoff=7), dchi[2]])
    deformations._band_matrices.cache_clear()
    if cache == "metric-line-cached":
        # The metric line of the same grid is cached first: a key without
        # the line would hand back its A and A+.
        deformations._band_matrices(grid_, "metric")
    r = decompose_gravitino(geom_, GravitinoField.zero(grid_, N_GEN), dchi)
    comps = [dchi[1].comps[0], dchi[1].comps[1], dchi[2].comps[0], dchi[2].comps[1]]
    params, res = reference_solve(comps, band_cutoff(grid_), reference_gravitino_columns)
    assert r.super_weyl.max_abs_diff(SpinorField(params[0:2])) == 0.0
    # The reference fits delta chi_a = +d_a p; the supersymmetry parameter
    # is q = -p, since delta chi_a = -d_a q.
    assert r.susy_parameter.max_abs_diff(-SpinorField(params[2:4])) == 0.0
    DD = GravitinoField([SpinorField(res[0:2]), SpinorField(res[2:4])])
    assert r.residual_gravitino.max_abs_diff(DD) == 0.0


@pytest.mark.parametrize("grid_", ORACLE_GRIDS, ids=shape_id)
def test_true_dimensions_match_reference(grid_):
    geom_ = SurfaceGeometry.flat(grid_, N_GEN)
    assert true_deformation_dimensions(geom_) == reference_dimensions(geom_, band_cutoff(grid_))


# ---------------------------------------------------------------------------
# Inputs stacked over fixtures
# ---------------------------------------------------------------------------

def assert_fixture_bits(stacked, i, f):
    """Fixture i of ``stacked`` equals ``f`` sample for sample; a monomial
    that ``f`` lacks is zero there."""
    zero = np.zeros(f.grid.shape)
    assert set(f.terms) <= set(stacked.terms)
    for m, a in stacked.terms.items():
        assert np.array_equal(a[i], f.terms.get(m, zero)), m


STACK_GRIDS = [Grid((12, 10), (2.0 * np.pi, 2.0 * np.pi)), Grid((15, 9), (3.0, 5.5)),
               Grid((32, 32), (2.0 * np.pi, 2.0 * np.pi))]


@pytest.mark.parametrize("grid_", STACK_GRIDS, ids=shape_id)
def test_stacked_decompositions_match_each_fixture(rng, grid_):
    geom_ = SurfaceGeometry.flat(grid_, N_GEN)
    chi0_ = GravitinoField.zero(grid_, N_GEN)
    count = 3
    # The second fixture's g22 lacks the soul of the others: it is zero there.
    metrics = [(band_field(rng, grid_, (0, 0b11)), band_field(rng, grid_),
                band_field(rng, grid_, (0,) if i == 1 else (0, 0b1100))) for i in range(count)]
    gravitinos = [GravitinoField([odd_spinor(rng, grid_, [1, 3], cutoff=6),
                                  odd_spinor(rng, grid_, [2, 4], cutoff=6)])
                  for _ in range(count)]
    g11, g12, g22 = stack(metrics)
    r = decompose_metric(geom_, chi0_, MetricDeformation([[g11, g12], [g12, g22]]))
    rg = decompose_gravitino(geom_, chi0_, stack(gravitinos))
    each = [decompose_metric(geom_, chi0_, MetricDeformation([[a, b], [b, c]]))
            for a, b, c in metrics]
    each_g = [decompose_gravitino(geom_, chi0_, d) for d in gravitinos]
    for i in range(count):
        pairs = [(r.weyl, each[i].weyl)] + list(zip(r.vector, each[i].vector))
        pairs += [(r.residual_metric.tensor[a][b], each[i].residual_metric.tensor[a][b])
                  for a in range(2) for b in range(2)]
        pairs += list(zip(rg.super_weyl.comps, each_g[i].super_weyl.comps))
        pairs += list(zip(rg.susy_parameter.comps, each_g[i].susy_parameter.comps))
        pairs += [(rg.residual_gravitino[a].comps[c], each_g[i].residual_gravitino[a].comps[c])
                  for a in (1, 2) for c in range(2)]
        for stacked, f in pairs:
            assert_fixture_bits(stacked, i, f)
    # Each residual has one value per fixture: that fixture's own residual.
    for name in ("reassembly", "trace", "divergence"):
        assert np.array_equal(r.residual_norms()[name], [e.residual_norms()[name] for e in each])
    for name in ("reassembly", "gamma_trace"):
        assert np.array_equal(rg.residual_norms()[name],
                              [e.residual_norms()[name] for e in each_g])


# ---------------------------------------------------------------------------
# One Grassmann mask at a time
# ---------------------------------------------------------------------------

def all_masks_band_solve(comps, line):
    """The band solve with the modes of every mask and component held at once:
    one ``fft2`` of the whole (mask, component) stack, one ``ifft2`` per
    returned sample array."""
    grid, n_gen = comps[0].grid, comps[0].n_gen
    masks = sorted({m for f in comps for m in f.terms}) or [0]
    shape = np.broadcast_shapes(grid.shape, *(a.shape for f in comps for a in f.terms.values()))
    zero = np.zeros(grid.shape)
    F = np.array([[np.broadcast_to(f.terms.get(m, zero), shape) for f in comps]
                  for m in masks], dtype=complex)
    F = np.fft.fft2(F)
    band, A, A_pinv = deformations._band_matrices(grid, line)
    rhs = np.moveaxis(F[band], 1, -1)[..., None]
    sol = A_pinv @ rhs
    F[band] = np.moveaxis((rhs - A @ sol)[..., 0], -1, 1)

    def field(planes):
        return GrassmannField(grid, n_gen, {m: np.fft.ifft2(p).real.copy()
                                            for m, p in zip(masks, planes)})

    params = []
    for j in range(A.shape[-1]):
        planes = np.zeros((len(masks),) + shape, dtype=complex)
        planes[band] = sol[..., j, 0]
        params.append(field(planes))
    return params, [field(F[:, c]) for c in range(len(comps))]


def band_solve_inputs(rng, grid_, line, stacked):
    """Component fields of ``_band_solve`` for one line."""
    def draw():
        if line == "metric":
            return (band_field(rng, grid_, (0, 0b11), cutoff=7), band_field(rng, grid_),
                    band_field(rng, grid_, (0, 0b1100), cutoff=7))
        chi1 = odd_spinor(rng, grid_, [1, 3], cutoff=7) + odd_spinor(rng, grid_, [5, 6], cutoff=7)
        return tuple(chi1.comps) + tuple(odd_spinor(rng, grid_, [2, 4], cutoff=7).comps)

    return list(stack([draw() for _ in range(3)]) if stacked else draw())


def owner(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


@pytest.mark.parametrize("stacked", [False, True], ids=["one-fixture", "stacked"])
@pytest.mark.parametrize("line", ["metric", "gravitino"])
@pytest.mark.parametrize("grid_", ORACLE_GRIDS, ids=shape_id)
def test_per_mask_band_solve_has_the_bits_of_the_all_masks_solve(rng, grid_, line, stacked):
    comps = band_solve_inputs(rng, grid_, line, stacked)
    got = deformations._band_solve(comps, line)
    want = all_masks_band_solve(comps, line)
    for got_fields, want_fields in zip(got, want):
        assert len(got_fields) == len(want_fields)
        for f, w in zip(got_fields, want_fields):
            assert set(f.terms) == set(w.terms)
            for m, a in w.terms.items():
                assert np.array_equal(f.terms[m], a), m
                # A returned field keeps no complex transform alive.
                assert owner(f.terms[m]).dtype == np.float64


def test_gravitino_decomposition_of_a_large_grid_transforms_one_mask_at_a_time(rng):
    # numpy reports its array allocations to tracemalloc.  Holding the
    # complex modes of all 4 masks x 4 components at once, with two complex
    # temporaries per inverse transform, takes about 95 sample planes of the
    # grid here; one mask's complex stack at a time about 60.
    grid_ = Grid((128, 128), (2.0 * np.pi, 2.0 * np.pi))
    geom_ = SurfaceGeometry.flat(grid_, N_GEN)
    chi0_ = GravitinoField.zero(grid_, N_GEN)
    dchi = GravitinoField([odd_spinor(rng, grid_, [1, 2]), odd_spinor(rng, grid_, [3, 4])])
    want = decompose_gravitino(geom_, chi0_, dchi)
    plane = np.zeros(grid_.shape).nbytes
    tracemalloc.start()
    try:
        got = decompose_gravitino(geom_, chi0_, dchi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.residual_gravitino.max_abs_diff(want.residual_gravitino) == 0.0
    assert peak < 75 * plane


# ---------------------------------------------------------------------------
# The band
# ---------------------------------------------------------------------------

def test_band_holds_minus_m_at_the_mirrored_position_on_every_grid_up_to_64():
    # The precondition of _paired_pinv: on each axis the band keeps the
    # fftfreq order 0, 1, ..., c, -c, ..., -1, so the mode -m of position i
    # sits at position (-i) mod len, and no -n/2 mode lacks its partner.
    for n1 in range(1, 65):
        for n2 in range(1, 65):
            grid_ = Grid((n1, n2), (2.0 * np.pi, 3.0))
            c = deformations._band_cutoff(grid_)
            assert c == band_cutoff(grid_)
            for m in deformations._mode_wavenumbers(grid_)[2:]:
                modes = m[np.abs(m) <= c]
                assert len(modes) == 2 * c + 1, (n1, n2)
                mirrored = -np.arange(len(modes)) % len(modes)
                assert np.array_equal(modes[mirrored], -modes), (n1, n2)


def test_zero_cutoff_fits_only_the_constant_mode(rng):
    # A side of 3 points: the band min(shape) // 4 = 0 is the constant mode.
    grid_ = Grid((3, 8), (2.0 * np.pi, 5.0))
    geom_ = SurfaceGeometry.flat(grid_, N_GEN)
    three = GrassmannField.from_array(grid_, N_GEN, np.full(grid_.shape, 3.0))
    wave = band_field(rng, grid_, cutoff=6)
    zero = GrassmannField.zero(grid_, N_GEN)
    dg = MetricDeformation([[three + wave, zero], [zero, three]])
    r = decompose_metric(geom_, GravitinoField.zero(grid_, N_GEN), dg)
    assert r.reassembly_residual < 1e-12
    assert abs(np.mean(r.weyl.terms[0]) - 3.0 - 0.5 * np.mean(wave.terms[0])) < 1e-12
    assert r.residual_metric.max_abs() > 0.1
    assert true_deformation_dimensions(geom_) == (2, 2)


# ---------------------------------------------------------------------------
# Pseudo-inverse cache
# ---------------------------------------------------------------------------

def test_decompose_suite_cold_and_warm_render_identically():
    config = SuiteConfig(seed=3)
    config.fixture_counts["decompose"] = 4

    def render():
        checks = run_suite(config, "decompose")
        return render_report(SuiteReport(seed=config.seed, config_hash=config.config_hash(),
                                         conventions=config.conventions.to_dict(),
                                         checks=checks))

    deformations._band_matrices.cache_clear()
    cold = render()
    assert deformations._band_matrices.cache_info().currsize
    assert render() == cold


def test_repeated_key_makes_no_pinv_call(rng, monkeypatch, geom, chi0, grid):
    # A repeated key neither inverts nor builds the design matrices again.
    calls = []

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counting(np.linalg, "pinv")
    counting(deformations, "_metric_columns")
    counting(deformations, "_gravitino_columns")
    deformations._band_matrices.cache_clear()
    dchi = GravitinoField([odd_spinor(rng, grid, [1, 3]), odd_spinor(rng, grid, [2, 4])])
    dg = MetricDeformation([[band_field(rng, grid), GrassmannField.zero(grid, N_GEN)],
                            [GrassmannField.zero(grid, N_GEN), band_field(rng, grid)]])
    first = decompose_metric(geom, chi0, dg), decompose_gravitino(geom, chi0, dchi)
    assert calls == ["_metric_columns", "pinv", "_gravitino_columns", "pinv"]
    calls.clear()
    again = decompose_metric(geom, chi0, dg), decompose_gravitino(geom, chi0, dchi)
    assert calls == []
    for a, b in zip(first, again):
        assert a.residual_norms() == b.residual_norms()
    _, A, A_pinv = deformations._band_matrices(grid, "metric")
    assert not (A.flags.writeable or A_pinv.flags.writeable)


PAIR_GRIDS = ORACLE_GRIDS + [Grid((15, 15), (2.0 * np.pi, 2.0 * np.pi)),
                             Grid((32, 40), (1.0, 3.7))]


@pytest.mark.parametrize("line", ["metric", "gravitino", "gravitino-flipped"])
@pytest.mark.parametrize("grid_", PAIR_GRIDS, ids=shape_id)
def test_pair_filled_pinv_equals_pinv_of_every_mode(grid_, line):
    _, A, A_pinv = deformations._band_matrices(grid_, line.removesuffix("-flipped"))
    if line == "gravitino-flipped":
        # The same columns with -gamma^1: a second real constant block.
        A = A.copy()
        A[..., 0:2, 0:2] *= -1.0
        A_pinv = deformations._paired_pinv(A)
    want = np.linalg.pinv(A, rcond=deformations.SVD_CUTOFF)
    assert A_pinv.shape == want.shape
    assert (A_pinv == want).all()


def test_pair_filled_pinv_inverts_one_mode_per_conjugate_pair(monkeypatch):
    inverted = []
    pinv = np.linalg.pinv

    def counting(a, *args, **kwargs):
        inverted.append(len(a))
        return pinv(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "pinv", counting)
    # A band of n1 x n2 modes (both odd) inverts the zero mode and one of
    # each of the (n1 n2 - 1) / 2 conjugate pairs.
    for n1, n2 in ((1, 1), (1, 7), (5, 7), (9, 9)):
        modes1, modes2 = np.fft.fftfreq(n1, 1 / n1), np.fft.fftfreq(n2, 1 / n2)
        deformations._paired_pinv(deformations._metric_columns(modes1[:, None], modes2))
        assert inverted.pop() == (n1 * n2 + 1) // 2
    assert inverted == []


def test_cache_holds_at_most_two_entries(rng):
    deformations._band_matrices.cache_clear()
    for n in (8, 10, 12, 14, 16):
        g = Grid((n, n), (2.0 * np.pi, 2.0 * np.pi))
        zero = GrassmannField.zero(g, N_GEN)
        dg = MetricDeformation([[band_field(rng, g, cutoff=1), zero],
                                [zero, band_field(rng, g, cutoff=1)]])
        decompose_metric(SurfaceGeometry.flat(g, N_GEN), GravitinoField.zero(g, N_GEN), dg)
        assert deformations._band_matrices.cache_info().currsize <= 2


# ---------------------------------------------------------------------------
# NaN reaches the residuals
# ---------------------------------------------------------------------------

def with_nan_in_soul(f):
    """``f`` with one NaN sample in its mask 0b11."""
    soul = f.terms[0b11].copy()
    soul[3, 5] = np.nan
    return GrassmannField(f.grid, f.n_gen, {**f.terms, 0b11: soul})


def test_nan_in_a_soul_mask_gives_nan_metric_residuals(rng, geom, chi0, grid):
    g11 = with_nan_in_soul(band_field(rng, grid, masks=(0, 0b11)))
    g12, g22 = band_field(rng, grid), band_field(rng, grid, masks=(0, 0b1100))
    dg = MetricDeformation([[g11, g12], [g12, g22]])
    assert np.isnan(dg.max_abs())
    r = decompose_metric(geom, chi0, dg)
    for name in ("reassembly", "trace", "divergence"):
        assert np.isnan(r.residual_norms()[name]), name


def test_nan_fixture_fails_the_decompose_checks(monkeypatch):
    from supersigma import suites
    config = SuiteConfig(seed=3)
    config.fixture_counts["decompose"] = 2
    shapes = []
    original = suites._draw_chunk

    def second_g11_soul_nan(rng, grid, count, draw_fixture, cutoff=3):
        # Both fixtures share one 32^2 chunk, each drawing g11's body and
        # soul, g12, g22's body and soul and four gravitino components: make
        # the second g11's soul NaN (each mode is phase, k_1, k_2, amplitude).
        modes, kept = original(rng, grid, count, draw_fixture, cutoff)
        shapes.append(modes.shape)
        modes[1, 1, 3::4] = np.nan
        return modes, kept

    monkeypatch.setattr(suites, "_draw_chunk", second_g11_soul_nan)
    checks = {c.name: c for c in run_suite(config, "decompose")}
    assert shapes == [(2, 9, 12)]
    for name in ("decompose-metric-reassembly", "decompose-metric-trace-free",
                 "decompose-metric-divergence-free"):
        assert np.isnan(checks[name].residual) and not checks[name].passed, name
    assert checks["decompose-gravitino-reassembly"].passed
