import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import supersigma.sigma2d as s2
from supersigma.berezin import berezin_integrate
from supersigma.config import SuiteConfig
from supersigma.deformations import lie_derivative_metric
from supersigma.grassmann import GrassmannNumber, Parity
from supersigma.gridfield import GrassmannField, Grid, spectral_derivative
from supersigma.sigma2d import (
    ActionCoefficients,
    CalibrationError,
    ComponentFields,
    FlowDivergenceError,
    UnsupportedRegimeError,
    action_component,
    action_superfield_flat,
    calibrate_conventions,
    current_spin32,
    d_zbar,
    energy_momentum,
    harmonic_flow,
    super_current,
    superfield_from_components,
    susy_fields,
    susy_gravitino_variation,
    susy_invariance_residual,
    t_zz,
)
from supersigma.spin_surface import (
    GravitinoField,
    SpinorField,
    SurfaceGeometry,
)
from supersigma.suites import build_calibration_battery, flow_initial_data, run_suite, suite_rng
from supersigma.superdomain import SuperFunction

from conftest import (N_GEN, constant_odd_spinor, even_field, gravitino,
                      odd_field, odd_spinor, sigma_fixture, stack, trig_array)

@pytest.fixture
def grid():
    return Grid((16, 16), (2.0 * np.pi, 2.0 * np.pi))


def matter(rng, grid, with_F=False, soul=True):
    return ComponentFields(
        phi=[even_field(rng, grid, scale=0.7,
                        soul_mask=0b11 if soul else None)],
        psi=[odd_spinor(rng, grid, [1, 2], scale=0.6)],
        F=[even_field(rng, grid, scale=0.5) if with_F
           else GrassmannField.zero(grid, N_GEN)],
    )


def test_superfield_component_roundtrip(rng, grid):
    fields = matter(rng, grid, with_F=True)
    (Phi,) = superfield_from_components(fields)
    assert Phi.coefficient(0b00).max_abs_diff(fields.phi[0]) < 1e-14
    assert Phi.coefficient(0b01).max_abs_diff(fields.psi[0].comps[0]) < 1e-14
    assert Phi.coefficient(0b10).max_abs_diff(fields.psi[0].comps[1]) < 1e-14
    assert (Phi.coefficient(0b11) * 2.0).max_abs_diff(fields.F[0]) < 1e-14


def test_superfield_action_equals_component_action(rng, grid):
    geom = SurfaceGeometry.flat(grid, N_GEN)
    chi0 = GravitinoField.zero(grid, N_GEN)
    for _ in range(5):
        fields = matter(rng, grid, with_F=True)
        a_super = action_superfield_flat(superfield_from_components(fields))
        a_comp = action_component(geom, chi0, fields)
        assert a_super.max_abs_diff(a_comp) < 1e-11


def test_superfield_rejects_winding(rng, grid):
    fields = ComponentFields(
        phi=[even_field(rng, grid)],
        psi=[SpinorField.zero(grid, N_GEN)],
        F=[GrassmannField.zero(grid, N_GEN)],
        winding=np.array([[1.0, 0.0]]),
    )
    with pytest.raises(UnsupportedRegimeError):
        superfield_from_components(fields)


def full_integrand_action(Phis, coeffs):
    """The superfield action with every eta-coefficient of its integrand formed."""
    integrand = SuperFunction(Phis[0].grid, 2, Phis[0].n_gen, {})
    for Phi in Phis:
        D1, D2 = s2._super_derivatives(Phi)
        integrand = integrand + D1 * D2 - D2 * D1
    return berezin_integrate(integrand * coeffs.superfield_normalization)


SUPERFIELD_GRIDS = [Grid((16, 16), (2.0 * np.pi, 2.0 * np.pi)),
                    Grid((15, 13), (3.0, 5.5)),
                    Grid((64, 64), (2.0 * np.pi, 7.0))]


def superfields(rng, grid, stacking):
    """Two superfields, both of one fixture, both of 3 fixtures, or one each."""
    if stacking == "unstacked":
        return superfield_from_components(matter_dim2(rng, grid, with_F=True))
    stacked = superfield_from_components(
        stack([matter_dim2(rng, grid, with_F=True) for _ in range(3)]))
    if stacking == "stacked":
        return stacked
    return stacked[:1] + superfield_from_components(matter(rng, grid, with_F=True))


@pytest.mark.parametrize("stacking", ["unstacked", "stacked", "mixed"])
@pytest.mark.parametrize("grid_", SUPERFIELD_GRIDS, ids=lambda g: f"{g.shape[0]}x{g.shape[1]}")
def test_superfield_action_has_the_bits_of_the_full_integrand(rng, grid_, stacking):
    Phis = superfields(rng, grid_, stacking)
    arrays = [a for Phi in Phis for c in Phi.terms.values() for a in c.terms.values()]
    before = [a.copy() for a in arrays]
    for a in arrays:
        a.flags.writeable = False
    for coeffs in (ActionCoefficients(), ActionCoefficients(superfield_normalization=1.0)):
        got = action_superfield_flat(Phis, coeffs)
        want = full_integrand_action(Phis, coeffs)
        assert set(got.terms) == set(want.terms)
        for m, c in want.terms.items():
            assert np.array_equal(got.terms[m], c), m
    assert all(np.array_equal(a, b) for a, b in zip(arrays, before))


def test_superfield_action_of_a_large_grid_forms_one_top_coefficient(rng):
    # numpy reports its array allocations to tracemalloc.  Forming every
    # eta-coefficient of D1 Phi D2 Phi and D2 Phi D1 Phi takes about 40
    # sample planes of the grid here; the top coefficient alone about 29 on a
    # first call on fresh fields, which forms the gradients Phi's slots keep,
    # and about 18 on a later call, which reads them.
    grid = Grid((128, 128), (2.0 * np.pi, 2.0 * np.pi))
    Phis = superfield_from_components(matter(rng, grid, with_F=True))
    plane = np.zeros(grid.shape).nbytes
    actions, peaks = [], []
    for _ in range(2):
        tracemalloc.start()
        try:
            actions.append(action_superfield_flat(Phis))
            peaks.append(tracemalloc.get_traced_memory()[1] / plane)
        finally:
            tracemalloc.stop()
    assert actions[1].max_abs_diff(actions[0]) == 0.0
    assert peaks[0] < 30
    assert peaks[1] < 20


def test_susy_invariance_chi_zero(rng, grid):
    geom = SurfaceGeometry.flat(grid, N_GEN)
    chi0 = GravitinoField.zero(grid, N_GEN)
    fields = matter(rng, grid, soul=False)
    q = constant_odd_spinor(rng, grid, 5)
    assert susy_invariance_residual(geom, chi0, fields, q) < 1e-12


def test_susy_invariance_chi_nonzero(rng, grid):
    geom = SurfaceGeometry.flat(grid, N_GEN)
    chi = gravitino(rng, grid)
    fields = matter(rng, grid, soul=False)
    q = constant_odd_spinor(rng, grid, 5)
    assert susy_invariance_residual(geom, chi, fields, q) < 1e-12


def test_default_coefficients_are_the_calibrated_point():
    # Every sigma2d function called without coeffs evaluates the
    # supersymmetric action: on the suite's first calibration entry, three
    # fixtures with chi != 0, the default c5 = +1/2 read 4.07.
    config = SuiteConfig()
    battery_ = build_calibration_battery(config, suite_rng(config, "susy2d"))
    geom, chi, fields, q = battery_[0]
    assert not chi.is_zero()
    assert np.max(susy_invariance_residual(geom, chi, fields, q)) <= 1e-12
    assert calibrate_conventions(battery_)[0] == ActionCoefficients() == config.conventions


def test_susy_variation_first_order_exactness(rng, grid):
    # The variation is linear in the monomial parameter q, so applying it
    # twice with the same q annihilates every field (q^2 = 0 structurally).
    geom = SurfaceGeometry.flat(grid, N_GEN)
    chi0 = GravitinoField.zero(grid, N_GEN)
    fields = matter(rng, grid, soul=False)
    q = constant_odd_spinor(rng, grid, 5)
    delta = susy_fields(fields, chi0, q, geom)
    delta2 = susy_fields(delta, chi0, q, geom)
    assert delta2.phi[0].max_abs() < 1e-13


def test_susy_rejects_even_parameter(rng, grid):
    geom = SurfaceGeometry.flat(grid, N_GEN)
    chi0 = GravitinoField.zero(grid, N_GEN)
    fields = matter(rng, grid, soul=False)
    q_even = SpinorField([even_field(rng, grid) for _ in range(2)])
    with pytest.raises(Exception):
        susy_fields(fields, chi0, q_even, geom)


def battery(rng, grid, n=3):
    out = []
    for i in range(n):
        geom = SurfaceGeometry.flat(grid, N_GEN)
        fields = matter(rng, grid, soul=False)
        chi = gravitino(rng, grid) if i < n - 1 \
            else GravitinoField.zero(grid, N_GEN)
        out.append((geom, chi, fields, constant_odd_spinor(rng, grid, 5)))
    return out


def test_calibration_finds_signs(rng, grid):
    cal, derived = calibrate_conventions(battery(rng, grid))
    assert (cal.s1, cal.s2, cal.c4, cal.c5) == (1.0, 1.0, 2.0, -0.5)
    # The null vector itself is the calibrated point, c3 held at base.c3.
    assert np.max(np.abs(derived - [1.0, 1.0, -0.25, 2.0, -0.5])) <= 1e-14


def test_flipping_s1_is_offset_by_flipping_c2(rng, grid):
    # (+, +) and (-, +) have the same singular values, and their null vectors
    # differ in the sign of c2 alone: the pair is picked by base's c2, which
    # every pair's coefficients keep.
    matrices = s2._variation_matrices(battery(rng, grid), ActionCoefficients())
    free = [0, 1, 3, 4]
    _, plus, v_plus = np.linalg.svd(matrices[1.0, 1.0][:, free])
    _, minus, v_minus = np.linalg.svd(matrices[-1.0, 1.0][:, free])
    assert np.max(np.abs(plus - minus)) <= 1e-12 * plus[0]
    null_plus, null_minus = v_plus[-1] / v_plus[-1][0], v_minus[-1] / v_minus[-1][0]
    assert np.max(np.abs(null_plus * [1.0, -1.0, 1.0, 1.0] - null_minus)) <= 1e-12
    assert np.max(np.abs(null_plus - [1.0, 1.0, 2.0, -0.5])) <= 1e-12


# Reference oracle: the full invariance residual of every one of the 16 sign
# candidates (base magnitudes) on every fixture, and the sign search that the
# solve replaced, applied to those scores.

def brute_force_scores(fixtures, base):
    rows = []
    for sign1 in (1.0, -1.0):
        for sign2 in (1.0, -1.0):
            for sig4 in (1.0, -1.0):
                for sig5 in (1.0, -1.0):
                    cand = replace(base, s1=sign1, s2=sign2,
                                   c4=sig4 * abs(base.c4), c5=sig5 * abs(base.c5))
                    worst = 0.0
                    for geom, chi, fields, q in fixtures:
                        # A suite battery's entry stacks several fixtures.
                        worst = max(worst, *np.atleast_1d(susy_invariance_residual(
                            geom, chi, fields, q, coeffs=cand)))
                    rows.append((worst, sign1, sign2, sig4, sig5, cand))
    return rows


def brute_force_calibration(rows, tolerance=1e-6):
    best = min(r[0] for r in rows)
    if all(abs(r[0] - best) < 1e-14 for r in rows):
        raise CalibrationError("underdetermined")
    passing = [r for r in rows if r[0] < tolerance]
    if not passing:
        raise CalibrationError("no sign assignment")
    passing.sort(key=lambda r: (-r[1], -r[2], -r[3], -r[4]))
    return passing[0][5]


def matter_dim2(rng, grid, with_F=False):
    return ComponentFields(
        phi=[even_field(rng, grid, scale=0.7) for _ in range(2)],
        psi=[odd_spinor(rng, grid, [1, 2], scale=0.6) for _ in range(2)],
        F=[even_field(rng, grid, scale=0.5) if with_F
           else GrassmannField.zero(grid, N_GEN) for _ in range(2)],
    )


def two_generator_q(rng, grid):
    return SpinorField([
        GrassmannField(grid, N_GEN, {1 << 4: np.full(grid.shape, float(rng.normal())),
                                     1 << 5: np.full(grid.shape, float(rng.normal()))})
        for _ in range(2)])


def oracle_case(name, rng, grid):
    """(battery, base) for each battery the linear scoring is checked on."""
    base = ActionCoefficients()
    if name == "test-battery":
        return battery(rng, grid), base
    if name == "suite-battery":
        return build_calibration_battery(SuiteConfig(), rng), base
    if name == "target-dim-2":
        geom = SurfaceGeometry.flat(grid, N_GEN)
        return [(geom, gravitino(rng, grid), matter_dim2(rng, grid),
                 constant_odd_spinor(rng, grid, 5)),
                (geom, GravitinoField.zero(grid, N_GEN), matter_dim2(rng, grid),
                 constant_odd_spinor(rng, grid, 5))], base
    if name == "odd-magnitudes":
        return battery(rng, grid), replace(base, c1=0.7, c4=3.0, c5=0.3)
    if name == "scaled-magnitudes":
        # The whole action times 0.7: still invariant, so calibration passes.
        return battery(rng, grid), replace(base, c1=0.7, c2=0.7, c3=-0.175,
                                           c4=1.4, c5=0.35)
    if name == "q-generators-5-6":
        return [(geom, chi, fields, two_generator_q(rng, grid))
                for geom, chi, fields, _ in battery(rng, grid)], base
    raise ValueError(name)


@pytest.mark.parametrize("name", ["test-battery", "suite-battery", "target-dim-2",
                                  "odd-magnitudes", "scaled-magnitudes",
                                  "q-generators-5-6"])
def test_linear_calibration_matches_brute_force(rng, grid, name):
    fixtures, base = oracle_case(name, rng, grid)
    expected = brute_force_scores(fixtures, base)
    # Each candidate's max |M c| is its full invariance residual.
    matrices = s2._variation_matrices(fixtures, base)
    for want, sign1, sign2, _, _, cand in expected:
        got = np.max(np.abs(matrices[sign1, sign2] @ s2._coefficient_vector(cand)))
        assert abs(got - want) <= 1e-12 * max(1.0, want)
    try:
        want_cal = brute_force_calibration(expected)
    except CalibrationError:
        with pytest.raises(CalibrationError):
            calibrate_conventions(fixtures, base=base)
    else:
        assert calibrate_conventions(fixtures, base=base)[0] == want_cal


def action_terms_cases(rng, grid):
    """Fixtures with chi != 0, F != 0, and target dimensions 1 and 2."""
    geom = SurfaceGeometry.flat(grid, N_GEN)
    return [
        (geom, gravitino(rng, grid), matter(rng, grid, with_F=True)),
        (geom, gravitino(rng, grid), matter_dim2(rng, grid, with_F=True)),
    ]


def test_action_terms_recombine_to_action(rng, grid):
    # Distinct magnitudes, so a term filed under the wrong index shows.
    coeffs = ActionCoefficients(c1=1.3, c2=0.7, c3=-0.45, c4=2.2, c5=-0.35)
    c = (coeffs.c1, coeffs.c2, coeffs.c3, coeffs.c4, coeffs.c5)
    for geom, chi, fields in action_terms_cases(rng, grid):
        terms = s2._action_terms(geom, chi, fields, coeffs)
        present = [i + 1 for i, t in enumerate(terms) if t is not None]
        assert present == [1, 2, 3, 4, 5]
        total = GrassmannNumber(N_GEN)
        for ci, integral in zip(c, terms):
            if integral is not None:
                total = total + integral * ci
        expected = action_component(geom, chi, fields, coeffs)
        assert total.max_abs_diff(expected) < 1e-12


def test_calibration_runs_no_full_residual(rng, grid, monkeypatch):
    calls = {"susy_invariance_residual": 0, "action_density": 0}

    def counting(name):
        original = getattr(s2, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(s2, name, counting(name))
    cal, _ = calibrate_conventions(battery(rng, grid))
    assert (cal.s1, cal.s2, cal.c4, cal.c5) == (1.0, 1.0, 2.0, -0.5)
    assert calls == {"susy_invariance_residual": 0, "action_density": 0}


def test_calibration_rejects_empty_battery():
    with pytest.raises(CalibrationError):
        calibrate_conventions([])


def test_calibration_reports_degenerate_battery(rng, grid):
    geom = SurfaceGeometry.flat(grid, N_GEN)
    zero_fields = ComponentFields.zero(grid, N_GEN, 1)
    chi0 = GravitinoField.zero(grid, N_GEN)
    q = constant_odd_spinor(rng, grid, 5)
    with pytest.raises(CalibrationError, match="underdetermined"):
        calibrate_conventions([(geom, chi0, zero_fields, q)])


def test_calibration_keeps_what_the_battery_leaves_free(rng, grid):
    # Without chi the columns of c4 and c5 are zero: they keep base's values
    # (base's signs among them), and c2 is still derived from c1.
    fixtures = [(geom, GravitinoField.zero(grid, N_GEN), fields, q)
                for geom, _, fields, q in battery(rng, grid)]
    base = ActionCoefficients(c4=3.0, c5=0.25)
    cal, derived = calibrate_conventions(fixtures, base=base)
    assert cal == base
    assert np.max(np.abs(derived - [1.0, 1.0, -0.25, 3.0, 0.25])) <= 1e-14


@pytest.mark.parametrize("seed", [10, 31, 64])
def test_calibration_with_one_chi_fixture_and_no_resonance(seed):
    # At these seeds no Fourier modes of the two fixtures resonate in the
    # Dirichlet term's first variation, so its column of M is rounding
    # (about 1e-14 of the largest singular value, above matrix_rank's
    # tolerance) and c1 : c2 is free: the solve keeps c2 at base's value and
    # derives c4 and c5 from it.
    config = SuiteConfig(seed=seed, fixture_counts={"calibration": 2})
    battery_ = build_calibration_battery(config, suite_rng(config, "susy2d"))
    matrix = s2._variation_matrices(battery_, ActionCoefficients())[1.0, 1.0]
    singular = np.linalg.svd(matrix[:, [0, 1, 3, 4]])[1]
    assert singular[2] < 1e-12 * singular[0]
    cal, derived = calibrate_conventions(battery_)
    assert cal == ActionCoefficients()
    assert np.max(np.abs(derived - [1.0, 1.0, -0.25, 2.0, -0.5])) <= 1e-12
    rows = {c.name: c for c in run_suite(config, "susy2d")}
    assert all(c.passed for c in rows.values())
    assert rows["susy2d-coefficients-derived"].residual <= 1e-12


def test_calibration_fails_on_a_nan_fixture(rng, grid):
    # A NaN sample in the second fixture's phi puts a NaN in every sign
    # pair's first variation, so no pair is chosen.
    fixtures = battery(rng, grid)
    geom, chi, fields, q = fixtures[1]
    body = fields.phi[0].terms[0].copy()
    body[3, 4] = np.nan
    phi = GrassmannField(grid, N_GEN, {**fields.phi[0].terms, 0: body})
    fixtures[1] = (geom, chi, replace(fields, phi=[phi]), q)
    matrices = s2._variation_matrices(fixtures, ActionCoefficients())
    assert all(np.isnan(m).any() for m in matrices.values())
    with pytest.raises(CalibrationError, match="best = nan"):
        calibrate_conventions(fixtures)


def test_energy_momentum_closed_form(rng, grid):
    geom = SurfaceGeometry.flat(grid, N_GEN)
    chi0 = GravitinoField.zero(grid, N_GEN)
    fields = ComponentFields(
        phi=[even_field(rng, grid, scale=0.8)],
        psi=[SpinorField.zero(grid, N_GEN)],
        F=[GrassmannField.zero(grid, N_GEN)],
    )
    T = energy_momentum(geom, chi0, fields)
    dphi = [fields.phi_derivative(0, k) for k in range(2)]
    norm_sq = dphi[0] * dphi[0] + dphi[1] * dphi[1]
    scale = norm_sq.max_abs()
    for a in range(2):
        for b in range(2):
            exact = dphi[a] * dphi[b]
            if a == b:
                exact = exact - norm_sq * 0.5
            assert T[a][b].max_abs_diff(exact) / scale < 1e-13
    assert T[0][1].max_abs_diff(T[1][0]) == 0.0


def test_energy_momentum_holomorphic_for_harmonic_map(grid):
    geom = SurfaceGeometry.flat(grid, N_GEN)
    chi0 = GravitinoField.zero(grid, N_GEN)
    winding = np.array([[1.0, 0.0], [0.0, 1.0]])
    fields = ComponentFields(
        phi=[GrassmannField.zero(grid, N_GEN) for _ in range(2)],
        psi=[SpinorField.zero(grid, N_GEN) for _ in range(2)],
        F=[GrassmannField.zero(grid, N_GEN) for _ in range(2)],
        winding=winding,
    )
    T = energy_momentum(geom, chi0, fields)
    assert (T[0][0] + T[1][1]).max_abs() < 1e-13
    re, im = t_zz(T)
    dre, dim_ = d_zbar(re, im)
    assert max(dre.max_abs(), dim_.max_abs()) < 1e-13


def _central_difference_energy_momentum(geom, chi, fields, coeffs):
    """Reference T: central differences of the action density under the
    constant metric steps g -> g +- h E, each realized by the frame
    premultiplied by (1 +- h E)^{-1/2}."""
    h = 1e-5

    def inv_sqrt(m):
        vals, vecs = np.linalg.eigh(m)
        return (vecs * (1.0 / np.sqrt(vals))) @ vecs.T

    def density(m):
        # The frame f_a -> m_ab f_b.
        return s2.action_density(geom.moved_frame(m - np.eye(2)), chi, fields, coeffs)

    def variation(E):
        plus = density(inv_sqrt(np.eye(2) + h * E))
        minus = density(inv_sqrt(np.eye(2) - h * E))
        return (plus - minus) * (-1.0 / (2.0 * h))

    t11 = variation(np.array([[1.0, 0.0], [0.0, 0.0]]))
    t22 = variation(np.array([[0.0, 0.0], [0.0, 1.0]]))
    t12 = variation(np.array([[0.0, 1.0], [1.0, 0.0]])) * 0.5
    return [[t11, t12], [t12, t22]]


def test_energy_momentum_matches_central_differences_off_shell(rng, grid):
    # psi, chi and F all nonzero: every action term varies with the metric.
    geom, chi, fields, _ = sigma_fixture(rng, grid, with_chi=True)
    fields = replace(fields, F=[even_field(rng, grid, scale=0.5)])
    T = energy_momentum(geom, chi, fields)
    reference = _central_difference_energy_momentum(geom, chi, fields, ActionCoefficients())
    scale = max(T[a][b].max_abs() for a in range(2) for b in range(2))
    assert scale > 1.0
    for a in range(2):
        for b in range(2):
            assert T[a][b].max_abs_diff(reference[a][b]) / scale < 1e-8


@pytest.mark.parametrize("n_gen", [61, 62])
def test_energy_momentum_needs_two_generators_above_the_fields(n_gen):
    grid = Grid((4, 4), (2.0 * np.pi, 2.0 * np.pi))
    geom = SurfaceGeometry.flat(grid, n_gen)
    chi0 = GravitinoField.zero(grid, n_gen)
    fields = replace(ComponentFields.zero(grid, n_gen, 1), winding=np.array([[1.0, 0.5]]))
    if n_gen > 61:
        with pytest.raises(ValueError, match="energy_momentum needs n_gen <= 61"):
            energy_momentum(geom, chi0, fields)
    else:
        T = energy_momentum(geom, chi0, fields)
        assert T[0][0].n_gen == n_gen
        assert T[0][0].terms[0][0, 0] == 1.0 - 0.5 * (1.0 + 0.25)


def test_super_current_directional_oracle(rng, grid):
    """delta_chi A contracted against an arbitrary direction must equal the
    pairing integral against J; the direction carries the spare generator so
    the identity is exact in the Grassmann algebra."""
    geom = SurfaceGeometry.flat(grid, N_GEN)
    chi = gravitino(rng, grid)
    fields = matter(rng, grid, soul=False)
    direction = GravitinoField([odd_spinor(rng, grid, [6, 6], scale=0.7)
                                for _ in range(2)])
    a0 = action_component(geom, chi, fields)
    a1 = action_component(geom, chi + direction, fields)
    J = super_current(geom, chi, fields)
    from supersigma.spin_surface import pairing
    density = GrassmannField.zero(grid, N_GEN)
    for a in (1, 2):
        density = density + pairing(direction[a], J[a])
    expected = density.integral()
    assert (a1 - a0).max_abs_diff(expected) < 1e-11


def test_super_current_vanishes_without_psi(rng, grid):
    geom = SurfaceGeometry.flat(grid, N_GEN)
    chi = gravitino(rng, grid)
    fields = ComponentFields(
        phi=[even_field(rng, grid)],
        psi=[SpinorField.zero(grid, N_GEN)],
        F=[GrassmannField.zero(grid, N_GEN)],
    )
    assert super_current(geom, chi, fields).max_abs() == 0.0


def test_super_current_gamma_trace_free_at_chi_zero(rng, grid):
    geom = SurfaceGeometry.flat(grid, N_GEN)
    chi0 = GravitinoField.zero(grid, N_GEN)
    fields = matter(rng, grid, soul=False)
    J = super_current(geom, chi0, fields)
    assert J.gamma_trace().max_abs() < 1e-13


def test_spin32_component_holomorphic_on_critical_fixture(rng, grid):
    geom = SurfaceGeometry.flat(grid, N_GEN)
    chi0 = GravitinoField.zero(grid, N_GEN)
    winding = np.array([[1.0, 0.0], [0.0, 1.0]])
    crit = ComponentFields(
        phi=[GrassmannField.zero(grid, N_GEN) for _ in range(2)],
        psi=[constant_odd_spinor(rng, grid, g) for g in (1, 2)],
        F=[GrassmannField.zero(grid, N_GEN) for _ in range(2)],
        winding=winding,
    )
    J = super_current(geom, chi0, crit)
    re, im = current_spin32(J)
    dre, dim_ = d_zbar(re, im)
    assert max(dre.max_abs(), dim_.max_abs()) < 1e-12


def test_harmonic_flow_converges(grid):
    geom = SurfaceGeometry.flat(grid, N_GEN)
    X, Y = grid.coordinates()
    phi0 = [0.3 * np.cos(2 * X + Y), 0.2 * np.sin(2 * Y)]
    result = harmonic_flow(geom, phi0, steps=5000, dt=1e-3,
                           winding=np.eye(2))
    assert result.converged
    # The affine limit carries only the winding's energy, |W|^2 vol.
    linear = float(np.sum(np.eye(2) * np.eye(2))) * grid.volume
    assert abs(result.energies[-1] - linear) < 1e-6
    assert all(e1 <= e0 + 1e-12 for e0, e1 in zip(result.energies, result.energies[1:]))


def test_harmonic_flow_divergence_detected(grid):
    geom = SurfaceGeometry.flat(grid, N_GEN)
    X, Y = grid.coordinates()
    phi0 = [0.3 * np.cos(7 * X + 5 * Y), np.zeros(grid.shape)]
    with pytest.raises(FlowDivergenceError):
        harmonic_flow(geom, phi0, steps=2000, dt=0.05, winding=np.eye(2))


def _reference_flow(grid, phi0, steps, dt, winding):
    """The real-space flat flow: two spectral derivatives per Laplacian and a
    real-space Dirichlet energy every step.  Returns (phi, energies, steps
    taken, converged)."""
    def laplacian(p):
        return sum(spectral_derivative(spectral_derivative(p, grid, k), grid, k) for k in (0, 1))

    def energy(phi):
        total = 0.0
        for t, p in enumerate(phi):
            for k in range(2):
                dp = spectral_derivative(p, grid, k) + winding[t, k]
                total += float(np.mean(dp * dp))
        return total * grid.volume

    phi = [np.asarray(p, dtype=float).copy() for p in phi0]
    energies = [energy(phi)]
    increases = 0
    step = 0
    for step in range(1, steps + 1):
        lap = [laplacian(p) for p in phi]
        if max(float(np.max(np.abs(l))) for l in lap) < s2.FLOW_GRAD_TOL:
            return phi, energies, step - 1, True
        phi = [p + 2.0 * dt * l for p, l in zip(phi, lap)]
        energies.append(energy(phi))
        increases = increases + 1 if energies[-1] > energies[-2] else 0
        if increases >= 10:
            raise FlowDivergenceError("energy increased for 10 consecutive steps")
    converged = max(float(np.max(np.abs(laplacian(p)))) for p in phi) < s2.FLOW_GRAD_TOL
    return phi, energies, step, converged


def _per_step_flow(geom, phi0, steps, dt, winding):
    """The flat Fourier flow one step at a time, with the exact Laplacian
    maximum formed before every step: the bits ``harmonic_flow`` must give."""
    grid = geom.grid
    winding = np.asarray(winding, dtype=float)
    phi = [np.asarray(p, dtype=float).copy() for p in phi0]
    n0, n1 = grid.shape
    k0 = s2.derivative_wavenumbers(grid, 0)
    k1 = s2.derivative_wavenumbers(grid, 1)[: n1 // 2 + 1]
    ksq = k0[:, None] ** 2 + k1 ** 2
    pairs = np.full(k1.shape, 2.0)
    pairs[0] = 1.0
    if n1 % 2 == 0:
        pairs[-1] = 1.0
    growth = 1.0 - 2.0 * dt * ksq
    energy_weight = pairs * ksq / float(n0 * n1) ** 2
    winding_energy = float(np.sum(winding * winding))

    def gradient_max(hat):
        return float(np.max(np.abs(np.fft.irfft2(-ksq * hat, s=grid.shape))))

    def energy(hat):
        power = hat.real ** 2 + hat.imag ** 2
        return (winding_energy + float(np.sum(energy_weight * power))) * grid.volume

    hat = np.fft.rfft2(np.stack(phi))
    energies = [energy(hat)]
    increases = 0
    converged = False
    step = 0
    for step in range(1, steps + 1):
        if gradient_max(hat) < s2.FLOW_GRAD_TOL:
            converged = True
            step -= 1
            break
        hat = hat * growth
        e = energy(hat)
        if e > energies[-1]:
            increases += 1
            if increases >= 10:
                raise FlowDivergenceError(f"energy increased for {increases} consecutive "
                                          f"steps, up to step {step}; reduce dt")
        else:
            increases = 0
        energies.append(e)
    else:
        converged = gradient_max(hat) < s2.FLOW_GRAD_TOL
    energies[0] = s2._dirichlet_energy(grid, phi, winding)
    if step:
        phi = list(np.fft.irfft2(hat, s=grid.shape))
        energies[-1] = s2._dirichlet_energy(grid, phi, winding)
    return s2.FlowResult(phi=phi, winding=winding, energies=energies,
                         steps_taken=step, converged=converged)


def _assert_same_flow(got, want):
    assert got.steps_taken == want.steps_taken
    assert got.converged is want.converged
    assert len(got.energies) == len(want.energies)
    assert all(a == b for a, b in zip(got.energies, want.energies))
    assert len(got.phi) == len(want.phi)
    assert all(np.array_equal(a, b) for a, b in zip(got.phi, want.phi))


def _flow_case(name):
    if name.startswith("suite-seed-"):
        config = SuiteConfig(seed=int(name.removeprefix("suite-seed-")))
        return flow_initial_data(config, suite_rng(config, "flow"))
    grid = Grid((15, 13) if name == "odd-grid" else (16, 12), (2.0 * np.pi, np.pi))
    X, Y = grid.coordinates()
    # Small white noise puts content in every mode, the Nyquist modes included.
    noise = np.random.default_rng(3).normal(scale=1e-3, size=(2,) + grid.shape)
    phi0 = [0.3 * np.cos(2 * X + 2 * Y) + 0.1 * np.sin(X - 4 * Y) + noise[0],
            0.2 * np.sin(2 * Y) * np.cos(X) + noise[1]]
    return SurfaceGeometry.flat(grid, N_GEN), phi0, np.array([[1.0, 0.5], [0.0, 1.0]])


@pytest.mark.parametrize("case, steps, dt", [
    ("suite-seed-7", 5000, 1e-3), ("odd-grid", 5000, 4e-3), ("even-grid", 5000, 4e-3),
    ("suite-seed-7", 50, 1e-3), ("odd-grid", 40, 4e-3),
    ("suite-seed-0", 5000, 1e-3), ("suite-seed-42", 5000, 1e-3),
], ids=["suite-seed-7", "odd-grid", "even-grid", "budget-out", "odd-grid-budget-out",
        "suite-seed-0", "suite-seed-42"])
def test_fourier_flow_matches_real_space_flow(case, steps, dt):
    geom, phi0, winding = _flow_case(case)
    phi, energies, taken, converged = _reference_flow(geom.grid, phi0, steps, dt, winding)
    result = harmonic_flow(geom, phi0, steps=steps, dt=dt, winding=winding)
    # The blocked steps have the bits of the per-step Fourier loop.
    _assert_same_flow(result, _per_step_flow(geom, phi0, steps, dt, winding))
    assert result.steps_taken == taken
    assert result.converged is converged
    assert converged is (steps == 5000)
    assert len(result.energies) == len(energies)
    # Parseval energies in between agree with the real-space ones to round-off.
    assert np.max(np.abs(np.subtract(result.energies, energies))) <= 1e-13 * energies[0]
    assert result.energies[0] == energies[0]
    if converged:
        assert result.energies[-1] == energies[-1]
    else:
        assert abs(result.energies[-1] - energies[-1]) <= 1e-13 * energies[-1]
    assert max(float(np.max(np.abs(p - q))) for p, q in zip(result.phi, phi)) < 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fourier_flow_divergence_matches_real_space_flow(grid):
    geom = SurfaceGeometry.flat(grid, N_GEN)
    X, Y = grid.coordinates()
    phi0 = [0.3 * np.cos(7 * X + 5 * Y), np.zeros(grid.shape)]
    with pytest.raises(FlowDivergenceError):
        _reference_flow(grid, phi0, 2000, 0.05, np.eye(2))
    with pytest.raises(FlowDivergenceError) as want:
        _per_step_flow(geom, phi0, 2000, 0.05, np.eye(2))
    # The blocked flow stops at the same step, and the steps its block forms
    # past that one raise no warning.
    with pytest.raises(FlowDivergenceError) as got:
        harmonic_flow(geom, phi0, steps=2000, dt=0.05, winding=np.eye(2))
    assert str(got.value) == str(want.value)
    assert "up to step 10;" in str(got.value)


def test_flat_flow_steps_without_real_space_kernels(monkeypatch, grid):
    calls = {"spectral_derivative": 0, "_dirichlet_energy": 0}
    for name in calls:
        original = getattr(s2, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(s2, name, counted)
    geom, phi0, winding = _flow_case("suite-seed-7")
    result = harmonic_flow(geom, phi0, steps=5000, dt=1e-3, winding=winding)
    assert result.steps_taken > 900
    # Only the first and the last reported energies are evaluated in real
    # space, with one derivative per coordinate and axis.
    assert calls == {"spectral_derivative": 8, "_dirichlet_energy": 2}


def test_blocked_flow_budgets_at_and_around_block_boundaries():
    geom, phi0, winding = _flow_case("suite-seed-42")
    dt = 1e-3
    block = s2._FLOW_BLOCK_STEPS
    taken = _per_step_flow(geom, phi0, 5000, dt, winding).steps_taken
    assert taken % block not in (0, 1, block - 1)
    # Mid-block, one block, on a later block boundary, one step before and
    # one after a boundary, the converging step itself and one short of it.
    budgets = [block // 2, block, 2 * block, 3 * block - 1, 3 * block + 1, taken, taken - 1, 0]
    for steps in budgets:
        want = _per_step_flow(geom, phi0, steps, dt, winding)
        assert want.converged is (steps == taken)
        _assert_same_flow(harmonic_flow(geom, phi0, steps=steps, dt=dt, winding=winding), want)


def test_blocked_flow_of_a_converged_map_takes_no_step(grid):
    geom = SurfaceGeometry.flat(grid, N_GEN)
    X, _ = grid.coordinates()
    # A Laplacian of 1e-12 at most: converged before any step.
    phi0 = [1e-12 * np.cos(X), np.zeros(grid.shape)]
    for steps in (0, 1, 5000):
        got = harmonic_flow(geom, phi0, steps=steps, dt=1e-3, winding=np.eye(2))
        assert got.converged and got.steps_taken == 0 and len(got.energies) == 1
        _assert_same_flow(got, _per_step_flow(geom, phi0, steps, 1e-3, np.eye(2)))


def test_suite_flow_forms_the_exact_laplacian_maximum_only_near_convergence(monkeypatch):
    geom, phi0, winding = _flow_case("suite-seed-42")
    calls = []
    irfft2 = np.fft.irfft2

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return irfft2(*args, **kwargs)
    monkeypatch.setattr(np.fft, "irfft2", counted)
    result = harmonic_flow(geom, phi0, steps=5000, dt=1e-3, winding=winding)
    assert result.converged and result.steps_taken > 1000
    # A check before every step would call it 1,392 times here.
    assert len(calls) <= 10


@pytest.mark.parametrize("steps, dt, fragment", [
    (100, float("nan"), "dt must be finite and positive, got nan"),
    (100, float("inf"), "dt must be finite and positive, got inf"),
    (100, 0.0, "dt must be finite and positive, got 0.0"),
    (100, -1e-3, "dt must be finite and positive, got -0.001"),
    (-3, 1e-3, "steps must be at least 0, got -3"),
], ids=["dt-nan", "dt-inf", "dt-zero", "dt-negative", "steps-negative"])
def test_flow_rejects_bad_parameters_before_any_transform(monkeypatch, grid, steps, dt, fragment):
    def no_transform(*args, **kwargs):
        raise AssertionError("transformed before checking its parameters")
    monkeypatch.setattr(np.fft, "rfft2", no_transform)
    geom = SurfaceGeometry.flat(grid, N_GEN)
    with pytest.raises(ValueError, match=re.escape(fragment)):
        harmonic_flow(geom, [np.zeros(grid.shape)] * 2, steps=steps, dt=dt)


def test_gravitino_variation_is_odd(rng, grid):
    geom = SurfaceGeometry.flat(grid, N_GEN)
    chi = gravitino(rng, grid)
    q = constant_odd_spinor(rng, grid, 5)
    dchi = susy_gravitino_variation(geom, chi, q)
    for a in (1, 2):
        assert dchi[a].is_zero() or dchi[a].parity() is Parity.ODD


def test_susy_geometry_variation_parities(rng, grid):
    geom = SurfaceGeometry.flat(grid, N_GEN)
    chi = gravitino(rng, grid)
    q = constant_odd_spinor(rng, grid, 5)
    varied_geom, varied_chi = s2._susy_varied_geometry(geom, chi, q)
    dframe = [varied_geom.frame[a][k] - geom.frame[a][k] for a in range(2) for k in range(2)]
    assert any(not e.is_zero() for e in dframe)
    for entry in dframe:
        assert entry.is_zero() or entry.parity() is Parity.EVEN
    dchi = varied_chi - chi
    for a in (1, 2):
        assert dchi[a].is_zero() or dchi[a].parity() is Parity.ODD


def test_susy_geometry_variation_vanishes_at_chi_zero(rng, grid):
    geom = SurfaceGeometry.flat(grid, N_GEN)
    chi0 = GravitinoField.zero(grid, N_GEN)
    q = constant_odd_spinor(rng, grid, 5)
    varied_geom, varied_chi = s2._susy_varied_geometry(geom, chi0, q)
    assert max(varied_geom.frame[a][k].max_abs_diff(geom.frame[a][k])
               for a in range(2) for k in range(2)) == 0.0
    # Constant q has vanishing flat derivative, and every other term of
    # delta chi is linear in chi.
    assert varied_chi.max_abs() == 0.0


def assert_no_repeat(log):
    pairs = [(id(f), axis) for f, axis in log]
    assert log and len(set(pairs)) == len(pairs)


def test_action_differentiates_each_field_once(rng, grid, derivative_log):
    for geom, chi, fields in action_terms_cases(rng, grid):
        assert not chi.is_zero() and not fields.psi[0].is_zero()
        derivative_log.clear()
        action_component(geom, chi, fields)
        assert_no_repeat(derivative_log)


def test_superfield_action_differentiates_each_field_once(rng, grid, derivative_log):
    action_superfield_flat(superfield_from_components(matter_dim2(rng, grid, with_F=True)))
    assert_no_repeat(derivative_log)


def test_susy_residual_differentiates_each_field_once(rng, grid, derivative_log):
    geom = SurfaceGeometry.flat(grid, N_GEN)
    q = two_generator_q(rng, grid)
    susy_invariance_residual(geom, gravitino(rng, grid), matter_dim2(rng, grid), q)
    assert_no_repeat(derivative_log)


def test_calibration_differentiates_each_field_once(rng, grid, derivative_log):
    calibrate_conventions(battery(rng, grid))
    assert_no_repeat(derivative_log)


def test_lie_derivative_differentiates_each_field_once(rng, grid, derivative_log):
    geom = SurfaceGeometry.flat(grid, N_GEN)
    X = [even_field(rng, grid), even_field(rng, grid)]
    lie_derivative_metric(geom, X)
    assert_no_repeat(derivative_log)
    assert len(derivative_log) == 4


def test_new_fields_get_fresh_phi_gradients(rng, grid):
    fields = matter_dim2(rng, grid)
    other = matter_dim2(rng, grid)
    before = [fields.phi_derivative(t, k) for t in range(2) for k in range(2)]
    for new in (replace(fields, phi=other.phi), fields + other,
                replace(fields, winding=np.ones((2, 2)))):
        for t in range(2):
            for k in range(2):
                expected = new.phi[t].derivative(k) + float(new.winding[t, k])
                assert new.phi_derivative(t, k).max_abs_diff(expected) == 0.0
    # The original keeps its own gradients.
    after = [fields.phi_derivative(t, k) for t in range(2) for k in range(2)]
    assert all(a is b for a, b in zip(after, before))


# The first variation read off one evaluation: q's generators are fresh, so
# the part of A(varied) free of them is A(original), bit for bit.

def assert_same_terms(x, y):
    """x and y have the same monomials with equal coefficients (NaN equal to NaN)."""
    assert list(x.terms) == list(y.terms)
    for m in x.terms:
        assert np.array_equal(x.terms[m], y.terms[m], equal_nan=True), m


Q_BITS = 1 << 4  # generator Q_GEN = 5


def free_part_cases(rng, grid):
    """(name, (geom, chi, fields, q)): constant and local q, chi zero and not,
    one fixture and a stacked chunk of three."""
    return [
        ("constant-q-chi-zero", sigma_fixture(rng, grid, False)),
        ("constant-q-chi-nonzero", sigma_fixture(rng, grid, True)),
        ("local-q-chi-zero", sigma_fixture(rng, grid, False, local_q=True)),
        ("local-q-chi-nonzero", sigma_fixture(rng, grid, True, local_q=True)),
        ("stacked-chunk", stacked_fixtures(rng, grid, 3, local_q=True)),
    ]


def stacked_fixtures(rng, grid, count, local_q=False):
    """``count`` sigma-model fixtures with chi, stacked on the flat frame."""
    chi, fields, q = stack([sigma_fixture(rng, grid, True, local_q=local_q)[1:]
                            for _ in range(count)])
    return SurfaceGeometry.flat(grid, N_GEN), chi, fields, q


def test_q_free_part_of_the_varied_action_is_the_action(rng, grid):
    for name, (geom, chi, fields, q) in free_part_cases(rng, grid):
        varied_geom, varied_chi = s2._susy_varied_geometry(geom, chi, q)
        varied = fields + susy_fields(fields, chi, q, geom)
        a1 = action_component(varied_geom, varied_chi, varied)
        assert a1.free_of(Q_BITS).terms, name
        assert_same_terms(a1.free_of(Q_BITS), action_component(geom, chi, fields))
        # The per-term integrals the calibration scores, at every (s1, s2).
        terms0 = s2._action_terms(geom, chi, fields, ActionCoefficients())
        for s1 in (1.0, -1.0):
            for s2_ in (1.0, -1.0):
                delta = susy_fields(fields, chi, q, geom, ActionCoefficients(s1=s1, s2=s2_))
                terms1 = s2._action_terms(varied_geom, varied_chi, fields + delta,
                                          ActionCoefficients())
                for t0, t1 in zip(terms0, terms1):
                    if t0 is None:
                        assert t1 is None or t1.free_of(Q_BITS).is_zero(), name
                    else:
                        assert_same_terms(t1.free_of(Q_BITS), t0)


def test_q_free_part_along_the_noether_direction_is_the_action(rng, grid):
    # The currents suite's Noether row varies chi along the spare generator 6.
    geom, chi, fields, _ = stacked_fixtures(rng, grid, 2)
    direction = stack([gravitino(rng, grid, gens=(6, 6), scale=0.7) for _ in range(2)])
    a1 = action_component(geom, chi + direction, fields)
    assert a1.free_of(1 << 5).terms and len(a1.free_of(1 << 5).terms) < len(a1.terms)
    assert_same_terms(a1.free_of(1 << 5), action_component(geom, chi, fields))


def test_susy_residual_is_the_difference_of_two_evaluations(rng, grid):
    for name, (geom, chi, fields, q) in free_part_cases(rng, grid):
        varied_geom, varied_chi = s2._susy_varied_geometry(geom, chi, q)
        varied = fields + susy_fields(fields, chi, q, geom)
        a1 = action_component(varied_geom, varied_chi, varied)
        a0 = action_component(geom, chi, fields)
        assert np.array_equal(susy_invariance_residual(geom, chi, fields, q),
                              a1.max_abs_diff(a0)), name


def shared_generator_cases(rng, grid):
    """(fixture whose q shares a generator with its inputs, that generator)."""
    geom, chi, fields, q = sigma_fixture(rng, grid, True)
    soul = GrassmannField(grid, N_GEN, {0: np.ones(grid.shape),
                                        0b110000: 0.1 * trig_array(rng, grid)})
    return [
        ((geom, chi, fields, constant_odd_spinor(rng, grid, 1)), 1),  # psi's
        ((geom, chi, fields, constant_odd_spinor(rng, grid, 4)), 4),  # chi's
        ((geom, chi, fields, odd_spinor(rng, grid, (5, 2))), 2),
        ((geom.with_frame([[soul, geom.frame[0][1]], [geom.frame[1][0], soul]]),
          chi, fields, q), 5),  # the frame's
    ]


def test_susy_residual_rejects_q_sharing_a_generator(rng, grid):
    for fixture, g in shared_generator_cases(rng, grid):
        with pytest.raises(ValueError, match=f"q shares generator {g} with the unvaried"):
            susy_invariance_residual(*fixture)


def test_calibration_rejects_q_sharing_a_generator(rng, grid):
    for fixture, g in shared_generator_cases(rng, grid):
        with pytest.raises(ValueError, match=f"q shares generator {g} with the unvaried"):
            calibrate_conventions(battery(rng, grid) + [fixture])
