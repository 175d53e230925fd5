"""The stacked suites (Berezin, toy, reduction, susy2d, currents and
decompose) against per-fixture loops, and the grassmann suite's bulk draws
and chunks.

The oracles below draw and evaluate one fixture at a time with the
per-array builders of conftest, as the suites did before they stacked a
chunk of fixtures on one leading axis, and return each row's residuals in
draw order.  Every row's per-fixture residuals must match them
bit for bit, and the suites must leave their generator in the same state as
the oracles.  Every grassmann residual is an exact 0.0, so its values would
show nothing: its draws, chunks and stacks are tested directly, and a NaN
planted in one fixture must reach its row.
"""

import math
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from supersigma import suites
from supersigma.berezin import berezin_integrate
from supersigma.config import SuiteConfig
from supersigma.deformations import (
    MetricDeformation,
    decompose_gravitino,
    decompose_metric,
    true_deformation_dimensions,
)
from supersigma.gridfield import GrassmannField, Grid
from supersigma.grassmann import GrassmannNumber, generator, unit
from supersigma.sigma2d import (
    ComponentFields,
    _calibration_scores,
    action_component,
    action_superfield_flat,
    calibrate_conventions,
    current_spin32,
    d_zbar,
    energy_momentum,
    super_current,
    superfield_from_components,
    susy_invariance_residual,
    t_zz,
)
from supersigma.spin_surface import (
    GravitinoField,
    SpinorField,
    SurfaceGeometry,
    pairing,
    weyl,
)
from supersigma.suites import (
    CHI_GENS,
    PSI_GENS,
    Q_GEN,
    SPARE_GEN,
    _chunk_sizes,
    _draw_chunk,
    _draw_modes,
    _grassmann_chunks,
    _grassmann_draws,
    _grassmann_stacks,
    _synthesize_chunk,
    build_calibration_battery,
)
from supersigma.superdomain import SuperFunction
from supersigma.toy_model import (
    ToyFields,
    _superfield_integrand,
    superfield_from_fields,
    toy_action_component,
    toy_action_superfield,
    toy_embedding_residual,
    toy_invariance_residual,
    toy_susy,
    toy_susy_geometric,
)

from conftest import even_field, gravitino, odd_field, odd_spinor, sigma_fixture, stack, trig_array

ODD_GRID = os.path.join(os.path.dirname(__file__), "data", "odd_grid.json")


def _berezin_oracle(config, rng):
    n_gen = config.n_gen
    grid = Grid((config.toy_points,), (config.periods[0],))
    reduction = []
    for _ in range(config.fixtures("berezin")):
        f0 = (even_field(rng, grid, soul_mask=0b11, n_gen=n_gen)
              + odd_field(rng, grid, [1], n_gen=n_gen))
        f1 = (even_field(rng, grid, soul_mask=0b110, n_gen=n_gen)
              + odd_field(rng, grid, [2], n_gen=n_gen))
        sf = SuperFunction(grid, 1, n_gen, {0: f0, 1: f1})
        reduction.append(berezin_integrate(sf).max_abs_diff(f1.integral()))
    return [reduction]


def _reduction_oracle(config, rng):
    n_gen = config.n_gen
    grid = Grid(config.reduction_grid_shape, config.periods)
    coeffs = config.conventions
    geom = SurfaceGeometry.flat(grid, n_gen)
    chi0 = GravitinoField.zero(grid, n_gen)
    superfield = []
    for _ in range(config.fixtures("reduction")):
        fields = ComponentFields(
            phi=[even_field(rng, grid, scale=0.7, soul_mask=0b11, n_gen=n_gen)],
            psi=[odd_spinor(rng, grid, PSI_GENS, scale=0.6, n_gen=n_gen)],
            F=[even_field(rng, grid, scale=0.5, n_gen=n_gen)],
        )
        a_super = action_superfield_flat(superfield_from_components(fields), coeffs)
        a_comp = action_component(geom, chi0, fields, coeffs=coeffs)
        superfield.append(a_super.max_abs_diff(a_comp))
    coords = grid.coordinates()
    classical_fields = ComponentFields(
        phi=[GrassmannField(grid, n_gen, {0: np.sin(coords[0])})],
        psi=[SpinorField.zero(grid, n_gen)],
        F=[GrassmannField.zero(grid, n_gen)],
    )
    a = action_component(geom, chi0, classical_fields, coeffs=coeffs)
    classical = a.max_abs_diff(unit(n_gen) * (coeffs.c1 * 2.0 * np.pi ** 2))
    conformal = []
    for _ in range(5):
        lam = GrassmannField(grid, n_gen, {
            0: np.exp(trig_array(rng, grid, scale=0.3)),
            0b11: trig_array(rng, grid, scale=0.4),
        })
        a0 = action_component(geom, chi0, classical_fields, coeffs=coeffs)
        a1 = action_component(weyl(geom, lam), chi0, classical_fields, coeffs=coeffs)
        conformal.append(a0.max_abs_diff(a1))
    return [superfield, [classical], conformal]


def _battery_oracle(config, rng):
    """The calibration battery one fixture at a time: the fixtures with chi,
    then the one without."""
    grid = Grid(config.grid_shape, config.periods)
    count = max(1, config.fixtures("calibration") - 1)
    return [sigma_fixture(rng, grid, with_chi, config.n_gen)
            for with_chi in [True] * count + [False]]


def _susy2d_oracle(config, rng):
    n_gen = config.n_gen
    grid = Grid(config.grid_shape, config.periods)
    battery = _battery_oracle(config, rng)
    cal = calibrate_conventions(battery, tolerance=config.tolerance("calibration"))
    cal_residual = [susy_invariance_residual(geom, chi, fields, q, coeffs=cal)
                    for geom, chi, fields, q in battery]
    cal_match = [abs(getattr(cal, k) - getattr(config.conventions, k))
                 for k in ("s1", "s2", "c4", "c5")]
    count = config.fixtures("susy2d")
    chi0_resid, chi_resid, local = [], [], []
    for _ in range(count):
        geom, chi, fields, q = sigma_fixture(rng, grid, False, n_gen)
        chi0_resid.append(susy_invariance_residual(geom, chi, fields, q,
                                                   coeffs=config.conventions))
        geom, chi, fields, q = sigma_fixture(rng, grid, True, n_gen)
        chi_resid.append(susy_invariance_residual(geom, chi, fields, q,
                                                  coeffs=config.conventions))
    for with_chi in (False, True):
        for _ in range(count):
            geom, chi, fields, q = sigma_fixture(rng, grid, with_chi, n_gen, local_q=True)
            local.append(susy_invariance_residual(geom, chi, fields, q,
                                                  coeffs=config.conventions))
    return [cal_residual, cal_match, chi0_resid, chi_resid, local]


def _phi_only(grid, n_gen, phi):
    return ComponentFields(phi=[phi], psi=[SpinorField.zero(grid, n_gen)],
                           F=[GrassmannField.zero(grid, n_gen)])


def _currents_oracle(config, rng):
    n_gen = config.n_gen
    grid = Grid(config.grid_shape, config.periods)
    coeffs = config.conventions
    geom = SurfaceGeometry.flat(grid, n_gen)
    chi0 = GravitinoField.zero(grid, n_gen)
    closed_rel = []
    for _ in range(config.fixtures("currents")):
        fields = _phi_only(grid, n_gen, even_field(rng, grid, scale=0.8, n_gen=n_gen))
        T = energy_momentum(geom, chi0, fields, coeffs=coeffs)
        dphi = [fields.phi_derivative(0, k) for k in range(2)]
        norm_sq = dphi[0] * dphi[0] + dphi[1] * dphi[1]
        exact = [[dphi[a] * dphi[b] * coeffs.c1 for b in range(2)] for a in range(2)]
        for a in range(2):
            exact[a][a] = exact[a][a] - norm_sq * (0.5 * coeffs.c1)
        errors = [T[a][b].max_abs_diff(exact[a][b]) for a in range(2) for b in range(2)]
        closed_rel.append(max(errors) / max(norm_sq.max_abs(), 1e-30))
    # The winding and critical fixtures draw no trig array: the suite builds
    # them unstacked, as here.
    winding = np.array([[1.0, 0.0], [0.5, 1.0]])
    T = energy_momentum(geom, chi0, replace(ComponentFields.zero(grid, n_gen, 2), winding=winding),
                        coeffs=coeffs)
    trace = (T[0][0] + T[1][1]).max_abs()
    div = [(T[a][0].derivative(0) + T[a][1].derivative(1)).max_abs() for a in range(2)]
    holo = [f.max_abs() for f in d_zbar(*t_zz(T))]
    chi = gravitino(rng, grid, n_gen=n_gen)
    j_zero = super_current(geom, chi, _phi_only(grid, n_gen, even_field(rng, grid, n_gen=n_gen)),
                           coeffs=coeffs).max_abs()
    psi = [SpinorField([GrassmannField(grid, n_gen,
                                       {1 << (g - 1): np.full(grid.shape, float(rng.normal()))})
                        for g in PSI_GENS]) for _ in range(2)]
    crit = replace(ComponentFields.zero(grid, n_gen, 2), psi=psi, winding=winding)
    J = super_current(geom, chi0, crit, coeffs=coeffs)
    gamma_trace = J.gamma_trace().max_abs()
    j_holo = [f.max_abs() for f in d_zbar(*current_spin32(J))]
    _, chi, fields, _ = sigma_fixture(rng, grid, True, n_gen)
    direction = GravitinoField([odd_spinor(rng, grid, [SPARE_GEN] * 2, scale=0.7, n_gen=n_gen)
                                for _ in range(2)])
    J = super_current(geom, chi, fields, coeffs=coeffs)
    paired = pairing(direction[1], J[1]) + pairing(direction[2], J[2])
    varied = action_component(geom, chi + direction, fields, coeffs=coeffs)
    noether = (varied - action_component(geom, chi, fields, coeffs=coeffs)).max_abs_diff(
        paired.integral())
    return [closed_rel, [trace], div, holo, [j_zero], [gamma_trace], j_holo, [noether]]


def _toy_oracle(config, rng):
    n_gen = config.n_gen
    grid = Grid((config.toy_points,), (config.periods[0],))
    count = config.fixtures("toy")
    equiv, susy, geom_agree, embed = [], [], [], []
    for _ in range(count):
        f = ToyFields(even_field(rng, grid, soul_mask=0b11, n_gen=n_gen),
                      odd_field(rng, grid, PSI_GENS, n_gen=n_gen))
        a_comp = toy_action_component(f)
        # The integrand is reused by the embedding check.
        integrand = _superfield_integrand(superfield_from_fields(f))
        a_super = berezin_integrate(integrand)
        equiv.append(a_comp.max_abs_diff(a_super))

        q = generator(n_gen, Q_GEN) * float(rng.normal())
        susy.append(toy_invariance_residual(f, q))
        d1, d2 = toy_susy(f, q), toy_susy_geometric(f, q)
        geom_agree.append(max(d1.phi.max_abs_diff(d2.phi), d1.psi.max_abs_diff(d2.psi)))

        xi = odd_field(rng, grid, [SPARE_GEN], scale=0.8, n_gen=n_gen)
        embed.append(toy_embedding_residual(integrand, xi))
    x = grid.axis_points(0)
    f = ToyFields(
        GrassmannField(grid, n_gen, {0: np.sin(x)}),
        GrassmannField(grid, n_gen, {0b01: np.cos(x), 0b10: np.sin(x)}),
    )
    expected = unit(n_gen) * (np.pi / 2.0) \
        + generator(n_gen, 1) * generator(n_gen, 2) * np.pi
    closed = max(toy_action_component(f).max_abs_diff(expected),
                 toy_action_superfield(superfield_from_fields(f)).max_abs_diff(expected))
    return [equiv, [closed], susy, geom_agree, embed]


def _decompose_oracle(config, rng):
    n_gen = config.n_gen
    grid = Grid((32, 32), config.periods)
    geom = SurfaceGeometry.flat(grid, n_gen)
    chi0 = GravitinoField.zero(grid, n_gen)
    count = config.fixtures("decompose")
    m_reasm, m_trace, m_div, g_reasm, g_trace = [], [], [], [], []
    for i in range(count):
        g11 = even_field(rng, grid, soul_mask=0b11, cutoff=6, n_gen=n_gen)
        g12 = even_field(rng, grid, cutoff=6, n_gen=n_gen)
        g22 = even_field(rng, grid, soul_mask=0b1100, cutoff=6, n_gen=n_gen)
        dg = MetricDeformation([[g11, g12], [g12, g22]])
        r = decompose_metric(geom, chi0, dg)
        m_reasm.append(r.reassembly_residual)
        m_trace.append(r.trace_residual)
        m_div.append(r.divergence_residual)

        dchi = GravitinoField([odd_spinor(rng, grid, PSI_GENS, cutoff=6, n_gen=n_gen),
                               odd_spinor(rng, grid, CHI_GENS, cutoff=6, n_gen=n_gen)])
        rg = decompose_gravitino(geom, chi0, dchi)
        g_reasm.append(rg.reassembly_residual)
        g_trace.append(rg.gamma_trace_residual)
    dims32 = true_deformation_dimensions(geom)
    dims64 = true_deformation_dimensions(SurfaceGeometry.flat(Grid((64, 64), config.periods), n_gen))
    dims_err = float(max(abs(dims32[0] - 2), abs(dims32[1] - 2)))
    stable = float(max(abs(dims32[0] - dims64[0]), abs(dims32[1] - dims64[1])))
    return [m_reasm, m_trace, m_div, g_reasm, g_trace, [dims_err], [stable]]


ORACLES = {"berezin": _berezin_oracle, "reduction": _reduction_oracle,
           "susy2d": _susy2d_oracle, "currents": _currents_oracle, "toy": _toy_oracle,
           "decompose": _decompose_oracle}

CONFIGS = {
    "default": lambda: SuiteConfig(),
    # 15x13 and 12x20 grids, 33 toy points; 37/11/77/100 fixtures leave a
    # short last chunk (of one, for susy2d).
    "odd-grid": lambda: SuiteConfig.load(ODD_GRID),
    # 16^2 reduction grid: chunks of 8 + 5 (reduction), 8 + 1 (susy2d), 32 + 13
    # (berezin and toy), 2 + 2 + 1 (decompose).
    "small-grid": lambda: SuiteConfig(reduction_grid_shape=(16, 16), seed=3, fixture_counts={
        "reduction": 13, "susy2d": 9, "berezin": 45, "toy": 45, "decompose": 5}),
}


@pytest.mark.parametrize("config_name", list(CONFIGS))
@pytest.mark.parametrize("suite", list(ORACLES))
def test_stacked_suite_matches_per_fixture_oracle(config_name, suite):
    config = CONFIGS[config_name]()
    rng, oracle_rng = suites.suite_rng(config, suite), suites.suite_rng(config, suite)
    checks = suites._SUITES[suite](config, rng)
    expected = ORACLES[suite](config, oracle_rng)
    # Every fixture's residual equal to the bit, in draw order, and each row
    # reduced to their maximum; both runs consumed the same draws.
    assert len(checks) == len(expected)
    for check, each in zip(checks, expected):
        assert np.array_equal(check.fixture_residuals, each), check.name
        assert check.residual == max(each), check.name
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    assert all(c.passed for c in checks)


# The residuals each row collects: one per fixture, or one per component for
# a row of a single fixture (the calibration match has one per sign, the
# divergence and holomorphy rows one per component).
ROW_LENGTHS = {
    "default": {"grassmann": [1000] * 3, "berezin": [100], "toy": [100, 1, 100, 100, 100],
                "reduction": [50, 1, 5], "susy2d": [4, 4, 8, 8, 16],
                "currents": [10, 1, 2, 2, 1, 1, 2, 1], "flow": [1, 1, 1],
                "decompose": [50] * 5 + [1, 1]},
    # 77 Berezin, 37 reduction and 11 susy2d fixtures.
    "odd-grid": {"grassmann": [1000] * 3, "berezin": [77], "toy": [100, 1, 100, 100, 100],
                 "reduction": [37, 1, 5], "susy2d": [4, 4, 11, 11, 22],
                 "currents": [10, 1, 2, 2, 1, 1, 2, 1], "flow": [1, 1, 1],
                 "decompose": [50] * 5 + [1, 1]},
}


@pytest.mark.parametrize("config_name", list(ROW_LENGTHS))
def test_each_row_keeps_one_residual_per_fixture_drawn(config_name):
    checks = suites.run_suite(CONFIGS[config_name](), "all")
    lengths = ROW_LENGTHS[config_name]
    assert [c.fixture_residuals.shape for c in checks] == \
        [(n,) for name in suites.SUITE_NAMES for n in lengths[name]]
    for c in checks:
        assert c.residual == np.max(c.fixture_residuals), c.name


def test_odd_grid_config_chunks_do_not_divide_the_counts():
    config = SuiteConfig.load(ODD_GRID)
    grids = {"reduction": Grid(config.reduction_grid_shape, config.periods),
             "susy2d": Grid(config.grid_shape, config.periods),
             "berezin": Grid((config.toy_points,), (config.periods[0],)),
             "toy": Grid((config.toy_points,), (config.periods[0],))}
    sizes = {name: list(_chunk_sizes(config.fixtures(name), grid))
             for name, grid in grids.items()}
    assert sizes == {"reduction": [8] * 4 + [5], "susy2d": [10, 1], "berezin": [62, 15],
                     "toy": [62, 38]}


def test_chunk_sizes_cover_the_count_in_order():
    assert list(_chunk_sizes(0, Grid((16, 16), (1.0, 1.0)))) == []
    assert list(_chunk_sizes(19, Grid((16, 16), (1.0, 1.0)))) == [8, 8, 3]
    # Grids of more than 1,024 samples run one fixture at a time.
    assert list(_chunk_sizes(3, Grid((64, 64), (1.0, 1.0)))) == [1, 1, 1]
    assert list(_chunk_sizes(3, Grid((1025,), (1.0,)))) == [1, 1, 1]
    assert list(_chunk_sizes(3, Grid((1024,), (1.0,)))) == [2, 1]


# conftest's ``stack`` puts per-fixture values on the fixture axis for the
# unit tests' stacked-against-each-fixture checks.

def test_stack_of_one_is_the_value_as_drawn(rng):
    grid = Grid((8, 8), (1.0, 1.0))
    f = even_field(rng, grid, soul_mask=0b11)
    assert stack([f]) is f
    pair = (f, odd_spinor(rng, grid, PSI_GENS))
    assert stack([pair]) is pair


def test_stack_puts_fixtures_on_a_leading_axis(rng):
    grid = Grid((6, 5), (1.0, 2.0))
    fields = [ComponentFields(phi=[even_field(rng, grid, soul_mask=0b11)],
                              psi=[odd_spinor(rng, grid, PSI_GENS)],
                              F=[GrassmannField.zero(grid, 6)]) for _ in range(3)]
    # A monomial that only one fixture has is zero in the others.
    fields[1] = ComponentFields(phi=[fields[1].phi[0] + GrassmannField(grid, 6, {0b1100: np.ones((6, 5))})],
                                psi=fields[1].psi, F=fields[1].F)
    stacked = stack(fields)
    phi = stacked.phi[0]
    assert list(phi.terms) == [0, 0b11, 0b1100]
    for i, f in enumerate(fields):
        for m, a in phi.terms.items():
            assert np.array_equal(a[i], f.phi[0].terms.get(m, np.zeros((6, 5))))
        for c in range(2):
            for m, a in stacked.psi[0].comps[c].terms.items():
                assert np.array_equal(a[i], f.psi[0].comps[c].terms[m])
    assert stacked.F[0].is_zero()
    chis = [GravitinoField.zero(grid, 6)] * 3
    assert stack(chis).is_zero()


def _poison(monkeypatch, role, fixtures):
    """Make trig array ``role`` of the given fixtures (0-based, counted over
    every chunk the suite draws) NaN in every sample: each of its modes gets
    a NaN amplitude in the chunk's drawn block."""
    original = suites._draw_chunk
    seen = [0]

    def poisoned(rng, grid, count, draw_fixture, cutoff=3):
        modes, kept = original(rng, grid, count, draw_fixture, cutoff)
        for i in range(count):
            if seen[0] + i in fixtures:
                # A mode is (phase, one wavenumber per axis, amplitude).
                modes[i, role, grid.ndim + 1::grid.ndim + 2] = np.nan
        seen[0] += count
        return modes, kept

    monkeypatch.setattr(suites, "_draw_chunk", poisoned)


def _poison_grassmann(monkeypatch, battery, fixtures):
    """Make the given fixtures (0-based) of one grassmann battery NaN in
    every coefficient."""
    original = suites._grassmann_draws

    def poisoned(*args):
        draws = original(*args)
        coeffs = draws[battery] if battery == "linear" else draws[battery][1]
        coeffs[sorted(fixtures)] = np.nan
        return draws

    monkeypatch.setattr(suites, "_grassmann_draws", poisoned)


@pytest.mark.parametrize("suite, target, fixtures, rows", [
    # The target is the poisoned array's place among its fixture's arrays.
    # Reduction draws phi's body and soul, psi's two components and F:
    # poison fixture 9's F.
    ("reduction", 4, {9}, [0]),
    # Berezin draws f0's body, soul and odd part, then f1's: poison fixture
    # 20's odd part of f1.
    ("berezin", 5, {20}, [0]),
    # susy2d draws 4 battery fixtures, then per fixture phi, psi (2) of the
    # one without chi and phi, psi (2), chi (4) of the one with chi.
    ("susy2d", 0, {4 + 2}, [2]),
    ("susy2d", 3, {4 + 8}, [3]),
    # Toy draws phi's body first: poison the last fixture's, at the end of
    # the short last chunk.  Every row but the closed-form one reads it.
    ("toy", 0, {44}, [0, 2, 3, 4]),
    # Decompose draws g11 (2 arrays), g12, g22 (2), then the gravitino's four
    # components: poison fixture 3's g12, the last of the second chunk, then
    # fixture 4's first gravitino component, alone in the last chunk.
    ("decompose", 2, {3}, [0, 1, 2]),
    ("decompose", 5, {4}, [3, 4]),
    # The last fixture of the first chunk and of the short last chunk, so a
    # chunk that drops its last fixture fails a row.  Reduction: chunks of
    # 8 + 5; Berezin and toy: 32 + 13; susy2d: 8 + 1.
    ("reduction", 4, {7}, [0]),
    ("reduction", 4, {12}, [0]),
    ("berezin", 5, {31}, [0]),
    ("berezin", 5, {44}, [0]),
    ("susy2d", 0, {4 + 7}, [2]),
    ("susy2d", 3, {4 + 7}, [3]),
    ("toy", 0, {31}, [0, 2, 3, 4]),
    # Currents draws its 10 closed-form fixtures in chunks of 8 + 2, one phi
    # each, then the j-zero fixture (10) and the Noether fixture (11), both
    # stacks of one: poison the last closed-form fixture of each chunk, then
    # the Noether fixture's phi.
    ("currents", 0, {7}, [0]),
    ("currents", 0, {9}, [0]),
    ("currents", 0, {11}, [7]),
    # The grassmann batteries: 1,000 fixtures in chunks of 512 + 488.  A NaN
    # element reaches the three associativity triples that hold it.
    ("grassmann", "elements", {511}, [0]),
    ("grassmann", "elements", {999}, [0]),
    ("grassmann", "homogeneous", {511}, [1]),
    ("grassmann", "homogeneous", {999}, [1]),
    ("grassmann", "linear", {511}, [2]),
    ("grassmann", "linear", {999}, [2]),
])
def test_nan_in_one_fixture_makes_the_suite_residual_nan(monkeypatch, suite, target, fixtures,
                                                         rows):
    config = CONFIGS["small-grid"]()
    if suite == "grassmann":
        _poison_grassmann(monkeypatch, target, fixtures)
    else:
        _poison(monkeypatch, target, fixtures)
    checks = suites.run_suite(config, suite)
    for i, c in enumerate(checks):
        if i in rows:
            assert np.isnan(c.residual) and not c.passed, c.name
        else:
            assert not np.isnan(c.residual), c.name


@pytest.mark.parametrize("config_name", ["default", "odd-grid"])
def test_stacked_calibration_battery_matches_the_per_fixture_battery(config_name):
    # One entry per chunk of the fixtures with chi, then the one without chi
    # as a stack of one; every candidate's score, the chosen conventions and
    # each fixture's invariance residual have the bits of the per-fixture
    # battery, which draws the same fixtures in the same order.
    config = CONFIGS[config_name]()
    rng, oracle_rng = suites.suite_rng(config, "susy2d"), suites.suite_rng(config, "susy2d")
    battery = build_calibration_battery(config, rng)
    each = _battery_oracle(config, oracle_rng)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    assert [e[2].phi[0].terms[0].shape[0] for e in battery] == [3, 1]
    base = config.conventions
    assert _calibration_scores(battery, base) == _calibration_scores(each, base)
    cal = calibrate_conventions(battery)
    assert cal == calibrate_conventions(each)
    stacked = np.concatenate([susy_invariance_residual(*e, coeffs=cal) for e in battery])
    assert np.array_equal(stacked, [susy_invariance_residual(*e, coeffs=cal) for e in each])


@pytest.mark.parametrize("config_name, sizes", [
    # The battery's entries (3 fixtures with chi, 1 without), then per chunk
    # the fixtures without and with chi, then the local-q fixtures without
    # chi, chunk by chunk, and with chi.
    ("default", [3, 1] + [8, 8] + [8, 8]),
    ("odd-grid", [3, 1] + [10, 10, 1, 1] + [10, 1, 10, 1]),
])
def test_susy2d_checks_each_stack_with_one_invariance_residual(monkeypatch, config_name, sizes):
    seen = []
    original = suites.susy_invariance_residual

    def counting(geom, chi, fields, q, coeffs):
        seen.append(fields.phi[0].terms[0].shape[0])
        return original(geom, chi, fields, q, coeffs=coeffs)

    monkeypatch.setattr(suites, "susy_invariance_residual", counting)
    suites.run_suite(CONFIGS[config_name](), "susy2d")
    assert seen == sizes


def test_draw_modes_phase_is_the_uniform_draw():
    # random() * 2 pi returns the double that uniform(0, 2 pi) returns and
    # moves the generator alike, also between integers and normal draws.
    rng, ref = np.random.default_rng(22), np.random.default_rng(22)
    for _ in range(20000):
        assert rng.random() * (2.0 * np.pi) == ref.uniform(0.0, 2.0 * np.pi)
        assert rng.integers(-3, 4) == ref.integers(-3, 4)
        assert rng.normal() == ref.normal()
    assert rng.bit_generator.state == ref.bit_generator.state
    for _ in range(2000):
        want = []
        for _ in range(3):
            want += [ref.uniform(0.0, 2.0 * np.pi), int(ref.integers(-6, 7)),
                     int(ref.integers(-6, 7)), ref.normal() * 0.4]
        assert _draw_modes(rng, 2, 6, 0.4) == want
    assert rng.bit_generator.state == ref.bit_generator.state


def test_grassmann_chunks_stack_512_fixtures_up_to_six_generators():
    assert [c.stop - c.start for c in _grassmann_chunks(1000, 6)] == [512, 488]
    assert [c.stop - c.start for c in _grassmann_chunks(3, 3)] == [3]
    assert list(_grassmann_chunks(0, 6)) == []
    # From 7 generators on, a stacked product would visit more than 8
    # monomial pairs per fixture: each fixture runs alone.
    for n_gen in (7, 8):
        assert [c.stop - c.start for c in _grassmann_chunks(3, n_gen)] == [1, 1, 1]
    draws = _grassmann_draws(np.random.default_rng(8), 8, 3)
    for c in _grassmann_chunks(3, 8):
        [number] = _grassmann_stacks(8, *(x[c] for x in draws["elements"]))
        assert number.terms and all(type(v) is float for v in number.terms.values())


def test_grassmann_stacks_match_each_rows_dict():
    # Three generators and six masks per row: most rows repeat a mask, which
    # keeps its last coefficient.
    masks, coeffs = _grassmann_draws(np.random.default_rng(5), 3, 40)["elements"]
    rows = [GrassmannNumber(3, {int(m): float(c) for m, c in zip(ms, cs)})
            for ms, cs in zip(masks, coeffs)]
    # Three runs of 38 rows share one block, as the associativity triples do.
    runs = _grassmann_stacks(3, masks, coeffs, 3)
    assert len(runs) == 3
    for k, run in enumerate(runs):
        own = rows[k:k + 38]
        assert sorted(run.terms) == sorted({m for r in own for m in r.terms})
        for m, values in run.terms.items():
            assert values.flags.c_contiguous
            assert values.tolist() == [r.terms.get(m, 0.0) for r in own]
    # Runs of one row are the rows themselves, with float coefficients.
    singles = _grassmann_stacks(3, masks[:3], coeffs[:3], 3)
    assert [x.terms for x in singles] == [r.terms for r in rows[:3]]
    assert all(type(c) is float for x in singles for c in x.terms.values())


@pytest.mark.parametrize("n_gen, count", [(6, 1000), (6, 512), (6, 513), (6, 2), (6, 1),
                                           (7, 5)])
def test_grassmann_associativity_multiplies_every_cyclic_triple_once(monkeypatch, n_gen,
                                                                      count):
    # A NaN element reaches its row through a neighbouring triple, so a
    # dropped triple is counted here: number k of each chunk's stacks holds
    # the k-th factor of one triple per row.
    factors = [[], [], []]
    original = suites._grassmann_stacks

    def recording(n, masks, coeffs, runs=1):
        if runs == 3:
            for k in range(3):
                factors[k].append(masks[k:len(masks) - 2 + k])
        return original(n, masks, coeffs, runs)

    monkeypatch.setattr(suites, "_grassmann_stacks", recording)
    masks, coeffs = _grassmann_draws(np.random.default_rng(count), n_gen, count)["elements"]
    # One residual per triple, each exactly 0.0.
    assert list(suites._grassmann_associativity(n_gen, masks, coeffs)) == [0.0] * count
    assert sum(len(a) for a in factors[0]) == count
    for k in range(3):
        assert np.array_equal(np.concatenate(factors[k]), np.roll(masks, -k, axis=0))


def _trig_array_with_every_phase(rng, grid, cutoff=3, n_modes=3, scale=1.0):
    """The fixture draw as a reference: every axis adds to the phase, and
    every sum is fresh.  A rewrite of ``_draw_modes`` or ``_synthesize`` must
    keep its bits and its use of the generator."""
    axes = [grid.axis_points(i).reshape([-1 if j == i else 1 for j in range(grid.ndim)])
            for i in range(grid.ndim)]
    a = np.zeros(grid.shape)
    for _ in range(n_modes):
        arg = rng.uniform(0.0, 2.0 * np.pi)
        for i in range(grid.ndim):
            k = int(rng.integers(-cutoff, cutoff + 1))
            arg = arg + (2.0 * np.pi * k / grid.periods[i]) * axes[i]
        a = a + rng.normal() * scale * np.cos(arg)
    return a


@pytest.mark.parametrize("cutoff", [0, 3, 6])
@pytest.mark.parametrize("shape, periods", [
    ((16,), (2.0 * np.pi,)), ((15,), (3.0,)),
    ((16, 16), (2.0 * np.pi, 4.0 * np.pi)), ((15, 9), (3.0, 5.5)), ((1, 5), (1.0, 2.0)),
])
def test_trig_array_matches_every_phase_oracle_and_generator_state(shape, periods, cutoff):
    # Each wavenumber is 0 with probability 1/(2 cutoff + 1): over 40 arrays
    # of 3 modes, both axes of a 2-d mode are 0 several times.
    grid = Grid(shape, periods)
    rng, oracle_rng = np.random.default_rng(cutoff), np.random.default_rng(cutoff)
    for i in range(40):
        scale = (0.3, 1.0)[i % 2]
        a = trig_array(rng, grid, cutoff=cutoff, scale=scale)
        assert a.shape == grid.shape and a.flags.writeable
        assert np.array_equal(a, _trig_array_with_every_phase(oracle_rng, grid, cutoff=cutoff,
                                                              scale=scale))
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def _draw_five(rng):
    """A fixture of five trig arrays of different scales, with a scalar draw
    between the fourth and the fifth, as the toy suite draws its q."""
    def draw(trig):
        for scale in (0.7, 1.0, 0.6, 0.3):
            trig(scale)
        scalar = rng.normal()
        trig(0.8)
        return scalar
    return draw


@pytest.mark.parametrize("shape, periods, cutoff, count", [
    # Blocks of more than gridfield._STACK_SAMPLES samples span several
    # slices: 32 fixtures of 5 arrays of 64 points, 8 at 16^2 and 15x17,
    # and 3 and 8 at 32^2.  The synthesis reads the draw's cutoff (0, 3 or
    # 6) off the drawn wavenumbers.
    ((64,), (2.0 * np.pi,), 3, 1), ((64,), (2.0 * np.pi,), 3, 3), ((64,), (2.0 * np.pi,), 3, 8),
    ((64,), (2.0 * np.pi,), 3, 32),
    ((16, 16), (2.0 * np.pi, 2.0 * np.pi), 3, 1), ((16, 16), (2.0 * np.pi, 2.0 * np.pi), 3, 3),
    ((16, 16), (2.0 * np.pi, 2.0 * np.pi), 3, 8),
    ((15, 17), (3.0, 5.5), 3, 1), ((15, 17), (3.0, 5.5), 3, 3), ((15, 17), (3.0, 5.5), 3, 8),
    ((32, 32), (2.0 * np.pi, 4.0 * np.pi), 6, 1), ((32, 32), (2.0 * np.pi, 4.0 * np.pi), 6, 3),
    ((32, 32), (2.0 * np.pi, 4.0 * np.pi), 6, 8),
    ((64,), (2.0 * np.pi,), 0, 3), ((16, 16), (2.0 * np.pi, 2.0 * np.pi), 0, 8),
    ((15, 17), (3.0, 5.5), 0, 3),
])
def test_chunk_block_has_the_bits_of_one_array_at_a_time(shape, periods, cutoff, count):
    grid = Grid(shape, periods)
    rng, each_rng = np.random.default_rng(count), np.random.default_rng(count)
    modes, scalars = _draw_chunk(rng, grid, count, _draw_five(rng), cutoff)
    assert modes.shape == (count, 5, 3 * (grid.ndim + 2))
    arrays = _synthesize_chunk(grid, modes)
    for i in range(count):
        for role, scale in enumerate((0.7, 1.0, 0.6, 0.3)):
            a = trig_array(each_rng, grid, cutoff=cutoff, scale=scale)
            assert np.array_equal(arrays[role][i], a)
        assert scalars[i] == each_rng.normal()
        a = trig_array(each_rng, grid, cutoff=cutoff, scale=0.8)
        assert np.array_equal(arrays[4][i], a)
    # The synthesis draws nothing: the draws alone moved the generator.
    assert rng.bit_generator.state == each_rng.bit_generator.state
    # One block per array, a stack of one for one fixture.
    for a in arrays:
        assert a.shape == (count,) + grid.shape
        assert a.flags.c_contiguous and a.flags.writeable


def test_synthesis_peaks_like_one_array_at_a_time_on_a_large_grid():
    # One 256^2 reduction fixture: five arrays synthesized together must
    # not need more memory than five drawn one at a time, plus one array.
    grid = Grid((256, 256), (2.0 * np.pi, 2.0 * np.pi))
    scales = (0.7, 0.7, 0.6, 0.6, 0.5)
    one_array = 8 * math.prod(grid.shape)

    def peak(make):
        make(np.random.default_rng(0))  # first calls set up numpy's own state
        tracemalloc.start()
        try:
            kept = make(np.random.default_rng(1))
            return tracemalloc.get_traced_memory()[1], kept
        finally:
            tracemalloc.stop()

    each, arrays = peak(lambda rng: [trig_array(rng, grid, scale=s) for s in scales])
    block, chunk = peak(lambda rng: _synthesize_chunk(grid, _draw_chunk(
        rng, grid, 1, lambda trig: [trig(s) for s in scales])[0]))
    assert all(np.array_equal(a, b) for a, [b] in zip(arrays, chunk))
    assert block <= each + one_array


@pytest.mark.parametrize("n_gen", [3, 6, 16])
def test_grassmann_homogeneous_draws_are_distinct_masks_of_the_drawn_parity(n_gen):
    draws = _grassmann_draws(np.random.default_rng(n_gen), n_gen, 500)
    masks, coeffs = draws["homogeneous"]
    assert masks.shape == coeffs.shape == (500, 2, 4)
    for row, parity in zip(masks.reshape(-1, 4).tolist(), draws["parities"].ravel().tolist()):
        assert len(set(row)) == 4
        assert all(0 <= m < 1 << n_gen and m.bit_count() % 2 == parity for m in row)
    assert set(coeffs.ravel().tolist()) <= set(map(float, range(-8, 9))) - {0.0}


def test_grassmann_suite_at_16_generators_stays_small():
    # Drawing the masks of one parity by ranking all 2^15 of them per
    # fixture takes about 1 MB per fixture: 10 fixtures, about 10 MB, break
    # the bound with room to spare (5 are the fewest that break it).
    config = SuiteConfig(n_gen=16, fixture_counts={"grassmann": 10})
    tracemalloc.start()
    try:
        checks = suites.run_suite(config, "grassmann")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(c.passed for c in checks)
    assert peak < 5e6


def test_grassmann_suite_rejects_fewer_than_three_generators():
    # Two generators have only two monomials of each parity.
    with pytest.raises(ValueError, match="n_gen >= 3"):
        suites.run_suite(SuiteConfig(n_gen=2), "grassmann")


@pytest.mark.parametrize("suite, n_gen", [
    ("grassmann", 3), ("grassmann", 63), ("berezin", 3), ("berezin", 63),
    ("toy", 6), ("toy", 63), ("reduction", 2), ("reduction", 63),
    ("susy2d", 5), ("susy2d", 63), ("currents", 6), ("currents", 61),
    ("flow", 1), ("decompose", 4),
])
def test_suite_passes_at_each_end_of_its_generator_range(suite, n_gen):
    # The fewest and the most generators a suite accepts place every field.
    # 100 grassmann fixtures, not 1000, keep the 63-generator products quick.
    checks = suites.run_suite(SuiteConfig(n_gen=n_gen, fixture_counts={"grassmann": 100}), suite)
    assert checks and all(c.passed for c in checks)


def test_currents_suite_differentiates_each_phi_once(derivative_log):
    # energy_momentum relabels the caller's phi gradients onto its two extra
    # generators and leaves them cached, so the closed-form reference reuses
    # them: 32 calls at the default config, whose 10 closed-form fixtures run
    # as chunks of 8 + 2, and 36 when the lift differentiated phi again.  The
    # Noether row evaluates the action once, at chi + direction: 36 calls
    # when it also evaluated it at chi (psi's two components on two axes).
    suites.run_suite(SuiteConfig(), "currents")
    assert len(derivative_log) == 32


def test_susy2d_local_q_row_needs_13_points_per_axis():
    # The local-q integrand reaches mode 4 x 3 = 12: at 12 points per axis
    # that mode aliases onto the mean and only the local-q row fails; at 13,
    # and on the odd grid, every row passes.
    rows = {c.name: c for c in suites.run_suite(SuiteConfig(grid_shape=(12, 12)), "susy2d")}
    assert [name for name, c in rows.items() if not c.passed] == ["susy2d-invariance-local-q"]
    for config in (SuiteConfig(grid_shape=(13, 13)), SuiteConfig.load(ODD_GRID)):
        checks = suites.run_suite(config, "susy2d")
        assert len(checks) == 5 and all(c.passed for c in checks)
