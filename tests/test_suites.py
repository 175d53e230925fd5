"""The stacked suites (reduction, susy2d, Berezin, toy and decompose) against
per-fixture loops.

The oracles below evaluate one fixture at a time, as the suites did before
they stacked a chunk of fixtures on one leading axis.  Every residual must
match bit for bit, and the suites must leave their generator in the same
state as the oracles.
"""

import os

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
from supersigma.grassmann import generator, max_or_nan, unit
from supersigma.sigma2d import (
    ComponentFields,
    action_component,
    action_superfield_flat,
    calibrate_conventions,
    superfield_from_components,
    susy_invariance_residual,
)
from supersigma.spin_surface import GravitinoField, SpinorField, SurfaceGeometry, weyl
from supersigma.suites import (
    CHI_GENS,
    PSI_GENS,
    Q_GEN,
    SPARE_GEN,
    _chunk_sizes,
    _even_field,
    _odd_field,
    _odd_spinor,
    _sigma_fixture,
    _stack,
    _toy_fixture,
    _trig_array,
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

ODD_GRID = os.path.join(os.path.dirname(__file__), "data", "odd_grid.json")


def _berezin_oracle(config, rng):
    n_gen = config.n_gen
    grid = Grid((config.toy_points,), (config.periods[0],))
    worst = 0.0
    for _ in range(config.fixtures("berezin")):
        f0 = _even_field(rng, grid, n_gen, soul_mask=0b11) + _odd_field(rng, grid, n_gen, [1])
        f1 = _even_field(rng, grid, n_gen, soul_mask=0b110) + _odd_field(rng, grid, n_gen, [2])
        sf = SuperFunction(grid, 1, n_gen, {0: f0, 1: f1})
        worst = max_or_nan((worst, berezin_integrate(sf).max_abs_diff(f1.integral())))
    return [worst]


def _reduction_oracle(config, rng):
    n_gen = config.n_gen
    grid = Grid(config.reduction_grid_shape, config.periods)
    coeffs = config.conventions
    geom = SurfaceGeometry.flat(grid, n_gen)
    chi0 = GravitinoField.zero(grid, n_gen)
    worst = 0.0
    for _ in range(config.fixtures("reduction")):
        fields = ComponentFields(
            phi=[_even_field(rng, grid, n_gen, scale=0.7, soul_mask=0b11)],
            psi=[_odd_spinor(rng, grid, n_gen, PSI_GENS, scale=0.6)],
            F=[_even_field(rng, grid, n_gen, scale=0.5)],
        )
        a_super = action_superfield_flat(superfield_from_components(fields), coeffs)
        a_comp = action_component(geom, chi0, fields, coeffs=coeffs)
        worst = max_or_nan((worst, a_super.max_abs_diff(a_comp)))
    coords = grid.coordinates()
    classical_fields = ComponentFields(
        phi=[GrassmannField(grid, n_gen, {0: np.sin(coords[0])})],
        psi=[SpinorField.zero(grid, n_gen)],
        F=[GrassmannField.zero(grid, n_gen)],
    )
    a = action_component(geom, chi0, classical_fields, coeffs=coeffs)
    classical = a.max_abs_diff(unit(n_gen) * (coeffs.c1 * 2.0 * np.pi ** 2))
    conformal = 0.0
    for _ in range(5):
        lam = GrassmannField(grid, n_gen, {
            0: np.exp(_trig_array(rng, grid, scale=0.3)),
            0b11: _trig_array(rng, grid, scale=0.4),
        })
        a0 = action_component(geom, chi0, classical_fields, coeffs=coeffs)
        a1 = action_component(weyl(geom, lam), chi0, classical_fields, coeffs=coeffs)
        conformal = max_or_nan((conformal, a0.max_abs_diff(a1)))
    return [worst, classical, conformal]


def _susy2d_oracle(config, rng):
    n_gen = config.n_gen
    grid = Grid(config.grid_shape, config.periods)
    battery = build_calibration_battery(config, rng)
    cal = calibrate_conventions(battery, tolerance=config.tolerance("calibration"))
    cal_residual = max_or_nan(susy_invariance_residual(geom, chi, fields, q, coeffs=cal)
                              for geom, chi, fields, q in battery)
    cal_match = max_or_nan(abs(getattr(cal, k) - getattr(config.conventions, k))
                           for k in ("s1", "s2", "c4", "c5"))
    chi0_resid = chi_resid = 0.0
    for _ in range(config.fixtures("susy2d")):
        geom, chi, fields, q = _sigma_fixture(rng, grid, n_gen, with_chi=False)
        chi0_resid = max_or_nan((chi0_resid, susy_invariance_residual(
            geom, chi, fields, q, coeffs=config.conventions)))
        geom, chi, fields, q = _sigma_fixture(rng, grid, n_gen, with_chi=True)
        chi_resid = max_or_nan((chi_resid, susy_invariance_residual(
            geom, chi, fields, q, coeffs=config.conventions)))
    return [cal_residual, cal_match, chi0_resid, chi_resid]


def _toy_oracle(config, rng):
    n_gen = config.n_gen
    grid = Grid((config.toy_points,), (config.periods[0],))
    count = config.fixtures("toy")
    equiv = susy = geom_agree = embed = 0.0
    for _ in range(count):
        f = _toy_fixture(rng, grid, n_gen)
        a_comp = toy_action_component(f)
        # The integrand is reused by the embedding check.
        integrand = _superfield_integrand(superfield_from_fields(f))
        a_super = berezin_integrate(integrand)
        equiv = max_or_nan((equiv, a_comp.max_abs_diff(a_super)))

        q = generator(n_gen, Q_GEN) * float(rng.normal())
        susy = max_or_nan((susy, toy_invariance_residual(f, q)))
        d1, d2 = toy_susy(f, q), toy_susy_geometric(f, q)
        geom_agree = max_or_nan((geom_agree, d1.phi.max_abs_diff(d2.phi),
                                 d1.psi.max_abs_diff(d2.psi)))

        xi = _odd_field(rng, grid, n_gen, [SPARE_GEN], scale=0.8)
        embed = max_or_nan((embed, toy_embedding_residual(integrand, xi)))
    x = grid.axis_points(0)
    f = ToyFields(
        GrassmannField(grid, n_gen, {0: np.sin(x)}),
        GrassmannField(grid, n_gen, {0b01: np.cos(x), 0b10: np.sin(x)}),
    )
    expected = unit(n_gen) * (np.pi / 2.0) \
        + generator(n_gen, 1) * generator(n_gen, 2) * np.pi
    closed = max_or_nan((toy_action_component(f).max_abs_diff(expected),
                         toy_action_superfield(superfield_from_fields(f)).max_abs_diff(expected)))
    return [equiv, closed, susy, geom_agree, embed]


def _decompose_oracle(config, rng):
    n_gen = config.n_gen
    grid = Grid((32, 32), config.periods)
    geom = SurfaceGeometry.flat(grid, n_gen)
    chi0 = GravitinoField.zero(grid, n_gen)
    count = config.fixtures("decompose")
    m_reasm = m_trace = m_div = 0.0
    g_reasm = g_trace = 0.0
    for i in range(count):
        g11 = _even_field(rng, grid, n_gen, soul_mask=0b11, cutoff=6)
        g12 = _even_field(rng, grid, n_gen, cutoff=6)
        g22 = _even_field(rng, grid, n_gen, soul_mask=0b1100, cutoff=6)
        dg = MetricDeformation([[g11, g12], [g12, g22]])
        r = decompose_metric(geom, chi0, dg)
        m_reasm = max_or_nan((m_reasm, r.reassembly_residual))
        m_trace = max_or_nan((m_trace, r.trace_residual))
        m_div = max_or_nan((m_div, r.divergence_residual))

        dchi = GravitinoField([_odd_spinor(rng, grid, n_gen, PSI_GENS, cutoff=6),
                               _odd_spinor(rng, grid, n_gen, CHI_GENS, cutoff=6)])
        rg = decompose_gravitino(geom, chi0, dchi)
        g_reasm = max_or_nan((g_reasm, rg.reassembly_residual))
        g_trace = max_or_nan((g_trace, rg.gamma_trace_residual))
    dims32 = true_deformation_dimensions(geom)
    dims64 = true_deformation_dimensions(SurfaceGeometry.flat(Grid((64, 64), config.periods), n_gen))
    dims_err = float(max(abs(dims32[0] - 2), abs(dims32[1] - 2)))
    stable = float(max(abs(dims32[0] - dims64[0]), abs(dims32[1] - dims64[1])))
    return [m_reasm, m_trace, m_div, g_reasm, g_trace, dims_err, stable]


ORACLES = {"berezin": _berezin_oracle, "reduction": _reduction_oracle,
           "susy2d": _susy2d_oracle, "toy": _toy_oracle, "decompose": _decompose_oracle}

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
    # Residuals equal to the bit; both runs consumed the same draws.
    assert [c.residual for c in checks] == expected
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    assert all(c.passed for c in checks)


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


def test_stack_of_one_is_the_value_as_drawn(rng):
    grid = Grid((8, 8), (1.0, 1.0))
    f = _even_field(rng, grid, 6, soul_mask=0b11)
    assert _stack([f]) is f
    pair = (f, _odd_spinor(rng, grid, 6, PSI_GENS))
    assert _stack([pair]) is pair


def test_stack_puts_fixtures_on_a_leading_axis(rng):
    grid = Grid((6, 5), (1.0, 2.0))
    fields = [ComponentFields(phi=[_even_field(rng, grid, 6, soul_mask=0b11)],
                              psi=[_odd_spinor(rng, grid, 6, PSI_GENS)],
                              F=[GrassmannField.zero(grid, 6)]) for _ in range(3)]
    # A monomial that only one fixture has is zero in the others.
    fields[1] = ComponentFields(phi=[fields[1].phi[0] + GrassmannField(grid, 6, {0b1100: np.ones((6, 5))})],
                                psi=fields[1].psi, F=fields[1].F)
    stacked = _stack(fields)
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
    assert _stack(chis).is_zero()


def _poison(monkeypatch, name, calls):
    """Make the given calls (0-based) of ``suites.<name>`` return a value with
    one NaN sample in its first field term."""
    original = getattr(suites, name)
    count = [0]

    def nan_field(f):
        terms = dict(f.terms)
        m = next(iter(terms))
        terms[m] = terms[m].copy()
        terms[m].flat[7] = np.nan
        return GrassmannField(f.grid, f.n_gen, terms)

    def poisoned(*args, **kwargs):
        out = original(*args, **kwargs)
        count[0] += 1
        if count[0] - 1 not in calls:
            return out
        if isinstance(out, GrassmannField):
            return nan_field(out)
        geom, chi, fields, q = out
        return geom, chi, ComponentFields([nan_field(fields.phi[0])], fields.psi, fields.F), q

    monkeypatch.setattr(suites, name, poisoned)


@pytest.mark.parametrize("suite, name, calls, rows", [
    # Reduction draws three even fields per fixture: poison fixture 9's F.
    ("reduction", "_even_field", {9 * 2 + 1}, [0]),
    # Berezin draws two odd fields per fixture: poison fixture 20's f1.
    ("berezin", "_odd_field", {20 * 2 + 1}, [0]),
    # susy2d draws 4 battery fixtures, then one pair per fixture.
    ("susy2d", "_sigma_fixture", {4 + 2 * 2}, [2]),
    ("susy2d", "_sigma_fixture", {4 + 2 * 8 + 1}, [3]),
    # Toy draws one even field (phi) per fixture: poison the last fixture's,
    # at the end of the short last chunk.  Every row but the closed-form one
    # reads it.
    ("toy", "_even_field", {44}, [0, 2, 3, 4]),
    # Decompose draws three even fields (g11, g12, g22) and four odd ones
    # (the two gravitino spinors) per fixture: poison fixture 3's g12, the
    # last of the second chunk, then fixture 4's first gravitino component,
    # alone in the last chunk.
    ("decompose", "_even_field", {3 * 3 + 1}, [0, 1, 2]),
    ("decompose", "_odd_field", {4 * 4}, [3, 4]),
])
def test_nan_in_one_fixture_makes_the_suite_residual_nan(monkeypatch, suite, name, calls, rows):
    config = CONFIGS["small-grid"]()
    _poison(monkeypatch, name, calls)
    checks = suites.run_suite(config, suite)
    for i, c in enumerate(checks):
        if i in rows:
            assert np.isnan(c.residual) and not c.passed, c.name
        else:
            assert not np.isnan(c.residual), c.name
