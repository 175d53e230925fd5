"""The stacked suites (reduction, susy2d, Berezin, toy and decompose) against
per-fixture loops, and the grassmann suite's bulk draws and chunks.

The oracles below evaluate one fixture at a time, as the suites did before
they stacked a chunk of fixtures on one leading axis, and return each row's
residuals in draw order.  Every row's per-fixture residuals must match them
bit for bit, and the suites must leave their generator in the same state as
the oracles.  Every grassmann residual is an exact 0.0, so its values would
show nothing: its draws, chunks and stacks are tested directly, and a NaN
planted in one fixture must reach its row.
"""

import os
import tracemalloc

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
    _grassmann_chunks,
    _grassmann_draws,
    _grassmann_stacks,
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
    reduction = []
    for _ in range(config.fixtures("berezin")):
        f0 = _even_field(rng, grid, n_gen, soul_mask=0b11) + _odd_field(rng, grid, n_gen, [1])
        f1 = _even_field(rng, grid, n_gen, soul_mask=0b110) + _odd_field(rng, grid, n_gen, [2])
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
            phi=[_even_field(rng, grid, n_gen, scale=0.7, soul_mask=0b11)],
            psi=[_odd_spinor(rng, grid, n_gen, PSI_GENS, scale=0.6)],
            F=[_even_field(rng, grid, n_gen, scale=0.5)],
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
            0: np.exp(_trig_array(rng, grid, scale=0.3)),
            0b11: _trig_array(rng, grid, scale=0.4),
        })
        a0 = action_component(geom, chi0, classical_fields, coeffs=coeffs)
        a1 = action_component(weyl(geom, lam), chi0, classical_fields, coeffs=coeffs)
        conformal.append(a0.max_abs_diff(a1))
    return [superfield, [classical], conformal]


def _susy2d_oracle(config, rng):
    n_gen = config.n_gen
    grid = Grid(config.grid_shape, config.periods)
    battery = build_calibration_battery(config, rng)
    cal = calibrate_conventions(battery, tolerance=config.tolerance("calibration"))
    cal_residual = [susy_invariance_residual(geom, chi, fields, q, coeffs=cal)
                    for geom, chi, fields, q in battery]
    cal_match = [abs(getattr(cal, k) - getattr(config.conventions, k))
                 for k in ("s1", "s2", "c4", "c5")]
    chi0_resid, chi_resid = [], []
    for _ in range(config.fixtures("susy2d")):
        geom, chi, fields, q = _sigma_fixture(rng, grid, n_gen, with_chi=False)
        chi0_resid.append(susy_invariance_residual(geom, chi, fields, q,
                                                   coeffs=config.conventions))
        geom, chi, fields, q = _sigma_fixture(rng, grid, n_gen, with_chi=True)
        chi_resid.append(susy_invariance_residual(geom, chi, fields, q,
                                                  coeffs=config.conventions))
    return [cal_residual, cal_match, chi0_resid, chi_resid]


def _toy_oracle(config, rng):
    n_gen = config.n_gen
    grid = Grid((config.toy_points,), (config.periods[0],))
    count = config.fixtures("toy")
    equiv, susy, geom_agree, embed = [], [], [], []
    for _ in range(count):
        f = _toy_fixture(rng, grid, n_gen)
        a_comp = toy_action_component(f)
        # The integrand is reused by the embedding check.
        integrand = _superfield_integrand(superfield_from_fields(f))
        a_super = berezin_integrate(integrand)
        equiv.append(a_comp.max_abs_diff(a_super))

        q = generator(n_gen, Q_GEN) * float(rng.normal())
        susy.append(toy_invariance_residual(f, q))
        d1, d2 = toy_susy(f, q), toy_susy_geometric(f, q)
        geom_agree.append(max(d1.phi.max_abs_diff(d2.phi), d1.psi.max_abs_diff(d2.psi)))

        xi = _odd_field(rng, grid, n_gen, [SPARE_GEN], scale=0.8)
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
        g11 = _even_field(rng, grid, n_gen, soul_mask=0b11, cutoff=6)
        g12 = _even_field(rng, grid, n_gen, cutoff=6)
        g22 = _even_field(rng, grid, n_gen, soul_mask=0b1100, cutoff=6)
        dg = MetricDeformation([[g11, g12], [g12, g22]])
        r = decompose_metric(geom, chi0, dg)
        m_reasm.append(r.reassembly_residual)
        m_trace.append(r.trace_residual)
        m_div.append(r.divergence_residual)

        dchi = GravitinoField([_odd_spinor(rng, grid, n_gen, PSI_GENS, cutoff=6),
                               _odd_spinor(rng, grid, n_gen, CHI_GENS, cutoff=6)])
        rg = decompose_gravitino(geom, chi0, dchi)
        g_reasm.append(rg.reassembly_residual)
        g_trace.append(rg.gamma_trace_residual)
    dims32 = true_deformation_dimensions(geom)
    dims64 = true_deformation_dimensions(SurfaceGeometry.flat(Grid((64, 64), config.periods), n_gen))
    dims_err = float(max(abs(dims32[0] - 2), abs(dims32[1] - 2)))
    stable = float(max(abs(dims32[0] - dims64[0]), abs(dims32[1] - dims64[1])))
    return [m_reasm, m_trace, m_div, g_reasm, g_trace, [dims_err], [stable]]


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
                "reduction": [50, 1, 5], "susy2d": [4, 4, 8, 8],
                "currents": [10, 1, 2, 2, 1, 1, 2, 1], "flow": [1, 1, 1],
                "decompose": [50] * 5 + [1, 1]},
    # 77 Berezin, 37 reduction and 11 susy2d fixtures.
    "odd-grid": {"grassmann": [1000] * 3, "berezin": [77], "toy": [100, 1, 100, 100, 100],
                 "reduction": [37, 1, 5], "susy2d": [4, 4, 11, 11],
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


@pytest.mark.parametrize("suite, name, calls, rows", [
    # Reduction draws two even fields (phi, F) per fixture: poison fixture 9's F.
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
    # The last fixture of the first chunk and of the short last chunk, so a
    # chunk that drops its last fixture fails a row.  Reduction: chunks of
    # 8 + 5; Berezin and toy: 32 + 13; susy2d: 8 + 1.
    ("reduction", "_even_field", {7 * 2 + 1}, [0]),
    ("reduction", "_even_field", {12 * 2 + 1}, [0]),
    ("berezin", "_odd_field", {31 * 2 + 1}, [0]),
    ("berezin", "_odd_field", {44 * 2 + 1}, [0]),
    ("susy2d", "_sigma_fixture", {4 + 2 * 7}, [2]),
    ("susy2d", "_sigma_fixture", {4 + 2 * 7 + 1}, [3]),
    ("toy", "_even_field", {31}, [0, 2, 3, 4]),
    # The grassmann batteries: 1,000 fixtures in chunks of 512 + 488.  A NaN
    # element reaches the three associativity triples that hold it.
    ("grassmann", "elements", {511}, [0]),
    ("grassmann", "elements", {999}, [0]),
    ("grassmann", "homogeneous", {511}, [1]),
    ("grassmann", "homogeneous", {999}, [1]),
    ("grassmann", "linear", {511}, [2]),
    ("grassmann", "linear", {999}, [2]),
])
def test_nan_in_one_fixture_makes_the_suite_residual_nan(monkeypatch, suite, name, calls, rows):
    config = CONFIGS["small-grid"]()
    if suite == "grassmann":
        _poison_grassmann(monkeypatch, name, calls)
    else:
        _poison(monkeypatch, name, calls)
    checks = suites.run_suite(config, suite)
    for i, c in enumerate(checks):
        if i in rows:
            assert np.isnan(c.residual) and not c.passed, c.name
        else:
            assert not np.isnan(c.residual), c.name


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
    every sum is fresh.  A rewrite of ``_trig_array`` must keep its bits and
    its use of the generator."""
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


@pytest.mark.parametrize("cutoff", [3, 6])
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
        a = _trig_array(rng, grid, cutoff=cutoff, scale=scale)
        assert a.shape == grid.shape and a.flags.writeable
        assert np.array_equal(a, _trig_array_with_every_phase(oracle_rng, grid, cutoff=cutoff,
                                                              scale=scale))
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


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
    # fixture would take about 1 GB here.
    config = SuiteConfig(n_gen=16, fixture_counts={"grassmann": 2000})
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
