"""Verification suites: seeded fixture batteries for every library layer.

Each suite returns a list of CheckReport records; ``run_suite`` dispatches
by name and ``calibrate`` wraps the sign calibration, returning an updated
configuration.  All randomness flows through one generator seeded from the
configured seed and a fixed per-suite index, so reports are deterministic
for a given (seed, config) pair whether suites run alone or under "all".
Each row collects its residuals in draw order, one per fixture (or per
component, for a row of one fixture), and ``_check`` reduces them once.

The reduction, susy2d, Berezin, toy and decompose suites draw their
fixtures one at a time, in a fixed order, and evaluate them in chunks:
``_stack`` puts a chunk's fixtures on one leading axis of every sample array
(and of the toy suite's parameter q), so one evaluation checks the whole
chunk with the same floating-point operations per fixture.  The grassmann
suite draws each battery in bulk and multiplies chunks of up to 512 fixtures
as Grassmann numbers with one coefficient per fixture (``_grassmann_stacks``).
The calibration battery and the currents suite run per fixture.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import replace
from functools import lru_cache

import numpy as np

from .berezin import berezin_integrate
from .config import SuiteConfig
from .deformations import (
    MetricDeformation,
    decompose_gravitino,
    decompose_metric,
    true_deformation_dimensions,
)
from .grassmann import GrassmannNumber, generator, max_or_nan, unit
from .gridfield import GrassmannField, Grid
from .report import CheckReport
from .sigma2d import (
    ActionCoefficients,
    ComponentFields,
    action_component,
    action_superfield_flat,
    calibrate_conventions,
    current_spin32,
    d_zbar,
    energy_momentum,
    harmonic_flow,
    super_current,
    superfield_from_components,
    susy_invariance_residual,
    t_zz,
)
from .spin_surface import (
    CLIFFORD,
    GravitinoField,
    SpinorField,
    SurfaceGeometry,
    pairing,
    weyl,
)
from .superdomain import SuperFunction
from .toy_model import (
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

__all__ = ["SUITE_NAMES", "run_suite", "calibrate", "build_calibration_battery",
           "flow_initial_data", "suite_rng"]

SUITE_NAMES = ["grassmann", "berezin", "toy", "reduction", "susy2d",
               "currents", "flow", "decompose"]

# Generator allocation: 1-2 matter spinor psi, 3-4 gravitino chi,
# 5 supersymmetry parameter q, 6 spare (directional probes).
PSI_GENS = (1, 2)
CHI_GENS = (3, 4)
Q_GEN = 5
SPARE_GEN = 6


# ---------------------------------------------------------------------------
# Fixture helpers
# ---------------------------------------------------------------------------

def _trig_array(rng: np.random.Generator, grid: Grid, cutoff: int = 3,
                n_modes: int = 3, scale: float = 1.0) -> np.ndarray:
    # Axis i's points as a vector along axis i: the phase broadcasts to the
    # grid with the same sums, in the same order, as on full meshgrid arrays.
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


def _even_field(rng, grid, n_gen, scale=1.0, soul_mask: int | None = None,
                cutoff: int = 3) -> GrassmannField:
    terms = {0: _trig_array(rng, grid, cutoff=cutoff, scale=scale)}
    if soul_mask is not None:
        terms[soul_mask] = _trig_array(rng, grid, cutoff=cutoff, scale=scale)
    return GrassmannField(grid, n_gen, terms)


def _odd_field(rng, grid, n_gen, gens, scale=1.0, cutoff: int = 3) -> GrassmannField:
    terms = {1 << (g - 1): _trig_array(rng, grid, cutoff=cutoff, scale=scale)
             for g in gens}
    return GrassmannField(grid, n_gen, terms)


def _odd_spinor(rng, grid, n_gen, gens, scale=1.0, cutoff: int = 3) -> SpinorField:
    return SpinorField([_odd_field(rng, grid, n_gen, [g], scale, cutoff) for g in gens])


def _constant_q(rng, grid, n_gen) -> SpinorField:
    comps = []
    for _ in range(2):
        coeff = float(rng.normal())
        comps.append(GrassmannField(grid, n_gen,
                                    {1 << (Q_GEN - 1): np.full(grid.shape, coeff)}))
    return SpinorField(comps)


def _sigma_fixture(rng, grid, n_gen, with_chi: bool) -> tuple:
    """(geom, chi, fields, q) on the flat identity frame, F = 0."""
    geom = SurfaceGeometry.flat(grid, n_gen)
    fields = ComponentFields(
        phi=[_even_field(rng, grid, n_gen, scale=0.7)],
        psi=[_odd_spinor(rng, grid, n_gen, PSI_GENS, scale=0.6)],
        F=[GrassmannField.zero(grid, n_gen)],
    )
    if with_chi:
        chi = GravitinoField([_odd_spinor(rng, grid, n_gen, CHI_GENS, scale=0.5)
                              for _ in range(2)])
    else:
        chi = GravitinoField.zero(grid, n_gen)
    return geom, chi, fields, _constant_q(rng, grid, n_gen)


# Most samples per term in one stacked chunk of fixtures.  On 16^2 grids a
# chunk of 2,048 samples (8 fixtures) runs as fast as one of 8,192 and keeps
# the peak memory lower; grids of more than 1,024 samples get chunks of one
# fixture, which run unstacked.
_CHUNK_SAMPLES = 2048


def _chunk_sizes(count: int, grid: Grid):
    """Sizes of the consecutive chunks that ``count`` fixtures on ``grid`` form."""
    per_chunk = max(1, _CHUNK_SAMPLES // math.prod(grid.shape))
    for start in range(0, count, per_chunk):
        yield min(per_chunk, count - start)


def _fixture_floats(residual, chunk: GrassmannField) -> list[float]:
    """A chunk's residual, one per fixture of ``chunk``, a field of its stack:
    a float (an exactly zero difference has no terms) stands for every one."""
    a = next(iter(chunk.terms.values()))
    return np.broadcast_to(residual, a.shape[:a.ndim - chunk.grid.ndim] or (1,)).tolist()


def _check(name: str, residuals, tolerance: float,
           provenance: str = "derived") -> CheckReport:
    """The report of one row from its residuals, floats in draw order: their
    maximum, NaN if any is NaN, and a read-only view of them that holds no
    numpy object (those fragment the heap of a caller keeping many reports)."""
    values = array("d", residuals)
    return CheckReport(name, float(np.max(values)), tolerance, provenance=provenance,
                       fixture_residuals=_frozen_row(values.tobytes()))


@lru_cache(maxsize=64)
def _frozen_row(data: bytes) -> memoryview:
    """The float64s in ``data``: one read-only view for every row of equal bytes,
    such as the grassmann laws' 0.0s or a rerun of one config."""
    return memoryview(data).cast("d")


def _stack(items: list):
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
        return tuple(_stack(list(column)) for column in zip(*items))
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
        return SpinorField(_stack([s.comps for s in items]))
    if isinstance(first, GravitinoField):
        return GravitinoField(_stack([g.chi for g in items]))
    if isinstance(first, ComponentFields):
        # The suites' fixtures have no winding.
        return ComponentFields(phi=list(_stack([tuple(f.phi) for f in items])),
                               psi=list(_stack([tuple(f.psi) for f in items])),
                               F=list(_stack([tuple(f.F) for f in items])),
                               winding=first.winding)
    raise TypeError(f"cannot stack {type(first).__name__}")


def build_calibration_battery(config: SuiteConfig, rng: np.random.Generator) -> list:
    grid = Grid(config.grid_shape, config.periods)
    n_gen = config.n_gen
    battery = [_sigma_fixture(rng, grid, n_gen, with_chi=True)
               for _ in range(max(1, config.fixtures("calibration") - 1))]
    battery.append(_sigma_fixture(rng, grid, n_gen, with_chi=False))
    return battery


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def _bit_parity(x: np.ndarray) -> np.ndarray:
    """1 where a non-negative int64 has an odd number of set bits, else 0."""
    for shift in (32, 16, 8, 4, 2, 1):
        x = x ^ (x >> shift)
    return x & 1


def _grassmann_draws(rng, n_gen: int, count: int) -> dict:
    """Every battery of the grassmann suite, drawn in bulk in a fixed order.

    Masks and coefficients come in pairs of like-shaped arrays, one row (of
    terms) per element:
    - "elements": (count, 6), the associativity battery;
    - "parities": (count, 2), the parities of each commutator's two factors;
    - "homogeneous": (count, 2, 4), four distinct masks of the drawn parity;
    - "linear": the (count, n_gen) coefficients of the odd linear elements.
    """
    if n_gen < 3:
        raise ValueError("the grassmann suite needs n_gen >= 3 "
                         "(four distinct monomials of each parity)")

    def small_integers(shape) -> np.ndarray:
        # Small-integer coefficients keep all products and sums exact in
        # floating point, so the laws can be checked with zero tolerance.
        c = rng.integers(-8, 9, shape).astype(float)
        c[c == 0.0] = 1.0
        return c

    def elements(rows: int) -> tuple:
        return rng.integers(0, 1 << n_gen, (rows, 6)), small_integers((rows, 6))

    draws = {"elements": elements(count)}
    parities = draws["parities"] = rng.integers(0, 2, (count, 2))
    # A mask of a given parity is n_gen - 1 free bits above a bit 0 that fixes
    # the parity, so a uniform draw of the free bits is uniform over the masks
    # of that parity.  Rows with a repeated mask are drawn again.
    free = rng.integers(0, 1 << (n_gen - 1), (*parities.shape, 4))
    while True:
        ordered = np.sort(free, axis=-1)
        repeated = (ordered[..., 1:] == ordered[..., :-1]).any(axis=-1)
        if not repeated.any():
            break
        free[repeated] = rng.integers(0, 1 << (n_gen - 1), (int(repeated.sum()), 4))
    masks = (free << 1) | (_bit_parity(free) ^ parities[..., None])
    draws["homogeneous"] = masks, small_integers(masks.shape)
    draws["linear"] = rng.normal(size=(count, n_gen))
    return draws


# Fixtures per stacked chunk of the grassmann suite.  A product of two
# stacked numbers visits every pair of the chunk's monomials, up to 4^n_gen
# pairs, so a chunk is stacked only while that is at most 8 pairs per fixture
# (n_gen <= 6); otherwise each fixture runs alone, with float coefficients.
_GRASSMANN_CHUNK = 512


def _grassmann_chunks(count: int, n_gen: int):
    """A slice over the fixtures of each consecutive chunk of the grassmann suite."""
    per_chunk = _GRASSMANN_CHUNK if 4 ** n_gen <= 8 * _GRASSMANN_CHUNK else 1
    for start in range(0, count, per_chunk):
        yield slice(start, min(start + per_chunk, count))


def _grassmann_stacks(n_gen: int, masks: np.ndarray, coeffs: np.ndarray,
                      runs: int = 1) -> list[GrassmannNumber]:
    """Grassmann numbers holding ``runs`` overlapping runs of rows of (masks, coeffs).

    Each row is one element, and number k holds rows k to len(masks) - runs + k.
    A repeated mask in a row keeps its last coefficient, as a dict would.  A
    run of one row gives float coefficients.  A longer run gives each
    monomial that occurs in it one coefficient per row, zero where a row lacks
    it: a contiguous view of the monomial's row in one block that all runs
    share.
    """
    size = len(masks) - runs + 1
    if size == 1:
        return [GrassmannNumber(n_gen, dict(zip(m, c)))
                for m, c in zip(masks.tolist(), coeffs.tolist())]
    n_masks = masks.shape[1]
    later = np.triu(np.ones((n_masks, n_masks), dtype=bool), 1)
    keep = ~((masks[:, :, None] == masks[:, None, :]) & later).any(axis=2)
    present, where = np.unique(masks, return_inverse=True)
    dense = np.zeros((len(present), len(masks)))
    dense[where.reshape(masks.shape)[keep], np.nonzero(keep)[0]] = coeffs[keep]
    return [GrassmannNumber(n_gen, {int(m): row[k:k + size] for m, row in zip(present, dense)})
            for k in range(runs)]


# Each law yields its battery's residuals, chunk by chunk; stacks die with it.

def _grassmann_associativity(n_gen: int, masks, coeffs):
    """|(ab)c - a(bc)| for each cyclic triple (i, i + 1, i + 2)."""
    count = len(masks)
    for s in _grassmann_chunks(count, n_gen):
        rows = np.arange(s.start, s.stop + 2) % count
        a, b, c = _grassmann_stacks(n_gen, masks[rows], coeffs[rows], 3)
        residual = ((a * b) * c).max_abs_diff(a * (b * c))
        yield from np.broadcast_to(residual, s.stop - s.start).tolist()


def _grassmann_commutativity(n_gen: int, parities, masks, coeffs):
    """|ab - (-1)^(pa pb) ba| for each pair of homogeneous elements."""
    # The sign is a per-fixture body: -1 where both factors are odd.
    signs = (1.0 - 2.0 * (parities[:, 0] & parities[:, 1]))[:, None]
    bodies = np.zeros(signs.shape, dtype=int)
    for s in _grassmann_chunks(len(masks), n_gen):
        a, b = (_grassmann_stacks(n_gen, masks[s, k], coeffs[s, k])[0] for k in (0, 1))
        sign = _grassmann_stacks(n_gen, bodies[s], signs[s])[0]
        yield from np.broadcast_to((a * b).max_abs_diff((b * a) * sign), s.stop - s.start).tolist()


def _grassmann_nilpotency(n_gen: int, linear):
    """The largest coefficient of lin * lin for each odd linear element, with
    coefficients ``linear``."""
    lin_masks = np.broadcast_to(1 << np.arange(n_gen), linear.shape)
    for s in _grassmann_chunks(len(linear), n_gen):
        lin = _grassmann_stacks(n_gen, lin_masks[s], linear[s])[0]
        yield from np.broadcast_to((lin * lin).max_abs(), s.stop - s.start).tolist()


def _suite_grassmann(config: SuiteConfig, rng) -> list[CheckReport]:
    n_gen = config.n_gen
    tol = config.tolerance("grassmann")
    draws = _grassmann_draws(rng, n_gen, config.fixtures("grassmann"))
    return [
        _check("grassmann-associativity", _grassmann_associativity(n_gen, *draws["elements"]), tol),
        _check("grassmann-graded-commutativity",
               _grassmann_commutativity(n_gen, draws["parities"], *draws["homogeneous"]), tol),
        _check("grassmann-nilpotency", _grassmann_nilpotency(n_gen, draws["linear"]), tol),
    ]


def _suite_berezin(config: SuiteConfig, rng) -> list[CheckReport]:
    n_gen = config.n_gen
    grid = Grid((config.toy_points,), (config.periods[0],))
    tol = config.tolerance("berezin")

    def draw() -> tuple:
        f0 = _even_field(rng, grid, n_gen, soul_mask=0b11) \
            + _odd_field(rng, grid, n_gen, [1])
        f1 = _even_field(rng, grid, n_gen, soul_mask=0b110) \
            + _odd_field(rng, grid, n_gen, [2])
        return f0, f1

    residuals = []
    for size in _chunk_sizes(config.fixtures("berezin"), grid):
        f0, f1 = _stack([draw() for _ in range(size)])
        sf = SuperFunction(grid, 1, n_gen, {0: f0, 1: f1})
        residuals.extend(_fixture_floats(berezin_integrate(sf).max_abs_diff(f1.integral()), f1))
    return [_check("berezin-top-coefficient-reduction", residuals, tol)]


def _toy_fixture(rng, grid, n_gen) -> ToyFields:
    phi = _even_field(rng, grid, n_gen, soul_mask=0b11)
    psi = _odd_field(rng, grid, n_gen, PSI_GENS)
    return ToyFields(phi, psi)


def _suite_toy(config: SuiteConfig, rng) -> list[CheckReport]:
    n_gen = config.n_gen
    grid = Grid((config.toy_points,), (config.periods[0],))
    tol = config.tolerance("toy")

    def draw() -> tuple:
        f = _toy_fixture(rng, grid, n_gen)
        q = generator(n_gen, Q_GEN) * float(rng.normal())
        xi = _odd_field(rng, grid, n_gen, [SPARE_GEN], scale=0.8)
        return f.phi, f.psi, q, xi

    equiv, susy, geom_agree, embed = [], [], [], []
    for size in _chunk_sizes(config.fixtures("toy"), grid):
        phi, psi, q, xi = _stack([draw() for _ in range(size)])
        f = ToyFields(phi, psi)
        Phi = superfield_from_fields(f)
        equiv.extend(_fixture_floats(toy_action_component(f).max_abs_diff(
            toy_action_superfield(Phi)), phi))
        susy.extend(_fixture_floats(toy_invariance_residual(f, q), phi))
        d1, d2 = toy_susy(f, q), toy_susy_geometric(f, q)
        geom_agree.extend(_fixture_floats(max_or_nan((d1.phi.max_abs_diff(d2.phi),
                                                      d1.psi.max_abs_diff(d2.psi))), phi))
        embed.extend(_fixture_floats(toy_embedding_residual(_superfield_integrand(Phi), xi), phi))

    # Closed-form fixture: phi = sin x, psi = cos(x) theta1 + sin(x) theta2
    # on the circle of circumference 2 pi has action pi/2 + pi theta1 theta2.
    x = grid.axis_points(0)
    f = ToyFields(
        GrassmannField(grid, n_gen, {0: np.sin(x)}),
        GrassmannField(grid, n_gen, {0b01: np.cos(x), 0b10: np.sin(x)}),
    )
    expected = unit(n_gen) * (np.pi / 2.0) \
        + generator(n_gen, 1) * generator(n_gen, 2) * np.pi
    closed = max_or_nan((toy_action_component(f).max_abs_diff(expected),
                         toy_action_superfield(superfield_from_fields(f)).max_abs_diff(expected)))

    return [
        _check("toy-superfield-component-equivalence", equiv, tol),
        _check("toy-closed-form-action", [closed], tol, provenance="closed-form"),
        _check("toy-susy-invariance", susy, tol),
        _check("toy-susy-geometric-agreement", geom_agree, tol),
        _check("toy-embedding-independence", embed, tol),
    ]


def _suite_reduction(config: SuiteConfig, rng) -> list[CheckReport]:
    n_gen = config.n_gen
    grid = Grid(config.reduction_grid_shape, config.periods)
    tol = config.tolerance("reduction")
    coeffs = config.conventions
    geom = SurfaceGeometry.flat(grid, n_gen)
    chi0 = GravitinoField.zero(grid, n_gen)

    def draw() -> ComponentFields:
        return ComponentFields(
            phi=[_even_field(rng, grid, n_gen, scale=0.7, soul_mask=0b11)],
            psi=[_odd_spinor(rng, grid, n_gen, PSI_GENS, scale=0.6)],
            F=[_even_field(rng, grid, n_gen, scale=0.5)],
        )

    superfield = []
    for size in _chunk_sizes(config.fixtures("reduction"), grid):
        fields = _stack([draw() for _ in range(size)])
        a_super = action_superfield_flat(superfield_from_components(fields), coeffs)
        a_comp = action_component(geom, chi0, fields, coeffs=coeffs)
        superfield.extend(_fixture_floats(a_super.max_abs_diff(a_comp), fields.phi[0]))

    # Classical limit: phi = sin x1, psi = chi = F = 0 on the square torus
    # of side 2 pi has Dirichlet action c1 * 2 pi^2.
    coords = grid.coordinates()
    classical_fields = ComponentFields(
        phi=[GrassmannField(grid, n_gen, {0: np.sin(coords[0])})],
        psi=[SpinorField.zero(grid, n_gen)],
        F=[GrassmannField.zero(grid, n_gen)],
    )
    a = action_component(geom, chi0, classical_fields, coeffs=coeffs)
    expected = unit(n_gen) * (coeffs.c1 * 2.0 * np.pi ** 2)
    classical = a.max_abs_diff(expected)

    # Conformal invariance of the phi sector under a Weyl rescaling.
    conformal = []
    for _ in range(5):
        lam = GrassmannField(grid, n_gen, {
            0: np.exp(_trig_array(rng, grid, scale=0.3)),
            0b11: _trig_array(rng, grid, scale=0.4),
        })
        scaled = weyl(geom, lam)
        a1 = action_component(scaled, chi0, classical_fields, coeffs=coeffs)
        conformal.append(a.max_abs_diff(a1))

    return [
        _check("reduction-superfield-component", superfield, tol),
        _check("reduction-classical-limit", [classical], config.tolerance("classical"),
               provenance="closed-form"),
        _check("reduction-conformal-invariance", conformal, config.tolerance("conformal")),
    ]


def _suite_susy2d(config: SuiteConfig, rng) -> list[CheckReport]:
    n_gen = config.n_gen
    grid = Grid(config.grid_shape, config.periods)
    tol = config.tolerance("susy2d")
    cal_tol = config.tolerance("calibration")
    battery = build_calibration_battery(config, rng)

    cal = calibrate_conventions(battery, tolerance=cal_tol)
    cal_residual = [susy_invariance_residual(geom, chi, fields, q, coeffs=cal)
                    for geom, chi, fields, q in battery]
    cal_match = [abs(getattr(cal, k) - getattr(config.conventions, k))
                 for k in ("s1", "s2", "c4", "c5")]

    # Every fixture has the flat identity frame.
    geom = SurfaceGeometry.flat(grid, n_gen)
    resid = ([], [])  # the residuals of the fixtures without and with chi
    for size in _chunk_sizes(config.fixtures("susy2d"), grid):
        drawn = ([], [])
        for i in range(size):
            # A fixture without chi, then one with chi.  Each kind is checked
            # once its chunk is drawn, so a chunk of one keeps no more
            # fixtures alive than checking each fixture as it is drawn.
            for kind in (0, 1):
                drawn[kind].append(_sigma_fixture(rng, grid, n_gen, with_chi=bool(kind))[1:])
                if i == size - 1:
                    chi, fields, q = _stack(drawn[kind])
                    drawn[kind].clear()
                    resid[kind].extend(_fixture_floats(susy_invariance_residual(
                        geom, chi, fields, q, coeffs=config.conventions), fields.phi[0]))

    return [
        _check("susy2d-calibration-residual", cal_residual, cal_tol),
        _check("susy2d-calibration-matches-config", cal_match, 0.0),
        _check("susy2d-invariance-chi-zero", resid[0], tol),
        _check("susy2d-invariance-chi-nonzero", resid[1], tol),
    ]


def _suite_currents(config: SuiteConfig, rng) -> list[CheckReport]:
    n_gen = config.n_gen
    grid = Grid(config.grid_shape, config.periods)
    tol = config.tolerance("currents")
    coeffs = config.conventions
    geom = SurfaceGeometry.flat(grid, n_gen)
    chi0 = GravitinoField.zero(grid, n_gen)

    # Closed form: for psi = chi = F = 0 the energy-momentum tensor is
    # dphi (x) dphi - 1/2 |dphi|^2 g.
    closed_rel = []
    for _ in range(config.fixtures("currents")):
        fields = ComponentFields(
            phi=[_even_field(rng, grid, n_gen, scale=0.8)],
            psi=[SpinorField.zero(grid, n_gen)],
            F=[GrassmannField.zero(grid, n_gen)],
        )
        T = energy_momentum(geom, chi0, fields, coeffs=coeffs)
        dphi = [fields.phi_derivative(0, k) for k in range(2)]
        norm_sq = dphi[0] * dphi[0] + dphi[1] * dphi[1]
        scale = max(norm_sq.max_abs(), 1e-30)
        exact = [[dphi[a] * dphi[b] * coeffs.c1 for b in range(2)] for a in range(2)]
        for a in range(2):
            exact[a][a] = exact[a][a] - norm_sq * (0.5 * coeffs.c1)
        errors = (T[a][b].max_abs_diff(exact[a][b]) for a in range(2) for b in range(2))
        closed_rel.append(max_or_nan(errors) / scale)

    # Harmonic map (pure winding): T is trace-free, divergence-free, and
    # T_zz is antiholomorphic-derivative-free.
    winding = np.array([[1.0, 0.0], [0.5, 1.0]])
    fields = replace(ComponentFields.zero(grid, n_gen, 2), winding=winding)
    T = energy_momentum(geom, chi0, fields, coeffs=coeffs)
    trace = (T[0][0] + T[1][1]).max_abs()
    div = [(T[a][0].derivative(0) + T[a][1].derivative(1)).max_abs() for a in range(2)]
    re, im = t_zz(T)
    dre, dim_ = d_zbar(re, im)
    holo = [dre.max_abs(), dim_.max_abs()]

    # Super current: J = 0 when psi = 0 (gravitino present).
    chi = GravitinoField([_odd_spinor(rng, grid, n_gen, CHI_GENS, scale=0.5)
                          for _ in range(2)])
    fields_nopsi = ComponentFields(
        phi=[_even_field(rng, grid, n_gen)],
        psi=[SpinorField.zero(grid, n_gen)],
        F=[GrassmannField.zero(grid, n_gen)],
    )
    j_zero = super_current(geom, chi, fields_nopsi, coeffs=coeffs).max_abs()

    # Critical fixture: harmonic phi (pure winding), constant psi, chi = 0.
    d = 2
    psi = [SpinorField([GrassmannField(grid, n_gen,
                                       {1 << (g - 1): np.full(grid.shape, float(rng.normal()))})
                        for g in PSI_GENS]) for _ in range(d)]
    crit = replace(ComponentFields.zero(grid, n_gen, d), psi=psi, winding=winding)
    J = super_current(geom, chi0, crit, coeffs=coeffs)
    gamma_trace = J.gamma_trace(CLIFFORD).max_abs()
    jre, jim = current_spin32(J, CLIFFORD)
    djre, djim = d_zbar(jre, jim)
    j_holo = [djre.max_abs(), djim.max_abs()]

    # Noether identity of the super current, psi and chi nonzero:
    # delta_chi A = Int <delta chi_a, J_a> dvol, exact for a direction on the
    # spare generator, whose square vanishes.
    _, chi, fields, _ = _sigma_fixture(rng, grid, n_gen, with_chi=True)
    direction = GravitinoField([_odd_spinor(rng, grid, n_gen, [SPARE_GEN] * 2, scale=0.7)
                                for _ in range(2)])
    J = super_current(geom, chi, fields, coeffs=coeffs)
    paired = pairing(direction[1], J[1], CLIFFORD) + pairing(direction[2], J[2], CLIFFORD)
    varied = action_component(geom, chi + direction, fields, coeffs=coeffs)
    noether = (varied - action_component(geom, chi, fields, coeffs=coeffs)).max_abs_diff(
        paired.integral())

    return [
        _check("currents-energy-momentum-closed-form", closed_rel,
               config.tolerance("energy_momentum_relative"), provenance="closed-form"),
        _check("currents-energy-momentum-trace", [trace], tol),
        _check("currents-energy-momentum-divergence", div, tol),
        _check("currents-t-zz-holomorphic", holo, tol),
        _check("currents-super-current-zero-at-psi-zero", [j_zero], tol),
        _check("currents-super-current-gamma-trace", [gamma_trace], tol),
        _check("currents-spin32-holomorphic", j_holo, tol),
        _check("currents-super-current-noether", [noether], tol),
    ]


def flow_initial_data(config: SuiteConfig, rng: np.random.Generator) -> tuple:
    """(geom, phi0, winding): a unit-winding torus map plus four random modes
    per target coordinate, the starting point of the harmonic flow."""
    grid = Grid(config.grid_shape, config.periods)
    geom = SurfaceGeometry.flat(grid, config.n_gen)
    coords = grid.coordinates()
    phi0 = []
    for _ in range(2):
        p = np.zeros(grid.shape)
        for _ in range(4):
            kx = int(rng.integers(2, 5)) * (1 if rng.integers(0, 2) else -1)
            ky = int(rng.integers(2, 5))
            p += 0.2 * rng.normal() * np.cos(kx * coords[0] + ky * coords[1]
                                             + rng.uniform(0, 2 * np.pi))
        phi0.append(p)
    return geom, phi0, np.eye(2)


def _suite_flow(config: SuiteConfig, rng) -> list[CheckReport]:
    geom, phi0, winding = flow_initial_data(config, rng)
    grid = geom.grid
    result = harmonic_flow(geom, phi0, steps=config.flow_steps, dt=config.flow_dt,
                           winding=winding)
    # A harmonic map into a flat target is affine: its energy is that of the
    # winding alone, |W|^2 times the torus volume.
    linear_energy = float(np.sum(winding * winding)) * grid.volume
    energy_gap = abs(result.energies[-1] - linear_energy)
    return [
        _check("flow-converged", [0.0 if result.converged else 1.0], 0.0),
        _check("flow-final-energy", [energy_gap], config.tolerance("flow_energy"),
               provenance="closed-form"),
        _check("flow-step-budget", [float(max(0, result.steps_taken - config.flow_steps))], 0.0),
    ]


def _suite_decompose(config: SuiteConfig, rng) -> list[CheckReport]:
    n_gen = config.n_gen
    grid = Grid((32, 32), config.periods)
    tol = config.tolerance("decompose")
    geom = SurfaceGeometry.flat(grid, n_gen)
    chi0 = GravitinoField.zero(grid, n_gen)

    def draw() -> tuple:
        g11 = _even_field(rng, grid, n_gen, soul_mask=0b11, cutoff=6)
        g12 = _even_field(rng, grid, n_gen, cutoff=6)
        g22 = _even_field(rng, grid, n_gen, soul_mask=0b1100, cutoff=6)
        dchi = GravitinoField([_odd_spinor(rng, grid, n_gen, PSI_GENS, cutoff=6),
                               _odd_spinor(rng, grid, n_gen, CHI_GENS, cutoff=6)])
        return g11, g12, g22, dchi

    residuals = {f"decompose-{name}": [] for name in (
        "metric-reassembly", "metric-trace-free", "metric-divergence-free",
        "gravitino-reassembly", "gravitino-gamma-trace-free")}
    for size in _chunk_sizes(config.fixtures("decompose"), grid):
        g11, g12, g22, dchi = _stack([draw() for _ in range(size)])
        # The metric split is freed before the gravitino split sets the peak.
        r = decompose_metric(geom, chi0, MetricDeformation([[g11, g12], [g12, g22]]))
        values = [r.reassembly_residual, r.trace_residual, r.divergence_residual]
        del r
        rg = decompose_gravitino(geom, chi0, dchi)
        values += [rg.reassembly_residual, rg.gamma_trace_residual]
        del rg
        for row, value in zip(residuals.values(), values):
            row.extend(_fixture_floats(value, g11))

    dims32 = true_deformation_dimensions(geom)
    geom64 = SurfaceGeometry.flat(Grid((64, 64), config.periods), n_gen)
    dims64 = true_deformation_dimensions(geom64)
    dims_err = float(max(abs(dims32[0] - 2), abs(dims32[1] - 2)))
    stable = float(max(abs(dims32[0] - dims64[0]), abs(dims32[1] - dims64[1])))

    return [_check(name, row, tol) for name, row in residuals.items()] + [
        _check("decompose-true-dimensions", [dims_err], 0.0, provenance="closed-form"),
        _check("decompose-dimensions-refinement-stable", [stable], 0.0),
    ]


_SUITES = {
    "grassmann": _suite_grassmann,
    "berezin": _suite_berezin,
    "toy": _suite_toy,
    "reduction": _suite_reduction,
    "susy2d": _suite_susy2d,
    "currents": _suite_currents,
    "flow": _suite_flow,
    "decompose": _suite_decompose,
}


def suite_rng(config: SuiteConfig, name: str) -> np.random.Generator:
    """The generator a suite draws its fixtures from: (seed, suite index)."""
    return np.random.default_rng([config.seed, SUITE_NAMES.index(name)])


def run_suite(config: SuiteConfig, suite: str) -> list[CheckReport]:
    """Run one named suite (or "all") and return its check reports."""
    if suite == "all":
        out = []
        for name in SUITE_NAMES:
            out.extend(_SUITES[name](config, suite_rng(config, name)))
        return out
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from "
                         f"{SUITE_NAMES + ['all']}")
    return _SUITES[suite](config, suite_rng(config, suite))


def calibrate(config: SuiteConfig) -> tuple[SuiteConfig, ActionCoefficients]:
    """Run the sign calibration and return (updated config, coefficients)."""
    rng = suite_rng(config, "susy2d")
    battery = build_calibration_battery(config, rng)
    cal = calibrate_conventions(battery, tolerance=config.tolerance("calibration"))
    updated = SuiteConfig.from_dict({**config.to_dict(), "conventions": cal.to_dict()})
    return updated, cal
