"""Verification suites: seeded fixture batteries for every library layer.

Each suite returns a list of CheckReport records; ``run_suite`` dispatches
by name and ``calibrate`` wraps the coefficient solve, returning an updated
configuration.  All randomness flows through one generator seeded from the
configured seed and a fixed per-suite index, so reports are deterministic
for a given (seed, config) pair whether suites run alone or under "all".
Each row collects its residuals in draw order, one per fixture (or per
component, for a row of one fixture), and ``_check`` reduces them once.

Every random field is a sum of three random Fourier modes (a trig array),
made in two halves: ``_draw_modes`` draws an array's modes by scalar
generator calls in a fixed order, and ``_synthesize`` turns the modes of any
number of arrays into samples without touching the generator.  Every suite
but grassmann draws its random fixtures one at a time, in a fixed order,
and evaluates them in chunks: ``_draw_chunk`` draws a chunk's modes (and the
scalars in between), and ``_synthesize_chunk`` synthesizes them in one pass
into one contiguous block per field term, its fixtures on a leading axis, so
one evaluation checks the whole chunk with the same floating-point
operations per fixture.  Every drawn fixture is such a stack: a single one
(the currents suite's j-zero and Noether fixtures, or any fixture on a grid
of more than 1,024 samples) is a stack of one, and the calibration battery is a list of
stacks.  Only the fixtures that draw no trig array (closed forms, pure
windings) are built unstacked.  The grassmann suite draws each battery in
bulk and multiplies chunks of up to 512 fixtures as Grassmann numbers with
one coefficient per fixture (``_grassmann_stacks``), or one fixture at a
time with float coefficients from 7 generators on.
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
from .gridfield import _STACK_SAMPLES, GrassmannField, Grid
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

# (fewest, most, why) generators each suite can place its fields on.  A
# Grassmann number or field holds at most 63 generators (a mask is an int64).
_GENERATOR_RANGES = {
    "grassmann": (3, 63, "four distinct monomials of each parity"),
    "berezin": (3, 63, "a soul on generators 2-3"),
    "toy": (6, 63, "psi on generators 1-2, q on 5, the probe xi on 6"),
    "reduction": (2, 63, "psi on generators 1-2"),
    "susy2d": (5, 63, "psi on generators 1-2, chi on 3-4, q on 5"),
    "currents": (6, 61, "psi on generators 1-2, chi on 3-4, a probe on 6, "
                        "and energy_momentum lifts to n_gen + 2 <= 63"),
    "flow": (1, 63, "the flat frame is a Grassmann field"),
    "decompose": (4, 63, "deformations on generators 1-4"),
}


def _require_generators(config: SuiteConfig, suite: str) -> None:
    """Raise ValueError unless ``suite`` can place its fields on config.n_gen generators."""
    low, high, why = _GENERATOR_RANGES[suite]
    if not low <= config.n_gen <= high:
        raise ValueError(f"the {suite} suite needs n_gen >= {low} and n_gen <= {high} ({why}); "
                         f"got n_gen={config.n_gen}")


# ---------------------------------------------------------------------------
# Fixture helpers
# ---------------------------------------------------------------------------

def _draw_modes(rng: np.random.Generator, ndim: int, cutoff: int, scale: float,
                n_modes: int = 3) -> list:
    """One trig array's modes, flat: per mode its phase, one wavenumber in
    [-cutoff, cutoff] per grid axis, and its amplitude times ``scale``, each
    drawn by one scalar generator call in that order.  This order fixes every
    fixture, and so every report.  The phase ``random() * 2 pi`` is the
    double, and leaves the generator in the state, of ``uniform(0, 2 pi)``,
    at a third of its cost."""
    modes = []
    for _ in range(n_modes):
        modes.append(rng.random() * (2.0 * np.pi))
        for _ in range(ndim):
            modes.append(int(rng.integers(-cutoff, cutoff + 1)))
        modes.append(rng.normal() * scale)
    return modes


@lru_cache(maxsize=64)
def _phase_table(grid: Grid, axis: int, half_width: int) -> np.ndarray:
    """Read-only (2 half_width + 1, n) table whose row k + half_width is
    (2 pi k / P) x along ``axis``, shared by every trig array on ``grid``.
    Row k is computed alone, so its bits do not depend on ``half_width``."""
    x = grid.axis_points(axis)
    table = np.array([(2.0 * np.pi * k / grid.periods[axis]) * x
                      for k in range(-half_width, half_width + 1)])
    table.flags.writeable = False
    return table


def _synthesize(grid: Grid, modes) -> np.ndarray:
    """The trig arrays whose modes (as ``_draw_modes`` gives them) fill the
    last axis of ``modes``: sum_m a_m cos(p_m + sum_i (2 pi k_mi / P_i) x_i),
    of shape ``modes.shape[:-1] + grid.shape``.  It draws nothing, and reads
    the phase tables' half-width off the drawn wavenumbers.

    Each sample gets the operations of the one-array sum, in its order: the
    phase plus each axis's table entry in turn, the cosine, the product with
    the amplitude, and the sum over modes from 0.0.  The modes run one at a
    time over slices of at most ``_STACK_SAMPLES`` samples, so the one
    temporary stays small and a large grid makes one array at a time.
    """
    ndim = grid.ndim
    modes = np.asarray(modes, dtype=float)
    lead = modes.shape[:-1]
    modes = modes.reshape(-1, modes.shape[-1] // (ndim + 2), ndim + 2)
    count, n_modes = modes.shape[:2]
    ones = (1,) * ndim
    phases = modes[..., 0].reshape(count, n_modes, *ones)
    amplitudes = modes[..., -1].reshape(count, n_modes, *ones)
    wavenumbers = modes[..., 1:-1].astype(np.intp)
    half_width = int(np.abs(wavenumbers).max(initial=0))
    rows = wavenumbers + half_width
    # Axis i's table, and the shape that puts a slice's rows of it along axis i.
    tables = [(_phase_table(grid, i, half_width), (-1,) + ones[:i] + (n,) + ones[i + 1:])
              for i, n in enumerate(grid.shape)]
    out = np.zeros((count,) + grid.shape)
    per_slice = max(1, _STACK_SAMPLES // math.prod(grid.shape))
    for start in range(0, count, per_slice):
        part = slice(start, start + per_slice)
        for m in range(n_modes):
            # The phase plus the first axis's entries, added into the
            # gathered rows (a sum of two terms is the same either way round).
            table, shape = tables[0]
            arg = table[rows[part, m, 0]].reshape(shape)
            arg += phases[part, m]
            for i, (table, shape) in enumerate(tables[1:], 1):
                arg = arg + table[rows[part, m, i]].reshape(shape)
            np.cos(arg, out=arg)
            arg *= amplitudes[part, m]
            out[part] += arg
    return out.reshape(lead + grid.shape)


def _draw_chunk(rng: np.random.Generator, grid: Grid, count: int, draw_fixture,
                cutoff: int = 3) -> tuple:
    """Draw ``count`` fixtures in order, their trig arrays as modes only.

    ``draw_fixture(trig)`` draws one fixture: it calls ``trig(scale)`` once
    per trig array, as often for every fixture, and may draw scalars from
    ``rng`` in between.  Returns the modes, of shape (count, arrays per
    fixture, modes of one array), and the list of what ``draw_fixture``
    returned.
    """
    rows = []

    def trig(scale: float = 1.0):
        rows.append(_draw_modes(rng, grid.ndim, cutoff, scale))

    kept = [draw_fixture(trig) for _ in range(count)]
    return np.array(rows).reshape(count, len(rows) // count, -1), kept


def _synthesize_chunk(grid: Grid, modes: np.ndarray) -> list[np.ndarray]:
    """Array r of every fixture of ``modes`` (as ``_draw_chunk`` gives them),
    synthesized in one pass: for each r one contiguous (count, *grid.shape)
    block, a stack of one for one fixture."""
    return list(_synthesize(grid, modes.swapaxes(0, 1)))


def _spinor(grid: Grid, n_gen: int, gens, arrays) -> SpinorField:
    """The odd spinor whose component c is ``arrays[c]`` times generator ``gens[c]``."""
    return SpinorField([GrassmannField(grid, n_gen, {1 << (g - 1): a})
                        for g, a in zip(gens, arrays)])


def _sigma_arrays(trig, with_chi: bool) -> None:
    """Draw a sigma-model fixture's arrays: phi, psi's two components and,
    with chi, chi's four."""
    for scale in (0.7, 0.6, 0.6) + (0.5,) * (4 if with_chi else 0):
        trig(scale)


def _sigma_draw(rng, with_chi: bool):
    """The ``draw_fixture`` of a sigma-model fixture with a constant q: its
    arrays, then q's two coefficients."""
    def draw(trig):
        _sigma_arrays(trig, with_chi)
        return [float(rng.normal()) for _ in range(2)]
    return draw


def _local_q_draw(with_chi: bool):
    """The ``draw_fixture`` of a sigma-model fixture with a local q: its
    arrays, then q's two components, trig arrays of scale 0.7."""
    def draw(trig):
        _sigma_arrays(trig, with_chi)
        trig(0.7)
        trig(0.7)
    return draw


def _constant_q(grid: Grid, qs) -> list[np.ndarray]:
    """q's two components as stacked constant arrays on ``grid``, from the
    coefficients that ``_sigma_draw`` drew for each fixture of a chunk."""
    return [np.multiply.outer(c, np.ones(grid.shape)) for c in np.transpose(qs)]


def _sigma_fields(grid, n_gen, arrays) -> tuple:
    """(geom, chi, fields, q) on the flat identity frame, F = 0, from stacked
    arrays: phi, psi's two components, chi's four (chi = 0 without them),
    then q's two, both on generator Q_GEN."""
    *matter, q1, q2 = arrays
    geom = SurfaceGeometry.flat(grid, n_gen)
    fields = ComponentFields(
        phi=[GrassmannField(grid, n_gen, {0: matter[0]})],
        psi=[_spinor(grid, n_gen, PSI_GENS, matter[1:3])],
        F=[GrassmannField.zero(grid, n_gen)],
    )
    if len(matter) > 3:
        chi = GravitinoField([_spinor(grid, n_gen, CHI_GENS, matter[3:5]),
                              _spinor(grid, n_gen, CHI_GENS, matter[5:7])])
    else:
        chi = GravitinoField.zero(grid, n_gen)
    return geom, chi, fields, _spinor(grid, n_gen, (Q_GEN, Q_GEN), (q1, q2))


# Most samples per term in one stacked chunk of fixtures.  On 16^2 grids a
# chunk of 2,048 samples (8 fixtures) runs as fast as one of 8,192 and keeps
# the peak memory lower; grids of more than 1,024 samples get chunks of one
# fixture, a stack of one.
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
    return np.broadcast_to(residual, a.shape[:a.ndim - chunk.grid.ndim]).tolist()


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


def build_calibration_battery(config: SuiteConfig, rng: np.random.Generator) -> list:
    """The calibration's fixtures (geom, chi, fields, q), q constant: one
    stack per chunk of the fixtures with chi, then the fixture without chi as
    a stack of one, drawn in that order."""
    grid = Grid(config.grid_shape, config.periods)

    def entry(size: int, with_chi: bool) -> tuple:
        modes, qs = _draw_chunk(rng, grid, size, _sigma_draw(rng, with_chi))
        return _sigma_fields(grid, config.n_gen,
                             _synthesize_chunk(grid, modes) + _constant_q(grid, qs))

    count = max(1, config.fixtures("calibration") - 1)
    return [entry(size, True) for size in _chunk_sizes(count, grid)] + [entry(1, False)]


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

    def draw(trig):
        # f0's body, soul and odd part, then f1's.
        for _ in range(6):
            trig()

    residuals = []
    for size in _chunk_sizes(config.fixtures("berezin"), grid):
        body0, soul0, odd0, body1, soul1, odd1 = _synthesize_chunk(
            grid, _draw_chunk(rng, grid, size, draw)[0])
        f0 = GrassmannField(grid, n_gen, {0: body0, 0b11: soul0, 0b1: odd0})
        f1 = GrassmannField(grid, n_gen, {0: body1, 0b110: soul1, 0b10: odd1})
        sf = SuperFunction(grid, 1, n_gen, {0: f0, 1: f1})
        residuals.extend(_fixture_floats(berezin_integrate(sf).max_abs_diff(f1.integral()), f1))
    return [_check("berezin-top-coefficient-reduction", residuals, tol)]


def _suite_toy(config: SuiteConfig, rng) -> list[CheckReport]:
    n_gen = config.n_gen
    grid = Grid((config.toy_points,), (config.periods[0],))
    tol = config.tolerance("toy")

    def draw(trig):
        # phi's body and soul, psi's two components, q's coefficient, xi.
        for _ in range(4):
            trig()
        q = float(rng.normal())
        trig(0.8)
        return q

    equiv, susy, geom_agree, embed = [], [], [], []
    for size in _chunk_sizes(config.fixtures("toy"), grid):
        modes, qs = _draw_chunk(rng, grid, size, draw)
        body, soul, psi1, psi2, xi = _synthesize_chunk(grid, modes)
        phi = GrassmannField(grid, n_gen, {0: body, 0b11: soul})
        f = ToyFields(phi, GrassmannField(grid, n_gen, {0b01: psi1, 0b10: psi2}))
        q = GrassmannNumber(n_gen, {1 << (Q_GEN - 1): np.array(qs)})
        xi = GrassmannField(grid, n_gen, {1 << (SPARE_GEN - 1): xi})
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

    def draw(trig):
        # phi's body and soul, psi's two components, F.
        for scale in (0.7, 0.7, 0.6, 0.6, 0.5):
            trig(scale)

    superfield = []
    for size in _chunk_sizes(config.fixtures("reduction"), grid):
        body, soul, psi1, psi2, F = _synthesize_chunk(
            grid, _draw_chunk(rng, grid, size, draw)[0])
        fields = ComponentFields(
            phi=[GrassmannField(grid, n_gen, {0: body, 0b11: soul})],
            psi=[_spinor(grid, n_gen, PSI_GENS, (psi1, psi2))],
            F=[GrassmannField(grid, n_gen, {0: F})],
        )
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
    def draw_lam(trig):
        # The exponent of lambda's body, then its soul.
        trig(0.3)
        trig(0.4)

    conformal = []
    for size in _chunk_sizes(5, grid):
        body, soul = _synthesize_chunk(grid, _draw_chunk(rng, grid, size, draw_lam)[0])
        # Both arrays view one block: exponentiate in place, not beside it.
        lam = GrassmannField(grid, n_gen, {0: np.exp(body, out=body), 0b11: soul})
        a1 = action_component(weyl(geom, lam), chi0, classical_fields, coeffs=coeffs)
        conformal.extend(_fixture_floats(a.max_abs_diff(a1), lam))

    return [
        _check("reduction-superfield-component", superfield, tol),
        _check("reduction-classical-limit", [classical], config.tolerance("classical"),
               provenance="closed-form"),
        _check("reduction-conformal-invariance", conformal, config.tolerance("conformal")),
    ]


def _invariance_floats(fixture: tuple, coeffs: ActionCoefficients) -> list[float]:
    """The supersymmetry invariance residual of each fixture of a stacked
    (geom, chi, fields, q)."""
    geom, chi, fields, q = fixture
    return _fixture_floats(susy_invariance_residual(geom, chi, fields, q, coeffs=coeffs),
                           fields.phi[0])


def _suite_susy2d(config: SuiteConfig, rng) -> list[CheckReport]:
    n_gen = config.n_gen
    grid = Grid(config.grid_shape, config.periods)
    tol = config.tolerance("susy2d")
    cal_tol = config.tolerance("calibration")
    battery = build_calibration_battery(config, rng)

    # The rows judge the solve, so an infinite tolerance keeps it from raising.
    cal, derived = calibrate_conventions(battery, tolerance=math.inf)
    cal_residual = [r for entry in battery for r in _invariance_floats(entry, cal)]
    cal_match = [abs(getattr(cal, k) - getattr(config.conventions, k))
                 for k in ("s1", "s2", "c4", "c5")]
    derived_gap = [abs(derived[i - 1] - getattr(config.conventions, f"c{i}")) for i in (2, 4, 5)]

    count = config.fixtures("susy2d")
    kinds = [_sigma_draw(rng, with_chi) for with_chi in (False, True)]
    resid = ([], [])  # the residuals of the fixtures without and with chi
    for size in _chunk_sizes(count, grid):
        # A fixture without chi, then one with chi.  Each kind is synthesized
        # and checked in turn, and its arrays are held by no name, so a chunk
        # of one keeps no more arrays alive than checking each fixture as it
        # is drawn, and none outlives its check.
        modes, qs = _draw_chunk(rng, grid, size, lambda trig: [k(trig) for k in kinds])
        qs = np.array(qs)  # (fixture, kind, component)
        for kind, roles in enumerate((slice(0, 3), slice(3, 10))):
            resid[kind].extend(_invariance_floats(_sigma_fields(
                grid, n_gen, _synthesize_chunk(grid, modes[:, roles])
                + _constant_q(grid, qs[:, kind])), config.conventions))

    # A local q, f_a q != 0, reaches the derivative term of the gravitino
    # variation: as many fixtures again, without chi and then with chi.  This
    # row needs 13 points per grid axis: its integrand reaches mode 4 x 3 = 12
    # (four cutoff-3 factors), which a coarser grid aliases onto the mean.
    local = []
    for with_chi in (False, True):
        for size in _chunk_sizes(count, grid):
            modes = _draw_chunk(rng, grid, size, _local_q_draw(with_chi))[0]
            local.extend(_invariance_floats(
                _sigma_fields(grid, n_gen, _synthesize_chunk(grid, modes)), config.conventions))

    return [
        _check("susy2d-calibration-residual", cal_residual, cal_tol),
        _check("susy2d-calibration-matches-config", cal_match, 0.0),
        _check("susy2d-invariance-chi-zero", resid[0], tol),
        _check("susy2d-invariance-chi-nonzero", resid[1], tol),
        _check("susy2d-invariance-local-q", local, tol),
        _check("susy2d-coefficients-derived", derived_gap, tol),
    ]


def _suite_currents(config: SuiteConfig, rng) -> list[CheckReport]:
    n_gen = config.n_gen
    grid = Grid(config.grid_shape, config.periods)
    tol = config.tolerance("currents")
    coeffs = config.conventions
    geom = SurfaceGeometry.flat(grid, n_gen)
    chi0 = GravitinoField.zero(grid, n_gen)

    def phi_only(phi: np.ndarray) -> ComponentFields:
        return ComponentFields(phi=[GrassmannField(grid, n_gen, {0: phi})],
                               psi=[SpinorField.zero(grid, n_gen)],
                               F=[GrassmannField.zero(grid, n_gen)])

    # Closed form: for psi = chi = F = 0 the energy-momentum tensor is
    # dphi (x) dphi - 1/2 |dphi|^2 g.
    closed_rel = []
    for size in _chunk_sizes(config.fixtures("currents"), grid):
        [phi] = _synthesize_chunk(grid, _draw_chunk(rng, grid, size, lambda trig: trig(0.8))[0])
        fields = phi_only(phi)
        T = energy_momentum(geom, chi0, fields, coeffs=coeffs)
        dphi = [fields.phi_derivative(0, k) for k in range(2)]
        norm_sq = dphi[0] * dphi[0] + dphi[1] * dphi[1]
        scale = np.maximum(norm_sq.max_abs(), 1e-30)
        exact = [[dphi[a] * dphi[b] * coeffs.c1 for b in range(2)] for a in range(2)]
        for a in range(2):
            exact[a][a] = exact[a][a] - norm_sq * (0.5 * coeffs.c1)
        errors = (T[a][b].max_abs_diff(exact[a][b]) for a in range(2) for b in range(2))
        closed_rel.extend(_fixture_floats(max_or_nan(errors) / scale, fields.phi[0]))

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

    # Super current: J = 0 when psi = 0 (gravitino present), one fixture.
    def draw_nopsi(trig):
        # chi's four components, then phi.
        for scale in (0.5, 0.5, 0.5, 0.5, 1.0):
            trig(scale)

    *chi_arrays, phi = _synthesize_chunk(grid, _draw_chunk(rng, grid, 1, draw_nopsi)[0])
    chi = GravitinoField([_spinor(grid, n_gen, CHI_GENS, chi_arrays[:2]),
                          _spinor(grid, n_gen, CHI_GENS, chi_arrays[2:])])
    fields = phi_only(phi)
    j_zero = _fixture_floats(super_current(geom, chi, fields, coeffs=coeffs).max_abs(),
                             fields.phi[0])

    # Critical fixture: harmonic phi (pure winding), constant psi, chi = 0.
    d = 2
    psi = [SpinorField([GrassmannField(grid, n_gen,
                                       {1 << (g - 1): np.full(grid.shape, float(rng.normal()))})
                        for g in PSI_GENS]) for _ in range(d)]
    crit = replace(ComponentFields.zero(grid, n_gen, d), psi=psi, winding=winding)
    J = super_current(geom, chi0, crit, coeffs=coeffs)
    gamma_trace = J.gamma_trace().max_abs()
    jre, jim = current_spin32(J)
    djre, djim = d_zbar(jre, jim)
    j_holo = [djre.max_abs(), djim.max_abs()]

    # Noether identity of the super current, psi and chi nonzero:
    # delta_chi A = Int <delta chi_a, J_a> dvol, exact for a direction on the
    # spare generator, whose square vanishes.  One fixture: a sigma-model
    # fixture with chi (its constant q is drawn but not used), then the
    # direction's four components.
    def draw_noether(trig):
        q = _sigma_draw(rng, with_chi=True)(trig)
        for _ in range(4):
            trig(0.7)
        return q

    modes, qs = _draw_chunk(rng, grid, 1, draw_noether)
    arrays = _synthesize_chunk(grid, modes)
    _, chi, fields, _ = _sigma_fields(grid, n_gen, arrays[:7] + _constant_q(grid, qs))
    direction = GravitinoField([_spinor(grid, n_gen, (SPARE_GEN, SPARE_GEN), arrays[7:9]),
                                _spinor(grid, n_gen, (SPARE_GEN, SPARE_GEN), arrays[9:])])
    J = super_current(geom, chi, fields, coeffs=coeffs)
    paired = pairing(direction[1], J[1]) + pairing(direction[2], J[2])
    # delta_chi A: the part of A(chi + direction) that carries the fresh spare generator.
    varied = action_component(geom, chi + direction, fields, coeffs=coeffs)
    first = varied - varied.free_of(1 << (SPARE_GEN - 1))
    noether = _fixture_floats(first.max_abs_diff(paired.integral()), fields.phi[0])

    return [
        _check("currents-energy-momentum-closed-form", closed_rel,
               config.tolerance("energy_momentum_relative"), provenance="closed-form"),
        _check("currents-energy-momentum-trace", [trace], tol),
        _check("currents-energy-momentum-divergence", div, tol),
        _check("currents-t-zz-holomorphic", holo, tol),
        _check("currents-super-current-zero-at-psi-zero", j_zero, tol),
        _check("currents-super-current-gamma-trace", [gamma_trace], tol),
        _check("currents-spin32-holomorphic", j_holo, tol),
        _check("currents-super-current-noether", noether, tol),
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

    def draw(trig):
        # g11's body and soul, g12, g22's body and soul, dchi's four components.
        for _ in range(9):
            trig()

    residuals = {f"decompose-{name}": [] for name in (
        "metric-reassembly", "metric-trace-free", "metric-divergence-free",
        "gravitino-reassembly", "gravitino-gamma-trace-free")}
    for size in _chunk_sizes(config.fixtures("decompose"), grid):
        g11, g11_soul, g12, g22, g22_soul, *dchi = _synthesize_chunk(
            grid, _draw_chunk(rng, grid, size, draw, cutoff=6)[0])
        g11 = GrassmannField(grid, n_gen, {0: g11, 0b11: g11_soul})
        g12 = GrassmannField(grid, n_gen, {0: g12})
        g22 = GrassmannField(grid, n_gen, {0: g22, 0b1100: g22_soul})
        dchi = GravitinoField([_spinor(grid, n_gen, PSI_GENS, dchi[:2]),
                               _spinor(grid, n_gen, CHI_GENS, dchi[2:])])
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
    """Run one named suite (or "all") and return its check reports.

    Every suite to run is checked against config.n_gen before any draws.
    """
    if suite != "all" and suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from "
                         f"{SUITE_NAMES + ['all']}")
    names = SUITE_NAMES if suite == "all" else [suite]
    for name in names:
        _require_generators(config, name)
    out = []
    for name in names:
        out.extend(_SUITES[name](config, suite_rng(config, name)))
    return out


def calibrate(config: SuiteConfig) -> tuple[SuiteConfig, ActionCoefficients]:
    """Solve the conventions and return (updated config, coefficients)."""
    _require_generators(config, "susy2d")
    rng = suite_rng(config, "susy2d")
    battery = build_calibration_battery(config, rng)
    cal = calibrate_conventions(battery, tolerance=config.tolerance("calibration"))[0]
    updated = SuiteConfig.from_dict({**config.to_dict(), "conventions": cal.to_dict()})
    return updated, cal
