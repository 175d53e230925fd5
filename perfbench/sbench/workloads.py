"""Workload definitions and one timed pass over the library's public calls.

A workload is a SuiteConfig (built from the seed), the suites to run on it,
and optionally a set of deformation inputs that the benchmark builds itself
with the library's public constructors.  One iteration goes
run_suite -> (decompose_*) -> render_report and checks the result.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field

import numpy as np

import supersigma.deformations as deformations
import supersigma.report as report
import supersigma.suites as suites
from supersigma.config import SuiteConfig
from supersigma.gridfield import GrassmannField, Grid
from supersigma.report import CheckReport, SuiteReport
from supersigma.spin_surface import GravitinoField, SpinorField, SurfaceGeometry

# Residuals of exactly 0 count as this many digits below their tolerance.
MARGIN_CAP_DIGITS = 16.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    suites: tuple[str, ...]
    config_overrides: dict = field(default_factory=dict)
    # Grid sizes n (n x n) that each get one metric decomposition, one
    # gravitino decomposition and one true_deformation_dimensions call.
    decomposition_grids: tuple[int, ...] = ()

    def config(self, seed: int) -> SuiteConfig:
        return SuiteConfig(seed=seed, **self.config_overrides)

    @property
    def fresh_inputs(self) -> bool:
        """Whether every iteration builds new inputs (so no key repeats)."""
        return bool(self.decomposition_grids)


WORKLOADS = {w.name: w for w in [
    Workload(
        name="verify-default",
        why="supersigma verify all at the default config: 50 decompositions share "
            "one 32^2 grid and cutoff, so per-key reuse (a projector cache) shows here",
        suites=tuple(suites.SUITE_NAMES),
    ),
    Workload(
        name="small-grid-algebra",
        why="algebra suites on 16^2 grids at raised fixture counts, no decompose and "
            "no flow: Python overhead per Grassmann/field operation sets the time",
        suites=("grassmann", "berezin", "toy", "reduction", "susy2d", "currents"),
        config_overrides={
            "reduction_grid_shape": (16, 16),
            "fixture_counts": {"grassmann": 2000, "berezin": 300, "toy": 200,
                               "reduction": 150, "susy2d": 16, "calibration": 4,
                               "currents": 30},
        },
    ),
    Workload(
        name="fine-grid-cold",
        why="large grids (up to 256^2) and decompositions on distinct fresh grids "
            "every iteration: array work dominates and no cache key ever repeats",
        suites=("reduction", "susy2d", "currents"),
        config_overrides={
            "grid_shape": (128, 128),
            "reduction_grid_shape": (256, 256),
            "fixture_counts": {"reduction": 4, "susy2d": 2, "calibration": 2,
                               "currents": 4},
        },
        decomposition_grids=(40, 48, 64, 96, 128),
    ),
]}


# ---------------------------------------------------------------------------
# Benchmark-built deformation inputs
# ---------------------------------------------------------------------------

@dataclass
class DecompositionJob:
    size: int
    geom: SurfaceGeometry
    metric: deformations.MetricDeformation
    gravitino: GravitinoField


def _band_limited(rng: np.random.Generator, grid: Grid, n_modes: int = 3) -> np.ndarray:
    # Stay inside the library's default decomposition cutoff (min(shape) // 4),
    # where the residual part is exactly trace- and divergence-free.
    max_mode = min(6, min(grid.shape) // 4)
    coords = grid.coordinates()
    out = np.zeros(grid.shape)
    for _ in range(n_modes):
        arg = rng.uniform(0.0, 2.0 * np.pi)
        for axis in range(2):
            m = int(rng.integers(-max_mode, max_mode + 1))
            arg = arg + (2.0 * np.pi * m / grid.periods[axis]) * coords[axis]
        out = out + rng.normal() * np.cos(arg)
    return out


def build_inputs(workload: Workload, config: SuiteConfig, input_index: int) -> list:
    """Deformation inputs for one iteration, from (seed, input_index) only.

    Each iteration draws new torus periods, so every (grid, cutoff) key is
    new, also across iterations of one run.
    """
    rng = np.random.default_rng([config.seed, input_index, 0x5EED])
    n_gen = config.n_gen
    jobs = []
    for n in workload.decomposition_grids:
        periods = tuple(2.0 * np.pi * (1.0 + rng.uniform(0.0, 0.5)) for _ in range(2))
        grid = Grid((n, n), periods)

        def field_(masks):
            return GrassmannField(grid, n_gen, {m: _band_limited(rng, grid) for m in masks})

        g12 = field_([0])
        metric = deformations.MetricDeformation(
            [[field_([0, 0b11]), g12], [g12, field_([0, 0b1100])]])
        gravitino = GravitinoField([
            SpinorField([field_([1 << g]) for g in (0, 1)]),
            SpinorField([field_([1 << g]) for g in (2, 3)]),
        ])
        jobs.append(DecompositionJob(n, SurfaceGeometry.flat(grid, n_gen), metric, gravitino))
    return jobs


# ---------------------------------------------------------------------------
# One iteration
# ---------------------------------------------------------------------------

@dataclass
class IterationResult:
    wall_s: float
    suite_wall_s: dict
    checks: list
    failed: int
    text: str

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()


def _decomposition_checks(jobs: list, config: SuiteConfig) -> list[CheckReport]:
    tol = config.tolerance("decompose")
    checks = []
    for job in jobs:
        chi0 = GravitinoField.zero(job.geom.grid, config.n_gen)
        m = deformations.decompose_metric(job.geom, chi0, job.metric)
        g = deformations.decompose_gravitino(job.geom, chi0, job.gravitino)
        dims = deformations.true_deformation_dimensions(job.geom)
        n = job.size
        checks += [
            CheckReport(f"fine-{n}-metric-reassembly", m.reassembly_residual, tol),
            CheckReport(f"fine-{n}-metric-trace-free", m.trace_residual, tol),
            CheckReport(f"fine-{n}-metric-divergence-free", m.divergence_residual, tol),
            CheckReport(f"fine-{n}-gravitino-reassembly", g.reassembly_residual, tol),
            CheckReport(f"fine-{n}-gravitino-gamma-trace-free", g.gamma_trace_residual, tol),
            CheckReport(f"fine-{n}-true-dimensions",
                        float(abs(dims[0] - 2) + abs(dims[1] - 2)), 0.0,
                        provenance="closed-form"),
        ]
    return checks


def run_iteration(workload: Workload, config: SuiteConfig, jobs: list,
                  tracer=None) -> IterationResult:
    """Time one pass from the first library call to the rendered, checked report."""
    clock = time.perf_counter
    suite_wall: dict[str, float] = {}
    checks: list[CheckReport] = []
    start = clock()
    for name in workload.suites:
        run_suite = tracer.wrap(f"suites.{name}", suites.run_suite) if tracer else suites.run_suite
        t0 = clock()
        checks.extend(run_suite(config, name))
        suite_wall[name] = clock() - t0
    checks.extend(_decomposition_checks(jobs, config))
    rep = SuiteReport(seed=config.seed, config_hash=config.config_hash(),
                      conventions=config.conventions.to_dict(), checks=checks)
    text = report.render_report(rep)
    failed = sum(not c.passed for c in checks)
    return IterationResult(wall_s=clock() - start, suite_wall_s=suite_wall,
                           checks=checks, failed=failed, text=text)


def accuracy_margin_digits(checks: list) -> float:
    """min log10(tolerance / residual) over checks with a positive tolerance."""
    return min((_margin(c) for c in checks if c.tolerance > 0.0),
               default=MARGIN_CAP_DIGITS)


def _margin(check: CheckReport) -> float:
    if math.isnan(check.residual):
        return -MARGIN_CAP_DIGITS
    if check.residual == 0.0:
        return MARGIN_CAP_DIGITS
    return min(MARGIN_CAP_DIGITS, math.log10(check.tolerance / check.residual))
