"""End-to-end acceptance battery.

Each test covers one acceptance criterion and emits one PASS/FAIL line.
All checks run through the public suite runner with the default
configuration, so the same verdicts are reproducible from the command line
with ``supersigma verify all``.
"""

import time

import pytest

from supersigma.config import SuiteConfig
from supersigma.suites import run_suite

_CACHE: dict = {}


def suite(name):
    if name not in _CACHE:
        t0 = time.perf_counter()
        checks = run_suite(SuiteConfig(), name)
        _CACHE[name] = ({c.name: c for c in checks}, time.perf_counter() - t0)
    return _CACHE[name]


def verdict(number, label, residuals_and_tols, runtime=None, runtime_limit=None):
    ok = all(r <= t for r, t in residuals_and_tols)
    if runtime_limit is not None:
        ok = ok and runtime < runtime_limit
    worst = max(r for r, _ in residuals_and_tols)
    line = (f"ACCEPTANCE {number:2d} {label}: {'PASS' if ok else 'FAIL'}"
            f" (worst residual {worst:.3e}"
            + (f", runtime {runtime:.2f}s/{runtime_limit:.0f}s" if runtime_limit else "")
            + ")")
    print(line)
    assert ok, line


def test_criterion_01_grassmann_laws_exact():
    checks, runtime = suite("grassmann")
    verdict(1, "Grassmann laws exact on 1000 random elements",
            [(checks[n].residual, 0.0) for n in
             ("grassmann-associativity", "grassmann-graded-commutativity",
              "grassmann-nilpotency")],
            runtime=runtime, runtime_limit=1.0)


def test_criterion_02_berezin_reduction():
    checks, runtime = suite("berezin")
    verdict(2, "Berezin reduction on 100 trig fixtures",
            [(checks["berezin-top-coefficient-reduction"].residual, 1e-12)],
            runtime=runtime, runtime_limit=1.0)


def test_criterion_03_toy_equivalence():
    checks, _ = suite("toy")
    verdict(3, "toy superfield/component equivalence incl. closed form",
            [(checks["toy-superfield-component-equivalence"].residual, 1e-10),
             (checks["toy-closed-form-action"].residual, 1e-10)])


def test_criterion_04_toy_susy_invariance():
    checks, _ = suite("toy")
    verdict(4, "toy SUSY invariance and embedding independence",
            [(checks["toy-susy-invariance"].residual, 1e-10),
             (checks["toy-embedding-independence"].residual, 1e-10)])


def test_criterion_05_2d_reduction():
    checks, runtime = suite("reduction")
    verdict(5, "2D superfield action equals component action (50 fixtures, 64x64)",
            [(checks["reduction-superfield-component"].residual, 1e-8)],
            runtime=runtime, runtime_limit=60.0)


def test_criterion_06_2d_susy_invariance():
    checks, _ = suite("susy2d")
    verdict(6, "2D SUSY invariance at calibrated conventions",
            [(checks["susy2d-calibration-residual"].residual, 1e-6),
             (checks["susy2d-calibration-matches-config"].residual, 0.0),
             (checks["susy2d-invariance-chi-zero"].residual, 1e-8),
             (checks["susy2d-invariance-chi-nonzero"].residual, 1e-8),
             (checks["susy2d-invariance-local-q"].residual, 1e-8),
             (checks["susy2d-coefficients-derived"].residual, 1e-8)])


def test_criterion_07_classical_limit():
    checks, _ = suite("reduction")
    verdict(7, "classical limit 2 pi^2 and conformal invariance",
            [(checks["reduction-classical-limit"].residual, 1e-10),
             (checks["reduction-conformal-invariance"].residual, 1e-8)])


def test_criterion_08_energy_momentum():
    checks, _ = suite("currents")
    verdict(8, "energy-momentum closed form, trace, divergence, holomorphy",
            [(checks["currents-energy-momentum-closed-form"].residual, 1e-6),
             (checks["currents-energy-momentum-trace"].residual, 1e-8),
             (checks["currents-energy-momentum-divergence"].residual, 1e-8),
             (checks["currents-t-zz-holomorphic"].residual, 1e-8)])


def test_criterion_09_super_current():
    checks, _ = suite("currents")
    verdict(9, "super current vanishing, gamma trace, holomorphy, Noether identity",
            [(checks["currents-super-current-zero-at-psi-zero"].residual, 0.0),
             (checks["currents-super-current-gamma-trace"].residual, 1e-8),
             (checks["currents-spin32-holomorphic"].residual, 1e-8),
             (checks["currents-super-current-noether"].residual, 1e-8)])


def test_criterion_10_harmonic_flow():
    checks, runtime = suite("flow")
    verdict(10, "harmonic flow convergence within the step budget",
            [(checks["flow-converged"].residual, 0.0),
             (checks["flow-final-energy"].residual, 1e-6),
             (checks["flow-step-budget"].residual, 0.0)],
            runtime=runtime, runtime_limit=30.0)


def test_criterion_11_deformation_decomposition():
    checks, _ = suite("decompose")
    verdict(11, "deformation decomposition reassembly and (2, 2) dimensions",
            [(checks["decompose-metric-reassembly"].residual, 1e-8),
             (checks["decompose-metric-trace-free"].residual, 1e-8),
             (checks["decompose-metric-divergence-free"].residual, 1e-8),
             (checks["decompose-gravitino-reassembly"].residual, 1e-8),
             (checks["decompose-gravitino-gamma-trace-free"].residual, 1e-8),
             (checks["decompose-true-dimensions"].residual, 0.0),
             (checks["decompose-dimensions-refinement-stable"].residual, 0.0)])
