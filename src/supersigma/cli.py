"""Command-line interface.

    supersigma verify <suite> [--config path] [--seed n] [--json out.json]
    supersigma calibrate [--config path] [--seed n] [--json out.json]
    supersigma flow --steps N --dt x [--config path] [--seed n] [--json out]
    supersigma decompose --fixture path [--json out]

The default configuration may be pointed at with the SUPERSIGMA_CONFIG
environment variable; --config overrides it.  All subcommands print a JSON
document and exit with status 0 exactly when every check passed.  Bad input
(an invalid config or fixture, a failed calibration, a diverging flow)
prints {"error": {"type": ..., "message": ...}} and exits with status 1;
command-line usage errors exit with status 2.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .config import CONFIG_ENV_VAR, SuiteConfig
from .deformations import decompose_gravitino, decompose_metric, MetricDeformation
from .gridfield import GrassmannField, Grid
from .report import CheckReport, SuiteReport, render_report
from .sigma2d import CalibrationError, FlowDivergenceError, harmonic_flow
from .spin_surface import GravitinoField, SpinorField, SurfaceGeometry
from .suites import SUITE_NAMES, calibrate, flow_initial_data, run_suite, suite_rng

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supersigma",
        description="Verification harness for the supersymmetric sigma-model library.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help=f"config JSON path (default: ${CONFIG_ENV_VAR})")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--json", dest="json_out", help="write the JSON report to this path")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITE_NAMES + ["all"])
    add_common(p_verify)

    p_cal = sub.add_parser("calibrate", help="calibrate action/variation signs")
    add_common(p_cal)

    p_flow = sub.add_parser("flow", help="run the harmonic gradient flow")
    p_flow.add_argument("--steps", type=int, required=True)
    p_flow.add_argument("--dt", type=float, required=True)
    add_common(p_flow)

    p_dec = sub.add_parser("decompose", help="decompose a deformation fixture")
    p_dec.add_argument("--fixture", required=True, help="fixture JSON path")
    add_common(p_dec)
    return parser


def _load_config(args) -> SuiteConfig:
    if getattr(args, "config", None):
        config = SuiteConfig.load(args.config)
    else:
        config = SuiteConfig.from_environment()
    if getattr(args, "seed", None) is not None:
        config.seed = args.seed
    return config


def _emit(document: str, args) -> None:
    if getattr(args, "json_out", None):
        with open(args.json_out, "w") as fh:
            fh.write(document)
    sys.stdout.write(document)


def _report(config: SuiteConfig, checks: list[CheckReport]) -> SuiteReport:
    return SuiteReport(seed=config.seed, config_hash=config.config_hash(),
                       conventions=config.conventions.to_dict(), checks=checks)


def _cmd_verify(args) -> int:
    config = _load_config(args)
    checks = run_suite(config, args.suite)
    report = _report(config, checks)
    _emit(render_report(report), args)
    return 0 if report.all_passed else 1


def _cmd_calibrate(args) -> int:
    config = _load_config(args)
    updated, cal = calibrate(config)
    if getattr(args, "config", None):
        updated.save(args.config)
    document = json.dumps({"conventions": cal.to_dict()}, indent=2, sort_keys=True) + "\n"
    _emit(document, args)
    return 0


def _cmd_flow(args) -> int:
    config = _load_config(args)
    geom, phi0, winding = flow_initial_data(config, suite_rng(config, "flow"))
    result = harmonic_flow(geom, phi0, steps=args.steps, dt=args.dt, winding=winding)
    document = json.dumps({
        "converged": result.converged,
        "steps_taken": result.steps_taken,
        "initial_energy": result.energies[0],
        "final_energy": result.energies[-1],
    }, indent=2, sort_keys=True) + "\n"
    _emit(document, args)
    return 0 if result.converged else 1


def _field_from_values(grid: Grid, n_gen: int, values, mask: int, where: str) -> GrassmannField:
    """The samples of fixture entry ``where`` on ``mask``; ValueError unless
    they form a numeric array of exactly the fixture's shape."""
    try:
        a = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"decompose fixture entry {where} is not a numeric array: {exc}") from None
    if a.shape != grid.shape:
        raise ValueError(f"decompose fixture entry {where} has shape {list(a.shape)}, "
                         f"but the fixture's shape is {list(grid.shape)}")
    return GrassmannField(grid, n_gen, {mask: a})


def _fixture_entry(fixture, *path):
    """fixture[path[0]][path[1]]...; ValueError naming the first missing key."""
    value = fixture
    for depth, key in enumerate(path):
        if not isinstance(value, dict) or key not in value:
            where = "".join(f"[{k!r}]" for k in path[:depth + 1])
            raise ValueError(f"decompose fixture has no key {where}")
        value = value[key]
    return value


def _cmd_decompose(args) -> int:
    config = _load_config(args)
    with open(args.fixture) as fh:
        fixture = json.load(fh)
    shape = _fixture_entry(fixture, "shape")
    grid = Grid(tuple(shape), tuple(fixture.get("periods", config.periods)))
    n_gen = config.n_gen
    geom = SurfaceGeometry.flat(grid, n_gen)
    chi0 = GravitinoField.zero(grid, n_gen)
    kind = _fixture_entry(fixture, "kind")
    # Every entry is looked up before any is read as samples, so a missing
    # key is reported before a bad shape.
    if kind == "metric":
        entries = {ij: _fixture_entry(fixture, "tensor", ij) for ij in ("11", "12", "22")}
        g11, g12, g22 = [_field_from_values(grid, n_gen, values, 0, f"['tensor'][{ij!r}]")
                         for ij, values in entries.items()]
        result = decompose_metric(geom, chi0, MetricDeformation([[g11, g12], [g12, g22]]))
    elif kind == "gravitino":
        entries = {key: _fixture_entry(fixture, "components", key) for key in ("chi1", "chi2")}
        for key, comps in entries.items():
            if not isinstance(comps, list) or len(comps) != 2:
                raise ValueError(f"decompose fixture entry ['components'][{key!r}] must be "
                                 f"a list of two spinor components, got {comps!r}")
        # Numeric fixture components are placed on the first odd generator.
        mask = 0b1
        dchi = GravitinoField([
            SpinorField([_field_from_values(grid, n_gen, c, mask, f"['components'][{key!r}][{i}]")
                         for i, c in enumerate(comps)])
            for key, comps in entries.items()])
        result = decompose_gravitino(geom, chi0, dchi)
    else:
        raise ValueError(f"unknown fixture kind {kind!r}; expected metric or gravitino")
    norms = result.residual_norms()
    tol = config.tolerance("decompose")
    passed = all(value <= tol for value in norms.values())
    document = json.dumps({
        "kind": kind,
        "residual_norms": norms,
        "tolerance": tol,
        "passed": passed,
        "null_directions": result.null_directions,
    }, indent=2, sort_keys=True) + "\n"
    _emit(document, args)
    return 0 if passed else 1


# Failures caused by the input (config, fixture, flow parameters) rather than
# by the library; main reports them as a JSON error document with status 1.
_INPUT_ERRORS = (CalibrationError, FlowDivergenceError, ValueError, OSError)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "verify": _cmd_verify,
        "calibrate": _cmd_calibrate,
        "flow": _cmd_flow,
        "decompose": _cmd_decompose,
    }
    try:
        return handlers[args.command](args)
    except _INPUT_ERRORS as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
        sys.stdout.write(json.dumps({"error": error}, indent=2, sort_keys=True) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
