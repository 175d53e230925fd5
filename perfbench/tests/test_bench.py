"""Tests of the benchmark harness itself (run: python3 -m pytest perfbench/tests)."""

import contextlib
import io
import json
import os
import re

import numpy as np

import supersigma.gridfield as gridfield
from supersigma import cli
from supersigma.config import SuiteConfig
from supersigma.suites import SUITE_NAMES

from conftest import ROOT, SRC
from sbench.runner import END_TO_END, per_layer_metrics, run
from sbench.tracing import HOOKS, Tracer
from sbench.workloads import Workload, WORKLOADS, build_inputs, run_iteration

TINY = Workload(
    name="tiny", why="harness tests",
    suites=("reduction",),
    config_overrides={"reduction_grid_shape": (8, 8), "fixture_counts": {"reduction": 2}},
    decomposition_grids=(16,),
)
BOGUS = ("bogus.hook", "supersigma.gridfield.NoSuchClass.method")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def tiny_run(workload=TINY, trace=False, **kwargs):
    return run(workload, seed=3, seconds=0.0, trace=trace, src=SRC, **kwargs)


def test_verify_default_report_matches_cli_stdout(tmp_path):
    config = SuiteConfig(
        seed=7, grid_shape=(8, 8), reduction_grid_shape=(8, 8), toy_points=16,
        fixture_counts={"grassmann": 5, "berezin": 2, "toy": 2, "reduction": 2,
                        "susy2d": 1, "calibration": 2, "currents": 1, "decompose": 1})
    path = str(tmp_path / "config.json")
    config.save(path)

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        cli.main(["verify", "all", "--config", path, "--seed", "7"])

    workload = WORKLOADS["verify-default"]
    assert workload.suites == tuple(SUITE_NAMES)
    result = run_iteration(workload, SuiteConfig.load(path), [])
    assert result.text == stdout.getvalue()


def test_untraced_run_never_installs_hooks(monkeypatch):
    def refuse(self):
        raise AssertionError("hooks installed in an untraced run")

    monkeypatch.setattr(Tracer, "install", refuse)
    record = tiny_run()
    assert record["result"]["correct"]
    assert set(record["result"]["metrics"]) == {name for name, _ in END_TO_END}


def test_traced_run_restores_every_patched_name():
    originals = (gridfield.GrassmannField.__init__, gridfield.spectral_derivative,
                 np.linalg.pinv, np.fft.fft2)
    record = tiny_run(trace=True)
    assert record["result"]["correct"]
    assert (gridfield.GrassmannField.__init__, gridfield.spectral_derivative,
            np.linalg.pinv, np.fft.fft2) == originals


def test_missing_hook_is_listed_and_its_metrics_omitted():
    tracer = Tracer(hooks=HOOKS + [BOGUS])
    with tracer:
        pass
    assert tracer.missing_hooks == ["bogus.hook"]

    record = tiny_run(trace=True, hooks=HOOKS + [BOGUS])
    metrics = record["result"]["metrics"]
    assert record["missing_hooks"] == ["bogus.hook"]
    assert not [name for name in metrics if name.startswith("bogus.")]
    assert metrics["gridfield.construct.calls"]["value"] > 0


def test_kernel_calls_are_credited_to_the_innermost_layer():
    metrics = tiny_run(trace=True)["result"]["metrics"]
    assert metrics["deformations.pinv.calls"]["value"] > 0
    assert metrics["deformations.svd.calls"]["value"] > 0
    assert metrics["deformations.pinv_per_decomposition"]["value"] == \
        metrics["deformations.pinv.calls"]["value"] / 2
    assert metrics["suites.pinv.calls"]["value"] == 0
    assert metrics["gridfield.fft.bytes"]["value"] > 0


def test_failing_checks_are_counted_without_aborting():
    strict = Workload(
        name="strict", why="reduction tolerance 0", suites=("reduction",),
        config_overrides={**TINY.config_overrides, "tolerances": {"reduction": 0.0}})
    result = tiny_run(strict)["result"]
    assert result["failed"] > 0
    assert result["attempted"] >= 3
    assert result["correct"] is False


def test_report_digest_mismatch_marks_run_failed(tmp_path):
    first = tiny_run(out_dir=str(tmp_path))
    assert first["result"]["correct"]
    record_path = tmp_path / "digests.json"
    recorded = json.loads(record_path.read_text())
    recorded = {key: "0" * 64 for key in recorded}
    record_path.write_text(json.dumps(recorded))
    second = tiny_run(out_dir=str(tmp_path))
    assert second["digest_mismatch"]
    assert second["result"]["correct"] is False


def test_inputs_depend_only_on_seed_and_index():
    config = TINY.config(5)
    a, b = build_inputs(TINY, config, 1), build_inputs(TINY, config, 1)
    c = build_inputs(TINY, config, 2)
    assert a[0].metric.max_abs_diff(b[0].metric) == 0.0
    assert a[0].geom.grid != c[0].geom.grid


def test_every_metric_is_declared_with_its_unit():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == per_layer_metrics()
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
    assert all(NAME_RE.match(name) for name in declared)

    for trace in (False, True):
        metrics = tiny_run(trace=trace)["result"]["metrics"]
        for name, entry in metrics.items():
            assert declared[name] == entry["unit"], name
            assert isinstance(entry["value"], (int, float))
