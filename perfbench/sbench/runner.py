"""Run one workload for a time budget and summarise it as benchmark metrics.

Untraced runs (``trace=False``) report the end-to-end metrics and never
install hooks.  Traced runs alternate untraced and traced iterations, so the
per-layer metrics and the tracing overhead come from the same process.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import supersigma
import supersigma.suites as suites

from . import THREAD_ENV_VARS
from .tracing import (DECOMPOSITION_HOOKS, FLOW_HOOK, HOOKS, KERNEL_MODULES, KERNELS,
                      Tracer)
from .workloads import Workload, accuracy_margin_digits, build_inputs, run_iteration

IMPORT_REPEATS = 5

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("accuracy_margin_digits", "digits"),
]


def per_layer_metrics(hooks=HOOKS) -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric a traced run can report."""
    out = []
    for prefix, _ in hooks:
        out += [(f"{prefix}.calls", "count"), (f"{prefix}.self_s", "s")]
    out += [(f"{FLOW_HOOK}.steps", "count"),
            ("deformations.pinv_per_decomposition", "calls/decomp")]
    for module in KERNEL_MODULES:
        out += [(f"{module}.{kernel}.calls", "count") for kernel in KERNELS]
        out.append((f"{module}.fft.bytes", "bytes-computed"))
    out += [(f"suites.{name}.wall_s", "s") for name in suites.SUITE_NAMES]
    out.append(("trace.overhead_s", "s"))
    return out


def measure_import_s(src: str) -> list[float]:
    """Seconds to import numpy and supersigma, each in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import numpy, supersigma; print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                              text=True, check=True, timeout=120)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def environment_record(workload: Workload, seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "supersigma": supersigma.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas_threads_env": {v: os.environ.get(v) for v in THREAD_ENV_VARS},
        "workload": workload.name,
        "seed": seed,
    }


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _as_reported(value: float, unit: str):
    integral = unit in ("count", "bytes-computed") and float(value).is_integer()
    return int(value) if integral else value


def _check_digests(digests: dict, record_path: str | None) -> list[str]:
    """Compare this run's report digests with earlier runs'; return mismatched keys."""
    recorded = {}
    if record_path and os.path.exists(record_path):
        with open(record_path) as fh:
            recorded = json.load(fh)
    mismatched = [key for key, digest in digests.items()
                  if recorded.get(key, digest) != digest]
    if record_path:
        recorded.update({k: v for k, v in digests.items() if k not in recorded})
        tmp = record_path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(recorded, fh, indent=1, sort_keys=True)
        os.replace(tmp, record_path)
    return mismatched


def run(workload: Workload, seed: int, seconds: float, trace: bool, src: str,
        out_dir: str | None = None, hooks=HOOKS) -> dict:
    """Measure ``workload`` for about ``seconds`` (at least one iteration).

    The record's "result" entry is the benchmark's JSON result line.
    """
    clock = time.perf_counter
    import_s = measure_import_s(src)
    build_s: list[float] = []
    untraced, traced, tracers = [], [], []
    digests: dict[str, str] = {}
    digest_mismatch: list[str] = []
    checks_total = checks_failed = 0
    margin = None

    begin = clock()
    n = 0
    while True:
        t0 = clock()
        config = workload.config(seed)
        input_index = n if workload.fresh_inputs else 0
        jobs = build_inputs(workload, config, input_index)
        build_s.append(clock() - t0)

        if trace and n % 2 == 1:
            tracer = Tracer(hooks=hooks)
            with tracer:
                result = run_iteration(workload, config, jobs, tracer)
            traced.append(result)
            tracers.append(tracer)
        else:
            result = run_iteration(workload, config, jobs)
            untraced.append(result)
        n += 1

        key = f"{workload.name}/seed{seed}/input{input_index}"
        if digests.setdefault(key, result.digest) != result.digest:
            digest_mismatch.append(key)
        checks_total += len(result.checks)
        checks_failed += result.failed
        m = accuracy_margin_digits(result.checks)
        margin = m if margin is None else min(margin, m)

        # Stop after the last whole unit (an iteration, or an untraced +
        # traced pair) that is expected to end within the time budget.
        unit = 2 if trace else 1
        if n % unit == 0:
            elapsed = clock() - begin
            if elapsed * (n + unit) / n > seconds:
                break

    record_path = os.path.join(out_dir, "digests.json") if out_dir else None
    digest_mismatch += _check_digests(digests, record_path)

    suite_wall = {name: _median([r.suite_wall_s[name] for r in untraced])
                  for name in untraced[0].suite_wall_s}
    if trace:
        metrics = _traced_metrics(tracers, traced, untraced, suite_wall, hooks)
    else:
        metrics = {
            "wall_s": _median([r.wall_s for r in untraced]),
            "setup_s": _median(import_s) + _median(build_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "accuracy_margin_digits": margin,
        }
    units = dict(END_TO_END + per_layer_metrics(hooks))
    result_line = {
        "correct": checks_failed == 0 and not digest_mismatch,
        "attempted": checks_total,
        "failed": checks_failed,
        "metrics": {name: {"value": _as_reported(value, units[name]), "unit": units[name]}
                    for name, value in metrics.items()},
    }
    missing = sorted(set(tracers[0].missing_hooks)) if tracers else []
    run_record = {
        "environment": environment_record(workload, seed),
        "iteration_wall_s": {"untraced": [r.wall_s for r in untraced],
                             "traced": [r.wall_s for r in traced]},
        "suite_wall_s": suite_wall,
        "report_sha256": digests,
        "digest_mismatch": digest_mismatch,
        "missing_hooks": missing,
        "result": result_line,
    }
    if out_dir:
        stem = os.path.join(out_dir, f"{workload.name}-seed{seed}-trace{int(trace)}")
        with open(stem + ".json", "w") as fh:
            json.dump(run_record, fh, indent=1, sort_keys=True)
        if tracers:
            tracers[-1].save_spans(stem + "-spans.npz")
    return run_record


def _traced_metrics(tracers: list, traced: list, untraced: list, suite_wall: dict,
                    hooks) -> dict:
    missing = set(tracers[0].missing_hooks)
    totals = [t.totals() for t in tracers]
    metrics: dict[str, float] = {}

    def med(fn) -> float:
        return _median([fn(t, tot) for t, tot in zip(tracers, totals)])

    for prefix, _ in hooks:
        if prefix in missing:
            continue
        metrics[f"{prefix}.calls"] = med(lambda t, tot: tot.get(prefix, (0, 0.0))[0])
        metrics[f"{prefix}.self_s"] = med(lambda t, tot: tot.get(prefix, (0, 0.0))[1])
    if FLOW_HOOK not in missing:
        metrics[f"{FLOW_HOOK}.steps"] = med(lambda t, tot: t.flow_steps)
    if not missing & set(DECOMPOSITION_HOOKS):
        def per_decomposition(t, tot) -> float:
            count = sum(tot.get(h, (0, 0.0))[0] for h in DECOMPOSITION_HOOKS)
            return t.kernel_calls["deformations", "pinv"] / count if count else 0.0
        metrics["deformations.pinv_per_decomposition"] = med(per_decomposition)
    for module in KERNEL_MODULES:
        for kernel in KERNELS:
            metrics[f"{module}.{kernel}.calls"] = med(
                lambda t, tot: t.kernel_calls[module, kernel])
        metrics[f"{module}.fft.bytes"] = med(lambda t, tot: t.kernel_bytes[module])
    for name in suites.SUITE_NAMES:
        metrics[f"suites.{name}.wall_s"] = suite_wall.get(name, 0.0)
    metrics["trace.overhead_s"] = (_median([r.wall_s for r in traced])
                                   - _median([r.wall_s for r in untraced]))
    return metrics
