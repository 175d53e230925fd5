"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the library is imported from
``src/`` next to this directory, never from an installed copy.  The last
line of standard output is the JSON result; the lines before it carry the
environment record, per-suite wall times and report digests.  Run records
and span files go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "supersigma", "__init__.py")):
        print(f"error: no supersigma sources under {SRC}", file=sys.stderr)
        return 2
    # One BLAS/OpenMP thread keeps the process within nproc threads and its
    # floating-point reductions in a fixed order (byte-identical reports).
    from sbench import THREAD_ENV_VARS
    for var in THREAD_ENV_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, SRC)
    import supersigma
    if os.path.dirname(os.path.abspath(supersigma.__file__)) != os.path.join(SRC, "supersigma"):
        print(f"error: supersigma imported from {supersigma.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    from sbench.runner import run
    from sbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    record = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                 SRC, out_dir=OUT)
    for key in ("environment", "iteration_wall_s", "suite_wall_s", "report_sha256",
                "digest_mismatch", "missing_hooks"):
        print(f"# {key}: {json.dumps(record[key], sort_keys=True)}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
