"""Run one sortdist benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lmm-flat --seed 1 --seconds 20 --trace 0

Run from the root of a source tree.  The package is imported from `src/`
of the same tree.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  Output files go to
perfbench/out/<workload>/seed-<seed>/.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "sortdist" / "__init__.py").is_file():
        print(f"no sortdist package under {src}", file=sys.stderr)
        return 2
    # BLAS threads are capped at the CPUs this process may use; the cap
    # must be in place before numpy is first imported.
    cpus = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = cpus
    sys.path.insert(0, str(src))

    import bench
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    out_dir = HERE / "out" / args.workload / f"seed-{args.seed}"
    result, report = bench.measure(workload, args.seed, args.seconds, bool(args.trace), src, out_dir)
    summary = {k: report[k] for k in sorted(report) if k not in ("latencies_s", "result", "environment")}
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
