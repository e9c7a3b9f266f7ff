"""Time `poisson_approx.verify_bounds`, whose cost is its grid evaluation.

    python3 tools/time_evaluate.py --src parent/src --save parent.npz
    python3 tools/time_evaluate.py --src src --reference parent.npz

The package is imported from the `--src` directory, so the same command
times two source trees.  For each n the `abs` construction
`build_poisson_approximation(abs, n)` is built once (untimed), then
`verify_bounds(poly, abs)` is timed `--repeats` times; its 673-point x grid
evaluation is most of that time.  Each timed call also records the minor
page faults it took, the change in `resource.getrusage(RUSAGE_SELF).ru_minflt`.  The values of `evaluate` over that grid
are kept untimed, twice: one scalar call per point, which builds one pmf
window per call, and the single array call `evaluate(poly, x_grid)`, which
builds the windows of many points together.  `--save` writes both to an
.npz file, and `--reference` reads such a file from another tree and
reports, for each, the largest relative difference per n (absolute where
the reference value is 0) and the count of values that moved.
Prints one JSON object: per n the times, their median, the minor faults
per call and their median, the SHA-256 of both value arrays, and the
differences when a reference is given.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--n-list", default="1024,4096,16384,65536")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--save", type=Path, help="write the evaluated values to this .npz file")
    parser.add_argument("--reference", type=Path, help="an .npz file written by --save on another tree")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))

    from sortdist.harness import parse_function
    from sortdist.poisson_approx import build_poisson_approximation, evaluate, verify_bounds

    f = parse_function("abs")
    reference = np.load(args.reference) if args.reference else None
    rows, values = [], {}
    for n in (int(v) for v in args.n_list.split(",")):
        poly = build_poisson_approximation(f, n)
        times, faults = [], []
        for _ in range(args.repeats):
            fault_start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            verify_bounds(poly, f)
            times.append(time.perf_counter() - start)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - fault_start)
        x_grid = np.unique(
            np.concatenate([np.linspace(0.0, 1.0, 513), np.geomspace(1.0 / (4 * n), 0.05, 160)])
        )
        row = {
            "n": n, "verify_s": times, "verify_s_median": statistics.median(times),
            "verify_minflt": faults, "verify_minflt_median": statistics.median(faults),
            "points": int(x_grid.size),
        }
        calls = {
            "": np.asarray([evaluate(poly, float(x)) for x in x_grid]),
            "array_": np.asarray(evaluate(poly, x_grid)),
        }
        for prefix, got in calls.items():
            values[f"{prefix}n{n}"] = got
            row[f"{prefix}sha256"] = hashlib.sha256(got.tobytes()).hexdigest()
            if reference is not None and f"{prefix}n{n}" in reference:
                want = reference[f"{prefix}n{n}"]
                scale = np.where(want == 0.0, 1.0, np.abs(want))
                row[f"{prefix}max_rel_diff"] = float(np.max(np.abs(got - want) / scale))
                row[f"{prefix}values_moved"] = int(np.sum(got != want))
        rows.append(row)
    if args.save:
        np.savez(args.save, **values)
    print(json.dumps({"f": "abs", "repeats": args.repeats, "rows": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
