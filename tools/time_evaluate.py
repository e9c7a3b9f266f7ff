"""Time `poisson_approx.verify_bounds`, whose cost is its grid evaluation.

    python3 tools/time_evaluate.py --src parent/src --save parent.npz
    python3 tools/time_evaluate.py --src src --reference parent.npz

The package is imported from the `--src` directory, so the same command
times two source trees.  For each n the `abs` construction
`build_poisson_approximation(abs, n)` is built once (untimed), then
`verify_bounds(poly, abs)` is timed `--repeats` times; its 673-point x grid
evaluation is most of that time.  The values of `evaluate` over that grid
(one scalar call per point, which every tree supports) are kept untimed:
`--save` writes them to an .npz file, and `--reference` reads such a file
from another tree and reports the largest relative difference per n
(absolute where the reference value is 0).
Prints one JSON object: per n the times, their median, the SHA-256 of the
values, and the relative difference when a reference is given.
"""

from __future__ import annotations

import argparse
import hashlib
import json
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
        times = []
        for _ in range(args.repeats):
            start = time.perf_counter()
            verify_bounds(poly, f)
            times.append(time.perf_counter() - start)
        x_grid = np.unique(
            np.concatenate([np.linspace(0.0, 1.0, 513), np.geomspace(1.0 / (4 * n), 0.05, 160)])
        )
        got = np.asarray([evaluate(poly, float(x)) for x in x_grid])
        values[f"n{n}"] = got
        row = {
            "n": n, "verify_s": times, "verify_s_median": statistics.median(times),
            "points": int(x_grid.size), "sha256": hashlib.sha256(got.tobytes()).hexdigest(),
        }
        if reference is not None:
            want = reference[f"n{n}"]
            scale = np.where(want == 0.0, 1.0, np.abs(want))
            row["max_rel_diff"] = float(np.max(np.abs(got - want) / scale))
            row["values_moved"] = int(np.sum(got != want))
        rows.append(row)
    if args.save:
        np.savez(args.save, **values)
    print(json.dumps({"f": "abs", "repeats": args.repeats, "rows": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
