"""Time `poisson_approx.glue` on the blocks of the `abs` construction.

    python3 tools/time_glue.py --src src --n-list 1024,4096,16384,65536 --repeats 5

The package is imported from the `--src` directory, so the same command
times two source trees.  For each n the blocks of
`build_poisson_approximation(abs, n)` are built once (untimed), then `glue`
is timed `--repeats` times, and each timed call also records the minor page
faults it took, the change in `resource.getrusage(RUSAGE_SELF).ru_minflt`.
Prints one JSON object: per n the times and their median, the faults per
call and their median, the output length and the SHA-256 of the
coefficient bytes, so two trees can be checked for byte-equal output.
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--n-list", default="1024,4096,16384,65536")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))

    from sortdist.harness import parse_function
    from sortdist.poisson_approx import build_poisson_approximation, glue

    rows = []
    for n in (int(v) for v in args.n_list.split(",")):
        poly = build_poisson_approximation(parse_function("abs"), n)
        times, faults = [], []
        for _ in range(args.repeats):
            fault_start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            coeffs = glue(poly.blocks, n, poly.scheme)
            times.append(time.perf_counter() - start)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - fault_start)
        rows.append({
            "n": n, "glue_s": times, "glue_s_median": statistics.median(times),
            "glue_minflt": faults, "glue_minflt_median": statistics.median(faults),
            "length": int(coeffs.size),
            "sha256": hashlib.sha256(coeffs.tobytes()).hexdigest(),
        })
    print(json.dumps({"f": "abs", "repeats": args.repeats, "rows": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
