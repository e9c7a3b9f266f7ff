"""Time `lmm.solve_lp` on the estimator LP of seeded Poissonized trials.

    python3 tools/time_solve_lp.py --src src --n 100000 --k 5000 --family uniform --trials 3

The package is imported from the `--src` directory, so the same command
times two source trees.  Each trial samples family on substream(seed, t),
then times one moment table, one `build_lp` and one `solve_lp` call.
Prints one JSON object: the LP shape, the per-trial solve times and their
median, the first (cold) `build_lp` time apart from the median of the later
(warm) ones, since the first build of a (scheme, k, depth) also builds the
part of the LP it shares with the later ones, and per trial the
moment-table and build times, the bytes the LP's
constraint matrix holds (`lp.A.nbytes`), the process's peak RSS so far, and
the objective, status, atom count, pivots, pricing rounds per stage and the
constraint violation from the estimate's diagnostics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--k", type=int, required=True)
    parser.add_argument("--family", required=True)
    parser.add_argument("--trials", type=int, default=3)
    parser.add_argument("--seed", type=int, default=101)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))

    from sortdist.harness import make_distribution
    from sortdist.intervals import DEFAULT_C1, build_scheme
    from sortdist.lmm import build_lp, solve_lp
    from sortdist.moments import DEFAULT_C2, degree_for, moment_table_estimate
    from sortdist.sampling import sample_poissonized, substream

    scheme = build_scheme(args.n, DEFAULT_C1, "estimator")
    depth = degree_for(scheme.n, DEFAULT_C2)
    p = make_distribution(args.family, args.k)
    times, trials = [], []
    for t in range(args.trials):
        h = sample_poissonized(p, args.n, substream(args.seed, t))
        start = time.perf_counter()
        targets = moment_table_estimate(h, scheme, depth, clamped=True)
        built = time.perf_counter()
        lp = build_lp(targets, scheme, args.k)
        solved = time.perf_counter()
        res = solve_lp(lp)
        times.append(time.perf_counter() - solved)
        trials.append({
            "moment_table_s": built - start,
            "build_lp_s": solved - built,
            "lp_bytes": int(lp.A.nbytes),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "objective": res.objective_value,
            "status": res.solver_status,
            "atoms": int(res.measure.locations.size),
            **{key: res.diagnostics[key] for key in ("pivots", "rounds", "violation")},
        })
    print(json.dumps({
        "n": args.n, "k": args.k, "family": args.family, "seed": args.seed,
        "lp_rows": int(lp.A.shape[0]), "lp_cols": int(lp.A.shape[1]),
        "solve_lp_s": times, "solve_lp_s_median": statistics.median(times),
        "build_lp_s_cold": trials[0]["build_lp_s"],
        "build_lp_s_warm_median": statistics.median(t["build_lp_s"] for t in trials[1:]) if args.trials > 1 else None,
        "trials": trials,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
