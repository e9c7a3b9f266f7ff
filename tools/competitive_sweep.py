"""Run the exact competitive check over n = 4..24, three families and three eps.

    python3 tools/competitive_sweep.py --src src --out SWEEP_competitive.json
    python3 tools/competitive_sweep.py --src parent/src --repeats 5

The points are every n from 4 to 24 at k = 4 and c2 = 1, the families
`uniform`, `two-level` and `zipf:1`, and eps in {0.3, 0.6, 1.0}: 189
checks.  They run n by n, so on a tree that keeps its desk table
(`harness.DeskTable`, built once per (n, k, c2)) the nine checks at one n
build one table and eight read it; a tree that keeps none builds it on
every check.  The check is exact, so the points need no seed.  The package
is imported from the `--src` directory, so the same command runs on two
source trees.

--out writes one row per point: `delta_empirical` (the estimator's exact
failure probability), the PML plug-in's `direct_failure_probability`, the
`indicator_bound_term`, `eps_prime`, the two reference curves and the
empirical exponent log(direct failure) / log(delta_empirical), null where
either probability is not strictly between 0 and 1.  The file is a pure
function of the tree, so two trees can be compared byte for byte.

--repeats times the whole sweep that many times, each from an empty memo,
and then the warm passes alone that many times: per n, one untimed check
builds the table and the nine checks that read it are timed, so the pass
cost is reported apart from the cold builds (on a tree that keeps no
table every check builds, and the warm times are cold ones).  It prints
one JSON object: the sweep times and their median, the desk tables built
per sweep (null on a tree with no `DeskTable`), the summed time of the 189
warm passes per repeat and its median, the process peak RSS and the
SHA-256 of the rows.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

NS = tuple(range(4, 25))
K = 4
C2 = 1.0
FAMILIES = ("uniform", "two-level", "zipf:1")
EPS = (0.3, 0.6, 1.0)


def exponent(direct: float, delta: float) -> float | None:
    if 0.0 < direct < 1.0 and 0.0 < delta < 1.0:
        return math.log(direct) / math.log(delta)
    return None


def drop_desk(harness) -> None:
    """Drop the kept desk table: `_desk_table`'s cache, or on older trees
    the `_last_desk` global (harmless on a tree that keeps none)."""
    if hasattr(harness, "_desk_table"):
        harness._desk_table.cache_clear()
    else:
        harness._last_desk = None


def check(harness, n: int, family: str, eps: float) -> dict:
    return harness.run_competitive_check(harness.ExperimentConfig(n=n, k=K, dist=family, eps=eps, c2=C2))


def warm_passes(harness) -> float:
    """Seconds of the 189 checks, each n's table built by an untimed check first."""
    spent = 0.0
    for n in NS:
        drop_desk(harness)
        check(harness, n, FAMILIES[0], EPS[0])
        for family in FAMILIES:
            for eps in EPS:
                start = time.perf_counter()
                check(harness, n, family, eps)
                spent += time.perf_counter() - start
    return spent


def sweep(harness) -> list[dict]:
    rows = []
    for n in NS:
        for family in FAMILIES:
            for eps in EPS:
                rep = check(harness, n, family, eps)
                curves = rep["curves"]
                rows.append({
                    "n": n, "k": K, "family": family, "eps": eps,
                    "eps_prime": rep["eps_prime"],
                    "delta_empirical": rep["delta_empirical"],
                    "direct_failure_probability": rep["direct_failure_probability"],
                    "indicator_bound_term": rep["indicator_bound_term"],
                    "classical_bound": curves["classical_bound_delta_exp_3_sqrt_n"],
                    "chained_bound": curves["chained_bound_delta_pow_exp_n13"],
                    "empirical_exponent": exponent(rep["direct_failure_probability"], rep["delta_empirical"]),
                })
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--out", type=Path, help="write the rows to this JSON file")
    parser.add_argument("--repeats", type=int, default=0, help="time this many sweeps, each from an empty memo")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))

    from sortdist import harness

    if args.out:
        drop_desk(harness)
        rows = sweep(harness)
        header = {"k": K, "c2": C2, "c1": harness.COMPETITIVE_C1, "ns": list(NS),
                  "families": list(FAMILIES), "eps": list(EPS)}
        args.out.write_text(json.dumps({**header, "rows": rows}, indent=1) + "\n")
    if args.repeats:
        counting = hasattr(harness, "DeskTable")
        if counting:
            desk_table = harness.DeskTable

            class CountingDeskTable(desk_table):
                def __init__(self, *a, **kw):
                    nonlocal builds
                    builds += 1
                    super().__init__(*a, **kw)

            harness.DeskTable = CountingDeskTable
        times, table_builds = [], []
        for _ in range(args.repeats):
            drop_desk(harness)
            builds = 0 if counting else None
            start = time.perf_counter()
            rows = sweep(harness)
            times.append(time.perf_counter() - start)
            table_builds.append(builds)
        warm = [warm_passes(harness) for _ in range(args.repeats)]
        print(json.dumps({
            "points": len(rows), "sweep_s": times, "sweep_s_median": statistics.median(times),
            "table_builds": table_builds, "warm_passes_s": warm, "warm_passes_s_median": statistics.median(warm),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "sha256": hashlib.sha256(json.dumps(rows).encode()).hexdigest(),
        }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
