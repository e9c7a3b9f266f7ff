"""Time the competitive check's desk at k = 4 on two source trees, and its reach.

    python3 tools/time_profiles.py --before parent/src --after src --out BENCH_profiles.json

Every measurement runs in a fresh process (this script with --one), with
BLAS threads capped at 2, alternating which tree goes first:

- cold: `run_competitive_check` at n = 8 and n = 12, k = 4, `uniform`,
  eps = 0.6, c2 = 1, each call from an empty memo, so each builds its desk
  table; one untimed check at n = 5, k = 3 loads the package first.  Each
  process times `--repeats` calls.
- warm: the `pml-desk` benchmark op's checks (n = 8, k = 4, eps = 0.6,
  c2 = 1 on `uniform`, `two-level` and `zipf:1`) reading the table that
  one untimed check built, 300 passes per family, reported per pass.
- reach, on the `--after` tree alone: one cold check at n = 16, 24, 32
  and 48 (k = 4, `uniform`), with the table's profile count, the bytes of
  its R, and the process's peak RSS before and after the check.

Writes one JSON object to `--out` (or prints it): per row the times of
each process, their median, and per tree the SHA-256 of the cold checks'
reports, so that the reports' bytes can be compared where they should agree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

COLD_NS = (8, 12)
REACH_NS = (16, 24, 32, 48)
FAMILIES = ("uniform", "two-level", "zipf:1")
WARM_PASSES = 300


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def one(kind: str, n: int, repeats: int) -> dict:
    """One measurement in this process; the package is already on sys.path."""
    from sortdist import harness

    def check(n: int, k: int, dist: str) -> dict:
        return harness.run_competitive_check(harness.ExperimentConfig(n=n, k=k, dist=dist, eps=0.6, c2=1.0))

    check(5, 3, "uniform")
    if kind == "cold":
        times, reports = [], []
        for _ in range(repeats):
            harness._desk_table.cache_clear()
            start = time.perf_counter()
            rep = check(n, 4, "uniform")
            times.append(time.perf_counter() - start)
            reports.append(json.dumps(rep, sort_keys=True))
        assert len(set(reports)) == 1
        return {"s": times, "sha256": hashlib.sha256(reports[0].encode()).hexdigest(), "rows": len(rep["pml"])}
    if kind == "warm":
        harness._desk_table.cache_clear()
        check(n, 4, FAMILIES[0])
        per_family = {}
        for dist in FAMILIES:
            start = time.perf_counter()
            for _ in range(WARM_PASSES):
                check(n, 4, dist)
            per_family[dist] = (time.perf_counter() - start) / WARM_PASSES
        return {"s_per_pass": per_family}
    harness._desk_table.cache_clear()
    rss_before = peak_rss_mb()
    start = time.perf_counter()
    rep = check(n, 4, "uniform")
    spent = time.perf_counter() - start
    table = harness._desk_table(n, 4, 1.0)
    return {
        "s": spent,
        "profiles": len(table.profiles),
        "r_bytes": table.R.nbytes,
        "peak_rss_mb_before": rss_before,
        "peak_rss_mb_after": peak_rss_mb(),
        "probability_sum": sum(row["probability"] for row in rep["pml"]),
    }


def run_one(src: Path, kind: str, n: int, repeats: int) -> dict:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": "2"}
    cmd = [sys.executable, __file__, "--one", kind, "--n", str(n), "--repeats", str(repeats), "--src", str(src)]
    return json.loads(subprocess.run(cmd, env=env, check=True, capture_output=True, text=True).stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path)
    parser.add_argument("--after", type=Path)
    parser.add_argument("--src", type=Path, help="with --one: the tree to import")
    parser.add_argument("--one", choices=("cold", "warm", "reach"), help=argparse.SUPPRESS)
    parser.add_argument("--n", type=int, default=8)
    parser.add_argument("--repeats", type=int, default=5, help="cold calls per process")
    parser.add_argument("--processes", type=int, default=4, help="processes per tree and cold or warm row")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.one:
        sys.path.insert(0, str(args.src.resolve()))
        print(json.dumps(one(args.one, args.n, args.repeats)))
        return 0
    if args.before is None or args.after is None:
        parser.error("--before and --after are required")
    trees = {"before": args.before.resolve(), "after": args.after.resolve()}
    rows: dict = {"cold": {}, "warm": {}}
    for kind, ns in (("cold", COLD_NS), ("warm", (8,))):
        for n in ns:
            runs = {name: [] for name in trees}
            for i in range(args.processes):
                # alternate which tree goes first
                for name in (list(trees) if i % 2 == 0 else list(trees)[::-1]):
                    runs[name].append(run_one(trees[name], kind, n, args.repeats))
            row = {}
            for name, results in runs.items():
                if kind == "cold":
                    times = [t for r in results for t in r["s"]]
                    row[name] = {"s": times, "median_s": statistics.median(times),
                                 "rows": results[0]["rows"], "sha256": results[0]["sha256"]}
                else:
                    passes = [t for r in results for t in r["s_per_pass"].values()]
                    row[name] = {"s_per_pass": [r["s_per_pass"] for r in results],
                                 "median_s_per_pass": statistics.median(passes)}
            key = "median_s" if kind == "cold" else "median_s_per_pass"
            row["after_over_before"] = row["after"][key] / row["before"][key]
            rows[kind][f"n={n}"] = row
    rows["reach"] = {f"n={n}": run_one(trees["after"], "reach", n, 1) for n in REACH_NS}
    out = {
        "host": f"shared Linux host, 2 usable cores, Python {platform.python_version()}; BLAS threads capped at 2",
        "command": "python3 tools/time_profiles.py --before <parent>/src --after <change>/src "
                   f"--repeats {args.repeats} --processes {args.processes}",
        **rows,
    }
    text = json.dumps(out, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
