"""Time the Poissonized sampler and the benchmark loop around it on two source trees.

    python3 tools/time_sampler.py --before parent/src --after src --out BENCH_sampler.json

Every measurement runs in a fresh process (this script with --one), with
BLAS threads capped at 2, alternating which tree goes first:

- sampler: for `uniform`, `two-level` and `zipf:1` at n = 1e4, k = 5000,
  the first `sample_poissonized` call on a new distribution (which builds
  any CDF rows the tree keeps), then the median of `--calls` further calls
  on substreams 1, 2, ... of seed 101, and the bytes of the rows the tree
  keeps for the distribution (0 for a tree that keeps none).  One untimed
  call on a small `uniform` loads the package first.  The SHA-256 of every
  histogram drawn is recorded, so the two trees' samples can be compared.
- benchmark: `run_benchmark` on `zipf:1` at n = 1e4, k = 5000, seed 0,
  with 1 trial and with 20 (the CLI default), timed as one call after the
  import, with the SHA-256 of its records.

Writes one JSON object to `--out` (or prints it): per row the times of
each process, their median, and after over before.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

N, K = 10**4, 5000
FAMILIES = ("uniform", "two-level", "zipf:1")
BENCH_TRIALS = (1, 20)


def one(kind: str, calls: int, trials: int) -> dict:
    """One measurement in this process; the package is already on sys.path."""
    from sortdist import harness, sampling
    from sortdist.sampling import sample_poissonized, substream

    if kind == "benchmark":
        config = harness.ExperimentConfig(n=N, k=K, dist="zipf:1", trials=trials, seed=0)
        start = time.perf_counter()
        records, _ = harness.run_benchmark(config)
        spent = time.perf_counter() - start
        text = json.dumps([r.__dict__ for r in records], sort_keys=True)
        return {"s": spent, "sha256": hashlib.sha256(text.encode()).hexdigest()}
    sample_poissonized(harness.make_distribution("uniform", 10), 100, substream(1, 0))
    out = {}
    for fam in FAMILIES:
        p = harness.make_distribution(fam, K)
        digest = hashlib.sha256()
        start = time.perf_counter()
        h = sample_poissonized(p, N, substream(101, 0))
        first = time.perf_counter() - start
        digest.update(h.counts.tobytes())
        times = []
        for t in range(1, calls + 1):
            gen = substream(101, t)
            start = time.perf_counter()
            h = sample_poissonized(p, N, gen)
            times.append(time.perf_counter() - start)
            digest.update(h.counts.tobytes())
        # a tree that keeps no rows has no table, and may not hash p
        kept = sampling._KEPT.get(p, {}) if hasattr(sampling, "_KEPT") else {}
        out[fam] = {
            "first_s": first,
            "steady_s": statistics.median(times),
            "row_bytes": sum(r.rows.nbytes + r.first.nbytes + r.last.nbytes for r in kept.values()),
            "sha256": digest.hexdigest(),
        }
    return out


def run_one(src: Path, kind: str, calls: int, trials: int) -> dict:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": "2"}
    cmd = [sys.executable, __file__, "--one", kind, "--calls", str(calls), "--trials", str(trials), "--src", str(src)]
    return json.loads(subprocess.run(cmd, env=env, check=True, capture_output=True, text=True).stdout)


def alternate(trees: dict, kind: str, processes: int, calls: int, trials: int) -> dict:
    runs = {name: [] for name in trees}
    for i in range(processes):
        for name in (list(trees) if i % 2 == 0 else list(trees)[::-1]):
            runs[name].append(run_one(trees[name], kind, calls, trials))
    return runs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path)
    parser.add_argument("--after", type=Path)
    parser.add_argument("--src", type=Path, help="with --one: the tree to import")
    parser.add_argument("--one", choices=("sampler", "benchmark"), help=argparse.SUPPRESS)
    parser.add_argument("--calls", type=int, default=200, help="steady sampler calls per family and process")
    parser.add_argument("--trials", type=int, default=1, help=argparse.SUPPRESS)
    parser.add_argument("--processes", type=int, default=6, help="processes per tree and row")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.one:
        sys.path.insert(0, str(args.src.resolve()))
        print(json.dumps(one(args.one, args.calls, args.trials)))
        return 0
    if args.before is None or args.after is None:
        parser.error("--before and --after are required")
    trees = {"before": args.before.resolve(), "after": args.after.resolve()}

    sampler: dict = {}
    runs = alternate(trees, "sampler", args.processes, args.calls, 0)
    for fam in FAMILIES:
        row: dict = {}
        for name, results in runs.items():
            per = [r[fam] for r in results]
            row[name] = {
                "first_s": [r["first_s"] for r in per],
                "steady_s": [r["steady_s"] for r in per],
                "median_first_s": statistics.median(r["first_s"] for r in per),
                "median_steady_s": statistics.median(r["steady_s"] for r in per),
                "row_bytes": per[0]["row_bytes"],
                "sha256": per[0]["sha256"],
            }
            assert len({r["sha256"] for r in per}) == 1
        for key in ("first_s", "steady_s"):
            row[f"after_over_before_{key}"] = row["after"][f"median_{key}"] / row["before"][f"median_{key}"]
        row["samples_equal"] = row["before"]["sha256"] == row["after"]["sha256"]
        sampler[fam] = row

    benchmark: dict = {}
    for trials in BENCH_TRIALS:
        runs = alternate(trees, "benchmark", args.processes, 0, trials)
        row = {}
        for name, results in runs.items():
            times = [r["s"] for r in results]
            row[name] = {"s": times, "median_s": statistics.median(times), "sha256": results[0]["sha256"]}
            assert len({r["sha256"] for r in results}) == 1
        row["after_over_before"] = row["after"]["median_s"] / row["before"]["median_s"]
        row["records_equal"] = row["before"]["sha256"] == row["after"]["sha256"]
        benchmark[f"trials={trials}"] = row

    out = {
        "host": f"shared Linux host, 2 shared cores, Python {platform.python_version()}; BLAS threads capped at 2",
        "command": "python3 tools/time_sampler.py --before <parent>/src --after <change>/src "
                   f"--calls {args.calls} --processes {args.processes}",
        "point": {"n": N, "k": K, "seed": 101},
        "sampler": sampler,
        "run_benchmark_zipf1": benchmark,
    }
    text = json.dumps(out, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
