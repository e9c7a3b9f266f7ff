"""Before and after rows for the Poisson kernels of the `approx-sweep` workload.

    python3 tools/bench_kernels.py --before ../parent --after . \\
        --pairs 10 --seconds 20 --seeds 101,202 --host "2 shared cores" > BENCH_kernels.json

Each tree is a checkout root holding `src/sortdist` and `perfbench/`.  Every
measurement runs in a fresh process per tree, the two trees alternating, so
each tree keeps its own heap:

- `kernels`: `tools/time_evaluate.py` and `tools/time_glue.py` of this
  checkout, with `--src` on each tree, `--rounds` processes per tree: the
  time and the minor page faults of `verify_bounds` and of `glue` per n
  (the median over each process's calls, then over the processes), with the
  output hashes;
- `sweep`: `run_approx_sweep("abs", [1024, 4096, 16384])`, one
  `approx-sweep` op, `--ops` times after one untimed op in each of
  `--rounds` processes per tree: the op time and its minor faults (the
  change in `resource.getrusage(RUSAGE_SELF).ru_minflt`);
- `perfbench`: `perfbench/run.py --workload approx-sweep` of each tree,
  `--pairs` alternating pairs of `--seconds` runs at every seed of
  `--seeds`: every end-to-end metric and the `results.json` SHA-256 per run,
  the medians, the before tree's quartiles, and the pairs the after tree
  won; then `--traced-pairs` traced pairs at the first seed, with the medians
  of the `poisson_approx.*` and `op.*` spans.

perfbench writes under each tree's `perfbench/out/`.  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
SWEEP = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from sortdist.harness import run_approx_sweep
run_approx_sweep("abs", [1024, 4096, 16384])
rows = []
for _ in range(int(sys.argv[2])):
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    run_approx_sweep("abs", [1024, 4096, 16384])
    rows.append((time.perf_counter() - start, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults))
print(json.dumps(rows))
"""
# (metric, True when higher is better)
END_TO_END = (
    ("ops_per_s", True), ("op_s_p50", False), ("op_s_tail", False), ("peak_rss_mb", False),
    ("setup_s", False), ("error_mean", False), ("error_ratio_vs_plugin", False),
)
SPANS = (
    "poisson_approx.evaluate_s", "poisson_approx.glue_s", "poisson_approx.verify_s",
    "poisson_approx.build_s", "poisson_approx.jackson_s", "op.self_s", "op.traced_s",
)


def run_json(cmd: list[str], cwd: Path | None = None) -> dict:
    out = subprocess.run(cmd, cwd=cwd, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def kernels(trees: dict[str, Path], rounds: int) -> dict:
    scripts = {"verify": "time_evaluate.py", "glue": "time_glue.py"}
    raw = {side: {name: [] for name in scripts} for side in trees}
    for _ in range(rounds):
        for side, root in trees.items():
            for name, script in scripts.items():
                got = run_json([sys.executable, str(TOOLS / script), "--src", str(root / "src"), "--repeats", "5"])
                raw[side][name].append(got["rows"])
    return {
        side: {
            name: [
                {
                    "n": rows[0]["n"],
                    f"{name}_s_median": statistics.median(r[f"{name}_s_median"] for r in rows),
                    f"{name}_minflt_median": statistics.median(r[f"{name}_minflt_median"] for r in rows),
                    "sha256": rows[0]["sha256"],
                }
                for rows in zip(*runs)
            ]
            for name, runs in by_script.items()
        }
        for side, by_script in raw.items()
    }


def sweep(trees: dict[str, Path], rounds: int, ops: int) -> dict:
    raw = {side: [] for side in trees}
    for _ in range(rounds):
        for side, root in trees.items():
            got = subprocess.run(
                [sys.executable, "-c", SWEEP, str(root / "src"), str(ops)], check=True, capture_output=True, text=True
            ).stdout
            raw[side].extend(json.loads(got))
    return {
        side: {
            "op_s_min": min(t for t, _ in rows), "op_s_median": statistics.median(t for t, _ in rows),
            "minflt_per_op": [f for _, f in rows],
            "minflt_min": min(f for _, f in rows), "minflt_max": max(f for _, f in rows),
        }
        for side, rows in raw.items()
    }


def perfbench_run(root: Path, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "approx-sweep", "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    result = run_json(cmd, cwd=root)
    report = json.loads((root / "perfbench/out/approx-sweep" / f"seed-{seed}" / f"run-trace{trace}.json").read_text())
    row = {name: m["value"] for name, m in result["metrics"].items()}
    row["results_sha256"] = report["results_sha256"]
    row["correct"] = result["correct"]
    return row


def perfbench(trees: dict[str, Path], seeds: list[int], pairs: int, traced_pairs: int, seconds: float) -> dict:
    out = {}
    for seed in seeds:
        runs = {side: [] for side in trees}
        for _ in range(pairs):
            for side, root in trees.items():
                runs[side].append(perfbench_run(root, seed, seconds, 0))
        before, after = runs["before"], runs["after"]
        summary = {}
        for name, higher in END_TO_END:
            b, a = [r[name] for r in before], [r[name] for r in after]
            q1, _, q3 = statistics.quantiles(b, n=4) if len(b) > 1 else (b[0], b[0], b[0])
            summary[name] = {
                "before_median": statistics.median(b), "after_median": statistics.median(a),
                "before_quartiles": [q1, q3],
                "after_better_pairs": sum((y > x) if higher else (y < x) for x, y in zip(b, a)),
            }
        out[f"seed-{seed}"] = {
            "pairs": pairs, "summary": summary,
            "results_sha256_equal": len({r["results_sha256"] for r in before + after}) == 1,
            "runs": runs,
        }
    traced = {side: [] for side in trees}
    for _ in range(traced_pairs):
        for side, root in trees.items():
            traced[side].append(perfbench_run(root, seeds[0], seconds, 1))
    out["traced"] = {
        "seed": seeds[0], "pairs": traced_pairs,
        **{side: {name: statistics.median(r[name] for r in rows) for name in SPANS} for side, rows in traced.items()},
    }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path, required=True)
    parser.add_argument("--after", type=Path, required=True)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--ops", type=int, default=5)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--traced-pairs", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seeds", default="101,202")
    parser.add_argument("--host", default="", help="a note on the host, such as its core count")
    args = parser.parse_args(argv)
    trees = {"before": args.before.resolve(), "after": args.after.resolve()}
    seeds = [int(s) for s in args.seeds.split(",")]
    result = {
        "host": args.host,
        "cpus": len(os.sched_getaffinity(0)),
        "kernels": kernels(trees, args.rounds),
        "sweep": sweep(trees, args.rounds, args.ops),
        "perfbench": perfbench(trees, seeds, args.pairs, args.traced_pairs, args.seconds),
    }
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
