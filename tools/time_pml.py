"""Time `pml.brute_force_pml` and `harness.run_competitive_check` at the desk.

    python3 tools/time_pml.py --src parent/src --save parent.npz
    python3 tools/time_pml.py --src src --reference parent.npz

The package is imported from the `--src` directory, so the same command
times two source trees.  Two stages run in one process:

- `brute_force_pml` over every profile of n = 8 (22 profiles), for each
  k_max in 2..5; one repeat times all 22 calls;
- `run_competitive_check` at n = 8, k = 4, eps = 0.6, c2 = 1 (the
  `pml-desk` op) for the families `uniform`, `two-level` and `zipf:1`,
  first cold, with the kept desk table dropped before each call so that
  each call builds its own, then warm, reading the table that one untimed
  call built.  A tree that keeps no table builds one on every call, so
  there the two rows time the same work.

Then, untimed, the `brute_force_pml` likelihood of every profile with
n <= 12, for each k_max in 1..5: `--save` writes them to an .npz file under
the keys `r60_k1`..`r60_k5` (60 is the grid resolution), and `--reference`
reads such a file from another tree and counts, per k_max, the profiles
whose likelihood is lower than, equal to and higher than the reference's,
with the smallest and largest ratio to it over the profiles where the
reference is positive.
Prints one JSON object: per row the times and their median, and the
SHA-256 of the output bytes (the masses and the likelihood of every profile,
or the report's JSON), so two trees can be checked for byte-equal output;
the process peak RSS after each stage; and the likelihood rows.
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

FAMILIES = ("uniform", "two-level", "zipf:1")
# the largest n of the likelihood comparison
LIKELIHOOD_N_MAX = 12


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def drop_desk(harness) -> None:
    """Drop the kept desk table, `_desk_table`'s cache (a tree that keeps
    none has none to drop)."""
    if hasattr(harness, "_desk_table"):
        harness._desk_table.cache_clear()


def timed(fn, repeats: int) -> tuple[list[float], object]:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - start)
    return times, out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--save", type=Path, help="write the likelihoods to this .npz file")
    parser.add_argument("--reference", type=Path, help="an .npz file written by --save on another tree")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))

    import numpy as np

    from sortdist import harness
    from sortdist.core import desk_profiles
    from sortdist.harness import ExperimentConfig, run_competitive_check
    from sortdist.pml import brute_force_pml

    profiles = desk_profiles(8, 8)
    pml_rows = []
    for k_max in range(2, 6):
        times, results = timed(lambda: [brute_force_pml(phi, k_max=k_max) for phi in profiles], args.repeats)
        digest = hashlib.sha256()
        for p, like in results:
            digest.update(p.masses.tobytes())
            digest.update(np.float64(like).tobytes())
        pml_rows.append({
            "k_max": k_max, "profiles": len(profiles), "brute_force_s": times,
            "brute_force_s_median": statistics.median(times), "sha256": digest.hexdigest(),
        })
    rss_after_pml = peak_rss_mb()

    def check(config, table: str):
        if table == "cold":
            drop_desk(harness)
        return run_competitive_check(config)

    competitive_rows = []
    for table in ("cold", "warm"):
        for family in FAMILIES:
            config = ExperimentConfig(n=8, k=4, dist=family, eps=0.6, delta=0.1, c2=1.0)
            if table == "warm":
                check(config, table)
            times, report = timed(lambda: check(config, table), args.repeats)
            text = json.dumps(report, sort_keys=True)
            competitive_rows.append({
                "table": table, "family": family, "competitive_s": times,
                "competitive_s_median": statistics.median(times),
                "sha256": hashlib.sha256(text.encode()).hexdigest(),
            })

    rss = peak_rss_mb()

    reference = np.load(args.reference) if args.reference else None
    likelihood_rows, values = [], {}
    all_profiles = [phi for n in range(1, LIKELIHOOD_N_MAX + 1) for phi in desk_profiles(n, n)]
    for k_max in range(1, 6):
        key = f"r60_k{k_max}"
        got = np.asarray([brute_force_pml(phi, k_max=k_max)[1] for phi in all_profiles])
        values[key] = got
        row = {
            "k_max": k_max, "n_max": LIKELIHOOD_N_MAX,
            "profiles": len(all_profiles), "sha256": hashlib.sha256(got.tobytes()).hexdigest(),
        }
        if reference is not None:
            want = reference[key]
            ratio = got[want > 0] / want[want > 0]
            row.update({
                "lower": int(np.sum(got < want)), "equal": int(np.sum(got == want)),
                "higher": int(np.sum(got > want)),
                "min_ratio": float(ratio.min()), "max_ratio": float(ratio.max()),
            })
        likelihood_rows.append(row)
    if args.save:
        np.savez(args.save, **values)

    print(json.dumps({
        "n": 8, "repeats": args.repeats,
        "brute_force_pml": pml_rows, "peak_rss_mb_after_brute_force": rss_after_pml,
        "competitive": competitive_rows, "peak_rss_mb": rss,
        "likelihood": likelihood_rows,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
