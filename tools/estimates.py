"""Record the estimates of a fixed trial set, or compare two such records.

    python3 tools/estimates.py --src src --out /tmp/estimates-a.json
    python3 tools/estimates.py --compare /tmp/estimates-a.json /tmp/estimates-b.json

The trial set is n = 1e4, k = 5000, the families uniform, two-level and
zipf:1, seeds 101 and 202 and trials 0-39 (240 estimates); trial t of seed s
samples its Poissonized histogram on substream(s, t).  The package is
imported from the `--src` directory, so the same command records two source
trees.  `--out` writes one JSON object keyed "family/seed/trial", holding the
SHA-256 of the sampled histogram's counts and the estimate's atoms and
weights (after zero-completion), objective, status, pivots, pricing rounds
per stage and constraint violation.

`--compare` prints one JSON object: the trials whose histograms differ, so
that a change to the sampler shows directly and not only through the
estimates; how many trials have differing atom sets, the largest weight
difference over the trials whose atoms agree, the largest objective
difference, the trials whose status changed, the trials that are not
optimal in either record, and every trial whose pivot or round counts
changed.  It exits with status 1 when any trial differs in histogram,
atoms, weights, objective, status, pivots or rounds, and 0 otherwise, so
byte-identical estimates are one exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

N, K = 10_000, 5000
FAMILIES = ("uniform", "two-level", "zipf:1")
SEEDS = (101, 202)
TRIALS = 40


def record(src: Path) -> dict:
    sys.path.insert(0, str(src.resolve()))
    from sortdist.harness import make_distribution
    from sortdist.intervals import DEFAULT_C1, build_scheme
    from sortdist.lmm import estimate_sorted_distribution
    from sortdist.sampling import sample_poissonized, substream

    scheme = build_scheme(N, DEFAULT_C1, "estimator")
    out = {}
    for family in FAMILIES:
        p = make_distribution(family, K)
        for seed in SEEDS:
            for t in range(TRIALS):
                h = sample_poissonized(p, N, substream(seed, t))
                res = estimate_sorted_distribution(h, K, scheme)
                out[f"{family}/{seed}/{t}"] = {
                    "histogram": hashlib.sha256(h.counts.tobytes()).hexdigest(),
                    "atoms": res.measure.locations.tolist(),
                    "weights": res.measure.weights.tolist(),
                    "objective": res.objective_value,
                    "status": res.solver_status,
                    **{key: res.diagnostics[key] for key in ("pivots", "rounds", "violation")},
                }
    return out


def compare(a: dict, b: dict) -> dict:
    if a.keys() != b.keys():
        raise SystemExit("the two records hold different trials")
    differing_histograms, differing_atoms, changed, status_changed, not_optimal = [], [], [], [], []
    weight_diff = objective_diff = 0.0
    for key, x in a.items():
        y = b[key]
        if x["histogram"] != y["histogram"]:
            differing_histograms.append(key)
        objective_diff = max(objective_diff, abs(x["objective"] - y["objective"]))
        if x["atoms"] != y["atoms"]:
            differing_atoms.append(key)
        else:
            weight_diff = max([weight_diff, *(abs(u - v) for u, v in zip(x["weights"], y["weights"]))])
        if (x["pivots"], x["rounds"]) != (y["pivots"], y["rounds"]):
            changed.append({"trial": key, "pivots": [x["pivots"], y["pivots"]], "rounds": [x["rounds"], y["rounds"]]})
        if x["status"] != y["status"]:
            status_changed.append({"trial": key, "status": [x["status"], y["status"]]})
        if x["status"] != "optimal" or y["status"] != "optimal":
            not_optimal.append({"trial": key, "status": [x["status"], y["status"]]})
    return {
        "trials": len(a),
        "differing_histogram_trials": differing_histograms,
        "differing_atom_sets": len(differing_atoms),
        "differing_atom_trials": differing_atoms,
        "max_weight_diff": weight_diff,
        "max_objective_diff": objective_diff,
        "status_changed": status_changed,
        "not_optimal": not_optimal,
        "pivots_or_rounds_changed": changed,
    }


def differs(summary: dict) -> bool:
    """Whether a `compare` summary shows any trial that is not identical."""
    return bool(
        summary["differing_histogram_trials"] or summary["differing_atom_trials"] or summary["max_weight_diff"]
        or summary["max_objective_diff"] or summary["status_changed"] or summary["pivots_or_rounds_changed"]
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(path.read_text()) for path in args.compare)
        summary = compare(a, b)
        print(json.dumps(summary, indent=1))
        return int(differs(summary))
    elif args.src and args.out:
        args.out.write_text(json.dumps(record(args.src)) + "\n")
    else:
        parser.error("give --src and --out, or --compare A B")
    return 0


if __name__ == "__main__":
    sys.exit(main())
