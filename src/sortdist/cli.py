"""Command-line interface.

Subcommands: estimate (histogram file -> measure JSON), benchmark,
competitive, approx, and pml.  Output files are a pure function of the
flags and seed; timings go to stderr only.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .core import Histogram, Profile, profile_of_histogram
from .harness import (
    ExperimentConfig,
    coefficients_to_csv,
    error_curve_to_csv,
    parse_function,
    run_approx_sweep,
    run_benchmark,
    run_competitive_check,
    trials_to_csv,
)
from .intervals import DEFAULT_C1, build_scheme
from .lmm import estimate_sorted_distribution
from .moments import DEFAULT_C2
from .pml import brute_force_pml
from .poisson_approx import DEFAULT_APPROX_C1, DEFAULT_APPROX_C2


def _read_histogram(path: str) -> Histogram:
    counts = [int(line) for line in Path(path).read_text().split() if line.strip()]
    return Histogram(np.asarray(counts, dtype=np.int64))


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _cmd_estimate(args) -> int:
    h = _read_histogram(args.histogram)
    k = args.k or h.k
    n = args.n or h.n
    scheme = build_scheme(n, args.c1, "estimator")
    t0 = time.perf_counter()
    res = estimate_sorted_distribution(h, k, scheme, c2=args.c2)
    print(f"estimate: {time.perf_counter() - t0:.3f}s status={res.solver_status}", file=sys.stderr)
    _write(Path(args.out), res.to_json() + "\n")
    return 0


def _cmd_benchmark(args) -> int:
    config = ExperimentConfig(
        n=args.n, k=args.k, dist=args.dist, trials=args.trials, seed=args.seed,
        eps=args.eps, delta=args.delta, c1=args.c1, c2=args.c2, sampling=args.sampling,
    )
    t0 = time.perf_counter()
    records, summary = run_benchmark(config)
    print(f"benchmark: {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    out = Path(args.out)
    _write(out / "trials.csv", trials_to_csv(records))
    _write(out / "summary.json", json.dumps(summary, sort_keys=True, indent=1) + "\n")
    return 0


def _cmd_competitive(args) -> int:
    config = ExperimentConfig(
        n=args.n, k=args.k, dist=args.dist, seed=args.seed, eps=args.eps,
        delta=args.delta, c2=args.c2,
    )
    report = run_competitive_check(config)
    _write(Path(args.out) / "competitive.json", json.dumps(report, sort_keys=True, indent=1) + "\n")
    return 0


def _cmd_approx(args) -> int:
    n_list = [int(x) for x in args.n_list.split(",")]
    t0 = time.perf_counter()
    result = run_approx_sweep(
        args.f, n_list, eps=args.eps, delta=args.delta, c1=args.c1, c2=args.c2
    )
    print(f"approx sweep: {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    out = Path(args.out)
    _write(out / "approx_summary.json", json.dumps(result["report"], sort_keys=True, indent=1) + "\n")
    f = parse_function(args.f)
    for n, (poly, _naive) in result["objects"].items():
        _write(out / f"coefficients_n{n}.csv", coefficients_to_csv(poly, f))
        _write(out / f"errors_n{n}.csv", error_curve_to_csv(poly, f))
    return 0


def _parse_profile(text: str) -> Profile:
    text = text.strip()
    if text.startswith("{"):
        return Profile.from_sparse_json(text)
    raw = [int(x) for x in text.split(",")]
    n = sum((i + 1) * c for i, c in enumerate(raw))
    phi = np.zeros(n, dtype=np.int64)
    phi[: len(raw)] = raw
    return Profile(phi, n)


def _cmd_pml(args) -> int:
    if args.profile:
        phi = _parse_profile(args.profile)
    else:
        phi = profile_of_histogram(_read_histogram(args.histogram))
    pml, like = brute_force_pml(phi, k_max=args.kmax, grid_resolution=args.resolution)
    payload = {
        "profile": json.loads(phi.to_sparse_json()),
        "pml_masses": [float(x) for x in pml.masses],
        "certified_likelihood_lower_bound": like,
        "kmax": args.kmax,
        "grid_resolution": args.resolution,
    }
    _write(Path(args.out), json.dumps(payload, sort_keys=True, indent=1) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sortdist",
        description="Sorted-distribution estimation and its supporting numerics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate the sorted mass multiset from a histogram file")
    est.add_argument("histogram", help="newline-separated counts")
    est.add_argument("--k", type=int, default=0, help="support size (default: lines in file)")
    est.add_argument("--n", type=int, default=0, help="nominal sample size (default: sum of counts)")
    est.add_argument("--c1", type=float, default=DEFAULT_C1)
    est.add_argument("--c2", type=float, default=DEFAULT_C2)
    est.add_argument("--out", required=True)
    est.set_defaults(func=_cmd_estimate)

    bench = sub.add_parser("benchmark", help="estimator vs empirical over seeded trials")
    bench.add_argument("--n", type=int, required=True)
    bench.add_argument("--k", type=int, required=True)
    bench.add_argument("--dist", default="uniform")
    bench.add_argument("--trials", type=int, default=20)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--eps", type=float, default=0.1)
    bench.add_argument("--delta", type=float, default=1.0)
    bench.add_argument("--c1", type=float, default=DEFAULT_C1)
    bench.add_argument("--c2", type=float, default=DEFAULT_C2)
    bench.add_argument("--sampling", choices=["poissonized", "iid"], default="poissonized")
    bench.add_argument("--out", required=True)
    bench.set_defaults(func=_cmd_benchmark)

    comp = sub.add_parser("competitive", help="exact plug-in failure accounting at tiny n")
    comp.add_argument("--n", type=int, default=6)
    comp.add_argument("--k", type=int, default=3)
    comp.add_argument("--dist", default="uniform")
    comp.add_argument("--seed", type=int, default=0)
    comp.add_argument("--eps", type=float, default=0.5)
    comp.add_argument("--delta", type=float, default=0.1)
    comp.add_argument("--c2", type=float, default=1.0, help="deeper moments than the benchmark default; n is tiny here")
    comp.add_argument("--out", required=True)
    comp.set_defaults(func=_cmd_competitive)

    approx = sub.add_parser("approx", help="Poisson approximation sweep over n")
    approx.add_argument("--f", default="abs", help="abs | abs@<kink> | identity | zero")
    approx.add_argument("--n-list", default="1024,4096,16384")
    approx.add_argument("--eps", type=float, default=0.5)
    approx.add_argument("--delta", type=float, default=1.0)
    approx.add_argument("--c1", type=float, default=DEFAULT_APPROX_C1)
    approx.add_argument("--c2", type=float, default=DEFAULT_APPROX_C2)
    approx.add_argument("--out", required=True)
    approx.set_defaults(func=_cmd_approx)

    pml = sub.add_parser("pml", help="brute-force profile maximum likelihood")
    group = pml.add_mutually_exclusive_group(required=True)
    group.add_argument("--profile", help='comma multiplicities "2,0,1" or sparse JSON')
    group.add_argument("--histogram", help="newline-separated counts file")
    pml.add_argument("--kmax", type=int, default=5)
    pml.add_argument("--resolution", type=int, default=60)
    pml.add_argument("--out", required=True)
    pml.set_defaults(func=_cmd_pml)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
