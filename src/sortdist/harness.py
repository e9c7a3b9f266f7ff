"""Experiment configurations, benchmark loops, and exact desk-scale checks."""

from __future__ import annotations

import io
import json
import math
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .core import (
    DiscreteDistribution,
    Histogram,
    enumerate_profiles,
    measure_of,
    profile_probability,
    sorted_l1,
    sorted_l1_vectors,
)
from .errors import DomainError, ResourceLimitError
from .intervals import DEFAULT_C1, build_scheme
from .lmm import estimate_sorted_distribution
from .moments import DEFAULT_C2
from .pml import brute_force_pml, good_set, min_prob_round
from .poisson_approx import (
    DEFAULT_APPROX_C1,
    DEFAULT_APPROX_C2,
    build_poisson_approximation,
    evaluate,
    naive_coefficients,
    verify_bounds,
)
from .sampling import sample_iid, sample_poissonized, substream
from .wasserstein import w1

__all__ = [
    "ExperimentConfig",
    "TrialRecord",
    "make_distribution",
    "run_benchmark",
    "run_competitive_check",
    "run_approx_sweep",
    "trials_to_csv",
    "wilson_interval",
]

BENCH_N_CAP = 10**6
BENCH_TRIALS_CAP = 10**3
COMPETITIVE_N_CAP = 8


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    k: int
    dist: str = "uniform"
    trials: int = 1
    seed: int = 0
    eps: float = 0.1
    delta: float = 1.0
    c1: float = DEFAULT_C1
    c2: float = DEFAULT_C2
    sampling: str = "poissonized"

    def __post_init__(self):
        if self.trials < 1:
            raise DomainError("trials must be >= 1")
        if self.eps <= 0:
            raise DomainError("eps must be > 0")
        if self.sampling not in ("poissonized", "iid"):
            raise DomainError("sampling must be poissonized or iid")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    estimator: str
    error: float
    objective: float
    wall_time: float = field(default=0.0, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.error <= 2.0 + 1e-9:
            raise DomainError(f"sorted-l1 error {self.error!r} outside [0, 2]")


def make_distribution(dist: str, k: int) -> DiscreteDistribution:
    """Named source families for experiments."""
    if dist == "uniform":
        return DiscreteDistribution(np.full(k, 1.0 / k))
    if dist.startswith("zipf"):
        s = float(dist.split(":", 1)[1]) if ":" in dist else 1.0
        w = 1.0 / np.arange(1, k + 1) ** s
        return DiscreteDistribution(w / w.sum())
    if dist == "two-level":
        heavy = max(1, k // 10)
        masses = np.full(k, 0.1 / max(k - heavy, 1))
        masses[:heavy] = 0.9 / heavy
        if k == heavy:
            masses = np.full(k, 1.0 / k)
        return DiscreteDistribution(masses / masses.sum())
    if dist == "point-mass":
        masses = np.zeros(k)
        masses[0] = 1.0
        return DiscreteDistribution(masses)
    if dist.startswith("file:"):
        payload = json.loads(Path(dist.split(":", 1)[1]).read_text())
        return DiscreteDistribution(np.asarray(payload, dtype=float))
    raise DomainError(f"unknown distribution family {dist!r}")


def wilson_interval(successes: int, total: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if total == 0:
        return 0.0, 1.0
    phat = successes / total
    denom = 1.0 + z * z / total
    center = (phat + z * z / (2 * total)) / denom
    half = z * math.sqrt(phat * (1 - phat) / total + z * z / (4 * total * total)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def run_benchmark(config: ExperimentConfig) -> tuple[list[TrialRecord], dict]:
    """Sorted-l1 error of the moment-matching estimator versus the plug-in.

    One interval scheme is shared across trials; each trial samples on its
    own substream, estimates, and scores k * W1 against the true multiset
    measure.
    """
    if config.n > BENCH_N_CAP or config.trials > BENCH_TRIALS_CAP:
        raise ResourceLimitError("benchmark capped at n <= 1e6, trials <= 1e3")
    p = make_distribution(config.dist, config.k)
    mu_p = measure_of(p)
    scheme = build_scheme(config.n, config.c1, "estimator")
    records: list[TrialRecord] = []
    for trial in range(config.trials):
        gen = substream(config.seed, trial)
        if config.sampling == "poissonized":
            h = sample_poissonized(p, config.n, gen)
        else:
            h = sample_iid(p, config.n, gen)
        t0 = time.perf_counter()
        res = estimate_sorted_distribution(h, config.k, scheme, c2=config.c2)
        lmm_time = time.perf_counter() - t0
        lmm_err = config.k * w1(res.measure, mu_p)
        records.append(TrialRecord(trial, "lmm", lmm_err, res.objective_value, lmm_time))
        t0 = time.perf_counter()
        emp_err = sorted_l1_vectors(h.counts / config.n, p.masses)
        records.append(TrialRecord(trial, "empirical", emp_err, 0.0, time.perf_counter() - t0))
    summary = summarize_benchmark(config, records)
    return records, summary


def summarize_benchmark(config: ExperimentConfig, records: list[TrialRecord]) -> dict:
    out: dict = {"config": json.loads(config.to_json()), "estimators": {}}
    for name in ("lmm", "empirical"):
        errs = np.asarray([r.error for r in records if r.estimator == name])
        if errs.size == 0:
            continue
        mean, median = float(errs.mean()), float(np.median(errs))
        tail_mean = int(np.sum(errs >= mean + config.eps))
        tail_med = int(np.sum(errs >= median + 0.05))
        out["estimators"][name] = {
            "mean": mean,
            "median": median,
            "max": float(errs.max()),
            "tail_mean_eps": {
                "count": tail_mean,
                "frequency": tail_mean / errs.size,
                "wilson95": list(wilson_interval(tail_mean, errs.size)),
            },
            "tail_median_005": {
                "count": tail_med,
                "frequency": tail_med / errs.size,
                "wilson95": list(wilson_interval(tail_med, errs.size)),
            },
        }
    if "lmm" in out["estimators"] and "empirical" in out["estimators"]:
        out["mean_ratio_lmm_over_empirical"] = (
            out["estimators"]["lmm"]["mean"] / out["estimators"]["empirical"]["mean"]
        )
    return out


def trials_to_csv(records: list[TrialRecord]) -> str:
    """Canonical trial CSV; timings stay out so reruns are byte-identical."""
    buf = io.StringIO()
    buf.write("trial,estimator,error,objective\n")
    for r in records:
        buf.write(f"{r.trial},{r.estimator},{r.error!r},{r.objective!r}\n")
    return buf.getvalue()


def _profile_to_histogram(phi, k: int) -> Histogram:
    counts = []
    for i in range(phi.n, 0, -1):
        counts.extend([i] * int(phi.phi[i - 1]))
    if len(counts) > k:
        k = len(counts)
    counts = counts + [0] * (k - len(counts))
    return Histogram(np.asarray(counts, dtype=np.int64))


def run_competitive_check(config: ExperimentConfig) -> dict:
    """Exact failure accounting of the profile-likelihood plug-in at tiny n.

    Enumerates every profile, computes its grid-certified likelihood
    maximizer and the minimum-mass rounding, builds the good set of the
    moment-matching estimator, and reports the exact plug-in failure
    probability next to the classical and chained reference curves (the
    curves are bounds, not predictions).
    """
    n, k = config.n, config.k
    if n > COMPETITIVE_N_CAP:
        raise ResourceLimitError(f"competitive check capped at n <= {COMPETITIVE_N_CAP}")
    if k > 5:
        raise ResourceLimitError("competitive check capped at k <= 5")
    p = make_distribution(config.dist, config.k)
    mu_p = measure_of(p)
    scheme = build_scheme(n, 1.0, "estimator")

    def estimator(phi):
        h = _profile_to_histogram(phi, k)
        return estimate_sorted_distribution(h, k, scheme, c2=config.c2).measure

    def loss(measure, q):
        return q.k * w1(measure, measure_of(q))

    eps = config.eps
    good, good_mass = good_set(estimator, p, eps, loss, n)
    delta_emp = 1.0 - good_mass

    profiles = enumerate_profiles(n)
    good_keys = {tuple(g.phi.tolist()) for g in good}
    prepared = []
    eps_prime = 0.0
    for phi in profiles:
        prob = profile_probability(p, phi)
        pml, like = brute_force_pml(phi, k_max=min(k, 5))
        rounded = min_prob_round(pml, phi)
        eps_prime = max(eps_prime, sorted_l1(pml, rounded))
        d = sorted_l1(pml.padded(max(k, pml.k)), p.padded(max(k, pml.k)))
        prepared.append((phi, prob, pml, like, rounded, d))

    direct_failure = 0.0
    indicator_sum = 0.0
    pml_rows = []
    for phi, prob, pml, like, rounded, d in prepared:
        if d > 2 * eps + eps_prime:
            direct_failure += prob
        if tuple(phi.phi.tolist()) in good_keys:
            rounded_good_mass = sum(profile_probability(rounded, g) for g in good)
            if rounded_good_mass <= delta_emp:
                indicator_sum += prob
        pml_rows.append(
            {
                "profile": phi.to_sparse_json(),
                "probability": prob,
                "pml_masses": [float(x) for x in pml.masses],
                "pml_likelihood": like,
                "sorted_l1_to_truth": d,
            }
        )
    delta = max(delta_emp, 1e-12)
    c_small = 1.0 / 24.0
    curves = {
        "classical_bound_delta_exp_3_sqrt_n": delta * math.exp(3.0 * math.sqrt(n)),
        "chained_bound_delta_pow_exp_n13": delta ** (1 - c_small)
        * math.exp(n ** (1.0 / 3.0 + c_small)),
        "note": "reference bounds, not predictions",
    }
    return {
        "config": json.loads(config.to_json()),
        "eps": eps,
        "eps_prime": eps_prime,
        "good_set_size": len(good),
        "good_set_mass": good_mass,
        "delta_empirical": delta_emp,
        "direct_failure_probability": direct_failure,
        "indicator_bound_term": indicator_sum + delta_emp,
        "curves": curves,
        "pml": pml_rows,
    }


_NAMED_FUNCTIONS = {
    "abs": lambda x: abs(x - 0.5),
    "identity": lambda x: x,
    "zero": lambda x: 0.0,
}


def parse_function(spec: str):
    """Named 1-Lipschitz targets: abs, abs@<kink>, identity, zero."""
    if spec in _NAMED_FUNCTIONS:
        return _NAMED_FUNCTIONS[spec]
    if spec.startswith("abs@"):
        c = float(spec.split("@", 1)[1])
        return lambda x: abs(x - c)
    raise DomainError(f"unknown function spec {spec!r}")


def run_approx_sweep(
    f_spec: str,
    n_list: list[int],
    eps: float = 0.5,
    delta: float = 1.0,
    c1: float = DEFAULT_APPROX_C1,
    c2: float = DEFAULT_APPROX_C2,
) -> dict:
    """Build the glued approximation per n and collect its measured bounds."""
    if max(n_list) > 2**16:
        raise ResourceLimitError("sweep capped at n <= 2^16")
    f = parse_function(f_spec)
    rows = []
    per_n = {}
    for n in n_list:
        poly = build_poisson_approximation(f, n, delta=delta, c1=c1, c2=c2)
        rep = verify_bounds(poly, f, eps=eps)
        naive = naive_coefficients(f, n, delta)
        comparisons = {}
        for x in (0.25, 0.5):
            comparisons[str(x)] = {
                "glued_error": abs(evaluate(poly, x) - f(x)),
                "naive_error": abs(evaluate(naive, x) - f(x)),
            }
        rows.append(
            {
                "n": n,
                "sup_weighted_error": rep.sup_weighted_error,
                "sup_error": rep.sup_error,
                "max_coeff_deviation": rep.max_coeff_deviation,
                "max_abs_coeff": rep.max_abs_coeff,
                "support_ok": rep.support_ok,
                "pointwise_vs_naive": comparisons,
            }
        )
        per_n[n] = (poly, naive)
    weighted = [r["sup_weighted_error"] for r in rows]
    report = {
        "f": f_spec,
        "eps": eps,
        "delta": delta,
        "rows": rows,
        "weighted_error_spread": max(weighted) / max(min(weighted), 1e-300),
        "coeff_constant": max(r["max_coeff_deviation"] for r in rows),
        "max_abs_coeff": max(r["max_abs_coeff"] for r in rows),
    }
    return {"report": report, "objects": per_n}


def coefficients_to_csv(poly, f) -> str:
    buf = io.StringIO()
    buf.write("j,b_j,f_at_j_over_n,deviation\n")
    n = poly.n
    for j, b in enumerate(poly.coeffs):
        fv = f(j / n)
        buf.write(f"{j},{b!r},{fv!r},{b - fv!r}\n")
    return buf.getvalue()


def error_curve_to_csv(poly, f, points: int = 257) -> str:
    buf = io.StringIO()
    buf.write("x,f,approx,abs_error,weighted_error\n")
    n = poly.n
    for x in np.linspace(0.0, 1.0, points):
        fx, Fx = f(float(x)), evaluate(poly, float(x))
        weight = math.sqrt(max(x, 1.0 / n) / (n * math.log(n)))
        buf.write(f"{x!r},{fx!r},{Fx!r},{abs(fx - Fx)!r},{abs(fx - Fx) / weight!r}\n")
    return buf.getvalue()
