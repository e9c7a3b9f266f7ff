"""Experiment configurations, benchmark loops, and exact desk-scale checks."""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

# profile_probability_many is called as core.profile_probability_many, so
# the benchmark's trace, which hooks that name, sees each call
from . import core
from .core import (
    EXACT_SCALE_N,
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
# good_set is not called here; it stays importable because the benchmark's
# trace hooks the name harness.good_set
from .pml import PML_K_CAP, brute_force_pml, good_profiles, good_set, min_prob_round  # noqa: F401
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
# interval constant of the estimator scheme in the competitive check; n <= 12
# there, so ExperimentConfig's c1 (sized for n in the thousands) is not used
COMPETITIVE_C1 = 1.0


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    k: int
    dist: str = "uniform"
    trials: int = 1
    seed: int = 0
    eps: float = 0.1
    delta: float = 1.0  # read by nothing; perfbench passes 0.1 and competitive.json echoes it
    c1: float = DEFAULT_C1
    c2: float = DEFAULT_C2
    sampling: str = "poissonized"

    def __post_init__(self):
        if self.trials < 1:
            raise DomainError("trials must be >= 1")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise DomainError(f"eps must be a finite number > 0, not {self.eps!r}")
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

    def __post_init__(self):
        if not 0.0 <= self.error <= 2.0 + 1e-9:
            raise DomainError(f"sorted-l1 error {self.error!r} outside [0, 2]")


def make_distribution(dist: str, k: int) -> DiscreteDistribution:
    """Named source families for experiments."""
    if k < 1:
        raise DomainError("k must be at least 1")
    if dist == "uniform":
        return DiscreteDistribution(np.full(k, 1.0 / k))
    if dist.startswith("zipf"):
        try:
            s = float(dist.split(":", 1)[1]) if ":" in dist else 1.0
        except ValueError:
            raise DomainError(f"zipf exponent in {dist!r} is not a number") from None
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
        path = dist.split(":", 1)[1]
        try:
            masses = np.asarray(json.loads(Path(path).read_text()), dtype=float)
        except (OSError, ValueError, TypeError) as exc:
            raise DomainError(f"cannot read masses from {path!r}: {exc}") from None
        return DiscreteDistribution(masses)
    raise DomainError(f"unknown distribution family {dist!r}")


def wilson_interval(successes: int, total: int) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion."""
    if total == 0:
        return 0.0, 1.0
    z = 1.96
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
        res = estimate_sorted_distribution(h, config.k, scheme, c2=config.c2)
        lmm_err = config.k * w1(res.measure, mu_p)
        records.append(TrialRecord(trial, "lmm", lmm_err, res.objective_value))
        emp_err = sorted_l1_vectors(h.counts / config.n, p.masses)
        records.append(TrialRecord(trial, "empirical", emp_err, 0.0))
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


def run_competitive_check(config: ExperimentConfig) -> dict:
    """Exact failure accounting of the profile-likelihood plug-in at tiny n.

    Enumerates every profile, computes its grid-certified likelihood
    maximizer and the minimum-mass rounding, builds the good set of the
    moment-matching estimator, and reports the exact plug-in failure
    probability next to the classical and chained reference curves (the
    curves are bounds, not predictions).
    """
    n, k = config.n, config.k
    if n > EXACT_SCALE_N:
        raise ResourceLimitError(f"competitive check capped at n <= {EXACT_SCALE_N}")
    if k > PML_K_CAP:
        raise ResourceLimitError(f"competitive check capped at k <= {PML_K_CAP}")
    p = make_distribution(config.dist, config.k)
    scheme = build_scheme(n, COMPETITIVE_C1, "estimator")

    def estimator(phi):
        parts = phi.parts()
        h = Histogram(np.asarray(parts + (0,) * (k - len(parts)), dtype=np.int64))
        return estimate_sorted_distribution(h, k, scheme, c2=config.c2).measure

    def loss(measure, q):
        return q.k * w1(measure, measure_of(q))

    eps = config.eps
    profiles = enumerate_profiles(n)
    probs = [profile_probability(p, phi) for phi in profiles]
    good = good_profiles(estimator, p, eps, loss, profiles)
    good_keys = {tuple(g.phi.tolist()) for g in good}
    is_good = [tuple(phi.phi.tolist()) in good_keys for phi in profiles]
    # summed in profile order, as good_set sums it
    good_mass = sum(prob for prob, g in zip(probs, is_good) if g)
    delta_emp = 1.0 - good_mass

    eps_prime = 0.0
    rounded_good = []
    pml_rows = []
    for phi, prob, phi_good in zip(profiles, probs, is_good):
        pml, like = brute_force_pml(phi, k_max=k)
        rounded = min_prob_round(pml, phi)
        eps_prime = max(eps_prime, sorted_l1(pml, rounded))
        if phi_good:
            rounded_good.append(rounded.masses)
        pml_rows.append(
            {
                "profile": phi.to_sparse_json(),
                "probability": prob,
                "pml_masses": [float(x) for x in pml.masses],
                "pml_likelihood": like,
                "sorted_l1_to_truth": sorted_l1(pml, p),
            }
        )
    # the good mass of each good profile's rounded PML, one call per good
    # profile g; a column sums its values in g order
    indicator_sum = 0.0
    if good:
        rounded_rows = np.stack(rounded_good)
        by_g = np.asarray([core.profile_probability_many(rounded_rows, g) for g in good])
        good_probs = [prob for prob, g in zip(probs, is_good) if g]
        for column, prob in zip(by_g.T, good_probs):
            if sum(column.tolist()) <= delta_emp:
                indicator_sum += prob
    # eps_prime is a max over every profile, so this pass comes after
    direct_failure = 0.0
    for row in pml_rows:
        if row["sorted_l1_to_truth"] > 2 * eps + eps_prime:
            direct_failure += row["probability"]
    delta = max(delta_emp, 1e-12)
    c_small = 1.0 / 24.0
    curves = {
        "classical_bound_delta_exp_3_sqrt_n": delta * math.exp(3.0 * math.sqrt(n)),
        "chained_bound_delta_pow_exp_n13": delta ** (1 - c_small)
        * math.exp(n ** (1.0 / 3.0 + c_small)),
        "note": "reference bounds, not predictions",
    }
    return {
        "config": {**json.loads(config.to_json()), "c1": COMPETITIVE_C1},
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
        try:
            c = float(spec.split("@", 1)[1])
        except ValueError:
            raise DomainError(f"kink in {spec!r} is not a number") from None
        if not math.isfinite(c):
            raise DomainError(f"kink in {spec!r} is not finite")
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
        xs = (0.25, 0.5)
        glued, plain = evaluate(poly, xs).tolist(), evaluate(naive, xs).tolist()
        comparisons = {
            str(x): {"glued_error": abs(g - f(x)), "naive_error": abs(b - f(x))}
            for x, g, b in zip(xs, glued, plain)
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
    for j, b in enumerate(poly.coeffs.tolist()):
        fv = f(j / n)
        buf.write(f"{j},{b!r},{fv!r},{b - fv!r}\n")
    return buf.getvalue()


def error_curve_to_csv(poly, f) -> str:
    buf = io.StringIO()
    buf.write("x,f,approx,abs_error,weighted_error\n")
    n = poly.n
    xs = np.linspace(0.0, 1.0, 257)
    for x, Fx in zip(xs.tolist(), evaluate(poly, xs).tolist()):
        fx = f(x)
        weight = math.sqrt(max(x, 1.0 / n) / (n * math.log(n)))
        buf.write(f"{x!r},{fx!r},{Fx!r},{abs(fx - Fx)!r},{abs(fx - Fx) / weight!r}\n")
    return buf.getvalue()
