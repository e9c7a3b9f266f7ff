"""Experiment configurations, benchmark loops, and exact desk-scale checks."""

from __future__ import annotations

import functools
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
    ProfileBatch,
    enumerate_profiles,
    measure_of,
    sorted_l1,
    sorted_l1_vectors,
)
from .errors import DomainError, ResourceLimitError
from .intervals import DEFAULT_C1, build_scheme
from .lmm import estimate_sorted_distribution
from .moments import DEFAULT_C2
# good_set is not called here; it stays importable because the benchmark's
# trace hooks the name harness.good_set
from .pml import PML_K_CAP, brute_force_pml, good_set, min_prob_round  # noqa: F401
from .poisson_approx import (
    DEFAULT_APPROX_C1,
    DEFAULT_APPROX_C2,
    build_poisson_approximation,
    evaluate,
    naive_coefficients,
    verify_bounds,
)
from .sampling import sample_iid, sample_poissonized, substream
from .wasserstein import MeasureBatch, w1, w1_many

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
# relative tolerance above 2 eps + eps_prime before a PML counts as a direct
# failure: PMLs that sit exactly on the bound (for instance sorted l1 1.2 at
# eps = 0.6) read it give or take the last bit of their sorted l1
COMPETITIVE_FAILURE_RTOL = 1e-12


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
        p = DiscreteDistribution(masses)
        if p.k != k:
            raise DomainError(f"{path!r} holds {p.k} masses, not k = {k}")
        return p
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


class DeskTable:
    """The part of the competitive check at (n, k, c2) that depends on
    neither p nor eps, every array read-only: the profiles of n in
    enumeration order, their `ProfileBatch` on k symbols and their sparse
    JSON, each profile's PML masses (as float tuples, and as the rows of
    `sorted_pml` in ascending order) and likelihood, its minimum-mass
    rounding (the rows of `rounded`) and eps' (the largest sorted l1
    between a PML and its rounding), the estimator's measure of each
    profile, packed as the `MeasureBatch` `measures` that a pass scores
    against p with one `w1_many` call, and R[g, phi] = P(rounded PML(phi), g).

    R is one `core.profile_probability_many` call of the batch over every
    rounded row.  The DP keeps rows and profiles apart, so each entry has
    the bytes of a call for its one profile and the same rows.  The
    estimator's scheme (n at COMPETITIVE_C1) is built first, so an n it
    rejects raises its error before any work.
    """

    def __init__(self, n: int, k: int, c2: float):
        scheme = build_scheme(n, COMPETITIVE_C1, "estimator")
        self.n, self.k, self.c2 = n, k, c2
        self.profiles = tuple(enumerate_profiles(n))
        self.batch = ProfileBatch(self.profiles, k)
        self.profile_json = tuple(phi.to_sparse_json() for phi in self.profiles)
        measures, pml_masses, likelihoods, rounded = [], [], [], []
        # all the LPs, then all the PMLs: alternating the two made a cold
        # build about 4% slower at n = 8, k = 4 on 2 shared cores
        for phi in self.profiles:
            phi.phi.flags.writeable = False
            parts = phi.parts()
            h = Histogram(np.asarray(parts + (0,) * (k - len(parts)), dtype=np.int64))
            measures.append(estimate_sorted_distribution(h, k, scheme, c2=c2).measure)
        eps_prime = 0.0
        for phi in self.profiles:
            pml, like = brute_force_pml(phi, k_max=k)
            rounded_pml = min_prob_round(pml, phi)
            eps_prime = max(eps_prime, sorted_l1(pml, rounded_pml))
            pml_masses.append(tuple(pml.masses.tolist()))
            likelihoods.append(like)
            rounded.append(rounded_pml.masses)
        self.measures = MeasureBatch(measures)
        self.pml_masses = tuple(pml_masses)
        self.sorted_pml = np.sort(np.asarray(pml_masses), axis=1)
        self.sorted_pml.flags.writeable = False
        self.pml_likelihoods = tuple(likelihoods)
        self.eps_prime = eps_prime
        self.rounded = np.stack(rounded)
        self.rounded.flags.writeable = False
        self.R = core.profile_probability_many(self.rounded, self.batch)
        self.R.flags.writeable = False


@functools.lru_cache(maxsize=1, typed=True)
def _desk_table(n: int, k: int, c2: float) -> DeskTable:
    """The `DeskTable` of (n, k, c2), kept until a check at another three;
    each matches by type and value, so a hit is the table they would build."""
    return DeskTable(n, k, c2)


def run_competitive_check(config: ExperimentConfig) -> dict:
    """Exact failure accounting of the profile-likelihood plug-in at tiny n.

    Enumerates every profile, computes its grid-certified likelihood
    maximizer and the minimum-mass rounding, builds the good set of the
    moment-matching estimator, and reports the exact plug-in failure
    probability next to the classical and chained reference curves (the
    curves are bounds, not predictions).

    All of that but the probabilities under p, the good set and the sums
    over it depends on (n, k, c2) alone and is a `DeskTable`, built once
    and kept by `_desk_table` until a check at another (n, k, c2): a sweep
    over families and eps at one (n, k, c2) builds one table.  The caps and
    the family are checked on every call.  A pass over a kept table makes
    one `core.profile_probability_many` call, for every profile under p,
    and finds the good set with one `w1_many` call, from the table's
    `MeasureBatch` of estimator measures to p's measure.
    """
    n, k, c2 = config.n, config.k, config.c2
    if n > EXACT_SCALE_N:
        raise ResourceLimitError(f"competitive check capped at n <= {EXACT_SCALE_N}")
    if k > PML_K_CAP:
        raise ResourceLimitError(f"competitive check capped at k <= {PML_K_CAP}")
    p = make_distribution(config.dist, k)
    table = _desk_table(n, k, c2)

    mu_p = measure_of(p)
    eps = config.eps
    probs = core.profile_probability_many(p.masses[None, :], table.batch)[:, 0].tolist()
    # in profile order, so the sums over the good set add in that order
    good_idx = np.flatnonzero(k * w1_many(table.measures, mu_p) <= eps).tolist()
    good_mass = sum(probs[i] for i in good_idx)
    delta_emp = 1.0 - good_mass

    # the good mass of each good profile's rounded PML: a column of R's
    # good x good block, summed in g order
    indicator_sum = 0.0
    for i, column in zip(good_idx, table.R[np.ix_(good_idx, good_idx)].T):
        if sum(column.tolist()) <= delta_emp:
            indicator_sum += probs[i]
    direct_failure = 0.0
    bound = 2 * eps + table.eps_prime
    pml_rows = []
    to_truths = np.abs(table.sorted_pml - np.sort(p.masses)).sum(axis=1).tolist()
    rows = zip(table.profile_json, probs, table.pml_masses, table.pml_likelihoods, to_truths)
    for text, prob, masses, like, to_truth in rows:
        if to_truth - bound > COMPETITIVE_FAILURE_RTOL * bound:
            direct_failure += prob
        pml_rows.append(
            {
                "profile": text,
                "probability": prob,
                "pml_masses": list(masses),
                "pml_likelihood": like,
                "sorted_l1_to_truth": to_truth,
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
        "config": {**json.loads(config.to_json()), "c1": COMPETITIVE_C1},
        "eps": eps,
        "eps_prime": table.eps_prime,
        "good_set_size": len(good_idx),
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
