"""The benchmark's workloads: inputs, one operation each, and its output checks.

Every workload is a closed loop of identical operations from one process.
An operation returns a deterministic record (written to the results file)
and the list of problems its output check found; an empty list means the
output is correct.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import fmean

import numpy as np

from sortdist import core, harness, lmm, pml, poisson_approx
from sortdist.core import AtomicMeasure, Profile, measure_of, sorted_l1_vectors
from sortdist.harness import ExperimentConfig, make_distribution, run_approx_sweep, run_competitive_check
from sortdist.intervals import DEFAULT_C1, build_scheme
from sortdist.lmm import EstimateResult, estimate_sorted_distribution
from sortdist.sampling import sample_poissonized, substream
from sortdist.wasserstein import w1

MASS_TOL = 1e-9


def implied_total_probability(measure: AtomicMeasure, k: int) -> float:
    """k * sum(x * w): the total probability the estimate's atoms account for."""
    return k * float(measure.locations @ measure.weights)


def check_estimate(res: EstimateResult, error: float) -> list[str]:
    """Problems with one sorted-distribution estimate and its k*W1 error."""
    m = res.measure
    problems = []
    if abs(m.total_mass - 1.0) > MASS_TOL:
        problems.append(f"total mass {m.total_mass!r} is not 1")
    if m.locations.size and (m.locations.min() < 0.0 or m.locations.max() > 1.0):
        problems.append("atom outside [0, 1]")
    if np.any(m.weights < 0.0):
        problems.append("negative weight")
    if res.solver_status != "optimal":
        problems.append(f"solver status {res.solver_status!r}")
    if not 0.0 <= error <= 2.0:
        problems.append(f"error {error!r} outside [0, 2]")
    return problems


def check_pml_masses(masses: list[float]) -> list[str]:
    problems = []
    if any(a < b for a, b in zip(masses, masses[1:])):
        problems.append(f"PML masses {masses} not sorted")
    if abs(sum(masses) - 1.0) > MASS_TOL:
        problems.append(f"PML masses {masses} do not sum to 1")
    return problems


@dataclass(frozen=True)
class LmmWorkload:
    """Trials of the estimator-versus-plug-in benchmark loop.

    Operation i samples family i mod len(families) on substream(seed, i),
    estimates, and scores k*W1 against the true sorted measure together
    with the plug-in's sorted l1 error.
    """

    name: str
    families: tuple[str, ...]
    n: int = 10_000
    k: int = 5000
    min_ops: int = 40

    def prepare(self):
        scheme = build_scheme(self.n, DEFAULT_C1, "estimator")
        sources = {}
        for fam in self.families:
            p = make_distribution(fam, self.k)
            rates = np.unique(self.n * p.masses[p.masses > 0]).size
            sources[fam] = (p, measure_of(p), rates)
        return scheme, sources

    def op(self, inputs, seed: int, i: int, tracer):
        scheme, sources = inputs
        fam = self.families[i % len(self.families)]
        p, mu_p, rates = sources[fam]
        with tracer.span("sampling"):
            h = sample_poissonized(p, self.n, substream(seed, i))
        tracer.count("sampling.distinct_rates", rates)
        with tracer.span("lmm.estimate"):
            res = estimate_sorted_distribution(h, self.k, scheme)
        with tracer.span("wasserstein"):
            error = self.k * w1(res.measure, mu_p)
        plugin = sorted_l1_vectors(h.counts / self.n, p.masses)
        record = {
            "op": i,
            "family": fam,
            "error": error,
            "plugin_error": plugin,
            "objective": res.objective_value,
            "status": res.solver_status,
            "atoms": int(res.measure.locations.size),
            "total_mass": res.measure.total_mass,
            # the zero-completion atom sits at 0, so this is the LP atoms' value
            "implied_total_probability": implied_total_probability(res.measure, self.k),
        }
        return record, check_estimate(res, error)

    @staticmethod
    def quality(records: list[dict]) -> dict:
        return {
            "error_mean": fmean(r["error"] for r in records),
            "error_ratio_vs_plugin": fmean(r["error"] for r in records)
            / fmean(r["plugin_error"] for r in records),
            "mass_gap_max": max(abs(1.0 - r["implied_total_probability"]) for r in records),
        }


@dataclass(frozen=True)
class ApproxWorkload:
    """The Poisson polynomial approximation sweep; it never touches the LP.

    The inputs are fixed, so every operation is the same and the seed is
    not used.
    """

    name: str
    f: str = "abs"
    n_list: tuple[int, ...] = (1024, 4096, 16384)
    min_ops: int = 3

    def prepare(self):
        return None

    def op(self, inputs, seed: int, i: int, tracer):
        report = run_approx_sweep(self.f, list(self.n_list))["report"]
        problems = [f"support cut fails at n={r['n']}" for r in report["rows"] if not r["support_ok"]]
        return {"op": i, "report": report}, problems

    @staticmethod
    def quality(records: list[dict]) -> dict:
        rows = [row for r in records for row in r["report"]["rows"]]
        kink = [row["pointwise_vs_naive"]["0.5"] for row in rows]
        return {
            "error_mean": fmean(row["sup_weighted_error"] for row in rows),
            # the plain coefficients b_j = f(j/n) are this workload's plug-in
            "error_ratio_vs_plugin": fmean(c["glued_error"] for c in kink)
            / fmean(c["naive_error"] for c in kink),
        }


@dataclass(frozen=True)
class PmlWorkload:
    """Exact competitive checks of the profile-likelihood plug-in at tiny n.

    Operation i uses family i mod len(families).  The checks are exact
    enumerations, so the seed is not used.
    """

    name: str
    families: tuple[str, ...] = ("uniform", "two-level", "zipf:1")
    n: int = 8
    k: int = 4
    min_ops: int = 6

    def prepare(self):
        configs = {}
        for fam in self.families:
            cfg = ExperimentConfig(n=self.n, k=self.k, dist=fam, eps=0.6, delta=0.1, c2=1.0)
            configs[fam] = (cfg, make_distribution(fam, self.k))
        return configs

    def op(self, inputs, seed: int, i: int, tracer):
        fam = self.families[i % len(self.families)]
        cfg, p = inputs[fam]
        with tracer.span("pml.competitive"):
            out = run_competitive_check(cfg)
        rows, problems = [], []
        for row in out["pml"]:
            counts = np.asarray(Profile.from_sparse_json(row["profile"]).parts(), dtype=float)
            rows.append(
                {
                    "profile": row["profile"],
                    "pml_masses": row["pml_masses"],
                    "pml_likelihood": row["pml_likelihood"],
                    "sorted_l1_to_truth": row["sorted_l1_to_truth"],
                    "plugin_l1_to_truth": sorted_l1_vectors(counts / self.n, p.masses),
                }
            )
            problems += check_pml_masses(row["pml_masses"])
        keys = ("eps_prime", "good_set_size", "good_set_mass", "direct_failure_probability")
        record = {"op": i, "family": fam, **{key: out[key] for key in keys}, "rows": rows}
        return record, problems

    @staticmethod
    def quality(records: list[dict]) -> dict:
        rows = [row for r in records for row in r["rows"]]
        return {
            "error_mean": fmean(row["sorted_l1_to_truth"] for row in rows),
            # the profile's own frequencies are this workload's plug-in
            "error_ratio_vs_plugin": fmean(row["sorted_l1_to_truth"] for row in rows)
            / fmean(row["plugin_l1_to_truth"] for row in rows),
        }


WORKLOADS = {
    wl.name: wl
    for wl in (
        LmmWorkload("lmm-flat", ("uniform", "two-level"), min_ops=40),
        LmmWorkload("lmm-zipf", ("zipf:1",), min_ops=10),
        ApproxWorkload("approx-sweep"),
        PmlWorkload("pml-desk"),
    )
}


def _observe_lp(tracer, args, lp) -> None:
    tracer.count("lmm.lp_rows", lp.A.shape[0])
    tracer.count("lmm.lp_cols", lp.A.shape[1])
    tracer.count("lmm.lp_bytes", lp.A.nbytes + lp.b.nbytes + lp.c.nbytes)


def _observe_solution(tracer, args, res) -> None:
    tracer.count("lmm.atoms", res.measure.locations.size)
    tracer.count("lmm.mass_gap", abs(1.0 - implied_total_probability(res.measure, args[0].k)))


def _observe_simplex(tracer, args, res) -> None:
    tracer.count("simplex.pivots", res.pivots)
    tracer.count("simplex.nonoptimal", res.status != "optimal")


def _observe_moments(tracer, args, table) -> None:
    counts = args[0].counts
    tracer.count("moments.distinct_counts", np.unique(counts[counts > 0]).size)


def _observe_poly(tracer, args, poly) -> None:
    tracer.count("poisson_approx.coeffs", poly.coeffs.size)


def _observe_profile_rows(tracer, args, probs) -> None:
    tracer.count("pml.profile_prob_rows", np.asarray(probs).size)


# Every module attribute through which one layer calls the next.  Each
# wrapper calls the original function object, so a call that passes through
# two hooked names (pml's and core's profile_probability_many) is one span.
LAYER_HOOKS = [
    (lmm, "moment_table_estimate", "moments", _observe_moments),
    (lmm, "build_lp", "lmm.build", _observe_lp),
    (lmm, "solve_lp", "lmm.solve_lp", _observe_solution),
    (lmm, "simplex_solve", "simplex", _observe_simplex),
    (harness, "estimate_sorted_distribution", "lmm.estimate", None),
    (harness, "build_poisson_approximation", "poisson_approx.build", _observe_poly),
    (poisson_approx, "jackson_approx", "poisson_approx.jackson", None),
    (poisson_approx, "monomial_to_poisson", "poisson_approx.monomial_to_poisson", None),
    (poisson_approx, "glue", "poisson_approx.glue", None),
    (harness, "verify_bounds", "poisson_approx.verify", None),
    (poisson_approx, "evaluate", "poisson_approx.evaluate", None),
    (harness, "good_set", "pml.good_set", None),
    (harness, "brute_force_pml", "pml.brute_force", None),
    (harness, "min_prob_round", "pml.min_prob_round", None),
    (pml, "profile_probability_many", "pml.profile_prob", _observe_profile_rows),
    (core, "profile_probability_many", "pml.profile_prob", _observe_profile_rows),
]
