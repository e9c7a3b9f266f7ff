"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from sortdist.core import (
    AtomicMeasure,
    DiscreteDistribution,
    Histogram,
    ProfileBatch,
    desk_profiles,
    measure_of,
    poisson_pmf,
    profile_of_histogram,
    profile_probability,
    profile_probability_many,
    sorted_l1,
)
from sortdist.harness import ExperimentConfig, run_benchmark
from sortdist.intervals import DEFAULT_C1, build_scheme, worst_case_localization
from sortdist.moments import degree_for, g_eval, g_family
from sortdist.pml import (
    QuantGrid,
    brute_force_pml,
    chain_params,
    chi_m_log,
    chi_m_poisson,
    chi_m_poisson_brute,
    covering_constants,
    is_close,
    min_prob_round,
    quantize_to_grid,
)
from sortdist.poisson_approx import (
    build_poisson_approximation,
    evaluate,
    naive_coefficients,
    verify_bounds,
)
from sortdist.sampling import sample_poissonized, substream
from sortdist.wasserstein import dual_value, optimal_witness, w1
from sortdist.cli import main as cli_main


def verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def random_dist(rng, k):
    m = rng.random(k) + 1e-3
    return DiscreteDistribution(m / m.sum())


def test_c01_charlier_recurrence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 31))
        c = float(rng.uniform(0, 1))
        z = float(rng.uniform(0, 1))
        n = int(rng.integers(32, 5001))
        lhs = g_eval(d, c, z + 2.0 / n, n) - g_eval(d, c, z, n)
        rhs = (2.0 * d / n) * g_eval(d - 1, c, z, n)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    elapsed = time.perf_counter() - t0
    verdict(
        "criterion 1 (kernel forward-difference identity)",
        worst <= 1e-9 and elapsed < 1.0,
        f"worst relative error {worst:.2e} over 1000 draws in {elapsed:.2f}s",
    )


def test_c02_moment_unbiasedness():
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    # half-sample expectation of the raw kernel equals the shifted power
    worst_a = 0.0
    for _ in range(60):
        n = int(rng.integers(64, 5001))
        scheme = build_scheme(n, 8.0, "estimator")
        depth = max(degree_for(n), 8)
        m = int(rng.integers(1, scheme.M + 1))
        i = m - 1
        lo = max(float(scheme.tilde_left[i]), 0.0)
        hi = min(float(scheme.tilde_right[i]), 1.0)
        if hi <= lo:
            continue
        p = float(rng.uniform(lo, hi))
        c = float(scheme.centers[i])
        d = int(rng.integers(1, depth + 1))
        lam = n * p / 2.0
        hw = 60.0 * math.sqrt(lam + 1.0) + 80.0
        t = np.arange(max(0, int(lam - hw)), int(lam + hw))
        got = float(poisson_pmf(lam, t) @ g_family(d, c, t / (n / 2.0), n)[d])
        worst_a = max(worst_a, abs(got - (p - c) ** d))
    # full expectation of the unclamped estimator equals the smoothed moment
    from sortdist.core import binomial_pmf
    from sortdist.moments import smoothed_moment_true

    n = 200
    scheme = build_scheme(n, 8.0, "estimator")
    masses = rng.random(3) + 0.2
    p3 = DiscreteDistribution(masses / masses.sum())
    worst_b = 0.0
    for m in (1, 2):
        for d in range(0, 3):
            want = smoothed_moment_true(p3, m, d, scheme)
            got = 0.0
            for j in range(p3.k):
                lam = n * p3.masses[j]
                tvals = np.arange(0, int(lam + 12 * math.sqrt(lam + 1)) + 40)
                pmf_t = poisson_pmf(lam, tvals)
                inner = np.zeros_like(pmf_t)
                lo_s, hi_s = scheme.half_range(m)
                for ti, t in enumerate(tvals):
                    ss = np.arange(max(lo_s, 0), min(hi_s, int(t)) + 1)
                    if ss.size == 0:
                        continue
                    z = (t - ss) / (n / 2.0)
                    inner[ti] = float(
                        binomial_pmf(int(t), 0.5, ss) @ g_family(d, float(scheme.centers[m - 1]), z, n)[d]
                    )
                got += float(pmf_t @ inner)
            worst_b = max(worst_b, abs(got - want))
    elapsed = time.perf_counter() - t0
    verdict(
        "criterion 2 (moment unbiasedness)",
        worst_a <= 1e-7 and worst_b <= 1e-6 and elapsed < 30.0,
        f"kernel expectation error {worst_a:.2e}, estimator expectation error {worst_b:.2e}, {elapsed:.1f}s",
    )


def test_c03_sorted_l1_wasserstein_equivalence():
    rng = np.random.default_rng(103)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 101))
        p, q = random_dist(rng, k), random_dist(rng, k)
        gap = abs(sorted_l1(p, q) - k * w1(measure_of(p), measure_of(q)))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    verdict(
        "criterion 3 (sorted-l1 equals k times W1)",
        worst <= 1e-10 and elapsed < 5.0,
        f"worst gap {worst:.2e} over 1000 pairs in {elapsed:.1f}s",
    )


def test_c04_duality():
    from sortdist.wasserstein import LipschitzWitness

    rng = np.random.default_rng(104)
    t0 = time.perf_counter()
    worst_violation = -math.inf
    worst_attain = 0.0
    for _ in range(100):
        na, nb = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        mu = AtomicMeasure(np.sort(rng.random(na)), np.full(na, 1.0 / na))
        nu = AtomicMeasure(np.sort(rng.random(nb)), np.full(nb, 1.0 / nb))
        cap = w1(mu, nu)
        for _ in range(100):
            pieces = int(rng.integers(1, 7))
            bp = np.concatenate([[0.0], np.sort(rng.random(pieces - 1))]) if pieces > 1 else np.array([0.0])
            f = LipschitzWitness(bp, rng.uniform(-1, 1, pieces), float(rng.uniform(-1, 1)))
            worst_violation = max(worst_violation, dual_value(f, mu, nu) - cap)
        attained = dual_value(optimal_witness(mu, nu), mu, nu)
        worst_attain = max(worst_attain, abs(attained - cap))
    elapsed = time.perf_counter() - t0
    verdict(
        "criterion 4 (dual sandwich and attainment)",
        worst_violation <= 1e-10 and worst_attain <= 1e-10,
        f"max dual excess {worst_violation:.2e}, worst attainment gap {worst_attain:.2e}, {elapsed:.1f}s",
    )


def test_c05_localization_power_bound():
    t0 = time.perf_counter()
    worst = {}
    for n in (10**3, 10**4):
        scheme = build_scheme(n, DEFAULT_C1, "estimator")
        worst[n] = worst_case_localization(scheme) * n**5
    elapsed = time.perf_counter() - t0
    ok = all(v <= 1.0 for v in worst.values()) and elapsed < 60.0
    verdict(
        "criterion 5 (exact localization tails below n^-5)",
        ok,
        f"worst tail / n^-5: n=1e3 -> {worst[1000]:.3f}, n=1e4 -> {worst[10000]:.3f}, c1={DEFAULT_C1}, {elapsed:.1f}s",
    )


def test_c06_chi_power_divergence():
    rates = (0.5, 1.0, 5.0, 20.0)
    worst_log_gap = 0.0
    bound_ok = True
    for m in (2, 3, 5):
        for lam1 in rates:
            for lam2 in rates:
                gap = abs(chi_m_log(lam1, lam2, m) - chi_m_poisson_brute(lam1, lam2, m))
                rel = gap / max(1.0, abs(chi_m_log(lam1, lam2, m)))
                worst_log_gap = max(worst_log_gap, rel, min(gap, rel))
                if abs(lam1 / lam2 - 1.0) < 1.0 / m:
                    value, bound = chi_m_poisson(lam1, lam2, m)
                    bound_ok = bound_ok and value <= bound * (1 + 1e-12)
    # extra near-equal pairs so the bound branch is exercised non-trivially
    rng = np.random.default_rng(106)
    for _ in range(50):
        m = int(rng.integers(2, 6))
        lam2 = float(rng.uniform(0.3, 25.0))
        lam1 = lam2 * (1.0 + float(rng.uniform(-0.99, 0.99)) / m)
        value, bound = chi_m_poisson(lam1, lam2, m)
        bound_ok = bound_ok and value <= bound * (1 + 1e-12)
    verdict(
        "criterion 6 (power-divergence closed form and cap)",
        worst_log_gap <= 1e-8 and bound_ok,
        f"worst closed-vs-brute log gap {worst_log_gap:.2e}; quadratic cap dominated every qualifying pair",
    )


def test_c07_covering_inequalities():
    rng = np.random.default_rng(107)
    t0 = time.perf_counter()
    r, s, c0 = 0.5, 0.125, 0.5
    reported = 0.0
    draws = 0
    per_draw = []
    for n in (4, 5, 6):
        grid = QuantGrid.build(n)
        for _ in range(34 if n > 4 else 32):
            floor = 2.0 / (2.0 * n**2)
            k = int(rng.integers(2, 6))
            m = rng.random(k) + floor * k
            p = DiscreteDistribution(m / m.sum())
            c = covering_constants(p, grid, r=r, s=s, c0=c0)
            per_draw.append((n, p, c))
            reported = max(reported, c)
            draws += 1
    # re-check every draw at the reported module constant: zero violations
    violations = 0
    for n, p, _ in per_draw:
        grid = QuantGrid.build(n)
        q_raw = quantize_to_grid(p, grid)
        q = DiscreteDistribution(q_raw / q_raw.sum())
        profiles = desk_profiles(n, n)
        probs_p = np.array([profile_probability(p, f) for f in profiles])
        probs_q = np.array([profile_probability(q, f) for f in profiles])
        power = 1.0 / (1.0 - c0 * n**-s)
        slack = math.exp(-(reported + 1e-12) * n ** (1.0 - 2 * r + s))
        count = len(profiles)
        masks = np.arange(1, 2**count)
        bits = ((masks[:, None] >> np.arange(count)) & 1).astype(bool)
        sp = bits @ probs_p
        sq = bits @ probs_q
        violations += int(np.sum(sp < sq**power * slack * (1 - 1e-9)))
        violations += int(np.sum(sq < sp**power * slack * (1 - 1e-9)))
    elapsed = time.perf_counter() - t0
    verdict(
        "criterion 7 (covering inequalities, exhaustive subsets)",
        draws == 100 and violations == 0 and np.isfinite(reported),
        f"reported constant {reported:.4g} over {draws} draws, {violations} violations, {elapsed:.1f}s",
    )


def test_c08_chain_parameters_exact():
    ok = True
    details = []
    for c in (Fraction(1, 24), Fraction(1, 48), Fraction(1, 100)):
        cp = chain_params(c)
        r = (Fraction(1, 2),) + cp.r
        s = cp.s + (Fraction(0),)
        exact = all(1 - 2 * cp.r[m] + cp.s[m] == cp.t for m in range(cp.M))
        exact &= all(r[m] - s[m] == cp.t for m in range(cp.M + 1))
        ordered = (
            Fraction(5, 12) > cp.r[0]
            and all(cp.r[i] > cp.r[i + 1] for i in range(cp.M - 1))
            and cp.r[-1] > Fraction(1, 3)
            and Fraction(1, 6) > cp.s[0]
            and all(cp.s[i] > cp.s[i + 1] for i in range(cp.M - 1))
            and cp.s[-1] > 0
            and cp.t < Fraction(1, 3) + c
        )
        ok = ok and exact and ordered
        details.append(f"c={c}: M={cp.M}")
    verdict("criterion 8 (chained exponent equations, exact rationals)", ok, "; ".join(details))


def test_c09_pml_defining_property_and_rounding():
    rng = np.random.default_rng(109)
    t0 = time.perf_counter()
    worst_ratio = 0.0
    for n in (4, 5, 6):
        for phi in desk_profiles(n, n):
            _, like = brute_force_pml(phi, k_max=5)
            rows = rng.dirichlet(np.ones(5), size=1000)
            probs = profile_probability_many(rows, ProfileBatch([phi], 5))[0]
            if like == 0.0:
                # profile shows more distinct symbols than the class supports
                assert phi.distinct_symbols > 5 and probs.max() == 0.0
                continue
            worst_ratio = max(worst_ratio, float(probs.max()) / like)
    rounding_ok = 0
    for _ in range(1000):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(2, 6))
        raw = rng.random(k)
        raw[: int(rng.integers(0, k))] *= 1e-6
        p = DiscreteDistribution(raw / raw.sum())
        counts = rng.multinomial(n, p.masses)
        phi = profile_of_histogram(Histogram(counts))
        out = min_prob_round(p, phi)
        floor = 1.0 / (2.0 * n**2)
        pos_ok = out.masses[out.masses > 0].min() >= floor - 1e-15
        close_ok = is_close(p.masses, out.masses, n**-2.0, 3.0 * n**-1.0)
        like_ok = profile_probability(out, phi) >= math.exp(-6.0) * profile_probability(p, phi) - 1e-300
        rounding_ok += int(pos_ok and close_ok and like_ok)
    elapsed = time.perf_counter() - t0
    verdict(
        "criterion 9 (profile-likelihood maximizer and rounding)",
        worst_ratio <= 1.02 and rounding_ok == 1000,
        f"worst random/maximizer likelihood ratio {worst_ratio:.4f} (slack cap 1.02); "
        f"{rounding_ok}/1000 rounding instances passed all three predicates; {elapsed:.1f}s",
    )


BENCH_CFG = ExperimentConfig(n=10**4, k=5000, dist="uniform", trials=20, seed=2024, eps=0.1)


def test_c10_estimator_benchmark():
    t0 = time.perf_counter()
    records, summary = run_benchmark(BENCH_CFG)
    elapsed = time.perf_counter() - t0
    ratio = summary["mean_ratio_lmm_over_empirical"]
    verdict(
        "criterion 10 (benchmark: moment matching vs plug-in)",
        ratio <= 0.85 and elapsed < 600.0,
        f"mean error ratio {ratio:.3f} over 20 Poissonized trials "
        f"(lmm {summary['estimators']['lmm']['mean']:.4f}, "
        f"empirical {summary['estimators']['empirical']['mean']:.4f}), {elapsed:.1f}s",
    )


def test_c11_concentration_shape():
    cfg = ExperimentConfig(n=10**4, k=5000, dist="uniform", trials=200, seed=77, eps=0.1)
    t0 = time.perf_counter()
    records, summary = run_benchmark(cfg)
    elapsed = time.perf_counter() - t0
    tail = summary["estimators"]["lmm"]["tail_median_005"]
    verdict(
        "criterion 11 (concentration around the median)",
        tail["frequency"] <= 0.05,
        f"freq(error >= median + 0.05) = {tail['count']}/200 = {tail['frequency']:.3f}, "
        f"wilson95 {tail['wilson95']}, {elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def approx_sweep():
    f = lambda x: abs(x - 0.5)
    out = {}
    for n in (2**10, 2**12, 2**14):
        poly = build_poisson_approximation(f, n, delta=1.0)
        out[n] = (poly, verify_bounds(poly, f, eps=0.5))
    return f, out


def test_c12a_support_bound(approx_sweep):
    f, out = approx_sweep
    ok = all(rep.support_ok and poly.coeffs.size - 1 <= 2 * n for n, (poly, rep) in out.items())
    verdict(
        "criterion 12a (coefficient support cut at (1+delta) n, delta=1)",
        ok,
        "; ".join(f"n=2^{int(math.log2(n))}: support end {poly.support_end}" for n, (poly, _) in out.items()),
    )


def test_c12b_weighted_error_stability(approx_sweep):
    _, out = approx_sweep
    stats = [rep.sup_weighted_error for _, rep in out.values()]
    spread = max(stats) / min(stats)
    verdict(
        "criterion 12b (weighted sup error stable across the sweep)",
        spread < 2.0,
        f"sup |f-F| / sqrt(max(x,1/n)/(n log n)) = {['%.3f' % s for s in stats]}, spread {spread:.2f}x",
    )


def test_c12c_coefficient_deviation_constant(approx_sweep):
    _, out = approx_sweep
    stats = [rep.max_coeff_deviation for _, rep in out.values()]
    verdict(
        "criterion 12c (coefficient deviation bounded by one constant)",
        max(stats) <= 1.5,
        f"max_j |b_j - f(j/n)| n^(1/2) / (1+sqrt(j)) = {['%.3f' % s for s in stats]} <= 1.5",
    )


def test_c12d_pointwise_gain_at_quarter(approx_sweep):
    # Measured error of the glued construction at x = 1/4 must beat the
    # plain-coefficient choice by 10%.  Known red: at x = 1/4 the plain
    # choice is exponentially exact (f is linear within ~60 Poisson standard
    # deviations of nx), so no construction can win this comparison there.
    # The real pointwise gain lives at the kink and is verified green in
    # test_poisson_approx.py::TestFullConstruction::test_glued_beats_naive_at_the_kink.
    f, out = approx_sweep
    n = 2**14
    poly, _ = out[n]
    naive = naive_coefficients(f, n, delta=1.0)
    glued_err = abs(evaluate(poly, 0.25) - f(0.25))
    naive_err = abs(evaluate(naive, 0.25) - f(0.25))
    verdict(
        "criterion 12d (glued beats plain coefficients at x = 1/4)",
        glued_err <= 0.9 * naive_err,
        f"glued error {glued_err:.3e} vs plain error {naive_err:.3e} at x=0.25, n=2^14",
    )


def test_c13_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    hist = tmp_path / "hist.txt"
    hist.write_text("40\n9\n0\n3\n")
    runs = {
        "estimate": ["estimate", str(hist), "--n", "64", "--c1", "2", "--out"],
        "benchmark": ["benchmark", "--n", "1024", "--k", "200", "--trials", "2", "--seed", "7", "--out"],
        "competitive": ["competitive", "--n", "5", "--k", "3", "--eps", "0.6", "--out"],
        "approx": ["approx", "--f", "abs", "--n-list", "1024", "--out"],
        "pml": ["pml", "--profile", "2,0,1", "--kmax", "3", "--out"],
    }
    all_ok = True
    for name, args in runs.items():
        produced = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}_{tag}"
            target = str(out) if name in ("benchmark", "competitive", "approx") else str(out / "out.json")
            assert cli_main(args + [target]) == 0
            root = out if out.is_dir() else out
            files = sorted(f for f in root.rglob("*") if f.is_file())
            produced.append({f.name: f.read_bytes() for f in files})
        all_ok = all_ok and produced[0] == produced[1]
    elapsed = time.perf_counter() - t0
    verdict(
        "criterion 13 (byte-identical CLI reruns)",
        all_ok,
        f"five subcommands, two runs each, {elapsed:.1f}s",
    )
