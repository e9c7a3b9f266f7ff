import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sortdist.cli import main as cli_main
from sortdist.core import (
    EXACT_SCALE_N,
    DiscreteDistribution,
    Histogram,
    poisson_interval_prob,
    poisson_pmf,
    profile_probability,
)
from sortdist.errors import DomainError, ResourceLimitError
from sortdist import core, harness
from sortdist.harness import (
    COMPETITIVE_C1,
    ExperimentConfig,
    TrialRecord,
    coefficients_to_csv,
    error_curve_to_csv,
    make_distribution,
    parse_function,
    run_approx_sweep,
    run_benchmark,
    run_competitive_check,
    trials_to_csv,
    wilson_interval,
)
from sortdist.sampling import (
    _poisson_quantile,
    empirical_measure,
    sample_iid,
    sample_poissonized,
    substream,
)
from sortdist.wasserstein import w1
from sortdist.core import measure_of, sorted_l1_vectors
from sortdist import pml as pml_module
from sortdist.intervals import build_scheme
from sortdist.lmm import estimate_sorted_distribution
from sortdist.moments import degree_for
from sortdist.pml import PML_RESOLUTION_CAP
from sortdist.poisson_approx import build_poisson_approximation, evaluate, naive_coefficients, verify_bounds


class TestSampling:
    def test_substream_reproducible_and_disjoint(self):
        assert substream(9, 2).random(4).tolist() == substream(9, 2).random(4).tolist()
        assert substream(9, 2).random(4).tolist() != substream(9, 3).random(4).tolist()
        assert substream(8, 2).random(4).tolist() != substream(9, 2).random(4).tolist()

    def test_point_mass_iid(self):
        p = make_distribution("point-mass", 4)
        h = sample_iid(p, 100, substream(0, 0))
        assert h.counts.tolist() == [100, 0, 0, 0]

    def test_poissonized_zero_mass_symbol(self):
        p = DiscreteDistribution([0.5, 0.5, 0.0])
        for t in range(5):
            h = sample_poissonized(p, 200, substream(1, t))
            assert h.counts[2] == 0

    def test_poisson_draw_moments_both_branches(self):
        k = 20000
        p = make_distribution("uniform", k)
        for lam in (3.0, 80.0):
            draws = sample_poissonized(p, round(lam * k), substream(11, 0)).counts
            se = math.sqrt(lam / draws.size)
            assert draws.mean() == pytest.approx(lam, abs=5 * se)
            assert draws.var() == pytest.approx(lam, rel=0.08)

    @pytest.mark.parametrize("family", ["uniform", "two-level", "zipf:1"])
    def test_poissonized_equals_table_inversion(self, family):
        # reference: one cumulative-pmf table per distinct small rate
        def reference(p, n, gen):
            lam, u, counts = n * p.masses, gen.random(p.k), np.zeros(p.k, dtype=np.int64)
            for rate in np.unique(lam[(lam > 0) & (lam < 30)]):
                table = np.cumsum(poisson_pmf(rate, np.arange(int(rate + 40 * math.sqrt(rate + 1) + 30) + 1)))
                counts[lam == rate] = np.searchsorted(table, u[lam == rate], side="right")
            counts[lam >= 30] = gen.poisson(lam[lam >= 30])
            return counts

        p = make_distribution(family, 5000)
        for t in range(3):
            got = sample_poissonized(p, 10**4, substream(101, t)).counts
            assert got.tolist() == reference(p, 10**4, substream(101, t)).tolist()

    @pytest.mark.parametrize(
        "family, n, digests",
        [
            ("zipf:1", 10**4, [
                "9ff215c5274887d9177c43327afb31b18b441f1bd78ab683a2a86f78fc8f3be3",
                "ddcd8e99b54796acb8ae177b32dda5ab11bbffbdfcddbfa59b43cb2cb04cf961",
                "cb7d2cd3bbbebb9e8af07a2a41073be1190a44a5d491c3aeabaedac5e399675d",
            ]),
            # every rate is 200, so the whole histogram comes from numpy's PTRS
            ("uniform", 10**6, [
                "d37e78dcf3f41ce6c0e162d2262c5dd1c1178d2707744614afeba50454786d0b",
                "f3ae688e2f1264254ec0670be2d9d07df93682e3f0657af6f28aad2f3aba6be7",
                "aa7e023b0b0993efe0e3f63d399e87151475dd5343ab5cec1df0a07c82608afa",
            ]),
        ],
    )
    def test_seeded_histograms_keep_their_bytes(self, family, n, digests):
        # pinned under numpy 2.4; a numpy release that changes its Poisson
        # stream fails here instead of moving every seeded output silently
        p = make_distribution(family, 5000)
        got = [hashlib.sha256(sample_poissonized(p, n, substream(101, t)).counts.tobytes()).hexdigest() for t in range(3)]
        assert got == digests

    def test_poisson_quantile_brackets_u(self):
        def cdf(j, lam):  # 0.0 at j = -1
            return np.asarray([poisson_interval_prob(l, 0, int(i)) for i, l in zip(j, lam)])

        gen = np.random.default_rng(3)
        lam = gen.uniform(0.0, 30.0, 400)
        ties = cdf(gen.integers(0, 40, 400), lam)
        lam, ties = lam[ties < 1.0], ties[ties < 1.0]  # gen.random() never returns 1
        u = np.concatenate([gen.random(400), ties, np.nextafter(ties, 0.0), [0.0, 1 - 2.0**-53]])
        lam = np.concatenate([gen.uniform(0.0, 30.0, 400), lam, lam, [2.0, 2.0]])
        got = _poisson_quantile(u, lam)
        assert np.all(cdf(got, lam) >= u)
        assert np.all((cdf(got - 1, lam) < u) | (got == 0))
        top = np.full(2, 1 - 2.0**-53)
        assert _poisson_quantile(top, np.array([2.0, 29.999])).tolist() == [22, 85]

    def test_poissonized_mean_matches_rate(self):
        p = make_distribution("uniform", 50)
        n = 4000
        totals = np.zeros(50)
        reps = 400
        for t in range(reps):
            totals += sample_poissonized(p, n, substream(5, t)).counts
        mean = totals / reps
        se = math.sqrt(n / 50 / reps)
        assert np.all(np.abs(mean - n / 50) <= 5 * se)

    def test_iid_total_is_n(self):
        p = make_distribution("zipf:1.0", 30)
        h = sample_iid(p, 777, substream(2, 0))
        assert h.n == 777


class TestEmpiricalMeasure:
    def test_point_mass_histogram(self):
        m = empirical_measure(Histogram([10, 0]), 2, n=10)
        assert m.locations.tolist() == [0.0, 1.0]
        assert m.weights.tolist() == [0.5, 0.5]

    def test_uniform_counts_merge(self):
        m = empirical_measure(Histogram([5, 5, 5, 5]), 4, n=20)
        assert m.locations.tolist() == [0.25]
        assert m.weights.tolist() == [1.0]

    def test_zero_sample(self):
        m = empirical_measure(Histogram([0, 0]), 2, n=0)
        assert m.locations.tolist() == [0.0] and m.total_mass == 1.0

    def test_matches_sorted_l1_identity(self):
        rng = np.random.default_rng(0)
        p = make_distribution("zipf:1.2", 40)
        h = sample_iid(p, 500, substream(3, 0))
        lhs = 40 * w1(empirical_measure(h, 40, n=500), measure_of(p))
        rhs = sorted_l1_vectors(h.counts / 500, p.masses)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestFamilies:
    def test_uniform(self):
        p = make_distribution("uniform", 5)
        assert np.allclose(p.masses, 0.2)

    def test_zipf_exponent(self):
        p = make_distribution("zipf:2.0", 3)
        w = np.array([1.0, 0.25, 1.0 / 9.0])
        assert np.allclose(p.masses, w / w.sum())

    def test_two_level(self):
        p = make_distribution("two-level", 20)
        assert p.masses[0] == pytest.approx(0.9 / 2)
        assert p.masses[-1] == pytest.approx(0.1 / 18)

    def test_two_level_on_one_symbol_is_the_point_mass(self):
        # the one heavy symbol takes 0.9, which normalizes to exactly 1.0
        assert make_distribution("two-level", 1).masses.tolist() == [1.0]

    def test_file_source(self, tmp_path):
        path = tmp_path / "dist.json"
        path.write_text("[0.25, 0.75]")
        p = make_distribution(f"file:{path}", 2)
        assert p.masses.tolist() == [0.25, 0.75]

    def test_unknown(self):
        with pytest.raises(DomainError):
            make_distribution("cauchy", 3)

    @pytest.mark.parametrize("family", ["uniform", "zipf:1", "two-level", "point-mass"])
    @pytest.mark.parametrize("k", [0, -2])
    def test_rejects_k_below_one(self, family, k):
        with pytest.raises(DomainError, match="k must be at least 1"):
            make_distribution(family, k)


class TestBenchmark:
    def test_records_within_bounds_and_reproducible(self):
        cfg = ExperimentConfig(n=1024, k=200, dist="zipf:1.0", trials=3, seed=11)
        recs1, sum1 = run_benchmark(cfg)
        recs2, sum2 = run_benchmark(cfg)
        assert trials_to_csv(recs1) == trials_to_csv(recs2)
        assert json.dumps(sum1, sort_keys=True) == json.dumps(sum2, sort_keys=True)
        for r in recs1:
            assert 0.0 <= r.error <= 2.0

    def test_point_mass_both_errors_small(self):
        cfg = ExperimentConfig(n=4096, k=1, dist="point-mass", trials=2, seed=0)
        recs, summary = run_benchmark(cfg)
        for r in recs:
            assert r.error <= 0.1

    def test_error_range_enforced(self):
        with pytest.raises(DomainError):
            TrialRecord(0, "x", 2.5, 0.0)

    def test_caps(self):
        with pytest.raises(ResourceLimitError):
            run_benchmark(ExperimentConfig(n=10**6 + 1, k=2, trials=1))
        with pytest.raises(ResourceLimitError):
            run_benchmark(ExperimentConfig(n=100, k=2, trials=1001))

    def test_poissonization_reduction_sanity(self):
        # the conditioning denominator P(Poisson(n) = n) decays only like
        # 1/sqrt(2 pi n); the Stirling bound 1/(e sqrt(n)) holds exactly
        # (the bare 1/sqrt(n) sometimes quoted is off by the constant)
        for n in range(1, 1001):
            v = poisson_pmf(float(n), n)
            assert v >= 1.0 / (math.e * math.sqrt(n))
            assert v <= 1.0 / math.sqrt(2 * math.pi * n) * 1.0001


class TestWilson:
    def test_zero_and_full(self):
        lo, hi = wilson_interval(0, 20)
        assert lo == 0.0 and hi < 0.25
        lo, hi = wilson_interval(20, 20)
        assert hi == 1.0 and lo > 0.75

    def test_contains_phat(self):
        lo, hi = wilson_interval(7, 50)
        assert lo < 7 / 50 < hi


def competitive_estimator(n, k, c2=1.0):
    """The competitive check's estimator: the LP on each profile's histogram
    of k symbols, at the check's scheme."""
    scheme = build_scheme(n, COMPETITIVE_C1, "estimator")

    def estimate(phi):
        parts = phi.parts()
        h = Histogram(np.asarray(parts + (0,) * (k - len(parts)), dtype=np.int64))
        return estimate_sorted_distribution(h, k, scheme, c2=c2).measure

    return estimate


def k_w1_loss(measure, q):
    return q.k * w1(measure, measure_of(q))


class TestCompetitive:
    @pytest.fixture(autouse=True)
    def cold_desk(self):
        # each test builds its own desk table, so spies see the build
        harness._desk_table.cache_clear()

    def test_huge_eps_no_failures(self):
        cfg = ExperimentConfig(n=5, k=3, dist="uniform", eps=2.0, c2=1.0)
        rep = run_competitive_check(cfg)
        assert rep["direct_failure_probability"] == 0.0
        assert rep["good_set_mass"] == pytest.approx(1.0, abs=1e-9)

    def test_point_mass_recovers(self):
        cfg = ExperimentConfig(n=6, k=3, dist="point-mass", eps=0.3, c2=1.0)
        rep = run_competitive_check(cfg)
        assert rep["direct_failure_probability"] == 0.0

    def test_direct_failure_below_indicator_bound(self):
        for eps in (0.4, 0.6, 0.9):
            cfg = ExperimentConfig(n=6, k=3, dist="uniform", eps=eps, c2=1.0)
            rep = run_competitive_check(cfg)
            assert rep["direct_failure_probability"] <= rep["indicator_bound_term"] + 1e-12

    def test_scale_cap(self):
        # 1,154 profiles of 50 with at most 4 parts, past DESK_PROFILE_CAP;
        # one profile of 171 at k = 1, past the double range of 171!
        with pytest.raises(ResourceLimitError, match="1154 with at most k = 4 parts"):
            run_competitive_check(ExperimentConfig(n=50, k=4))
        with pytest.raises(ResourceLimitError, match=f"n <= {EXACT_SCALE_N}"):
            run_competitive_check(ExperimentConfig(n=EXACT_SCALE_N + 1, k=1))

    def test_report_echoes_the_scheme_c1(self, monkeypatch):
        seen = []

        def spy(n, c1, variant):
            seen.append(c1)
            return build_scheme(n, c1, variant)

        monkeypatch.setattr(harness, "build_scheme", spy)
        rep = run_competitive_check(ExperimentConfig(n=5, k=3, eps=0.6, c2=1.0))
        assert seen == [COMPETITIVE_C1]
        assert rep["config"]["c1"] == COMPETITIVE_C1

    def test_good_set_mass_equals_good_set(self):
        # the report sums the row probabilities; good_set sums its own
        for dist in ("uniform", "zipf:1"):
            rep = run_competitive_check(ExperimentConfig(n=6, k=3, dist=dist, eps=0.6, c2=1.0))
            good, mass = pml_module.good_set(
                competitive_estimator(6, 3), make_distribution(dist, 3), 0.6, k_w1_loss, 6
            )
            assert rep["good_set_size"] == len(good)
            assert rep["good_set_mass"] == mass

    # the indicator sum is positive on the two uniform cases and 0 on zipf:1
    @pytest.mark.parametrize("n,k,dist", [(5, 4, "uniform"), (8, 5, "uniform"), (8, 4, "zipf:1")])
    def test_indicator_term_equals_the_pair_at_a_time_sum(self, n, k, dist):
        # one batched call per good profile, summed in good-set order, gives
        # the bytes of one profile_probability call per pair
        rep = run_competitive_check(ExperimentConfig(n=n, k=k, dist=dist, eps=0.6, c2=1.0))
        p = make_distribution(dist, k)
        good, _ = pml_module.good_set(competitive_estimator(n, k), p, 0.6, k_w1_loss, n)
        assert rep["good_set_size"] == len(good)
        want = 0.0
        for phi in good:
            rounded = pml_module.min_prob_round(pml_module.brute_force_pml(phi, k_max=k)[0], phi)
            if sum(profile_probability(rounded, g) for g in good) <= rep["delta_empirical"]:
                want += profile_probability(p, phi)
        assert rep["indicator_bound_term"] == want + rep["delta_empirical"]

    def test_pmls_on_the_bound_do_not_fail(self):
        # against uniform on 5 symbols these three PMLs lie exactly 2 eps =
        # 1.2 from p in sorted l1, and they read it give or take the last
        # bit (two of them read 1.2000000000000002)
        rep = run_competitive_check(ExperimentConfig(n=8, k=5, dist="uniform", eps=0.6, c2=1.0))
        assert rep["eps_prime"] == 0.0
        on_bound = [{"2": 1, "6": 1}, {"3": 1, "5": 1}, {"4": 2}]
        rows = {json.dumps(json.loads(row["profile"])["phi"], sort_keys=True): row for row in rep["pml"]}
        reads = [rows[json.dumps(phi, sort_keys=True)]["sorted_l1_to_truth"] for phi in on_bound]
        assert reads == pytest.approx([1.2] * 3, rel=1e-15)
        want = 0.0
        for row in rep["pml"]:
            if row["sorted_l1_to_truth"] > 1.2 + 1e-9:
                want += row["probability"]
        assert rep["direct_failure_probability"] == want > 0.0

    @pytest.mark.parametrize("n,k", [(4, 3), (8, 4), (12, 4)])
    def test_delta_empirical_is_the_failing_mass(self, n, k):
        # 1 - good_mass read down to -2e-15 where nothing fails; the failing
        # mass summed in profile order reads exactly 0.0 there
        estimate = competitive_estimator(n, k)
        nothing_fails = 0
        for dist in ("uniform", "two-level", "zipf:1", "zipf:2"):
            p = make_distribution(dist, k)
            for eps in (0.3, 0.6, 1.0):
                rep = run_competitive_check(ExperimentConfig(n=n, k=k, dist=dist, eps=eps, c2=1.0))
                good, _ = pml_module.good_set(estimate, p, eps, k_w1_loss, n)
                good = {phi.to_sparse_json() for phi in good}
                failing = [row["probability"] for row in rep["pml"] if row["profile"] not in good]
                delta = rep["delta_empirical"]
                assert delta >= 0.0
                if not failing:
                    nothing_fails += 1
                    assert delta == 0.0
                if sum(failing, 0.0) <= rep["good_set_mass"]:
                    assert delta == sum(failing, 0.0)
                else:
                    assert delta == 1.0 - rep["good_set_mass"]
        assert nothing_fails > 0

    def test_empty_good_set(self):
        rep = run_competitive_check(ExperimentConfig(n=5, k=3, dist="uniform", eps=1e-9, c2=1.0))
        assert rep["good_set_size"] == 0
        assert rep["indicator_bound_term"] == rep["delta_empirical"] == 1.0

    def test_runs_at_the_scale_cap(self):
        # R's DP takes the 34 rounded rows in blocks, so the cold build
        # stays under 1.5 MB; over all 77 profiles of 12 as one block its
        # states alone took 5 MB
        tracemalloc.start()
        try:
            rep = run_competitive_check(ExperimentConfig(n=12, k=4, dist="uniform", eps=0.6, c2=1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rep["pml"]) == 34  # the partitions of 12 into at most 4 parts
        assert rep["direct_failure_probability"] <= rep["indicator_bound_term"] + 1e-12
        assert peak < 1.5e6

    @pytest.mark.parametrize("dist", ["uniform", "zipf:1"])
    def test_a_cold_check_past_twelve(self, dist):
        # the 169 profiles of 24 with at most 4 parts, about 1 s cold on 2
        # shared cores; the 1,406 others have probability 0 under p
        rep = run_competitive_check(ExperimentConfig(n=24, k=4, dist=dist, eps=0.6, c2=1.0))
        assert len(rep["pml"]) == 169
        assert abs(sum(row["probability"] for row in rep["pml"]) - 1.0) <= 1e-13
        assert rep["direct_failure_probability"] <= rep["indicator_bound_term"] + 1e-12
        assert harness._desk_table(24, 4, 1.0).R.shape == (169, 169)


def competitive_json(cfg: ExperimentConfig) -> str:
    return json.dumps(run_competitive_check(cfg), sort_keys=True)


class TestDeskTableMemo:
    """The p-free part of a competitive check, its `DeskTable`, is built
    once per (n, k, c2); a check that reads the kept table reports the bytes
    of one that builds its own."""

    @pytest.mark.parametrize("n,k", [(4, 3), (6, 4), (8, 4), (8, 5), (10, 4), (12, 4)])
    def test_a_sweep_reads_one_table_and_reports_the_cold_bytes(self, n, k):
        configs = [
            ExperimentConfig(n=n, k=k, dist=dist, eps=eps, c2=1.0)
            for dist in ("uniform", "two-level", "zipf:1", "point-mass")
            for eps in (0.3, 0.6, 1.0)
        ]
        cold = []
        for cfg in configs:
            harness._desk_table.cache_clear()
            cold.append(competitive_json(cfg))
        harness._desk_table.cache_clear()
        for cfg, want in zip(configs, cold):
            assert competitive_json(cfg) == want
        info = harness._desk_table.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, len(configs) - 1, 1)
        assert harness._desk_table(n, k, 1.0) is harness._desk_table(n, k, 1.0)

    @pytest.mark.parametrize(
        "n,k,c2", [(5, 4, 1.0), (6, 3, 1.0), (6, 4, 2.0), (6, 4, 1)], ids=["n", "k", "c2", "c2-type"]
    )
    def test_another_n_k_or_c2_misses(self, n, k, c2):
        base = ExperimentConfig(n=6, k=4, dist="zipf:1", eps=0.6, c2=1.0)
        other = ExperimentConfig(n=n, k=k, dist="zipf:1", eps=0.6, c2=c2)
        harness._desk_table.cache_clear()
        cold = competitive_json(other)
        run_competitive_check(base)
        table = harness._desk_table(6, 4, 1.0)
        misses = harness._desk_table.cache_info().misses
        assert competitive_json(other) == cold
        kept = harness._desk_table(n, k, c2)
        assert harness._desk_table.cache_info().misses == misses + 1
        assert kept is not table
        assert (kept.n, kept.k, kept.c2) == (n, k, c2)
        assert type(kept.c2) is type(c2)

    def test_reports_do_not_share_state_with_the_table(self):
        cfg = ExperimentConfig(n=6, k=4, dist="two-level", eps=0.6, c2=1.0)
        harness._desk_table.cache_clear()
        want = competitive_json(cfg)
        rep = run_competitive_check(cfg)
        for row in rep["pml"]:
            row["pml_masses"][0] = -1.0
            row["pml_masses"].append(7.0)
            row["probability"] = -1.0
        rep["pml"].clear()
        assert competitive_json(cfg) == want
        table = harness._desk_table(6, 4, 1.0)
        arrays = [table.R, table.rounded, table.sorted_pml, table.batch.full, table.batch.coefs]
        arrays += [phi.phi for phi in table.profiles]
        arrays += [table.measures.locations, table.measures.cdfs, table.measures.total_mass]
        for a in arrays:
            with pytest.raises(ValueError):
                a[0] = 0

    def test_a_warm_pass_makes_one_profile_probability_call(self, monkeypatch):
        # both names perfbench's trace hooks, as its span counts them
        calls = []
        real = core.profile_probability_many

        def spy(p_rows, batch):
            calls.append((np.shape(p_rows), len(batch)))
            return real(p_rows, batch)

        configs = [ExperimentConfig(n=8, k=4, dist=dist, eps=0.6, c2=1.0) for dist in ("uniform", "two-level", "zipf:1")]
        harness._desk_table.cache_clear()
        want = [competitive_json(cfg) for cfg in configs]
        harness._desk_table.cache_clear()
        monkeypatch.setattr(core, "profile_probability_many", spy)
        monkeypatch.setattr(pml_module, "profile_probability_many", spy)
        run_competitive_check(configs[0])
        # R and the pass take the whole batch; every other call is one
        # profile's PML search
        # over the 15 profiles of 8 with at most 4 parts
        assert [c for c in calls if c[1] != 1] == [((15, 4), 15), ((1, 4), 15)]
        for cfg, text in zip(configs, want):
            calls.clear()
            assert competitive_json(cfg) == text
            assert calls == [((1, 4), 15)]

    def test_a_warm_pass_calls_no_single_w1(self, monkeypatch):
        # the good set is one w1_many call; harness.w1 is left to the
        # benchmark's estimator loop
        calls = []
        real = harness.w1

        def spy(mu, nu):
            calls.append(mu)
            return real(mu, nu)

        configs = [ExperimentConfig(n=8, k=4, dist=dist, eps=0.6, c2=1.0) for dist in ("uniform", "two-level", "zipf:1")]
        harness._desk_table.cache_clear()
        want = [competitive_json(cfg) for cfg in configs]
        monkeypatch.setattr(harness, "w1", spy)
        for cfg, text in zip(configs, want):
            assert competitive_json(cfg) == text
        assert calls == []
        # and the good set is the one the per-profile loop finds
        estimate = competitive_estimator(8, 4)
        for cfg in configs:
            p = make_distribution(cfg.dist, 4)
            good = [phi for phi in harness._desk_table(8, 4, 1.0).profiles if k_w1_loss(estimate(phi), p) <= cfg.eps]
            assert run_competitive_check(cfg)["good_set_size"] == len(good)

    @pytest.mark.parametrize(
        "cfg, error",
        [
            (ExperimentConfig(n=6, k=4, dist="cauchy", eps=0.6, c2=1.0), DomainError),
            (ExperimentConfig(n=6, k=6, eps=0.6, c2=1.0), ResourceLimitError),
            (ExperimentConfig(n=50, k=4, eps=0.6, c2=1.0), ResourceLimitError),
            (ExperimentConfig(n=6, k=0, eps=0.6, c2=1.0), DomainError),
            (ExperimentConfig(n=3, k=4, eps=0.6, c2=1.0), DomainError),
        ],
        ids=["unknown-family", "k-above-cap", "n-above-cap", "k=0", "n-below-scheme"],
    )
    def test_warm_memo_raises_the_cold_error(self, cfg, error):
        harness._desk_table.cache_clear()
        with pytest.raises(error) as cold:
            run_competitive_check(cfg)
        run_competitive_check(ExperimentConfig(n=6, k=4, eps=0.6, c2=1.0))
        table = harness._desk_table(6, 4, 1.0)
        with pytest.raises(error) as warm:
            run_competitive_check(cfg)
        assert str(warm.value) == str(cold.value)
        # a build that raises keeps nothing, and the kept table stays
        assert harness._desk_table.cache_info().currsize == 1
        assert harness._desk_table(6, 4, 1.0) is table


class TestApproxSweep:
    def test_identity_near_exact(self):
        result = run_approx_sweep("identity", [1024, 4096])
        for row in result["report"]["rows"]:
            assert row["sup_error"] <= 1e-3
            assert row["support_ok"]

    def test_report_fields(self):
        result = run_approx_sweep("abs", [1024])
        report = result["report"]
        assert report["rows"][0]["n"] == 1024
        assert report["weighted_error_spread"] >= 1.0
        assert report["max_abs_coeff"] <= 2.0

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            run_approx_sweep("abs", [2**17])

    def test_pointwise_values_are_the_scalar_evaluations(self):
        f = parse_function("abs")
        result = run_approx_sweep("abs", [1024])
        poly, naive = result["objects"][1024]
        for x in (0.25, 0.5):
            row = result["report"]["rows"][0]["pointwise_vs_naive"][str(x)]
            assert row["glued_error"] == abs(evaluate(poly, x) - f(x))
            assert row["naive_error"] == abs(evaluate(naive, x) - f(x))

    def test_csv_fields_are_plain_numbers(self):
        f = parse_function("abs")
        poly = build_poisson_approximation(f, 1024)
        coeff_rows = [line.split(",") for line in coefficients_to_csv(poly, f).splitlines()[1:]]
        error_rows = [line.split(",") for line in error_curve_to_csv(poly, f).splitlines()[1:]]
        assert len(coeff_rows) == poly.coeffs.size and len(error_rows) == 257
        for row in coeff_rows + error_rows:
            [float(field) for field in row]
        b = np.asarray([float(row[1]) for row in coeff_rows])
        assert b.tobytes() == poly.coeffs.tobytes()
        xs = np.linspace(0.0, 1.0, 257)
        approx = np.asarray([float(row[2]) for row in error_rows])
        assert approx.tobytes() == evaluate(poly, xs).tobytes()


def run_cli(args):
    return cli_main(args)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_values_are_domain_errors(value):
    with pytest.raises(DomainError, match="eps must be"):
        ExperimentConfig(n=8, k=4, eps=value)
    with pytest.raises(DomainError, match="c1 must be"):
        build_scheme(64, value, "estimator")
    with pytest.raises(DomainError, match="c2 must be"):
        degree_for(64, value)
    with pytest.raises(DomainError, match="kink"):
        parse_function(f"abs@{value}")
    f = parse_function("abs")
    with pytest.raises(DomainError, match="delta must be"):
        naive_coefficients(f, 64, delta=value)
    with pytest.raises(DomainError, match="delta must be"):
        build_poisson_approximation(f, 64, delta=value)
    with pytest.raises(DomainError, match="eps must be"):
        verify_bounds(naive_coefficients(f, 64), f, eps=value)


class TestCLIDeterminism:
    def read_all(self, root: Path) -> dict[str, bytes]:
        return {str(f.relative_to(root)): f.read_bytes() for f in sorted(root.rglob("*")) if f.is_file()}

    def test_benchmark_rerun_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["benchmark", "--n", "1024", "--k", "200", "--trials", "2", "--seed", "7"]
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        assert self.read_all(a) == self.read_all(b)

    def test_estimate_rerun_identical(self, tmp_path):
        hist = tmp_path / "h.txt"
        hist.write_text("40\n9\n0\n3\n")
        f1, f2 = tmp_path / "e1.json", tmp_path / "e2.json"
        base = ["estimate", str(hist), "--n", "64", "--c1", "2"]
        assert run_cli(base + ["--out", str(f1)]) == 0
        assert run_cli(base + ["--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()

    @pytest.mark.parametrize(
        "counts, args",
        [
            ("40\n9\n0\n3\n", ["estimate", "h.txt", "--n", "64", "--c1", "2", "--k", "-2"]),
            ("", ["estimate", "h.txt", "--n", "64", "--c1", "2"]),
            ("", ["benchmark", "--n", "1024", "--k", "0", "--trials", "1"]),
        ],
        ids=["k=-2", "k=0", "benchmark-k=0"],
    )
    def test_estimate_rejects_k_below_one(self, tmp_path, monkeypatch, capsys, counts, args):
        # an empty histogram file leaves the default k at 0 lines
        monkeypatch.chdir(tmp_path)
        (tmp_path / "h.txt").write_text(counts)
        with pytest.raises(SystemExit) as exc:
            run_cli([*args, "--out", "out"])
        assert exc.value.code == 2
        assert "k must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "files, args, message",
        [
            ({}, ["benchmark", "--n", "1024", "--k", "20", "--trials", "1", "--dist", "zipf:abc"],
             "zipf exponent"),
            ({}, ["benchmark", "--n", "1024", "--k", "20", "--trials", "1", "--dist", "file:missing.json"],
             "cannot read masses"),
            ({"p.json": "[NaN, 0.5, 0.5]"},
             ["benchmark", "--n", "1024", "--k", "3", "--trials", "1", "--dist", "file:p.json"],
             "masses must be finite"),
            ({"p.json": "[0.25, 0.25, 0.25, 0.25]"},
             ["competitive", "--n", "5", "--k", "2", "--dist", "file:p.json"], "holds 4 masses, not k = 2"),
            ({"h.txt": "40\n1.5\n"}, ["estimate", "h.txt", "--n", "64", "--c1", "2"], "cannot read counts"),
            ({}, ["estimate", "missing.txt", "--n", "64", "--c1", "2"], "cannot read counts"),
            ({"h.txt": "99999999999999999999\n"}, ["estimate", "h.txt"], "cannot read counts"),
            # two counts of 2^62, whose int64 sum would wrap to a negative n
            ({"h.txt": "4611686018427387904\n4611686018427387904\n"}, ["pml", "--histogram", "h.txt"],
             "the counts total 9223372036854775808, beyond the int64 range"),
            ({"h.txt": "4611686018427387904\n4611686018427387904\n"}, ["estimate", "h.txt"],
             "the counts total 9223372036854775808, beyond the int64 range"),
            ({"h.txt": "4611686018427387904\n"}, ["pml", "--histogram", "h.txt"],
             f"capped at n <= {EXACT_SCALE_N}"),
            ({}, ["approx", "--f", "abs@x", "--n-list", "1024"], "kink"),
            ({}, ["approx", "--n-list", "10x"], "--n-list"),
            ({}, ["pml", "--profile", "a,b"], "comma list of integers"),
            ({}, ["pml", "--profile", "0,0"], "is empty"),
            ({}, ["pml", "--profile", "1,-1"], "negative multiplicity"),
            ({}, ["pml", "--profile", '{"n": 2, "phi": {"3": 1}}'], "outside 1..2"),
            ({}, ["pml", "--profile", '{"n": 2}'], "n and a phi map"),
            ({}, ["pml", "--profile", '{"n": 0, "phi": {}}'], "n >= 1"),
            ({}, ["pml", "--profile", '{"n": 1.9, "phi": {"1": 1.2}}'], "must be JSON integers"),
            ({}, ["pml", "--profile", '{"n": 2, "phi": {"1": 2.0}}'], "must be JSON integers"),
            ({}, ["pml", "--profile", '{"n": true, "phi": {"1": 1}}'], "must be JSON integers"),
            ({}, ["pml", "--profile", "2,1", "--kmax", "0"], "k_max and grid_resolution"),
            ({}, ["pml", "--profile", "2,1", "--resolution", "0"], "k_max and grid_resolution"),
            ({}, ["benchmark", "--n", "1024", "--k", "20", "--trials", "1", "--delta", "0.5"],
             "unrecognized arguments: --delta"),
            ({}, ["competitive", "--n", "5", "--k", "3", "--seed", "3"], "unrecognized arguments: --seed"),
            ({"h.txt": "40\n9\n0\n3\n"}, ["estimate", "h.txt", "--n", "64", "--c1", "nan"], "c1 must be"),
            ({}, ["approx", "--n-list", "1024", "--c2", "nan"], "c2 must be"),
            ({}, ["competitive", "--n", "5", "--k", "3", "--c2", "inf"], "c2 must be"),
            ({}, ["competitive", "--n", "5", "--k", "3", "--eps", "nan"], "eps must be"),
            ({}, ["benchmark", "--n", "1024", "--k", "20", "--trials", "1", "--eps", "nan"], "eps must be"),
            ({}, ["approx", "--n-list", "1024", "--eps", "nan"], "eps must be"),
            ({}, ["approx", "--f", "abs@nan", "--n-list", "1024"], "kink"),
            ({}, ["approx", "--n-list", "1024", "--delta", "-2"], "delta must be"),
            ({}, ["approx", "--n-list", "1024", "--delta", "nan"], "delta must be"),
        ],
        ids=["zipf:abc", "file:missing", "file:nan", "file:k-mismatch", "histogram-1.5", "histogram-missing",
             "histogram-above-int64", "histogram-int64-wrap", "estimate-int64-wrap", "pml-above-cap", "abs@x",
             "n-list-10x", "profile-a,b", "profile-0,0", "profile-1,-1", "profile-index-3", "profile-no-phi",
             "profile-n=0", "profile-n=1.9", "profile-phi=2.0", "profile-n=true", "kmax-0", "resolution-0", "benchmark-delta", "competitive-seed",
             "estimate-c1=nan", "approx-c2=nan", "competitive-c2=inf", "competitive-eps=nan",
             "benchmark-eps=nan", "approx-eps=nan", "abs@nan", "approx-delta=-2", "approx-delta=nan"],
    )
    def test_malformed_values_are_usage_errors(self, tmp_path, monkeypatch, capsys, files, args, message):
        monkeypatch.chdir(tmp_path)
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        with pytest.raises(SystemExit) as exc:
            run_cli([*args, "--out", "out"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "sortdist: error:" in err and message in err
        assert not (tmp_path / "out").exists()

    def test_pml_profile_forms(self, tmp_path):
        out1 = tmp_path / "p1.json"
        out2 = tmp_path / "p2.json"
        assert run_cli(["pml", "--profile", "2,0,1", "--kmax", "3", "--out", str(out1)]) == 0
        sparse = json.dumps({"n": 5, "phi": {"1": 2, "3": 1}})
        assert run_cli(["pml", "--profile", sparse, "--kmax", "3", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        # trailing zero multiplicities are dropped
        out3, out4 = tmp_path / "p3.json", tmp_path / "p4.json"
        assert run_cli(["pml", "--profile", "1,0,0", "--out", str(out3)]) == 0
        assert run_cli(["pml", "--profile", '{"n": 1, "phi": {"1": 1}}', "--out", str(out4)]) == 0
        assert out3.read_bytes() == out4.read_bytes()

    def test_pml_likelihood_of_one_draw(self, tmp_path):
        # every profile of one draw has probability 1, and the masses
        # returned are scored, so the bound is at most 1
        out = tmp_path / "p.json"
        assert run_cli(["pml", "--profile", "1", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        like = payload["certified_likelihood_lower_bound"]
        assert like <= 1.0 and like == pytest.approx(1.0, rel=1e-15)
        assert sum(payload["pml_masses"]) == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("resolution", [PML_RESOLUTION_CAP + 1, 1000])
    def test_pml_resolution_above_the_cap_builds_no_grid(self, tmp_path, monkeypatch, capsys, resolution):
        def no_grid(resolution, k_max):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(pml_module, "_sorted_grid_rows", no_grid)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run_cli(["pml", "--profile", "2,0,1", "--resolution", str(resolution), "--out", "out.json"])
        assert exc.value.code == 2
        assert f"grid_resolution <= {PML_RESOLUTION_CAP}" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize(
        "form, value",
        [("--profile", '{"n": 10000000, "phi": {"10000000": 1}}'), ("--profile", "10000000"), ("--histogram", "h.txt")],
        ids=["sparse-json", "comma-list", "histogram"],
    )
    def test_pml_rejects_a_large_n_before_building_its_profile(self, tmp_path, monkeypatch, capsys, form, value):
        # a profile is an array of length n, and building one at n = 1e7
        # traces 160-240 MB, so the cap must reject the n before the build
        monkeypatch.chdir(tmp_path)
        (tmp_path / "h.txt").write_text("10000000\n")
        tracemalloc.start()
        try:
            with pytest.raises(SystemExit) as exc:
                run_cli(["pml", form, value, "--out", "out.json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.code == 2
        assert f"brute-force search capped at n <= {EXACT_SCALE_N}," in capsys.readouterr().err
        assert peak < 2**20

    def test_approx_rerun_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["approx", "--f", "abs", "--n-list", "1024"]
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        assert self.read_all(a) == self.read_all(b)

    def test_competitive_rerun_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["competitive", "--n", "5", "--k", "3", "--eps", "0.6"]
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        assert self.read_all(a) == self.read_all(b)
