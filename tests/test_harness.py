import json
import math
from pathlib import Path

import numpy as np
import pytest

from sortdist.cli import main as cli_main
from sortdist.core import DiscreteDistribution, Histogram, poisson_pmf
from sortdist.errors import DomainError, ResourceLimitError
from sortdist.harness import (
    ExperimentConfig,
    TrialRecord,
    make_distribution,
    run_approx_sweep,
    run_benchmark,
    run_competitive_check,
    trials_to_csv,
    wilson_interval,
)
from sortdist.sampling import (
    empirical_measure,
    poisson_draw,
    sample_iid,
    sample_poissonized,
    substream,
)
from sortdist.wasserstein import w1
from sortdist.core import measure_of, sorted_l1_vectors


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
        for lam in (3.0, 80.0):
            gen = substream(11, 0)
            draws = np.asarray([poisson_draw(gen, lam) for _ in range(20000)])
            se = math.sqrt(lam / draws.size)
            assert draws.mean() == pytest.approx(lam, abs=5 * se)
            assert draws.var() == pytest.approx(lam, rel=0.08)

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

    def test_file_source(self, tmp_path):
        path = tmp_path / "dist.json"
        path.write_text("[0.25, 0.75]")
        p = make_distribution(f"file:{path}", 2)
        assert p.masses.tolist() == [0.25, 0.75]

    def test_unknown(self):
        with pytest.raises(DomainError):
            make_distribution("cauchy", 3)


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


class TestCompetitive:
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
        with pytest.raises(ResourceLimitError):
            run_competitive_check(ExperimentConfig(n=9, k=3))


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


def run_cli(args):
    return cli_main(args)


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
        "counts, k_flag", [("40\n9\n0\n3\n", ["--k", "-2"]), ("", [])], ids=["k=-2", "k=0"]
    )
    def test_estimate_rejects_k_below_one(self, tmp_path, counts, k_flag):
        # an empty histogram file leaves the default k at 0 lines
        hist = tmp_path / "h.txt"
        hist.write_text(counts)
        with pytest.raises(DomainError):
            run_cli(["estimate", str(hist), "--n", "64", "--c1", "2", *k_flag, "--out", str(tmp_path / "e.json")])

    def test_pml_profile_forms(self, tmp_path):
        out1 = tmp_path / "p1.json"
        out2 = tmp_path / "p2.json"
        assert run_cli(["pml", "--profile", "2,0,1", "--kmax", "3", "--out", str(out1)]) == 0
        sparse = json.dumps({"n": 5, "phi": {"1": 2, "3": 1}})
        assert run_cli(["pml", "--profile", sparse, "--kmax", "3", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

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
