import itertools
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import sortdist
from sortdist.core import (
    AtomicMeasure,
    DiscreteDistribution,
    Histogram,
    Profile,
    _partitions,
    binomial_pmf,
    enumerate_profiles,
    histogram_of_samples,
    measure_of,
    monomial_symmetric,
    poisson_interval_prob,
    poisson_pmf,
    poisson_pmf_windows,
    profile_of_histogram,
    profile_probability,
    sorted_l1,
)
from sortdist.errors import DomainError, ResourceLimitError


def dist(*masses):
    return DiscreteDistribution(np.asarray(masses, dtype=float))


def random_dist(rng, k):
    m = rng.random(k) + 1e-3
    return DiscreteDistribution(m / m.sum())


class TestHistogramProfile:
    def test_histogram_basic(self):
        h = histogram_of_samples([1, 2, 1], 2)
        assert h.counts.tolist() == [2, 1] and h.n == 3

    def test_histogram_empty(self):
        h = histogram_of_samples([], 3)
        assert h.counts.tolist() == [0, 0, 0] and h.n == 0

    def test_histogram_single_symbol_run(self):
        h = histogram_of_samples([2, 2, 2, 2], 2)
        assert h.counts.tolist() == [0, 4] and h.n == 4

    def test_histogram_out_of_range(self):
        with pytest.raises(DomainError):
            histogram_of_samples([0, 1], 2)
        with pytest.raises(DomainError):
            histogram_of_samples([3], 2)

    def test_histogram_rejects_non_integer_counts(self):
        for counts in ([1.7, 2], [np.nan, 2.0], [np.inf]):
            with pytest.raises(DomainError, match="integers"):
                Histogram(counts)
        assert Histogram([3.0, 0.0]).counts.tolist() == [3, 0]

    def test_distribution_rejects_non_finite_masses(self):
        # NaN passes both the sign and the sum check
        for masses in ([np.nan, 0.5, 0.5], [np.inf, 0.5]):
            with pytest.raises(DomainError, match="finite"):
                DiscreteDistribution(masses)

    def test_profile_of_histogram(self):
        assert profile_of_histogram(Histogram([2, 1])).phi.tolist() == [1, 1, 0]
        assert profile_of_histogram(Histogram([0, 4])).phi.tolist() == [0, 0, 0, 1]
        assert profile_of_histogram(Histogram([1, 1, 1])).phi.tolist() == [3, 0, 0]

    def test_profile_of_empty(self):
        with pytest.raises(DomainError):
            profile_of_histogram(Histogram([0, 0]))

    def test_profile_consistency_enforced(self):
        with pytest.raises(DomainError):
            Profile(np.array([1, 1]))  # 1*1 + 2*1 = 3 != 2

    def test_empty_profile_rejected(self):
        with pytest.raises(DomainError):
            Profile(np.zeros(0, dtype=np.int64))

    def test_profile_sparse_roundtrip(self):
        p = profile_of_histogram(Histogram([2, 1, 1]))
        q = Profile.from_sparse_json(p.to_sparse_json())
        assert np.array_equal(p.phi, q.phi) and p.n == q.n


def _partition_count(n):
    # Euler recurrence oracle, independent of the enumerator
    p = [1] + [0] * n
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            p[j] += p[j - i]
    return p[n]


class TestEnumerateProfiles:
    def test_n1(self):
        profs = enumerate_profiles(1)
        assert len(profs) == 1 and profs[0].phi.tolist() == [1]

    @pytest.mark.parametrize("n,count", [(4, 5), (10, 42)])
    def test_known_counts(self, n, count):
        assert len(enumerate_profiles(n)) == count

    def test_counts_match_partition_numbers(self):
        for n in range(1, 16):
            assert len(enumerate_profiles(n)) == _partition_count(n)

    def test_cardinality_bound(self):
        for n in range(1, 21):
            assert len(enumerate_profiles(n)) <= math.exp(3 * math.sqrt(n))

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            enumerate_profiles(21)

    def test_all_distinct(self):
        profs = enumerate_profiles(12)
        keys = {tuple(p.phi.tolist()) for p in profs}
        assert len(keys) == len(profs)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_partitions_in_decreasing_lexicographic_order(self, n):
        # competitive.json lists its PML rows in this order
        parts = [phi.parts() for phi in enumerate_profiles(n)]
        assert all(sum(p) == n and list(p) == sorted(p, reverse=True) for p in parts)
        assert all(a > b for a, b in zip(parts, parts[1:]))

    def test_bounded_partitions_equal_the_unbounded_filtered_by_length(self):
        for n in range(0, 13):
            for max_part in range(1, n + 2):
                unbounded = list(_partitions(n, max_part, n))
                for max_parts in range(0, n + 2):
                    want = [p for p in unbounded if len(p) <= max_parts]
                    assert list(_partitions(n, max_part, max_parts)) == want


def _profile_probability_by_sequences(p, phi):
    """Oracle: enumerate all k^n ordered sequences (tiny scale only)."""
    k, n = p.k, phi.n
    total = 0.0
    for seq in itertools.product(range(1, k + 1), repeat=n):
        h = histogram_of_samples(seq, k)
        if np.array_equal(profile_of_histogram(h).phi, phi.phi):
            total += float(np.prod(p.masses[np.asarray(seq) - 1]))
    return total


class TestProfileProbability:
    def test_fair_coin_n2(self):
        p = dist(0.5, 0.5)
        two_distinct = profile_of_histogram(Histogram([1, 1]))
        one_pair = profile_of_histogram(Histogram([2, 0]))
        assert profile_probability(p, two_distinct) == pytest.approx(0.5, abs=1e-15)
        assert profile_probability(p, one_pair) == pytest.approx(0.5, abs=1e-15)

    def test_deterministic_source(self):
        p = dist(1.0, 0.0)
        run = profile_of_histogram(Histogram([5, 0]))
        assert profile_probability(p, run) == pytest.approx(1.0, abs=1e-15)

    def test_matches_sequence_enumeration(self):
        rng = np.random.default_rng(3)
        for n, k in [(3, 2), (4, 3), (5, 2), (5, 3)]:
            p = random_dist(rng, k)
            for phi in enumerate_profiles(n):
                want = _profile_probability_by_sequences(p, phi)
                got = profile_probability(p, phi)
                assert got == pytest.approx(want, abs=1e-12)

    def test_total_probability_one(self):
        rng = np.random.default_rng(4)
        for n, k in [(6, 3), (8, 4), (12, 6)]:
            p = random_dist(rng, k)
            total = sum(profile_probability(p, phi) for phi in enumerate_profiles(n))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_permutation_and_padding_invariance(self):
        rng = np.random.default_rng(5)
        p = random_dist(rng, 4)
        perm = DiscreteDistribution(p.masses[rng.permutation(4)])
        padded = p.padded(6)
        for phi in enumerate_profiles(5):
            base = profile_probability(p, phi)
            assert profile_probability(perm, phi) == pytest.approx(base, rel=1e-12, abs=1e-15)
            assert profile_probability(padded, phi) == pytest.approx(base, rel=1e-12, abs=1e-15)

    def test_monomial_symmetric_ignores_part_order(self):
        rows = np.random.default_rng(6).random((7, 5))
        for parts in [(3, 1, 1), (2, 2, 1, 1), (4, 2, 1), (1, 1, 1, 1, 1)]:
            want = monomial_symmetric(rows, parts).tobytes()
            for perm in set(itertools.permutations(parts)):
                assert monomial_symmetric(rows, perm).tobytes() == want

    def test_scale_cap(self):
        p = dist(*([1.0 / 9] * 9))
        with pytest.raises(ResourceLimitError):
            profile_probability(p, enumerate_profiles(3)[0])


class TestSortedL1:
    def test_simple(self):
        assert sorted_l1(dist(0.5, 0.5), dist(0.3, 0.7)) == pytest.approx(0.4, abs=1e-15)

    def test_identity_and_permutation(self):
        p = dist(0.2, 0.8)
        assert sorted_l1(p, p) == 0.0
        assert sorted_l1(p, dist(0.8, 0.2)) == 0.0

    def test_matches_min_over_permutations(self):
        rng = np.random.default_rng(6)
        for k in (2, 3, 4, 5, 6):
            p, q = random_dist(rng, k), random_dist(rng, k)
            brute = min(
                float(np.abs(p.masses - q.masses[list(perm)]).sum())
                for perm in itertools.permutations(range(k))
            )
            assert sorted_l1(p, q) == pytest.approx(brute, abs=1e-12)

    def test_metric_axioms(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p, q, r = (random_dist(rng, 5) for _ in range(3))
            assert sorted_l1(p, q) == pytest.approx(sorted_l1(q, p), abs=1e-15)
            assert sorted_l1(p, r) <= sorted_l1(p, q) + sorted_l1(q, r) + 1e-12


class TestAtomicMeasure:
    def test_measure_of_merges(self):
        m = measure_of(dist(0.5, 0.5))
        assert m.locations.tolist() == [0.5] and m.weights.tolist() == [1.0]

    def test_measure_of_two_atoms(self):
        m = measure_of(dist(0.3, 0.7))
        assert m.locations.tolist() == [0.3, 0.7]
        assert m.weights.tolist() == [0.5, 0.5]

    def test_measure_of_point_mass(self):
        m = measure_of(dist(1.0, 0.0))
        assert m.locations.tolist() == [0.0, 1.0]
        assert m.is_probability

    def test_merge_tolerance(self):
        m = AtomicMeasure([0.5, 0.5 + 1e-16], [0.25, 0.25])
        assert m.locations.size == 1 and m.total_mass == pytest.approx(0.5)

    def test_negative_weight_rejected(self):
        with pytest.raises(DomainError):
            AtomicMeasure([0.1], [-0.2])


class TestPmfKernels:
    def test_poisson_point_values(self):
        assert poisson_pmf(0.0, 0) == 1.0
        assert poisson_pmf(1.0, 1) == pytest.approx(math.exp(-1), rel=1e-14)

    def test_binomial_point_value(self):
        assert binomial_pmf(4, 0.5, 2) == pytest.approx(0.375, rel=1e-14)

    def test_poisson_normalizes(self):
        for lam in (0.5, 7.0, 300.0, 1e6, 1e7):
            hw = 60 * math.sqrt(lam) + 60
            j = np.arange(max(0, int(lam - hw)), int(lam + hw))
            assert poisson_pmf(lam, j).sum() == pytest.approx(1.0, abs=1e-10)

    def test_binomial_normalizes(self):
        for n, q in [(10, 0.3), (1000, 0.5), (10**5, 0.01)]:
            j = np.arange(0, n + 1)
            assert binomial_pmf(n, q, j).sum() == pytest.approx(1.0, abs=1e-10)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            poisson_pmf(-1.0, 0)
        with pytest.raises(DomainError):
            poisson_pmf(1.0, -1)
        with pytest.raises(DomainError):
            binomial_pmf(3, 1.5, 0)

    def test_poisson_windows_are_byte_equal_to_poisson_pmf(self):
        # zero rates, windows from count 0, one-count, empty and far windows
        lams = [0.0, 0.0, 1e-4, 0.7, 3.0, 15.5, 16.0, 250.0, 4096.0, 65536.0, 9.0]
        lo = [0, 2, 0, 0, 1, 0, 3, 100, 3900, 65000, 5]
        hi = [4, 6, 40, 0, 1, 80, 60, 400, 4300, 66000, 4]
        windows = list(poisson_pmf_windows(np.asarray(lams), lo, hi))
        assert len(windows) == len(lams)
        for lam, a, b, got in zip(lams, lo, hi, windows):
            want = poisson_pmf(lam, np.arange(a, b + 1))
            assert got.tobytes() == want.tobytes()

    def test_poisson_windows_domain_errors(self):
        with pytest.raises(DomainError):
            list(poisson_pmf_windows([1.0, -1.0], [0, 0], [3, 3]))
        with pytest.raises(DomainError):
            list(poisson_pmf_windows([1.0], [-1], [3]))

    def test_poisson_cdf_matches_pmf_sum(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            lam = rng.uniform(0.1, 50)
            t = int(rng.integers(0, 80))
            want = float(poisson_pmf(lam, np.arange(0, t + 1)).sum())
            assert poisson_interval_prob(lam, 0, t) == pytest.approx(want, abs=1e-12)


def poisson_tail(lam: float, delta: float) -> tuple[float, float]:
    """Chernoff bounds for the two Poisson tails at relative deviation delta.

    Returns (upper, lower): exp(-(delta^2 ^ delta) lam / 3) bounding
    P(X >= (1+delta) lam) and exp(-delta^2 lam / 2) bounding
    P(X <= (1-delta) lam).
    """
    if delta <= 0:
        raise DomainError("delta must be > 0")
    if lam < 0:
        raise DomainError("rate must be >= 0")
    upper = math.exp(-(min(delta * delta, delta)) * lam / 3.0)
    lower = math.exp(-(delta * delta) * lam / 2.0)
    return upper, lower


class TestPoissonTail:
    def test_point_values(self):
        up, _ = poisson_tail(100.0, 1.0)
        assert up == pytest.approx(math.exp(-100.0 / 3.0), rel=1e-14)
        assert poisson_tail(0.0, 0.7) == (1.0, 1.0)
        _, low = poisson_tail(50.0, 0.5)
        assert low == pytest.approx(math.exp(-6.25), rel=1e-14)

    def test_bounds_dominate_exact_tails(self):
        for lam in (1.0, 10.0, 100.0):
            for delta in np.arange(0.1, 2.05, 0.1):
                up, low = poisson_tail(lam, float(delta))
                hi_cut = int(math.ceil((1 + delta) * lam - 1e-9))
                exact_up = 1.0 - poisson_interval_prob(lam, 0, hi_cut - 1)
                lo_cut = int(math.floor((1 - delta) * lam + 1e-9))
                exact_low = poisson_interval_prob(lam, 0, lo_cut) if lo_cut >= 0 else 0.0
                assert exact_up <= up + 1e-12
                assert exact_low <= low + 1e-12

    def test_delta_positive_required(self):
        with pytest.raises(DomainError):
            poisson_tail(1.0, 0.0)


def test_import_does_not_load_scipy_stats():
    # scipy.stats takes about 0.65 s to import, which every CLI run and benchmark set-up would pay
    src = str(Path(sortdist.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import sortdist; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
