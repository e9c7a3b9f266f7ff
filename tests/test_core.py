import functools
import itertools
import math
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaln

import sortdist
from sortdist.core import (
    DESK_PROFILE_CAP,
    EXACT_SCALE_N,
    AtomicMeasure,
    DiscreteDistribution,
    Histogram,
    Profile,
    ProfileBatch,
    _partitions,
    binomial_pmf,
    count_profiles,
    desk_profiles,
    histogram_of_samples,
    measure_of,
    poisson_interval_prob,
    poisson_pmf,
    poisson_pmf_windows,
    profile_of_histogram,
    profile_probability,
    profile_probability_many,
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

    def test_histogram_total_is_exact_or_rejected(self):
        top = np.iinfo(np.int64).max
        # large counts whose total still fits, up to the very top
        for counts in ([top], [top - 5, 2, 3], [2**62, 2**61, 2**61 - 1]):
            assert Histogram(counts).n == sum(counts)
        for counts in ([2**62, 2**62], [top, 1], [top // 3 + 1] * 3):
            with pytest.raises(DomainError, match="total"):
                Histogram(counts)

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
    """Every profile of n, `desk_profiles(n, n)`."""

    def test_n1(self):
        profs = desk_profiles(1, 1)
        assert len(profs) == 1 and profs[0].phi.tolist() == [1]

    @pytest.mark.parametrize("n,count", [(4, 5), (10, 42)])
    def test_known_counts(self, n, count):
        assert len(desk_profiles(n, n)) == count

    def test_counts_match_partition_numbers(self):
        for n in range(1, 16):
            assert len(desk_profiles(n, n)) == _partition_count(n)

    def test_cardinality_bound(self):
        for n in range(1, 21):
            assert len(desk_profiles(n, n)) <= math.exp(3 * math.sqrt(n))

    def test_cap(self):
        # p(22) = 1,002 profiles fit under the desk cap, p(23) = 1,255 do not
        assert len(desk_profiles(22, 22)) == _partition_count(22) <= DESK_PROFILE_CAP
        with pytest.raises(ResourceLimitError, match=f"capped at {DESK_PROFILE_CAP} profiles"):
            desk_profiles(23, 23)

    def test_all_distinct(self):
        profs = desk_profiles(12, 12)
        keys = {tuple(p.phi.tolist()) for p in profs}
        assert len(keys) == len(profs)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_partitions_in_decreasing_lexicographic_order(self, n):
        # competitive.json lists its PML rows in this order
        parts = [phi.parts() for phi in desk_profiles(n, n)]
        assert all(sum(p) == n and list(p) == sorted(p, reverse=True) for p in parts)
        assert all(a > b for a, b in zip(parts, parts[1:]))

    def test_bounded_partitions_equal_the_unbounded_filtered_by_length(self):
        for n in range(0, 13):
            for max_part in range(1, n + 2):
                unbounded = list(_partitions(n, max_part, n))
                for max_parts in range(0, n + 2):
                    want = [p for p in unbounded if len(p) <= max_parts]
                    assert list(_partitions(n, max_part, max_parts)) == want


@functools.cache
def _bounded_partition_count(n, k):
    # p_k(n) = p_(k-1)(n) + p_k(n - k): a partition of n into at most k
    # parts has fewer than k, or k parts that each lose 1
    if n == 0:
        return 1
    if n < 0 or k == 0:
        return 0
    return _bounded_partition_count(n, k - 1) + _bounded_partition_count(n - k, k)


class TestDeskProfiles:
    @pytest.mark.parametrize("n,k,count", [(8, 4, 15), (12, 4, 34), (32, 4, 351), (32, 5, 831), (48, 4, 1033)])
    def test_counts_match_the_recurrence(self, n, k, count):
        assert _bounded_partition_count(n, k) == count
        assert count_profiles(n, k) == count
        profiles = desk_profiles(n, k)
        assert len(profiles) == count
        assert all(phi.n == n and phi.distinct_symbols <= k for phi in profiles)
        assert len({tuple(phi.phi.tolist()) for phi in profiles}) == count

    def test_counts_over_a_grid(self):
        for n in range(1, 41):
            for k in range(1, 8):
                assert count_profiles(n, k) == _bounded_partition_count(n, k)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_the_enumeration_filtered_in_its_order(self, n):
        # the desk's sums over profiles add in the order of all of n's profiles
        for k in range(1, n + 1):
            want = [phi.parts() for phi in desk_profiles(n, n) if phi.distinct_symbols <= k]
            assert [phi.parts() for phi in desk_profiles(n, k)] == want

    def test_profiles_left_out_have_probability_exactly_zero(self):
        rng = np.random.default_rng(31)
        for n in range(2, 13):
            for k in range(1, min(n, 6)):
                rows = rng.dirichlet(np.ones(k), size=8)
                kept = {phi.parts() for phi in desk_profiles(n, k)}
                left = [phi for phi in desk_profiles(n, n) if phi.parts() not in kept]
                assert left and all(phi.distinct_symbols > k for phi in left)
                for phi in left:
                    assert np.all(dense_profile_probability_many(rows, phi) == 0.0)
                assert np.all(profile_probability_many(rows, ProfileBatch(left, k)) == 0.0)

    @pytest.mark.parametrize("n", [16, 24, 32])
    def test_the_desk_holds_all_the_mass(self, n):
        rng = np.random.default_rng(n)
        for k in (3, 4):
            rows = np.vstack([np.full(k, 1.0 / k), rng.dirichlet(np.ones(k), size=4)])
            totals = profile_probability_many(rows, ProfileBatch(desk_profiles(n, k), k)).sum(axis=0)
            assert np.all(np.abs(totals - 1.0) <= 1e-13)

    def test_caps(self):
        assert len(desk_profiles(EXACT_SCALE_N, 1)) == 1
        with pytest.raises(ResourceLimitError, match=f"n <= {EXACT_SCALE_N}"):
            desk_profiles(EXACT_SCALE_N + 1, 1)
        assert count_profiles(49, 4) <= DESK_PROFILE_CAP < count_profiles(50, 4)
        with pytest.raises(ResourceLimitError, match="1154 with at most k = 4 parts"):
            desk_profiles(50, 4)
        for n, k in ((0, 2), (4, 0)):
            with pytest.raises(DomainError):
                desk_profiles(n, k)


def _monomial_symmetric_by_placements(p_rows, parts):
    """Oracle: m_lambda as the sum over every distinct placement of the
    multiset `parts` onto the k slots, each slot taking at most one part."""
    rows = np.atleast_2d(np.asarray(p_rows, dtype=float))
    k = rows.shape[1]
    values = sorted(set(parts), reverse=True)

    def placements(free, gi):
        if gi == len(values):
            yield ()
            return
        for chosen in itertools.combinations(sorted(free), parts.count(values[gi])):
            for rest in placements(free - set(chosen), gi + 1):
                yield chosen + rest

    idx = np.asarray(list(placements(frozenset(range(k)), 0)), dtype=np.intp)
    if idx.size == 0:  # more parts than slots
        return np.zeros(rows.shape[0])
    exps = np.repeat(np.asarray(values, dtype=float), [parts.count(v) for v in values])
    return np.prod(rows[:, idx] ** exps, axis=2).sum(axis=1)


def dense_monomial_symmetric(p_rows, parts):
    """Oracle: m_lambda at each row by the single-profile dynamic program
    over the k symbols, the state counting the parts of each distinct value
    placed so far, with the row axis last.  The powers come from one
    array-exponent `**` over the profile's distinct values, as in
    `profile_probability_many`."""
    rows = np.atleast_2d(np.asarray(p_rows, dtype=float))
    values, mults = np.unique(np.asarray(parts, dtype=np.int64), return_counts=True)
    powers = rows.T ** values[:, None, None]
    state = np.zeros((*(mults + 1), rows.shape[0]))
    state[(0,) * values.size] = 1.0
    for j in range(rows.shape[1]):
        prev = state.copy()
        for axis, pw in enumerate(powers):
            before = (slice(None),) * axis
            state[before + (slice(1, None),)] += prev[before + (slice(None, -1),)] * pw[j]
    return state[tuple(mults.tolist())]


def dense_profile_probability_many(p_rows, phi):
    """Oracle: the profile's multinomial coefficient times the dense DP."""
    n = phi.n
    log_coef = gammaln(n + 1) - sum(gammaln(i + 1) * int(phi.phi[i - 1]) for i in range(1, n + 1))
    return math.exp(log_coef) * dense_monomial_symmetric(p_rows, phi.parts())


def multinomial_coef(phi):
    """n! / prod_i (i!)^phi_i in exact integers, then rounded to a float."""
    denom = math.prod(math.factorial(i + 1) ** int(c) for i, c in enumerate(phi.phi))
    return math.factorial(phi.n) / denom


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
            for phi in desk_profiles(n, n):
                want = _profile_probability_by_sequences(p, phi)
                got = profile_probability(p, phi)
                assert got == pytest.approx(want, abs=1e-12)

    def test_total_probability_one(self):
        rng = np.random.default_rng(4)
        for n, k in [(6, 3), (8, 4), (12, 6)]:
            p = random_dist(rng, k)
            total = sum(profile_probability(p, phi) for phi in desk_profiles(n, n))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_permutation_and_padding_invariance(self):
        rng = np.random.default_rng(5)
        p = random_dist(rng, 4)
        perm = DiscreteDistribution(p.masses[rng.permutation(4)])
        padded = p.padded(6)
        for phi in desk_profiles(5, 5):
            base = profile_probability(p, phi)
            assert profile_probability(perm, phi) == pytest.approx(base, rel=1e-12, abs=1e-15)
            assert profile_probability(padded, phi) == pytest.approx(base, rel=1e-12, abs=1e-15)

    def test_monomial_symmetric_ignores_part_order(self):
        # the oracle reads the parts as a multiset; a batch reads each
        # profile's bytes wherever it stands and whatever stands beside it
        rows = np.random.default_rng(6).random((7, 5))
        for parts in [(3, 1, 1), (2, 2, 1, 1), (4, 2, 1), (1, 1, 1, 1, 1)]:
            want = dense_monomial_symmetric(rows, parts).tobytes()
            for perm in set(itertools.permutations(parts)):
                assert dense_monomial_symmetric(rows, perm).tobytes() == want
        profiles = desk_profiles(6, 6)
        alone = [profile_probability_many(rows, ProfileBatch([phi], 5))[0] for phi in profiles]
        positions = list(range(len(profiles)))
        for order in (positions, positions[::-1], positions[1::2] + positions[::2]):
            got = profile_probability_many(rows, ProfileBatch([profiles[i] for i in order], 5))
            for i, row in zip(order, got):
                assert row.tobytes() == alone[i].tobytes()

    def test_monomial_symmetric_matches_the_placement_sum(self):
        rng = np.random.default_rng(7)
        for k in (1, 3, 5, 8):
            rows = rng.dirichlet(np.ones(k), size=7)
            for n in range(1, 13):
                profiles = desk_profiles(n, n)
                probs = profile_probability_many(rows, ProfileBatch(profiles, k))
                for phi, got in zip(profiles, probs):
                    parts = phi.parts()
                    if len(parts) > k:
                        assert np.all(got == 0.0), (k, parts)
                        continue
                    want = multinomial_coef(phi) * _monomial_symmetric_by_placements(rows, parts)
                    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0, err_msg=f"{k} {parts}")

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 8])
    @pytest.mark.parametrize("nrows", [1, 22])
    def test_batch_matches_the_dense_dp_byte_for_byte(self, k, nrows):
        rng = np.random.default_rng(100 * k + nrows)
        rows = rng.dirichlet(np.ones(k), size=nrows)
        rows[0] = 1.0 / k
        for n in range(1, 13):
            profiles = desk_profiles(n, n)
            got = profile_probability_many(rows, ProfileBatch(profiles, k))
            assert got.shape == (len(profiles), nrows)
            for phi, row in zip(profiles, got):
                assert row.tobytes() == dense_profile_probability_many(rows, phi).tobytes(), (k, phi.parts())

    @pytest.mark.parametrize("budget", [1, 1 << 12], ids=["one-row", "few-rows"])
    def test_row_blocks_keep_every_byte(self, monkeypatch, budget):
        # the DP takes as many rows at a time as its state budget allows; a
        # budget below one row's state still takes one row
        rng = np.random.default_rng(9)
        for k in (3, 4, 5):
            rows = np.vstack([np.full(k, 1.0 / k), rng.dirichlet(np.ones(k), size=22)])
            for n in (4, 8, 12):
                batch = ProfileBatch(desk_profiles(n, n), k)
                monkeypatch.setattr(sortdist.core, "_DP_DOUBLES", 1 << 62)
                whole = profile_probability_many(rows, batch)
                monkeypatch.setattr(sortdist.core, "_DP_DOUBLES", budget)
                assert profile_probability_many(rows, batch).tobytes() == whole.tobytes(), (k, n)

    @pytest.mark.parametrize("parts", [(2, 2), (4, 4), (2, 2, 2, 2)])
    def test_all_equal_parts_keep_the_bytes_of_their_own_powers(self, parts):
        # a one-element exponent takes numpy's x*x fast path, so these
        # profiles read p**2 or p**4 apart from the pow that a longer
        # exponent array takes: 1/3 squares to 0.1111111111111111 by [2]
        # and to 0.11111111111111109 by [1, 2]
        assert (np.full((1, 1), 1 / 3) ** np.asarray([2])[:, None, None]).item() == 0.1111111111111111
        assert (np.full((1, 1), 1 / 3) ** np.asarray([1, 2])[:, None, None])[1].item() == 0.11111111111111109
        n = sum(parts)
        profiles = desk_profiles(n, n)
        (at,) = [i for i, g in enumerate(profiles) if g.parts() == parts]
        phi = profiles[at]
        for k in (3, 4, 5):
            rng = np.random.default_rng(k)
            for rows in (np.full((1, k), 1.0 / k), rng.dirichlet(np.ones(k), size=22)):
                got = profile_probability_many(rows, ProfileBatch(profiles, k))
                want = dense_profile_probability_many(rows, phi).tobytes()
                assert got[at].tobytes() == want
                assert profile_probability_many(rows, ProfileBatch([phi], k))[0].tobytes() == want

    def test_more_parts_than_k_give_exactly_zero(self):
        rows = np.random.default_rng(8).dirichlet(np.ones(3), size=5)
        profiles = desk_profiles(7, 7)
        batch = ProfileBatch(profiles, 3)
        got = profile_probability_many(rows, batch)
        for phi, row in zip(profiles, got):
            if phi.distinct_symbols > 3:
                assert row.tobytes() == np.zeros(5).tobytes()
            else:
                assert np.all(row > 0.0)
        assert batch.live.tolist() == [i for i, phi in enumerate(profiles) if phi.distinct_symbols <= 3]
        assert profile_probability_many(rows, ProfileBatch([profiles[-1]], 3)).tobytes() == np.zeros((1, 5)).tobytes()

    def test_rows_must_have_the_batch_k_masses(self):
        with pytest.raises(DomainError):
            profile_probability_many(np.full((2, 4), 0.25), ProfileBatch(desk_profiles(4, 4), 3))

    def test_scale_cap(self):
        # n! leaves the double range past EXACT_SCALE_N; a batch holds at
        # most DESK_PROFILE_CAP profiles
        past = Profile.from_sparse(EXACT_SCALE_N + 1, {EXACT_SCALE_N + 1: 1})
        with pytest.raises(ResourceLimitError):
            profile_probability(dist(0.5, 0.5), past)
        with pytest.raises(ResourceLimitError):
            ProfileBatch([past], 2)
        assert profile_probability(dist(0.5, 0.5), Profile.from_sparse(EXACT_SCALE_N, {EXACT_SCALE_N: 1})) > 0.0
        profiles = desk_profiles(49, 4)
        with pytest.raises(ResourceLimitError, match=f"{DESK_PROFILE_CAP} profiles"):
            ProfileBatch(profiles + profiles[:DESK_PROFILE_CAP + 1 - len(profiles)], 4)
        assert len(ProfileBatch(profiles + profiles[:DESK_PROFILE_CAP - len(profiles)], 4)) == DESK_PROFILE_CAP

    def test_large_support(self):
        # k is not capped
        rng = np.random.default_rng(9)
        p = random_dist(rng, 12)
        total = sum(profile_probability(p, phi) for phi in desk_profiles(6, 6))
        assert total == pytest.approx(1.0, abs=1e-12)
        p = random_dist(rng, 10)
        for phi in desk_profiles(4, 4):
            want = _profile_probability_by_sequences(p, phi)
            assert profile_probability(p, phi) == pytest.approx(want, rel=1e-12, abs=1e-15)


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
        # a zero rate takes the saddle point like any other: a deviance of
        # +inf above count 0, hence a pmf of exactly 0.0 there, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert poisson_pmf(0.0, [0, 1, 2.5, 40]).tolist() == [1.0, 0.0, 0.0, 0.0]

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

    @pytest.mark.parametrize("chunk", [None, 7, 1000, 300], ids=["default-chunk", "chunk-7", "chunk-1000", "chunk-300"])
    def test_poisson_windows_are_byte_equal_to_poisson_pmf(self, monkeypatch, chunk):
        # small chunks put chunk edges between and inside the windows; the
        # windows are collected before they are compared, so every chunk's
        # windows are checked after the later chunks have reused the workspace
        if chunk is not None:
            monkeypatch.setattr(sortdist.core, "_CHUNK_COUNTS", chunk)
        # zero rates, windows from count 0, one-count, empty and far windows
        lams = [0.0, 0.0, 1e-4, 0.7, 3.0, 15.5, 16.0, 250.0, 4096.0, 65536.0, 9.0]
        lo = [0, 2, 0, 0, 1, 0, 3, 100, 3900, 65000, 5]
        hi = [4, 6, 40, 0, 1, 80, 60, 400, 4300, 66000, 4]
        # windows wider than a 1000-count chunk, one of them from count 0
        lams += [5000.0, 800.0]
        lo += [4000, 0]
        hi += [6200, 1500]
        # windows across both ends of _bd0's series region, 0.1 (x + mu) > |x - mu|
        lams += [100.0, 37.5, 1e4]
        lo += [50, 1, 8000]
        hi += [200, 90, 12500]
        # a run of zero-rate and empty windows between two short ones
        lams += [2.0, 0.0, 0.0, 3.0, 0.0, 7.0, 0.0, 5.0]
        lo += [0, 0, 5, 9, 1, 4, 0, 1]
        hi += [6, 3, 2, 8, 0, 3, 0, 9]
        # windows from count 0 over many rates, where numpy's exp(-lam) and
        # math.exp(-lam) can differ in the last bit (at 3 of these 60 rates
        # with numpy 2.4)
        lams += np.linspace(0.1, 6.0, 60).tolist()
        lo += [0] * 60
        hi += [3] * 60
        windows = list(poisson_pmf_windows(np.asarray(lams), lo, hi))
        assert len(windows) == len(lams)
        for lam, a, b, got in zip(lams, lo, hi, windows):
            want = poisson_pmf(lam, np.arange(a, b + 1))
            assert got.tobytes() == want.tobytes()
        if chunk is not None:
            # at least 3 chunks, a window wider than a chunk, and a chunk
            # whose counts take both the series and the direct form of _bd0
            near = {}
            for lam, a, got in zip(lams, lo, windows):
                x = np.arange(a, a + got.size, dtype=float)
                near.setdefault(id(got.base), []).append(np.abs(x - lam) < 0.1 * (x + lam))
            assert len(near) >= 3
            assert max(got.size for got in windows) > chunk
            assert any(np.concatenate(v).any() and not np.concatenate(v).all() for v in near.values())

    def test_bd0_workspace_keeps_bytes(self):
        # all near, all far, mixed, zero counts and zero rates, one rate or
        # one per count, against rows longer than the input that hold stale values
        from sortdist.core import _BD0_ROWS, _bd0

        rng = np.random.default_rng(5)
        work = np.full((_BD0_ROWS, 400), np.nan)
        for trial in range(300):
            size = int(rng.integers(0, 300))
            x = np.floor(rng.exponential(float(rng.choice([1.0, 30.0, 1e3, 1e5])), size))
            kind = trial % 4
            if kind == 0:
                mu = rng.exponential(float(rng.choice([1.0, 30.0, 1e3, 1e5])), size)
                mu[rng.random(size) < 0.05] = 0.0
            elif kind == 1:
                mu = (x + 1.0) * rng.uniform(0.85, 1.15, size)
            elif kind == 2:
                mu = float(rng.exponential(100.0))
            else:
                mu = (x + 1.0) * rng.choice([0.01, 100.0], size)
            with np.errstate(divide="ignore", invalid="ignore"):
                want = _bd0(x, mu)
                out = np.full(size, 7.0)
                got = _bd0(x, mu, out=out, work=work)
            assert got is out
            assert got.tobytes() == want.tobytes()
            work[:, ::7] = rng.normal(size=work[:, ::7].shape)

    def test_poisson_windows_domain_errors(self):
        with pytest.raises(DomainError):
            list(poisson_pmf_windows([1.0, -1.0], [0, 0], [3, 3]))
        with pytest.raises(DomainError):
            list(poisson_pmf_windows([1.0], [-1], [3]))
        # inputs of unequal length or of more than one axis are not cut short
        with pytest.raises(DomainError):
            list(poisson_pmf_windows([1.0, 2.0, 3.0], [0], [3, 4]))
        with pytest.raises(DomainError):
            list(poisson_pmf_windows([1.0, 2.0], [0, 0, 0], [3, 4]))
        with pytest.raises(DomainError):
            list(poisson_pmf_windows([1.0, 2.0], [0, 0], [3, 4, 5]))
        with pytest.raises(DomainError):
            list(poisson_pmf_windows([[1.0, 2.0]], [[0, 0]], [[3, 4]]))
        with pytest.raises(DomainError):
            list(poisson_pmf_windows(1.0, 0, 3))

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
