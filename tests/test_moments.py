import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from sortdist.core import (
    DiscreteDistribution,
    Histogram,
    binom_half_logpmf,
    binomial_pmf,
    poisson_interval_prob,
    poisson_pmf,
)
from sortdist.harness import make_distribution
from sortdist.intervals import DEFAULT_C1, build_scheme
from sortdist.moments import (
    DEFAULT_C2,
    degree_for,
    g_eval,
    g_family,
    g_tilde_eval,
    moment_table_estimate,
    moment_table_true,
    smoothed_moment_true,
)
from sortdist.sampling import sample_poissonized, substream


def smoothed_moment_estimate(h, m, d, s, clamped=True):
    """Entry (m, d) of the estimated moment table: the unbiased estimator of
    one smoothed moment from the histogram alone (biased by the clamp when
    `clamped`)."""
    return float(moment_table_estimate(h, s, depth=d, clamped=clamped).values[s.index(m), d])


def effective_support(p, m, s):
    """Expected number of symbols whose half-sample count lands in interval m."""
    return smoothed_moment_true(p, m, 0, s)


def g_exact_fraction(d, center, x, n):
    """Independent oracle: the defining alternating sum in exact rationals."""
    c, x = Fraction(center), Fraction(x)
    total = Fraction(0)
    for dp in range(d + 1):
        prefix = Fraction(1)
        for dpp in range(dp):
            prefix *= x - Fraction(2 * dpp, n)
        total += math.comb(d, dp) * (-c) ** (d - dp) * prefix
    return total


class TestGKernel:
    def test_degree_zero_is_one(self):
        for x in (0.0, 0.3, 1.0):
            assert g_eval(0, 0.4, x, 100) == 1.0

    def test_degree_one_is_shift(self):
        assert g_eval(1, 0.3, 0.77, 100) == pytest.approx(0.47, abs=1e-15)

    def test_degree_two_at_zero_center(self):
        n = 100
        assert g_eval(2, 0.0, 0.5, n) == pytest.approx(0.5 * (0.5 - 2 / n), rel=1e-14)

    def test_matches_exact_rational_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(120):
            d = int(rng.integers(0, 13))
            num = int(rng.integers(0, 1001))
            c = Fraction(num, 1000)
            x = Fraction(int(rng.integers(0, 1001)), 1000)
            n = int(rng.integers(16, 4000))
            want = float(g_exact_fraction(d, c, x, n))
            got = g_eval(d, float(c), float(x), n)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-18)

    def test_family_consistent_with_single(self):
        fam = g_family(8, 0.2, np.array([0.1, 0.5]), 500)
        for d in range(9):
            assert fam[d][0] == pytest.approx(g_eval(d, 0.2, 0.1, 500), rel=1e-14)

    def test_forward_difference_identity(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(1000):
            d = int(rng.integers(1, 31))
            c = float(rng.uniform(0, 1))
            z = float(rng.uniform(0, 1))
            n = int(rng.integers(32, 5001))
            lhs = g_eval(d, c, z + 2.0 / n, n) - g_eval(d, c, z, n)
            rhs = (2.0 * d / n) * g_eval(d - 1, c, z, n)
            worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
        assert worst <= 1e-9

    def test_poisson_unbiasedness(self):
        # truncated-exact expectation equals (p - center)^d
        rng = np.random.default_rng(12)
        for _ in range(40):
            n = int(rng.integers(64, 5001))
            p = float(rng.uniform(1e-3, 1.0))
            c = float(rng.uniform(0, 1))
            d = int(rng.integers(1, 11))
            lam = n * p / 2.0
            hw = 60.0 * math.sqrt(lam) + 80.0
            t = np.arange(max(0, int(lam - hw)), int(lam + hw))
            vals = g_family(d, c, t / (n / 2.0), n)[d]
            got = float(poisson_pmf(lam, t) @ vals)
            assert got == pytest.approx((p - c) ** d, abs=1e-7)


class TestGTilde:
    def test_clamps_left_and_right(self):
        s = build_scheme(10**3)
        m = 2
        i = m - 1
        below = g_tilde_eval(3, m, s.cut_left[i] - 0.01, s)
        at = g_tilde_eval(3, m, s.cut_left[i], s)
        assert below == at
        above = g_tilde_eval(3, m, s.cut_right[i] + 0.3, s)
        at_r = g_tilde_eval(3, m, s.cut_right[i], s)
        assert above == at_r

    def test_interior_matches_raw(self):
        s = build_scheme(10**3)
        m, i = 2, 1
        x = 0.5 * (s.cut_left[i] + s.cut_right[i])
        assert g_tilde_eval(2, m, x, s) == pytest.approx(
            g_eval(2, float(s.centers[i]), x, s.n), rel=1e-12
        )

    def test_degree_zero_constant(self):
        s = build_scheme(10**3)
        for x in (0.0, 0.05, 0.9):
            assert g_tilde_eval(0, 1, x, s) == 1.0


class TestSmoothedMoments:
    def test_zero_distribution_mass_elsewhere(self):
        s = build_scheme(10**3)
        p = DiscreteDistribution([1.0, 0.0, 0.0])
        # zero-mass symbols contribute nothing beyond the first interval
        assert smoothed_moment_true(DiscreteDistribution([0.5, 0.5]), 2, 0, s) >= 0
        for m in range(2, s.M + 1):
            lo, hi = s.half_range(m)
            lam = 0.0
            assert poisson_pmf(lam, np.arange(max(lo, 0), max(lo, 0) + 1)).sum() == (1.0 if lo <= 0 <= hi else 0.0)

    def test_single_atom_total_mass(self):
        from sortdist.intervals import locate

        s = build_scheme(10**3)
        p = DiscreteDistribution([1.0])
        m = locate(s, 1.0)
        # the half-sample soft assignment leaks a little mass to the
        # neighbouring interval when the atom is off-center
        assert smoothed_moment_true(p, m, 0, s) == pytest.approx(1.0, abs=1e-3)
        total = sum(smoothed_moment_true(p, mm, 0, s) for mm in range(1, s.M + 1))
        assert total == pytest.approx(1.0, abs=1e-9)
        # an atom at an interval center is captured almost entirely; the
        # leftover mass sits deep inside the first interval
        x2 = float(s.centers[1])
        rest = (1.0 - x2) / 4.0
        pc = DiscreteDistribution([x2, rest, rest, rest, rest])
        assert smoothed_moment_true(pc, 2, 0, s) == pytest.approx(1.0, abs=1e-9)

    def test_atom_at_center_kills_first_moment(self):
        s = build_scheme(10**3)
        x2 = float(s.centers[1])
        p = DiscreteDistribution([x2, 1.0 - x2])
        contrib = (p.masses[0] - x2) ** 1
        assert contrib == 0.0
        got = smoothed_moment_true(p, 2, 1, s)
        # only the second symbol can contribute
        lo, hi = s.half_range(2)
        lam = s.n * p.masses[1] / 2.0
        t = np.arange(lo, hi + 1)
        want = (p.masses[1] - x2) * poisson_pmf(lam, t).sum()
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_effective_support_centered_uniform(self):
        s = build_scheme(10**3)
        m = 3
        k = int(round(1.0 / s.centers[m - 1]))
        masses = np.full(k, 1.0 / k)
        masses[-1] = 1.0 - masses[:-1].sum()
        p = DiscreteDistribution(masses)
        km = effective_support(p, m, s)
        assert km >= k * (1 - s.n**-5) - 1.0

    def test_effective_supports_sum_below_k(self):
        s = build_scheme(10**3)
        rng = np.random.default_rng(13)
        m_ = rng.random(6) + 1e-3
        p = DiscreteDistribution(m_ / m_.sum())
        total = sum(effective_support(p, m, s) for m in range(1, s.M + 1))
        assert total <= p.k + 1e-9

    def test_zero_mass_symbols_contribute_nothing(self):
        s = build_scheme(10**3)
        p = DiscreteDistribution([0.6, 0.4, 0.0, 0.0])
        q = DiscreteDistribution([0.6, 0.4])
        for m in range(1, s.M + 1):
            for d in (0, 1, 2):
                a = smoothed_moment_true(p, m, d, s)
                b = smoothed_moment_true(q, m, d, s)
                assert a == pytest.approx(b, rel=1e-12, abs=1e-300)


class TestEstimator:
    def test_empty_histogram_gives_zero(self):
        s = build_scheme(10**3)
        h = Histogram(np.zeros(4, dtype=int))
        for m in (1, 2, 3):
            assert smoothed_moment_estimate(h, m, 1, s) == 0.0

    def test_degree_zero_reduces_to_binomial_range_mass(self):
        s = build_scheme(10**3)
        h = Histogram([37, 5, 0])
        for m in (1, 2):
            lo, hi = s.half_range(m)
            want = 0.0
            for v in h.counts:
                if v <= 0:
                    continue
                ss = np.arange(max(lo, 0), min(hi, int(v)) + 1)
                if ss.size:
                    want += float(binomial_pmf(int(v), 0.5, ss).sum())
            got = smoothed_moment_estimate(h, m, 0, s)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_unclamped_expectation_matches_true_moments(self):
        # full truncated expectation over Poissonized histograms, k <= 3
        s = build_scheme(200, 8.0)
        n = s.n
        rng = np.random.default_rng(14)
        masses = rng.random(3) + 0.2
        p = DiscreteDistribution(masses / masses.sum())
        for m in (1, 2):
            for d in (0, 1, 2):
                want = smoothed_moment_true(p, m, d, s)
                got = 0.0
                for j in range(p.k):
                    lam = n * p.masses[j]
                    hw = int(12 * math.sqrt(lam + 1) + 40)
                    tvals = np.arange(0, int(lam) + hw)
                    pmf_t = poisson_pmf(lam, tvals)
                    inner = np.zeros_like(pmf_t)
                    for ti, t in enumerate(tvals):
                        lo, hi = s.half_range(m)
                        ss = np.arange(max(lo, 0), min(hi, int(t)) + 1)
                        if ss.size == 0:
                            continue
                        z = (t - ss) / (n / 2.0)
                        gv = g_family(d, float(s.centers[m - 1]), z, n)[d]
                        inner[ti] = float(binomial_pmf(int(t), 0.5, ss) @ gv)
                    got += float(pmf_t @ inner)
                assert got == pytest.approx(want, abs=1e-6)

    def test_monte_carlo_mean_single_symbol(self):
        from sortdist.intervals import locate

        s = build_scheme(512, 8.0)
        n = s.n
        m = locate(s, 1.0)
        p = DiscreteDistribution([1.0])
        want = smoothed_moment_true(p, m, 1, s)
        rng = np.random.default_rng(15)
        reps = 3000
        draws = rng.poisson(n, size=reps)
        vals = [smoothed_moment_estimate(Histogram([int(v)]), m, 1, s, clamped=False) for v in draws]
        se = np.std(vals) / math.sqrt(reps)
        assert np.mean(vals) == pytest.approx(want, abs=4 * se + 1e-9)

    def test_table_matches_scalar_entries(self):
        s = build_scheme(10**3)
        h = Histogram([40, 11, 3, 0, 1])
        tab = moment_table_estimate(h, s, 3)
        for m in (1, 2, 3):
            for d in (0, 1, 2, 3):
                assert tab.value(m, d) == pytest.approx(
                    smoothed_moment_estimate(h, m, d, s), rel=1e-13, abs=1e-300
                )

    def test_bounded_single_increment_change(self):
        # the full objective-relevant combination moves by O(n^(c2-1) log n)
        n = 10**4
        s = build_scheme(n)
        depth = degree_for(n)
        rng = np.random.default_rng(16)
        k = 400
        masses = rng.random(k) + 1e-3
        p = DiscreteDistribution(masses / masses.sum())
        h = Histogram(rng.poisson(n * p.masses))
        base = moment_table_estimate(h, s, depth)
        worst = 0.0
        for j in (0, 5, k - 1):
            counts = h.counts.copy()
            counts[j] += 1
            bumped = moment_table_estimate(Histogram(counts), s, depth)
            delta = np.abs(bumped.values - base.values)
            cum0 = np.abs(
                np.cumsum((bumped.values - base.values)[::-1, 0])[::-1]
            )
            combo = 0.0
            for m in range(1, s.M + 1):
                i = m - 1
                tl = float(s.tilde_len[i])
                combo += tl * sum(delta[i, d] / tl**d for d in range(1, depth + 1))
                combo += tl * cum0[i]
            worst = max(worst, combo)
        # calibrated constant 8 over the n^(c2-1) log n scale (measured ~0.9)
        assert worst <= 8.0 * n ** (0.25 - 1) * math.log(n) * 2 ** (depth + 2)

    def test_table_magnitudes_bounded(self):
        # estimated entries stay within k * (cutoff width)^d up to a mild
        # power of n coming from the clamp bound on the kernel
        rng = np.random.default_rng(17)
        n = 10**4
        s = build_scheme(n)
        depth = 4
        for _ in range(5):
            k = int(rng.integers(10, 800))
            masses = rng.random(k) + 1e-3
            p = DiscreteDistribution(masses / masses.sum())
            h = Histogram(rng.poisson(n * p.masses))
            tab = moment_table_estimate(h, s, depth)
            for m in range(1, s.M + 1):
                width = float(s.cut_right[m - 1] - s.cut_left[m - 1])
                for d in range(depth + 1):
                    cap = k * (2.0 * width) ** d * n**0.5
                    assert abs(tab.value(m, d)) <= cap


def true_table_by_degree(p, s, depth):
    """The per-degree loop reference for moment_table_true."""
    values = np.zeros((s.M, depth + 1))
    for m in range(1, s.M + 1):
        lo, hi = s.half_range(m)
        prob = poisson_interval_prob(s.n * p.masses / 2.0, lo, hi)
        diff = p.masses - s.centers[m - 1]
        for d in range(depth + 1):
            values[m - 1, d] = float(np.sum(diff**d * prob))
    return values


@pytest.mark.parametrize("depth", [0, 2, 5])
@pytest.mark.parametrize("family", ["uniform", "two-level", "zipf:1"])
def test_true_table_bytes_match_per_degree_loop(family, depth):
    rng = np.random.default_rng(17)
    for n in (64, 1024, 10_000):
        k = int(rng.integers(2, 3000))
        p = DiscreteDistribution(make_distribution(family, k).masses[rng.permutation(k)])
        s = build_scheme(n, 8.0)
        want = true_table_by_degree(p, s, depth)
        assert moment_table_true(p, s, depth).values.tobytes() == want.tobytes()
        for m in range(1, s.M + 1):
            assert effective_support(p, m, s) == want[m - 1, 0]
            for d in range(depth + 1):
                assert smoothed_moment_true(p, m, d, s) == want[m - 1, d]


def table_by_count_and_interval(h, s, depth, clamped):
    """The per-(distinct count, interval) loop reference for
    moment_table_estimate: one kernel family per pair."""
    values = np.zeros((s.M, depth + 1))
    dist_vals, dist_counts = np.unique(h.counts[h.counts > 0], return_counts=True)
    for v, cnt in zip(dist_vals.tolist(), dist_counts.tolist()):
        for i in range(s.M):
            lo, hi = s.half_range(i + 1)
            ss = np.arange(max(lo, 0), min(hi, v) + 1)
            if not ss.size:
                continue
            pmf = np.exp(binom_half_logpmf(v, ss))
            z = (v - ss) / (s.n / 2.0)
            if clamped:
                z = np.clip(z, s.cut_left[i], s.cut_right[i])
            values[i] += cnt * (g_family(depth, float(s.centers[i]), z, s.n) @ pmf)
    return values


def assert_table_matches_pair_loop(h, s, depth):
    for clamped in (True, False):
        got = moment_table_estimate(h, s, depth, clamped=clamped).values
        want = table_by_count_and_interval(h, s, depth, clamped)
        # the interval's sum regroups the pair loop's, so bits may move
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
        assert np.array_equal(got == 0.0, want == 0.0)


class TestTableByInterval:
    @pytest.mark.parametrize("family", ["uniform", "two-level", "zipf:1"])
    def test_estimator_trials(self, family):
        n, k = 10_000, 5000
        s = build_scheme(n, DEFAULT_C1, "estimator")
        h = sample_poissonized(make_distribution(family, k), n, substream(101, 0))
        assert_table_matches_pair_loop(h, s, degree_for(n, DEFAULT_C2))

    def test_every_desk_histogram(self):
        # the competitive check's scheme at n = 8, c1 = 1, c2 = 1, over every
        # sorted histogram of 8 draws on 4 symbols
        s = build_scheme(8, 1.0, "estimator")
        hists = [
            h for h in itertools.product(range(9), repeat=4)
            if sum(h) == 8 and list(h) == sorted(h, reverse=True)
        ]
        assert len(hists) == 15
        for h in hists:
            assert_table_matches_pair_loop(Histogram(list(h)), s, degree_for(s.n, 1.0))

    def test_counts_that_miss_intervals(self):
        # counts of at most 3 reach only the intervals whose half range
        # starts at 3 or below; the rest stay zero
        s = build_scheme(10**4)
        h = Histogram([3, 1, 1, 0, 2])
        assert_table_matches_pair_loop(h, s, 3)
        tab = moment_table_estimate(h, s, 3).values
        reached = [s.half_range(m)[0] <= 3 for m in range(1, s.M + 1)]
        assert 0 < sum(reached) < s.M
        assert np.all(tab[~np.array(reached)] == 0.0)
        assert np.all(tab[np.array(reached), 0] > 0.0)
        assert np.all(moment_table_estimate(Histogram([0, 0]), s, 3).values == 0.0)
