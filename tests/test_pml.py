import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from sortdist.core import (
    AtomicMeasure,
    DiscreteDistribution,
    Histogram,
    EXACT_SCALE_N,
    Profile,
    desk_profiles,
    ProfileBatch,
    measure_of,
    poisson_pmf,
    profile_of_histogram,
    profile_probability,
    profile_probability_many,
)
from sortdist import pml as pml_module
from test_core import dense_profile_probability_many
from sortdist.errors import DomainError, ResourceLimitError
from sortdist.pml import (
    PML_GRID_RESOLUTION,
    QuantGrid,
    _sorted_grid_rows,
    brute_force_pml,
    chain_params,
    check_goodset_lemma,
    chi_m_log,
    chi_m_poisson,
    chi_m_poisson_brute,
    covering_constants,
    good_set,
    is_close,
    min_prob_round,
    quantize_to_grid,
)
from sortdist.wasserstein import w1


def one_profile_probabilities(p_rows, phi):
    """profile_probability_many over a batch of the one profile."""
    rows = np.atleast_2d(p_rows)
    return profile_probability_many(rows, ProfileBatch([phi], rows.shape[1]))[0]


def random_m0(rng, k, n, A=2.0):
    """Random distribution with every mass above the grid floor."""
    floor = 1.0 / (2.0 * n**A)
    m = rng.random(k) + 2 * floor * k
    return DiscreteDistribution(m / m.sum())


class TestQuantGrid:
    def test_levels_geometry(self):
        g = QuantGrid.build(8, r=0.5)
        assert g.levels[0] == 0.0
        assert g.levels[1] == pytest.approx(1.0 / 128.0, rel=1e-15)
        ratios = g.levels[2:] / g.levels[1:-1]
        assert np.allclose(ratios, 1.0 + 8**-0.5, rtol=1e-12)
        assert g.levels[-1] <= 1.0 < g.levels[-1] * (1.0 + 8**-0.5)

    def test_grid_point_is_fixed(self):
        g = QuantGrid.build(8)
        level = float(g.levels[5])
        p = DiscreteDistribution([level, 1.0 - level])
        q = quantize_to_grid(p, g)
        assert q[0] == level

    def test_zero_stays_zero(self):
        g = QuantGrid.build(8)
        p = DiscreteDistribution([1.0, 0.0])
        assert quantize_to_grid(p, g)[1] == 0.0

    def test_ratio_and_mass_bounds(self):
        rng = np.random.default_rng(0)
        for n in (6, 8, 12):
            g = QuantGrid.build(n)
            for _ in range(20):
                p = random_m0(rng, int(rng.integers(2, 6)), n)
                q = quantize_to_grid(p, g)
                pos = p.masses > 0
                dev = np.abs(p.masses[pos] / q[pos] - 1.0)
                dev = np.maximum(dev, np.abs(q[pos] / p.masses[pos] - 1.0))
                assert dev.max() <= n**-0.5 + 1e-12
                assert 1.0 - n**-0.5 - 1e-12 <= q.sum() <= 1.0 + 1e-12

    def test_below_floor_rejected(self):
        g = QuantGrid.build(8)
        p = DiscreteDistribution([1 - 1e-5, 1e-5])
        with pytest.raises(DomainError):
            quantize_to_grid(p, g)

    @pytest.mark.parametrize("n", [0, -3, 2.5, 8.0, "8", None])
    def test_n_must_be_a_positive_integer(self, n):
        with pytest.raises(DomainError, match="positive integer"):
            QuantGrid.build(n)


class TestChiM:
    def test_equal_rates_give_one(self):
        v, bound = chi_m_poisson(3.0, 3.0, 4)
        assert v == 1.0 and bound == 1.0

    def test_closed_form_point_value(self):
        v, _ = chi_m_poisson(2.0, 1.0, 2)
        assert v == pytest.approx(math.e, rel=1e-12)

    def test_zero_second_rate_signals_infinite(self):
        v, _ = chi_m_poisson(0.5, 0.0, 2)
        assert v == math.inf
        assert chi_m_poisson(0.0, 0.0, 2)[0] == 1.0

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_matches_brute_force(self, m):
        for lam1 in (0.5, 1.0, 5.0, 20.0):
            for lam2 in (0.5, 1.0, 5.0, 20.0):
                log_closed = chi_m_log(lam1, lam2, m)
                log_brute = chi_m_poisson_brute(lam1, lam2, m)
                assert log_closed == pytest.approx(log_brute, rel=1e-12, abs=1e-8)

    def test_bound_branch_dominates(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            m = int(rng.integers(2, 7))
            lam2 = float(rng.uniform(0.2, 30.0))
            lam1 = lam2 * (1.0 + rng.uniform(-0.9, 0.9) / m)
            v, bound = chi_m_poisson(lam1, lam2, m)
            assert v <= bound * (1 + 1e-12)

    def test_data_processing_on_profiles(self):
        # chi^m of induced profile laws is capped by the product-form bound
        # and itself caps the subset power ratio
        n, k, m = 4, 3, 3
        rng = np.random.default_rng(2)
        p = random_m0(rng, k, n)
        g = QuantGrid.build(n)
        q_raw = quantize_to_grid(p, g)
        hmax = 14
        from itertools import product

        profile_mass_p: dict[tuple, float] = {}
        profile_mass_q: dict[tuple, float] = {}
        for counts in product(range(hmax), repeat=k):
            h = np.asarray(counts)
            w_p = float(np.prod([poisson_pmf(n * p.masses[j], int(h[j])) for j in range(k)]))
            w_q = float(np.prod([poisson_pmf(n * q_raw[j], int(h[j])) for j in range(k)]))
            key = tuple(sorted(c for c in counts if c > 0))
            profile_mass_p[key] = profile_mass_p.get(key, 0.0) + w_p
            profile_mass_q[key] = profile_mass_q.get(key, 0.0) + w_q
        chi_profiles = sum(
            profile_mass_q[key] * (profile_mass_p[key] / profile_mass_q[key]) ** m
            for key in profile_mass_p
            if profile_mass_q.get(key, 0.0) > 0
        )
        chi_product = math.exp(
            sum(chi_m_log(n * p.masses[j], n * q_raw[j], m) for j in range(k))
        )
        assert chi_profiles <= chi_product * (1 + 1e-6)
        keys = sorted(profile_mass_p)
        for take in (2, 5, len(keys)):
            subset = keys[:take]
            mass_p = sum(profile_mass_p[s] for s in subset)
            mass_q = sum(profile_mass_q[s] for s in subset)
            if mass_q > 0:
                assert chi_profiles >= mass_p**m / mass_q ** (m - 1) * (1 - 1e-9)


class TestIsClose:
    def test_reflexive(self):
        p = [0.5, 0.5]
        assert is_close(p, p, 0.1, 0.3)

    def test_arithmetic_example(self):
        assert is_close([0.5, 0.5], [0.5, 0.4], 0.1, 0.3)

    def test_zero_preservation_violated(self):
        assert not is_close([0.0, 1.0], [0.1, 0.9], 0.1, 0.3)

    def test_band_violated_below(self):
        assert not is_close([0.5, 0.5], [0.5, 0.3], 0.1, 0.3)

    def test_cap_violated(self):
        assert not is_close([0.05, 0.95], [0.2, 0.8], 0.1, 0.5)


class TestMinProbRound:
    def test_already_rounded_is_fixed_point(self):
        phi = profile_of_histogram(Histogram([3, 2, 1]))
        p = DiscreteDistribution([0.5, 0.3, 0.2])
        out = min_prob_round(p, phi)
        assert np.allclose(out.masses, p.masses)

    def test_point_mass_unchanged(self):
        phi = profile_of_histogram(Histogram([6]))
        p = DiscreteDistribution([1.0])
        assert np.allclose(min_prob_round(p, phi).masses, [1.0])

    @pytest.mark.parametrize("k_max", [1, 2, 3, 4, 5])
    def test_rounds_the_one_draw_pml(self, k_max):
        # every distribution gives the one-draw profile likelihood 1, so the
        # search must not start from a row that float noise favours: a row
        # with masses below the floor 1/2 cannot be rounded
        phi = profile_of_histogram(Histogram([1]))
        pml, _ = brute_force_pml(phi, k_max=k_max)
        out = min_prob_round(pml, phi)
        assert out.masses.tolist() == [1.0] + [0.0] * (k_max - 1)

    def test_all_predicates_on_random_instances(self):
        rng = np.random.default_rng(3)
        checked = 0
        for _ in range(1000):
            n = int(rng.integers(3, 9))
            k = int(rng.integers(2, 6))
            raw = rng.random(k)
            tiny = rng.integers(0, k)
            raw[:tiny] *= 1e-6  # force sub-floor masses often
            p = DiscreteDistribution(raw / raw.sum())
            counts = rng.multinomial(n, p.masses)
            if counts.sum() == 0:
                continue
            phi = profile_of_histogram(Histogram(counts))
            A = pml_module.ROUNDING_A
            out = min_prob_round(p, phi)
            floor = 1.0 / (2.0 * n**A)
            pos = out.masses[out.masses > 0]
            assert pos.min() >= floor - 1e-15
            assert is_close(p.masses, out.masses, n**-A, 3.0 * n ** (-A / 2.0))
            assert profile_probability(out, phi) >= math.exp(-6.0) * profile_probability(p, phi) - 1e-300
            checked += 1
        assert checked >= 900


class TestBruteForcePML:
    def test_all_same_symbol_gives_point_mass(self):
        phi = profile_of_histogram(Histogram([4]))
        p, like = brute_force_pml(phi, k_max=3)
        assert like == pytest.approx(1.0, abs=1e-12)
        assert p.masses[0] == pytest.approx(1.0, abs=1e-9)

    def test_two_distinct_k2(self):
        phi = profile_of_histogram(Histogram([1, 1]))
        p, like = brute_force_pml(phi, k_max=2)
        assert like == pytest.approx(0.5, abs=1e-9)
        assert np.allclose(p.masses, [0.5, 0.5], atol=1e-9)

    def test_two_distinct_k4(self):
        phi = profile_of_histogram(Histogram([1, 1]))
        p, like = brute_force_pml(phi, k_max=4)
        assert like == pytest.approx(0.75, abs=1e-9)
        assert np.allclose(p.masses, [0.25] * 4, atol=1e-9)

    def test_defining_property_against_random_draws(self):
        rng = np.random.default_rng(4)
        for n in (4, 5, 6):
            for phi in desk_profiles(n, n):
                _, like = brute_force_pml(phi, k_max=4)
                rows = rng.dirichlet(np.ones(4), size=300)
                probs = one_profile_probabilities(rows, phi)
                assert probs.max() <= like * 1.02 + 1e-12

    def test_scale_cap(self):
        with pytest.raises(ResourceLimitError):
            brute_force_pml(desk_profiles(5, 5)[0], k_max=7)
        # past the n of the double range, and past the desk cap: 1,115
        # profiles of 35 with at most 5 parts
        with pytest.raises(ResourceLimitError, match=f"n <= {EXACT_SCALE_N}"):
            brute_force_pml(Profile.from_sparse(EXACT_SCALE_N + 1, {EXACT_SCALE_N + 1: 1}), k_max=1)
        with pytest.raises(ResourceLimitError, match="1115 with at most k = 5 parts"):
            brute_force_pml(Profile.from_sparse(35, {35: 1}), k_max=5)

    @pytest.mark.parametrize("k_max", [2, 3, 4, 5])
    def test_likelihood_is_that_of_the_returned_masses(self, k_max):
        # the search scores float masses whose sum can be off by an ulp;
        # the profile of one draw once reported 1.0000000000000002
        for n in range(1, 9):
            for phi in desk_profiles(n, n):
                p, like = brute_force_pml(phi, k_max=k_max)
                assert abs(float(p.masses.sum()) - 1.0) <= 1e-15
                assert like <= 1.0
                assert like == pytest.approx(profile_probability(p, phi), rel=1e-15, abs=0.0)


def one_pair_at_a_time_pml(phi, k_max=5):
    """A first-improvement pair ascent from brute_force_pml's grid start: it
    scores one candidate per call, takes the first gain of each sweep and
    stops after 200 pair visits.  The baseline the likelihood of
    brute_force_pml may not fall below."""
    ascent_steps = 200
    rows = _sorted_grid_rows(k_max)
    probs = one_profile_probabilities(rows, phi)
    best = int(np.argmax(probs >= probs.max() * (1 - 1e-12)))
    masses = rows[best].copy()
    best_prob = float(probs[best])
    step = 1.0 / PML_GRID_RESOLUTION
    steps_done = 0
    while steps_done < ascent_steps:
        improved = False
        for i in range(k_max):
            for j in range(k_max):
                if i == j:
                    continue
                steps_done += 1
                t = min(step, masses[j])
                if t <= 0:
                    continue
                cand = masses.copy()
                cand[i] += t
                cand[j] -= t
                prob = float(one_profile_probabilities(cand[None, :], phi)[0])
                if prob > best_prob * (1 + 1e-12):
                    masses, best_prob, improved = cand, prob, True
                if steps_done >= ascent_steps:
                    break
            if steps_done >= ascent_steps:
                break
        if not improved:
            step /= 2.0
            if step < 1e-6:
                break
    masses = masses[np.argsort(-masses)]
    pml = DiscreteDistribution(masses / masses.sum())
    return pml, min(profile_probability(pml, phi), 1.0)


@pytest.mark.parametrize("k_max", [1, 2, 3, 4, 5])
def test_batched_ascent_equals_one_pair_at_a_time(k_max):
    # the best-improvement ascent without a budget never ends below the
    # budgeted first-improvement baseline (rounding aside)
    for n in range(1, 9):
        for phi in desk_profiles(n, n):
            _, like = brute_force_pml(phi, k_max=k_max)
            _, want = one_pair_at_a_time_pml(phi, k_max=k_max)
            assert like >= want * (1 - 1e-15), (phi.parts(), k_max)


def test_ascent_passes_the_baseline_where_its_budget_ran_out():
    # the baseline spends its 200 pair visits before it converges on (3, 1, 1)
    phi = profile_of_histogram(Histogram([3, 1, 1]))
    assert brute_force_pml(phi, k_max=5)[1] > one_pair_at_a_time_pml(phi, k_max=5)[1]


def test_k_max_one_returns_the_point_mass():
    # there are no pairs to move mass between
    for n in range(1, 9):
        for phi in desk_profiles(n, n):
            p, like = brute_force_pml(phi, k_max=1)
            assert p.masses.tolist() == [1.0]
            assert like == (1.0 if phi.distinct_symbols == 1 else 0.0)


@pytest.mark.parametrize("k_max", [2, 3, 4, 5])
def test_no_pair_move_of_the_last_step_gains(k_max):
    # the ascent halves its step from 1/60 while it stays at least 1e-6,
    # so 1/(60 * 2^14) is the last step it tries
    last_step = 1.0 / (60 * 2**14)
    pairs = [(i, j) for i in range(k_max) for j in range(k_max) if i != j]
    checked = 0
    for n in range(1, 9):
        for phi in desk_profiles(n, n):
            p, like = brute_force_pml(phi, k_max=k_max)
            if like == 0.0:
                continue
            base = float(one_profile_probabilities(p.masses[None, :], phi)[0])
            cands = np.repeat(p.masses[None, :], len(pairs), axis=0)
            for row, (i, j) in enumerate(pairs):
                t = min(last_step, p.masses[j])
                cands[row, i] += t
                cands[row, j] -= t
            probs = one_profile_probabilities(cands, phi)
            assert probs.max() <= base * (1 + 1e-12), (phi.parts(), k_max)
            checked += 1
    assert checked > 0


def test_more_distinct_symbols_than_k_max_scores_zero():
    # the ascent cannot leave the grid's first row, the point mass
    phi = profile_of_histogram(Histogram([3, 2, 1, 1, 1]))
    for k_max in (1, 2, 3, 4):
        p, like = brute_force_pml(phi, k_max=k_max)
        assert like == 0.0
        assert p.masses.tolist() == [1.0] + [0.0] * (k_max - 1)


def test_profile_probability_many_equals_the_uncached_coefficient_form():
    # the oracle recomputes the multinomial coefficient and runs the dense
    # single-profile DP
    rng = np.random.default_rng(12)
    for n in range(1, 13):
        for phi in desk_profiles(n, n):
            k = int(rng.integers(1, 9))
            rows = rng.dirichlet(np.ones(k), size=5)
            for _ in range(2):  # the second batch reads the cache
                got = one_profile_probabilities(rows, phi)
                assert got.tobytes() == dense_profile_probability_many(rows, phi).tobytes()


def unpruned_grid_rows(resolution, k_max):
    """Every decreasing composition of `resolution` into at most k_max parts,
    by the recursion that walks every prefix, dead ones included."""
    rows = []

    def rec(remaining, cap, prefix):
        if remaining == 0:
            rows.append(prefix + [0] * (k_max - len(prefix)))
            return
        if len(prefix) == k_max:
            return
        for part in range(min(cap, remaining), 0, -1):
            rec(remaining - part, part, prefix + [part])

    rec(resolution, resolution, [])
    return np.asarray(rows, dtype=float) / resolution


@pytest.mark.parametrize("resolution,k_max", [(PML_GRID_RESOLUTION, k_max) for k_max in (4, 5, 3, 2, 1)])
def test_grid_rows_equal_the_unpruned_recursion(resolution, k_max):
    rows = _sorted_grid_rows(k_max)
    want = unpruned_grid_rows(resolution, k_max)
    assert rows.shape == want.shape and rows.tobytes() == want.tobytes()
    # built once per k_max, and shared read-only
    assert _sorted_grid_rows(k_max) is rows
    assert not rows.flags.writeable


def empirical_estimator_factory(k):
    def estimate(phi):
        locs = [(i + 1.0) / phi.n for i in range(phi.n) for _ in range(int(phi.phi[i]))]
        keff = max(k, len(locs))  # profiles may show more distinct symbols than k
        locs = np.asarray([0.0] * (keff - len(locs)) + locs)
        return AtomicMeasure(locs, np.full(locs.size, 1.0 / keff))

    return estimate


class TestGoodSet:
    def loss(self, a, p):
        return p.k * w1(a, measure_of(p))

    def test_huge_eps_gives_everything(self):
        rng = np.random.default_rng(5)
        p = random_m0(rng, 3, 6)
        est = empirical_estimator_factory(3)
        good, mass = good_set(est, p, 10.0, self.loss, 6)
        # every profile of 6 with at most 3 parts: the 4 others have mass 0
        assert len(good) == len(desk_profiles(6, 3)) == 7
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_point_mass_truth(self):
        p = DiscreteDistribution([1.0, 0.0, 0.0])
        est = empirical_estimator_factory(3)
        good, mass = good_set(est, p, 0.3, self.loss, 6)
        run = profile_of_histogram(Histogram([6, 0, 0]))
        assert any(np.array_equal(g.phi, run.phi) for g in good)
        assert mass == pytest.approx(1.0, abs=1e-12)

    def test_zero_eps_reports_mass(self):
        rng = np.random.default_rng(6)
        p = random_m0(rng, 3, 6)
        est = empirical_estimator_factory(3)
        good, mass = good_set(est, p, 0.0, self.loss, 6)
        assert 0.0 <= mass <= 1.0 and len(good) <= len(desk_profiles(6, 6))

    def test_implication_never_falsified(self):
        rng = np.random.default_rng(7)
        est = empirical_estimator_factory(4)
        hits = 0
        for _ in range(300):
            n = int(rng.integers(3, 8))
            p = random_m0(rng, 4, n)
            q = random_m0(rng, 4, n)
            eps = float(rng.uniform(0.05, 1.2))
            delta = float(rng.uniform(0.01, 0.5))
            good, _ = good_set(est, p, eps, self.loss, n)
            assert check_goodset_lemma(q, p, good, eps, delta, est, self.loss)
            hits += 1
        assert hits == 300

    def test_scale_cap(self):
        p = DiscreteDistribution([0.5, 0.5])
        with pytest.raises(ResourceLimitError):
            good_set(empirical_estimator_factory(2), p, 1.0, self.loss, EXACT_SCALE_N + 1)
        p = DiscreteDistribution([0.25] * 4)
        with pytest.raises(ResourceLimitError, match="1154 with at most k = 4 parts"):
            good_set(empirical_estimator_factory(4), p, 1.0, self.loss, 50)

    def test_q_equals_p_nonvacuous(self):
        rng = np.random.default_rng(8)
        est = empirical_estimator_factory(4)
        p = random_m0(rng, 4, 6)
        good, mass = good_set(est, p, 1.5, self.loss, 6)
        assert mass > 0.5
        assert check_goodset_lemma(p, p, good, 1.5, 0.4, est, self.loss)


class TestChainParams:
    def test_solution_at_1_24(self):
        cp = chain_params(Fraction(1, 24))
        assert cp.M == 2
        assert cp.r == (Fraction(2, 5), Fraction(7, 20))
        assert cp.s == (Fraction(3, 20), Fraction(1, 20))
        assert cp.t == Fraction(7, 20)

    @pytest.mark.parametrize("c", [Fraction(1, 24), Fraction(1, 48), Fraction(1, 100)])
    def test_exact_identities_and_orderings(self, c):
        cp = chain_params(c)
        assert cp.verify()
        r = (Fraction(1, 2),) + cp.r
        s = cp.s + (Fraction(0),)
        for m in range(1, cp.M + 1):
            assert 1 - 2 * cp.r[m - 1] + cp.s[m - 1] == cp.t
        for m in range(1, cp.M + 2):
            assert r[m - 1] - s[m - 1] == cp.t
        assert Fraction(5, 12) > cp.r[0]
        assert all(cp.r[i] > cp.r[i + 1] for i in range(cp.M - 1))
        assert cp.r[-1] > Fraction(1, 3)
        assert Fraction(1, 6) > cp.s[0]
        assert all(cp.s[i] > cp.s[i + 1] for i in range(cp.M - 1))
        assert cp.s[-1] > 0
        assert cp.t < Fraction(1, 3) + c

    def test_smallest_m(self):
        cp = chain_params(Fraction(1, 24))
        # one level fewer would violate the defining inequality
        assert Fraction(1, 12 * (3 * 2 ** (cp.M - 2) - 1)) >= cp.c

    def test_domain(self):
        with pytest.raises(DomainError):
            chain_params(Fraction(1, 12))
        with pytest.raises(DomainError):
            chain_params(Fraction(0))


def exhaustive_covering_constant(p, grid, r, s, c0=0.5):
    """The covering constant as the largest need over all 2^count subsets."""
    n = grid.n
    q_raw = quantize_to_grid(p, grid)
    q = DiscreteDistribution(q_raw / q_raw.sum())
    batch = ProfileBatch(desk_profiles(n, n), p.k)
    probs_p = profile_probability_many(p.masses[None, :], batch)[:, 0]
    probs_q = profile_probability_many(q.masses[None, :], batch)[:, 0]
    count = len(batch)
    power = 1.0 / (1.0 - c0 * n**-s)
    scale = n ** (1.0 - 2.0 * r + s)
    masks = np.arange(1, 2**count)
    bits = ((masks[:, None] >> np.arange(count)) & 1).astype(bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p, log_q = np.log(bits @ probs_p), np.log(bits @ probs_q)
        needs = np.concatenate([power * log_q - log_p, power * log_p - log_q]) / scale
    return float(max(0.0, needs[np.isfinite(needs)].max()))


class TestCoveringConstants:
    def test_exhaustive_small_n(self):
        rng = np.random.default_rng(9)
        for n in (4, 5, 6):
            grid = QuantGrid.build(n)
            for _ in range(5):
                p = random_m0(rng, int(rng.integers(2, 5)), n)
                c = covering_constants(p, grid, r=0.5, s=0.125)
                assert np.isfinite(c) and c >= 0.0

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_sorted_prefixes_match_every_subset(self, n):
        # the prefix sums add in another order than the subset sums, so the
        # two agree to rounding, not to the byte; skewed masses put the
        # extreme ratios q_phi / p_phi inside the profile order, not only at
        # its ends
        rng = np.random.default_rng(100 + n)
        grid = QuantGrid.build(n)
        floor = 1.0 / (2.0 * n**2)
        dists = []
        for k, zeros in ((2, 0), (3, 0), (4, 1), (5, 0), (7, 1)):
            m = rng.dirichlet(np.full(k, 0.3)) + 2 * floor * k
            m[:zeros] = 0.0
            dists.append(DiscreteDistribution(m / m.sum()))
        for p in dists:
            for r, s in ((0.5, 0.125), (0.4, 0.15), (0.35, 0.05), (0.5, 0.0)):
                for c0 in (0.5, 0.1, 0.0):
                    want = exhaustive_covering_constant(p, grid, r, s, c0)
                    assert abs(covering_constants(p, grid, r, s, c0) - want) <= 1e-12

    def test_sampled_subsets_at_larger_n(self):
        # 2^count is out of reach at n = 8..12; the constant must still
        # cover the need of each single profile and of 4,096 random subsets
        rng = np.random.default_rng(11)
        r, s, c0 = 0.5, 0.125, 0.5
        for n, k in itertools.product(range(8, 13), (2, 4)):
            grid = QuantGrid.build(n)
            p = random_m0(rng, k, n)
            c = covering_constants(p, grid, r, s, c0)
            assert np.isfinite(c) and c >= 0.0
            q_raw = quantize_to_grid(p, grid)
            q = DiscreteDistribution(q_raw / q_raw.sum())
            batch = ProfileBatch(desk_profiles(n, n), k)
            probs = profile_probability_many(np.stack([p.masses, q.masses]), batch)
            # the profiles with more than k distinct symbols have P = Q = 0
            probs = probs[probs.any(axis=1)]
            count = len(probs)
            bits = np.vstack([np.eye(count, dtype=bool), rng.random((4096, count)) < 0.5])
            bits = bits[bits.any(axis=1)]
            log_p, log_q = np.log(bits @ probs).T
            power = 1.0 / (1.0 - c0 * n**-s)
            needs = np.concatenate([power * log_q - log_p, power * log_p - log_q])
            assert c >= needs.max() / n ** (1.0 - 2 * r + s) - 1e-12

    def test_the_whole_set_needs_exactly_zero(self):
        # criterion 7's draws: the whole profile set has P = Q = 1, so a draw
        # no proper subset of which needs a positive constant reads 0.0, not
        # the few ulps (up to 1.7e-15) its sums gave; the two real constants
        # keep their bytes
        rng = np.random.default_rng(107)
        constants = []
        for n in (4, 5, 6):
            grid = QuantGrid.build(n)
            for _ in range(34 if n > 4 else 32):
                floor = 2.0 / (2.0 * n**2)
                k = int(rng.integers(2, 6))
                m = rng.random(k) + floor * k
                constants.append(covering_constants(DiscreteDistribution(m / m.sum()), grid, 0.5, 0.125, 0.5))
        real = [c for c in constants if c != 0.0]
        assert len(constants) == 100
        assert real == [0.0003404182924229322, 0.0004648901133808173]

    @pytest.mark.parametrize("c0,s", [(1.0, 0.0), (2.0, 0.125), (-0.5, 0.125), (math.nan, 0.125)])
    def test_power_below_one_is_rejected(self, c0, s):
        # the prefix argument needs a = 1/(1 - c0 n^-s) to be at least 1
        grid = QuantGrid.build(4)
        p = DiscreteDistribution([0.5, 0.3, 0.2])
        with pytest.raises(DomainError, match="c0"):
            covering_constants(p, grid, r=0.5, s=s, c0=c0)

    def test_reported_constant_certifies(self):
        # re-check both inequalities for every subset at the reported constant
        rng = np.random.default_rng(10)
        n = 5
        grid = QuantGrid.build(n)
        p = random_m0(rng, 3, n)
        c = covering_constants(p, grid, r=0.5, s=0.125)
        q_raw = quantize_to_grid(p, grid)
        q = DiscreteDistribution(q_raw / q_raw.sum())
        profiles = desk_profiles(n, n)
        probs_p = np.array([profile_probability(p, f) for f in profiles])
        probs_q = np.array([profile_probability(q, f) for f in profiles])
        power = 1.0 / (1.0 - 0.5 * n**-0.125)
        scale = n ** (1.0 - 2 * 0.5 + 0.125)
        for mask in range(1, 2 ** len(profiles)):
            sel = [(mask >> i) & 1 for i in range(len(profiles))]
            sp = float(probs_p @ sel)
            sq = float(probs_q @ sel)
            slack = math.exp(-(c + 1e-12) * scale)
            assert sp >= sq**power * slack * (1 - 1e-9)
            assert sq >= sp**power * slack * (1 - 1e-9)
