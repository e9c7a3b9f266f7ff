import numpy as np
import pytest

from sortdist.core import AtomicMeasure, DiscreteDistribution, Histogram, desk_profiles, measure_of, sorted_l1
from sortdist.errors import InvalidWitnessError, MassMismatchError
from sortdist.harness import COMPETITIVE_C1, make_distribution
from sortdist.intervals import build_scheme
from sortdist.lmm import estimate_sorted_distribution
from sortdist.wasserstein import LipschitzWitness, MeasureBatch, dual_value, optimal_witness, w1, w1_many


def random_dist(rng, k):
    m = rng.random(k) + 1e-3
    return DiscreteDistribution(m / m.sum())


def random_measure(rng, atoms, mass=1.0):
    loc = np.sort(rng.random(atoms))
    w = rng.random(atoms) + 0.05
    return AtomicMeasure(loc, w * (mass / w.sum()))


def random_witness(rng, pieces=6):
    bp = np.concatenate([[0.0], np.sort(rng.random(pieces - 1))])
    slopes = rng.uniform(-1, 1, pieces)
    return LipschitzWitness(bp, slopes, float(rng.uniform(-1, 1)))


class TestW1:
    def test_point_masses(self):
        assert w1(AtomicMeasure.dirac(0.3), AtomicMeasure.dirac(0.7)) == pytest.approx(0.4, abs=1e-15)

    def test_identity(self):
        m = AtomicMeasure([0.1, 0.5], [0.5, 0.5])
        assert w1(m, m) == 0.0

    def test_two_point_example_with_sorted_l1(self):
        p, q = DiscreteDistribution([0.5, 0.5]), DiscreteDistribution([0.3, 0.7])
        val = w1(measure_of(p), measure_of(q))
        assert val == pytest.approx(0.2, abs=1e-15)
        assert 2 * val == pytest.approx(sorted_l1(p, q), abs=1e-15)

    def test_mass_mismatch_rejected(self):
        with pytest.raises(MassMismatchError):
            w1(AtomicMeasure.dirac(0.5, 1.0), AtomicMeasure.dirac(0.5, 0.5))

    def test_coupling_oracle(self):
        # equal-weight atoms: transport equals the mean sorted displacement
        rng = np.random.default_rng(0)
        for _ in range(40):
            na = int(rng.integers(1, 9))
            a, b = np.sort(rng.random(na)), np.sort(rng.random(na))
            mu = AtomicMeasure(a, np.full(na, 1.0 / na))
            nu = AtomicMeasure(b, np.full(na, 1.0 / na))
            assert w1(mu, nu) == pytest.approx(float(np.abs(a - b).mean()), abs=1e-12)

    def test_sorted_l1_equivalence_large_k(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            k = int(rng.integers(2, 101))
            p, q = random_dist(rng, k), random_dist(rng, k)
            assert abs(sorted_l1(p, q) - k * w1(measure_of(p), measure_of(q))) <= 1e-10

    def test_metric_axioms(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            mu, nu, rho = (random_measure(rng, int(rng.integers(1, 8))) for _ in range(3))
            assert w1(mu, nu) == pytest.approx(w1(nu, mu), abs=1e-12)
            assert w1(mu, rho) <= w1(mu, nu) + w1(nu, rho) + 1e-12
            assert w1(mu, mu) == 0.0


def same_bytes(got, want):
    return np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()


def desk_measures(n, k):
    """The estimator measure of every profile of n with at most k parts, as
    the desk table builds them at c2 = 1."""
    scheme = build_scheme(n, COMPETITIVE_C1, "estimator")
    out = []
    for phi in desk_profiles(n, k):
        parts = phi.parts()
        h = Histogram(np.asarray(parts + (0,) * (k - len(parts)), dtype=np.int64))
        out.append(estimate_sorted_distribution(h, k, scheme, c2=1.0).measure)
    return out


class TestW1Many:
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_desk_distances_have_the_bytes_of_w1(self, k):
        # every profile of every desk table at n = 4..12 (and 16 and 24 at
        # k >= 4) against five families; uniform merges to one atom and
        # point-mass puts k - 1 of its atoms at 0
        families = ("uniform", "two-level", "zipf:1", "zipf:2", "point-mass")
        for n in range(4, 13) if k < 4 else (*range(4, 13), 16, 24):
            measures = desk_measures(n, k)
            batch = MeasureBatch(measures)
            for fam in families:
                nu = measure_of(make_distribution(fam, k))
                assert same_bytes(w1_many(batch, nu), [w1(m, nu) for m in measures]), (n, fam)

    @pytest.mark.parametrize("atoms,nu_atoms", [(10, 10), (13, 4)])
    def test_rows_of_sixteen_or_more_terms_keep_the_bytes_of_w1(self, atoms, nu_atoms):
        # rows padded to the widest one and summed by one dot each rounded
        # apart from w1 once a dot reached 16 terms: 90 of these 301 rows
        # at (10, 10), 144 at (13, 4), the widest row of the n = 48 desk
        rng = np.random.default_rng(atoms)
        measures = [random_measure(rng, int(rng.integers(1, atoms + 1))) for _ in range(301)]
        nu = random_measure(rng, nu_atoms)
        assert same_bytes(w1_many(MeasureBatch(measures), nu), [w1(m, nu) for m in measures])

    def test_long_rows_that_share_locations_with_nu(self):
        # a shared location adds a term of gap 0, which a dot of 16 or more
        # terms does not add in order
        rng = np.random.default_rng(14)
        grid = np.linspace(0.0, 0.9, 30)
        nu = AtomicMeasure(rng.choice(grid, 10, replace=False), random_measure(rng, 10).weights)
        measures = []
        for _ in range(200):
            m = random_measure(rng, int(rng.integers(6, 15)))
            loc = m.locations.copy()
            j = int(rng.integers(1, loc.size + 1))
            loc[:j] = rng.choice(grid, j, replace=False)
            measures.append(AtomicMeasure(loc, m.weights))
        assert sum(bool(np.isin(m.locations, nu.locations).any()) for m in measures) > 150
        assert same_bytes(w1_many(MeasureBatch(measures), nu), [w1(m, nu) for m in measures])

    def test_rows_that_share_locations_with_nu(self):
        rng = np.random.default_rng(12)
        grid = np.array([0.0, 0.1, 0.25, 0.4, 0.7])
        sharing = 0
        for _ in range(50):
            nu = AtomicMeasure(rng.choice(grid, 3, replace=False), random_measure(rng, 3).weights)
            measures = []
            for _ in range(6):
                m = random_measure(rng, int(rng.integers(1, 5)))
                loc = m.locations.copy()
                j = int(rng.integers(0, loc.size + 1))
                loc[:j] = rng.choice(grid, j, replace=False)
                measures.append(AtomicMeasure(loc, m.weights))
                sharing += bool(np.isin(measures[-1].locations, nu.locations).any())
            assert same_bytes(w1_many(MeasureBatch(measures), nu), [w1(m, nu) for m in measures])
        assert sharing > 100

    def test_nu_of_one_atom(self):
        nu = measure_of(make_distribution("uniform", 4))
        assert nu.locations.size == 1
        rng = np.random.default_rng(13)
        measures = [random_measure(rng, a) for a in (1, 2, 5, 3)] + [AtomicMeasure([0.25], [1.0])]
        got = w1_many(MeasureBatch(measures), nu)
        assert same_bytes(got, [w1(m, nu) for m in measures])
        assert got[-1] == 0.0

    def test_rows_and_nu_with_no_atoms_read_zero(self):
        # w1 reads 0 when either side has no atoms, whatever the other side's
        # atoms would give; the empty row against `light` would give 1.5e-12
        empty = AtomicMeasure([], [])
        light = AtomicMeasure([0.3, 0.6], [5e-12, 5e-12])
        measures = [empty, AtomicMeasure([0.1], [1e-11]), light]
        got = w1_many(MeasureBatch(measures), light)
        assert same_bytes(got, [w1(m, light) for m in measures])
        assert got[0] == 0.0 and got[1] > 0.0
        assert same_bytes(w1_many(MeasureBatch(measures), empty), [0.0] * 3)
        assert same_bytes(w1_many(MeasureBatch([empty, empty]), light), [0.0, 0.0])
        assert w1_many(MeasureBatch([]), light).shape == (0,)

    def test_mass_mismatch_rejected_row_by_row(self):
        nu = AtomicMeasure([0.2, 0.5], [0.5, 0.5])
        close = AtomicMeasure([0.3], [1.0 + 5e-11])
        far = AtomicMeasure([0.3], [1.0 + 2e-10])
        assert same_bytes(w1_many(MeasureBatch([nu, close]), nu), [0.0, w1(close, nu)])
        with pytest.raises(MassMismatchError) as batched:
            w1_many(MeasureBatch([nu, close, far]), nu)
        with pytest.raises(MassMismatchError) as single:
            w1(far, nu)
        assert str(batched.value) == str(single.value)

    def test_arrays_are_read_only_and_padded(self):
        batch = MeasureBatch([AtomicMeasure([0.1, 0.3], [0.25, 0.75]), AtomicMeasure([0.2], [1.0])])
        assert len(batch) == 2
        assert batch.locations.tolist() == [[0.1, 0.3], [0.2, np.inf]]
        assert batch.cdfs.tolist() == [[0.0, 0.25, 1.0], [0.0, 1.0, 1.0]]
        assert batch.total_mass.tolist() == [1.0, 1.0]
        for a in (batch.locations, batch.cdfs, batch.total_mass):
            with pytest.raises(ValueError):
                a[0] = 0


class TestWitness:
    def test_constant_witness_zero(self):
        rng = np.random.default_rng(3)
        mu, nu = random_measure(rng, 4), random_measure(rng, 5)
        assert dual_value(LipschitzWitness.constant(3.7), mu, nu) == pytest.approx(0.0, abs=1e-12)

    def test_identity_witness_tight_for_diracs(self):
        f = LipschitzWitness(np.array([0.0]), np.array([1.0]))
        mu, nu = AtomicMeasure.dirac(1.0), AtomicMeasure.dirac(0.0)
        assert dual_value(f, mu, nu) == pytest.approx(1.0, abs=1e-15)
        assert w1(mu, nu) == pytest.approx(1.0, abs=1e-15)

    def test_slope_bound_enforced(self):
        with pytest.raises(InvalidWitnessError):
            LipschitzWitness(np.array([0.0]), np.array([1.5]))

    def test_evaluation_piecewise(self):
        f = LipschitzWitness(np.array([0.0, 0.5]), np.array([1.0, -1.0]), 0.0)
        assert f(0.25) == pytest.approx(0.25)
        assert f(0.75) == pytest.approx(0.25)
        assert f(0.5) == pytest.approx(0.5)

    def test_duality_sandwich(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            mu, nu = random_measure(rng, 6), random_measure(rng, 6)
            cap = w1(mu, nu)
            for _ in range(40):
                assert dual_value(random_witness(rng), mu, nu) <= cap + 1e-10

    def test_optimal_witness_attains(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            mu = random_measure(rng, int(rng.integers(1, 11)))
            nu = random_measure(rng, int(rng.integers(1, 11)))
            f = optimal_witness(mu, nu)
            assert dual_value(f, mu, nu) == pytest.approx(w1(mu, nu), abs=1e-10)

    def test_optimal_witness_identical_measures(self):
        m = AtomicMeasure([0.2, 0.4], [0.3, 0.7])
        f = optimal_witness(m, m)
        assert dual_value(f, m, m) == pytest.approx(0.0, abs=1e-15)
