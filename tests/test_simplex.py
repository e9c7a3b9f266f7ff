import numpy as np
import pytest
from scipy.optimize import linprog

from sortdist import simplex
from sortdist.harness import make_distribution
from sortdist.intervals import DEFAULT_C1, build_scheme
from sortdist.lmm import build_lp
from sortdist.moments import DEFAULT_C2, degree_for, moment_table_estimate
from sortdist.sampling import sample_poissonized, substream
from sortdist.simplex import simplex_solve


def random_lp(seed):
    """A feasible, bounded LP min c.x s.t. A x <= b, x >= 0.

    b = A x0 + slack for a random x0 >= 0, so x0 is feasible; signed entries
    of A give negative right-hand sides (a phase-1 start) on odd seeds.  The
    last row caps sum(x), which bounds the objective.
    """
    rng = np.random.default_rng(seed)
    m = int(rng.integers(3, 12))
    n = int(rng.integers(4, 20))
    A = rng.normal(size=(m, n)) if seed % 2 else rng.uniform(0.0, 1.0, size=(m, n))
    x0 = rng.uniform(0.0, 1.0, size=n)
    b = A @ x0 + rng.uniform(0.0, 0.5, size=m)
    A = np.vstack([A, np.ones(n)])
    b = np.append(b, x0.sum() + 1.0)
    return rng.normal(size=n), A, b


def dense(lp):
    """The full constraint matrix, cut from the LP's column source."""
    return lp.A[:, np.arange(lp.A.shape[1])]


class TestAgainstHighs:
    @pytest.mark.parametrize("seed", range(20))
    def test_objective_matches_and_vertex_is_feasible(self, seed):
        c, A, b = random_lp(seed)
        if seed % 2:
            assert np.any(b < 0)
        res = simplex_solve(c, A, b)
        ref = linprog(c, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
        assert ref.status == 0
        assert res.status == "optimal"
        assert res.objective == pytest.approx(ref.fun, rel=1e-7, abs=1e-12)
        assert np.all(res.x >= 0.0)
        assert np.all(A @ res.x <= b + 1e-9)


def recording_oracle(c, A, secondary=None):
    """A dense pricing oracle offering the column of least reduced cost in
    each stage, told apart by the length of y; the list it returns holds
    every y it received."""
    received = []
    m = A.shape[0]

    def price(y):
        received.append(y)
        cost = c if y.size == m else secondary - y[m] * c
        return np.array([np.argmin(cost - A.T @ y[:m])])

    return price, received


class TestDuals:
    """Row duals of min c.x s.t. A x <= b, x >= 0: the dual LP is
    max b.y s.t. A^T y <= c, y <= 0.  The last y the pricing oracle receives
    certifies the optimum."""

    @pytest.mark.parametrize("seed", range(20))
    def test_duals_certify_the_optimum(self, seed):
        c, A, b = random_lp(seed)
        price, received = recording_oracle(c, A)
        res = simplex_solve(c, A, b, start=np.arange(c.size), price=price)
        assert res.status == "optimal"
        y = received[-1]
        assert y.shape == b.shape
        assert np.all(y <= 0.0)
        assert np.all(c - A.T @ y >= -1e-9)
        # complementary slackness: a row with slack has price 0
        slack = b - A @ res.x
        assert np.all(np.abs(y[slack > 1e-9]) <= 1e-9)
        assert b @ y == pytest.approx(res.objective, rel=1e-9, abs=1e-12)


class TestSecondaryCost:
    """The second stage minimizes a secondary cost over the optimal face.

    Duplicating every column of a random LP makes its optimal face hold more
    than one vertex: each optimum can be split freely between the two copies
    of a column, and only the secondary cost tells them apart.
    """

    @pytest.mark.parametrize("duplicated", [False, True])
    @pytest.mark.parametrize("seed", range(20))
    def test_primary_kept_and_secondary_matches_highs(self, seed, duplicated):
        c, A, b = random_lp(seed)
        single = simplex_solve(c, A, b)
        if duplicated:
            A = np.hstack([A, A])
            c = np.concatenate([c, c])
        secondary = np.random.default_rng(seed + 1000).normal(size=c.size)
        plain = simplex_solve(c, A, b)
        res = simplex_solve(c, A, b, secondary=secondary)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(plain.objective, rel=1e-9, abs=1e-12)
        assert np.all(res.x >= 0.0)
        assert np.all(A @ res.x <= b + 1e-9)
        # HiGHS on the optimal face.  The face is not widened: HiGHS's own
        # feasibility tolerance absorbs rounding, and a wider face lets it
        # trade primary for secondary cost at rates in the thousands.
        face_A = np.vstack([A, c])
        face_b = np.append(b, plain.objective)
        ref = linprog(secondary, A_ub=face_A, b_ub=face_b, bounds=(0, None), method="highs")
        assert ref.status == 0
        assert secondary @ res.x == pytest.approx(ref.fun, rel=1e-9, abs=1e-12)
        if duplicated:
            # the unique optimum of the original LP, each coordinate on
            # its cheaper copy
            n = single.x.size
            best = np.minimum(secondary[:n], secondary[n:]) @ single.x
            assert secondary @ res.x == pytest.approx(best, rel=1e-9, abs=1e-12)


class TestColumnGeneration:
    """Masters over a subset of the columns, priced by a dense oracle that
    offers the column of least reduced cost; x = 0 is feasible on the even
    seeds, so one start column suffices."""

    @pytest.mark.parametrize("duplicated", [False, True])
    @pytest.mark.parametrize("seed", range(0, 20, 2))
    def test_reaches_the_direct_optimum(self, seed, duplicated):
        c, A, b = random_lp(seed)
        if duplicated:
            A = np.hstack([A, A])
            c = np.concatenate([c, c])
        secondary = np.random.default_rng(seed + 1000).normal(size=c.size)
        for sec in (None, secondary):
            direct = simplex_solve(c, A, b, secondary=sec)
            price, received = recording_oracle(c, A, sec)
            res = simplex_solve(c, A, b, secondary=sec, start=np.array([0]), price=price)
            assert res.status == "optimal"
            assert len(res.rounds) == (1 if sec is None else 2)
            assert res.objective == pytest.approx(direct.objective, rel=1e-9, abs=1e-12)
            assert np.all(A @ res.x <= b + 1e-9)
            if sec is None:
                assert b @ received[-1] == pytest.approx(res.objective, rel=1e-9, abs=1e-12)
            else:
                assert sec @ res.x == pytest.approx(sec @ direct.x, rel=1e-9, abs=1e-12)

    def test_master_status_ends_the_solve(self):
        # the start column alone cannot meet x0 + x1 >= 1 with x0 <= 0
        A = np.array([[1.0, 0.0], [-1.0, -1.0]])
        b = np.array([0.0, -1.0])
        res = simplex_solve(np.ones(2), A, b, start=np.array([0]), price=recording_oracle(np.ones(2), A)[0])
        assert res.status == "infeasible"
        assert res.rounds == (1,)


def test_estimator_lp_secondary_matches_highs_lexicographic():
    # trial 25 of criterion 11: the objective is 0, every measure matching
    # the moments is optimal, and the plain vertex is not the one of least
    # next moment
    n, k = 10_000, 5000
    scheme = build_scheme(n, DEFAULT_C1, "estimator")
    depth = degree_for(scheme.n, DEFAULT_C2)
    h = sample_poissonized(make_distribution("uniform", k), n, substream(77, 25))
    targets = moment_table_estimate(h, scheme, depth, clamped=True)
    lp = build_lp(targets, scheme, k)
    A = dense(lp)
    secondary = lp.A.secondary
    plain = simplex_solve(lp.c, A, lp.b)
    res = simplex_solve(lp.c, A, lp.b, secondary=secondary)
    assert res.status == "optimal"
    assert abs(res.objective) <= 1e-12 and abs(plain.objective) <= 1e-12
    first = linprog(lp.c, A_ub=A, b_ub=lp.b, bounds=(0, None), method="highs")
    assert first.status == 0
    face_A = np.vstack([A, lp.c])
    face_b = np.append(lp.b, first.fun)
    ref = linprog(secondary, A_ub=face_A, b_ub=face_b, bounds=(0, None), method="highs")
    assert ref.status == 0
    assert secondary @ res.x == pytest.approx(ref.fun, rel=1e-6)
    assert secondary @ plain.x > ref.fun * (1.0 + 1e-3)


class TestBealeCycling:
    """Beale's LP, on which Dantzig pricing with smallest-index ratio ties cycles."""

    c = np.array([-0.75, 150.0, -0.02, 6.0])
    A = np.array([
        [0.25, -60.0, -0.04, 9.0],
        [0.5, -90.0, -0.02, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ])
    b = np.array([0.0, 0.0, 1.0])

    def test_default_rule(self):
        res = simplex_solve(self.c, self.A, self.b)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-0.05, abs=1e-12)
        assert res.pivots == 2

    def test_bland_rule(self, monkeypatch):
        monkeypatch.setattr(simplex, "_STALL_LIMIT", 0)
        res = simplex_solve(self.c, self.A, self.b)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-0.05, abs=1e-12)
        assert res.pivots == 6


class TestStatuses:
    @staticmethod
    def assert_violation(res, A, b):
        # the residual of the returned x over every row; the solver's
        # support-only product sums in another order than the dense one
        dense = max(0.0, float((A @ res.x - b).max()))
        assert res.violation == pytest.approx(dense, rel=0.0, abs=1e-14 * np.abs(b).max())

    def test_optimal(self):
        # min -x0 - x1 s.t. x0 + 2 x1 <= 4, 3 x0 + x1 <= 6
        A, b = np.array([[1.0, 2.0], [3.0, 1.0]]), np.array([4.0, 6.0])
        res = simplex_solve(np.array([-1.0, -1.0]), A, b)
        assert res.status == "optimal"
        assert res.x == pytest.approx([1.6, 1.2], rel=1e-12)
        self.assert_violation(res, A, b)

    def test_unbounded(self):
        # min -x s.t. -x <= 1
        A, b = np.array([[-1.0]]), np.array([1.0])
        res = simplex_solve(np.array([-1.0]), A, b)
        assert res.status == "unbounded"
        assert res.objective == -np.inf
        self.assert_violation(res, A, b)

    def test_secondary_unbounded_on_the_face(self):
        # min x0 s.t. x0 <= 1: the optimal face x0 = 0 leaves x1 free, and
        # the secondary cost -x1 has no minimum there
        A, b = np.array([[1.0, 0.0]]), np.array([1.0])
        res = simplex_solve(np.array([1.0, 0.0]), A, b, secondary=np.array([0.0, -1.0]))
        assert res.status == "unbounded"
        assert res.objective == 0.0
        self.assert_violation(res, A, b)

    def test_infeasible(self):
        # x <= 1 and x >= 2
        A, b = np.array([[1.0], [-1.0]]), np.array([1.0, -2.0])
        res = simplex_solve(np.array([1.0]), A, b)
        assert res.status == "infeasible"
        assert res.objective == np.inf
        # the returned x = 0 misses x >= 2 by 2
        assert res.violation == 2.0
        self.assert_violation(res, A, b)


# (pivots, support of x > 1e-11) of the estimator's LP at n = 1e4, k = 5000
# on substream(7, 0).  A solver change that moves a vertex moves the estimate.
PINNED_VERTICES = {
    "uniform": (20, [6, 8, 9]),
    "two-level": (14, [0, 37, 75]),
    "zipf:1": (27, [0, 151, 302, 2418, 3371, 4324]),
}


@pytest.mark.parametrize("family", sorted(PINNED_VERTICES))
def test_estimator_lp_vertex_is_pinned(family):
    n, k = 10_000, 5000
    scheme = build_scheme(n, DEFAULT_C1, "estimator")
    depth = degree_for(scheme.n, DEFAULT_C2)
    h = sample_poissonized(make_distribution(family, k), n, substream(7, 0))
    targets = moment_table_estimate(h, scheme, depth, clamped=True)
    lp = build_lp(targets, scheme, k)
    res = simplex_solve(lp.c, dense(lp), lp.b)
    assert res.status == "optimal"
    assert (res.pivots, np.flatnonzero(res.x > 1e-11).tolist()) == PINNED_VERTICES[family]


class ColumnsOnly:
    """A constraint matrix offering only `.shape` and column cuts `A[:, J]`."""

    def __init__(self, A):
        self.shape = A.shape
        self._A = A

    def __getitem__(self, key):
        rows, cols = key
        assert rows == slice(None)
        return self._A[:, cols]


def same_result(got, want):
    assert got.x.tobytes() == want.x.tobytes()
    assert (got.objective, got.status, got.pivots, got.violation, got.rounds, got.columns) == (
        want.objective, want.status, want.pivots, want.violation, want.rounds, want.columns,
    )


class TestColumnsOnly:
    """`simplex_solve` reads A through `.shape` and `A[:, J]` alone."""

    @pytest.mark.parametrize("seed", range(6))
    def test_dense_solve(self, seed):
        c, A, b = random_lp(seed)
        same_result(simplex_solve(c, ColumnsOnly(A), b), simplex_solve(c, A, b))

    @pytest.mark.parametrize("family", ["uniform", "zipf:1"])
    def test_column_generation_with_secondary(self, family):
        n, k = 10_000, 5000
        scheme = build_scheme(n, DEFAULT_C1, "estimator")
        h = sample_poissonized(make_distribution(family, k), n, substream(101, 1))
        lp = build_lp(moment_table_estimate(h, scheme, degree_for(n, DEFAULT_C2), clamped=True), scheme, k)
        A = dense(lp)
        runs = [
            simplex_solve(lp.c, a, lp.b, secondary=lp.A.secondary, start=lp.A.start, price=lp.A.price)
            for a in (ColumnsOnly(A), A, lp.A)
        ]
        assert runs[0].status == "optimal"
        same_result(runs[0], runs[1])
        same_result(runs[2], runs[1])
