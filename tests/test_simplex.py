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
    def test_unbounded(self):
        # min -x s.t. -x <= 1
        res = simplex_solve(np.array([-1.0]), np.array([[-1.0]]), np.array([1.0]))
        assert res.status == "unbounded"
        assert res.objective == -np.inf

    def test_infeasible(self):
        # x <= 1 and x >= 2
        res = simplex_solve(np.array([1.0]), np.array([[1.0], [-1.0]]), np.array([1.0, -2.0]))
        assert res.status == "infeasible"
        assert res.objective == np.inf


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
    targets = moment_table_estimate(h, scheme, depth, c2=DEFAULT_C2, clamped=True)
    lp = build_lp(targets, scheme, k)
    res = simplex_solve(lp.c, lp.A, lp.b)
    assert res.status == "optimal"
    assert (res.pivots, np.flatnonzero(res.x > 1e-11).tolist()) == PINNED_VERTICES[family]
