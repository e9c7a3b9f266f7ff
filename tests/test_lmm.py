import copy
import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

from sortdist import lmm, simplex
from sortdist.core import AtomicMeasure, DiscreteDistribution, Histogram, measure_of
from sortdist.errors import DomainError, SupportViolationError
from sortdist.harness import make_distribution
from sortdist.intervals import DEFAULT_C1, build_scheme, locate
from sortdist.lmm import (
    _WEIGHT_EPS,
    build_lp,
    estimate_sorted_distribution,
    reference_decomposition,
    solve_lp,
    surrogate_loss,
)
from sortdist.moments import DEFAULT_C2, MomentTable, degree_for, moment_table_estimate
from sortdist.sampling import sample_poissonized, substream
from sortdist.simplex import simplex_solve
from sortdist.wasserstein import w1


def table_from_atom(scheme, depth, x_star, m=None, mass_scaled=1.0):
    """Exact moment table of a single atom carrying k*weight = mass_scaled.

    The atom is attributed to interval m (the enlarged intervals overlap, so
    the attribution is part of the decomposition, not implied by x_star).
    """
    values = np.zeros((scheme.M, depth + 1))
    i = (locate(scheme, x_star) if m is None else m) - 1
    for d in range(depth + 1):
        values[i, d] = mass_scaled * (x_star - scheme.centers[i]) ** d
    return MomentTable(values)


def zero_table(scheme, depth):
    return MomentTable(np.zeros((scheme.M, depth + 1)))


def expected_grid_count(length, k, depth):
    """Points per interval: spacing ~1/(8k), clamped to [32, 4096], at least 2D and 2."""
    return max(min(max(math.ceil(8 * k * length), 32), 4096), 2 * depth, 2)


def dense(lp):
    """The full constraint matrix, cut from the LP's column source."""
    return lp.A[:, np.arange(lp.A.shape[1])]


def included_ranges(s):
    """(m, lo, hi) of every enlarged interval meeting [0, 1], clipped to it."""
    return [
        (m, float(s.tilde_left[m - 1]), min(float(s.tilde_right[m - 1]), 1.0))
        for m in range(1, s.M + 1)
        if s.tilde_left[m - 1] < 1.0
    ]


class TestBuildLP:
    def test_variable_and_row_counts(self):
        s = build_scheme(10**3)
        depth = 2
        tab = zero_table(s, depth)
        # k = 5 leaves a count between the clamps (34 points on [0.163, 1]);
        # k = 2000 reaches both the 4096 cap and an unclamped middle count
        for k, counts in ((5, [32, 34, 32]), (2000, [4096, 4096, 1784])):
            lp = build_lp(tab, s, k)
            ranges = included_ranges(s)
            assert lp.A.m_included == tuple(m for m, _, _ in ranges)
            assert [g.size for g in lp.A.grids] == counts
            assert counts == [expected_grid_count(hi - lo, k, depth) for _, lo, hi in ranges]
            n_int = len(lp.A.m_included)
            assert lp.A.n_weights == sum(counts)
            assert lp.c.size == lp.A.n_weights + (depth + 1) * n_int
            assert lp.A.shape == (2 * (depth + 1) * n_int + 2, lp.c.size)

    def test_grid_uniform_spacing(self):
        s = build_scheme(10**3)
        depth = 1
        lp = build_lp(zero_table(s, depth), s, 5)
        for g, (_, lo, hi) in zip(lp.A.grids, included_ranges(s), strict=True):
            assert g[0] == lo and g[-1] == hi
            assert g.size == expected_grid_count(hi - lo, 5, depth)
            assert np.allclose(np.diff(g), (hi - lo) / (g.size - 1))

    def test_rows_match_their_definition(self):
        # every slack sits in exactly two rows, which read +-(residual) - slack
        # at any weights w; the residual of degree d = 1..D in interval m is
        # k * sum w (x - c_m)^d / tl_m^d - t(m, d) / tl_m^d, the cumulative one
        # k * (weight on intervals m' >= m) - sum_{m' >= m} t(m', 0)
        s = build_scheme(10**3)
        k, depth = 7, 2
        rng = np.random.default_rng(11)
        tab = MomentTable(rng.normal(size=(s.M, depth + 1)))
        lp = build_lp(tab, s, k)
        n_w = lp.A.n_weights
        w = rng.random(n_w)
        parts = np.split(w, np.cumsum([g.size for g in lp.A.grids])[:-1])
        residual, slack_cost, secondary = {}, {}, []
        for mi, (m, g, wm) in enumerate(zip(lp.A.m_included, lp.A.grids, parts)):
            tl, c_m = float(s.tilde_len[m - 1]), float(s.centers[m - 1])
            for d in range(1, depth + 1):
                residual[m, d] = (k * np.sum(wm * (g - c_m) ** d) - tab.value(m, d)) / tl**d
            residual[m, 0] = k * sum(p.sum() for p in parts[mi:]) - tab.values[m - 1:, 0].sum()
            slack_cost.update({(m, d): tl for d in range(depth + 1)})
            secondary.append(tl * k * (g - c_m) ** (depth + 1) / tl ** (depth + 1))

        A = dense(lp)
        slacks = A[:, n_w:]
        matched = []
        for j in range(slacks.shape[1]):
            rows = np.flatnonzero(slacks[:, j])
            assert slacks[rows, j].tolist() == [-1.0, -1.0]
            assert np.count_nonzero(slacks[rows]) == 2
            pos, neg = A[rows, :n_w] @ w - lp.b[rows]
            assert neg == pytest.approx(-pos, rel=1e-12)
            key = min(residual, key=lambda key: abs(abs(residual[key]) - abs(pos)))
            assert abs(pos) == pytest.approx(abs(residual[key]), rel=1e-10)
            assert lp.c[n_w + j] == slack_cost[key]
            matched.append(key)
        assert sorted(matched) == sorted(residual)

        mass, mean = np.flatnonzero(~slacks.any(axis=1))
        assert np.all(A[mass, :n_w] == 1.0) and lp.b[mass] == 1.0
        assert np.array_equal(A[mean, :n_w], np.concatenate(lp.A.grids)) and lp.b[mean] == 1.0 / k
        assert np.all(lp.c[:n_w] == 0.0)
        assert lp.A.secondary[:n_w] == pytest.approx(np.concatenate(secondary), rel=1e-12)
        assert np.all(lp.A.secondary[n_w:] == 0.0)

    def test_zero_targets_solved_by_zero(self):
        s = build_scheme(10**3)
        lp = build_lp(zero_table(s, 2), s, 5)
        res = solve_lp(lp)
        assert res.solver_status == "optimal"
        assert res.objective_value == pytest.approx(0.0, abs=1e-12)
        assert res.measure.locations.size == 0

    def test_never_infeasible_and_nonnegative(self):
        # the zero measure with slacks at |targets| is always feasible
        s = build_scheme(10**3)
        rng = np.random.default_rng(0)
        for _ in range(10):
            values = rng.normal(size=(s.M, 3)) * rng.choice([0.0, 1.0], size=(s.M, 3))
            tab = MomentTable(values)
            res = solve_lp(build_lp(tab, s, 7))
            assert res.solver_status == "optimal"
            assert res.objective_value >= -1e-12


def estimator_lp(family, seed, trial, n=10_000, k=5000):
    scheme = build_scheme(n, DEFAULT_C1, "estimator")
    h = sample_poissonized(make_distribution(family, k), n, substream(seed, trial))
    targets = moment_table_estimate(h, scheme, degree_for(scheme.n, DEFAULT_C2), clamped=True)
    return build_lp(targets, scheme, k)


class TestColumnGeneration:
    """The column-generation solve returns the lexicographic optimum that the
    two-stage simplex reaches on the full LP."""

    @staticmethod
    def full_lp_measure(lp):
        """The lexicographic optimum of the full LP, by the plain two-stage
        simplex with every column in the tableau."""
        full = simplex_solve(lp.c, dense(lp), lp.b, secondary=lp.A.secondary)
        w = full.x[:lp.A.n_weights]
        keep = w > _WEIGHT_EPS
        return full, AtomicMeasure(np.concatenate(lp.A.grids)[keep], w[keep])

    @pytest.mark.parametrize(
        "family,seed,trial",
        [("uniform", 7, 0), ("two-level", 7, 0), ("zipf:1", 7, 0), ("uniform", 77, 25)],
        ids=["uniform", "two-level", "zipf:1", "c11-trial-25"],
    )
    def test_equals_full_lp(self, family, seed, trial):
        lp = estimator_lp(family, seed, trial)
        res = solve_lp(lp)
        full, ref = self.full_lp_measure(lp)
        assert res.solver_status == full.status == "optimal"
        assert np.array_equal(res.measure.locations, ref.locations)
        assert np.allclose(res.measure.weights, ref.weights, rtol=0.0, atol=1e-12)
        assert res.objective_value - lp.objective_const == pytest.approx(full.objective, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("size", ["n1e3", "desk", "zipf:1"])
    def test_pricer_matches_dense_reduced_costs(self, size):
        rng = np.random.default_rng(12)
        if size == "desk":
            lp = desk_lp()
        elif size == "zipf:1":
            lp = estimator_lp("zipf:1", 101, 0)
        else:
            s = build_scheme(10**3)
            lp = build_lp(MomentTable(rng.normal(size=(s.M, 3))), s, 50)
        sizes = np.array([g.size for g in lp.A.grids])
        ends = np.cumsum(sizes)
        A = dense(lp)

        def dense_best(red):
            return [first + int(np.argmin(red[first:end])) for first, end in zip(ends - sizes, ends)]

        # a source whose next-moment cost the test sets; the pricer reads
        # the costs from the source it belongs to
        chosen = copy.copy(lp.A)
        for _ in range(5):
            y = rng.normal(size=lp.b.size)
            y_opt = rng.normal()
            # first stage: the cost c
            assert lp.A.price(y).tolist() == dense_best(lp.c - y @ A)
            # second stage: secondary, with the dual y_opt of c.x <= opt
            assert lp.A.price(np.append(y, y_opt)).tolist() == dense_best(lp.A.secondary - y_opt * lp.c - y @ A)
            # reduced costs of order 1e-6, so any error in a term of the
            # polynomial moves the argmin
            chosen.secondary = y @ A + y_opt * lp.c + 1e-6 * rng.normal(size=lp.c.size)
            red = chosen.secondary - y_opt * lp.c - y @ A
            assert chosen.price(np.append(y, y_opt)).tolist() == dense_best(red)

    def test_small_lps_match_the_direct_solve(self):
        # zero targets, random tables and a single grid atom at n = 1e3
        s = build_scheme(10**3)
        rng = np.random.default_rng(0)
        lps = [build_lp(zero_table(s, 2), s, 5)]
        for _ in range(5):
            values = rng.normal(size=(s.M, 3)) * rng.choice([0.0, 1.0], size=(s.M, 3))
            lps.append(build_lp(MomentTable(values), s, 7))
        probe = build_lp(zero_table(s, 2), s, 10)
        x_star = float(probe.A.grids[1][7])
        lps.append(build_lp(table_from_atom(s, 2, x_star, m=probe.A.m_included[1]), s, 10))
        for lp in lps:
            res = solve_lp(lp)
            full, ref = self.full_lp_measure(lp)
            assert res.solver_status == full.status == "optimal"
            assert res.objective_value - lp.objective_const == pytest.approx(full.objective, rel=1e-9, abs=1e-12)
            assert np.array_equal(res.measure.locations, ref.locations)
            assert np.allclose(res.measure.weights, ref.weights, rtol=0.0, atol=1e-12)

    def test_diagnostics_count_every_master(self, monkeypatch):
        phases = []
        run_phase = simplex._run_phase

        def recorded(*args):
            phases.append(run_phase(*args))
            return phases[-1]

        monkeypatch.setattr(simplex, "_run_phase", recorded)
        lp = estimator_lp("two-level", 7, 0)
        res = solve_lp(lp)
        diag = res.diagnostics
        assert diag["pivots"] == sum(pivots for _, pivots in phases) > 0
        # phase 1 (the LP has negative right-hand sides), then one run per
        # pricing round of each stage
        assert np.any(lp.b < 0)
        assert len(diag["rounds"]) == 2 and 1 + sum(diag["rounds"]) == len(phases)
        assert diag["status"] == res.solver_status == phases[-1][0] == "optimal"
        assert lp.c.size - lp.A.n_weights + 2 * len(lp.A.grids) <= diag["columns"] < lp.c.size
        assert diag["atoms"] == res.measure.locations.size
        assert diag["implied_total_probability"] == pytest.approx(
            lp.A.k * float(res.measure.locations @ res.measure.weights), rel=1e-12
        )

    @pytest.mark.parametrize("family", ["uniform", "two-level", "zipf:1"])
    @pytest.mark.parametrize("n,k", [(10_000, 5000), (1024, 200)])
    def test_violation_is_the_full_lp_residual(self, monkeypatch, family, n, k):
        solved = []
        solve = lmm.simplex_solve

        def recorded(*args, **kwargs):
            solved.append(solve(*args, **kwargs))
            return solved[-1]

        monkeypatch.setattr(lmm, "simplex_solve", recorded)
        lp = estimator_lp(family, 7, 1, n=n, k=k)
        diag = solve_lp(lp).diagnostics
        assert len(solved) == 1 and diag["status"] == "optimal"
        full = max(0.0, float((dense(lp) @ solved[-1].x - lp.b).max()))
        assert 0.0 <= diag["violation"] <= 1e-9
        # the support-only product sums in another order than the dense one
        assert diag["violation"] == pytest.approx(full, rel=0.0, abs=1e-14 * np.abs(lp.b).max())

    @pytest.mark.parametrize("seed,trial", [(77, 25), (101, 3), (101, 8)])
    def test_warm_tableau_does_not_drift(self, seed, trial):
        # on these trials the warm tableau's own basic values violate the
        # constraints by 6e-9 to 7e-9 (|b| about 3.2e3); the vertex solved
        # afresh from its basis does not
        lp = estimator_lp("uniform", seed, trial)
        res = solve_lp(lp)
        _, ref = self.full_lp_measure(lp)
        assert res.solver_status == "optimal"
        assert res.diagnostics["violation"] <= 1e-9
        assert np.array_equal(res.measure.locations, ref.locations)
        assert np.allclose(res.measure.weights, ref.weights, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("size", ["desk", "n1024", "n1e4"])
    def test_start_columns_hold_every_row_maximum(self, size):
        # the tableau is scaled by its start columns, so they must give the
        # full LP's row scaling
        if size == "desk":
            lp = desk_lp()
            assert lp.A.shape == (20, 105)
        else:
            n, k = (1024, 200) if size == "n1024" else (10_000, 5000)
            lp = estimator_lp("zipf:1", 7, 0, n=n, k=k)
        start = lp.A.start
        assert start.size < lp.c.size
        A = dense(lp)
        largest = np.abs(A).max(axis=1)
        assert np.all(largest > 0.0)
        assert np.array_equal(np.abs(A[:, start]).max(axis=1), largest)


def dense_fill(lp):
    """The constraint matrix filled densely, entry by entry as `build_lp`
    filled it before its columns were cut on demand."""
    s, k, depth = lp.A.scheme, lp.A.k, lp.targets.depth
    n_w = lp.A.n_weights
    n_res = (depth + 1) * len(lp.A.m_included)
    A = np.zeros((2 * n_res + 2, n_w + n_res))
    pos = A[0:2 * n_res:2]
    start = 0
    for mi, (m, xg) in enumerate(zip(lp.A.m_included, lp.A.grids)):
        i = m - 1
        tl = float(s.tilde_len[i])
        offset = xg - s.centers[i]
        cols = slice(start, start + xg.size)
        r = mi * (depth + 1)
        for d in range(1, depth + 1):
            pos[r + d - 1, cols] = k * offset**d / tl**d
        pos[r + depth, start:n_w] = float(k)
        start += xg.size
    np.negative(pos, out=A[1:2 * n_res:2])
    res = np.arange(n_res)
    slack = n_w + res - res % (depth + 1) + (res + 1) % (depth + 1)
    A[2 * res, slack] = -1.0
    A[2 * res + 1, slack] = -1.0
    A[2 * n_res, :n_w] = 1.0
    A[2 * n_res + 1, :n_w] = np.concatenate(lp.A.grids)
    return A


def desk_lp():
    """The competitive check's LP at n = 8, k = 4, c1 = 1, c2 = 1."""
    s = build_scheme(8, 1.0, "estimator")
    targets = moment_table_estimate(Histogram([5, 2, 1, 0]), s, degree_for(s.n, 1.0), clamped=True)
    return build_lp(targets, s, 4)


class TestColumnCuts:
    """`lp.A[:, J]` is columns J of the dense fill, bit for bit and in the
    same memory order, so the solve sees the operands it saw on the dense
    matrix."""

    @pytest.mark.parametrize(
        "size", ["uniform", "two-level", "zipf:1", "n1e3-capped", "desk"],
    )
    def test_cut_equals_dense_fill(self, size):
        if size == "desk":
            lp = desk_lp()
        elif size == "n1e3-capped":
            # k = 2000 at n = 1e3 puts 4096 points, the cap, on two intervals
            s = build_scheme(10**3)
            lp = build_lp(MomentTable(np.random.default_rng(3).normal(size=(s.M, 3))), s, 2000)
            assert [g.size for g in lp.A.grids] == [4096, 4096, 1784]
        else:
            lp = estimator_lp(size, 101, 0)
        full = dense_fill(lp)
        assert lp.A.shape == full.shape
        rng = np.random.default_rng(17)
        n_w, n = lp.A.n_weights, full.shape[1]
        ends = np.cumsum([g.size for g in lp.A.grids])
        # one column of every interval, some slacks, some of anything, in
        # random order; then every column, an empty cut and single columns
        every_interval = [int(rng.integers(end - g.size, end)) for end, g in zip(ends, lp.A.grids)]
        mixed = np.concatenate([every_interval, rng.choice(np.arange(n_w, n), 3), rng.choice(n, 20)])
        cuts = [rng.permutation(mixed) for _ in range(5)]
        cuts += [np.arange(n), np.array([], dtype=np.int64), np.array([0]), np.array([n - 1])]
        for J in cuts:
            got, want = lp.A[:, J], full[:, J]
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.strides == want.strides
            assert got.tobytes(order="A") == want.tobytes(order="A")

    def test_holds_a_fraction_of_the_dense_matrix(self):
        lp = estimator_lp("zipf:1", 101, 0)
        assert lp.A.nbytes * 10 < dense_fill(lp).nbytes

    def test_rows_are_not_cut(self):
        with pytest.raises(IndexError):
            desk_lp().A[0, :]


def test_source_bytes_count_every_array_it_holds():
    # the costs are held beside the columns and read by the pricer, but
    # counted by the caller on its own
    A = desk_lp().A
    held = [v for v in vars(A).values() if isinstance(v, np.ndarray)]
    costs = [A.c, A.secondary]
    read = [v for v in held if not any(v is cost for cost in costs)]
    assert len(read) == len(held) - 2
    assert A.nbytes == sum(v.nbytes for v in read)


def lp_bytes(lp):
    """Every array of the LP, and its constant, as bytes."""
    return {
        "A": lp.A[:, np.arange(lp.A.shape[1])].tobytes(order="A"),
        **{name: getattr(lp, name).tobytes() for name in ("b", "c")},
        "secondary": lp.A.secondary.tobytes(),
        "objective_const": lp.objective_const.hex(),
        "grids": [g.tobytes() for g in lp.A.grids],
    }


def cold_lp(targets, scheme, k):
    """`build_lp` with the kept column source dropped first."""
    lmm._grid_columns.cache_clear()
    return build_lp(targets, scheme, k)


class TestSkeletonMemo:
    """The histogram-free skeleton of the LP, its `GridColumns`, is built
    once per (scheme, k, depth); the LP built from it is the LP built from
    nothing."""

    @pytest.mark.parametrize("size", ["uniform", "two-level", "zipf:1", "desk"])
    def test_warm_build_equals_cold(self, size):
        if size == "desk":
            s, k = build_scheme(8, 1.0, "estimator"), 4
            depth = degree_for(s.n, 1.0)
            tables = [
                moment_table_estimate(Histogram(h), s, depth, clamped=True) for h in ([3, 3, 2, 0], [5, 2, 1, 0])
            ]
        else:
            s, k = build_scheme(10_000, DEFAULT_C1, "estimator"), 5000
            p = make_distribution(size, k)
            depth = degree_for(s.n, DEFAULT_C2)
            tables = [
                moment_table_estimate(sample_poissonized(p, s.n, substream(101, t)), s, depth, clamped=True)
                for t in (1, 0)
            ]
        first = cold_lp(tables[0], s, k)
        warm = build_lp(tables[1], s, k)
        assert warm.A is first.A and warm.c is first.c
        info = lmm._grid_columns.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        assert warm.b.tobytes() != first.b.tobytes()
        cold = cold_lp(tables[1], s, k)
        assert cold.A is not warm.A
        assert lp_bytes(warm) == lp_bytes(cold)

    def test_each_key_gets_its_own_skeleton(self):
        s = build_scheme(10**3)
        tab = zero_table(s, 2)
        moved = dataclasses.replace(s, tilde_right=s.tilde_right * 0.99)
        h = Histogram(np.random.default_rng(8).poisson(10.0, size=50))
        deeper = moment_table_estimate(h, s, degree_for(s.n, 2 * DEFAULT_C2), clamped=True)
        assert deeper.depth != degree_for(s.n, DEFAULT_C2) == 2
        cases = {
            "k": (tab, s, 6),
            "k type": (tab, s, np.int64(5)),
            "depth": (deeper, s, 5),
            "new scheme": (tab, build_scheme(10**3), 5),
            "replaced scheme": (tab, moved, 5),
        }
        for name, args in cases.items():
            ref = build_lp(tab, s, 5)
            assert build_lp(tab, s, 5).A is ref.A
            lp = build_lp(*args)
            assert lp.A is not ref.A, name
            assert lp_bytes(lp) == lp_bytes(cold_lp(*args)), name
        lp = build_lp(*cases["replaced scheme"])
        assert lp.A.grids[0][-1] == moved.tilde_right[0] < ref.A.grids[0][-1]

    def test_shared_arrays_are_read_only(self):
        lp = desk_lp()
        for array in (lp.c, lp.A.secondary, lp.A.grids[0], lp.A.points):
            with pytest.raises(ValueError):
                array[0] = 1.0
        lp.b[0] = 1.0  # each LP's own

    def test_memo_holds_one_skeleton(self):
        s = build_scheme(10**3)
        first = build_lp(zero_table(s, 2), s, 5)
        held = weakref.ref(first.A)
        del first
        build_lp(zero_table(s, 2), s, 6)
        gc.collect()
        assert held() is None
        info = lmm._grid_columns.cache_info()
        assert info.maxsize == info.currsize == 1

    def test_equal_valued_schemes_miss(self):
        # a scheme is its own key: an equal-valued one built apart misses
        a, b = build_scheme(10**3), build_scheme(10**3)
        first = cold_lp(zero_table(a, 2), a, 5)
        second = build_lp(zero_table(b, 2), b, 5)
        assert second.A is not first.A and second.A.scheme is b
        info = lmm._grid_columns.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 1)
        assert lp_bytes(second) == lp_bytes(first)

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_lp_reads_everything_but_b_from_its_columns(self, warm):
        s, k = build_scheme(8, 1.0, "estimator"), 4
        targets = moment_table_estimate(Histogram([5, 2, 1, 0]), s, degree_for(s.n, 1.0), clamped=True)
        if warm:
            build_lp(targets, s, k)
            lp = build_lp(targets, s, k)
        else:
            lp = cold_lp(targets, s, k)
        assert lp.A is lmm._grid_columns(s, k, targets.depth) and lp.c is lp.A.c and lp.k is lp.A.k
        assert lp.A.scheme is s and lp.A.k == k and lp.A.n_weights == lp.A.points.size
        assert [f.name for f in dataclasses.fields(lmm.LPInstance)] == ["A", "b", "objective_const", "targets"]

    @pytest.mark.parametrize("k", [0, -3, 2.5, 4.0], ids=["zero", "negative", "fraction", "integral-float"])
    def test_rejects_k_that_is_not_a_positive_integer(self, k):
        s = build_scheme(1000)
        tab = zero_table(s, 2)
        for warm in (False, True):
            lmm._grid_columns.cache_clear()
            kept = build_lp(tab, s, 4).A if warm else None
            with pytest.raises(DomainError):
                build_lp(tab, s, k)
            # a build that raises keeps nothing, and the kept source stays
            assert lmm._grid_columns.cache_info().currsize == warm
            if warm:
                assert build_lp(tab, s, 4).A is kept

    def test_accepts_numpy_integers(self):
        s = build_scheme(1000)
        tab = zero_table(s, 2)
        for k in (np.int64(5), np.int32(5)):
            lp = build_lp(tab, s, k)
            assert lp.A.k == 5 and lp_bytes(lp) == lp_bytes(build_lp(tab, s, 5))


class TestSingleAtomRecovery:
    def test_recovers_grid_atom(self):
        s = build_scheme(10**3)
        k, depth = 10, 2
        lp_probe = build_lp(zero_table(s, depth), s, k)
        m_star = lp_probe.A.m_included[1]
        x_star = float(lp_probe.A.grids[1][7])  # an exact grid location of m_star
        tab = table_from_atom(s, depth, x_star, m=m_star, mass_scaled=1.0)
        res = solve_lp(build_lp(tab, s, k))
        assert res.objective_value <= 1e-8
        assert res.measure.locations.size == 1
        assert res.measure.locations[0] == pytest.approx(x_star, abs=1e-12)
        assert res.measure.weights[0] == pytest.approx(1.0 / k, abs=1e-9)


class TestSurrogateLoss:
    def test_exact_targets_give_zero(self):
        s = build_scheme(10**3)
        rng = np.random.default_rng(1)
        k = 20
        masses = rng.random(k) + 1e-2
        p = DiscreteDistribution(masses / masses.sum())
        cand = reference_decomposition(p, s)
        depth = 2
        values = np.zeros((s.M, depth + 1))
        for m in range(1, s.M + 1):
            mu_m = cand[m - 1]
            if mu_m is None:
                continue
            for d in range(depth + 1):
                values[m - 1, d] = k * float(
                    np.sum((mu_m.locations - s.centers[m - 1]) ** d * mu_m.weights)
                )
        tab = MomentTable(values)
        assert surrogate_loss(cand, tab, s, k) == pytest.approx(0.0, abs=1e-10)

    def test_zero_zero(self):
        s = build_scheme(10**3)
        assert surrogate_loss([None] * s.M, zero_table(s, 2), s, 4) == 0.0

    def test_single_perturbed_first_moment_costs_epsilon(self):
        s = build_scheme(10**3)
        k, depth, m = 8, 2, 2
        x_m = float(s.centers[m - 1])
        cand = [None] * s.M
        cand[m - 1] = AtomicMeasure([x_m], [1.0 / k])
        tab = table_from_atom(s, depth, x_m, m=m)
        eps = 3e-4
        vals = tab.values.copy()
        vals[m - 1, 1] += eps
        tab2 = MomentTable(vals)
        assert surrogate_loss(cand, tab2, s, k) == pytest.approx(eps, rel=1e-9)

    def test_triangle_in_targets(self):
        s = build_scheme(10**3)
        rng = np.random.default_rng(2)
        k, depth = 12, 2
        masses = rng.random(k) + 1e-2
        p = DiscreteDistribution(masses / masses.sum())
        cand = reference_decomposition(p, s)
        for _ in range(20):
            va = rng.normal(size=(s.M, depth + 1)) * 0.1
            vb = rng.normal(size=(s.M, depth + 1)) * 0.1
            ta = MomentTable(va)
            tb = MomentTable(vb)
            la, lb = surrogate_loss(cand, ta, s, k), surrogate_loss(cand, tb, s, k)
            # distance between tables in the same weighted norm
            tdiff = MomentTable(va - vb)
            ld = surrogate_loss([None] * s.M, tdiff, s, k)
            assert abs(la - lb) <= ld + 1e-12

    def test_support_violation_raises(self):
        s = build_scheme(10**3)
        cand = [None] * s.M
        cand[0] = AtomicMeasure([min(1.0, float(s.tilde_right[0]) + 0.05)], [0.1])
        with pytest.raises(SupportViolationError):
            surrogate_loss(cand, zero_table(s, 1), s, 4)


def snap_to_grid(cand, lp):
    """Mean-preserving split of each atom onto its interval's grid."""
    out = []
    for m_pos, m in enumerate(lp.A.m_included):
        mu_m = cand[m - 1] if m - 1 < len(cand) else None
        if mu_m is None or mu_m.locations.size == 0:
            out.append(None)
            continue
        g = lp.A.grids[m_pos]
        locs, wts = [], []
        for x, w in zip(mu_m.locations, mu_m.weights):
            x = min(max(x, g[0]), g[-1])
            j = int(np.searchsorted(g, x))
            if j == 0 or g[j] == x:
                locs.append(g[j]); wts.append(w)
            else:
                lo, hi = g[j - 1], g[j]
                t = (x - lo) / (hi - lo)
                locs += [lo, hi]; wts += [w * (1 - t), w * t]
        out.append(AtomicMeasure(locs, wts))
    out += [None] * (len(cand) - len(out))
    return out


class TestEstimator:
    def test_lp_beats_grid_snapped_reference(self):
        rng = np.random.default_rng(3)
        n = 1024
        s = build_scheme(n)
        for _ in range(5):
            k = int(rng.integers(20, 300))
            masses = rng.random(k) + 1e-2
            p = DiscreteDistribution(masses / masses.sum())
            h = Histogram(rng.poisson(n * p.masses))
            depth = degree_for(n)
            tab = moment_table_estimate(h, s, depth)
            lp = build_lp(tab, s, k)
            res = solve_lp(lp)
            ref = reference_decomposition(p, s)
            snapped = snap_to_grid(ref, lp)
            assert res.objective_value <= surrogate_loss(snapped, tab, s, k) + 1e-8

    def test_surrogate_chain_with_calibrated_constant(self):
        # deterministic cap: kW1 <= 2C'(sqrt(k/(n log n)) + n^(9 c2/2) L(ref)) + k/n^4
        rng = np.random.default_rng(42)
        c_prime = 0.01  # calibrated: measured max 0.0012 over this ensemble
        for trial in range(20):
            n = int(rng.choice([1024, 2048]))
            s = build_scheme(n)
            k = int(rng.integers(30, 800))
            masses = rng.random(k) + 1e-3
            p = DiscreteDistribution(masses / masses.sum())
            h = Histogram(rng.poisson(n * p.masses))
            tab = moment_table_estimate(h, s, degree_for(n))
            res = solve_lp(build_lp(tab, s, k))
            mu = (res.measure + AtomicMeasure.dirac(0.0, max(0.0, 1 - res.measure.total_mass))).pruned()
            lhs = k * w1(mu, measure_of(p))
            loss_ref = surrogate_loss(reference_decomposition(p, s), tab, s, k)
            rhs = 2 * c_prime * (math.sqrt(k / (n * math.log(n))) + n ** (9 * 0.25 / 2) * loss_ref) + k / n**4
            assert lhs <= rhs

    def test_output_is_probability_with_legal_support(self):
        rng = np.random.default_rng(4)
        n = 1024
        s = build_scheme(n)
        for _ in range(5):
            k = int(rng.integers(5, 200))
            masses = rng.random(k) + 1e-2
            p = DiscreteDistribution(masses / masses.sum())
            h = Histogram(rng.poisson(n * p.masses))
            res = estimate_sorted_distribution(h, k, s)
            mu = res.measure
            assert mu.is_probability
            for x in mu.locations:
                ok = x == 0.0 or any(
                    s.tilde_left[i] - 1e-12 <= x <= s.tilde_right[i] + 1e-12 for i in range(s.M)
                )
                assert ok

    @pytest.mark.parametrize("k", [0, -2])
    def test_rejects_k_below_one(self, k):
        with pytest.raises(DomainError):
            estimate_sorted_distribution(Histogram([40, 17, 0, 1]), k, build_scheme(1024))

    def test_rejects_approximation_variant_scheme(self):
        # the converse of glue's variant check: an approximation-variant
        # scheme builds a solvable LP, so only the check stops it
        s = build_scheme(10**4, 4.0, "approximation")
        with pytest.raises(DomainError, match="estimator-variant"):
            build_lp(zero_table(s, 2), s, 500)
        h = sample_poissonized(make_distribution("uniform", 500), 10**4, substream(3, 0))
        with pytest.raises(DomainError, match="estimator-variant"):
            estimate_sorted_distribution(h, 500, s)

    def test_zero_histogram_returns_point_mass_at_zero(self):
        s = build_scheme(1024)
        res = estimate_sorted_distribution(Histogram(np.zeros(6, dtype=int)), 6, s)
        assert res.measure.locations.tolist() == [0.0]
        assert res.measure.weights.tolist() == [1.0]

    def test_beats_plugin_on_uniform_k_equals_n(self):
        from sortdist.harness import ExperimentConfig, run_benchmark

        cfg = ExperimentConfig(n=1024, k=1024, dist="uniform", trials=20, seed=42)
        _, summary = run_benchmark(cfg)
        assert summary["mean_ratio_lmm_over_empirical"] <= 1.0

    def test_point_source_mass_near_one(self):
        n = 4096
        s = build_scheme(n)
        for seed in range(3):
            h = Histogram([int(np.random.default_rng(seed).poisson(n))])
            res = estimate_sorted_distribution(h, 1, s)
            m = res.measure
            near = float(m.weights[np.abs(m.locations - 1.0) <= 0.05].sum())
            assert near >= 0.9

    def test_determinism_bit_identical(self):
        n = 1024
        s = build_scheme(n)
        rng = np.random.default_rng(5)
        k = 100
        masses = rng.random(k) + 1e-2
        p = DiscreteDistribution(masses / masses.sum())
        h = Histogram(rng.poisson(n * p.masses))
        a = estimate_sorted_distribution(h, k, s)
        b = estimate_sorted_distribution(h, k, s)
        assert a.to_json() == b.to_json()

    def test_result_json_fields(self):
        s = build_scheme(1024)
        res = estimate_sorted_distribution(Histogram([40, 17, 0, 1]), 4, s)
        import json

        payload = json.loads(res.to_json())
        assert set(payload) == {"atoms", "objective", "status", "moments", "depth"}
