import math

import numpy as np
import pytest

from sortdist import poisson_approx
from sortdist.core import binom_half_logpmf, binomial_pmf, poisson_interval_prob, poisson_pmf
from sortdist.errors import DomainError, RateMismatchError
from sortdist.harness import parse_function
from sortdist.intervals import build_scheme
from sortdist.poisson_approx import (
    LocalBlock,
    build_poisson_approximation,
    evaluate,
    glue,
    jackson_approx,
    monomial_to_poisson,
    naive_coefficients,
    verify_bounds,
)


def evaluate_blocked(poly, x):
    """Identity route: half-rate interval weights times local block values."""
    if not poly.blocks or poly.scheme is None:
        raise DomainError("polynomial carries no block decomposition")
    scheme = poly.scheme
    rate = poly.n / 2.0
    lam = rate * x
    total = 0.0
    for blk in poly.blocks:
        k_lo, k_hi = scheme.half_range(blk.m)
        if k_hi < max(k_lo, 0):
            continue
        ks = np.arange(max(k_lo, 0), k_hi + 1)
        weight = float(poisson_pmf(lam, ks).sum())
        if weight == 0.0 or blk.values.size == 0:
            continue
        j = np.arange(blk.offset, blk.offset + blk.values.size)
        total += weight * float(blk.values @ poisson_pmf(blk.rate * x, j))
    cut = poly.coeffs.size - 1
    lam_full = poly.n * x
    jmax = min(cut, int(lam_full + 40.0 * math.sqrt(lam_full + 1.0) + 40.0))
    f0_weight = float(poisson_pmf(lam_full, np.arange(0, jmax + 1)).sum()) if poly.f0 else 0.0
    return total + poly.f0 * f0_weight


def evaluate_wide(poly, x):
    """The scalar evaluation over a 40-sd window, the reference for `evaluate`."""
    lam = poly.n * x
    if lam < 0:
        raise DomainError("x must be >= 0")
    hw = 40.0 * math.sqrt(lam + 1.0) + 40.0
    lo = max(0, int(lam - hw))
    hi = min(poly.coeffs.size - 1, int(lam + hw))
    if hi < lo:
        return 0.0
    j = np.arange(lo, hi + 1)
    return float(poly.coeffs[lo : hi + 1] @ poisson_pmf(lam, j))


def verify_grid(n):
    """The x grid of `verify_bounds` at n."""
    return np.unique(
        np.concatenate([np.linspace(0.0, 1.0, 513), np.geomspace(1.0 / (4 * n), 0.05, 160)])
    )


def piecewise_lipschitz(rng, pieces=6):
    bp = np.sort(rng.uniform(0, 1, pieces - 1))
    slopes = rng.uniform(-1, 1, pieces)

    def f(x, bp=bp, slopes=slopes):
        val, prev = 0.0, 0.0
        for i, b in enumerate(np.append(bp, np.inf)):
            seg = min(x, b) - prev
            if seg <= 0:
                break
            val += slopes[i] * seg
            prev = b
        return val

    return f


class TestJackson:
    def test_linear_exact(self):
        P = jackson_approx(lambda x: 3 * x - 1, 0.2, 0.6, 4, center=0.3)
        xs = np.linspace(0.2, 0.6, 100)
        assert np.max(np.abs(P(xs) - (3 * xs - 1))) <= 1e-12

    def test_zero_function(self):
        P = jackson_approx(lambda x: 0.0, 0.1, 0.9, 3)
        assert np.allclose(P.coeffs, 0.0, atol=1e-15)

    def test_kink_rate(self):
        a, b = 0.3, 0.7
        P = jackson_approx(lambda x: abs(x - 0.5), a, b, 8)
        xs = np.linspace(a, b, 4001)
        sup = np.max(np.abs(P(xs) - np.abs(xs - 0.5)))
        assert sup <= 4.0 * (b - a) / 8

    def test_degree_zero_nonconstant_rejected(self):
        with pytest.raises(DomainError):
            jackson_approx(lambda x: x, 0.0, 1.0, 0)

    def test_rate_improves_with_degree(self):
        a, b = 0.2, 0.8
        xs = np.linspace(a, b, 2001)
        errs = []
        for D in (4, 8, 16, 32):
            P = jackson_approx(lambda x: abs(x - 0.5), a, b, D)
            errs.append(np.max(np.abs(P(xs) - np.abs(xs - 0.5))))
        assert errs[-1] < errs[0] / 4

    def test_coefficient_bounds_on_lipschitz_fits(self):
        # shifted-basis coefficients decay like the interval scale to 1-d,
        # with calibrated constant 0.5 (measured admissible max ~0.61)
        rng = np.random.default_rng(0)
        n = 2**12
        s = build_scheme(n, 4.0, "approximation")
        for _ in range(50):
            f = piecewise_lipschitz(rng)
            m = int(rng.integers(1, s.M + 1))
            i = m - 1
            P = jackson_approx(
                f, float(s.tilde_left[i]), float(s.tilde_right[i]), 10,
                center=float(s.centers[i]), m=m,
            )
            scale = 0.5 * 4.0 * m * math.log(n) / n
            assert abs(P.coeffs[1]) <= 1.1
            for d in range(2, P.degree + 1):
                assert abs(P.coeffs[d]) <= scale ** (1 - d) * (1 + 1e-9)

    def test_symmetric_coefficient_bound_lemma(self):
        # polynomial bounded by A on [c-h, c+h] has |a_d| <= A h^-d (1+sqrt2)^D
        rng = np.random.default_rng(1)
        for _ in range(25):
            f = piecewise_lipschitz(rng)
            lo, width = rng.uniform(0.05, 0.5), rng.uniform(0.1, 0.4)
            hi = lo + width
            D = int(rng.integers(2, 12))
            P = jackson_approx(f, lo, hi, D)  # centered at the midpoint
            xs = np.linspace(lo, hi, 800)
            bound_a = float(np.max(np.abs(P(xs))))
            h = width / 2
            cap = (1 + math.sqrt(2)) ** D
            for d in range(D + 1):
                assert abs(P.coeffs[d]) <= bound_a * h**-d * cap * (1 + 1e-9)


class TestBasisConversion:
    def test_constant_maps_to_ones(self):
        P = jackson_approx(lambda x: 1.0, 0.0, 1.0, 1, center=0.37)
        bj = monomial_to_poisson(P, 50.0, 0, 200)
        assert np.allclose(bj, 1.0, atol=1e-12)

    def test_identity_maps_to_j_over_n(self):
        P = jackson_approx(lambda x: x, 0.0, 1.0, 1, center=0.0)
        bj = monomial_to_poisson(P, 50.0, 0, 300)
        assert np.allclose(bj, np.arange(301) / 50.0, atol=1e-12)

    def test_square_falling_factorial(self):
        P = jackson_approx(lambda x: x * x, 0.0, 1.0, 2, center=0.0)
        bj = monomial_to_poisson(P, 10.0, 0, 60)
        j = np.arange(61)
        assert np.allclose(bj, j * (j - 1) / 100.0, atol=1e-11)

    def test_representation_exact_on_random_polynomials(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            D = int(rng.integers(1, 21))
            center = float(rng.uniform(0, 1))
            coeffs = rng.uniform(-1, 1, D + 1) * 0.5 ** np.arange(D + 1)
            from sortdist.poisson_approx import LocalPolynomial

            P = LocalPolynomial(m=1, center=center, coeffs=coeffs, lo=0.0, hi=1.0)
            rate = float(rng.integers(30, 120))
            for x in rng.uniform(0.05, 0.9, 4):
                lam = rate * x
                hw = int(40 * math.sqrt(lam + 1)) + 60
                bj = monomial_to_poisson(P, rate, 0, int(lam) + hw)
                val = float(bj @ poisson_pmf(lam, np.arange(bj.size)))
                assert val == pytest.approx(P(float(x)), abs=1e-8)


class TestTruncateAndGlue:
    @pytest.mark.parametrize("n", [2**10, 2**12])
    def test_blocks_come_out_on_their_outer_ranges(self, n):
        poly = build_poisson_approximation(lambda x: abs(x - 0.5), n)
        assert len(poly.blocks) == poly.scheme.M
        for blk in poly.blocks:
            lo, hi = poisson_approx._outer_count_range(poly.scheme, blk.m, n / 2.0)
            assert blk.offset == lo and blk.values.size == hi - lo + 1

    def test_truncation_error_small_on_inner_interval(self):
        # constant block: leaving out the coefficients outside the outer
        # range moves the value on the inner interval by far less than 1e-4
        n = 10**4
        s = build_scheme(n, 4.0, "approximation")
        rate = n / 2.0
        const = 0.7
        lo, hi = poisson_approx._outer_count_range(s, 1, rate)
        blk = LocalBlock(m=1, rate=rate, offset=lo, values=np.full(hi - lo + 1, const))
        for x in np.linspace(s.tilde_left[0], s.tilde_right[0], 21):
            lam = rate * float(x)
            got = float(blk.values @ poisson_pmf(lam, np.arange(blk.offset, blk.offset + blk.values.size)))
            assert abs(got - const) <= 1e-4 * const

    def test_glue_of_zero_blocks_is_zero(self):
        s = build_scheme(4096, 4.0, "approximation")
        rate = 4096 / 2.0
        blocks = [LocalBlock(m=m, rate=rate, offset=0, values=np.zeros(0)) for m in range(1, s.M + 1)]
        assert np.all(glue(blocks, 4096, s) == 0.0)

    def test_glue_rate_mismatch(self):
        s = build_scheme(4096, 4.0, "approximation")
        blocks = [LocalBlock(m=1, rate=4096.0, offset=0, values=np.ones(3))]
        with pytest.raises(RateMismatchError):
            glue(blocks, 4096, s)

    def test_blocked_and_direct_routes_agree(self):
        f = lambda x: abs(x - 0.5)
        poly = build_poisson_approximation(f, 2**10)
        for x in (0.0, 0.03, 0.25, 0.5, 0.77, 1.0):
            assert evaluate(poly, x) == pytest.approx(evaluate_blocked(poly, x), abs=1e-8)

    def test_single_block_localizes(self):
        # with a strong localization constant, far intervals contribute ~0
        n = 4096
        s = build_scheme(n, 42.0, "approximation")
        rate = n / 2.0
        m = 2
        i = m - 1
        lo = int(math.ceil(s.cut_left[i] * rate))
        hi = int(math.floor(s.cut_right[i] * rate))
        values = np.full(hi - lo + 1, 0.31)
        blocks = [
            LocalBlock(m=mm, rate=rate, offset=(lo if mm == m else 0),
                       values=(values if mm == m else np.zeros(0)))
            for mm in range(1, s.M + 1)
        ]
        coeffs = glue(blocks, n, s)
        poly_like = float(coeffs @ poisson_pmf(n * float(s.centers[i]), np.arange(coeffs.size)))
        local_val = float(values @ poisson_pmf(rate * float(s.centers[i]), np.arange(lo, hi + 1)))
        # n^-4 localization plus the roundoff of a ~2000-term dot product
        assert abs(poly_like - local_val) <= n**-4 + 1e-12


def reference_glue(blocks, scheme):
    """The per-coefficient loop that `glue` reproduces byte for byte."""
    j_max = 0
    for blk in blocks:
        if blk.values.size == 0:
            continue
        _, k_hi = scheme.half_range(blk.m)
        j_max = max(j_max, k_hi + blk.offset + blk.values.size - 1)
    out = np.zeros(j_max + 1)
    for blk in blocks:
        if blk.values.size == 0:
            continue
        k_lo, k_hi = scheme.half_range(blk.m)
        k_lo = max(k_lo, 0)
        if k_hi < k_lo:
            continue
        ks = np.arange(k_lo, k_hi + 1, dtype=float)
        for li, b_l in enumerate(blk.values):
            if b_l == 0.0:
                continue
            l = blk.offset + li
            js = ks + l
            out[js.astype(int)] += b_l * np.exp(binom_half_logpmf(js, ks))
    return out


def hand_made_blocks():
    """Random blocks over the outer count ranges at n = 4096, a third of the
    coefficients zero (some -0.0), with one empty and one all-zero block."""
    n = 4096
    s = build_scheme(n, 4.0, "approximation")
    rate = n / 2.0
    rng = np.random.default_rng(11)
    blocks = []
    for m in range(1, s.M + 1):
        lo = max(int(math.ceil(s.cut_left[m - 1] * rate)), 0)
        hi = int(math.floor(s.cut_right[m - 1] * rate))
        values = rng.normal(size=hi - lo + 1)
        values[rng.random(values.size) < 0.3] = 0.0
        values[rng.random(values.size) < 0.05] = -0.0
        if m == 2:
            values = np.zeros(0)
        elif m == 3:
            values[:] = 0.0
        blocks.append(LocalBlock(m=m, rate=rate, offset=lo, values=values))
    return blocks, n, s


@pytest.mark.parametrize("tile", [None, 7, 1000], ids=["default-tile", "tile-7", "tile-1000"])
def test_glue_matches_reference_loop(monkeypatch, tile):
    # small tiles put chunk edges inside every block
    if tile is not None:
        monkeypatch.setattr(poisson_approx, "_TILE_DOUBLES", tile)
    cases = [hand_made_blocks()]
    for name in ("abs", "identity"):
        for n in (2**10, 2**12):
            poly = build_poisson_approximation(parse_function(name), n)
            cases.append((poly.blocks, n, poly.scheme))
    for blocks, n, s in cases:
        assert glue(blocks, n, s).tobytes() == reference_glue(blocks, s).tobytes()


class TestFullConstruction:
    def test_identity_function_near_exact(self):
        poly = build_poisson_approximation(lambda x: x, 2**12)
        xs = np.linspace(0, 1, 200)
        sup = max(abs(evaluate(poly, float(x)) - float(x)) for x in xs)
        assert sup <= 1e-3
        j = np.arange(2**12)
        assert np.max(np.abs(poly.coeffs[: 2**12] - j / 2**12)) <= 1e-3

    def test_value_at_zero_is_constant_coefficient(self):
        f = lambda x: abs(x - 0.5)
        poly = build_poisson_approximation(f, 2**10)
        assert evaluate(poly, 0.0) == pytest.approx(poly.coeffs[0], abs=1e-15)
        assert poly.coeffs[0] == pytest.approx(f(0.0), abs=1e-12)

    def test_all_one_coefficients_evaluate_to_one(self):
        from sortdist.poisson_approx import PoissonPolynomial

        poly = PoissonPolynomial(n=256, delta=1.0, coeffs=np.ones(4 * 256))
        for x in (0.1, 0.5, 0.95):
            assert evaluate(poly, x) == pytest.approx(1.0, abs=1e-10)

    def test_mean_coefficients_evaluate_to_x(self):
        from sortdist.poisson_approx import PoissonPolynomial

        n = 256
        poly = PoissonPolynomial(n=n, delta=3.0, coeffs=np.arange(4 * n) / n)
        for x in (0.1, 0.5, 0.95):
            assert evaluate(poly, x) == pytest.approx(x, abs=1e-9)

    def test_support_bound_exact(self):
        for n in (2**10, 2**12):
            poly = build_poisson_approximation(lambda x: abs(x - 0.5), n, delta=1.0)
            assert poly.coeffs.size - 1 <= 2 * n
            assert verify_bounds(poly, lambda x: abs(x - 0.5)).support_ok

    def test_sweep_stability_of_weighted_error(self):
        f = lambda x: abs(x - 0.5)
        stats = []
        for n in (2**10, 2**12, 2**14):
            poly = build_poisson_approximation(f, n)
            stats.append(verify_bounds(poly, f).sup_weighted_error)
        assert max(stats) < 2 * min(stats)

    def test_sweep_coefficient_stat_bounded(self):
        f = lambda x: abs(x - 0.5)
        for n in (2**10, 2**12, 2**14):
            poly = build_poisson_approximation(f, n)
            rep = verify_bounds(poly, f, eps=0.5)
            assert rep.max_coeff_deviation <= 1.5  # measured ~0.70 across the sweep
            assert rep.max_abs_coeff <= 2.0

    def test_glued_beats_naive_at_the_kink(self):
        # the pointwise gain of the construction shows where the plain
        # coefficient choice is at its worst: the kink of f
        f = lambda x: abs(x - 0.5)
        n = 2**14
        poly = build_poisson_approximation(f, n)
        naive = naive_coefficients(f, n)
        glued_err = abs(evaluate(poly, 0.5) - f(0.5))
        naive_err = abs(evaluate(naive, 0.5) - f(0.5))
        assert glued_err <= 0.9 * naive_err

    def test_binomial_cdf_step_bound(self):
        # |F_{n+1}(t) - F_n(t)| <= 2/sqrt(n) exactly, every breakpoint, n <= 500
        worst_scaled = 0.0
        for n in range(1, 501):
            c_n = np.concatenate([[0.0], np.cumsum(binomial_pmf(n, 0.5, np.arange(n + 1)))])
            c_n1 = np.concatenate([[0.0], np.cumsum(binomial_pmf(n + 1, 0.5, np.arange(n + 2)))])
            ts = np.unique(np.concatenate([np.arange(n + 1) / n, np.arange(n + 2) / (n + 1)]))
            f_n = c_n[np.floor(ts * n + 1e-12).astype(int) + 1]
            f_n1 = c_n1[np.floor(ts * (n + 1) + 1e-12).astype(int) + 1]
            worst_scaled = max(worst_scaled, float(np.max(np.abs(f_n1 - f_n))) * math.sqrt(n))
        assert worst_scaled <= 2.0


class TestEvaluate:
    @pytest.mark.parametrize("n", [2**10, 2**12, 2**14, 2**16])
    def test_matches_the_wide_window(self, n):
        f = parse_function("abs")
        xs = np.unique(np.concatenate([verify_grid(n), [0.25, 0.5]]))
        for poly in (build_poisson_approximation(f, n), naive_coefficients(f, n)):
            got = evaluate(poly, xs)
            want = np.asarray([evaluate_wide(poly, float(x)) for x in xs])
            zero = want == 0.0
            assert np.all(np.abs(got[zero]) <= 1e-16)
            assert np.all(np.abs(got - want)[~zero] <= 1e-13 * np.abs(want[~zero]))

    def test_array_call_is_byte_equal_to_scalar_calls(self):
        poly = build_poisson_approximation(parse_function("abs"), 2**10)
        xs = np.concatenate([verify_grid(2**10), [0.25, 0.5, 3.0, 1e6]])
        scalars = [evaluate(poly, float(x)) for x in xs]
        assert all(type(v) is float for v in scalars)
        assert evaluate(poly, xs).tobytes() == np.asarray(scalars).tobytes()
        grid = xs[:12].reshape(3, 4)
        assert evaluate(poly, grid).shape == (3, 4)
        assert evaluate(poly, grid).tobytes() == np.asarray(scalars[:12]).tobytes()
        assert evaluate(poly, np.zeros(0)).shape == (0,)

    @pytest.mark.parametrize("bad", [-1e-9, -1.0, math.nan, math.inf])
    def test_rejects_negative_or_non_finite_x(self, bad):
        poly = naive_coefficients(parse_function("abs"), 64)
        with pytest.raises(DomainError):
            evaluate(poly, bad)
        with pytest.raises(DomainError):
            evaluate(poly, np.array([0.1, 0.5, bad, 0.7]))

    def test_window_leaves_out_less_than_1e_minus_20(self):
        # the window of `evaluate` at rate lam, uncapped by the coefficients;
        # the upper tail is gammainc(hi + 1, lam) directly, because
        # poisson_interval_prob forms it as a difference of two values near 1
        from scipy.special import gammainc

        lams = np.unique(np.concatenate([[0.0], np.geomspace(1e-4, 7e4, 400), np.linspace(0.0, 7e4, 701)]))
        worst = 0.0
        for lam in lams.tolist():
            hw = 10.0 * math.sqrt(lam + 1.0) + 40.0
            lo, hi = max(0, int(lam - hw)), int(lam + hw)
            below = poisson_interval_prob(lam, 0, lo - 1)
            above = float(gammainc(hi + 1.0, lam))
            worst = max(worst, below + above)
        assert worst < 1e-20
