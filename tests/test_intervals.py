import math

import numpy as np
import pytest

from sortdist.errors import DegenerateSchemeError, DomainError
from sortdist.intervals import (
    DEFAULT_C1,
    build_scheme,
    locate,
    localization_check,
    worst_case_localization,
)


class TestBuildScheme:
    def test_endpoints_quadratic(self):
        n = 55  # ~ e^4
        s = build_scheme(n, 1.0)
        u = math.log(n) / n
        assert s.left[0] == 0.0
        assert s.right[0] == pytest.approx(u, rel=1e-15)
        assert s.left[1] == pytest.approx(u, rel=1e-15)
        assert s.right[1] == pytest.approx(4 * u, rel=1e-15)

    def test_partition_contiguous(self):
        s = build_scheme(10**4)
        assert np.allclose(s.right[:-1], s.left[1:], rtol=0, atol=0)

    def test_center_conventions(self):
        s = build_scheme(10**4, 3.0)
        u = s.unit
        assert s.centers[0] == 0.0
        assert s.centers[1] == pytest.approx(2.5 * u, rel=1e-14)

    def test_cut_left_first_interval_zero(self):
        s = build_scheme(10**3)
        assert s.cut_left[0] == 0.0

    def test_nesting(self):
        s = build_scheme(10**4)
        for m in range(2, s.M + 1):
            i = m - 1
            assert s.tilde_left[i] <= s.left[i] and s.right[i] <= s.tilde_right[i]
            assert s.cut_left[i] <= s.tilde_left[i] and s.tilde_right[i] <= s.cut_right[i]

    def test_tilde_lengths_increase(self):
        s = build_scheme(10**4)
        lens = s.tilde_len[1:]
        assert np.all(np.diff(lens) > 0)

    def test_cut_width_between_one_and_two_tilde_lengths(self):
        s = build_scheme(10**4)
        for m in range(2, s.M + 1):
            i = m - 1
            width = s.cut_right[i] - s.cut_left[i]
            assert s.tilde_len[i] <= width + 1e-15
            assert width <= 2 * s.tilde_len[i] + 1e-15

    def test_degenerate(self):
        with pytest.raises(DegenerateSchemeError):
            build_scheme(16, 40.0)
        with pytest.raises(DomainError):
            build_scheme(3, 1.0)

    def test_approximation_variant(self):
        s = build_scheme(4096, 4.0, "approximation")
        u = s.unit
        assert s.cover_right >= 1.0  # covers the unit interval from above
        assert s.centers[0] == pytest.approx(0.25 * u, rel=1e-14)
        for m in range(1, s.M + 1):
            i = m - 1
            assert s.tilde_left[i] == pytest.approx(u * max(m - 4 / 3, 0) ** 2, rel=1e-13)
            assert s.tilde_right[i] == pytest.approx(u * (m + 1 / 3) ** 2, rel=1e-13)
            assert s.cut_left[i] == pytest.approx(u * max(m - 2, 0) ** 2, rel=1e-13)
            assert s.cut_right[i] == pytest.approx(u * (m + 1) ** 2, rel=1e-13)

    def test_hashes_and_compares_by_identity(self):
        # the estimator's kept column source is keyed on the very scheme
        a, b = build_scheme(1000), build_scheme(1000)
        assert a == a and a != b and not a == b
        assert hash(a) == hash(a) and len({a, b, a}) == 2
        assert {a: 1}.get(b) is None


class TestLocate:
    def test_zero(self):
        s = build_scheme(10**4)
        assert locate(s, 0.0) == 1

    def test_boundaries_half_open(self):
        s = build_scheme(10**4)
        assert locate(s, float(s.right[2])) == 3
        assert locate(s, float(s.left[2]) + 1e-12) == 3

    def test_partition_property(self):
        s = build_scheme(10**3)
        rng = np.random.default_rng(0)
        for x in rng.uniform(0, 1, 10**4):
            m = locate(s, float(x))
            i = m - 1
            inside = (s.left[i] < x <= s.right[i]) or (m == s.M and x > s.right[i])
            assert inside

    def test_out_of_range(self):
        s = build_scheme(10**3)
        with pytest.raises(DomainError):
            locate(s, -0.1)
        with pytest.raises(DomainError):
            locate(s, max(1.0, s.cover_right) + 1.0)


class TestLocalization:
    def test_zero_rate_first_interval(self):
        s = build_scheme(10**3)
        tail_out, _ = localization_check(s, 0.0, 1)
        assert tail_out == 0.0

    def test_matches_high_precision_oracle(self):
        # 40-digit arithmetic as the independent route
        import mpmath as mp

        mp.mp.dps = 40

        def exact_range(lam, a, b):
            lam = mp.mpf(lam)
            return float(mp.nsum(lambda t: mp.e**-lam * lam**mp.mpf(t) / mp.factorial(t), [a, b]))

        s = build_scheme(10**3)
        rng = np.random.default_rng(1)
        for _ in range(8):
            m = int(rng.integers(1, s.M + 1))
            p = float(rng.uniform(0, min(1.0, s.cover_right)))
            tail_out, tail_in = localization_check(s, p, m)
            i, n = m - 1, s.n
            lam = n * p
            lo, hi = math.ceil(s.tilde_left[i] * n - 1e-12), math.floor(s.tilde_right[i] * n + 1e-12)
            want_out = (exact_range(lam, 0, lo - 1) if lo > 0 else 0.0) + exact_range(lam, hi + 1, hi + 2000)
            lo2, hi2 = math.floor(s.left[i] * n + 1e-12) + 1, math.floor(s.right[i] * n + 1e-12)
            want_in = exact_range(lam, lo2, hi2)
            assert tail_out == pytest.approx(want_out, rel=1e-10, abs=1e-300)
            assert tail_in == pytest.approx(want_in, rel=1e-10, abs=1e-300)

    def test_center_tail_small(self):
        s = build_scheme(10**3)
        tail_out, _ = localization_check(s, float(s.centers[1]), 2)
        assert tail_out <= 10**-15

    @pytest.mark.parametrize("n", [10**3, 10**4])
    def test_default_c1_meets_power_bound(self, n):
        s = build_scheme(n, DEFAULT_C1)
        assert worst_case_localization(s) <= n**-5

    def test_default_c1_is_minimal_integer(self):
        # one notch below the default must fail somewhere
        c1 = int(DEFAULT_C1) - 1
        failed = False
        for n in (10**3, 10**4):
            s = build_scheme(n, c1)
            if worst_case_localization(s) > n**-5:
                failed = True
        assert failed
