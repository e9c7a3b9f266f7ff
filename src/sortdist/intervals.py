"""Local interval geometry.

The unit interval is split into quadratically growing local intervals
I_m = (u*(m-1)^2, u*m^2] with u = c1*log(n)/n.  Each I_m carries an
enlarged interval and a pair of cutoff points used to clamp the moment
polynomials.  Two variants exist:

* "estimator": enlargement offsets (5/4, 1/4), cutoffs (3/2, 1/2),
  center 0 for m = 1 and the arithmetic midpoint of I_m for m >= 2.
* "approximation": enlargement offsets (4/3, 1/3), outer truncation
  offsets (2, 1), center u*(m-1/2)^2; the scheme covers [0, 1] from above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import poisson_pmf
from .errors import DegenerateSchemeError, DomainError

__all__ = ["IntervalScheme", "build_scheme", "locate", "localization_check", "DEFAULT_C1"]

# Smallest integer for which the exact localization tails stay below n^-5
# at n in {1e3, 1e4}; recalibrate with tests/test_intervals.py if changed.
DEFAULT_C1 = 42.0


@dataclass(frozen=True, eq=False)
class IntervalScheme:
    """Immutable record of the interval endpoints for one (n, c1, variant);
    it hashes and compares by identity, so a cache on it hits one object."""

    n: int
    c1: float
    variant: str
    M: int
    unit: float                 # c1 * log(n) / n
    left: np.ndarray            # I_m left endpoints (open)
    right: np.ndarray           # I_m right endpoints (closed)
    tilde_left: np.ndarray      # enlarged interval, closed
    tilde_right: np.ndarray
    cut_left: np.ndarray        # clamp/truncation bounds
    cut_right: np.ndarray
    centers: np.ndarray
    tilde_len: np.ndarray

    def index(self, m: int) -> int:
        if not 1 <= m <= self.M:
            raise DomainError(f"interval index {m} outside [1, {self.M}]")
        return m - 1

    @property
    def cover_right(self) -> float:
        return float(self.right[-1])

    def half_range(self, m: int) -> tuple[int, int]:
        """Integers s with s/(n/2) in I_m, as an inclusive (lo, hi) range."""
        i = self.index(m)
        scale = self.n / 2.0
        lo = int(math.floor(self.left[i] * scale + 1e-12)) + 1
        hi = int(math.floor(self.right[i] * scale + 1e-12))
        return lo, hi

    def full_range(self, m: int) -> tuple[int, int]:
        """Integers t with t/n in the closed enlarged interval."""
        i = self.index(m)
        lo = int(math.ceil(self.tilde_left[i] * self.n - 1e-12))
        hi = int(math.floor(self.tilde_right[i] * self.n + 1e-12))
        return lo, hi


def build_scheme(n: int, c1: float = DEFAULT_C1, variant: str = "estimator") -> IntervalScheme:
    """Construct the interval scheme for sample size n and tuning constant c1.

    Sized for n >= 16; smaller n down to 4 is accepted so enumeration-scale
    harnesses can run the full estimator, but no tail guarantees hold there.
    """
    if n < 4:
        raise DomainError("n must be at least 4")
    if not (math.isfinite(c1) and c1 >= 1):
        raise DomainError(f"c1 must be a finite number at least 1, not {c1!r}")
    if variant not in ("estimator", "approximation"):
        raise DomainError(f"unknown variant {variant!r}")
    logn = math.log(n)
    if c1 * logn > n:
        raise DegenerateSchemeError(f"c1*log(n) = {c1 * logn:.3g} exceeds n = {n}")
    unit = c1 * logn / n

    if variant == "estimator":
        M = int(n / (c1 * logn))
    else:
        M = int(math.ceil(math.sqrt(n / (c1 * logn))))
    if M < 1:
        raise DegenerateSchemeError("no usable local interval")

    m = np.arange(1, M + 1, dtype=float)
    left = unit * (m - 1.0) ** 2
    right = unit * m**2

    if variant == "estimator":
        tl = unit * np.maximum(m - 1.25, 0.0) ** 2
        tr = unit * (m + 0.25) ** 2
        cl = unit * np.maximum(m - 1.5, 0.0) ** 2
        cr = unit * (m + 0.5) ** 2
        centers = (left + right) / 2.0
        centers[0] = 0.0
    else:
        tl = unit * np.maximum(m - 4.0 / 3.0, 0.0) ** 2
        tr = unit * (m + 1.0 / 3.0) ** 2
        cl = unit * np.maximum(m - 2.0, 0.0) ** 2
        cr = unit * (m + 1.0) ** 2
        centers = unit * (m - 0.5) ** 2

    return IntervalScheme(
        n=n, c1=float(c1), variant=variant, M=M, unit=unit,
        left=left, right=right, tilde_left=tl, tilde_right=tr,
        cut_left=cl, cut_right=cr, centers=centers, tilde_len=tr - tl,
    )


def locate(scheme: IntervalScheme, x: float) -> int:
    """Index m with x in I_m; x = 0 maps to 1, residual tail merges into I_M."""
    if x < 0 or not np.isfinite(x):
        raise DomainError(f"x = {x!r} outside covered range")
    if x == 0.0:
        return 1
    if x > max(scheme.cover_right, 1.0) + 1e-12:
        raise DomainError(f"x = {x!r} beyond interval cover")
    m = int(math.ceil(math.sqrt(x / scheme.unit) - 1e-12))
    m = max(1, min(m, scheme.M))
    # guard floating edges of the half-open convention
    while m > 1 and x <= scheme.left[m - 1]:
        m -= 1
    while m < scheme.M and x > scheme.right[m - 1]:
        m += 1
    return m


def _pmf_sum(lam: float, lo: int, hi: int) -> float:
    """Plain pmf summation over the integer range [lo, hi]."""
    lo = max(lo, 0)
    if hi < lo:
        return 0.0
    t = np.arange(lo, hi + 1)
    return float(poisson_pmf(lam, t).sum())


def _right_tail_sum(lam: float, lo: int) -> float:
    """P(Poisson(lam) >= lo) by direct summation of the decaying tail."""
    hi = int(lam + 60.0 * math.sqrt(lam + 1.0) + 40.0)
    return _pmf_sum(lam, lo, max(hi, lo + 10))


def localization_check(scheme: IntervalScheme, p: float, m: int) -> tuple[float, float]:
    """Exact escape/intrusion probabilities for a Poisson(n*p) count.

    Returns (tail_out, tail_in): the probability that the count escapes the
    enlarged interval (meaningful when p is inside I_m), and the probability
    that it lands inside n*I_m (meaningful when p is outside the enlarged
    interval).  Computed by pmf summation over the escaping/intruding ranges
    themselves, so tiny tails keep full relative precision.
    """
    if not 0.0 <= p <= 1.0 + 1e-12:
        raise DomainError("p must lie in [0, 1]")
    i = scheme.index(m)
    n = scheme.n
    lam = n * p
    in_lo, in_hi = scheme.full_range(m)
    tail_out = _pmf_sum(lam, 0, in_lo - 1) + _right_tail_sum(lam, in_hi + 1)
    lo = int(math.floor(scheme.left[i] * n + 1e-12)) + 1
    hi = int(math.floor(scheme.right[i] * n + 1e-12))
    tail_in = _pmf_sum(lam, lo, hi)
    return tail_out, tail_in


def worst_case_localization(scheme: IntervalScheme) -> float:
    """Max over all m of both localization tails at boundary-worst rates."""
    worst = 0.0
    for m in range(1, scheme.M + 1):
        i = m - 1
        for p in (scheme.left[i], scheme.right[i]):
            if p <= 1.0:
                worst = max(worst, localization_check(scheme, p, m)[0])
        for p in (scheme.tilde_left[i], scheme.tilde_right[i]):
            if p <= 1.0:
                worst = max(worst, localization_check(scheme, p, m)[1])
    return worst
