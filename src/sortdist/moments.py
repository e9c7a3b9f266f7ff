"""Smoothed local moments and their unbiased histogram-based estimators.

The degree-d kernel g_{d,c}(z) is the unique polynomial with
E[g_{d,c}(2h/n)] = (p - c)^d when h ~ Poisson(n p / 2).  Writing
t = n z / 2 and a = n c / 2 it equals (2/n)^d * C_d(t; a) where C_d is the
monic Charlier polynomial, so we evaluate it through the three-term
recurrence

    C_{d+1}(t; a) = (t - d - a) * C_d(t; a) - d * a * C_{d-1}(t; a),

which avoids the catastrophic cancellation of the explicit alternating
binomial sum for d beyond ~20.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Histogram, DiscreteDistribution, binom_half_logpmf, poisson_interval_prob
from .errors import DomainError
from .intervals import IntervalScheme

__all__ = [
    "MomentTable",
    "g_eval",
    "g_family",
    "g_tilde_eval",
    "smoothed_moment_true",
    "half_sample_landing_prob",
    "moment_table_estimate",
    "moment_table_true",
    "degree_for",
    "DEFAULT_C2",
]

D_MAX = 60

# Default moment depth constant; degree_for keeps c2*log(n) >= 1 from n ~ 55 up.
DEFAULT_C2 = 0.25


def degree_for(n: int, c2: float = DEFAULT_C2) -> int:
    """Moment depth D = round(c2 log n), floored at 1."""
    if not (math.isfinite(c2) and c2 > 0):
        raise DomainError(f"c2 must be a finite positive number, not {c2!r}")
    return max(1, int(round(c2 * math.log(n))))


def charlier_family(t, a: float, d_max: int) -> np.ndarray:
    """Monic Charlier values C_0..C_{d_max} at t (vectorized over t)."""
    tt = np.asarray(t, dtype=float)
    out = np.empty((d_max + 1,) + tt.shape)
    out[0] = 1.0
    if d_max >= 1:
        out[1] = tt - a
    for d in range(1, d_max):
        out[d + 1] = (tt - d - a) * out[d] - d * a * out[d - 1]
    return out


def g_family(d_max: int, center: float, z, n: int) -> np.ndarray:
    """g_{0,center}..g_{d_max,center} evaluated at z, stacked along axis 0."""
    if d_max > D_MAX:
        raise DomainError(f"degree capped at {D_MAX}")
    if d_max < 0:
        raise DomainError("degree must be >= 0")
    zz = np.asarray(z, dtype=float)
    fam = charlier_family(zz * (n / 2.0), n * center / 2.0, d_max)
    scale = (2.0 / n) ** np.arange(d_max + 1)
    return fam * scale.reshape((-1,) + (1,) * zz.ndim)


def g_eval(d: int, center: float, x: float, n: int) -> float:
    """Single evaluation of the degree-d kernel centered at `center`."""
    return float(g_family(d, center, np.asarray([x]), n)[d][0])


def g_tilde_eval(d: int, m: int, x, scheme: IntervalScheme):
    """Kernel clamped at the interval's cutoff points (constant outside)."""
    i = scheme.index(m)
    xx = np.clip(np.asarray(x, dtype=float), scheme.cut_left[i], scheme.cut_right[i])
    vals = g_family(d, float(scheme.centers[i]), xx, scheme.n)[d]
    return float(vals) if np.isscalar(x) else vals


@dataclass(frozen=True)
class MomentTable:
    """Values indexed by (interval m in 1..M, degree d in 0..D)."""

    values: np.ndarray  # shape (M, D+1)

    @property
    def M(self) -> int:
        return self.values.shape[0]

    @property
    def depth(self) -> int:
        return self.values.shape[1] - 1

    def value(self, m: int, d: int) -> float:
        return float(self.values[m - 1, d])


def half_sample_landing_prob(p_masses: np.ndarray, scheme: IntervalScheme, m: int) -> np.ndarray:
    """P(Poisson(n p / 2) lands in interval m's half-sample range), per mass p."""
    lo, hi = scheme.half_range(m)
    return poisson_interval_prob(scheme.n * p_masses / 2.0, lo, hi)


def _true_moments(p: DiscreteDistribution, scheme: IntervalScheme, m: int, depth: int) -> np.ndarray:
    """Smoothed moments of degrees 0..depth in interval m from one power table,
    each row summed along its contiguous last axis as a 1-D sum would be."""
    diff = p.masses - scheme.centers[scheme.index(m)]
    powers = np.array([diff**d for d in range(depth + 1)])
    return (powers * half_sample_landing_prob(p.masses, scheme, m)).sum(axis=1)


def smoothed_moment_true(p: DiscreteDistribution, m: int, d: int, scheme: IntervalScheme) -> float:
    """Sum over symbols of (p_j - x_m)^d times the half-sample landing probability."""
    return float(_true_moments(p, scheme, m, d)[d])


def _distinct_counts(h: Histogram):
    values, counts = np.unique(h.counts[h.counts > 0], return_counts=True)
    return values.astype(np.int64), counts.astype(np.int64)


def moment_table_estimate(
    h: Histogram,
    scheme: IntervalScheme,
    depth: int,
    clamped: bool = True,
) -> MomentTable:
    """All estimated moments (m in 1..M, d in 0..depth) in one pass per interval.

    For every symbol, a Binomial(h_j, 1/2) split plays the role of an
    independent half sample: the landing half s selects the interval and the
    kernel is evaluated on the leftover half h_j - s.  With `clamped`, the
    kernel is the cutoff version (the estimator actually deployed); without,
    the raw kernel, whose expectation is exactly the true smoothed moment.

    Symbols are grouped by distinct positive count v.  Interval m gathers
    every pair (v, s) with s in its half-sample range and s <= v, and sums the
    kernels at (v - s)/(n/2) weighted by (symbols with count v) * P(s | v).
    """
    if depth > D_MAX:
        raise DomainError(f"degree capped at {D_MAX}")
    n = scheme.n
    values = np.zeros((scheme.M, depth + 1))
    dist_vals, dist_counts = _distinct_counts(h)
    for i in range(scheme.M):
        lo, hi = scheme.half_range(i + 1)
        lo = max(lo, 0)
        first = int(np.searchsorted(dist_vals, lo))
        if hi < lo or first == dist_vals.size:
            continue
        # the counts v >= lo, each repeated once per s in lo..min(hi, v)
        width = np.minimum(dist_vals[first:], hi) - lo + 1
        v = np.repeat(dist_vals[first:], width)
        s = np.arange(v.size) - np.repeat(np.cumsum(width) - width, width) + lo
        weight = np.repeat(dist_counts[first:], width) * np.exp(binom_half_logpmf(v, s))
        z = (v - s) / (n / 2.0)
        if clamped:
            z = np.clip(z, scheme.cut_left[i], scheme.cut_right[i])
        values[i] = g_family(depth, float(scheme.centers[i]), z, n) @ weight
    return MomentTable(values)


def moment_table_true(
    p: DiscreteDistribution,
    scheme: IntervalScheme,
    depth: int,
) -> MomentTable:
    """Exact smoothed moments of a known distribution, same layout."""
    return MomentTable(np.array([_true_moments(p, scheme, m, depth) for m in range(1, scheme.M + 1)]))
