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

import io
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
    "smoothed_moment_estimate",
    "effective_support",
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
    if c2 <= 0:
        raise DomainError("c2 must be positive")
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

    def to_csv(self, truth: "MomentTable | None" = None) -> str:
        buf = io.StringIO()
        buf.write("m,d,estimate,truth_if_known\n")
        for m in range(1, self.M + 1):
            for d in range(self.depth + 1):
                t = "" if truth is None else repr(truth.value(m, d))
                buf.write(f"{m},{d},{self.value(m, d)!r},{t}\n")
        return buf.getvalue()


def _half_sample_interval_prob(p_masses: np.ndarray, scheme: IntervalScheme, m: int) -> np.ndarray:
    lo, hi = scheme.half_range(m)
    return poisson_interval_prob(scheme.n * p_masses / 2.0, lo, hi)


def smoothed_moment_true(p: DiscreteDistribution, m: int, d: int, scheme: IntervalScheme) -> float:
    """Sum over symbols of (p_j - x_m)^d times the half-sample landing probability."""
    i = scheme.index(m)
    prob = _half_sample_interval_prob(p.masses, scheme, m)
    return float(np.sum((p.masses - scheme.centers[i]) ** d * prob))


def effective_support(p: DiscreteDistribution, m: int, scheme: IntervalScheme) -> float:
    """Expected number of symbols whose half-sample count lands in the interval."""
    return float(np.sum(_half_sample_interval_prob(p.masses, scheme, m)))


def _distinct_counts(h: Histogram):
    values, counts = np.unique(h.counts[h.counts > 0], return_counts=True)
    return values.astype(np.int64), counts.astype(np.int64)


def smoothed_moment_estimate(
    h: Histogram,
    m: int,
    d: int,
    scheme: IntervalScheme,
    clamped: bool = True,
) -> float:
    """Unbiased estimator of the smoothed moment from the histogram alone.

    For every symbol, a Binomial(h_j, 1/2) split plays the role of an
    independent half sample: the landing half selects the interval and the
    kernel is evaluated on the leftover half.  With `clamped`, the kernel is
    the cutoff version (the estimator actually deployed); without, the raw
    kernel, whose expectation is exactly the true smoothed moment.
    """
    table = moment_table_estimate(h, scheme, depth=d, clamped=clamped, only_m=m)
    return table.value(m, d)


def moment_table_estimate(
    h: Histogram,
    scheme: IntervalScheme,
    depth: int,
    clamped: bool = True,
    only_m: int | None = None,
) -> MomentTable:
    """All estimated moments (m in 1..M, d in 0..depth) in one histogram pass.

    Work is grouped by distinct positive count value; a symbol with count v
    can only land in intervals whose half-sample range intersects [0, v].
    """
    if depth > D_MAX:
        raise DomainError(f"degree capped at {D_MAX}")
    n = scheme.n
    M = scheme.M
    values = np.zeros((M, depth + 1))
    ms = range(1, M + 1) if only_m is None else [only_m]
    ranges = {m: scheme.half_range(m) for m in ms}
    dist_vals, dist_counts = _distinct_counts(h)
    for v, cnt in zip(dist_vals, dist_counts):
        v = int(v)
        for m in ms:
            lo, hi = ranges[m]
            lo_v, hi_v = max(lo, 0), min(hi, v)
            if hi_v < lo_v:
                continue
            s = np.arange(lo_v, hi_v + 1)
            pmf = np.exp(binom_half_logpmf(v, s))
            z = (v - s) / (n / 2.0)
            i = m - 1
            if clamped:
                z = np.clip(z, scheme.cut_left[i], scheme.cut_right[i])
            fam = g_family(depth, float(scheme.centers[i]), z, n)
            values[m - 1] += cnt * (fam @ pmf)
    return MomentTable(values)


def moment_table_true(
    p: DiscreteDistribution,
    scheme: IntervalScheme,
    depth: int,
) -> MomentTable:
    """Exact smoothed moments of a known distribution, same layout."""
    M = scheme.M
    values = np.zeros((M, depth + 1))
    for m in range(1, M + 1):
        prob = _half_sample_interval_prob(p.masses, scheme, m)
        diff = p.masses - scheme.centers[m - 1]
        for d in range(depth + 1):
            values[m - 1, d] = float(np.sum(diff**d * prob))
    return MomentTable(values)
