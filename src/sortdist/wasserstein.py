"""Exact Wasserstein-1 distance between atomic measures and its dual side.

Everything here is breakpoint arithmetic on step CDFs; no quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AtomicMeasure
from .errors import InvalidWitnessError, MassMismatchError

__all__ = ["LipschitzWitness", "MeasureBatch", "w1", "w1_many", "dual_value", "optimal_witness"]

_MASS_TOL = 1e-10
_SLOPE_TOL = 1e-12


@dataclass(frozen=True)
class LipschitzWitness:
    """Piecewise-linear test function with every slope in [-1, 1].

    Defined on [0, inf): value_at_zero at x = 0, slope slopes[i] on
    [breakpoints[i], breakpoints[i+1]) and slopes[-1] beyond the last
    breakpoint.  breakpoints[0] must be 0.
    """

    breakpoints: np.ndarray
    slopes: np.ndarray
    value_at_zero: float = 0.0

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        sl = np.asarray(self.slopes, dtype=float)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "slopes", sl)
        if bp.ndim != 1 or sl.ndim != 1 or bp.size != sl.size or bp.size == 0:
            raise InvalidWitnessError("need equally many breakpoints and slopes")
        if bp[0] != 0.0 or np.any(np.diff(bp) <= 0):
            raise InvalidWitnessError("breakpoints must start at 0 and increase")
        if np.any(np.abs(sl) > 1.0 + _SLOPE_TOL):
            raise InvalidWitnessError("slope exceeds 1 in absolute value")

    def __call__(self, x) -> np.ndarray | float:
        xx = np.asarray(x, dtype=float)
        vals = self.value_at_zero + np.zeros_like(xx)
        seg_end = np.append(self.breakpoints[1:], np.inf)
        cum = self.value_at_zero
        for lo, hi, s in zip(self.breakpoints, seg_end, self.slopes):
            vals = np.where(xx >= lo, cum + s * (np.minimum(xx, hi) - lo), vals)
            if np.isfinite(hi):
                cum += s * (hi - lo)
        return float(vals) if np.isscalar(x) else vals

    @staticmethod
    def constant(value: float = 0.0) -> "LipschitzWitness":
        return LipschitzWitness(np.array([0.0]), np.array([0.0]), value)


def _merged_cdfs(mu: AtomicMeasure, nu: AtomicMeasure):
    """Common sorted breakpoints with both CDFs evaluated there."""
    bp = np.union1d(mu.locations, nu.locations)
    cum_mu = np.concatenate([[0.0], np.cumsum(mu.weights)])
    cum_nu = np.concatenate([[0.0], np.cumsum(nu.weights)])
    f_mu = cum_mu[np.searchsorted(mu.locations, bp, side="right")]
    f_nu = cum_nu[np.searchsorted(nu.locations, bp, side="right")]
    return bp, f_mu, f_nu


def w1(mu: AtomicMeasure, nu: AtomicMeasure) -> float:
    """Integral of |F_mu - F_nu| over the line, exact on the merged breakpoints."""
    if abs(mu.total_mass - nu.total_mass) > _MASS_TOL:
        raise MassMismatchError(
            f"total masses differ: {mu.total_mass!r} vs {nu.total_mass!r}"
        )
    if mu.locations.size == 0 or nu.locations.size == 0:
        return 0.0
    bp, f_mu, f_nu = _merged_cdfs(mu, nu)
    gaps = np.diff(bp)
    return float(np.abs(f_mu - f_nu)[:-1] @ gaps)


class MeasureBatch:
    """The fixed side of `w1_many` for a list of atomic measures, built once
    and kept by callers that score the same measures against many nu, every
    array read-only: per measure (one row each) its `locations` in
    ascending order, padded with +inf to the widest row, its CDF
    `cdfs` = [0, cumsum(weights)], padded with its last value, and its
    `total_mass`.
    """

    def __init__(self, measures):
        measures = tuple(measures)
        width = max((m.locations.size for m in measures), default=0)
        self.locations = np.full((len(measures), width), np.inf)
        self.cdfs = np.zeros((len(measures), width + 1))
        for loc, cdf, m in zip(self.locations, self.cdfs, measures):
            size = m.locations.size
            loc[:size] = m.locations
            cdf[1 : size + 1] = np.cumsum(m.weights)
            cdf[size + 1 :] = cdf[size]
        self.total_mass = np.asarray([m.total_mass for m in measures], dtype=float)
        for array in (self.locations, self.cdfs, self.total_mass):
            array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.total_mass)


def w1_many(batch: MeasureBatch, nu: AtomicMeasure) -> np.ndarray:
    """`w1(mu, nu)` for each measure mu of the batch, as one array op.

    Each row's breakpoints are its padded locations and nu's, sorted
    together, so +inf sits behind and a location that both hold appears
    twice, with a gap of 0 between the copies.  Its own CDF there is an
    exact count of its locations <= each breakpoint, nu's a searchsorted,
    and the gaps after the last finite breakpoint are 0.  Each row's sum
    of |dF| * gap is one matmul of a (1, t) by a (t, 1) block, which numpy
    hands to the BLAS dot that `w1`'s `@` calls: the same terms in the
    same order, with terms of gap 0 among and behind them.  Where that dot
    adds its terms in order, as OpenBLAS does for fewer than 16, a zero
    term changes no bit, so each distance keeps `w1`'s bytes.  Here
    t = (widest row) + (nu's atoms) - 1, at most 11 within the desk's caps
    (n <= 12, k <= 5).  einsum or a sum over axis 1 round apart in the
    last bit.
    """
    bad = np.flatnonzero(np.abs(batch.total_mass - nu.total_mass) > _MASS_TOL)
    if bad.size:
        raise MassMismatchError(
            f"total masses differ: {float(batch.total_mass[bad[0]])!r} vs {nu.total_mass!r}"
        )
    rows = len(batch)
    if nu.locations.size == 0 or batch.locations.shape[1] == 0:
        return np.zeros(rows)
    own = batch.locations
    theirs = np.broadcast_to(nu.locations, (rows, nu.locations.size))
    bp = np.sort(np.concatenate([own, theirs], axis=1), axis=1)
    counts = (own[:, None, :] <= bp[:, :, None]).sum(axis=2)
    f_mu = np.take_along_axis(batch.cdfs, counts, axis=1)
    cum_nu = np.concatenate([[0.0], np.cumsum(nu.weights)])
    f_nu = cum_nu[np.searchsorted(nu.locations, bp, side="right")]
    # each +inf read as the row's last breakpoint, so the gaps after it are 0
    last = bp[np.arange(rows), (bp < np.inf).sum(axis=1) - 1]
    gaps = np.diff(np.minimum(bp, last[:, None]), axis=1)
    d = np.abs(f_mu - f_nu)[:, :-1]
    out = np.matmul(d[:, None, :], gaps[:, :, None])[:, 0, 0]
    # a row with no atoms reads 0, as in w1
    out[own[:, 0] == np.inf] = 0.0
    return out


def dual_value(f: LipschitzWitness, mu: AtomicMeasure, nu: AtomicMeasure) -> float:
    """E_mu[f] - E_nu[f]; never exceeds w1(mu, nu) for equal-mass measures."""
    if abs(mu.total_mass - nu.total_mass) > _MASS_TOL:
        raise MassMismatchError("dual pairing requires equal total masses")
    return float(f(mu.locations) @ mu.weights - f(nu.locations) @ nu.weights)


def optimal_witness(mu: AtomicMeasure, nu: AtomicMeasure) -> LipschitzWitness:
    """A maximizing witness: slope sign(F_nu - F_mu) between breakpoints."""
    if abs(mu.total_mass - nu.total_mass) > _MASS_TOL:
        raise MassMismatchError("witness construction requires equal total masses")
    if mu.locations.size == 0 or nu.locations.size == 0:
        return LipschitzWitness.constant(0.0)
    bp, f_mu, f_nu = _merged_cdfs(mu, nu)
    starts = bp
    slopes = np.sign(f_nu - f_mu)
    if starts[0] > 0.0:
        starts = np.concatenate([[0.0], starts])
        slopes = np.concatenate([[0.0], slopes])
    slopes[-1] = 0.0  # CDFs agree beyond the last atom
    return LipschitzWitness(starts, slopes, 0.0)
