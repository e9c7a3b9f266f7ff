"""Foundational types and exact small-scale primitives.

Discrete distributions, histograms, profiles (the multiset of counts),
atomic measures on the line, exact profile probabilities at enumeration
scale, the sorted-l1 distance, and stable Poisson/binomial pmf kernels.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, gammaincc

from .errors import DomainError, ResourceLimitError

__all__ = [
    "DiscreteDistribution",
    "Histogram",
    "Profile",
    "AtomicMeasure",
    "histogram_of_samples",
    "profile_of_histogram",
    "enumerate_profiles",
    "profile_probability",
    "monomial_symmetric",
    "sorted_l1",
    "measure_of",
    "poisson_pmf",
    "binomial_pmf",
    "poisson_cdf",
    "poisson_interval_prob",
    "poisson_tail",
]

_MASS_TOL = 1e-12
_MERGE_TOL = 1e-14

PROFILE_ENUM_CAP = 20
EXACT_SCALE_N = 12
EXACT_SCALE_K = 8


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability vector on [k]; masses nonnegative and summing to one."""

    masses: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.masses, dtype=float)
        object.__setattr__(self, "masses", m)
        if m.ndim != 1 or m.size == 0:
            raise DomainError("masses must be a nonempty 1-D vector")
        if np.any(m < 0):
            raise DomainError("negative probability mass")
        if abs(float(m.sum()) - 1.0) > _MASS_TOL:
            raise DomainError(f"masses sum to {m.sum()!r}, not 1")

    @property
    def k(self) -> int:
        return self.masses.size

    def padded(self, k: int) -> "DiscreteDistribution":
        if k < self.k:
            raise DomainError("cannot pad to a smaller support")
        return DiscreteDistribution(np.concatenate([self.masses, np.zeros(k - self.k)]))

    def to_json(self) -> str:
        return json.dumps([float(x) for x in self.masses])

    @staticmethod
    def from_json(text: str) -> "DiscreteDistribution":
        return DiscreteDistribution(np.asarray(json.loads(text), dtype=float))


@dataclass(frozen=True)
class Histogram:
    """Per-symbol occurrence counts of a sample of size n."""

    counts: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", c)
        if c.ndim != 1:
            raise DomainError("counts must be 1-D")
        if np.any(c < 0):
            raise DomainError("negative count")

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    @property
    def k(self) -> int:
        return self.counts.size


@dataclass(frozen=True)
class Profile:
    """Multiplicity vector: phi[i-1] symbols occur exactly i times, i = 1..n."""

    phi: np.ndarray
    n: int = field(default=0)

    def __post_init__(self):
        p = np.asarray(self.phi, dtype=np.int64)
        object.__setattr__(self, "phi", p)
        n = int(p.size) if self.n == 0 else int(self.n)
        object.__setattr__(self, "n", n)
        if p.ndim != 1 or p.size != n:
            raise DomainError("phi must have length n")
        if np.any(p < 0):
            raise DomainError("negative multiplicity")
        total = int(np.dot(np.arange(1, n + 1), p))
        if total != n:
            raise DomainError(f"profile inconsistent: sum i*phi_i = {total} != n = {n}")

    def multiplicity(self, i: int) -> int:
        return int(self.phi[i - 1]) if 1 <= i <= self.n else 0

    @property
    def distinct_symbols(self) -> int:
        return int(self.phi.sum())

    def parts(self) -> tuple[int, ...]:
        """The underlying partition of n, in decreasing order."""
        out: list[int] = []
        for i in range(self.n, 0, -1):
            out.extend([i] * int(self.phi[i - 1]))
        return tuple(out)

    def to_sparse_json(self) -> str:
        sparse = {str(i + 1): int(c) for i, c in enumerate(self.phi) if c > 0}
        return json.dumps({"n": self.n, "phi": sparse}, sort_keys=True)

    @staticmethod
    def from_sparse_json(text: str) -> "Profile":
        obj = json.loads(text)
        n = int(obj["n"])
        phi = np.zeros(n, dtype=np.int64)
        for key, val in obj["phi"].items():
            phi[int(key) - 1] = int(val)
        return Profile(phi, n)


class AtomicMeasure:
    """Finite nonnegative measure given by weighted point masses on [0, inf).

    Atoms closer than 1e-14 in location are merged on construction.
    Locations are normally in [0, 1]; values slightly above 1 are accepted
    because Poissonized empirical frequencies can exceed 1.
    """

    __slots__ = ("locations", "weights")

    def __init__(self, locations, weights):
        loc = np.asarray(locations, dtype=float)
        wt = np.asarray(weights, dtype=float)
        if loc.shape != wt.shape or loc.ndim != 1:
            raise DomainError("locations and weights must be equal-length vectors")
        if loc.size and (np.any(loc < 0) or np.any(~np.isfinite(loc))):
            raise DomainError("locations must be finite and >= 0")
        if np.any(wt < 0):
            raise DomainError("weights must be >= 0")
        order = np.argsort(loc, kind="stable")
        loc, wt = loc[order], wt[order]
        if loc.size:
            starts = np.empty(loc.size, dtype=bool)
            starts[0] = True
            starts[1:] = np.diff(loc) > _MERGE_TOL
            groups = np.cumsum(starts) - 1
            loc = loc[starts]
            wt = np.bincount(groups, weights=wt)
        self.locations = loc
        self.weights = wt

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @property
    def is_probability(self) -> bool:
        return abs(self.total_mass - 1.0) <= _MASS_TOL

    def mean(self) -> float:
        return float(np.dot(self.locations, self.weights))

    def pruned(self, tol: float = 0.0) -> "AtomicMeasure":
        keep = self.weights > tol
        return AtomicMeasure(self.locations[keep], self.weights[keep])

    def __add__(self, other: "AtomicMeasure") -> "AtomicMeasure":
        return AtomicMeasure(
            np.concatenate([self.locations, other.locations]),
            np.concatenate([self.weights, other.weights]),
        )

    def __repr__(self):
        return f"AtomicMeasure({self.locations.size} atoms, mass={self.total_mass:.6g})"

    def to_json(self) -> str:
        atoms = [[float(x), float(w)] for x, w in zip(self.locations, self.weights)]
        return json.dumps({"atoms": atoms})

    @staticmethod
    def from_json(text: str) -> "AtomicMeasure":
        atoms = json.loads(text)["atoms"]
        if not atoms:
            return AtomicMeasure([], [])
        loc, wt = zip(*atoms)
        return AtomicMeasure(loc, wt)

    @staticmethod
    def dirac(x: float, weight: float = 1.0) -> "AtomicMeasure":
        return AtomicMeasure([x], [weight])


def histogram_of_samples(samples, k: int) -> Histogram:
    """Count occurrences of each symbol 1..k in the sample sequence."""
    s = np.asarray(list(samples), dtype=np.int64)
    if k < 1:
        raise DomainError("k must be positive")
    if s.size and (s.min() < 1 or s.max() > k):
        raise DomainError("symbol index out of range [1, k]")
    counts = np.bincount(s - 1, minlength=k) if s.size else np.zeros(k, dtype=np.int64)
    return Histogram(counts.astype(np.int64))


def profile_of_histogram(h: Histogram) -> Profile:
    """Multiset of nonzero counts; zero counts are excluded."""
    n = h.n
    if n == 0:
        raise DomainError("empty sample has no profile")
    nz = h.counts[h.counts > 0]
    phi = np.bincount(nz, minlength=n + 1)[1:]
    return Profile(phi.astype(np.int64), n)


def _partitions(n: int, max_part: int):
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def partition_to_profile(parts: tuple[int, ...], n: int) -> Profile:
    phi = np.zeros(n, dtype=np.int64)
    for part in parts:
        phi[part - 1] += 1
    return Profile(phi, n)


def enumerate_profiles(n: int) -> list[Profile]:
    """All profiles of sample size n, one per integer partition of n."""
    if n < 1:
        raise DomainError("n must be positive")
    if n > PROFILE_ENUM_CAP:
        raise ResourceLimitError(f"profile enumeration capped at n = {PROFILE_ENUM_CAP}")
    return [partition_to_profile(parts, n) for parts in _partitions(n, n)]


@lru_cache(maxsize=4096)
def _assignment_index_tuples(parts: tuple[int, ...], k: int) -> tuple[tuple[int, ...], ...]:
    """Distinct ways to place the multiset `parts` onto k labelled slots.

    Each returned tuple lists, per part position, the chosen slot; tuples for
    equal part values are generated with combinations so no assignment of the
    multiset is listed twice.
    """
    groups: list[tuple[int, int]] = []  # (value, multiplicity), values distinct
    for value in sorted(set(parts), reverse=True):
        groups.append((value, parts.count(value)))

    def rec(remaining: frozenset[int], gi: int):
        if gi == len(groups):
            yield ()
            return
        _, mult = groups[gi]
        for chosen in itertools.combinations(sorted(remaining), mult):
            for rest in rec(remaining - set(chosen), gi + 1):
                yield chosen + rest
    return tuple(rec(frozenset(range(k)), 0))


def _expanded_parts(parts: tuple[int, ...]) -> tuple[int, ...]:
    # parts grouped by distinct value, matching _assignment_index_tuples order
    out: list[int] = []
    for value in sorted(set(parts), reverse=True):
        out.extend([value] * parts.count(value))
    return tuple(out)


def monomial_symmetric(p_rows: np.ndarray, parts: tuple[int, ...]) -> np.ndarray:
    """m_lambda evaluated at each row of p_rows, lambda given by `parts`."""
    rows = np.atleast_2d(np.asarray(p_rows, dtype=float))
    k = rows.shape[1]
    if len(parts) > k:
        return np.zeros(rows.shape[0])
    assignments = _assignment_index_tuples(tuple(parts), k)
    exps = np.asarray(_expanded_parts(tuple(parts)), dtype=float)
    out = np.zeros(rows.shape[0])
    for idx in assignments:
        out += np.prod(rows[:, list(idx)] ** exps, axis=1)
    return out


def profile_probability(p: DiscreteDistribution, phi: Profile) -> float:
    """Exact probability of observing the profile under n i.i.d. draws from p.

    Enumerates histograms sharing the profile (never raw sequences), so the
    cost is combinatorial in the number of distinct placements, not k^n.
    """
    n = phi.n
    if n > EXACT_SCALE_N or p.k > EXACT_SCALE_K:
        raise ResourceLimitError(
            f"exact profile probability capped at n <= {EXACT_SCALE_N}, k <= {EXACT_SCALE_K}"
        )
    return float(profile_probability_many(p.masses[None, :], phi)[0])


def profile_probability_many(p_rows: np.ndarray, phi: Profile) -> np.ndarray:
    """Vectorized profile probability over rows of a mass matrix.

    Rows need not be validated distributions; used by grid searches.
    """
    parts = phi.parts()
    n = phi.n
    log_coef = gammaln(n + 1) - sum(gammaln(i + 1) * int(phi.phi[i - 1]) for i in range(1, n + 1))
    coef = math.exp(log_coef)
    return coef * monomial_symmetric(p_rows, parts)


def sorted_l1(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """l1 distance between ascending-sorted mass vectors, zero-padded to a common k."""
    k = max(p.k, q.k)
    a = np.sort(p.padded(k).masses)
    b = np.sort(q.padded(k).masses)
    return float(np.abs(a - b).sum())


def sorted_l1_vectors(a, b) -> float:
    """sorted_l1 on raw vectors (no normalization check); pads with zeros."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    k = max(a.size, b.size)
    a = np.sort(np.concatenate([a, np.zeros(k - a.size)]))
    b = np.sort(np.concatenate([b, np.zeros(k - b.size)]))
    return float(np.abs(a - b).sum())


def measure_of(p: DiscreteDistribution) -> AtomicMeasure:
    """The atomic measure placing weight 1/k at each mass of p."""
    k = p.k
    return AtomicMeasure(p.masses, np.full(k, 1.0 / k))


_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# stirlerr asymptotic coefficients (1/12, -1/360, ...)
_STIRLERR_S = (1.0 / 12.0, 1.0 / 360.0, 1.0 / 1260.0, 1.0 / 1680.0, 1.0 / 1188.0)


def _stirlerr(x: np.ndarray) -> np.ndarray:
    """log Gamma(x+1) - Stirling main term; series for large x avoids the
    catastrophic cancellation that caps plain log-gamma pmfs near 1e-9."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x < 16.0
    xs = x[small]
    # callers never pass x = 0 (handled separately); the max() only guards log
    out[small] = gammaln(xs + 1.0) - ((xs + 0.5) * np.log(np.maximum(xs, 1e-300)) - xs + _LOG_SQRT_2PI)
    xl = x[~small]
    z = 1.0 / (xl * xl)
    s0, s1, s2, s3, s4 = _STIRLERR_S
    out[~small] = (s0 - (s1 - (s2 - (s3 - s4 * z) * z) * z) * z) / xl
    return out


def _bd0(x: np.ndarray, mu) -> np.ndarray:
    """Binomial deviance x*log(x/mu) + mu - x, series form near x = mu."""
    x = np.asarray(x, dtype=float)
    mu_arr = np.broadcast_to(np.asarray(mu, dtype=float), x.shape)
    out = np.empty_like(x)
    near = np.abs(x - mu_arr) < 0.1 * (x + mu_arr)
    xf, mf = x[~near], mu_arr[~near]
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = np.where(xf > 0, xf * np.log(np.where(xf > 0, xf, 1.0) / mf), 0.0) + mf - xf
    out[~near] = direct
    xn, mn = x[near], mu_arr[near]
    v = (xn - mn) / (xn + mn)
    s = (xn - mn) * v
    ej = 2.0 * xn * v
    v2 = v * v
    for jj in range(1, 40):
        ej = ej * v2
        s_new = s + ej / (2 * jj + 1)
        if np.array_equal(s_new, s):
            break
        s = s_new
    out[near] = s
    return out


def poisson_pmf(lam: float, j) -> np.ndarray | float:
    """Poisson pmf via saddle-point evaluation; relative error ~1e-13 up to rates ~1e7."""
    if lam < 0:
        raise DomainError("rate must be >= 0")
    jj = np.atleast_1d(np.asarray(j, dtype=float))
    if np.any(jj < 0):
        raise DomainError("count must be >= 0")
    if lam == 0.0:
        out = np.where(jj == 0, 1.0, 0.0)
    else:
        out = np.empty_like(jj)
        zero = jj == 0
        out[zero] = math.exp(-lam)
        xs = jj[~zero]
        logp = -_stirlerr(xs) - _bd0(xs, lam) - 0.5 * np.log(2.0 * math.pi * xs)
        out[~zero] = np.exp(logp)
    return float(out[0]) if np.isscalar(j) else out.reshape(np.shape(j))


def binomial_pmf(n: int, q: float, j) -> np.ndarray | float:
    """Binomial(n, q) pmf, saddle-point form (sum accurate to ~1e-12 at n ~ 1e6)."""
    if n < 0:
        raise DomainError("n must be >= 0")
    if not 0.0 <= q <= 1.0:
        raise DomainError("q must be in [0, 1]")
    jj = np.atleast_1d(np.asarray(j, dtype=float))
    if np.any(jj < 0):
        raise DomainError("count must be >= 0")
    if q == 0.0:
        out = np.where(jj == 0, 1.0, 0.0)
    elif q == 1.0:
        out = np.where(jj == n, 1.0, 0.0)
    elif n == 0:
        out = np.where(jj == 0, 1.0, 0.0)
    else:
        out = np.zeros_like(jj)
        interior = (jj > 0) & (jj < n)
        xs = jj[interior]
        ns = float(n) - xs
        logp = (
            -_stirlerr(np.asarray([float(n)]))[0]
            + _stirlerr(xs)
            + _stirlerr(ns)
            + _bd0(xs, n * q)
            + _bd0(ns, n * (1.0 - q))
        )
        out[interior] = np.exp(-logp) * np.sqrt(n / (2.0 * math.pi * xs * ns))
        out[jj == 0] = math.exp(n * math.log1p(-q))
        out[jj == n] = math.exp(n * math.log(q))
    return float(out[0]) if np.isscalar(j) else out.reshape(np.shape(j))


def binom_half_logpmf(j, s):
    """log of the Binomial(j, 1/2) pmf at s <= j, through log-gamma."""
    return gammaln(j + 1.0) - gammaln(s + 1.0) - gammaln(j - s + 1.0) - j * math.log(2.0)


def poisson_cdf(t, lam: float):
    """P(Poisson(lam) <= t) for integer t, exact via the regularized gamma tail."""
    tt = np.floor(np.asarray(t, dtype=float))
    out = np.where(tt < 0, 0.0, gammaincc(np.maximum(tt, 0.0) + 1.0, lam))
    return float(out) if np.isscalar(t) else out


def poisson_interval_prob(lam, lo: int, hi: int):
    """P(lo <= Poisson(lam) <= hi) over integers; vectorized in lam."""
    if hi < lo:
        return np.zeros_like(np.asarray(lam, dtype=float)) if not np.isscalar(lam) else 0.0
    lam_arr = np.asarray(lam, dtype=float)
    out = gammaincc(hi + 1.0, lam_arr)
    if lo > 0:
        out = out - gammaincc(float(lo), lam_arr)
    out = np.clip(out, 0.0, 1.0)
    return float(out) if np.isscalar(lam) else out


def poisson_tail(lam: float, delta: float) -> tuple[float, float]:
    """Chernoff bounds for the two Poisson tails at relative deviation delta.

    Returns (upper, lower): exp(-(delta^2 ^ delta) lam / 3) bounding
    P(X >= (1+delta) lam) and exp(-delta^2 lam / 2) bounding
    P(X <= (1-delta) lam).
    """
    if delta <= 0:
        raise DomainError("delta must be > 0")
    if lam < 0:
        raise DomainError("rate must be >= 0")
    upper = math.exp(-(min(delta * delta, delta)) * lam / 3.0)
    lower = math.exp(-(delta * delta) * lam / 2.0)
    return upper, lower
