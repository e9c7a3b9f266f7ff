"""Foundational types and exact small-scale primitives.

Discrete distributions, histograms, profiles (the multiset of counts),
atomic measures on the line, exact profile probabilities at enumeration
scale, the sorted-l1 distance, and stable Poisson/binomial pmf kernels.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
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
    "poisson_pmf_windows",
    "binomial_pmf",
    "poisson_interval_prob",
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
        if not np.all(np.isfinite(m)):
            raise DomainError("masses must be finite")
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


@dataclass(frozen=True)
class Histogram:
    """Per-symbol occurrence counts of a sample of size n."""

    counts: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.counts)
        if raw.dtype.kind == "f" and not np.all(np.isfinite(raw) & (raw == np.trunc(raw))):
            raise DomainError("counts must be integers")
        c = raw.astype(np.int64, copy=False)
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

    def __post_init__(self):
        p = np.asarray(self.phi, dtype=np.int64)
        object.__setattr__(self, "phi", p)
        if p.ndim != 1 or p.size < 1:
            raise DomainError("a profile needs a 1-D phi with n >= 1")
        if np.any(p < 0):
            raise DomainError("negative multiplicity")
        n = p.size
        total = int(np.dot(np.arange(1, n + 1), p))
        if total != n:
            raise DomainError(f"profile inconsistent: sum i*phi_i = {total} != n = {n}")

    @property
    def n(self) -> int:
        return self.phi.size

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
        try:
            obj = json.loads(text)
            n = obj["n"]
            entries = [(int(key), val) for key, val in obj["phi"].items()]
        except (AttributeError, KeyError, TypeError, ValueError):
            raise DomainError(f"profile {text!r} is not JSON with an n and a phi map") from None
        # int() would truncate 1.9 to 1; bool is an int subclass
        if any(isinstance(v, bool) or not isinstance(v, int) for v in [n, *(c for _, c in entries)]):
            raise DomainError(f"profile {text!r}: n and the phi values must be JSON integers")
        if n < 1:
            raise DomainError("a profile needs n >= 1")
        phi = np.zeros(n, dtype=np.int64)
        for i, c in entries:
            if not 1 <= i <= n:
                raise DomainError(f"multiplicity index {i} outside 1..{n}")
            phi[i - 1] = c
        return Profile(phi)


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
    return Profile(np.bincount(h.counts[h.counts > 0], minlength=n + 1)[1:])


def _partitions(n: int, max_part: int, max_parts: int):
    """Decreasing partitions of n into at most max_parts parts of at most
    max_part each, in decreasing lexicographic order."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        # later parts are at most `first`, so a smaller first part cannot
        # fill the slots left either
        if first * max_parts < n:
            break
        for rest in _partitions(n - first, first, max_parts - 1):
            yield (first,) + rest


def enumerate_profiles(n: int) -> list[Profile]:
    """All profiles of sample size n, one per integer partition of n."""
    if n < 1:
        raise DomainError("n must be positive")
    if n > PROFILE_ENUM_CAP:
        raise ResourceLimitError(f"profile enumeration capped at n = {PROFILE_ENUM_CAP}")
    return [Profile(np.bincount(parts, minlength=n + 1)[1:]) for parts in _partitions(n, n, n)]


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


def monomial_symmetric(p_rows: np.ndarray, parts: tuple[int, ...]) -> np.ndarray:
    """m_lambda evaluated at each row of p_rows, lambda given by `parts`."""
    rows = np.atleast_2d(np.asarray(p_rows, dtype=float))
    k = rows.shape[1]
    # in decreasing order, the order _assignment_index_tuples places them in;
    # more parts than k leave no placement, and the sum below stays 0
    parts = tuple(sorted(parts, reverse=True))
    assignments = _assignment_index_tuples(parts, k)
    exps = np.asarray(parts, dtype=float)
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
    coef = _multinomial_coef(tuple(phi.phi.tolist()))
    return coef * monomial_symmetric(p_rows, phi.parts())


@lru_cache(maxsize=4096)
def _multinomial_coef(phi: tuple[int, ...]) -> float:
    """n! / prod_i (i!)^phi_i, the sequences per histogram of the profile."""
    n = len(phi)
    log_coef = gammaln(n + 1) - sum(gammaln(i + 1) * phi[i - 1] for i in range(1, n + 1))
    return math.exp(log_coef)


def sorted_l1(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """l1 distance between ascending-sorted mass vectors, zero-padded to a common k."""
    return sorted_l1_vectors(p.masses, q.masses)


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


def _saddle_pmf(lam: float, xs: np.ndarray, neg_stirlerr: np.ndarray, half_log: np.ndarray) -> np.ndarray:
    """The saddle-point pmf at counts xs > 0, given their count-only terms
    -stirlerr(xs) and log(2 pi xs) / 2."""
    return np.exp(neg_stirlerr - _bd0(xs, lam) - half_log)


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
        out[~zero] = _saddle_pmf(lam, xs, -_stirlerr(xs), 0.5 * np.log(2.0 * math.pi * xs))
    return float(out[0]) if np.isscalar(j) else out.reshape(np.shape(j))


def poisson_pmf_windows(lams, lo, hi):
    """Poisson pmfs at many rates, one count window each.

    Yields, for each i in order, the pmf of rate lams[i] at the counts
    lo[i]..hi[i] (empty when hi[i] < lo[i]), byte-equal to
    poisson_pmf(lams[i], np.arange(lo[i], hi[i] + 1)).  The count-only
    terms of the saddle point are computed once over 1..max(hi), so each
    window pays only its rate's deviance and exp; one window is built at a
    time, so memory stays that of the largest window.
    """
    lams = np.asarray(lams, dtype=float)
    lo, hi = np.asarray(lo, dtype=np.int64), np.asarray(hi, dtype=np.int64)
    if np.any(lams < 0):
        raise DomainError("rate must be >= 0")
    if np.any(lo < 0):
        raise DomainError("count must be >= 0")
    counts = np.arange(max(int(hi.max(initial=0)), 0) + 1, dtype=float)
    neg_stirlerr = np.zeros_like(counts)
    half_log = np.zeros_like(counts)
    neg_stirlerr[1:] = -_stirlerr(counts[1:])
    half_log[1:] = 0.5 * np.log(2.0 * math.pi * counts[1:])
    for lam, a, b in zip(lams.tolist(), lo.tolist(), hi.tolist()):
        out = np.zeros(max(b - a + 1, 0))
        if out.size and a == 0:
            out[0] = 1.0 if lam == 0.0 else math.exp(-lam)
        s = max(a, 1)
        if lam != 0.0 and s <= b:
            window = slice(s, b + 1)
            out[s - a :] = _saddle_pmf(lam, counts[window], neg_stirlerr[window], half_log[window])
        yield out


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
