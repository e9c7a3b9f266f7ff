"""Foundational types and exact small-scale primitives.

Discrete distributions, histograms, profiles (the multiset of counts),
atomic measures on the line, exact profile probabilities at enumeration
scale, the sorted-l1 distance, and stable Poisson/binomial pmf kernels.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, gammaincc

from .errors import DomainError, ResourceLimitError

__all__ = [
    "DiscreteDistribution",
    "Histogram",
    "Profile",
    "ProfileBatch",
    "AtomicMeasure",
    "histogram_of_samples",
    "profile_of_histogram",
    "enumerate_profiles",
    "count_profiles",
    "desk_profiles",
    "profile_probability",
    "profile_probability_many",
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
# the double range: a profile's coefficient n!/prod_i (i!)^phi_i is at most
# n!, and 171! overflows a double
EXACT_SCALE_N = 170
# profiles in a desk: its R holds count^2 doubles, 9.7 MB at 1,100, which
# admits n = 49 at k = 4 (1,089 profiles) and n = 34 at k = 5 (1,014)
DESK_PROFILE_CAP = 1100
# doubles per DP state (256 KB): `profile_probability_many` blocks its rows to fit
_DP_DOUBLES = 1 << 15


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
    """Per-symbol occurrence counts of a sample of size n; n, their int64
    sum, is exact, since a total beyond int64 is rejected."""

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
        # the int64 sum cannot wrap unless the largest count times k does
        int64_max = np.iinfo(np.int64).max
        if c.size and int(c.max()) > int64_max // c.size:
            total = sum(c.tolist())
            if total > int64_max:
                raise DomainError(f"the counts total {total}, beyond the int64 range of n")

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
    def from_sparse(n: int, phi: dict[int, int]) -> "Profile":
        """The profile of sample size n with phi[i] symbols seen i times."""
        if n < 1:
            raise DomainError("a profile needs n >= 1")
        dense = np.zeros(n, dtype=np.int64)
        for i, c in phi.items():
            if not 1 <= i <= n:
                raise DomainError(f"multiplicity index {i} outside 1..{n}")
            dense[i - 1] = c
        return Profile(dense)

    @staticmethod
    def parse_sparse_json(text: str) -> tuple[int, dict[int, int]]:
        """The n and the phi map of `to_sparse_json` text, in the size of the
        text: nothing of length n is built, so a caller can cap n first."""
        try:
            obj = json.loads(text)
            n = obj["n"]
            entries = [(int(key), val) for key, val in obj["phi"].items()]
        except (AttributeError, KeyError, TypeError, ValueError):
            raise DomainError(f"profile {text!r} is not JSON with an n and a phi map") from None
        # int() would truncate 1.9 to 1; bool is an int subclass
        if any(isinstance(v, bool) or not isinstance(v, int) for v in [n, *(c for _, c in entries)]):
            raise DomainError(f"profile {text!r}: n and the phi values must be JSON integers")
        return n, dict(entries)

    @staticmethod
    def from_sparse_json(text: str) -> "Profile":
        return Profile.from_sparse(*Profile.parse_sparse_json(text))


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

    def pruned(self) -> "AtomicMeasure":
        keep = self.weights > 0.0
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


@functools.cache
def count_profiles(n: int, k: int) -> int:
    """p_k(n), the partitions of n into at most k parts: by conjugation,
    those into parts of at most k, counted one part size at a time.  Kept
    per (n, k), since every competitive check counts its desk."""
    ways = [1] + [0] * n
    for part in range(1, min(k, n) + 1):
        for m in range(part, n + 1):
            ways[m] += ways[m - part]
    return ways[n]


def check_desk_size(what: str, n: int, k: int) -> None:
    """Reject a desk of the profiles of n with at most k parts by its sizes
    alone: n past EXACT_SCALE_N, or more than DESK_PROFILE_CAP profiles.
    `what` opens the message."""
    if n > EXACT_SCALE_N:
        raise ResourceLimitError(f"{what} capped at n <= {EXACT_SCALE_N}")
    count = count_profiles(n, k)
    if count > DESK_PROFILE_CAP:
        raise ResourceLimitError(
            f"{what} capped at {DESK_PROFILE_CAP} profiles; n = {n} has {count} with at most k = {k} parts"
        )


def desk_profiles(n: int, k: int) -> list[Profile]:
    """The profiles of sample size n with at most k parts, the only ones a
    p on k symbols gives a positive probability, in `enumerate_profiles`
    order; capped by `check_desk_size`."""
    if n < 1 or k < 1:
        raise DomainError("n and k must be positive")
    check_desk_size("desk enumeration", n, k)
    return [Profile(np.bincount(parts, minlength=n + 1)[1:]) for parts in _partitions(n, n, k)]


class ProfileBatch:
    """The profile side of `profile_probability_many` for a list of
    profiles on k symbols, built once and kept by callers that score the
    same profiles many times, every array read-only; capped at
    DESK_PROFILE_CAP profiles of n <= EXACT_SCALE_N.

    A profile with more parts than k gives exactly 0.0 and takes no part
    in the DP; the desk's batches (`desk_profiles`) hold every profile
    with at most k parts and no other.  Each other profile, in `live`,
    holds its distinct parts `values` in ascending order (the int64 array
    np.unique gives), its multiplicities as its full state `full` in one
    padded state `shape` (the elementwise max of mult + 1 over the batch),
    and its multinomial coefficient n!/prod_i (i!)^phi_i in `coefs`.  The
    DP holds two states of prod(shape) x live profiles x rows doubles, so
    `profile_probability_many` blocks the rows.
    """

    def __init__(self, profiles, k: int):
        self.profiles = tuple(profiles)
        self.k = k
        if len(self.profiles) > DESK_PROFILE_CAP:
            raise ResourceLimitError(f"exact profile probability capped at {DESK_PROFILE_CAP} profiles")
        if any(phi.n > EXACT_SCALE_N for phi in self.profiles):
            raise ResourceLimitError(f"exact profile probability capped at n <= {EXACT_SCALE_N}")
        live, values, mults = [], [], []
        for i, phi in enumerate(self.profiles):
            if phi.distinct_symbols > k:
                continue
            v = np.flatnonzero(phi.phi) + 1
            live.append(i)
            values.append(v.astype(np.int64, copy=False))
            mults.append(phi.phi[v - 1])
        self.live = np.asarray(live, dtype=np.intp)
        self.values = tuple(values)
        axes = max((v.size for v in values), default=0)
        full = np.zeros((len(live), axes), dtype=np.intp)
        for row, m in zip(full, mults):
            row[: m.size] = m
        self.shape = tuple((full.max(axis=0, initial=0) + 1).tolist())
        self.full = full
        self.coefs = np.asarray([_multinomial_coef(tuple(self.profiles[i].phi.tolist())) for i in live])
        for array in (self.live, self.full, self.coefs, *self.values):
            array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.profiles)


def profile_probability(p: DiscreteDistribution, phi: Profile) -> float:
    """Exact probability of observing the profile under n i.i.d. draws from p.

    The profile's sequences per histogram, n!/prod_i (i!)^phi_i, times the
    monomial symmetric polynomial of its parts at p; the polynomial is a
    dynamic program over p's symbols, so the cost is polynomial in k.
    """
    return float(profile_probability_many(p.masses[None, :], ProfileBatch([phi], p.k))[0, 0])


def profile_probability_many(p_rows: np.ndarray, batch: ProfileBatch) -> np.ndarray:
    """The probability of each profile of the batch under each row of a
    mass matrix with batch.k columns, as a (profiles, rows) array.

    Rows need not be validated distributions; used by grid searches.  One
    dynamic program over the k symbols runs for the whole batch: the state
    counts, per distinct part value, the parts of that value placed so far,
    with profiles and rows as its last two axes, and each symbol takes no
    part or one part of value v with weight p_j^v.  Axis a is the a-th
    distinct value of each profile; a profile with fewer values gets power
    0 on the axes beyond its own, so only its own box reaches its full
    state, and it keeps the bytes it has in a batch of its own.

    Each profile's powers come from its own `rows.T ** values[:, None, None]`,
    stacked after: numpy picks the power algorithm by the exponent array,
    and a one-element exponent takes the x*x fast path, so (1/3)**2 is
    0.1111111111111111 by exponent [2] and 0.11111111111111109 by [1, 2].
    A p**v table shared by the batch would move the bytes of (2, 2).  The
    rows go through in blocks of at least one row whose state fits in
    _DP_DOUBLES; rows never mix, so blocking keeps every byte.
    """
    rows = np.atleast_2d(np.asarray(p_rows, dtype=float))
    if rows.shape[1] != batch.k:
        raise DomainError(f"rows have {rows.shape[1]} masses, the batch is for k = {batch.k}")
    out = np.zeros((len(batch), rows.shape[0]))
    live = batch.live.size
    if not live:
        return out
    block = max(1, _DP_DOUBLES // (math.prod(batch.shape) * live))
    for first in range(0, rows.shape[0], block):
        part = rows[first:first + block]
        powers = np.zeros((len(batch.shape), batch.k, live, part.shape[0]))
        for i, values in enumerate(batch.values):
            powers[: values.size, :, i] = part.T ** values[:, None, None]
        state = np.zeros((*batch.shape, live, part.shape[0]))
        state[(0,) * len(batch.shape)] = 1.0
        for j in range(batch.k):
            prev = state.copy()
            for axis, pw in enumerate(powers):
                before = (slice(None),) * axis
                state[before + (slice(1, None),)] += prev[before + (slice(None, -1),)] * pw[j]
        out[batch.live, first:first + block] = batch.coefs[:, None] * state[(*batch.full.T, np.arange(live))]
    return out


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


def _saddle_pmf(lam, xs: np.ndarray, neg_stirlerr: np.ndarray, half_log: np.ndarray) -> np.ndarray:
    """The saddle-point pmf at counts xs > 0 and rate lam (one rate, or one
    per count), given their count-only terms -stirlerr(xs) and log(2 pi xs) / 2."""
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


# Counts per chunk in `poisson_pmf_windows`: about 40 of the 673 windows of
# `verify_bounds` share one deviance pass at n = 1024, and about 12 at
# n = 16384, while each temporary of the pass stays at 128 KB.
_CHUNK_COUNTS = 1 << 14


def poisson_pmf_windows(lams, lo, hi):
    """Poisson pmfs at many rates, one count window each.

    Yields, for each i in order, the pmf of rate lams[i] at the counts
    lo[i]..hi[i] (empty when hi[i] < lo[i]), byte-equal to
    poisson_pmf(lams[i], np.arange(lo[i], hi[i] + 1)); the three inputs must
    be 1-D and of equal length.  The count-only terms of the saddle point
    are computed once over 1..max(hi).  Consecutive windows are laid end to
    end in chunks of at most _CHUNK_COUNTS counts (a wider window is a chunk
    of its own), and each chunk pays one deviance and one exp over its
    counts, each count against its window's rate; the windows are yielded
    as slices of their chunk.  `_bd0` is elementwise but for its
    stopping rule, and an element whose series sum has stopped changing
    never changes again, since later terms only shrink, so every window
    keeps the bytes it has alone.  A zero rate needs no case of its own: its
    deviance is +inf at every count above 0, where its pmf comes out 0.0,
    and the count-0 entry is math.exp(-lam) at every rate.  Memory stays
    that of one chunk or of the widest window.
    """
    lams = np.asarray(lams, dtype=float)
    lo, hi = np.asarray(lo, dtype=np.int64), np.asarray(hi, dtype=np.int64)
    if lams.ndim != 1 or lo.shape != lams.shape or hi.shape != lams.shape:
        raise DomainError("rates and window bounds must be 1-D arrays of equal length")
    if np.any(lams < 0):
        raise DomainError("rate must be >= 0")
    if np.any(lo < 0):
        raise DomainError("count must be >= 0")
    counts = np.arange(max(int(hi.max(initial=0)), 0) + 1, dtype=float)
    neg_stirlerr = np.zeros_like(counts)
    half_log = np.zeros_like(counts)
    neg_stirlerr[1:] = -_stirlerr(counts[1:])
    half_log[1:] = 0.5 * np.log(2.0 * math.pi * counts[1:])
    sizes = np.maximum(hi - lo + 1, 0)
    ends = np.cumsum(sizes)
    first = 0
    while first < lams.size:
        base = int(ends[first - 1]) if first else 0
        stop = max(first + 1, int(np.searchsorted(ends, base + _CHUNK_COUNTS, side="right")))
        size = sizes[first:stop]
        # the count of every chunk entry, as an index into the count tables;
        # a count-0 entry is computed and then overwritten
        starts = ends[first:stop] - size - base
        idx = np.arange(int(ends[stop - 1]) - base) + np.repeat(lo[first:stop] - starts, size)
        pmf = _saddle_pmf(np.repeat(lams[first:stop], size), counts[idx], neg_stirlerr[idx], half_log[idx])
        for lam, a, at, width in zip(lams[first:stop].tolist(), lo[first:stop].tolist(), starts.tolist(), size.tolist()):
            out = pmf[at : at + width]
            if width and a == 0:
                out[0] = math.exp(-lam)
            yield out
        first = stop


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
