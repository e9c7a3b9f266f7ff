"""Deterministic sampling on counter-based substreams.

Every trial gets its own jumped Philox substream, so parallel trials never
share state and reruns are bit-identical.  A Poisson count below rate 30 is
the quantile of one uniform under the package's exact Poisson CDF
(`core.poisson_interval_prob`); from rate 30 up, numpy's `Generator.poisson`
draws it by its transformed-rejection sampler (PTRS), so seeded outputs
depend on that routine just as they depend on `Generator.random` and
`Philox.jumped`.

The CDF values depend on the rates alone, never on the seed, so
`sample_poissonized` builds them once per distribution and n (`CdfRows`)
and keeps them while the distribution lives; each trial then only looks
its uniforms up.
"""

from __future__ import annotations

import weakref

import numpy as np

from .core import AtomicMeasure, DiscreteDistribution, Histogram, poisson_interval_prob
from .errors import DomainError

__all__ = [
    "substream",
    "sample_iid",
    "sample_poissonized",
    "empirical_measure",
]

_PTRS_SWITCH = 30.0


def substream(seed: int, trial: int = 0) -> np.random.Generator:
    """Independent generator for one trial of one experiment."""
    bitgen = np.random.Philox(key=np.uint64(seed & (2**64 - 1)))
    if trial:
        bitgen = bitgen.jumped(trial)
    return np.random.Generator(bitgen)


class CdfRows:
    """The exact Poisson CDF rows of a vector of rates, for quantile lookups.

    Each distinct rate walks j = 0, 1, 2, ... once, evaluating
    `poisson_interval_prob(rate, 0, j)`, until its CDF reaches 1.0, which it
    does a finite way into the tail.  The row kept is the running maximum
    of those values, so it never decreases and ends at 1.0.  All rows lie
    end to end in one flat array; entry i of the rate vector reads its
    rate's row between `first[i]` and `last[i]`, inclusive.  A rate below 1
    takes at most 19 entries, one at 29.9 takes 86.
    """

    def __init__(self, lam: np.ndarray):
        rates, which = np.unique(lam, return_inverse=True)
        top = np.zeros(rates.size)
        length = np.zeros(rates.size, dtype=np.int64)
        live = np.arange(rates.size)
        columns = []
        while live.size:
            cdf = np.maximum(top[live], poisson_interval_prob(rates[live], 0, len(columns)))
            top[live] = cdf
            columns.append(cdf)
            done = cdf >= 1.0
            length[live[done]] = len(columns)
            live = live[~done]
        offset = np.cumsum(length) - length
        self.rows = np.empty(int(length.sum()))
        # column j holds, in rate order, the rates whose rows are longer than j
        for j, cdf in enumerate(columns):
            self.rows[offset[length > j] + j] = cdf
        self.rows.flags.writeable = False
        self.first = offset[which]
        self.last = self.first + length[which] - 1
        # halvings that bring the longest row's bracket down to one entry
        self.steps = int(length.max(initial=1) - 1).bit_length()

    def quantile(self, u: np.ndarray) -> np.ndarray:
        """Smallest j with P(Poisson(lam[i]) <= j) >= u[i], for every i.

        A fixed number of vectorized halvings of each entry's bracket
        [first, last], which always holds the answer, since every row ends
        at 1.0 >= u.  The first j where a running maximum reaches u is the
        first j where the CDF itself does, so this is the answer of a walk
        up the CDF, byte for byte.
        """
        lo, hi = self.first.copy(), self.last.copy()
        for _ in range(self.steps):
            mid = lo + hi
            mid >>= 1
            go = self.rows[mid] >= u
            np.copyto(hi, mid, where=go)
            mid += 1
            np.copyto(lo, mid, where=~go)
        lo -= self.first
        return lo


# per distribution, its CDF rows below rate 30 by n; an entry goes with its
# distribution, whose masses are read-only, so no entry goes stale
_KEPT: weakref.WeakKeyDictionary[DiscreteDistribution, dict[int, CdfRows]] = weakref.WeakKeyDictionary()


def _poisson_quantile(u: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Smallest j with P(Poisson(lam) <= j) >= u, elementwise: the rows of
    `lam`, built for this call alone, looked up at `u` (each u <= 1)."""
    return CdfRows(lam).quantile(u)


def sample_poissonized(p: DiscreteDistribution, n: int, gen: np.random.Generator) -> Histogram:
    """Independent Poisson(n p_j) counts per symbol.

    One block of k uniforms is drawn first; each symbol below rate 30 takes
    the quantile of its uniform under the exact Poisson CDF, read from the
    rows kept for (p, n).  Rates of 30 and more then consume the stream in
    symbol order through numpy's PTRS.
    """
    lam = n * p.masses
    counts = np.zeros(p.k, dtype=np.int64)
    u = gen.random(p.k)
    small = lam < _PTRS_SWITCH
    by_n = _KEPT.setdefault(p, {})
    if n not in by_n:
        by_n[n] = CdfRows(lam[small])
    counts[small] = by_n[n].quantile(u[small])
    counts[~small] = gen.poisson(lam[~small])
    return Histogram(counts)


def sample_iid(p: DiscreteDistribution, n: int, gen: np.random.Generator) -> Histogram:
    """Multinomial counts of n i.i.d. draws, by CDF inversion per draw."""
    cdf = np.cumsum(p.masses)
    cdf[-1] = 1.0
    idx = np.searchsorted(cdf, gen.random(n), side="right")
    return Histogram(np.bincount(idx, minlength=p.k).astype(np.int64))


def empirical_measure(h: Histogram, k: int, n: int | None = None) -> AtomicMeasure:
    """The atom multiset of the plug-in frequencies h_j / n.

    Pass the nominal n explicitly under Poissonized sampling, where the
    realized total differs from the rate; locations may then exceed 1.
    """
    n = h.n if n is None else n
    if n == 0:
        return AtomicMeasure.dirac(0.0, 1.0)
    if k < h.k:
        raise DomainError("k smaller than the histogram support")
    locs = np.concatenate([h.counts / n, np.zeros(k - h.k)])
    return AtomicMeasure(locs, np.full(k, 1.0 / k))
