"""Deterministic sampling on counter-based substreams.

Every trial gets its own jumped Philox substream, so parallel trials never
share state and reruns are bit-identical.  A Poisson count below rate 30 is
the quantile of one uniform under the package's exact Poisson CDF
(`core.poisson_interval_prob`); from rate 30 up, numpy's `Generator.poisson`
draws it by its transformed-rejection sampler (PTRS), so seeded outputs
depend on that routine just as they depend on `Generator.random` and
`Philox.jumped`.
"""

from __future__ import annotations

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


def _poisson_quantile(u: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Smallest j with P(Poisson(lam) <= j) >= u, elementwise.

    Walks j = 0, 1, 2, ... over the entries still short of u, evaluating the
    CDF once per distinct rate that some of them still need: a rate stays
    live until its CDF reaches the largest u among its entries.  The walk
    ends for every u < 1, since the CDF rounds to 1.0 a finite way into the
    tail.
    """
    rates, which = np.unique(lam, return_inverse=True)
    top = np.zeros(rates.size)
    np.maximum.at(top, which, u)
    counts = np.zeros(u.shape, dtype=np.int64)
    short = np.arange(u.size)
    live = np.arange(rates.size)
    cdf = np.zeros(rates.size)
    j = 0
    while short.size:
        cdf[live] = poisson_interval_prob(rates[live], 0, j)
        live = live[cdf[live] < top[live]]
        short = short[cdf[which[short]] < u[short]]
        j += 1
        counts[short] = j
    return counts


def sample_poissonized(p: DiscreteDistribution, n: int, gen: np.random.Generator) -> Histogram:
    """Independent Poisson(n p_j) counts per symbol.

    One block of k uniforms is drawn first; each symbol below rate 30 takes
    the quantile of its uniform under the exact Poisson CDF.  Rates of 30
    and more then consume the stream in symbol order through numpy's PTRS.
    """
    lam = n * p.masses
    counts = np.zeros(p.k, dtype=np.int64)
    u = gen.random(p.k)
    small = lam < _PTRS_SWITCH
    counts[small] = _poisson_quantile(u[small], lam[small])
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
