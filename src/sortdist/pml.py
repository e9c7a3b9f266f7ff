"""Desk-scale profile-likelihood machinery.

Brute-force profile maximum likelihood over a simplex grid refined by a
pairwise mass-transfer ascent, the geometric quantization grid with its
multiplicative covering guarantees, Poisson power-divergence closed forms,
the closeness relation used for minimum-mass rounding, good-profile sets,
and the exponent schedule solving the chained covering equations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .core import (
    AtomicMeasure,
    EXACT_SCALE_N,
    DiscreteDistribution,
    Profile,
    _partitions,
    enumerate_profiles,
    profile_probability,
    profile_probability_many,
    sorted_l1,
)
from .errors import ConstructionFailedError, DomainError, ResourceLimitError

__all__ = [
    "QuantGrid",
    "ChainParams",
    "quantize_to_grid",
    "chi_m_poisson",
    "chi_m_poisson_brute",
    "is_close",
    "min_prob_round",
    "brute_force_pml",
    "good_set",
    "good_profiles",
    "check_goodset_lemma",
    "chain_params",
    "covering_constants",
]

PML_K_CAP = 5
# The grid has one row per decreasing composition of the resolution into at
# most k_max parts, about r^4 rows at k_max = 5: 7,166 at 60 and 91,606 at 120.
PML_RESOLUTION_CAP = 120


@dataclass(frozen=True)
class QuantGrid:
    """Geometric probability grid c_0 = 0, c_i = (1+n^-r)^(i-1) / (2 n^A)."""

    n: int
    A: float
    r: float
    levels: np.ndarray

    @property
    def min_positive(self) -> float:
        return float(self.levels[1])

    @staticmethod
    def build(n: int, A: float = 2.0, r: float = 0.5) -> "QuantGrid":
        if A < 2:
            raise DomainError("A must be at least 2")
        if not 0 < r <= 0.5:
            raise DomainError("r must lie in (0, 1/2]")
        base = 1.0 / (2.0 * n**A)
        ratio = 1.0 + n**-r
        levels = [0.0, base]
        while levels[-1] * ratio <= 1.0:
            levels.append(levels[-1] * ratio)
        return QuantGrid(n=n, A=A, r=r, levels=np.asarray(levels))


def quantize_to_grid(p: DiscreteDistribution, grid: QuantGrid) -> np.ndarray:
    """Round each mass down to the largest grid level below it.

    Requires every positive mass to be at least the smallest positive level;
    the result keeps per-coordinate relative error below n^-r and total mass
    within [1 - n^-r, 1].
    """
    q = np.zeros(p.k)
    for j, pj in enumerate(p.masses):
        if pj == 0.0:
            continue
        if pj < grid.min_positive - 1e-18:
            raise DomainError(
                f"mass {pj!r} below the grid minimum {grid.min_positive!r}"
            )
        idx = int(np.searchsorted(grid.levels, pj * (1 + 1e-15), side="right")) - 1
        q[j] = grid.levels[idx]
    return q


def chi_m_poisson(lam1: float, lam2: float, m: int) -> tuple[float, float]:
    """Closed-form power divergence of order m between two Poisson laws.

    Returns (value, bound): exp(lam2 ((lam1/lam2)^m - m (lam1/lam2 - 1) - 1))
    and the quadratic-exponent cap exp(lam2 m^2 delta^2) that dominates it
    when the relative rate deviation delta is below 1/m.
    """
    if m < 2:
        raise DomainError("order m must be at least 2")
    if lam1 < 0 or lam2 < 0:
        raise DomainError("rates must be >= 0")
    if lam2 == 0.0:
        return (1.0, 1.0) if lam1 == 0.0 else (math.inf, math.inf)
    exponent = chi_m_log(lam1, lam2, m)
    delta = abs(lam1 / lam2 - 1.0)
    bound = math.exp(min(lam2 * m * m * delta * delta, 700.0)) if delta < 1.0 / m else math.inf
    value = math.exp(exponent) if exponent < 700.0 else math.inf
    return value, bound


def chi_m_log(lam1: float, lam2: float, m: int) -> float:
    """log of the closed form, usable when the value overflows."""
    if lam2 == 0.0:
        return 0.0 if lam1 == 0.0 else math.inf
    ratio = lam1 / lam2
    return lam2 * (ratio**m - m * (ratio - 1.0) - 1.0)


def chi_m_poisson_brute(lam1: float, lam2: float, m: int) -> float:
    """log of the divergence by direct summation over counts (oracle route)."""
    if lam2 == 0.0:
        return 0.0 if lam1 == 0.0 else math.inf
    lam_eff = lam1**m / lam2 ** (m - 1)
    hw = 60.0 * math.sqrt(lam_eff + 1.0) + 80.0
    t = np.arange(max(0, int(lam_eff - hw)), int(lam_eff + hw) + 1, dtype=float)
    from scipy.special import gammaln

    logterms = (m - 1) * lam2 - m * lam1 + t * math.log(lam_eff) - gammaln(t + 1.0)
    peak = logterms.max()
    return float(peak + math.log(np.exp(logterms - peak).sum()))


def is_close(p, p_prime, alpha: float, beta: float) -> bool:
    """Zero-preserving proximity with a small-mass cap and a ratio band.

    True iff zeros are preserved, masses at most alpha stay at most alpha,
    and every larger mass is reproduced within [p/(1+beta), p].
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(p_prime, dtype=float)
    if p.shape != q.shape:
        raise DomainError("vectors must share a support length")
    tol = 1e-15
    for pi, qi in zip(p, q):
        if pi == 0.0 and qi != 0.0:
            return False
        if pi <= alpha and qi > alpha + tol:
            return False
        if pi > alpha and not (pi / (1.0 + beta) - tol <= qi <= pi + tol):
            return False
    return True


def min_prob_round(
    p: DiscreteDistribution, phi: Profile, A: float = 2.0
) -> DiscreteDistribution:
    """Raise tiny positive masses to the grid floor without losing likelihood.

    Clamps sub-threshold masses up to 1/(2 n^A) and rescales the larger
    masses down to restore normalization, then verifies the closeness
    predicates and the e^-6 profile-likelihood retention; a fallback shaves
    only the largest mass before giving up.  A p with no positive mass below
    the floor is returned as it is.
    """
    n = phi.n
    floor = 1.0 / (2.0 * n**A)
    alpha, beta = n**-A, 3.0 * n ** (-A / 2.0)
    small = (p.masses > 0) & (p.masses < floor)
    if not np.any(small):
        return p
    base_prob = profile_probability(p, phi)

    def attempt(shave_large_only: bool) -> DiscreteDistribution | None:
        masses = p.masses.copy()
        deficit = float(np.sum(floor - masses[small]))
        masses[small] = floor
        big = masses > alpha
        if shave_large_only:
            big = np.zeros_like(big)
            big[int(np.argmax(masses))] = True
        total_big = float(masses[big].sum())
        if total_big <= deficit:
            return None
        masses[big] *= (total_big - deficit) / total_big
        masses /= masses.sum()
        cand = DiscreteDistribution(masses)
        if not is_close(p.masses, cand.masses, alpha, beta):
            return None
        if profile_probability(cand, phi) < math.exp(-6.0) * base_prob:
            return None
        return cand

    for fallback in (False, True):
        cand = attempt(fallback)
        if cand is not None:
            return cand
    raise ConstructionFailedError(
        "minimum-mass rounding failed both the proportional and single-mass constructions"
    )


@functools.cache
def _sorted_grid_rows(resolution: int, k_max: int) -> np.ndarray:
    """All decreasing compositions of `resolution` into at most k_max parts,
    zero-padded to k_max and divided by `resolution`; built once per pair
    and read-only."""
    rows = [
        parts + (0,) * (k_max - len(parts))
        for parts in _partitions(resolution, resolution, k_max)
    ]
    grid = np.asarray(rows, dtype=float) / resolution
    grid.flags.writeable = False
    return grid


def brute_force_pml(
    phi: Profile, k_max: int = PML_K_CAP, grid_resolution: int = 60
) -> tuple[DiscreteDistribution, float]:
    """Grid-exhaustive maximizer of the profile likelihood, then refined.

    The refinement is a pair ascent from the best grid row: each sweep
    moves the mass min(step, p_j) from j to i for the pair (i, j) that
    raises the likelihood most, and halves the step when none does, from
    1/grid_resolution down to the last step of at least 1e-6.  So no such
    pair move of that last step raises the likelihood of the returned
    masses by more than 1e-12 relative.

    The returned likelihood is that of the returned (normalized) masses,
    capped at 1, hence a certified lower bound on the untruncated maximum;
    the grid optimum is exact within the grid class of k_max-support
    distributions at the given resolution.  A profile with more distinct
    symbols than k_max has likelihood 0 under every such distribution; it
    gets the grid's first row, the point mass, with likelihood 0.
    """
    if k_max < 1 or grid_resolution < 1:
        raise DomainError("k_max and grid_resolution must be at least 1")
    if phi.n > EXACT_SCALE_N or k_max > PML_K_CAP or grid_resolution > PML_RESOLUTION_CAP:
        raise ResourceLimitError(
            f"brute-force search capped at n <= {EXACT_SCALE_N}, k_max <= {PML_K_CAP}, "
            f"grid_resolution <= {PML_RESOLUTION_CAP}"
        )
    rows = _sorted_grid_rows(grid_resolution, k_max)
    if phi.distinct_symbols > k_max:
        # every row and every candidate scores 0, so the ascent cannot move
        return DiscreteDistribution(rows[0].copy()), 0.0
    probs = profile_probability_many(rows, phi)
    # the first row within the ascent's gain tolerance of the best: on the
    # profile of one draw every row scores 1 up to rounding, and this
    # keeps float noise from picking the start
    best = int(np.argmax(probs >= probs.max() * (1 - 1e-12)))
    masses = rows[best].copy()
    best_prob = float(probs[best])

    # best-improvement pair ascent on a halving step: a sweep scores every
    # move of t = min(step, masses[j]) from j to i, i != j, in one call and
    # takes the largest gain; a sweep without one halves the step.  k_max = 1
    # has no pairs.
    src, dst = np.nonzero(~np.eye(k_max, dtype=bool))
    step = 1.0 / grid_resolution
    while src.size and step >= 1e-6:
        t = np.minimum(step, masses[dst])
        cands = np.repeat(masses[None, :], src.size, axis=0)
        cands[np.arange(src.size), src] += t
        cands[np.arange(src.size), dst] -= t
        probs = profile_probability_many(cands, phi)
        g = int(np.argmax(probs))
        if probs[g] > best_prob * (1 + 1e-12):
            masses, best_prob = cands[g], float(probs[g])
        else:
            step /= 2.0
    # the float masses the search scored may sum to 1 plus or minus an ulp
    masses = masses[np.argsort(-masses)]
    pml = DiscreteDistribution(masses / masses.sum())
    return pml, min(profile_probability(pml, phi), 1.0)


def good_set(
    estimator: Callable[[Profile], AtomicMeasure],
    p: DiscreteDistribution,
    eps: float,
    loss: Callable[[AtomicMeasure, DiscreteDistribution], float],
    n: int,
) -> tuple[list[Profile], float]:
    """Profiles of size n on which the estimator lands within eps of p.

    Exact enumeration; also returns the total profile probability of the set
    under p.
    """
    if n > EXACT_SCALE_N:
        raise ResourceLimitError(f"good-set enumeration capped at n <= {EXACT_SCALE_N}")
    good = good_profiles(estimator, p, eps, loss, enumerate_profiles(n))
    mass = sum(profile_probability(p, phi) for phi in good)
    return good, mass


def good_profiles(
    estimator: Callable[[Profile], AtomicMeasure],
    p: DiscreteDistribution,
    eps: float,
    loss: Callable[[AtomicMeasure, DiscreteDistribution], float],
    profiles: list[Profile],
) -> list[Profile]:
    """The profiles, in the given order, on which the estimator lands within eps of p."""
    return [phi for phi in profiles if loss(estimator(phi), p) <= eps]


def check_goodset_lemma(
    q: DiscreteDistribution,
    p: DiscreteDistribution,
    good: list[Profile],
    eps: float,
    delta: float,
    estimator: Callable[[Profile], AtomicMeasure],
    loss: Callable[[AtomicMeasure, DiscreteDistribution], float],
) -> bool:
    """One falsification instance of the good-set implication.

    If q puts more than delta mass on the good set while the estimator's
    failure mass under q is at most delta, then q must be within 2*eps of p.
    Returns True when the implication holds (vacuously or not).
    """
    # compatibility of the loss with the distance on this instance
    for phi in good[: min(4, len(good))]:
        a = estimator(phi)
        if sorted_l1(p, q) > loss(a, p) + loss(a, q) + 1e-9:
            raise DomainError("loss is not compatible with the distance on this instance")
    mass_q_good = sum(profile_probability(q, phi) for phi in good)
    if mass_q_good <= delta:
        return True
    n = good[0].n if good else 1
    bad_mass_q = sum(
        profile_probability(q, phi)
        for phi in enumerate_profiles(n)
        if loss(estimator(phi), q) > eps
    )
    if bad_mass_q > delta:
        return True  # estimator assumption fails at q; implication is vacuous
    return sorted_l1(q, p) <= 2.0 * eps + 1e-12


@dataclass(frozen=True)
class ChainParams:
    """Exponent schedule (r_m, s_m) for the chained covering construction."""

    c: Fraction
    M: int
    r: tuple[Fraction, ...]  # r_1..r_M
    s: tuple[Fraction, ...]  # s_1..s_M
    t: Fraction

    def verify(self) -> bool:
        r = (Fraction(1, 2),) + self.r
        s = self.s + (Fraction(0),)
        for m in range(1, self.M + 1):
            if 1 - 2 * self.r[m - 1] + self.s[m - 1] != self.t:
                return False
        for m in range(1, self.M + 2):
            if r[m - 1] - s[m - 1] != self.t:
                return False
        return True


def chain_params(c: Fraction | float) -> ChainParams:
    """Solve the covering exponent equations exactly for accuracy constant c."""
    c = Fraction(c).limit_denominator(10**12) if not isinstance(c, Fraction) else c
    if not 0 < c < Fraction(1, 12):
        raise DomainError("c must lie in (0, 1/12)")
    M = 1
    while Fraction(1, 12 * (3 * 2 ** (M - 1) - 1)) >= c:
        M += 1
    B = 3 * 2 ** (M - 1) - 1
    t = Fraction(1, 3) + Fraction(1, 12 * B)
    r = tuple(
        Fraction(1, 3) * (1 + Fraction(1, 2 ** (m + 1)))
        - Fraction(1, 6 * B) * (1 - Fraction(1, 2**m))
        for m in range(1, M + 1)
    )
    s = tuple(
        Fraction(1, 3 * 2**m) - Fraction(1, 12 * B) * (3 - Fraction(1, 2) ** (m - 2))
        for m in range(1, M + 1)
    )
    params = ChainParams(c=c, M=M, r=r, s=s, t=t)
    if not params.verify():
        raise ConstructionFailedError("chain exponent equations not satisfied")
    return params


def covering_constants(
    p: DiscreteDistribution,
    grid: QuantGrid,
    r: float,
    s: float,
    c0: float = 0.5,
    subsets: str = "all",
    rng: np.random.Generator | None = None,
    sample_count: int = 512,
) -> float:
    """Smallest constant making both covering inequalities hold for all S.

    Exhausts every nonempty subset of the profile space when subsets="all"
    (sample size capped so 2^|profiles| stays enumerable), otherwise samples.
    Returns the minimal c with
        P(p, S) >= P(q, S)^(1/(1 - c0 n^-s)) exp(-c n^(1-2r+s))
    and the mirrored inequality, q being the normalized grid image of p.
    """
    n = grid.n
    q_raw = quantize_to_grid(p, grid)
    q = DiscreteDistribution(q_raw / q_raw.sum())
    profiles = enumerate_profiles(n)
    probs_p = np.asarray([profile_probability(p, phi) for phi in profiles])
    probs_q = np.asarray([profile_probability(q, phi) for phi in profiles])
    count = len(profiles)
    power = 1.0 / (1.0 - c0 * n**-s)
    scale = n ** (1.0 - 2.0 * r + s)

    if subsets == "all":
        if count > 16:
            raise ResourceLimitError("exhaustive subsets require at most 16 profiles")
        masks = np.arange(1, 2**count)
        bits = ((masks[:, None] >> np.arange(count)) & 1).astype(bool)
    else:
        gen = rng or np.random.default_rng(0)
        bits = gen.random((sample_count, count)) < 0.5
        bits[~bits.any(axis=1), 0] = True
    sums_p = bits @ probs_p
    sums_q = bits @ probs_q
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p, log_q = np.log(sums_p), np.log(sums_q)
        need_1 = (power * log_q - log_p) / scale  # P(p,S) side
        need_2 = (power * log_p - log_q) / scale
    needs = np.concatenate([need_1, need_2])
    needs = needs[np.isfinite(needs)]
    return float(max(0.0, needs.max()))
