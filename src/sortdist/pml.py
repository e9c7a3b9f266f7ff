"""Desk-scale profile-likelihood machinery.

Brute-force profile maximum likelihood over a simplex grid refined by a
pairwise mass-transfer ascent, the geometric quantization grid with its
multiplicative covering guarantees, the exact covering constant of a grid
image over every subset of the profile space (from sorted prefixes),
Poisson power-divergence closed forms, the closeness relation used for
minimum-mass rounding, good-profile sets, and the exponent schedule
solving the chained covering equations.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .core import (
    AtomicMeasure,
    EXACT_SCALE_N,
    DiscreteDistribution,
    Profile,
    ProfileBatch,
    _partitions,
    check_desk_size,
    desk_profiles,
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
    "check_brute_force_caps",
    "good_set",
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
        if not isinstance(n, numbers.Integral) or n < 1:
            raise DomainError(f"n must be a positive integer, got {n!r}")
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


ROUNDING_A = 2.0  # the paper's A: rounding floor 1/(2 n^A), cap n^-A, band 3 n^(-A/2)


def min_prob_round(p: DiscreteDistribution, phi: Profile) -> DiscreteDistribution:
    """Raise tiny positive masses to the grid floor without losing likelihood.

    Clamps sub-threshold masses up to 1/(2 n^A), A = ROUNDING_A, and
    rescales the larger masses down to restore normalization, then verifies
    the closeness predicates and the e^-6 profile-likelihood retention; a
    fallback shaves only the largest mass before giving up.  A p with no
    positive mass below the floor is returned as it is.
    """
    n, A = phi.n, ROUNDING_A
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


def check_brute_force_caps(n: int, k_max: int, grid_resolution: int) -> None:
    """Reject a `brute_force_pml` call by its sizes alone, so that a caller
    holding only the n of a profile can check it before building the profile:
    past the search's own caps, or where the desk of n's profiles with at
    most k_max parts is past `check_desk_size`."""
    if k_max < 1 or grid_resolution < 1:
        raise DomainError("k_max and grid_resolution must be at least 1")
    if n > EXACT_SCALE_N or k_max > PML_K_CAP or grid_resolution > PML_RESOLUTION_CAP:
        raise ResourceLimitError(
            f"brute-force search capped at n <= {EXACT_SCALE_N}, k_max <= {PML_K_CAP}, "
            f"grid_resolution <= {PML_RESOLUTION_CAP}"
        )
    check_desk_size("brute-force search", n, k_max)


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
    check_brute_force_caps(phi.n, k_max, grid_resolution)
    rows = _sorted_grid_rows(grid_resolution, k_max)
    if phi.distinct_symbols > k_max:
        # every row and every candidate scores 0, so the ascent cannot move
        return DiscreteDistribution(rows[0].copy()), 0.0
    batch = ProfileBatch([phi], k_max)
    probs = profile_probability_many(rows, batch)[0]
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
        probs = profile_probability_many(cands, batch)[0]
        g = int(np.argmax(probs))
        if probs[g] > best_prob * (1 + 1e-12):
            masses, best_prob = cands[g], float(probs[g])
        else:
            step /= 2.0
    # the float masses the search scored may sum to 1 plus or minus an ulp
    masses = masses[np.argsort(-masses)]
    pml = DiscreteDistribution(masses / masses.sum())
    return pml, min(float(profile_probability_many(pml.masses[None, :], batch)[0, 0]), 1.0)


def good_set(
    estimator: Callable[[Profile], AtomicMeasure],
    p: DiscreteDistribution,
    eps: float,
    loss: Callable[[AtomicMeasure, DiscreteDistribution], float],
    n: int,
) -> tuple[list[Profile], float]:
    """Profiles of size n on which the estimator lands within eps of p.

    Exact enumeration of every profile with at most p.k parts
    (`desk_profiles`; the others have probability 0 under p); also returns
    the total profile probability of the set under p.
    """
    good = [phi for phi in desk_profiles(n, p.k) if loss(estimator(phi), p) <= eps]
    return good, _set_mass(p, good)


def _set_mass(p: DiscreteDistribution, profiles: Sequence[Profile]) -> float:
    """The total probability of the profiles under p, summed in their order."""
    return sum(profile_probability_many(p.masses[None, :], ProfileBatch(profiles, p.k))[:, 0].tolist())


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
    mass_q_good = _set_mass(q, good)
    if mass_q_good <= delta:
        return True
    n = good[0].n if good else 1
    bad_mass_q = _set_mass(q, [phi for phi in desk_profiles(n, q.k) if loss(estimator(phi), q) > eps])
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
) -> float:
    """Smallest constant making both covering inequalities hold for all S.

    Returns the minimal c >= 0 with
        P(p, S) >= P(q, S)^a exp(-c n^(1-2r+s)),  a = 1/(1 - c0 n^-s),
    and the mirrored inequality, over every nonempty set S of profiles of
    size n, q being the normalized grid image of p.

    Exact without enumerating the subsets.  With P = P(p, S) and
    Q = P(q, S), each inequality's need is a log Q - log P up to the
    positive factor n^-(1-2r+s) (P and Q swapped for the mirror).  For
    a >= 1 that is quasi-convex in (P, Q): its sublevel set
    {Q <= (e^c P)^(1/a)} lies under a concave curve.  So its maximum over
    the 2-D zonotope sum_phi [0, (p_phi, q_phi)], which holds every (P, Q),
    sits at a vertex; scaling a point towards the origin only lowers the
    need, so the origin (S empty) is never needed.  Every other vertex is a
    prefix of the profiles sorted by q_phi / p_phi, in ascending or in
    descending order, hence 2 * count prefix sums per inequality; the
    longest, the whole set, has P = Q = 1 and needs exactly 0.
    Only the profiles with at most k parts can have p_phi or q_phi > 0, so
    only they are enumerated (`desk_profiles`); those with p_phi = q_phi = 0
    (the grid keeps p's zeros) add nothing and are dropped too.  Needs
    c0 n^-s in [0, 1), so that a >= 1.
    """
    n = grid.n
    shrink = c0 * n**-s
    if not 0.0 <= shrink < 1.0:
        raise DomainError(f"c0 n^-s must lie in [0, 1), got {shrink!r}")
    q_raw = quantize_to_grid(p, grid)
    q = DiscreteDistribution(q_raw / q_raw.sum())
    batch = ProfileBatch(desk_profiles(n, p.k), p.k)
    probs = profile_probability_many(np.stack([p.masses, q.masses]), batch)
    probs = probs[probs.any(axis=1)]
    probs = probs[np.argsort(probs[:, 1] / probs[:, 0])]
    # the last prefix in each order is the whole set, where P = Q = 1 and
    # the need is exactly 0, not the few ulps its sums would give
    sums = np.concatenate([np.cumsum(probs, axis=0)[:-1], np.cumsum(probs[::-1], axis=0)[:-1]])
    log_p, log_q = np.log(sums).T
    power = 1.0 / (1.0 - shrink)
    needs = np.concatenate([power * log_q - log_p, power * log_p - log_q])
    return float(needs.max(initial=0.0) / n ** (1.0 - 2.0 * r + s))
