"""The global moment-matching linear program and the sorted-distribution estimator.

One LP couples every local interval: per interval m and degree d it keeps a
slack above the weighted residual between the candidate measure's local
moments and the estimated smoothed moments, plus one slack per interval for
the cumulative mass residual over intervals m' >= m.  The minimizer,
completed with a point mass at zero, is the estimate of the multiset of
probability masses.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import AtomicMeasure, DiscreteDistribution, Histogram, poisson_interval_prob
from .errors import DomainError, SupportViolationError
from .intervals import DEFAULT_C1, IntervalScheme, build_scheme
from .moments import DEFAULT_C2, MomentTable, degree_for, moment_table_estimate
from .simplex import simplex_solve

__all__ = [
    "LPInstance",
    "EstimateResult",
    "build_lp",
    "solve_lp",
    "surrogate_loss",
    "estimate_sorted_distribution",
    "reference_decomposition",
]

# Atoms per interval.  A fixed grid of ~max(4D, 16) points leaves intervals
# coarser than the 1/k mass scale they must resolve, and the LP's
# mean-preserving vertex splits then dominate the error.  Each interval's
# uniform grid therefore has a spacing of about 1/(8k), clamped to
# [MIN_GRID, MAX_GRID] points and never fewer than max(2D, 2).
MIN_GRID = 32
MAX_GRID = 4096

_WEIGHT_EPS = 1e-11


def _grid_count(length: float, k: int, depth: int) -> int:
    return max(int(np.clip(math.ceil(8.0 * k * length), MIN_GRID, MAX_GRID)), 2 * depth, 2)


@dataclass
class LPInstance:
    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    grids: list[np.ndarray]        # grid locations per included interval
    m_included: list[int]          # 1-based interval indices carrying weight vars
    n_weights: int
    depth: int
    k: int
    objective_const: float         # tail-residual cost of intervals beyond the cover
    scheme: IntervalScheme
    targets: MomentTable


@dataclass
class EstimateResult:
    measure: AtomicMeasure
    objective_value: float
    solver_status: str
    targets: MomentTable
    mu0_mass: float

    def to_json(self) -> str:
        payload = {
            "atoms": [[float(x), float(w)] for x, w in zip(self.measure.locations, self.measure.weights)],
            "objective": self.objective_value,
            "status": self.solver_status,
            "moments": self.targets.values.tolist(),
            "depth": self.targets.depth,
        }
        return json.dumps(payload, sort_keys=True)


def build_lp(targets: MomentTable, scheme: IntervalScheme, k: int) -> LPInstance:
    """Assemble the LP over grid atom weights plus one slack per residual term.

    Weight variables live on a uniform grid per enlarged interval, restricted
    to the part inside [0, 1]; intervals entirely beyond 1 cannot carry mass,
    so only their (constant) cumulative-mass residuals enter the objective.
    """
    depth = targets.depth
    if targets.M != scheme.M:
        raise DomainError("moment table and scheme disagree on interval count")

    included: list[int] = []
    grids: list[np.ndarray] = []
    for m in range(1, scheme.M + 1):
        lo = float(scheme.tilde_left[m - 1])
        if lo >= 1.0:
            break
        hi = min(float(scheme.tilde_right[m - 1]), 1.0)
        grids.append(np.linspace(lo, hi, _grid_count(hi - lo, k, depth)))
        included.append(m)
    if not included:
        raise DomainError("no interval intersects [0, 1]")

    n_w = sum(g.size for g in grids)
    n_u = (depth + 1) * len(included)   # slack (m, d) for d = 1..depth plus the tail slack
    n_vars = n_w + n_u

    rows_A: list[np.ndarray] = []
    rows_b: list[float] = []
    cost = np.zeros(n_vars)

    w_offsets = np.cumsum([0] + [g.size for g in grids])

    def u_index(mi: int, d: int) -> int:
        # d = 0 is the tail slack
        return n_w + mi * (depth + 1) + d

    cum_targets = np.concatenate([np.cumsum(targets.values[::-1, 0])[::-1], [0.0]])

    for mi, m in enumerate(included):
        i = m - 1
        tl = float(scheme.tilde_len[i])
        xg = grids[mi]
        for d in range(1, depth + 1):
            coef = np.zeros(n_vars)
            coef[w_offsets[mi]:w_offsets[mi + 1]] = k * (xg - scheme.centers[i]) ** d / tl**d
            rhs = targets.value(m, d) / tl**d
            cost[u_index(mi, d)] = tl
            pos = coef.copy(); pos[u_index(mi, d)] = -1.0
            neg = -coef;       neg[u_index(mi, d)] = -1.0
            rows_A += [pos, neg]
            rows_b += [rhs, -rhs]
        # cumulative mass residual over m' >= m
        coef = np.zeros(n_vars)
        for mj in range(mi, len(included)):
            coef[w_offsets[mj]:w_offsets[mj + 1]] = float(k)
        rhs = float(cum_targets[i])
        cost[u_index(mi, 0)] = tl
        pos = coef.copy(); pos[u_index(mi, 0)] = -1.0
        neg = -coef;       neg[u_index(mi, 0)] = -1.0
        rows_A += [pos, neg]
        rows_b += [rhs, -rhs]

    mass_row = np.zeros(n_vars)
    mass_row[:n_w] = 1.0
    rows_A.append(mass_row)
    rows_b.append(1.0)
    mean_row = np.zeros(n_vars)
    mean_row[:n_w] = np.concatenate(grids)
    rows_A.append(mean_row)
    rows_b.append(1.0 / k)

    const = 0.0
    for m in range(included[-1] + 1, scheme.M + 1):
        const += float(scheme.tilde_len[m - 1]) * abs(float(cum_targets[m - 1]))

    return LPInstance(
        c=cost, A=np.asarray(rows_A), b=np.asarray(rows_b),
        grids=grids, m_included=included, n_weights=n_w, depth=depth, k=k,
        objective_const=const, scheme=scheme, targets=targets,
    )


def solve_lp(lp: LPInstance) -> EstimateResult:
    """Solve to a deterministic vertex; returns the measure before zero-completion."""
    res = simplex_solve(lp.c, lp.A, lp.b)
    w = res.x[:lp.n_weights]
    locs = np.concatenate(lp.grids)
    keep = w > _WEIGHT_EPS
    mu0 = AtomicMeasure(locs[keep], w[keep])
    return EstimateResult(
        measure=mu0,
        objective_value=res.objective + lp.objective_const,
        solver_status=res.status,
        targets=lp.targets,
        mu0_mass=mu0.total_mass,
    )


def surrogate_loss(
    per_interval: list[AtomicMeasure | None],
    targets: MomentTable,
    scheme: IntervalScheme,
    k: int,
) -> float:
    """Objective value of a candidate decomposition against a moment table.

    `per_interval[m-1]` is the candidate's restriction to the m-th enlarged
    interval (None for empty); atoms outside that interval raise.
    """
    if len(per_interval) != scheme.M:
        raise DomainError("need one (possibly empty) measure per interval")
    depth = targets.depth
    total = 0.0
    masses = np.zeros(scheme.M)
    for m in range(1, scheme.M + 1):
        mu_m = per_interval[m - 1]
        if mu_m is None or mu_m.locations.size == 0:
            continue
        i = m - 1
        if np.any(mu_m.locations < scheme.tilde_left[i] - 1e-12) or np.any(
            mu_m.locations > scheme.tilde_right[i] + 1e-12
        ):
            raise SupportViolationError(f"atoms outside enlarged interval {m}")
        masses[i] = mu_m.total_mass
    cum_mass = np.concatenate([np.cumsum(masses[::-1])[::-1], [0.0]])
    cum_targets = np.concatenate([np.cumsum(targets.values[::-1, 0])[::-1], [0.0]])
    for m in range(1, scheme.M + 1):
        i = m - 1
        tl = float(scheme.tilde_len[i])
        mu_m = per_interval[i]
        term = 0.0
        for d in range(1, depth + 1):
            moment = 0.0
            if mu_m is not None and mu_m.locations.size:
                moment = float(np.sum(((mu_m.locations - scheme.centers[i]) ** d) * mu_m.weights))
            term += abs(k * moment - targets.value(m, d)) / tl**d
        term += abs(k * cum_mass[i] - cum_targets[i])
        total += tl * term
    return total


def reference_decomposition(
    p: DiscreteDistribution, scheme: IntervalScheme
) -> list[AtomicMeasure | None]:
    """The feasible candidate built from a known distribution.

    Restriction to interval m keeps atoms of the mass multiset lying in the
    enlarged interval, damped by the half-sample landing probability.
    """
    out: list[AtomicMeasure | None] = []
    k = p.k
    for m in range(1, scheme.M + 1):
        i = m - 1
        sel = (p.masses >= scheme.tilde_left[i]) & (p.masses <= scheme.tilde_right[i])
        if not np.any(sel):
            out.append(None)
            continue
        lo, hi = scheme.half_range(m)
        damp = poisson_interval_prob(scheme.n * p.masses[sel] / 2.0, lo, hi)
        out.append(AtomicMeasure(p.masses[sel], damp / k))
    return out


def estimate_sorted_distribution(
    h: Histogram,
    k: int,
    scheme: IntervalScheme | None = None,
    c2: float = DEFAULT_C2,
    c1: float = DEFAULT_C1,
) -> EstimateResult:
    """End-to-end estimate of the sorted mass multiset from a histogram.

    Estimates all smoothed local moments, solves the coupled LP, and returns
    the minimizer completed to a probability measure by a point mass at 0.
    The scheme's n is the nominal sampling rate; pass it explicitly when the
    histogram total is Poissonized.
    """
    if scheme is None:
        if h.n < 16:
            raise DomainError("n must be at least 16")
        scheme = build_scheme(h.n, c1, "estimator")
    depth = degree_for(scheme.n, c2)
    targets = moment_table_estimate(h, scheme, depth, c2=c2, clamped=True)
    lp = build_lp(targets, scheme, k)
    partial = solve_lp(lp)
    mu0 = partial.measure
    leftover = max(0.0, 1.0 - mu0.total_mass)
    mu = (mu0 + AtomicMeasure.dirac(0.0, leftover)).pruned(0.0)
    return EstimateResult(
        measure=mu,
        objective_value=partial.objective_value,
        solver_status=partial.solver_status,
        targets=targets,
        mu0_mass=mu0.total_mass,
    )
