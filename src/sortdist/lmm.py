"""The global moment-matching linear program and the sorted-distribution estimator.

One LP couples every local interval: per interval m and degree d it keeps a
slack above the weighted residual between the candidate measure's local
moments and the estimated smoothed moments, plus one slack per interval for
the cumulative mass residual over intervals m' >= m.  The minimizer,
completed with a point mass at zero, is the estimate of the multiset of
probability masses.

When several measures attain the optimum (for instance when every moment is
matched exactly and the objective is 0), the one returned has the least
next moment: among the optimal measures, it minimizes the sum over intervals
of the degree-(D+1) local moment, scaled like the moment rows.  This picks
the lower principal representation of the matched moments instead of
whichever vertex the pivoting path happens to reach; any minimizer of the
objective carries the estimator's guarantee, so a fixed one keeps it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

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
    secondary: np.ndarray          # next-moment cost minimized over the optimal face
    grids: list[np.ndarray]        # grid locations per included interval
    m_included: list[int]          # 1-based interval indices carrying weight vars
    n_weights: int
    k: int
    objective_const: float         # tail-residual cost of intervals beyond the cover
    targets: MomentTable


@dataclass
class EstimateResult:
    measure: AtomicMeasure
    objective_value: float
    solver_status: str
    targets: MomentTable

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

    Interval m (the mi-th included one) owns rows 2(D+1)mi .. 2(D+1)(mi+1)-1:
    a +/- pair per degree 1..D, then a pair for the cumulative mass over
    m' >= m; the mass and mean rows come last.  Its slacks follow the weights
    in the order cumulative, degree 1..D.
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
    n_res = (depth + 1) * len(included)   # one residual, and one slack, per (m, d)
    A = np.zeros((2 * n_res + 2, n_w + n_res))
    b = np.zeros(2 * n_res + 2)
    c = np.zeros(n_w + n_res)
    secondary = np.zeros(n_w + n_res)
    pos, pos_b = A[0:2 * n_res:2], b[0:2 * n_res:2]

    cum_targets = np.concatenate([np.cumsum(targets.values[::-1, 0])[::-1], [0.0]])
    power = depth + 1
    start = 0
    for mi, (m, xg) in enumerate(zip(included, grids)):
        i = m - 1
        tl = float(scheme.tilde_len[i])
        offset = xg - scheme.centers[i]
        cols = slice(start, start + xg.size)
        r = mi * (depth + 1)
        for d in range(1, depth + 1):
            pos[r + d - 1, cols] = k * offset**d / tl**d
            pos_b[r + d - 1] = targets.value(m, d) / tl**d
        pos[r + depth, start:n_w] = float(k)
        pos_b[r + depth] = float(cum_targets[i])
        c[n_w + r:n_w + r + depth + 1] = tl
        secondary[cols] = tl * k * offset**power / tl**power
        start += xg.size
    np.negative(pos, out=A[1:2 * n_res:2])
    np.negative(pos_b, out=b[1:2 * n_res:2])
    # within an interval the residuals run degree 1..D then cumulative, the
    # slacks cumulative then degree 1..D
    res = np.arange(n_res)
    slack = n_w + res - res % (depth + 1) + (res + 1) % (depth + 1)
    A[2 * res, slack] = -1.0
    A[2 * res + 1, slack] = -1.0

    A[2 * n_res, :n_w] = 1.0
    b[2 * n_res] = 1.0
    A[2 * n_res + 1, :n_w] = np.concatenate(grids)
    b[2 * n_res + 1] = 1.0 / k

    const = 0.0
    for m in range(included[-1] + 1, scheme.M + 1):
        const += float(scheme.tilde_len[m - 1]) * abs(float(cum_targets[m - 1]))

    return LPInstance(
        c=c, A=A, b=b, secondary=secondary, grids=grids, m_included=included,
        n_weights=n_w, k=k, objective_const=const, targets=targets,
    )


def solve_lp(lp: LPInstance) -> EstimateResult:
    """Solve to the optimal vertex of least next moment (the module docstring
    says which); returns the measure before zero-completion."""
    res = simplex_solve(lp.c, lp.A, lp.b, secondary=lp.secondary)
    w = res.x[:lp.n_weights]
    locs = np.concatenate(lp.grids)
    keep = w > _WEIGHT_EPS
    return EstimateResult(
        measure=AtomicMeasure(locs[keep], w[keep]),
        objective_value=res.objective + lp.objective_const,
        solver_status=res.status,
        targets=lp.targets,
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
    if k < 1:
        raise DomainError("k must be at least 1")
    if scheme is None:
        if h.n < 16:
            raise DomainError("n must be at least 16")
        scheme = build_scheme(h.n, c1, "estimator")
    depth = degree_for(scheme.n, c2)
    targets = moment_table_estimate(h, scheme, depth, clamped=True)
    partial = solve_lp(build_lp(targets, scheme, k))
    mu0 = partial.measure
    leftover = max(0.0, 1.0 - mu0.total_mass)
    return replace(partial, measure=(mu0 + AtomicMeasure.dirac(0.0, leftover)).pruned(0.0))
