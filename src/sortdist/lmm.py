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

The LP is solved by column generation over its grid.  The constraint
matrix is never filled: `LPInstance.A` cuts the columns the tableau asks for
from each interval's grid and moment rows, and it also names the start
columns and prices the rest.  The simplex tableau starts from every slack
column and both end points of each interval's grid, which hold every row's
largest entry and so fix the row scaling.  After each round of pivoting
every grid column gets its exact reduced cost from the same rows, and each
interval's cheapest one joins the tableau.  Within an interval the reduced
cost is, up to a constant, a polynomial in the moment rows alone: the mean
row is affine in the degree-1 row, and a weight column costs nothing in the
objective.  Pricing an interval is therefore one matrix-vector product over
its grid, and in the next-moment stage one subtraction from that cost.
The lexicographic optimum continues in the same tableau: once no column
prices out on the objective, the row objective <= optimum is appended and
the next moment is minimized.

Only the right-hand side b and the constant tail cost read the histogram.
Everything else (the grids, the columns, the slack costs c and the
next-moment cost) depends on the scheme, k and the moment depth alone and
lives in one read-only `GridColumns`: `_grid_columns` keeps the last one
built, and every LP of the same three shares it.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .core import AtomicMeasure, DiscreteDistribution, Histogram
from .errors import DomainError, SupportViolationError
from .intervals import IntervalScheme
from .moments import DEFAULT_C2, MomentTable, degree_for, half_sample_landing_prob, moment_table_estimate
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


class GridColumns:
    """The histogram-free half of the estimator LP of one (scheme, k, depth),
    every array read-only: its grids, its constraint matrix A, cut into
    columns on demand, the slack costs c, the next-moment cost `secondary`,
    and the start columns and pricing oracle of its column generation.

    Weight variables live on a uniform grid per enlarged interval, restricted
    to the part inside [0, 1]; intervals entirely beyond 1 cannot carry mass,
    so only their (constant) cumulative-mass residuals enter the objective.

    A weight column at grid point x of the mi-th included interval holds
    k (x - c_m)^d / tl_m^d in the + row of each degree d, k in the +
    cumulative row of every included interval at or before its own, 1 in the
    mass row and x in the mean row; a slack column holds -1 in both rows of
    its residual.  Each - row is the negated + row, so its other entries are
    -0.0.  Apart from the degree rows and the mean row, a weight column
    depends only on its interval, so one template column per interval and
    per slack holds the rest, filled as the dense matrix would be.

    `A[:, J]` equals columns J of that dense matrix, in the memory order of
    such a slice (Fortran order), so every product downstream sees the same
    operands.  `start` holds every slack and both end points of each grid:
    the zero measure is feasible there, and the end points hold every row's
    largest |entry|, so the start columns give the full LP's row scaling.
    """

    def __init__(self, scheme: IntervalScheme, k: int, depth: int):
        if not isinstance(k, numbers.Integral) or k < 1:
            raise DomainError(f"k must be at least 1 and an integer, got {k!r}")
        if scheme.variant != "estimator":
            raise DomainError("the estimator LP needs the estimator-variant scheme")
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
        self.scheme, self.k, self.depth = scheme, k, depth
        self.m_included = tuple(included)    # 1-based intervals carrying weights
        ends = np.cumsum([g.size for g in grids])
        points = np.concatenate(grids)
        n_w = points.size
        n_int = len(included)
        n_res = (depth + 1) * n_int          # one residual, and one slack, per (m, d)
        moments = np.zeros((depth, n_w))
        c = np.zeros(n_w + n_res)
        secondary = np.zeros(n_w + n_res)
        tl_over_k = np.zeros(n_int)

        power = depth + 1
        for mi, (m, xg, end) in enumerate(zip(included, grids, ends)):
            i = m - 1
            tl = float(scheme.tilde_len[i])
            offset = xg - scheme.centers[i]
            cols = slice(end - xg.size, end)
            r = mi * (depth + 1)
            for d in range(1, depth + 1):
                moments[d - 1, cols] = k * offset**d / tl**d
            c[n_w + r:n_w + r + depth + 1] = tl
            secondary[cols] = tl * k * offset**power / tl**power
            tl_over_k[mi] = tl / k

        self._moments = moments        # (D, n_w): the + degree rows on the weight columns
        self.points = points           # (n_w,): every grid point, the mean row
        self._tl_over_k = tl_over_k    # (n_int,): the mean row per unit of the degree-1 row
        self.n_weights = n_w
        self.c = c
        self.secondary = secondary     # next-moment cost minimized over the optimal face
        self.shape = (2 * n_res + 2, n_w + n_res)
        # one past the last column of each template: the intervals' weight
        # columns, then one slack each
        self._ends = np.concatenate([ends, n_w + 1 + np.arange(n_res)])
        self.start = np.concatenate([[0], ends[:-1], ends - 1, np.arange(n_w, self.shape[1])])
        # the + row of each degree d = 1..D of each interval
        self._degree_rows = 2 * (depth + 1) * np.arange(n_int) + 2 * np.arange(depth)[:, None]
        templates = np.zeros((self.shape[0], n_int + n_res), order="F")
        pos = templates[0:2 * n_res:2]
        mi = np.arange(n_int)
        pos[mi * (depth + 1) + depth, :n_int] = np.where(mi[:, None] <= mi, float(k), 0.0)
        np.negative(pos, out=templates[1:2 * n_res:2])
        # within an interval the residuals run degree 1..D then cumulative,
        # the slacks cumulative then degree 1..D
        res = np.arange(n_res)
        slack = n_int + res - res % (depth + 1) + (res + 1) % (depth + 1)
        templates[2 * res, slack] = -1.0
        templates[2 * res + 1, slack] = -1.0
        templates[2 * n_res, :n_int] = 1.0
        self._templates = templates
        for a in (*self._held, c, secondary):
            a.flags.writeable = False
        # views of the read-only points, so read-only too
        self.grids = tuple(np.split(points, ends[:-1]))

    @property
    def _held(self) -> tuple[np.ndarray, ...]:
        """The arrays a column cut or a pricing call reads, apart from the
        costs c and `secondary`."""
        return (
            self._moments, self.points, self._tl_over_k, self._ends, self.start, self._degree_rows, self._templates,
        )

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self._held)

    def __getitem__(self, key) -> np.ndarray:
        rows, cols = key
        if rows != slice(None):
            raise IndexError("only whole columns A[:, J] are cut")
        cols = np.asarray(cols)
        template = np.searchsorted(self._ends, cols, side="right")
        out = self._templates[:, template]
        at = (cols < self.points.size).nonzero()[0]
        j = cols[at]
        rows = self._degree_rows[:, template[at]]
        values = self._moments[:, j]
        out[rows, at] = values
        out[rows + 1, at] = -values
        out[-1, at] = self.points[j]
        return out

    def price(self, y: np.ndarray) -> np.ndarray:
        """Each interval's grid column of least reduced cost, against the
        duals y of A's rows and, in the second stage, of the row
        c.x <= opt last (the `simplex` module docstring says how).

        On the mi-th interval y.A_j is the interval's degree-row duals
        (y+ - y-) times the column's degree rows, plus y_mean x_j, plus y
        times the interval's template column.  Since x_j = c_m + (tl_m / k)
        times the degree-1 row, y_mean x_j is y_mean tl_m / k times that row
        plus a constant, so the mean row folds into the degree-1 dual.  The
        constants, and the template term, are the same on every column of
        the interval and cannot move its argmin; they are dropped.  A weight
        column's c is 0, so the first stage's reduced cost is minus the
        degree-row product alone, whose argmin is the product's argmax, and
        the second stage's is `secondary` minus it, whatever y_opt is.
        Without the constant, the rounding differs from that of the full
        reduced cost, so an exact tie (a reduced cost symmetric about the
        midpoint of two grid points) can break toward the other point; both
        are columns of least reduced cost.
        """
        rows = self._degree_rows
        net = y[rows] - y[rows + 1]
        net[0] += y[self.shape[0] - 1] * self._tl_over_k
        first_stage = y.size == self.shape[0]
        best = np.empty(rows.shape[1], dtype=np.int64)
        first = 0
        for mi, end in enumerate(self._ends[:best.size]):
            dot = net[:, mi] @ self._moments[:, first:end]
            best[mi] = first + (dot.argmax() if first_stage else (self.secondary[first:end] - dot).argmin())
            first = end
        return best


@dataclass
class LPInstance:
    """One histogram's estimator LP: the column source A, shared by every LP
    of its (scheme, k, depth), and what the histogram decides.  Costs, grids
    and sizes are A's; `c` and `k` read A's slack costs and k."""

    A: GridColumns
    b: np.ndarray
    objective_const: float         # tail-residual cost of intervals beyond the cover
    targets: MomentTable

    c = property(lambda lp: lp.A.c)
    k = property(lambda lp: lp.A.k)


@dataclass
class EstimateResult:
    measure: AtomicMeasure
    objective_value: float
    solver_status: str
    targets: MomentTable
    # pricing rounds per stage, the final tableau's column count, pivots,
    # solver status, the simplex's constraint violation max(0, max_i (A x -
    # b)_i) over every row of the full LP, atom count and the implied total
    # probability k * sum(x * w) of the LP atoms; not in to_json
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "atoms": [[float(x), float(w)] for x, w in zip(self.measure.locations, self.measure.weights)],
            "objective": self.objective_value,
            "status": self.solver_status,
            "moments": self.targets.values.tolist(),
            "depth": self.targets.depth,
        }
        return json.dumps(payload, sort_keys=True)


@functools.lru_cache(maxsize=1, typed=True)
def _grid_columns(scheme: IntervalScheme, k: int, depth: int) -> GridColumns:
    """The column source of (scheme, k, depth), kept until an LP of another
    three; the scheme matches by identity, k and depth by type and value."""
    return GridColumns(scheme, k, depth)


def build_lp(targets: MomentTable, scheme: IntervalScheme, k: int) -> LPInstance:
    """Assemble the LP over grid atom weights plus one slack per residual term.

    Interval m (the mi-th included one) owns rows 2(D+1)mi .. 2(D+1)(mi+1)-1:
    a +/- pair per degree 1..D, then a pair for the cumulative mass over
    m' >= m; the mass and mean rows come last.  Its slacks follow the weights
    in the order cumulative, degree 1..D.

    Only b and `objective_const` are built from the targets.  The column
    source A, with the grids and costs, is kept by `_grid_columns` and
    shared by consecutive LPs of the same (scheme object, k, depth).
    """
    depth = targets.depth
    if targets.M != scheme.M:
        raise DomainError("moment table and scheme disagree on interval count")
    A = _grid_columns(scheme, k, depth)
    included = A.m_included

    n_res = (depth + 1) * len(included)
    b = np.zeros(2 * n_res + 2)
    pos_b = b[0:2 * n_res:2]
    cum_targets = np.concatenate([np.cumsum(targets.values[::-1, 0])[::-1], [0.0]])
    for mi, m in enumerate(included):
        i = m - 1
        tl = float(scheme.tilde_len[i])
        r = mi * (depth + 1)
        for d in range(1, depth + 1):
            pos_b[r + d - 1] = targets.value(m, d) / tl**d
        pos_b[r + depth] = float(cum_targets[i])
    np.negative(pos_b, out=b[1:2 * n_res:2])
    b[2 * n_res] = 1.0
    b[2 * n_res + 1] = 1.0 / k

    const = 0.0
    for m in range(included[-1] + 1, scheme.M + 1):
        const += float(scheme.tilde_len[m - 1]) * abs(float(cum_targets[m - 1]))

    return LPInstance(A=A, b=b, objective_const=const, targets=targets)


def solve_lp(lp: LPInstance) -> EstimateResult:
    """Solve to the optimal vertex of least next moment (the module docstring
    says which); returns the measure before zero-completion."""
    res = simplex_solve(lp.c, lp.A, lp.b, secondary=lp.A.secondary, start=lp.A.start, price=lp.A.price)
    w = res.x[:lp.A.n_weights]
    keep = w > _WEIGHT_EPS
    measure = AtomicMeasure(lp.A.points[keep], w[keep])
    return EstimateResult(
        measure=measure,
        objective_value=res.objective + lp.objective_const,
        solver_status=res.status,
        targets=lp.targets,
        diagnostics={
            "rounds": list(res.rounds),
            "columns": res.columns,
            "pivots": res.pivots,
            "status": res.status,
            "violation": res.violation,
            "atoms": int(measure.locations.size),
            "implied_total_probability": lp.k * float(measure.locations @ measure.weights),
        },
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
        damp = half_sample_landing_prob(p.masses[sel], scheme, m)
        out.append(AtomicMeasure(p.masses[sel], damp / k))
    return out


def estimate_sorted_distribution(
    h: Histogram,
    k: int,
    scheme: IntervalScheme,
    c2: float = DEFAULT_C2,
) -> EstimateResult:
    """End-to-end estimate of the sorted mass multiset from a histogram.

    Estimates all smoothed local moments, solves the coupled LP, and returns
    the minimizer completed to a probability measure by a point mass at 0.
    The scheme's n is the nominal sampling rate; pass it explicitly when the
    histogram total is Poissonized.
    """
    depth = degree_for(scheme.n, c2)
    targets = moment_table_estimate(h, scheme, depth, clamped=True)
    partial = solve_lp(build_lp(targets, scheme, k))
    mu0 = partial.measure
    leftover = max(0.0, 1.0 - mu0.total_mass)
    return replace(partial, measure=(mu0 + AtomicMeasure.dirac(0.0, leftover)).pruned())
