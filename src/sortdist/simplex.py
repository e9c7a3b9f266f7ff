"""Dense two-phase simplex.

Solves min c.x subject to A x <= b, x >= 0.  One pivoting path: Dantzig
pricing with ratio ties broken toward the numerically largest pivot, and
Bland's smallest-index rule once the objective stalls, which prevents
cycling.  Every choice is a deterministic function of the instance, so the
returned vertex is too.  Not a general-purpose LP library: dense tableau,
no presolve, sized for a few hundred rows.

The whole solve keeps one tableau.  Phase 1 finds a feasible basis, and
phase 2 pivots on the cost from there.  Given a pricing oracle, the tableau
starts from a subset of the columns of A and grows by column generation
(Gilmore-Gomory): after each round of pivoting the oracle turns the row
duals into candidate columns, and every candidate whose reduced cost is
below -_TOL is appended and pivoting resumes from the current basis.  The
slack columns hold B^-1, so a new column's tableau entries are those
columns times its equilibrated column of A; columns that never price out
never enter.  Without an oracle every column is there from the start.

An optional secondary cost picks one point of the optimal face when it holds
more than one vertex.  A second stage appends the row c.x <= opt to the same
tableau, written against the basis with its slack basic at 0, installs the
secondary cost and runs the same pivoting path (and pricing rounds); the
primary objective does not move.  Pivoting drifts, so the returned vertex is
recomputed by solving for the basic values from the equilibrated columns of
the final basis.

The oracle is called as `price(y)` with the row duals y in the caller's
units, read from the tableau's slack columns, whose reduced costs are -y
times the row scale, and it prices against the costs it holds itself.  In
the first stage y has one entry per row of A, and column j's reduced cost is
c_j - y.A_j.  In the second y has one more, last, the dual y_opt of the row
c.x <= opt, and column j's reduced cost is secondary_j - y.A_j - y_opt c_j.
The stage is therefore the length of y, and no full-length cost vector is
built in any round.  The last y of the first stage certifies min c.x:
y <= 0, c - A^T y >= 0 on the columns up to the optimality tolerance, and
b.y is the objective.  Every result reports the violation
max(0, max_i (A x - b)_i) of the x it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable

import numpy as np

__all__ = ["SimplexResult", "simplex_solve"]

_TOL = 1e-9
_RATIO_TIE = 1e-12
_STALL_LIMIT = 64      # stalled pivots before switching to Bland's rule
_PIVOT_CAP = 10**6     # pivots per phase


@dataclass
class SimplexResult:
    x: np.ndarray
    objective: float
    # "optimal"; "unbounded" (objective -inf, or finite when only the
    # secondary cost is unbounded on the optimal face); "infeasible"
    # (objective +inf); "iteration_cap"; or "degenerate": the final vertex
    # violates the original constraints, i.e. tableau drift corrupted it
    status: str
    pivots: int
    # max(0, max_i (A x - b)_i) of the returned x over every row of A
    violation: float
    # rounds of pivoting per stage, each but a stage's last followed by new
    # columns from the pricing oracle; 1 per stage without one
    rounds: tuple[int, ...] = ()
    # columns of A in the final tableau
    columns: int = 0


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    # rows with a zero in the pivot column are unchanged; skip them
    rows = T[:, col].nonzero()[0]
    rows = rows[rows != row]
    T[rows] -= T[rows, col][:, None] * T[row]
    basis[row] = col


def _install_cost(T: np.ndarray, basis: np.ndarray, cost: np.ndarray) -> None:
    """Write `cost` into the objective row, reduced against the basis."""
    T[-1, :] = 0.0
    T[-1, :cost.size] = cost
    for i in range(basis.size):
        if T[-1, basis[i]] != 0.0:
            T[-1] -= T[-1, basis[i]] * T[i]


def _choose_entering(red: np.ndarray, blocked: set[int], bland: bool) -> int:
    if blocked:
        red = red.copy()
        red[list(blocked)] = 0.0
    if bland:
        eligible = (red < -_TOL).nonzero()[0]  # Bland: smallest eligible index
        return int(eligible[0]) if eligible.size else -1
    j = int(red.argmin())
    return j if red[j] < -_TOL else -1


def _run_phase(T: np.ndarray, basis: np.ndarray, ncols: int) -> tuple[str, int]:
    """Dantzig pricing, switching to Bland's rule whenever the objective
    stalls, which guarantees termination on degenerate instances.  In Dantzig
    mode ratio ties resolve to the numerically largest pivot; Bland mode keeps
    the smallest-index rule intact for its anti-cycling property."""
    pivots = 0
    stall = 0
    best_obj = T[-1, -1]
    while True:
        red = T[-1, :ncols]
        bland = stall >= _STALL_LIMIT
        blocked: set[int] = set()
        while True:
            entering = _choose_entering(red, blocked, bland=bland)
            if entering < 0:
                # nothing usefully negative remains (dust columns may have no
                # admissible pivot row); declare the vertex optimal
                return "optimal", pivots
            col = T[:-1, entering]
            ok = (col > _TOL).nonzero()[0]
            if ok.size:
                break
            if red[entering] < -1e-6:
                return "unbounded", pivots
            blocked.add(entering)
        ratios = T[ok, -1] / col[ok]
        ties = ok[ratios <= ratios.min() + _RATIO_TIE]
        if bland:
            row = ties[basis[ties].argmin()]
        else:
            row = ties[col[ties].argmax()]
        _pivot(T, basis, int(row), entering)
        pivots += 1
        # bottom-right holds minus the current objective, so progress raises it
        if T[-1, -1] > best_obj + 1e-13 * (1.0 + abs(best_obj)):
            best_obj = T[-1, -1]
            stall = 0
        else:
            stall += 1
        if pivots >= _PIVOT_CAP:
            return "iteration_cap", pivots


def simplex_solve(
    c: np.ndarray,
    A,
    b: np.ndarray,
    secondary: np.ndarray | None = None,
    start: np.ndarray | None = None,
    price: Callable[[np.ndarray], np.ndarray] | None = None,
) -> SimplexResult:
    """Solve, then verify an optimal vertex against the original constraints;
    one that violates them is reported with status "degenerate".

    `A` is read only through `A.shape` and the column cuts `A[:, J]`, so it
    may be an ndarray or any object that offers those two.

    With `secondary`, the returned vertex minimizes secondary.x over the
    optimal face of min c.x; the pivots of both stages are counted.

    With `price`, the tableau starts from the columns `start`, which must hold
    a feasible point.  `price(y)` gets the row duals after each round of
    pivoting and returns candidate columns; the module docstring says what y
    holds in each stage.  A round that ends short of optimal ends the solve
    with its status.
    """
    c = np.asarray(c, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    cols = np.arange(n) if price is None else np.unique(start)
    # equilibrate rows then columns so the fixed pivot tolerances are
    # meaningful regardless of the caller's units; rows are scaled over the
    # start columns, so later columns leave the scaling alone; cut once
    start_cut = A[:, cols]
    row_scale = _largest(start_cut, axis=1)

    def scaled(J: np.ndarray, cut: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Columns J of the equilibrated system, from their cut A[:, J], and
        their column scales."""
        M = cut / row_scale[:m, None]
        scale = _largest(M, axis=0)
        if row_scale.size > m:  # the lexicographic stage's row c.x <= opt
            M = np.vstack([M, c[J] / row_scale[m]])
        return M / scale, scale

    M, col_scale = scaled(cols, start_cut)
    in_tableau = np.zeros(n, dtype=bool)
    in_tableau[cols] = True
    T, basis, status, pivots = _phase_one(M, b / row_scale)
    if status != "optimal":
        x = np.zeros(n)
        return SimplexResult(x, np.inf, status, pivots, _violation(A, b, x), (1,), cols.size)

    rounds: list[int] = []
    opt = 0.0
    for cost in [c] if secondary is None else [c, np.asarray(secondary, dtype=float)]:
        if rounds:
            # c.x = opt + d.x for the reduced costs d in the objective row,
            # so the row c.x <= opt written against the basis is d.x + s = 0,
            # scaled, with its slack s basic at 0
            opt = -T[-1, -1]
            width = T.shape[1] - 1
            row_scale = np.append(row_scale, np.abs(c[cols] / col_scale).max(initial=0.0) or 1.0)
            row = np.append(T[-1, :-1] / row_scale[m], [1.0, 0.0])
            T = np.concatenate([T[:, :-1], np.zeros((m + 1, 1)), T[:, -1:]], axis=1)
            T = np.concatenate([T[:m], row[None], T[m:]])
            basis = np.append(basis, width)
        _install_cost(T, basis, cost[cols] / col_scale)
        rounds.append(0)
        while True:
            rounds[-1] += 1
            status, piv = _run_phase(T, basis, T.shape[1] - 1)
            pivots += piv
            if price is None or status != "optimal":
                break
            # the slack columns hold B^-1, and their reduced costs are minus
            # the scaled row duals
            slack = slice(cols.size, T.shape[1] - 1)
            cand = np.unique(price(-T[-1, slack] / row_scale))
            cand = cand[~in_tableau[cand]]
            M, scale = scaled(cand, A[:, cand])
            new = T[:, slack] @ M
            new[-1] += cost[cand] / scale
            enter = new[-1] < -_TOL
            if not enter.any():
                break
            cand = cand[enter]
            in_tableau[cand] = True
            T = np.concatenate([T[:, :cols.size], new[:, enter], T[:, cols.size:]], axis=1)
            basis[basis >= cols.size] += cand.size
            cols = np.concatenate([cols, cand])
            col_scale = np.concatenate([col_scale, scale[enter]])
        if status != "optimal":
            break

    # a warm tableau drifts, so the vertex is recomputed from the basis columns
    structural = basis < cols.size
    B = np.zeros((basis.size, basis.size))
    basic = cols[basis[structural]]
    B[:, structural], scale = scaled(basic, A[:, basic])
    B[basis[~structural] - cols.size, np.flatnonzero(~structural)] = 1.0
    values = np.linalg.solve(B, np.append(b / row_scale[:m], opt / row_scale[m:]))
    x = np.zeros(n)
    x[basic] = np.maximum(values[structural], 0.0) / scale
    # only an unbounded first stage makes the objective unbounded
    objective = -np.inf if status == "unbounded" and len(rounds) == 1 else float(c @ x)
    violation = _violation(A, b, x)
    if status == "optimal" and violation > 1e-6 * (1.0 + np.abs(b).max(initial=0.0)):
        status = "degenerate"
    return SimplexResult(x, objective, status, pivots, violation, tuple(rounds), cols.size)


def _violation(A, b: np.ndarray, x: np.ndarray) -> float:
    """max(0, max_i (A x - b)_i), multiplying only the nonzero entries of x."""
    support = np.flatnonzero(x)
    return max(0.0, float((A[:, support] @ x[support] - b).max(initial=0.0)))


def _largest(M: np.ndarray, axis: int) -> np.ndarray:
    """Largest |entry| along `axis`; 1 for a line of zeros."""
    out = np.abs(M).max(axis=axis, initial=0.0)
    out[out == 0.0] = 1.0
    return out


def _phase_one(M: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray, str, int]:
    """The tableau [M | I | rhs] at a feasible basis, with no objective yet.

    Rows with negative rhs are negated and receive an artificial variable for
    the phase-1 basis; phase 1 drives the artificials to zero and then out of
    the basis.  Returns the tableau, its basis, a status and the pivots.
    """
    m, n = M.shape
    ncols = n + m
    art_rows = np.flatnonzero(rhs < 0)
    n_art = art_rows.size
    T = np.zeros((m + 1, ncols + n_art + 1))
    T[:-1, :n] = M
    T[:-1, n:ncols] = np.eye(m)
    T[:-1, -1] = rhs
    T[art_rows, :ncols] *= -1.0
    T[art_rows, -1] *= -1.0
    T[art_rows, ncols + np.arange(n_art)] = 1.0
    basis = n + np.arange(m)
    basis[art_rows] = ncols + np.arange(n_art)
    if not n_art:
        return T, basis, "optimal", 0
    T[-1, ncols:-1] = 1.0
    for r in art_rows:
        T[-1] -= T[r]
    status, pivots = _run_phase(T, basis, ncols + n_art)
    # feasibility is decided by the artificial objective alone; leftover
    # reduced-cost dust after it reaches zero is not a failure
    if T[-1, -1] < -1e-7:
        return T, basis, "iteration_cap" if status == "iteration_cap" else "infeasible", pivots
    # drive leftover artificials out of the basis.  Row r's slack columns hold
    # row r of B^-1, whose largest |entry| is at least 1/m since the basis
    # columns have entries of at most 1, so the row has a pivot
    for r in np.flatnonzero(basis >= ncols):
        _pivot(T, basis, r, int(np.flatnonzero(np.abs(T[r, :ncols]) > _TOL)[0]))
        pivots += 1
    # the cut leaves T in Fortran order, and the products of the next round
    # round by the layout of their operands, so it is kept
    return T[:, np.r_[:ncols, -1]], basis, "optimal", pivots
