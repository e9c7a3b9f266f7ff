"""Dense two-phase simplex.

Solves min c.x subject to A x <= b, x >= 0.  One pivoting path: Dantzig
pricing with ratio ties broken toward the numerically largest pivot, and
Bland's smallest-index rule once the objective stalls, which prevents
cycling.  Every choice is a deterministic function of the instance, so the
returned vertex is too.  Not a general-purpose LP library: dense tableau,
no presolve, sized for a few hundred rows.

An optional secondary cost picks one point of the optimal face when it holds
more than one vertex.  A second stage warm-starts from the phase-2 tableau,
keeps only the columns whose reduced cost is at most the optimality
tolerance (the others must stay at zero on the face), installs the
secondary cost reduced against the basis, and runs the same pivoting path;
the primary objective does not move.

Every optimal solve without a secondary cost also returns the row duals y
(`SimplexResult.duals`) in the caller's units: y <= 0, c - A^T y >= 0 on
the columns up to the optimality tolerance, and b.y is the objective.  They
are read from the final tableau's slack columns, whose reduced costs are
-y times the row scale; a row dropped as redundant after phase 1 has price 0.

Given a pricing oracle, the LP is solved by column generation
(Gilmore-Gomory): each restricted master, holding a subset of the columns
of A, is solved cold by `simplex_solve` itself, and the oracle turns the
master's duals into candidate columns.  A candidate joins when its reduced
cost, scaled like the master's tableau, is below -_TOL; a stage ends when a
round adds none.  A secondary cost gets a second loop on the master with the
row c.x <= opt appended, so the full A is never put in a tableau.
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
    # row duals in the caller's units; None unless optimal without a
    # secondary cost
    duals: np.ndarray | None = None
    # master solves per column-generation stage; () for a direct solve
    rounds: tuple[int, ...] = ()
    # columns in the final tableau: the last master's under column generation
    columns: int = 0


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    # rows with a zero in the pivot column are unchanged; skip them
    rows = np.flatnonzero(T[:, col])
    rows = rows[rows != row]
    T[rows] -= np.outer(T[rows, col], T[row])
    basis[row] = col


def _install_cost(T: np.ndarray, basis: np.ndarray, cost: np.ndarray) -> None:
    """Write `cost` into the objective row, reduced against the basis."""
    T[-1, :] = 0.0
    T[-1, :cost.size] = cost
    for i in range(basis.size):
        if T[-1, basis[i]] != 0.0:
            T[-1] -= T[-1, basis[i]] * T[i]


def _choose_entering(red: np.ndarray, blocked: set[int], bland: bool) -> int:
    if bland:
        for j in range(red.size):  # Bland: smallest eligible index
            if red[j] < -_TOL and j not in blocked:
                return j
        return -1
    masked = red.copy()
    if blocked:
        masked[list(blocked)] = 0.0
    j = int(np.argmin(masked))
    return j if masked[j] < -_TOL else -1


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
            ok = col > _TOL
            if np.any(ok):
                break
            if red[entering] < -1e-6:
                return "unbounded", pivots
            blocked.add(entering)
        rhs = T[:-1, -1]
        ratios = np.where(ok, rhs / np.where(ok, col, 1.0), np.inf)
        ties = np.where(ratios <= ratios.min() + _RATIO_TIE)[0]
        if bland:
            row = ties[np.argmin(basis[ties])]
        else:
            row = ties[np.argmax(col[ties])]
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
    A: np.ndarray,
    b: np.ndarray,
    secondary: np.ndarray | None = None,
    start: np.ndarray | None = None,
    price: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> SimplexResult:
    """Solve, then verify an optimal vertex against the original constraints;
    one that violates them is reported with status "degenerate".

    With `secondary`, the returned vertex minimizes secondary.x over the
    optimal face of min c.x; the pivots of both stages are counted.

    With `price`, solve by column generation from the columns `start`.
    `price(y, cost)` gets a master's row duals and the cost it minimized,
    with the duals of any appended row folded into that cost, and returns
    candidate columns; `pivots` sums over the masters.  The first master
    that is not optimal ends the solve with its status.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if price is not None:
        return _column_generation(c, A, b, secondary, np.asarray(start), price)
    res = _solve_scaled(c, A, b, secondary)
    if res.status == "optimal":
        violation = float((A @ res.x - b).max(initial=0.0))
        if violation > 1e-6 * (1.0 + np.abs(b).max(initial=0.0)):
            res.status = "degenerate"
            res.duals = None
    return res


def _column_generation(
    c: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    secondary: np.ndarray | None,
    start: np.ndarray,
    price: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> SimplexResult:
    first, cols, rounds, pivots = _generate(c, A, b, np.unique(start), price)
    res, stages = first, (rounds,)
    if secondary is not None and first.status == "optimal":
        # the optimal face of min c.x is the master's feasible set once
        # c.x <= opt is appended; no column of the face is dropped
        cap = (c, first.objective)
        res, cols, rounds, more = _generate(np.asarray(secondary, dtype=float), A, b, cols, price, cap)
        stages += (rounds,)
        pivots += more
    x = np.zeros(A.shape[1])
    x[cols] = res.x
    objective = float(c @ x) if first.status == "optimal" else first.objective
    duals = first.duals if secondary is None else None
    return SimplexResult(x, objective, res.status, pivots, duals, stages, cols.size)


def _generate(
    cost: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    cols: np.ndarray,
    price: Callable[[np.ndarray, np.ndarray], np.ndarray],
    cap: tuple[np.ndarray, float] | None = None,
) -> tuple[SimplexResult, np.ndarray, int, int]:
    """Column generation on min cost.x s.t. A x <= b, x >= 0, plus the row
    cap[0].x <= cap[1] when `cap` is given.  Returns the last master's
    result, its columns, the number of masters solved and their pivots."""
    m = A.shape[0]
    rhs = b if cap is None else np.append(b, cap[1])

    def block(idx: np.ndarray) -> np.ndarray:
        return A[:, idx] if cap is None else np.vstack([A[:, idx], cap[0][idx]])

    rounds = pivots = 0
    while True:
        master = block(cols)
        res = simplex_solve(cost[cols], master, rhs)
        rounds += 1
        pivots += res.pivots
        if res.status != "optimal":
            return res, cols, rounds, pivots
        y = res.duals
        folded = cost if cap is None else cost - y[m] * cap[0]
        cand = np.setdiff1d(price(y[:m], folded), cols)
        # reduced costs in the units of the master's tableau: rows scaled
        # by their largest entry, then each column by its largest entry
        entries = block(cand)
        col_scale = _largest(entries / _largest(master, axis=1)[:, None], axis=0)
        cand = cand[(cost[cand] - y @ entries) / col_scale < -_TOL]
        if not cand.size:
            return res, cols, rounds, pivots
        cols = np.union1d(cols, cand)


def _largest(M: np.ndarray, axis: int) -> np.ndarray:
    """Largest |entry| along `axis`; 1 for a line of zeros."""
    out = np.abs(M).max(axis=axis, initial=0.0)
    out[out == 0.0] = 1.0
    return out


def _solve_scaled(
    c: np.ndarray, A: np.ndarray, b: np.ndarray, secondary: np.ndarray | None
) -> SimplexResult:
    b = b.copy()
    m, n = A.shape

    # equilibrate rows then columns so the fixed pivot tolerances are
    # meaningful regardless of the caller's units
    row_scale = _largest(A, axis=1)
    A = A / row_scale[:, None]
    b = b / row_scale
    col_scale = _largest(A, axis=0)
    A = A / col_scale[None, :]
    c_scaled = c / col_scale

    # A x + s = b with slack per row; rows with negative rhs are negated and
    # receive an artificial variable for the phase-1 basis.
    full = np.hstack([A, np.eye(m)])
    neg = b < 0
    full[neg] *= -1.0
    b[neg] *= -1.0
    art_rows = np.where(neg)[0]
    n_art = art_rows.size
    ncols = n + m
    if n_art:
        art_block = np.zeros((m, n_art))
        for idx, r in enumerate(art_rows):
            art_block[r, idx] = 1.0
        full = np.hstack([full, art_block])

    basis = np.empty(m, dtype=np.int64)
    for i in range(m):
        basis[i] = ncols + np.searchsorted(art_rows, i) if neg[i] else n + i

    total_pivots = 0
    if n_art:
        T = np.zeros((m + 1, full.shape[1] + 1))
        T[:-1, :-1] = full
        T[:-1, -1] = b
        T[-1, ncols:-1] = 1.0
        for idx, r in enumerate(art_rows):
            T[-1] -= T[r]
        status, piv = _run_phase(T, basis, full.shape[1])
        total_pivots += piv
        # feasibility is decided by the artificial objective alone; leftover
        # reduced-cost dust after it reaches zero is not a failure
        if T[-1, -1] < -1e-7:
            status = "iteration_cap" if status == "iteration_cap" else "infeasible"
            return SimplexResult(np.zeros(n), np.inf, status, total_pivots, columns=n)
        # drive leftover artificial variables out of the basis
        for r in range(m):
            if basis[r] >= ncols:
                cand = np.where(np.abs(T[r, :ncols]) > _TOL)[0]
                if cand.size:
                    _pivot(T, basis, r, int(cand[0]))
                    total_pivots += 1
        kept = np.flatnonzero(basis < ncols)
        T = T[np.append(kept, m)][:, list(range(ncols)) + [-1]]
        basis = basis[kept]
    else:
        kept = np.arange(m)
        T = np.zeros((m + 1, ncols + 1))
        T[:-1, :-1] = full
        T[:-1, -1] = b

    # phase 2: install the real objective, reduced against the current basis
    _install_cost(T, basis, c_scaled)
    status, piv = _run_phase(T, basis, ncols)
    total_pivots += piv
    primary_unbounded = status == "unbounded"
    duals = None
    if secondary is None and status == "optimal":
        # a slack's reduced cost is minus its row's scaled dual
        duals = np.zeros(m)
        duals[kept] = -T[-1, n + kept] / row_scale[kept]

    cols = np.arange(ncols)
    if secondary is not None and status == "optimal":
        # second stage over the optimal face: a column with positive reduced
        # cost is zero at every optimum, so only the others may enter
        face = T[-1, :ncols] <= _TOL
        face[basis] = True
        cols = np.flatnonzero(face)
        position = np.full(ncols, -1, dtype=np.int64)
        position[cols] = np.arange(cols.size)
        T = T[:, np.append(cols, ncols)]
        basis = position[basis]
        structural = cols[cols < n]
        cost = np.asarray(secondary, dtype=float)[structural] / col_scale[structural]
        _install_cost(T, basis, cost)
        status, piv = _run_phase(T, basis, cols.size)
        total_pivots += piv

    x = np.zeros(ncols)
    x[cols[basis]] = T[:-1, -1]
    x = np.maximum(x[:n], 0.0) / col_scale
    objective = -np.inf if primary_unbounded else float(c @ x)
    return SimplexResult(x, objective, status, total_pivots, duals, (), n)
