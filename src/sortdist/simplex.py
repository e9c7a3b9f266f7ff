"""Dense two-phase simplex.

Solves min c.x subject to A x <= b, x >= 0.  One pivoting path: Dantzig
pricing with ratio ties broken toward the numerically largest pivot, and
Bland's smallest-index rule once the objective stalls, which prevents
cycling.  Every choice is a deterministic function of the instance, so the
returned vertex is too.  Not a general-purpose LP library: dense tableau,
no presolve, sized for a few hundred rows.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    # "optimal"; "unbounded" (objective -inf); "infeasible" (objective +inf);
    # "iteration_cap"; or "degenerate": the final vertex violates the original
    # constraints, i.e. tableau drift corrupted it
    status: str
    pivots: int


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    basis[row] = col


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


def simplex_solve(c: np.ndarray, A: np.ndarray, b: np.ndarray) -> SimplexResult:
    """Solve, then verify an optimal vertex against the original constraints;
    one that violates them is reported with status "degenerate"."""
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    res = _solve_scaled(c, A, b)
    if res.status == "optimal":
        violation = float((A @ res.x - b).max(initial=0.0))
        if violation > 1e-6 * (1.0 + np.abs(b).max(initial=0.0)):
            res.status = "degenerate"
    return res


def _solve_scaled(c: np.ndarray, A: np.ndarray, b: np.ndarray) -> SimplexResult:
    b = b.copy()
    m, n = A.shape

    # equilibrate rows then columns so the fixed pivot tolerances are
    # meaningful regardless of the caller's units
    row_scale = np.abs(A).max(axis=1)
    row_scale[row_scale == 0.0] = 1.0
    A = A / row_scale[:, None]
    b = b / row_scale
    col_scale = np.abs(A).max(axis=0)
    col_scale[col_scale == 0.0] = 1.0
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
            return SimplexResult(np.zeros(n), np.inf, status, total_pivots)
        # drive leftover artificial variables out of the basis
        for r in range(m):
            if basis[r] >= ncols:
                cand = np.where(np.abs(T[r, :ncols]) > _TOL)[0]
                if cand.size:
                    _pivot(T, basis, r, int(cand[0]))
                    total_pivots += 1
        keep = [i for i in range(m) if basis[i] < ncols]
        rows = keep + [m]
        T = T[rows][:, list(range(ncols)) + [-1]]
        basis = basis[keep]
        m_eff = len(keep)
    else:
        T = np.zeros((m + 1, ncols + 1))
        T[:-1, :-1] = full
        T[:-1, -1] = b
        m_eff = m

    # phase 2: install the real objective, reduced against the current basis
    T[-1, :] = 0.0
    T[-1, :n] = c_scaled
    for i in range(m_eff):
        if T[-1, basis[i]] != 0.0:
            T[-1] -= T[-1, basis[i]] * T[i]
    status, piv = _run_phase(T, basis, ncols)
    total_pivots += piv

    x = np.zeros(ncols)
    x[basis] = T[:-1, -1]
    x = np.maximum(x[:n], 0.0) / col_scale
    objective = -np.inf if status == "unbounded" else float(c @ x)
    return SimplexResult(x, objective, status, total_pivots)
