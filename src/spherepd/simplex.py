"""Self-contained dense two-phase revised simplex solver.

Solves  min c.x  subject to  a_ub.x <= b_ub,  a_eq.x = b_eq,  x >= 0.
The standard-form matrix is built once; each pivot keeps only the
explicit basis inverse B^-1 and the basic values x_B.  Every column is
priced with one product, (c_B B^-1) a - c, the entering column is
B^-1 a_q, and the pivot is one rank-1 elimination on [B^-1 | x_B].
Phase 1 drives artificial variables out of the basis when the slack
basis is not feasible; phase 2 optimizes the original objective.
Dantzig pricing with a switch to Bland's rule guards against cycling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LpResult", "solve_lp"]

_TOL = 1e-9


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded" | "iteration limit"
    x: np.ndarray | None
    objective: float | None
    duals_ub: np.ndarray | None
    duals_eq: np.ndarray | None
    iterations: int


def _pivot(bx: np.ndarray, d: np.ndarray, basis: np.ndarray, row: int, col: int):
    """Column col enters at row; d = B^-1 a_col, bx = [B^-1 | x_B]."""
    pivot_row = bx[row] / d[row]
    bx -= np.outer(d, pivot_row)
    bx[row] = pivot_row
    basis[row] = col


def _iterate(
    a: np.ndarray,
    cost: np.ndarray,
    bx: np.ndarray,
    basis: np.ndarray,
    ncols: int,
    maxiter: int,
) -> tuple[str, int]:
    """Runs pivots until optimality; only the first ncols columns may enter."""
    it = 0
    bland_after = max(200, 10 * a.shape[0])
    while it < maxiter:
        cand = (cost[basis] @ bx[:, :-1]) @ a[:, :ncols] - cost[:ncols]  # z_j - c_j
        cand[basis[basis < ncols]] = 0.0
        if it < bland_after:
            col = int(np.argmax(cand))
            if cand[col] <= _TOL:
                return "optimal", it
        else:  # Bland: first improving column
            pos = np.flatnonzero(cand > _TOL)
            if pos.size == 0:
                return "optimal", it
            col = int(pos[0])
        d = bx[:, :-1] @ a[:, col]
        ratios = np.full(a.shape[0], np.inf)
        positive = d > _TOL
        ratios[positive] = bx[positive, -1] / d[positive]
        row = int(np.argmin(ratios))
        if not np.isfinite(ratios[row]):
            return "unbounded", it
        if it >= bland_after:  # smallest basis index among ties
            tie = np.flatnonzero(np.isclose(ratios, ratios[row], rtol=0, atol=1e-12))
            row = int(tie[np.argmin(basis[tie])])
        _pivot(bx, d, basis, row, col)
        it += 1
    return "iteration limit", it


def solve_lp(
    c,
    a_ub=None,
    b_ub=None,
    a_eq=None,
    b_eq=None,
    maxiter: int = 50_000,
) -> LpResult:
    c = np.asarray(c, dtype=float).reshape(-1)
    nvar = c.size
    a_ub = np.zeros((0, nvar)) if a_ub is None else np.atleast_2d(np.asarray(a_ub, float))
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, float).reshape(-1)
    a_eq = np.zeros((0, nvar)) if a_eq is None else np.atleast_2d(np.asarray(a_eq, float))
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, float).reshape(-1)
    n_ub, n_eq = a_ub.shape[0], a_eq.shape[0]
    nrows = n_ub + n_eq
    if nrows == 0:
        if np.all(c >= -_TOL):
            return LpResult("optimal", np.zeros(nvar), 0.0, np.zeros(0), np.zeros(0), 0)
        return LpResult("unbounded", None, None, None, None, 0)

    # standard form in one array: structural columns, a slack for every
    # <= row, then artificials for every flipped <= row (its slack is now
    # -1) and every eq row; rows with b < 0 are sign-flipped first
    b = np.concatenate([b_ub, b_eq])
    flipped = b < 0
    need_art = np.concatenate([flipped[:n_ub], np.ones(n_eq, dtype=bool)])
    art_rows = np.flatnonzero(need_art)
    nstruct = nvar + n_ub
    ncols = nstruct + art_rows.size
    a = np.zeros((nrows, ncols))
    a[:n_ub, :nvar] = a_ub
    a[n_ub:, :nvar] = a_eq
    a[np.arange(n_ub), nvar + np.arange(n_ub)] = 1.0
    a[flipped] *= -1.0
    b[flipped] *= -1.0
    a[art_rows, nstruct + np.arange(art_rows.size)] = 1.0

    basis = np.empty(nrows, dtype=int)
    basis[~need_art] = nvar + np.flatnonzero(~need_art[:n_ub])  # clean slack rows
    basis[art_rows] = nstruct + np.arange(art_rows.size)
    bx = np.zeros((nrows, nrows + 1))  # [B^-1 | x_B], B = I at the start
    bx[:, :-1] = np.eye(nrows)
    bx[:, -1] = b

    total_it = 0
    if art_rows.size:
        # phase 1: minimize the sum of artificials
        cost1 = np.zeros(ncols)
        cost1[nstruct:] = 1.0
        status, it = _iterate(a, cost1, bx, basis, ncols, maxiter)
        total_it += it
        if status != "optimal":
            return LpResult(status, None, None, None, None, total_it)
        if cost1[basis] @ bx[:, -1] > 1e-7 * max(1.0, np.max(np.abs(b))):
            return LpResult("infeasible", None, None, None, None, total_it)
        # kick residual artificials out of the basis where possible
        for row in np.flatnonzero(basis >= nstruct):
            cols = np.flatnonzero(np.abs(bx[row, :-1] @ a[:, :nstruct]) > _TOL)
            if cols.size:
                _pivot(bx, bx[:, :-1] @ a[:, cols[0]], basis, int(row), int(cols[0]))

    # phase 2: artificials never enter
    cost2 = np.zeros(ncols)
    cost2[:nvar] = c
    status, it = _iterate(a, cost2, bx, basis, nstruct, maxiter)
    total_it += it
    if status != "optimal":
        return LpResult(status, None, None, None, None, total_it)

    x = np.zeros(ncols)
    x[basis] = bx[:, -1]
    # duals from the final basis: solve B^T y = c_B, then undo the row flips
    try:
        y = np.linalg.solve(a[:, basis].T, cost2[basis])
    except np.linalg.LinAlgError:
        y = np.full(nrows, np.nan)
    y[flipped] *= -1.0
    return LpResult(
        status="optimal",
        x=x[:nvar],
        objective=float(cost2[:nvar] @ x[:nvar]),
        duals_ub=y[:n_ub],
        duals_eq=y[n_ub:],
        iterations=total_it,
    )
