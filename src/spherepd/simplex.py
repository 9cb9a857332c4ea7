"""Self-contained dense two-phase revised simplex solver.

Solves  min c.x  subject to  a_ub.x <= b_ub,  a_eq.x = b_eq,  x >= 0.
The standard-form matrix is built once; each pivot keeps only the
explicit basis inverse B^-1 and the basic values x_B.  Every column is
priced with one product, (c_B B^-1) a - c, the entering column is
B^-1 a_q, and the pivot is one rank-1 elimination on [B^-1 | x_B].
Each phase allocates its buffers once and keeps c_B with the basis, so
a pivot allocates no array storage, apart from the short tie list of
Bland's rule.
Phase 1 drives artificial variables out of the basis when the slack
basis is not feasible; phase 2 optimizes the original objective.
Pricing is Dantzig's rule.  Only while the simplex stalls, after
_STALL_PIVOTS degenerate pivots in a row, does Bland's rule choose both
the entering and the leaving column, which cannot cycle (Bland 1977);
the first nondegenerate pivot returns to Dantzig's rule.  The objective
improves strictly on every nondegenerate pivot, so a cycle could only
lie inside a degenerate run, and the solver terminates.
The kept B^-1 is never refactorized, so before a basis is reported
optimal its x is checked against the original rows and x >= 0, each
row i within max(1e-7 max(1, max|b|), 1e-10 |a_i|_1 max|x|); a basis
that rounding has carried off them, or left singular, is reported
"numerical", never "optimal".
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

__all__ = ["LpResult", "solve_lp"]

_TOL = 1e-9
# a pivot whose step ratio is at most _DEGENERATE leaves x_B nearly as it was;
# Bland's rule runs while the last _STALL_PIVOTS pivots were all degenerate
_DEGENERATE = 1e-12
_STALL_PIVOTS = 21


@dataclass
class LpResult:
    # "optimal" | "infeasible" | "unbounded" | "iteration limit" | "numerical"
    # (the final basis violates a_ub.x <= b_ub, a_eq.x = b_eq or x >= 0, or
    # is singular)
    status: str
    x: np.ndarray | None
    objective: float | None
    duals_ub: np.ndarray | None
    duals_eq: np.ndarray | None
    iterations: int


def _pivot(bx: np.ndarray, d: np.ndarray, basis: np.ndarray, row: int, col: int, work):
    """Column col enters at row; d = B^-1 a_col, bx = [B^-1 | x_B].

    work is scratch with one row more than bx, so a pivot allocates nothing.
    """
    pivot_row = np.divide(bx[row], d[row], out=work[-1])
    np.multiply(d[:, None], pivot_row, out=work[:-1])
    bx -= work[:-1]
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
    """Runs pivots until optimality; only the first ncols columns may enter.

    Every buffer is allocated once per call, and the basic costs c_B are
    updated with the basis.  stall counts the degenerate pivots in a row.
    """
    nrows = a.shape[0]
    binv, x_b = bx[:, :-1], bx[:, -1]
    a_in, c_in = a[:, :ncols], cost[:ncols]
    c_b = cost[basis]
    y = np.empty(nrows)
    # reduced costs z_j - c_j of the columns that may enter; a basic
    # column past ncols (an artificial left in by phase 1) is zeroed in
    # the tail, which is never read
    priced = np.empty(a.shape[1])
    cand = priced[:ncols]
    improving = np.empty(ncols, dtype=bool)
    d = np.empty(nrows)
    positive = np.empty(nrows, dtype=bool)
    ratios = np.empty(nrows)
    work = np.empty((nrows + 1, nrows + 1))
    it = stall = 0
    while it < maxiter:
        np.matmul(np.matmul(c_b, binv, out=y), a_in, out=cand)
        cand -= c_in
        priced[basis] = 0.0
        bland = stall >= _STALL_PIVOTS
        if not bland:
            col = int(cand.argmax())
            if cand[col] <= _TOL:
                return "optimal", it
        else:  # Bland: first improving column
            col = int(np.greater(cand, _TOL, out=improving).argmax())
            if not improving[col]:
                return "optimal", it
        np.matmul(binv, a[:, col], out=d)
        ratios.fill(np.inf)
        np.divide(x_b, d, out=ratios, where=np.greater(d, _TOL, out=positive))
        row = int(ratios.argmin())
        ratio = ratios[row]
        if not isfinite(ratio):
            return "unbounded", it
        if bland:  # smallest basis index among ties
            tie = np.flatnonzero(np.abs(ratios - ratio) <= 1e-12)
            row = int(tie[basis[tie].argmin()])
        _pivot(bx, d, basis, row, col, work)
        c_b[row] = cost[col]
        stall = stall + 1 if ratio <= _DEGENERATE else 0
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

    tol = 1e-7 * max(1.0, np.max(np.abs(b)))
    total_it = 0
    if art_rows.size:
        # phase 1: minimize the sum of artificials
        cost1 = np.zeros(ncols)
        cost1[nstruct:] = 1.0
        status, it = _iterate(a, cost1, bx, basis, ncols, maxiter)
        total_it += it
        if status != "optimal":
            return LpResult(status, None, None, None, None, total_it)
        if cost1[basis] @ bx[:, -1] > tol:
            return LpResult("infeasible", None, None, None, None, total_it)
        # kick residual artificials out of the basis where possible
        work = np.empty((nrows + 1, nrows + 1))
        for row in np.flatnonzero(basis >= nstruct):
            cols = np.flatnonzero(np.abs(bx[row, :-1] @ a[:, :nstruct]) > _TOL)
            if cols.size:
                _pivot(bx, bx[:, :-1] @ a[:, cols[0]], basis, int(row), int(cols[0]), work)

    # phase 2: artificials never enter
    cost2 = np.zeros(ncols)
    cost2[:nvar] = c
    status, it = _iterate(a, cost2, bx, basis, nstruct, maxiter)
    total_it += it
    if status != "optimal":
        return LpResult(status, None, None, None, None, total_it)

    x = np.zeros(ncols)
    x[basis] = bx[:, -1]
    # each row, x >= 0 included, is held to phase 1's tolerance or, where
    # larger, to what rounding may leave in it: the kept B^-1 spreads its
    # error over every entry of x, 1e-10 max|x| is allowed per entry, and
    # row i turns that into at most 1e-10 |a_i|_1 max|x|
    xs = x[:nvar]
    residual = np.concatenate([a_ub @ xs - b_ub, np.abs(a_eq @ xs - b_eq), -xs])
    if np.any(residual > tol):
        row_norms = np.concatenate([np.abs(a[:, :nvar]).sum(axis=1), np.ones(nvar)])
        if np.any(residual > np.maximum(tol, 1e-10 * np.max(np.abs(xs)) * row_norms)):
            return LpResult("numerical", None, None, None, None, total_it)
    # duals from the final basis: solve B^T y = c_B, then undo the row flips
    try:
        y = np.linalg.solve(a[:, basis].T, cost2[basis])
    except np.linalg.LinAlgError:  # rounding has left the basis singular
        return LpResult("numerical", None, None, None, None, total_it)
    y[flipped] *= -1.0
    return LpResult(
        status="optimal",
        x=x[:nvar],
        objective=float(cost2[:nvar] @ x[:nvar]),
        duals_ub=y[:n_ub],
        duals_eq=y[n_ub:],
        iterations=total_it,
    )
