"""Self-contained dense revised simplex solver for slack-feasible LPs.

Solves  min c.x  subject to  a_ub.x <= b_ub,  x >= 0,  with b_ub >= 0, so
the slack basis is feasible and the solve is one phase from it.  The
standard-form matrix is built once; each pivot keeps only the explicit
basis inverse B^-1 and the basic values x_B.  Every column is priced with
one product, (c_B B^-1) a - c, the entering column is B^-1 a_q, and the
pivot is one rank-1 elimination on [B^-1 | x_B].  The pivot loop
allocates its buffers once and keeps c_B with the basis, so a pivot
allocates no array storage, apart from the short tie list of Bland's rule.
Pricing is Dantzig's rule.  Only while the simplex stalls, after
_STALL_PIVOTS degenerate pivots in a row, does Bland's rule choose both
the entering and the leaving column, which cannot cycle (Bland 1977);
the first nondegenerate pivot returns to Dantzig's rule.  The objective
improves strictly on every nondegenerate pivot, so a cycle could only
lie inside a degenerate run, and the solver terminates; it stops anyway
after _MAX_PIVOTS pivots.
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
_MAX_PIVOTS = 50_000


@dataclass
class LpResult:
    # "optimal" | "unbounded" | "iteration limit" | "numerical" (the final
    # basis violates a_ub.x <= b_ub or x >= 0, or is singular)
    status: str
    x: np.ndarray | None
    objective: float | None
    duals_ub: np.ndarray | None
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
    a: np.ndarray, cost: np.ndarray, bx: np.ndarray, basis: np.ndarray
) -> tuple[str, int]:
    """Runs pivots until optimality, or for at most _MAX_PIVOTS pivots.

    Every buffer is allocated once per call, and the basic costs c_B are
    updated with the basis.  stall counts the degenerate pivots in a row.
    """
    nrows, ncols = a.shape
    binv, x_b = bx[:, :-1], bx[:, -1]
    c_b = cost[basis]
    y = np.empty(nrows)
    reduced = np.empty(ncols)  # z_j - c_j, zero on the basic columns
    improving = np.empty(ncols, dtype=bool)
    d = np.empty(nrows)
    positive = np.empty(nrows, dtype=bool)
    ratios = np.empty(nrows)
    work = np.empty((nrows + 1, nrows + 1))
    it = stall = 0
    while it < _MAX_PIVOTS:
        np.matmul(np.matmul(c_b, binv, out=y), a, out=reduced)
        reduced -= cost
        reduced[basis] = 0.0
        bland = stall >= _STALL_PIVOTS
        if not bland:
            col = int(reduced.argmax())
            if reduced[col] <= _TOL:
                return "optimal", it
        else:  # Bland: first improving column
            col = int(np.greater(reduced, _TOL, out=improving).argmax())
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


def solve_lp(c, a_ub, b_ub) -> LpResult:
    """min c.x subject to a_ub.x <= b_ub and x >= 0, where b_ub >= 0."""
    c = np.asarray(c, dtype=float).reshape(-1)
    a_ub = np.atleast_2d(np.asarray(a_ub, dtype=float))
    b_ub = np.asarray(b_ub, dtype=float).reshape(-1)
    nvar, nrows = c.size, b_ub.size
    if nrows == 0:
        raise ValueError("solve_lp needs at least one row in a_ub")
    if a_ub.shape != (nrows, nvar):
        raise ValueError(
            f"a_ub has shape {a_ub.shape}, not (len(b_ub), len(c)) = {(nrows, nvar)}"
        )
    for name, values in (("c", c), ("a_ub", a_ub), ("b_ub", b_ub)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} holds a non-finite entry")
    if (b_ub < 0).any():
        raise ValueError("b_ub holds a negative entry, so the slack basis is not feasible")

    # standard form in one array: structural columns, then a slack for
    # every row, whose columns are the starting basis
    ncols = nvar + nrows
    a = np.zeros((nrows, ncols))
    a[:, :nvar] = a_ub
    a[:, nvar:] = np.eye(nrows)
    basis = nvar + np.arange(nrows)
    bx = np.zeros((nrows, nrows + 1))  # [B^-1 | x_B], B = I at the start
    bx[:, :-1] = np.eye(nrows)
    bx[:, -1] = b_ub
    cost = np.zeros(ncols)
    cost[:nvar] = c
    status, it = _iterate(a, cost, bx, basis)
    if status != "optimal":
        return LpResult(status, None, None, None, it)

    x = np.zeros(ncols)
    x[basis] = bx[:, -1]
    # each row, x >= 0 included, is held to 1e-7 max(1, max|b|) or, where
    # larger, to what rounding may leave in it: the kept B^-1 spreads its
    # error over every entry of x, 1e-10 max|x| is allowed per entry, and
    # row i turns that into at most 1e-10 |a_i|_1 max|x|
    xs = x[:nvar]
    tol = 1e-7 * max(1.0, np.max(np.abs(b_ub)))
    residual = np.concatenate([a_ub @ xs - b_ub, -xs])
    if np.any(residual > tol):
        row_norms = np.concatenate([np.abs(a_ub).sum(axis=1), np.ones(nvar)])
        if np.any(residual > np.maximum(tol, 1e-10 * np.max(np.abs(xs)) * row_norms)):
            return LpResult("numerical", None, None, None, it)
    # duals from the final basis: solve B^T y = c_B
    try:
        y = np.linalg.solve(a[:, basis].T, cost[basis])
    except np.linalg.LinAlgError:  # rounding has left the basis singular
        return LpResult("numerical", None, None, None, it)
    return LpResult(
        status="optimal",
        x=xs,
        objective=float(cost[:nvar] @ xs),
        duals_ub=y,
        iterations=it,
    )
