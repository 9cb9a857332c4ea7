"""Two-phase simplex solver, validated against an independent reference."""

from math import cos, pi

import numpy as np
import pytest

from spherepd import simplex
from spherepd.gegenbauer import _homogeneous_upto
from spherepd.randgen import rng_for
from spherepd.simplex import solve_lp

scipy_opt = pytest.importorskip("scipy.optimize")


def inequality_problem(seed):
    rng = rng_for(0xF00D, seed)
    nvar = int(rng.integers(1, 7))
    nrow = int(rng.integers(1, 9))
    c = rng.standard_normal(nvar)
    a = rng.standard_normal((nrow, nvar))
    b = rng.standard_normal(nrow)
    return dict(c=c, a_ub=a, b_ub=b)


def mixed_problem(seed):
    rng = rng_for(0xBEEF, seed)
    nvar = int(rng.integers(2, 7))
    c = rng.standard_normal(nvar)
    a_ub = rng.standard_normal((3, nvar))
    b_ub = rng.uniform(0.5, 2.0, size=3)
    a_eq = rng.standard_normal((1, nvar))
    b_eq = rng.uniform(-1.0, 1.0, size=1)
    return dict(c=c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)


def redundant_problem(seed):
    # the third equality row is the sum of the first two, so the
    # equality block is rank-deficient and one artificial stays basic
    # at zero after phase 1
    rng = rng_for(0xD0E5, seed)
    nvar = int(rng.integers(3, 7))
    e = rng.standard_normal((2, nvar))
    x0 = rng.uniform(0.1, 1.0, size=nvar)
    a_eq = np.vstack([e, e[0] + e[1]])
    b_eq = a_eq @ x0
    a_ub = rng.standard_normal((2, nvar))
    b_ub = a_ub @ x0 + rng.uniform(0.1, 1.0, size=2)
    c = rng.uniform(0.1, 1.0, size=nvar) * rng.choice([-1.0, 1.0], size=nvar)
    return dict(c=c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)


def grid_problem(n, theta, degree, grid_size=4096):
    """The dual LP that codebounds.delsarte_lp solves."""
    ts = np.linspace(-1.0, cos(theta), grid_size)
    gvals = np.vstack(list(_homogeneous_upto(n, degree, ts, 1.0, 1)))
    return dict(c=-np.ones(grid_size), a_ub=-gvals, b_ub=np.ones(degree))


class TestBasicProblems:
    def test_simple_bounded(self):
        # min -x - y subject to x + y <= 1
        res = solve_lp([-1.0, -1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0])
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-1.0)
        assert res.x.sum() == pytest.approx(1.0)

    def test_equality_constraint(self):
        res = solve_lp([1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[3.0])
        assert res.status == "optimal"
        assert res.x == pytest.approx([3.0, 0.0])

    def test_infeasible(self):
        res = solve_lp([1.0], a_ub=[[1.0], [-1.0]], b_ub=[1.0, -2.0])
        assert res.status == "infeasible"

    def test_unbounded(self):
        res = solve_lp([-1.0], a_ub=[[-1.0]], b_ub=[0.0])
        assert res.status == "unbounded"

    def test_no_constraints(self):
        assert solve_lp([1.0, 0.0]).status == "optimal"
        assert solve_lp([-1.0]).status == "unbounded"

    def test_negative_rhs(self):
        # x >= 2 written as -x <= -2
        res = solve_lp([1.0], a_ub=[[-1.0]], b_ub=[-2.0])
        assert res.status == "optimal"
        assert res.x[0] == pytest.approx(2.0)

    def test_iteration_limit(self):
        # the (24, pi/3, 16) grid LP takes 149 pivots to its optimum
        res = solve_lp(**grid_problem(24, pi / 3, 16), maxiter=5)
        assert res.status == "iteration limit"
        assert res.iterations == 5
        assert res.x is None


class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(60))
    def test_random_inequality_problems(self, seed):
        problem = inequality_problem(seed)
        c, a, b = problem["c"], problem["a_ub"], problem["b_ub"]
        ours = solve_lp(**problem)
        ref = scipy_opt.linprog(c, A_ub=a, b_ub=b, bounds=(0, None), method="highs")
        if ref.status == 0:
            assert ours.status == "optimal"
            assert ours.objective == pytest.approx(ref.fun, abs=1e-7)
            assert np.allclose(ours.duals_ub, ref.ineqlin.marginals, atol=1e-7)
            assert np.all(a @ ours.x <= b + 1e-7)
        elif ref.status == 2:
            assert ours.status == "infeasible"
        elif ref.status == 3:
            assert ours.status == "unbounded"

    @pytest.mark.parametrize("seed", range(20))
    def test_random_mixed_problems(self, seed):
        problem = mixed_problem(seed)
        ours = solve_lp(**problem)
        ref = scipy_opt.linprog(
            problem["c"], A_ub=problem["a_ub"], b_ub=problem["b_ub"],
            A_eq=problem["a_eq"], b_eq=problem["b_eq"], bounds=(0, None), method="highs",
        )
        if ref.status == 0:
            assert ours.status == "optimal"
            assert ours.objective == pytest.approx(ref.fun, abs=1e-7)
        elif ref.status == 2:
            assert ours.status == "infeasible"
        elif ref.status == 3:
            assert ours.status == "unbounded"

    @pytest.mark.parametrize("seed", range(60))
    def test_strong_duality(self, seed):
        # the same problems as test_random_inequality_problems
        problem = inequality_problem(seed)
        ours = solve_lp(**problem)
        if ours.status == "optimal":
            assert abs(problem["c"] @ ours.x - problem["b_ub"] @ ours.duals_ub) <= 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_redundant_equality_rows(self, seed):
        problem = redundant_problem(seed)
        ours = solve_lp(**problem)
        ref = scipy_opt.linprog(
            problem["c"], A_ub=problem["a_ub"], b_ub=problem["b_ub"],
            A_eq=problem["a_eq"], b_eq=problem["b_eq"], bounds=(0, None), method="highs",
        )
        assert ref.status in (0, 3)
        if ref.status == 0:
            assert ours.status == "optimal"
            assert ours.objective == pytest.approx(ref.fun, abs=1e-7)
            assert np.allclose(problem["a_eq"] @ ours.x, problem["b_eq"], atol=1e-7)
        else:
            assert ours.status == "unbounded"

    @pytest.mark.parametrize(
        "a_ub, b_ub, a_eq, b_eq",
        [
            (None, None, [[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0]),  # inconsistent rows
            (None, None, [[1.0, 1.0]], [-1.0]),  # needs x < 0
            ([[1.0, 0.0]], [2.0], [[1.0, -1.0], [0.0, 1.0]], [2.0, 1.0]),  # x = (3, 1)
        ],
    )
    def test_infeasible_with_equality_rows(self, a_ub, b_ub, a_eq, b_eq):
        c = [1.0, 1.0]
        ref = scipy_opt.linprog(
            c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
            bounds=(0, None), method="highs",
        )
        assert ref.status == 2
        ours = solve_lp(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
        assert ours.status == "infeasible"

    def test_duals_satisfy_complementary_slackness(self):
        rng = rng_for(0xCAFE, 1)
        c = rng.uniform(0.5, 2.0, size=5)
        a = rng.standard_normal((6, 5))
        b = rng.uniform(0.5, 2.0, size=6)
        res = solve_lp(-c, a_ub=a, b_ub=b)
        assert res.status == "optimal"
        slack = b - a @ res.x
        assert np.max(np.abs(res.duals_ub * slack)) < 1e-7


# The pivot loop as it stood before it kept its buffers across pivots,
# copied word for word (only the names carry a _ref prefix).  The loop that
# replaced it is meant to do the same floating-point operations in the same
# order, so solve_lp must give the same pivots and the same bits with either.
_TOL = 1e-9


def _ref_pivot(bx: np.ndarray, d: np.ndarray, basis: np.ndarray, row: int, col: int):
    """Column col enters at row; d = B^-1 a_col, bx = [B^-1 | x_B]."""
    pivot_row = bx[row] / d[row]
    bx -= np.outer(d, pivot_row)
    bx[row] = pivot_row
    basis[row] = col


def _ref_iterate(
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
        _ref_pivot(bx, d, basis, row, col)
        it += 1
    return "iteration limit", it


def _solve_with_basis(monkeypatch, problem, reference):
    """solve_lp's result and its final basis, run by the reference loop if
    reference is true and by the solver's own loop otherwise."""
    iterate = _ref_iterate if reference else simplex._iterate
    bases = []

    def recording(a, cost, bx, basis, ncols, maxiter):
        bases.append(basis)  # updated in place to the end of the solve
        return iterate(a, cost, bx, basis, ncols, maxiter)

    with monkeypatch.context() as mp:
        mp.setattr(simplex, "_iterate", recording)
        if reference:  # the pivots that drive artificials out after phase 1
            mp.setattr(simplex, "_pivot", lambda bx, d, basis, row, col, work:
                       _ref_pivot(bx, d, basis, row, col))
        res = simplex.solve_lp(**problem)
    return res, bases[-1]


def _bits(value):
    return None if value is None else np.asarray(value, dtype=float).tobytes()


class TestSamePivotsAsReference:
    def check(self, monkeypatch, problem):
        ours, our_basis = _solve_with_basis(monkeypatch, problem, reference=False)
        ref, ref_basis = _solve_with_basis(monkeypatch, problem, reference=True)
        assert ours.status == ref.status
        assert ours.iterations == ref.iterations
        for field in ("x", "duals_ub", "duals_eq", "objective"):
            assert _bits(getattr(ours, field)) == _bits(getattr(ref, field)), field
        assert our_basis.tobytes() == ref_basis.tobytes()
        return ours

    @pytest.mark.parametrize("seed", range(60))
    def test_random_inequality_problems(self, monkeypatch, seed):
        self.check(monkeypatch, inequality_problem(seed))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_mixed_problems(self, monkeypatch, seed):
        self.check(monkeypatch, mixed_problem(seed))

    @pytest.mark.parametrize("seed", range(10))
    def test_redundant_equality_rows(self, monkeypatch, seed):
        self.check(monkeypatch, redundant_problem(seed))

    @pytest.mark.parametrize(
        "n, theta, degree",
        [(8, pi / 3, 11), (24, pi / 3, 16), (24, pi / 4, 18)],
        ids=["8-60deg-11", "24-60deg-16", "24-45deg-18"],
    )
    def test_grid_problems(self, monkeypatch, n, theta, degree):
        problem = grid_problem(n, theta, degree)
        if theta != pi / 4:
            assert self.check(monkeypatch, problem).status == "optimal"
            return
        # The old loop turns to Bland's rule for good at pivot
        # max(200, 10 * rows) = 210 and needs 1,611 pivots here.  This LP
        # never stalls for 21 pivots, so the solver stays with Dantzig's
        # rule and reaches the same optimum in 295.
        ref, _ = _solve_with_basis(monkeypatch, problem, reference=True)
        ours = solve_lp(**problem)
        assert ref.status == ours.status == "optimal"
        assert (ref.iterations, ours.iterations) == (1611, 295)
        assert ours.objective == pytest.approx(ref.objective, rel=1e-12, abs=0.0)


def _bland_problems():
    """Every random LP of this file, and grid LPs on coarser grids: with
    Bland's rule alone, (8, pi/3, 11) and (24, pi/3, 16) at grid 4096 were
    still unsolved after 200,000 pivots."""
    grid = [
        pytest.param(grid_problem(n, pi / 3, degree, size), id=f"grid-{n}-60deg-{degree}-{size}")
        for n, degree, size in [(4, 6, 256), (8, 11, 256), (8, 11, 128), (24, 16, 128)]
    ]
    return (
        [pytest.param(inequality_problem(s), id=f"inequality-{s}") for s in range(60)]
        + [pytest.param(mixed_problem(s), id=f"mixed-{s}") for s in range(20)]
        + [pytest.param(redundant_problem(s), id=f"redundant-{s}") for s in range(10)]
        + grid
    )


class TestStallRule:
    """Bland's rule runs only while the last _STALL_PIVOTS pivots were all
    degenerate; the first nondegenerate pivot returns to Dantzig's rule."""

    @pytest.mark.parametrize("degree", [21, 30])
    def test_degenerate_grid_problems_are_optimal(self, degree):
        # the old loop's permanent switch to Bland's rule stopped these at
        # the 50,000-pivot cap; Dantzig's rule solves them in 422 and 692
        res = solve_lp(**grid_problem(24, pi / 4, degree))
        assert res.status == "optimal"
        assert res.iterations < 1000

    @pytest.mark.parametrize("problem", _bland_problems())
    def test_bland_from_first_pivot(self, monkeypatch, problem):
        # with no stall allowed, Bland's rule picks every entering and
        # leaving column, and must reach the same optimum
        want = solve_lp(**problem)
        monkeypatch.setattr(simplex, "_STALL_PIVOTS", 0)
        got = solve_lp(**problem)
        assert got.status == want.status
        if want.status == "optimal":
            assert got.objective == pytest.approx(want.objective, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize(
        "n, theta, degree, size",
        [(24, pi / 3, 16, 256), (24, pi / 4, 18, 256), (24, pi / 4, 30, 128)],
        ids=["24-60deg-16-256", "24-45deg-18-256", "24-45deg-30-128"],
    )
    def test_drifted_basis_is_not_optimal(self, monkeypatch, n, theta, degree, size):
        # Over thousands of Bland pivots the kept B^-1 drifts, and these
        # LPs ended "optimal" with a row violated by 0.156, 437 and 13,628.
        # Such a basis is "numerical"; an optimal one must be the optimum.
        problem = grid_problem(n, theta, degree, size)
        want = solve_lp(**problem)
        assert want.status == "optimal"
        monkeypatch.setattr(simplex, "_STALL_PIVOTS", 0)
        got = solve_lp(**problem)
        assert got.status in ("optimal", "numerical")
        if got.status == "optimal":
            assert got.objective == pytest.approx(want.objective, rel=1e-9, abs=1e-9)
        else:
            assert (got.x, got.objective, got.duals_ub, got.duals_eq) == (None,) * 4


class TestPhaseOneKickOut:
    # both equality rows say x1 = x2, with b = 0: phase 1 ends at once with
    # both artificials basic at zero, and the kick-out pivots x1 into the
    # first equality row (row 1 after a <= row); the second is then all zero
    # and keeps its artificial
    EQ_ROWS = [[1.0, -1.0], [-1.0, 1.0]]

    @pytest.mark.parametrize(
        "problem, kicked_row, want",
        [
            (dict(c=[1.0, 1.0], a_eq=EQ_ROWS, b_eq=[0.0, 0.0]), 0, 0.0),
            (dict(c=[-1.0, 0.0, 1.0], a_ub=[[1.0, 1.0, 1.0]], b_ub=[2.0],
                  a_eq=[r + [0.0] for r in EQ_ROWS], b_eq=[0.0, 0.0]), 1, -1.0),
        ],
    )
    def test_artificial_pivoted_out(self, monkeypatch, problem, kicked_row, want):
        # pivots that run between the two phases are the kick-out's
        events = []
        real_iterate, real_pivot = simplex._iterate, simplex._pivot

        def iterate(*args):
            events.append("phase start")
            out = real_iterate(*args)
            events.append("phase end")
            return out

        def pivot(bx, d, basis, row, col, work):
            events.append(("pivot", row, col))
            real_pivot(bx, d, basis, row, col, work)

        monkeypatch.setattr(simplex, "_iterate", iterate)
        monkeypatch.setattr(simplex, "_pivot", pivot)
        ours = solve_lp(**problem)
        first_end = events.index("phase end")
        between = events[first_end + 1 : events.index("phase start", first_end)]
        assert between == [("pivot", kicked_row, 0)]
        ref = scipy_opt.linprog(
            problem["c"], A_ub=problem.get("a_ub"), b_ub=problem.get("b_ub"),
            A_eq=problem["a_eq"], b_eq=problem["b_eq"], bounds=(0, None), method="highs",
        )
        assert ref.status == 0 and ref.fun == pytest.approx(want, abs=1e-12)
        assert ours.status == "optimal"
        assert ours.objective == pytest.approx(want, abs=1e-12)
        assert np.allclose(np.asarray(problem["a_eq"]) @ ours.x, 0.0, atol=1e-12)


class TestRowCheck:
    def test_numerical_status_from_a_drifted_basis(self, monkeypatch):
        # a basis whose x_B rounding has carried off a row is not optimal:
        # shift the kept x_B of a solved LP before the check reads it
        real = simplex._iterate

        def drift(a, cost, bx, basis, ncols, maxiter):
            status, it = real(a, cost, bx, basis, ncols, maxiter)
            bx[:, -1] += 1e-3
            return status, it

        monkeypatch.setattr(simplex, "_iterate", drift)
        res = solve_lp([-1.0, -1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0])
        assert res.status == "numerical"
        assert res.x is None and res.objective is None

    def test_each_row_against_its_own_noise(self, monkeypatch):
        # x1 <= 1 has |a_1|.|x| = 1, while 1e5 x2 - 1e5 x3 <= 0 has 2e5:
        # a 1e-3 drift of x1 is far past row 1's rounding noise, though
        # below 1e-7 of the largest |a_i|.|x| over all rows
        real = simplex._iterate

        def drift(a, cost, bx, basis, ncols, maxiter):
            status, it = real(a, cost, bx, basis, ncols, maxiter)
            bx[basis == 0, -1] += 1e-3
            return status, it

        problem = dict(
            c=[-1.0, -1.0, 0.0],
            a_ub=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1e5, -1e5], [0.0, 0.0, 1.0]],
            b_ub=[1.0, 1.0, 0.0, 1.0],
        )
        res = solve_lp(**problem)
        assert res.status == "optimal"
        assert np.array_equal(res.x, [1.0, 1.0, 1.0])
        monkeypatch.setattr(simplex, "_iterate", drift)
        assert solve_lp(**problem).status == "numerical"

    def test_numerical_status_from_a_singular_basis(self, monkeypatch):
        # the closing dual solve is the only factorization of the final
        # basis; if it finds the basis singular there are no duals to give
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        res = solve_lp([-1.0, -1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0])
        assert res.status == "numerical"
        assert (res.x, res.objective, res.duals_ub, res.duals_eq) == (None,) * 4
