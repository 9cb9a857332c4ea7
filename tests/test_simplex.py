"""One-phase simplex solver, validated against an independent reference."""

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
    return dict(c=c, a_ub=a, b_ub=np.abs(b))  # b_ub >= 0, as solve_lp needs


def with_zero_equalities(c, a_ub, b_ub, a_eq):
    """The LP with a_ub.x <= b_ub and a_eq.x = 0 in the form solve_lp takes:
    each equality row becomes the two rows a_eq.x <= 0 and -a_eq.x <= 0."""
    a_eq = np.atleast_2d(a_eq)
    return dict(
        c=np.asarray(c, dtype=float),
        a_ub=np.vstack([a_ub, a_eq, -a_eq]),
        b_ub=np.concatenate([b_ub, np.zeros(2 * len(a_eq))]),
    )


def mixed_parts(seed):
    """c, a_ub, b_ub and one equality row a_eq, whose right side is 0."""
    rng = rng_for(0xBEEF, seed)
    nvar = int(rng.integers(2, 7))
    c = rng.standard_normal(nvar)
    a_ub = rng.standard_normal((3, nvar))
    b_ub = rng.uniform(0.5, 2.0, size=3)
    a_eq = rng.standard_normal((1, nvar))
    return c, a_ub, b_ub, a_eq


def redundant_parts(seed):
    # the third equality row is the sum of the first two, so the equality
    # block is rank-deficient; every equality row is orthogonal to x0 > 0,
    # which is strictly feasible for the <= rows
    rng = rng_for(0xD0E5, seed)
    nvar = int(rng.integers(3, 7))
    x0 = rng.uniform(0.1, 1.0, size=nvar)
    e = rng.standard_normal((2, nvar))
    e -= np.outer(e @ x0 / (x0 @ x0), x0)
    a_eq = np.vstack([e, e[0] + e[1]])
    a_ub = rng.standard_normal((2, nvar))
    b_ub = np.abs(a_ub @ x0) + rng.uniform(0.1, 1.0, size=2)
    c = rng.uniform(0.1, 1.0, size=nvar) * rng.choice([-1.0, 1.0], size=nvar)
    return c, a_ub, b_ub, a_eq


def mixed_problem(seed):
    return with_zero_equalities(*mixed_parts(seed))


def redundant_problem(seed):
    return with_zero_equalities(*redundant_parts(seed))


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
        # x1 = x2 as the rows x1 - x2 <= 0 and x2 - x1 <= 0, with x1 + x2 <= 2
        res = solve_lp(**with_zero_equalities([-1.0, 0.0], [[1.0, 1.0]], [2.0], [[1.0, -1.0]]))
        assert res.status == "optimal"
        assert res.x == pytest.approx([1.0, 1.0])
        assert res.objective == pytest.approx(-1.0)

    def test_infeasible(self):
        # x <= 1 and x >= 2: with b_ub >= 0 the point x = 0 is feasible, so
        # an infeasible LP needs a negative entry, which is refused
        ref = scipy_opt.linprog([1.0], A_ub=[[1.0], [-1.0]], b_ub=[1.0, -2.0],
                                bounds=(0, None), method="highs")
        assert ref.status == 2
        with pytest.raises(ValueError, match="b_ub holds a negative entry"):
            solve_lp([1.0], a_ub=[[1.0], [-1.0]], b_ub=[1.0, -2.0])

    def test_unbounded(self):
        res = solve_lp([-1.0], a_ub=[[-1.0]], b_ub=[0.0])
        assert res.status == "unbounded"

    def test_negative_rhs(self):
        # x >= 2 written as -x <= -2: the slack basis is not feasible
        with pytest.raises(ValueError, match="b_ub holds a negative entry"):
            solve_lp([1.0], a_ub=[[-1.0]], b_ub=[-2.0])

    @pytest.mark.parametrize(
        "problem, name",
        [
            (dict(c=[1.0], a_ub=[[1.0]], b_ub=[np.nan]), "b_ub"),
            (dict(c=[1.0], a_ub=[[1.0]], b_ub=[np.inf]), "b_ub"),
            (dict(c=[1.0], a_ub=[[np.nan]], b_ub=[1.0]), "a_ub"),
            (dict(c=[np.nan], a_ub=[[1.0]], b_ub=[1.0]), "c"),
            (dict(c=[-np.inf, 1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0]), "c"),
        ],
        ids=["b-nan", "b-inf", "a-nan", "c-nan", "c-inf"],
    )
    def test_non_finite_input_refused(self, problem, name):
        # a NaN fails every comparison: in b_ub or a_ub it leaves no
        # finite ratio, which reads as "unbounded", and in c it leaves no
        # column optimal, so the solve runs to the pivot cap
        with pytest.raises(ValueError, match=f"^{name} holds a non-finite entry"):
            solve_lp(**problem)

    @pytest.mark.parametrize(
        "problem",
        [
            dict(c=[1.0, 1.0, 1.0], a_ub=[[1.0], [1.0]], b_ub=[1.0, 1.0]),
            dict(c=[1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0, 1.0]),
            dict(c=[1.0], a_ub=[[[1.0]]], b_ub=[1.0]),
        ],
        ids=["columns", "rows", "3-d"],
    )
    def test_misshaped_a_ub_refused(self, problem):
        # a (2, 1) a_ub with 3 variables would broadcast across every
        # structural column of the tableau
        with pytest.raises(ValueError, match="a_ub has shape"):
            solve_lp(**problem)

    def test_no_constraints(self):
        with pytest.raises(ValueError, match="at least one row"):
            solve_lp([1.0], a_ub=np.zeros((0, 1)), b_ub=[])

    def test_iteration_limit(self, monkeypatch):
        # the (24, pi/3, 16) grid LP takes 149 pivots to its optimum
        monkeypatch.setattr(simplex, "_MAX_PIVOTS", 5)
        res = solve_lp(**grid_problem(24, pi / 3, 16))
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
        else:  # the slack basis is feasible, so HiGHS finds no infeasible one
            assert ref.status == 3
            assert ours.status == "unbounded"

    @pytest.mark.parametrize("seed", range(60))
    def test_strong_duality(self, seed):
        # the same problems as test_random_inequality_problems
        problem = inequality_problem(seed)
        ours = solve_lp(**problem)
        if ours.status == "optimal":
            assert abs(problem["c"] @ ours.x - problem["b_ub"] @ ours.duals_ub) <= 1e-9

    def check_zero_equalities(self, c, a_ub, b_ub, a_eq):
        # HiGHS is given the equality rows as such, solve_lp their <= pairs
        ours = solve_lp(**with_zero_equalities(c, a_ub, b_ub, a_eq))
        ref = scipy_opt.linprog(
            c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=np.zeros(len(a_eq)),
            bounds=(0, None), method="highs",
        )
        assert ref.status in (0, 3)  # x = 0 is feasible
        if ref.status == 0:
            assert ours.status == "optimal"
            assert ours.objective == pytest.approx(ref.fun, abs=1e-7)
            assert np.allclose(a_eq @ ours.x, 0.0, atol=1e-7)
        else:
            assert ours.status == "unbounded"

    @pytest.mark.parametrize("seed", range(20))
    def test_random_mixed_problems(self, seed):
        self.check_zero_equalities(*mixed_parts(seed))

    @pytest.mark.parametrize("seed", range(10))
    def test_redundant_equality_rows(self, seed):
        self.check_zero_equalities(*redundant_parts(seed))

    @pytest.mark.parametrize(
        "a_ub, b_ub, a_eq, b_eq",
        [
            (None, None, [[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0]),  # inconsistent rows
            (None, None, [[1.0, 1.0]], [-1.0]),  # needs x < 0
            ([[1.0, 0.0]], [2.0], [[1.0, -1.0], [0.0, 1.0]], [2.0, 1.0]),  # x = (3, 1)
        ],
    )
    def test_infeasible_with_equality_rows(self, a_ub, b_ub, a_eq, b_eq):
        # written as <= rows, each of these LPs has a negative right side,
        # as every infeasible one must: x = 0 satisfies any rows with b >= 0
        c = [1.0, 1.0]
        ref = scipy_opt.linprog(
            c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
            bounds=(0, None), method="highs",
        )
        assert ref.status == 2
        a_eq, b_eq = np.asarray(a_eq), np.asarray(b_eq)
        rows = [a_eq, -a_eq] + ([np.asarray(a_ub)] if a_ub is not None else [])
        rhs = [b_eq, -b_eq] + ([np.asarray(b_ub)] if b_ub is not None else [])
        with pytest.raises(ValueError, match="b_ub holds a negative entry"):
            solve_lp(c, a_ub=np.vstack(rows), b_ub=np.concatenate(rhs))

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
    own = simplex._iterate
    bases = []

    def recording(a, cost, bx, basis):
        bases.append(basis)  # updated in place to the end of the solve
        if reference:
            return _ref_iterate(a, cost, bx, basis, a.shape[1], simplex._MAX_PIVOTS)
        return own(a, cost, bx, basis)

    with monkeypatch.context() as mp:
        mp.setattr(simplex, "_iterate", recording)
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
        for field in ("x", "duals_ub", "objective"):
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
            assert (got.x, got.objective, got.duals_ub) == (None,) * 3


class TestRowCheck:
    def test_numerical_status_from_a_drifted_basis(self, monkeypatch):
        # a basis whose x_B rounding has carried off a row is not optimal:
        # shift the kept x_B of a solved LP before the check reads it
        real = simplex._iterate

        def drift(a, cost, bx, basis):
            status, it = real(a, cost, bx, basis)
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

        def drift(a, cost, bx, basis):
            status, it = real(a, cost, bx, basis)
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
        assert (res.x, res.objective, res.duals_ub) == (None,) * 3
