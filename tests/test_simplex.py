"""Two-phase simplex solver, validated against an independent reference."""

import numpy as np
import pytest

from spherepd.randgen import rng_for
from spherepd.simplex import solve_lp

scipy_opt = pytest.importorskip("scipy.optimize")


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


class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(60))
    def test_random_inequality_problems(self, seed):
        rng = rng_for(0xF00D, seed)
        nvar = int(rng.integers(1, 7))
        nrow = int(rng.integers(1, 9))
        c = rng.standard_normal(nvar)
        a = rng.standard_normal((nrow, nvar))
        b = rng.standard_normal(nrow)
        ours = solve_lp(c, a_ub=a, b_ub=b)
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
        rng = rng_for(0xBEEF, seed)
        nvar = int(rng.integers(2, 7))
        c = rng.standard_normal(nvar)
        a_ub = rng.standard_normal((3, nvar))
        b_ub = rng.uniform(0.5, 2.0, size=3)
        a_eq = rng.standard_normal((1, nvar))
        b_eq = rng.uniform(-1.0, 1.0, size=1)
        ours = solve_lp(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
        ref = scipy_opt.linprog(
            c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
            bounds=(0, None), method="highs",
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
        rng = rng_for(0xF00D, seed)
        nvar = int(rng.integers(1, 7))
        nrow = int(rng.integers(1, 9))
        c = rng.standard_normal(nvar)
        a = rng.standard_normal((nrow, nvar))
        b = rng.standard_normal(nrow)
        ours = solve_lp(c, a_ub=a, b_ub=b)
        if ours.status == "optimal":
            assert abs(c @ ours.x - b @ ours.duals_ub) <= 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_redundant_equality_rows(self, seed):
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
        ours = solve_lp(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
        ref = scipy_opt.linprog(
            c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
            bounds=(0, None), method="highs",
        )
        assert ref.status in (0, 3)
        if ref.status == 0:
            assert ours.status == "optimal"
            assert ours.objective == pytest.approx(ref.fun, abs=1e-7)
            assert np.allclose(a_eq @ ours.x, b_eq, atol=1e-7)
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
