"""Feasible pairs, hierarchy membership, reconstruction, Euclidean kernels."""

import numpy as np
import pytest

from spherepd import constraints, spherical, symlin
from spherepd.constraints import (
    augment,
    delta_member,
    euclid_kernel,
    h_map,
    lambda_member,
    make_pair,
    pair_from_points,
    reconstruct,
    s_lambda_member,
)
from spherepd.gegenbauer import _homogeneous
from spherepd.randgen import rng_for
from spherepd.spherical import PointConfiguration, sample_sphere
from spherepd.symlin import SymmetricMatrix


def realizable_pair(n, r, seed):
    return pair_from_points(sample_sphere(n, r, seed))


class TestMakePair:
    def test_valid(self):
        pair = realizable_pair(4, 5, seed=0)
        assert pair.r == 5 and pair.n == 4

    def test_shape_guard(self):
        with pytest.raises(ValueError):
            make_pair(SymmetricMatrix(np.eye(3)), np.zeros((3, 5)), 4)

    def test_violations_listed(self):
        t = np.eye(3)
        t[0, 1] = t[1, 0] = 1.5
        u = np.zeros((3, 3))
        u[0, 0] = 2.0
        with pytest.raises(ValueError) as err:
            make_pair(SymmetricMatrix(t), u, 4)
        assert "[-1, 1]" in str(err.value)
        assert "norm > 1" in str(err.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_t_listed(self, bad):
        # every other check is a comparison, which NaN passes silently
        with pytest.raises(ValueError, match="entries of T must be finite"):
            make_pair(SymmetricMatrix([[1.0, bad], [bad, 1.0]]), np.zeros((2, 2)), 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_u_listed(self, bad):
        with pytest.raises(ValueError, match="entries of U must be finite"):
            make_pair(SymmetricMatrix(np.eye(2)), [[0.0, bad], [0.0, 0.0]], 3)


class TestAugment:
    def test_size_and_blocks(self):
        pair = realizable_pair(5, 4, seed=1)
        aug = augment(pair, 2)
        size = 4 + 5 - 2 - 1
        assert aug.x.dim == size
        x = aug.x.array
        assert np.allclose(x[:4, :4], pair.t.array)
        assert np.allclose(x[4:, 4:], np.eye(size - 4))
        assert np.allclose(aug.v[:4], pair.u[:, :2])
        assert np.max(np.abs(aug.v[4:])) == 0.0

    def test_level_guard(self):
        pair = realizable_pair(4, 3, seed=2)
        with pytest.raises(ValueError):
            augment(pair, 3)


class TestMembership:
    def test_realizable_pairs_member_at_all_levels(self):
        for seed in range(5):
            pair = realizable_pair(5, 6, seed)
            for m in range(4):
                assert lambda_member(pair, m, d=3).member

    def test_s_lambda_on_realizable(self):
        pair = realizable_pair(4, 5, seed=3)
        assert s_lambda_member(pair, 1, d=2)

    def test_delta_on_realizable(self):
        assert delta_member(realizable_pair(5, 7, seed=4))

    def test_constructed_violator_fails(self):
        # an impossible correlation structure: T forces nearly antipodal
        # points that U pins near the same spot
        t = np.array([[1.0, -0.99], [-0.99, 1.0]])
        u = np.array([[0.99, 0.0], [0.99, 0.0]])
        pair = make_pair(SymmetricMatrix(t), u, 3)
        assert not delta_member(pair)
        assert not lambda_member(pair, 1, d=3).member

    def test_hierarchy_is_nested(self):
        # membership at a higher level implies membership below
        rng = rng_for(99, 0)
        for trial in range(20):
            t = np.eye(3)
            vals = rng.uniform(-1, 1, size=3)
            t[0, 1] = t[1, 0] = vals[0]
            t[0, 2] = t[2, 0] = vals[1]
            t[1, 2] = t[2, 1] = vals[2]
            u = rng.uniform(-0.5, 0.5, size=(3, 3))
            try:
                pair = make_pair(SymmetricMatrix(t), u, 4)
            except ValueError:
                continue
            flags = [lambda_member(pair, m, d=3).member for m in range(3)]
            for lower, upper in zip(flags, flags[1:]):
                assert lower or not upper


def per_degree_lambda_reports(pair, m, d, tol):
    """lambda_member's reports built one degree at a time, each matrix from
    degree 0 and mirrored through SymmetricMatrix."""
    aug = augment(pair, m)
    args = spherical._kernel_args(aug.x.array, aug.v, aug.v)
    return {
        k: symlin.is_psd(SymmetricMatrix(_homogeneous(pair.n - m, k, *args), check=False), tol)
        for k in range(1, d + 1)
    }


def perturbed_pair(n, r, seed):
    """A realizable pair with T and U moved off the realizable set."""
    pair = realizable_pair(n, r, seed)
    rng = rng_for(seed, n, r, 1)
    noise = rng.uniform(-0.2, 0.2, size=(r, r))
    t = np.clip(pair.t.array + noise + noise.T, -1.0, 1.0)
    np.fill_diagonal(t, 1.0)
    u = pair.u * rng.uniform(0.3, 1.0, size=(r, 1))
    return make_pair(SymmetricMatrix(t), u, n)


def pair_with_unit_u_row(n, r, seed):
    """A realizable pair whose first point is e_1, so e = 0 on its row at m >= 1."""
    coords = sample_sphere(n, r, seed).coords.copy()
    coords[0] = np.eye(n)[0]
    return pair_from_points(PointConfiguration(n, coords))


class TestLambdaMemberOnePass:
    @pytest.mark.parametrize("n", range(3, 8))
    def test_equals_per_degree_construction(self, n):
        verdicts = set()
        for make in (realizable_pair, perturbed_pair, pair_with_unit_u_row):
            pair = make(n, 6, seed=n)
            for m in range(n - 1):
                for d in range(1, 6):
                    for tol in (symlin.DEFAULT_TOL, 1e-3):
                        got = lambda_member(pair, m, d, tol)
                        want = per_degree_lambda_reports(pair, m, d, tol)
                        assert got.reports == want
                        assert got.member == all(rep.is_psd for rep in want.values())
                        verdicts.add(got.member)
        assert verdicts == {True, False}

    def test_unit_u_row_has_zero_e(self):
        pair = pair_with_unit_u_row(5, 4, seed=2)
        aug = augment(pair, 1)
        e = spherical._kernel_args(aug.x.array, aug.v, aug.v)[1]
        assert np.all(e[0] == 0.0)


class TestReconstruct:
    def test_roundtrip(self):
        for seed in range(5):
            pair = realizable_pair(4, 6, seed + 10)
            pts, basis = reconstruct(pair)
            gram = pts.coords @ pts.coords.T
            assert np.max(np.abs(gram - pair.t.array)) < 1e-8
            u = pts.coords @ basis.T
            assert np.max(np.abs(u - pair.u)) < 1e-8
            assert np.max(np.abs(basis @ basis.T - np.eye(3))) < 1e-8

    def test_rejects_nonrealizable(self):
        t = np.array([[1.0, -0.99], [-0.99, 1.0]])
        u = np.array([[0.99, 0.0], [0.99, 0.0]])
        pair = make_pair(SymmetricMatrix(t), u, 3)
        with pytest.raises(ValueError):
            reconstruct(pair)


class TestEuclidKernel:
    def test_matches_sphere_kernel_on_unit_points(self):
        pts = sample_sphere(5, 10, seed=20)
        for m in (0, 1, 3):
            for k in (1, 2, 4):
                a = euclid_kernel(pts, m, k).array
                b = spherical.kernel_matrix(pts, m, k).base.array
                assert np.max(np.abs(a - b)) < 1e-12

    def test_psd_on_scaled_points(self):
        rng = rng_for(21, 0)
        coords = rng.standard_normal((8, 4)) * rng.uniform(0.2, 2.0, size=(8, 1))
        pts = PointConfiguration(4, coords)
        for m in (0, 1, 2):
            for k in (1, 2, 3):
                assert symlin.is_psd(euclid_kernel(pts, m, k)).is_psd

    def test_zero_vector_entries(self):
        pts = PointConfiguration(4, np.vstack([np.zeros(4), np.eye(4)[:2]]))
        k1 = euclid_kernel(pts, 0, 1).array
        assert k1[0, 0] == 0.0 and k1[0, 1] == 0.0
        k0 = euclid_kernel(pts, 0, 0).array
        assert k0[0, 0] == 1.0

    def test_negative_degree_is_value_error(self):
        with pytest.raises(ValueError, match="degrees"):
            euclid_kernel(sample_sphere(4, 3, seed=26), 1, -1)


class TestHMap:
    def test_degree_one_is_identity_map(self):
        rng = rng_for(22, 0)
        b = rng.standard_normal((6, 4))
        a = SymmetricMatrix(b @ b.T, check=False)
        assert np.allclose(h_map(a, 4, 1).array, a.array, atol=1e-14)

    def test_degree_two_explicit_formula(self):
        rng = rng_for(23, 0)
        n = 5
        b = rng.standard_normal((7, n))
        a = b @ b.T
        got = h_map(SymmetricMatrix(a, check=False), n, 2).array
        diag = np.diag(a)
        expected = (n * a**2 - np.outer(diag, diag)) / (n - 1)
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_output_psd(self):
        rng = rng_for(24, 0)
        for k in (2, 3, 4):
            b = rng.standard_normal((6, 3))
            out = h_map(SymmetricMatrix(b @ b.T, check=False), 3, k)
            assert symlin.is_psd(out).is_psd

    def test_rank_guard(self):
        # rank 5 exceeds n = 2, so the PSD guarantee does not apply
        rng = rng_for(25, 0)
        b = rng.standard_normal((5, 5))
        with pytest.raises(ValueError, match="rank"):
            h_map(SymmetricMatrix(b @ b.T, check=False), 2, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_entries_refused(self, bad):
        for rows in ([[bad, 0.0], [0.0, 1.0]], [[1.0, bad], [bad, 1.0]]):
            with pytest.raises(ValueError, match="entries must be finite"):
                h_map(SymmetricMatrix(rows, check=False), 3, 2)

    def test_negative_degree_is_value_error(self):
        b = rng_for(27, 0).standard_normal((4, 3))
        with pytest.raises(ValueError, match="degrees"):
            h_map(SymmetricMatrix(b @ b.T, check=False), 3, -1)
