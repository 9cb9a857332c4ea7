"""Point configurations and kernel matrices on the sphere."""

import numpy as np
import pytest

from spherepd import constraints, spherical, symlin
from spherepd.codebounds import code_audit
from spherepd.gegenbauer import monomial_exponents, monomial_vector
from spherepd.randgen import rng_for
from spherepd.spherical import PointConfiguration, named_code, sample_sphere


class TestPointConfiguration:
    def test_unit_check(self):
        pts = PointConfiguration(3, [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        with pytest.raises(ValueError):
            pts.require_unit()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_point_is_not_on_the_sphere(self, bad):
        # |norm - 1| > tol is False for NaN, so the check must be written
        # the other way round; each caller then refuses the input
        pts = PointConfiguration(3, [[bad, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="unit sphere"):
            pts.require_unit()
        with pytest.raises(ValueError, match="unit sphere"):
            code_audit(pts, np.pi / 3)
        with pytest.raises(ValueError, match="unit sphere"):
            spherical.kernel_matrix(pts, 0, 2)
        with pytest.raises(ValueError, match="unit sphere"):
            constraints.pair_from_points(pts)

    def test_max_inner_product(self):
        pts = PointConfiguration(2, [[1.0, 0.0], [0.0, 1.0]])
        assert pts.max_inner_product() == pytest.approx(0.0)

    def test_coords_immutable(self):
        pts = sample_sphere(3, 4, seed=0)
        with pytest.raises(ValueError):
            pts.coords[0, 0] = 2.0


class TestSampleSphere:
    def test_unit_norms(self):
        pts = sample_sphere(5, 40, seed=1)
        assert np.allclose(np.linalg.norm(pts.coords, axis=1), 1.0, atol=1e-12)

    def test_deterministic_per_seed(self):
        a = sample_sphere(4, 10, seed=9)
        b = sample_sphere(4, 10, seed=9)
        c = sample_sphere(4, 10, seed=10)
        assert np.array_equal(a.coords, b.coords)
        assert not np.array_equal(a.coords, c.coords)


class TestNamedCodes:
    def test_simplex_gram(self):
        for n in (2, 3, 5):
            pts = named_code(f"simplex({n})").require_unit()
            g = pts.coords @ pts.coords.T
            off = g[~np.eye(n + 1, dtype=bool)]
            assert np.allclose(off, -1.0 / n, atol=1e-12)

    def test_cross_polytope(self):
        pts = named_code("cross_polytope(4)")
        assert pts.size == 8
        assert pts.max_inner_product() == pytest.approx(0.0)

    def test_icosahedron(self):
        pts = named_code("icosahedron").require_unit()
        assert pts.size == 12
        assert pts.max_inner_product() == pytest.approx(1.0 / np.sqrt(5.0), abs=1e-12)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            named_code("tetrahedron")


class TestKernelMatrix:
    @pytest.mark.parametrize("n,m,k", [(4, 0, 3), (5, 2, 2), (6, 4, 5), (3, 1, 4)])
    def test_psd_on_random_points(self, n, m, k):
        pts = sample_sphere(n, 25, seed=n * 100 + m * 10 + k)
        km = spherical.kernel_matrix(pts, m, k)
        assert symlin.is_psd(km.base).is_psd

    def test_level_zero_degree_one_is_gram(self):
        pts = sample_sphere(5, 8, seed=2)
        km = spherical.kernel_matrix(pts, 0, 1)
        assert np.allclose(km.base.array, pts.coords @ pts.coords.T, atol=1e-14)

    def test_degree_zero_all_ones(self):
        pts = sample_sphere(4, 6, seed=3)
        km = spherical.kernel_matrix(pts, 2, 0)
        assert np.array_equal(km.base.array, np.ones((6, 6)))

    def test_hadamard_of_kernels_stays_psd(self):
        pts = sample_sphere(5, 15, seed=4)
        a = spherical.kernel_matrix(pts, 1, 2).base
        b = spherical.kernel_matrix(pts, 1, 3).base
        assert symlin.is_psd(symlin.hadamard(a, b)).is_psd

    def test_level_range_guard(self):
        pts = sample_sphere(3, 4, seed=5)
        with pytest.raises(ValueError):
            spherical.kernel_matrix(pts, 2, 1)


class TestKernelPsdReports:
    @pytest.mark.parametrize("n,m,lo,hi", [(4, 0, 0, 3), (5, 2, 3, 9), (3, 1, 30, 30),
                                           (6, 4, 0, 12)])
    def test_equals_is_psd_of_each_kernel_matrix(self, n, m, lo, hi):
        pts = sample_sphere(n, 20, seed=n * 10 + m)
        got = spherical.kernel_psd_reports(pts, m, lo, hi)
        want = [symlin.is_psd(spherical.kernel_matrix(pts, m, k).base)
                for k in range(lo, hi + 1)]
        assert got == want

    def test_guards(self):
        pts = sample_sphere(4, 5, seed=11)
        with pytest.raises(ValueError):
            spherical.kernel_psd_reports(pts, 3, 1, 1)
        with pytest.raises(ValueError):
            spherical.kernel_psd_reports(pts, 0, -1, 2)
        with pytest.raises(ValueError):
            spherical.kernel_psd_reports(pts, 0, 3, 2)


class TestBvMatrices:
    def test_per_anchor_and_sum_psd(self):
        pts = sample_sphere(4, 10, seed=6)
        weights = np.array([1.0, 0.5, 0.25, 0.1])
        ys, total = spherical.bv_matrices(pts, k=2, d=3, weights=weights)
        assert len(ys) == 10
        for y in ys:
            assert symlin.is_psd(y).is_psd
        assert symlin.is_psd(total).is_psd
        assert np.allclose(total.array, sum(y.array for y in ys), atol=1e-12)

    def test_matches_per_degree_rows_bit_for_bit(self):
        from spherepd.gegenbauer import _homogeneous, eval_1d

        n, k, d = 4, 2, 4
        pts = sample_sphere(n, 6, seed=12)
        weights = np.array([1.0, 0.5, 0.25, 0.1, 0.05])
        ys, _ = spherical.bv_matrices(pts, k=k, d=d, weights=weights)
        t = pts.coords @ pts.coords.T
        for l, y in enumerate(ys):
            tl = t[:, l]
            a_l = _homogeneous(n - 1, k, t - np.outer(tl, tl), np.outer(1.0 - tl**2, 1.0 - tl**2))
            w = np.vstack([weights[i] * eval_1d(n + 2 * k, i, tl) for i in range(d + 1)])
            want = w @ a_l @ w.T
            assert y.array.tobytes() == (0.5 * (want + want.T)).tobytes(), l

    def test_negative_degrees_refused(self):
        pts = sample_sphere(4, 5, seed=13)
        for k, d in [(-1, 2), (1, -1)]:
            with pytest.raises(ValueError):
                spherical.bv_matrices(pts, k=k, d=d, weights=np.ones(max(d + 1, 0)))

    def test_zero_weights_give_zero(self):
        pts = sample_sphere(4, 5, seed=7)
        ys, total = spherical.bv_matrices(pts, k=1, d=2, weights=np.zeros(3))
        assert np.max(np.abs(total.array)) == 0.0


class TestVerifyExpansion:
    def test_psd_coefficient_matrices_give_psd_sum(self):
        pts = sample_sphere(5, 12, seed=8)
        m, d = 2, 1
        from spherepd.gegenbauer import monomial_exponents

        size = len(monomial_exponents(m, d))
        rng = np.random.default_rng(0)
        hs = []
        for _ in range(3):
            b = rng.standard_normal((size, size))
            hs.append(b @ b.T)
        rep = spherical.verify_corollary31(pts, m, hs, d)
        assert rep.is_psd

    def test_non_psd_coefficient_matrix_rejected(self):
        pts = sample_sphere(5, 6, seed=9)
        from spherepd.gegenbauer import monomial_exponents

        size = len(monomial_exponents(2, 1))
        bad = -np.eye(size)
        with pytest.raises(ValueError, match="not PSD"):
            spherical.verify_corollary31(pts, 2, [bad], 1)

    def test_asymmetric_coefficient_matrix_refused(self):
        # the symmetric part of H is I, yet neither H nor H^T is a PSD H_k
        pts = sample_sphere(5, 6, seed=9)
        h = np.eye(len(monomial_exponents(2, 1)))
        h[0, 1], h[1, 0] = 0.5, -0.5
        for hk in (h, h.T):
            with pytest.raises(ValueError, match="not symmetric"):
                spherical.verify_corollary31(pts, 2, [hk], 1)


def per_degree_corollary31(points, m, h_matrices, d, tol=symlin.DEFAULT_TOL):
    """verify_corollary31 with one kernel_matrix call per present degree."""
    u = spherical.project(points, m)
    z = np.array([monomial_vector(row, d) for row in u])
    total = np.zeros((points.size, points.size))
    for k, h in enumerate(h_matrices):
        if h is not None:
            total += (z @ h @ z.T) * spherical.kernel_matrix(points, m, k).base.array
    return symlin.is_psd(symlin.SymmetricMatrix(total), tol)


class TestVerifyCorollary31OnePass:
    @pytest.mark.parametrize("n,m,d", [(3, 1, 2), (3, 1, 1), (4, 2, 2), (5, 1, 3), (6, 3, 1),
                                       (7, 2, 2)])
    def test_equals_per_degree_kernel_matrices(self, n, m, d):
        size = len(monomial_exponents(m, d))
        rng = rng_for(n, m, d)
        for trial in range(5):
            pts = sample_sphere(n, 9, seed=100 * n + 10 * m + trial)
            hs = []
            for k in range(int(rng.integers(1, 7))):
                b = rng.standard_normal((size, size))
                hs.append(b @ b.T if rng.uniform() < 0.6 else None)
            for tol in (symlin.DEFAULT_TOL, 1e-3):
                assert spherical.verify_corollary31(pts, m, hs, d, tol) == \
                    per_degree_corollary31(pts, m, hs, d, tol)

    def test_trailing_and_only_none(self):
        pts = sample_sphere(5, 7, seed=3)
        h = np.eye(len(monomial_exponents(2, 1)))
        for hs in ([None, h, None, None], [None], [h, None, None, h]):
            assert spherical.verify_corollary31(pts, 2, hs, 1) == \
                per_degree_corollary31(pts, 2, hs, 1)

    def test_empty_list_is_zero_matrix(self):
        pts = sample_sphere(4, 6, seed=4)
        got = spherical.verify_corollary31(pts, 1, [], 2)
        assert got == symlin.is_psd(np.zeros((6, 6)))
        assert got.is_psd and got.min_eigenvalue == 0.0


class TestOnePassPerLevel:
    @pytest.fixture
    def passes(self, monkeypatch):
        his = []
        upto = spherical._homogeneous_upto

        def counting(nu, k, *args):
            his.append(k)
            return upto(nu, k, *args)

        monkeypatch.setattr(spherical, "_homogeneous_upto", counting)
        return his

    def test_kernel_psd_reports(self, passes):
        pts = sample_sphere(5, 8, seed=5)
        for m in range(4):
            spherical.kernel_psd_reports(pts, m, 2, 7)
        assert passes == [7] * 4

    def test_lambda_member(self, passes):
        pair = constraints.pair_from_points(sample_sphere(6, 5, seed=1))
        for m in range(5):
            constraints.lambda_member(pair, m, 5)
        assert passes == [5] * 5

    def test_verify_corollary31(self, passes):
        pts = sample_sphere(5, 8, seed=6)
        h = np.eye(len(monomial_exponents(2, 1)))
        spherical.verify_corollary31(pts, 2, [h, None, h, h], 1)
        spherical.verify_corollary31(pts, 2, [], 1)
        assert passes == [3]


class TestProject:
    def test_prefix_columns(self):
        pts = sample_sphere(6, 5, seed=10)
        u = spherical.project(pts, 3)
        assert np.array_equal(u, pts.coords[:, :3])
