"""Symmetric-matrix utilities: eigensolver, PSD checks, realization."""

import numpy as np
import pytest

from spherepd import symlin
from spherepd.randgen import rng_for
from spherepd.symlin import SymmetricMatrix


def random_symmetric(dim, seed, scale=1.0):
    rng = rng_for(seed, dim)
    a = rng.standard_normal((dim, dim)) * scale
    return SymmetricMatrix(0.5 * (a + a.T), check=False)


class TestSymmetricMatrix:
    def test_mirror_storage(self):
        m = SymmetricMatrix([[1.0, 2.0], [2.0, 3.0]])
        assert m.array[0, 1] == m.array[1, 0] == 2.0

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SymmetricMatrix([[1.0, 2.0], [0.0, 3.0]])

    @pytest.mark.parametrize(
        "rows", [[[1.0, np.inf], [-np.inf, 1.0]], [[1.0, np.nan], [0.0, 1.0]]]
    )
    def test_rejects_nonfinite_asymmetric(self, rows):
        # a NaN or infinite gap must not pass the tolerance comparison
        with pytest.raises(ValueError, match="input matrix is not symmetric"):
            SymmetricMatrix(rows)

    def test_tolerance_is_relative_to_largest_finite_entry(self):
        SymmetricMatrix([[1e6, 1.0], [1.0 + 5e-5, 1.0]])
        with pytest.raises(ValueError, match="not symmetric"):
            SymmetricMatrix([[1e6, 1.0], [1.0 + 2e-4, 1.0]])
        # an infinite entry does not widen the tolerance for the others
        with pytest.raises(ValueError, match="not symmetric"):
            SymmetricMatrix([[np.inf, 1.0], [1.0 + 1e-6, 1.0]])

    def test_from_upper_roundtrip(self):
        m = SymmetricMatrix.from_upper(3, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        expected = np.array([[1.0, 2, 3], [2, 4, 5], [3, 5, 6]])
        assert np.array_equal(m.array, expected)

    def test_array_read_only(self):
        m = SymmetricMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.array[0, 0] = 5.0


class TestEigenvalues:
    @pytest.mark.parametrize("dim", [1, 2, 5, 12, 40])
    def test_matches_reference_solver(self, dim):
        m = random_symmetric(dim, seed=dim)
        ours = np.sort(symlin.eigenvalues(m))
        ref = np.sort(np.linalg.eigvalsh(m.array))
        assert np.max(np.abs(ours - ref)) < 1e-10 * max(1.0, np.abs(ref).max())

    def test_sum_equals_trace(self):
        for dim in (3, 8, 25):
            m = random_symmetric(dim, seed=100 + dim, scale=10.0)
            vals = symlin.eigenvalues(m)
            scale = np.abs(m.array).max()
            assert abs(vals.sum() - np.trace(m.array)) < 1e-10 * dim * scale

    def test_diagonal_matrix_exact(self):
        m = SymmetricMatrix(np.diag([3.0, -1.0, 2.0]))
        assert np.allclose(np.sort(symlin.eigenvalues(m)), [-1.0, 2.0, 3.0])

    @pytest.mark.parametrize("dim", [1, 2, 7, 30])
    @pytest.mark.parametrize("b", [-0.75, 0.0, 2.5])
    def test_identity_plus_all_ones_closed_form(self, dim, b):
        # aI + bJ: eigenvalue a with multiplicity dim - 1, a + dim*b once
        a = 1.5
        m = SymmetricMatrix(a * np.eye(dim) + b * np.ones((dim, dim)), check=False)
        expected = np.sort(np.append(np.full(dim - 1, a), a + dim * b))
        for vals in (symlin.eigenvalues(m), symlin.eigensystem(m)[0]):
            assert np.max(np.abs(vals - expected)) < 1e-12 * max(1.0, dim * abs(b))

    def test_eigensystem_reconstructs(self):
        m = random_symmetric(9, seed=7)
        vals, vecs = symlin.eigensystem(m)
        recon = vecs @ np.diag(vals) @ vecs.T
        assert np.max(np.abs(recon - m.array)) < 1e-10
        assert np.max(np.abs(vecs.T @ vecs - np.eye(9))) < 1e-12


class TestIsPsd:
    def test_psd_gram(self):
        rng = rng_for(1, 6)
        b = rng.standard_normal((6, 4))
        rep = symlin.is_psd(SymmetricMatrix(b @ b.T, check=False))
        assert rep.is_psd and rep.min_eigenvalue > -1e-12

    def test_indefinite(self):
        rep = symlin.is_psd(SymmetricMatrix(np.diag([1.0, -0.5])))
        assert not rep.is_psd
        assert rep.min_eigenvalue == pytest.approx(-0.5)

    def test_relative_tolerance(self):
        # a tiny negative eigenvalue riding on a large scale passes
        big = SymmetricMatrix(np.diag([1e8, -1e-4]))
        assert symlin.is_psd(big).is_psd
        small = SymmetricMatrix(np.diag([1.0, -1e-4]))
        assert not symlin.is_psd(small).is_psd


    def test_plain_arrays(self):
        # an exactly symmetric array is read as it is; otherwise the
        # symmetric part is tested, as before
        rng = rng_for(5, 6)
        b = rng.standard_normal((6, 3))
        g = b @ b.T
        g = np.triu(g) + np.triu(g, 1).T
        assert symlin._as_array(g) is g
        assert symlin.is_psd(g) == symlin.is_psd(SymmetricMatrix(g, check=False))
        skew = np.array([[1.0, 3.0], [-3.0, 1.0]])
        assert symlin.is_psd(skew).min_eigenvalue == pytest.approx(1.0)
        assert np.array_equal(skew, [[1.0, 3.0], [-3.0, 1.0]])


NONFINITE = [
    [[-1.0, 0.0], [0.0, np.nan]],  # LAPACK gives eigenvalues [0, -0] for this one
    [[np.nan, 0.0], [0.0, 1.0]],
    [[1.0, np.nan], [np.nan, 1.0]],
    [[np.inf, 0.0], [0.0, 1.0]],
    [[1.0, 0.0], [0.0, -np.inf]],
    [[1.0, np.inf], [np.inf, 1.0]],
    [[1.0, -np.inf], [-np.inf, 1.0]],
]


class TestNonFinite:
    @pytest.mark.parametrize("rows", NONFINITE)
    @pytest.mark.parametrize(
        "fn",
        [symlin.eigenvalues, symlin.eigensystem, symlin.is_psd, symlin.psd_rank, symlin.realize],
    )
    def test_refused(self, rows, fn):
        for a in (np.array(rows), SymmetricMatrix(rows, check=False)):
            with pytest.raises(ValueError, match="entries must be finite"):
                fn(a)


class TestRealize:
    def test_gram_of_realize_roundtrip(self):
        rng = rng_for(2, 5)
        p = rng.standard_normal((5, 3))
        g = SymmetricMatrix(p @ p.T, check=False)
        q = symlin.realize(g)
        assert np.max(np.abs(q @ q.T - g.array)) < 1e-8

    def test_psd_rank(self):
        rng = rng_for(3, 7)
        b = rng.standard_normal((7, 2))
        assert symlin.psd_rank(SymmetricMatrix(b @ b.T, check=False)) == 2

    def test_realize_deterministic(self):
        m = random_symmetric(6, seed=4)
        g = SymmetricMatrix(m.array @ m.array.T, check=False)
        assert np.array_equal(symlin.realize(g), symlin.realize(g))


class TestHadamard:
    def test_entrywise_product_preserves_psd(self):
        rng = rng_for(4, 5)
        a = rng.standard_normal((5, 3))
        b = rng.standard_normal((5, 3))
        ga = SymmetricMatrix(a @ a.T, check=False)
        gb = SymmetricMatrix(b @ b.T, check=False)
        prod = symlin.hadamard(ga, gb)
        assert np.array_equal(prod.array, ga.array * gb.array)
        assert symlin.is_psd(prod).is_psd
