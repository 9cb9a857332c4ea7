"""Symmetric-matrix utilities: eigensolver, PSD checks, realization."""

import numpy as np
import pytest

from spherepd import symlin
from spherepd.randgen import rng_for
from spherepd.symlin import SymmetricMatrix


def random_symmetric(dim, seed, scale=1.0):
    rng = rng_for(seed, dim)
    a = rng.standard_normal((dim, dim)) * scale
    return SymmetricMatrix(0.5 * (a + a.T))


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

    def test_exactly_symmetric_input_kept_bit_for_bit(self):
        for a in (np.array([[-0.0, 1.5], [1.5, 2.0]]), np.array([[1.0, -0.0], [-0.0, 1.0]]),
                  random_symmetric(6, seed=12).array.copy()):
            assert SymmetricMatrix(a).array.tobytes() == a.tobytes()

    def test_mirrored_zeros_of_opposite_sign_stored_alike(self):
        # -0.0 == 0.0 as floats, so only a bitwise test sees that the two
        # triangles disagree; such input is mirrored like any near-symmetric one
        m = SymmetricMatrix([[1.0, -0.0], [0.0, 1.0]])
        assert np.array_equal(np.signbit(m.array), np.signbit(m.array.T))

    def test_input_not_aliased(self):
        a = np.eye(3)
        m = SymmetricMatrix(a)
        a[0, 1] = a[1, 0] = 7.0
        assert np.array_equal(m.array, np.eye(3))
        assert a.flags.writeable

    def test_near_symmetric_input_mirrors_upper_triangle(self):
        a = random_symmetric(5, seed=13).array.copy()
        a[3, 1] += 1e-13
        a[0, 4] -= 1e-13
        expected = np.triu(a) + np.triu(a, 1).T
        assert SymmetricMatrix(a).array.tobytes() == expected.tobytes()

    def test_symmetric_matrix_input_reused(self):
        m = random_symmetric(4, seed=14)
        assert SymmetricMatrix(m).array is m.array

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
        m = SymmetricMatrix(a * np.eye(dim) + b * np.ones((dim, dim)))
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
        rep = symlin.is_psd(SymmetricMatrix(b @ b.T))
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
        # a plain array meets SymmetricMatrix's rule: one equal to its
        # transpose bit for bit is read as it is, without a copy
        rng = rng_for(5, 6)
        b = rng.standard_normal((6, 3))
        g = b @ b.T
        g = np.triu(g) + np.triu(g, 1).T
        assert symlin._as_array(g) is g
        assert symlin.is_psd(g) == symlin.is_psd(SymmetricMatrix(g))

    def test_near_symmetric_plain_array_is_mirrored(self):
        # one entry off by 1e-13 of the largest: the upper triangle is
        # mirrored into a new array, as SymmetricMatrix stores it
        rng = rng_for(6, 6)
        b = rng.standard_normal((6, 6))
        a = b + b.T
        a[4, 1] += 1e-13 * np.max(np.abs(a))
        assert a[4, 1] != a[1, 4]
        given = a.copy()
        got, want = symlin.is_psd(a), symlin.is_psd(SymmetricMatrix(a))
        assert got.min_eigenvalue.hex() == want.min_eigenvalue.hex()
        assert got.matrix_scale.hex() == want.matrix_scale.hex()
        assert got.is_psd == want.is_psd
        assert symlin._as_array(a).tobytes() == SymmetricMatrix(a).array.tobytes()
        assert a.tobytes() == given.tobytes()

    @pytest.mark.parametrize(
        "fn",
        [symlin.eigenvalues, symlin.eigensystem, symlin.is_psd, symlin.psd_rank, symlin.realize],
        ids=["eigenvalues", "eigensystem", "is_psd", "psd_rank", "realize"],
    )
    def test_asymmetric_plain_array_refused(self, fn):
        # its symmetric part is the identity, which would pass as PSD
        with pytest.raises(ValueError, match="input matrix is not symmetric"):
            fn(np.array([[1.0, 3.0], [-3.0, 1.0]]))

    @pytest.mark.parametrize("s", [1.0, 5.0])
    def test_verdict_at_threshold(self, s):
        # the verdict is min_eigenvalue >= threshold: equality passes and
        # one ulp lower fails
        rep = symlin.is_psd(np.diag([-1e-8 * s, s]))
        assert rep.min_eigenvalue == rep.threshold
        assert rep.is_psd
        below = symlin.is_psd(np.diag([np.nextafter(-1e-8 * s, -np.inf), s]))
        assert below.threshold == rep.threshold
        assert not below.is_psd


class TestLowerReports:
    """_lower_reports: one eigvalsh call on a stack, reading lower triangles."""

    @staticmethod
    def stack(seed, count, dim):
        rng = rng_for(seed, count, dim)
        b = rng.standard_normal((count, dim, dim - 1))
        return b @ b.transpose(0, 2, 1) - 0.1 * np.eye(dim)  # not all PSD

    @pytest.mark.parametrize("count,dim", [(1, 1), (1, 7), (5, 6), (9, 40)])
    def test_equals_is_psd_of_each_matrix(self, count, dim):
        stack = self.stack(1, count, dim)
        want = [symlin.is_psd(SymmetricMatrix(a)) for a in stack]
        assert symlin._lower_reports(stack, symlin.DEFAULT_TOL) == want

    @pytest.mark.parametrize("count,dim", [(1, 7), (5, 6), (9, 40)])
    def test_upper_triangles_are_not_read(self, count, dim):
        # what the kernel stacks rely on: their upper triangles are zeros
        stack = self.stack(2, count, dim)
        want = [symlin.is_psd(SymmetricMatrix(a)) for a in stack]
        upper = np.triu(np.ones((dim, dim), dtype=bool), 1)
        for fill in (0.0, 1e6, -3.5):
            other = stack.copy()
            other[:, upper] = fill
            assert symlin._lower_reports(other, symlin.DEFAULT_TOL) == want
        other = stack.copy()
        other[:, upper] = rng_for(3, count, dim).standard_normal((count, upper.sum()))
        assert symlin._lower_reports(other, symlin.DEFAULT_TOL) == want

    def test_non_finite_refused(self):
        stack = self.stack(4, 3, 5)
        stack[2, 3, 1] = np.nan
        with pytest.raises(ValueError, match="entries must be finite"):
            symlin._lower_reports(stack, symlin.DEFAULT_TOL)


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
        for a in (np.array(rows), SymmetricMatrix(rows)):
            with pytest.raises(ValueError, match="entries must be finite"):
                fn(a)


class TestEmpty:
    @pytest.mark.parametrize(
        "fn",
        [symlin.eigenvalues, symlin.eigensystem, symlin.is_psd, symlin.psd_rank, symlin.realize,
         SymmetricMatrix],
    )
    def test_refused(self, fn):
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            fn(np.zeros((0, 0)))


class TestRealize:
    def test_gram_of_realize_roundtrip(self):
        rng = rng_for(2, 5)
        p = rng.standard_normal((5, 3))
        g = SymmetricMatrix(p @ p.T)
        q = symlin.realize(g)
        assert np.max(np.abs(q @ q.T - g.array)) < 1e-8

    def test_psd_rank(self):
        rng = rng_for(3, 7)
        b = rng.standard_normal((7, 2))
        assert symlin.psd_rank(SymmetricMatrix(b @ b.T)) == 2

    def test_realize_deterministic(self):
        m = random_symmetric(6, seed=4)
        g = SymmetricMatrix(m.array @ m.array.T)
        assert np.array_equal(symlin.realize(g), symlin.realize(g))
