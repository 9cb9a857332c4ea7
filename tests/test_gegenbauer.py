"""One-dimensional and multivariate Gegenbauer polynomials."""

import numpy as np
import pytest

from spherepd import gegenbauer as gg
from spherepd.randgen import rng_for


def sample_domain_triple(rng, m):
    """A random (t, u, v) inside the natural evaluation domain."""
    u = rng.uniform(-1.0, 1.0, size=m)
    v = rng.uniform(-1.0, 1.0, size=m)
    for w in (u, v):
        norm = np.linalg.norm(w)
        if norm >= 1.0:
            w *= rng.uniform(0.0, 0.99) / norm
    e = (1.0 - u @ u) * (1.0 - v @ v)
    t = float(u @ v) + rng.uniform(-1.0, 1.0) * np.sqrt(e)
    return t, u, v


class TestEval1d:
    def test_low_degrees(self):
        t = np.linspace(-1, 1, 11)
        assert np.allclose(gg.eval_1d(5, 0, t), 1.0)
        assert np.allclose(gg.eval_1d(5, 1, t), t)
        # degree 2: (n t^2 - 1) / (n - 1)
        for n in (3, 4, 7):
            assert np.allclose(gg.eval_1d(n, 2, t), (n * t**2 - 1) / (n - 1))

    def test_normalized_at_one(self):
        for n in range(3, 9):
            for k in range(9):
                assert gg.eval_1d(n, k, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_parity(self):
        t = np.linspace(-1, 1, 7)
        for k in range(6):
            vals = gg.eval_1d(6, k, t)
            assert np.allclose(vals, (-1.0) ** k * gg.eval_1d(6, k, -t))

    def test_bounded_by_one(self):
        t = np.linspace(-1, 1, 2001)
        for n in (3, 5, 8):
            for k in range(8):
                assert np.max(np.abs(gg.eval_1d(n, k, t))) <= 1.0 + 1e-12

    def test_weighted_orthogonality_1d(self):
        # quadrature against the weight (1-t^2)^((n-3)/2)
        n = 6
        # substitute t = cos(phi) so the weight becomes sin(phi)^(n-2),
        # which the trapezoid rule on a periodic extension nails
        phi = np.linspace(0.0, np.pi, 4001)
        weight = np.sin(phi) ** (n - 2)
        x = np.cos(phi)
        norm = float(np.trapezoid(gg.eval_1d(n, 1, x) ** 2 * weight, phi))
        for k in range(4):
            for l in range(4):
                val = float(
                    np.trapezoid(gg.eval_1d(n, k, x) * gg.eval_1d(n, l, x) * weight, phi)
                )
                if k != l:
                    assert abs(val) / norm < 1e-8
                else:
                    assert val > 1e-6


class TestCoeffs1d:
    def test_matches_recurrence_eval(self):
        t = np.linspace(-1, 1, 9)
        for n in (3, 5, 8):
            for k in range(7):
                c = gg.coeffs_1d(n, k).coeffs
                direct = sum(c[j] * t**j for j in range(k + 1))
                assert np.allclose(direct, gg.eval_1d(n, k, t), atol=1e-12)

    def test_parity_zeros(self):
        c = gg.coeffs_1d(5, 4).coeffs
        assert c[1] == 0.0 and c[3] == 0.0


class TestEvalMv:
    def test_level_zero_reduces_to_1d(self):
        for t in np.linspace(-1, 1, 7):
            assert gg.eval_mv(6, 0, 3, t) == pytest.approx(
                float(gg.eval_1d(6, 3, t)), abs=1e-14
            )

    def test_zero_uv_reduces_to_lower_dimension(self):
        m = 2
        for t in np.linspace(-1, 1, 7):
            val = gg.eval_mv(7, m, 4, t, np.zeros(m), np.zeros(m))
            assert val == pytest.approx(float(gg.eval_1d(7 - m, 4, t)), abs=1e-14)

    def test_division_form_inside_domain(self):
        rng = rng_for(10, 1)
        for _ in range(50):
            t, u, v = sample_domain_triple(rng, 2)
            e = (1.0 - u @ u) * (1.0 - v @ v)
            if e < 1e-4:
                continue
            arg = (t - u @ v) / np.sqrt(e)
            expected = e ** (3 / 2.0) * gg.eval_1d(5, 3, arg)
            assert gg.eval_mv(7, 2, 3, t, u, v) == pytest.approx(expected, abs=1e-12)

    def test_boundary_is_finite(self):
        u = np.array([1.0, 0.0])
        v = np.array([0.3, 0.1])
        val = gg.eval_mv(6, 2, 3, float(u @ v), u, v)
        assert np.isfinite(val)

    def test_degree_30_accuracy(self):
        # dimension parameter 3 is the Legendre case; a monomial-sum
        # evaluation loses about 1e-6 here, the recurrence stays at rounding
        from math import comb

        from scipy.special import eval_legendre

        k = 30
        x = np.linspace(-1.0, 1.0, 401)
        exact = eval_legendre(k, x)
        assert np.max(np.abs(gg.eval_1d(3, k, x) - exact)) < 1e-13
        level0 = np.array([gg.eval_mv(3, 0, k, float(t)) for t in x])
        assert np.max(np.abs(level0 - exact)) < 1e-13
        # level 1 of n = 4 is Legendre again, scaled by e^(k/2)
        u, v = np.array([0.3]), np.array([-0.2])
        e = (1.0 - u @ u) * (1.0 - v @ v)
        level1 = np.array(
            [gg.eval_mv(4, 1, k, float(u @ v + s * np.sqrt(e)), u, v) for s in x]
        )
        assert np.max(np.abs(level1 / e ** (k / 2) - exact)) < 1e-13
        # on the boundary |u| = 1 (e = 0) the value is the limit lead * d^k,
        # with lead = C(2k, k) / 2^k the leading Legendre coefficient
        lead = comb(2 * k, k) / 2**k
        u, v = np.array([1.0]), np.array([0.4])
        for t in np.linspace(-1.0, 1.0, 9):
            val = gg.eval_mv(4, 1, k, float(t), u, v)
            assert np.isfinite(val)
            assert val == pytest.approx(lead * (t - 0.4) ** k, rel=1e-13)

    def test_domain_gap(self):
        assert gg.domain_gap(0.0, [0.0], [0.0]) == pytest.approx(1.0)
        assert gg.in_domain(0.2, [0.1], [0.3])
        assert not gg.in_domain(0.9999, [0.9], [-0.9])


class TestMonomials:
    def test_counts(self):
        from math import comb

        for m in (1, 2, 3):
            for d in (0, 1, 3):
                assert len(gg.monomial_exponents(m, d)) == comb(m + d, d)

    def test_graded_lex_order(self):
        exps = gg.monomial_exponents(2, 2)
        assert exps == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))

    def test_monomial_vector(self):
        z = gg.monomial_vector([2.0, 3.0], 2)
        assert np.allclose(z, [1, 2, 3, 4, 6, 9])

    def test_z_outer_rank_one(self):
        zo = gg.z_outer([0.5], [0.25], 3)
        assert np.linalg.matrix_rank(zo) == 1


class TestAddition:
    def test_c0_is_one(self):
        for n in range(3, 9):
            for k in range(6):
                c = gg.addition_coefficients(n, k).c
                assert abs(c[0] - 1.0) < 1e-9

    def test_coefficients_positive(self):
        for n in (3, 5, 8):
            for k in range(6):
                assert min(gg.addition_coefficients(n, k).c) > 0.0

    def test_known_values(self):
        # n = 5, k = 2: projection of the classical identity gives
        # c = (1, 5/2, 15/16)
        c = gg.addition_coefficients(5, 2).c
        assert np.allclose(c, [1.0, 2.5, 0.9375], atol=1e-10)

    def test_closed_form_exact_values(self):
        assert gg.addition_coefficients(4, 4).c == pytest.approx(
            [1.0, 8.0, 56 / 5, 128 / 25, 128 / 175], rel=1e-15
        )
        assert gg.addition_coefficients(3, 4).c == pytest.approx(
            [1.0, 10.0, 45 / 4, 35 / 8, 35 / 64], rel=1e-15
        )

    def test_one_dimensional_identity(self):
        # G_k^(n)(cos a cos b + sin a sin b cos phi) = sum_s c[s]
        #   (sin a sin b)^s G_{k-s}^(n+2s)(cos a) G_{k-s}^(n+2s)(cos b) G_s^(n-1)(cos phi)
        for n in range(3, 9):
            for k in range(9):
                c = gg.addition_coefficients(n, k).c
                rng = rng_for(0x5EED, n, k)
                for _ in range(50):
                    a, b, phi = rng.uniform(0.1, np.pi - 0.1, size=3)
                    lhs = gg.eval_1d(
                        n, k, np.cos(a) * np.cos(b) + np.sin(a) * np.sin(b) * np.cos(phi)
                    )
                    rhs = sum(
                        c[s]
                        * (np.sin(a) * np.sin(b)) ** s
                        * gg.eval_1d(n + 2 * s, k - s, np.cos(a))
                        * gg.eval_1d(n + 2 * s, k - s, np.cos(b))
                        * gg.eval_1d(n - 1, s, np.cos(phi))
                        for s in range(k + 1)
                    )
                    assert abs(lhs - rhs) < 1e-12

    def test_identity_residual_multivariate(self):
        for n, m, k in [(6, 2, 4), (5, 1, 5), (8, 6, 3), (4, 2, 5)]:
            assert gg.addition_residual(n, m, k, samples=50, seed=1) < 1e-9


class TestExpansion:
    def test_univariate_peeling(self):
        # t^2 in dimension 4: (1/4) G_0 + (3/4) G_2
        coeffs = gg.gegenbauer_expansion([0.0, 0.0, 1.0], 4)
        assert np.allclose(coeffs, [0.25, 0.0, 0.75], atol=1e-12)

    def test_roundtrip(self):
        rng = rng_for(11, 1)
        poly = rng.standard_normal(7)
        exp = gg.gegenbauer_expansion(poly, 5)
        t = np.linspace(-1, 1, 13)
        recon = sum(exp[k] * gg.eval_1d(5, k, t) for k in range(7))
        direct = np.polynomial.polynomial.polyval(t, poly)
        assert np.max(np.abs(recon - direct)) < 1e-10

    def test_expand_in_t_on_basis_element(self):
        # expanding G_3 itself returns the indicator of degree 3
        n, m = 6, 1
        fns = [gg._t_power_coefficient(n, m, 3, i) for i in range(4)]
        out = gg.expand_in_t(fns, n, m)
        u, v = np.array([0.3]), np.array([-0.2])
        for k, fk in enumerate(out):
            expected = 1.0 if k == 3 else 0.0
            assert fk(u, v) == pytest.approx(expected, abs=1e-10)


class TestOrthogonality:
    def test_quadrature_zero_off_diagonal(self):
        for n, m in [(5, 0), (6, 1), (7, 2)]:
            norm = abs(gg.orthogonality_quad(n, m, 2, 2))
            for k, l in [(0, 1), (1, 2), (2, 3), (1, 4)]:
                val = gg.orthogonality_quad(n, m, k, l)
                assert abs(val) / norm < 1e-8

    def test_quadrature_positive_norm(self):
        assert gg.orthogonality_quad(6, 1, 3, 3) > 0.0

    def test_weighted_orthogonality(self):
        # orthogonality survives a continuous positive weight in (u, v)
        q = lambda u, v: 1.0 + 0.5 * u[:, 0] * v[:, 0]
        val = gg.orthogonality_quad(6, 1, 1, 3, q=q)
        norm = abs(gg.orthogonality_quad(6, 1, 2, 2, q=q))
        assert abs(val) / norm < 1e-8

    def test_monte_carlo_zscore(self):
        est = gg.orthogonality_mc(5, 1, 1, 2, samples=200_000, seed=3)
        assert abs(est.estimate) < 4 * est.stderr

    def test_monte_carlo_rejects_tiny_samples(self):
        with pytest.raises(ValueError):
            gg.orthogonality_mc(5, 1, 1, 2, samples=10)
