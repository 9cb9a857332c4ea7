"""One-dimensional and multivariate Gegenbauer polynomials."""

from math import comb, gamma, pi, sqrt

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

    def test_monomial_vector_matches_loop(self):
        # the same products, one exponent tuple at a time
        rng = np.random.default_rng(5)
        for m in (1, 2, 4):
            x = rng.standard_normal(m)
            for d in (0, 1, 5):
                loop = [np.prod(x ** np.array(e)) for e in gg.monomial_exponents(m, d)]
                assert np.array_equal(gg.monomial_vector(x, d), loop)

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

    @staticmethod
    def harmonic_dim(nu, k):
        """Dimension of the degree-k spherical harmonics on S^(nu-1)."""
        return comb(k + nu - 1, nu - 1) - (comb(k + nu - 3, nu - 1) if k >= 2 else 0)

    @classmethod
    def closed_form_norm(cls, n, m, k):
        """line * ball in closed form: the line factor is the squared norm of
        G_k against (1-s^2)^((nu-3)/2) (h harmonics of degree k on S^(nu-1)),
        the ball factor the m-ball integral of (1-|x|^2)^p, squared."""
        nu = n - m
        line = sqrt(pi) * gamma((nu - 1) / 2) / gamma(nu / 2) / cls.harmonic_dim(nu, k)
        p = (nu - 2 + 2 * k) / 2
        ball = pi ** (m / 2) * gamma(p + 1) / gamma(p + 1 + m / 2)
        return line * ball**2

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_quadrature_norm_closed_form(self, m):
        # the diagonal is the only place a wrong ball exponent shows, as the
        # off-diagonal line factor is 0; n - m odd makes the exponent a
        # half-integer, which only a rule with (1-|x|^2)^p in its weight
        # integrates exactly.  The constant weight runs that rule.
        one = lambda u, v: np.ones(len(u))
        for n in range(m + 2, 9):
            for k in range(7):
                expected = self.closed_form_norm(n, m, k)
                got = gg.orthogonality_quad(n, m, k, k)
                assert got == pytest.approx(expected, rel=1e-12), (n, m, k)
                got = gg.orthogonality_quad(n, m, k, k, q=one)
                assert got == pytest.approx(expected, rel=1e-12), (n, m, k, "q")

    def test_homogeneity_identity(self):
        # _homogeneous(nu, k, s sqrt(e), e) = e^(k/2) G_k(s), the identity
        # that lets the quadrature integrate G_k in s alone
        rng = rng_for(61, 0)
        s = rng.uniform(-1.0, 1.0, size=200)
        e = np.concatenate([[0.0, 0.0, 1.0], rng.uniform(0.0, 1.0, size=197)])
        for nu in range(2, 10):
            for k in range(13):
                expected = e ** (k / 2) * gg.eval_1d(nu, k, s)
                got = gg._homogeneous(nu, k, s * np.sqrt(e), e)
                assert np.max(np.abs(got - expected)) < 1e-13, (nu, k)
                for i in range(4):  # the Python-float path, e = 0 included
                    got = gg._homogeneous(nu, k, float(s[i] * sqrt(e[i])), float(e[i]))
                    assert abs(got - expected[i]) < 1e-13, (nu, k, i)

    def test_weighted_orthogonality(self):
        # orthogonality survives a continuous positive weight in (u, v)
        q = lambda u, v: 1.0 + 0.5 * u[:, 0] * v[:, 0]
        val = gg.orthogonality_quad(6, 1, 1, 3, q=q)
        norm = abs(gg.orthogonality_quad(6, 1, 2, 2, q=q))
        assert abs(val) / norm < 1e-8

    def test_monte_carlo_zscore(self):
        est = gg.orthogonality_mc(5, 1, 1, 2, samples=200_000, seed=3)
        assert abs(est.estimate) < 4 * est.stderr

    def test_monte_carlo_chunk_streams(self):
        # 150 000 samples: two full 2^16 chunks and a short third one, chunk
        # i drawn from its own stream rng_for(seed, n, m, k, l, i)
        n, m, k, l, seed, samples = 5, 1, 1, 2, 3, 150_000
        vals = np.empty(samples)
        for i, lo in enumerate(range(0, samples, gg._MC_CHUNK)):
            chunk = vals[lo : lo + gg._MC_CHUNK]
            gg._mc_chunk(rng_for(seed, n, m, k, l, i), n, m, k, l, None, chunk)
        est = gg.orthogonality_mc(n, m, k, l, samples=samples, seed=seed)
        assert est.estimate == float(np.mean(vals))
        assert est.stderr == float(np.std(vals, ddof=1) / np.sqrt(samples))

    def test_monte_carlo_weight_sees_chunks_in_order(self):
        calls = []

        def f(u, v):
            calls.append(len(u))
            return np.ones(len(u))

        args = (5, 1, 1, 2)
        est = gg.orthogonality_mc(*args, f=f, samples=150_000, seed=3)
        assert calls == [65536, 65536, 150_000 - 2 * 65536]
        assert est == gg.orthogonality_mc(*args, samples=150_000, seed=3)

    @pytest.mark.parametrize("n,m,k", [(6, 1, 2), (5, 2, 1)])
    def test_monte_carlo_weighted_matches_quadrature(self, n, m, k):
        # the mean against the normalized measure is the quadrature divided
        # by its unweighted degree-0 value, the measure's total mass
        f = lambda u, v: 1.0 + 0.5 * u[:, 0] * v[:, 0] + u[:, 0] ** 2
        est = gg.orthogonality_mc(n, m, k, k, f=f, samples=200_000, seed=5)
        exact = gg.orthogonality_quad(n, m, k, k, q=f) / gg.orthogonality_quad(n, m, 0, 0)
        assert abs(est.estimate - exact) < 5 * est.stderr

    @pytest.mark.parametrize("n,k", [(3, 2), (5, 3)])
    def test_monte_carlo_norm(self, n, k):
        # at level 0, E[G_k(<x,y>)^2] = 1/h for h harmonics of degree k
        est = gg.orthogonality_mc(n, 0, k, k, samples=200_000, seed=11)
        assert abs(est.estimate - 1.0 / self.harmonic_dim(n, k)) < 5 * est.stderr

    def test_monte_carlo_rejects_tiny_samples(self):
        with pytest.raises(ValueError):
            gg.orthogonality_mc(5, 1, 1, 2, samples=10)
