"""One-dimensional and multivariate Gegenbauer polynomials."""

import tracemalloc
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


def _homogeneous_reference(nu, k, d, e):
    """The two loops _homogeneous replaced, kept verbatim as its reference.

    A Python-float loop for int and float input, and for arrays a loop that
    updates three work buffers in place.  _homogeneous must return what
    this returns, bit for bit and with the same result type.
    """
    if isinstance(d, (int, float)) and isinstance(e, (int, float)):
        d, e = float(d), float(e)
        if k == 0:
            return 1.0
        prev, cur = 1.0, d
        for j in range(2, k + 1):
            nxt = ((2 * j + nu - 4) * (d * cur) - (j - 1) * (e * prev)) / (j + nu - 3)
            prev, cur = cur, nxt
        return cur
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    shape = np.broadcast_shapes(d.shape, e.shape)
    cur = np.ones(shape) if k == 0 else np.array(np.broadcast_to(d, shape))
    if k >= 2:
        prev, tmp = np.ones(shape), np.empty(shape)
        for j in range(2, k + 1):
            np.multiply(d, cur, out=tmp)
            tmp *= 2 * j + nu - 4
            np.multiply(e, prev, out=prev)
            prev *= j - 1
            tmp -= prev
            tmp /= j + nu - 3
            prev, cur, tmp = cur, tmp, prev
    return cur if cur.ndim else float(cur)


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


class TestHomogeneous:
    def test_matches_reference_bit_for_bit(self):
        rng = rng_for(0x40E0, 1)
        r = 12
        d1 = rng.uniform(-2.0, 2.0, size=r)
        e1 = rng.uniform(0.0, 1.5, size=r)
        e1[:3] = 0.0
        d2 = rng.uniform(-2.0, 2.0, size=(r, r))
        e2 = rng.uniform(0.0, 1.5, size=(r, r))
        e2[:2] = 0.0  # whole rows on the boundary
        # the reference returns a Python float for each of these
        scalars = [(0.7, 0.3), (-1.3, 0.0), (2, 1), (np.float64(0.4), np.float64(0.9)),
                   (np.float64(0.5), 1.0), (np.array(0.5), 0.75)]
        for nu in range(2, 13):
            for k in range(31):
                cases = [(d1, e1), (d1, 0.6), (d2, e2), (d2, 0.0), (0.25, e2)] + scalars
                for d, e in cases:
                    got = gg._homogeneous(nu, k, d, e)
                    want = _homogeneous_reference(nu, k, d, e)
                    assert type(got) is type(want), (nu, k, type(d), type(e))
                    assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (
                        nu, k, np.shape(d), np.shape(e))

    def test_result_is_fresh_array_of_broadcast_shape(self):
        d = np.linspace(-1.0, 1.0, 6)
        for e, shape in [(0.5, (6,)), (np.full((4, 1), 0.5), (4, 6)), (np.ones(6), (6,))]:
            for k in range(4):
                got = gg._homogeneous(5, k, d, e)
                assert type(got) is np.ndarray and got.shape == shape, (k, shape)
                got[...] = 7.0
                assert np.array_equal(d, np.linspace(-1.0, 1.0, 6)), k


class TestHomogeneousUpto:
    @pytest.mark.parametrize("nu", [2, 3, 5, 24])
    @pytest.mark.parametrize("k", [0, 1, 2, 12, 30])
    def test_every_degree_matches_single_degree_bit_for_bit(self, nu, k):
        rng = rng_for(0x40E1, nu, k)
        d = rng.uniform(-2.0, 2.0, size=(5, 7))
        e = rng.uniform(0.0, 1.5, size=(5, 7))
        for args in [(0.7, 0.3), (-1.3, 0.0), (d, e), (d, 0.0), (d, np.zeros((5, 1)))]:
            values = list(gg._homogeneous_upto(nu, k, *args))
            assert len(values) == k + 1
            for j, got in enumerate(values):
                want = gg._homogeneous(nu, j, *args)
                assert type(got) is type(want), (nu, k, j)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (nu, k, j)
            # starting at lo yields the same tail
            for lo in sorted({0, k // 2, k}):
                tail = list(gg._homogeneous_upto(nu, k, *args, lo))
                assert len(tail) == k + 1 - lo
                for got, want in zip(tail, values[lo:]):
                    assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (k, lo)

    def test_yielded_arrays_are_distinct(self):
        d = np.linspace(-1.0, 1.0, 9)
        values = list(gg._homogeneous_upto(5, 6, d, 0.5))
        assert len({id(h) for h in values}) == 7
        assert not any(np.shares_memory(h, d) for h in values)

    @pytest.mark.parametrize("k,lo", [(-1, 0), (2, 3), (2, -1)])
    def test_degrees_out_of_order_are_value_errors(self, k, lo):
        with pytest.raises(ValueError, match="degrees"):
            list(gg._homogeneous_upto(5, k, 0.3, 0.5, lo))
        if lo == 0:
            with pytest.raises(ValueError, match="degrees"):
                gg._homogeneous(5, k, 0.3, 0.5)


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

    def test_stacked_rows_match_row_calls(self):
        rng = rng_for(0x57AC, 2)
        rows = 9
        for m in range(4):
            n = m + 4
            u = rng.uniform(-0.6, 0.6, size=(rows, m))
            v = rng.uniform(-0.6, 0.6, size=(rows, m))
            t = rng.uniform(-1.0, 1.0, size=rows)
            for k in range(6):
                got = gg.eval_mv(n, m, k, t, u, v)
                want = [gg.eval_mv(n, m, k, t[i], u[i], v[i]) for i in range(rows)]
                assert got.shape == (rows,)
                assert got.tobytes() == np.array(want).tobytes(), (m, k)
                assert all(type(x) is float for x in want)
                if m == 0:
                    continue
                for s in range(k + 1):
                    got = gg.addition_term(u, n, m, k, s)
                    want = [gg.addition_term(u[i], n, m, k, s) for i in range(rows)]
                    assert got.shape == (rows,)
                    assert got.tobytes() == np.array(want).tobytes(), (m, k, s)
                    assert all(type(x) is float for x in want)

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
        # expanding G_3 itself returns the indicator of degree 3; its t^i
        # coefficients at (u, v) come from fitting it at four values of t
        n, m = 6, 1
        ts = np.array([-0.9, -0.3, 0.4, 0.8])

        def t_power(i):
            def c(u, v):
                vals = [gg.eval_mv(n, m, 3, t, u, v) for t in ts]
                return np.polynomial.polynomial.polyfit(ts, vals, 3)[i]

            return c

        out = gg.expand_in_t([t_power(i) for i in range(4)], n, m)
        u, v = np.array([0.3]), np.array([-0.2])
        for k, fk in enumerate(out):
            expected = 1.0 if k == 3 else 0.0
            assert fk(u, v) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("n, m", [(6, 1), (7, 2), (5, 0)])
    def test_expand_in_t_identity_degree_16(self, n, m):
        # sum_k f_k basis_k = F at seeded points, one with |u| = 1 (e = 0)
        degree = 16
        rng = rng_for(3, n, m, degree)
        abc = rng.standard_normal((degree + 1, 3))
        fns = [
            lambda u, v, a=a: a[0] + a[1] * float(u @ v) + a[2] * float(u @ u) * float(v @ v)
            for a in abc
        ]
        out = gg.expand_in_t(fns, n, m)
        points = [sample_domain_triple(rng, m) for _ in range(10)]
        if m:
            points.append((0.3, np.eye(m)[0], np.full(m, 0.5 / m)))
        for t, u, v in points:
            terms = [fn(u, v) * t**i for i, fn in enumerate(fns)]
            expanded = sum(fk(u, v) * gg.eval_mv(n, m, k, t, u, v) for k, fk in enumerate(out))
            assert abs(expanded - sum(terms)) <= 1e-10 * sum(abs(x) for x in terms)

    @pytest.mark.parametrize("degree", [4, 8, 12, 16])
    def test_expand_in_t_calls_each_coefficient_once(self, degree):
        calls = []
        fns = [lambda u, v, i=i: calls.append(i) or 1.0 / (i + 1) for i in range(degree + 1)]
        f0 = gg.expand_in_t(fns, 6, 1)[0]
        f0(np.array([0.3]), np.array([-0.2]))
        assert len(calls) <= degree + 1

    def test_expansion_matches_peeling_loop(self):
        # the same operations as peeling whole basis polynomials off in turn
        rng = np.random.default_rng(9)
        for _ in range(300):
            n, degree = int(rng.integers(2, 30)), int(rng.integers(0, 31))
            p = rng.standard_normal(degree + 1)
            loop, rest = np.zeros(degree + 1), p.copy()
            for k in range(degree, -1, -1):
                basis = np.array(gg.coeffs_1d(n, k).coeffs)
                loop[k] = rest[k] / basis[k]
                rest[: k + 1] -= loop[k] * basis
            assert np.array_equal(gg.gegenbauer_expansion(p, n), loop)


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
                for i in range(4):  # Python floats, e = 0 included
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

    @staticmethod
    def hand_chunks(n, m, k, l, seed, samples):
        # chunk i drawn from its own stream rng_for(seed, n, m, k, l, i)
        sizes = [min(gg._MC_CHUNK, samples - lo) for lo in range(0, samples, gg._MC_CHUNK)]
        return [
            gg._mc_chunk(rng_for(seed, n, m, k, l, i), n, m, k, l, None, size)
            for i, size in enumerate(sizes)
        ]

    def test_monte_carlo_chunk_streams(self):
        # 150 000 samples: two full 2^16 chunks and a short third one, each
        # chunk's (count, mean, M2) merged in order by the documented rule
        n, m, k, l, seed, samples = 5, 1, 1, 2, 3, 150_000
        count, mean, m2 = 0, 0.0, 0.0
        for x in self.hand_chunks(n, m, k, l, seed, samples):
            a = float(np.mean(x))
            total = count + len(x)
            delta = a - mean
            mean += delta * len(x) / total
            m2 += float((x - a) @ (x - a)) + delta * delta * count * len(x) / total
            count = total
        est = gg.orthogonality_mc(n, m, k, l, samples=samples, seed=seed)
        assert est.estimate == mean
        assert est.stderr == sqrt(m2 / (samples - 1)) / sqrt(samples)

    @pytest.mark.parametrize("n,m,k,l", [(5, 1, 1, 2), (4, 0, 3, 3), (5, 3, 2, 4)])
    def test_monte_carlo_moments_match_all_samples(self, n, m, k, l):
        # the merged moments against np.mean and np.std over every value
        seed, samples = 3, 200_000
        x = np.concatenate(self.hand_chunks(n, m, k, l, seed, samples))
        est = gg.orthogonality_mc(n, m, k, l, samples=samples, seed=seed)
        assert est.estimate == pytest.approx(float(np.mean(x)), rel=1e-14, abs=0)
        expected = float(np.std(x, ddof=1) / np.sqrt(samples))
        assert est.stderr == pytest.approx(expected, rel=1e-14, abs=0)

    def test_monte_carlo_memory_independent_of_samples(self):
        # only one chunk is live at a time; an array of every value would
        # add 8 B per sample, 7 MB over these 7 * 2^17 extra samples
        def peak(samples):
            tracemalloc.start()
            try:
                gg.orthogonality_mc(5, 1, 1, 2, samples=samples, seed=3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small = peak(1 << 17)
        assert peak(1 << 20) - small < 1 << 20

    @pytest.mark.parametrize(
        "n,m,k,l", [(5, 1, 1, 2), (5, 3, 2, 4), (4, 0, 3, 3), (6, 1, 7, 0), (5, 2, 0, 0)]
    )
    @pytest.mark.parametrize("weighted", [False, True])
    def test_monte_carlo_chunk_bit_identical_to_two_passes(self, n, m, k, l, weighted):
        # the in-place forms and the shared recurrence pass change no value:
        # out-of-place d and e, and one _homogeneous call per degree
        f = (lambda u, v: 1.0 + 0.5 * u[:, 0] * v[:, 0]) if weighted and m else None
        rng = rng_for(9, n, m, k, l, 2)
        gx = rng.standard_normal((1234, n))
        gy = rng.standard_normal((1234, n))
        sx = 1.0 / np.einsum("ij,ij->i", gx, gx)
        sy = 1.0 / np.einsum("ij,ij->i", gy, gy)
        ux, uy = gx[:, :m], gy[:, :m]
        d = np.einsum("ij,ij->i", gx[:, m:], gy[:, m:]) * np.sqrt(sx * sy)
        e = (1.0 - np.einsum("ij,ij->i", ux, ux) * sx) * (1.0 - np.einsum("ij,ij->i", uy, uy) * sy)
        expected = gg._homogeneous(n - m, k, d, e) * gg._homogeneous(n - m, l, d, e)
        if f is not None:
            expected *= f(ux * np.sqrt(sx)[:, None], uy * np.sqrt(sy)[:, None])
        got = gg._mc_chunk(rng_for(9, n, m, k, l, 2), n, m, k, l, f, 1234)
        assert np.array_equal(got, expected)

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
