"""Pattern combinatorics, certificate checks, and code bounds."""

from fractions import Fraction
from math import cos, isqrt, pi, sqrt

import numpy as np
import pytest

from spherepd import codebounds as cb
from spherepd.codebounds import (
    CertificateError,
    CodeProblem,
    PartitionPattern,
    Theorem61Result,
    code_audit,
    delsarte_bound,
    delsarte_lp,
    enumerate_patterns,
    estimate_B,
    greedy_code,
    pattern_of,
    pattern_of_x,
    poly_max_on_interval,
    q_omega,
    q_omega_brute,
    theorem61_bound,
    verify_nonpositive,
)
from spherepd.gegenbauer import gegenbauer_expansion
from spherepd.spherical import named_code


def _scan_reference(m, f0, f_diag, b_values):
    """The counting bound by evaluating the float residual at N = 2, 3, ...

    The same b_map, in the same order, and the same float expression as
    theorem61_bound, which must return what this scan returns.
    """
    d = m + 2
    b_map = dict.fromkeys(enumerate_patterns(d), 0.0)
    b_map[PartitionPattern((d,))] = f_diag
    for key, val in b_values.items():
        b_map[PartitionPattern(key)] = max(float(val), 0.0)

    def residual(big_n):
        rhs = sum(b * q_omega(omega, big_n) for omega, b in b_map.items())
        return rhs - f0 * float(big_n) ** (m + 1)

    n_max = 1
    while residual(n_max + 1) >= 0:
        n_max += 1
    return Theorem61Result(
        n_max=n_max,
        residual_at_n=residual(n_max),
        residual_at_next=residual(n_max + 1),
        ratio=f_diag / f0 if m == 0 else None,
    )


def _exact_residual(m, f0, f_diag, b_values, big_n):
    total = Fraction(f_diag) - Fraction(f0) * big_n ** (m + 1)
    for key, val in b_values.items():
        total += max(Fraction(val), Fraction(0)) * q_omega(PartitionPattern(key), big_n)
    return total


def _random_counting_config(m, rng):
    """Non-dyadic inputs with N_max up to about 2000.

    Every other config moves f_diag to within a few ulps of a float tie
    at a random N, where the exact and the float residual can disagree
    in sign.
    """
    f0 = float(rng.uniform(0.05, 3.0))
    target = float(10 ** rng.uniform(0.3, 3.3))
    if m == 0:
        b_values = {}
    elif m == 1:
        b_values = {(2, 1): f0 * target * float(rng.uniform(0.5, 1.5)) / 3}
    else:
        b_values = {
            (2, 1, 1): f0 * target * float(rng.uniform(0.5, 1.5)) / 6,
            (3, 1): float(rng.uniform(-1.0, 3.0)),
            (2, 2): float(rng.uniform(-1.0, 3.0)),
        }
    if rng.random() < 0.5:
        f_diag = float(rng.uniform(-2.0, 5.0)) * f0 + (f0 * target if m == 0 else 0.0)
    else:
        n0 = int(target)
        rest = sum(max(v, 0.0) * q_omega(PartitionPattern(k), n0) for k, v in b_values.items())
        f_diag = f0 * float(n0) ** (m + 1) - rest
        f_diag += int(rng.integers(-2, 3)) * abs(f_diag) * 2.0**-52
    return m, f0, f_diag, b_values


class TestPatterns:
    def test_partition_counts(self):
        # partition numbers p(1)..p(7)
        expected = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15}
        for d, count in expected.items():
            assert len(enumerate_patterns(d)) == count

    def test_pattern_of(self):
        assert pattern_of([1, 2, 1, 3]).parts == (2, 1, 1)
        assert pattern_of([7, 7, 7]).parts == (3,)
        assert pattern_of(range(5)).parts == (1, 1, 1, 1, 1)

    def test_invalid_parts(self):
        with pytest.raises(ValueError):
            PartitionPattern((1, 2))  # not weakly decreasing
        with pytest.raises(ValueError):
            PartitionPattern((0,))


class TestQOmega:
    def test_known_closed_forms(self):
        for big_n in (1, 2, 5, 8):
            assert q_omega(PartitionPattern((2,)), big_n) == 1
            assert q_omega(PartitionPattern((1, 1)), big_n) == big_n - 1
            assert q_omega(PartitionPattern((3,)), big_n) == 1
            assert q_omega(PartitionPattern((2, 1)), big_n) == 3 * (big_n - 1)
            assert q_omega(PartitionPattern((1, 1, 1)), big_n) == (big_n - 1) * (big_n - 2)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_brute_enumeration(self, d):
        for big_n in range(1, 9):
            for omega in enumerate_patterns(d):
                assert q_omega(omega, big_n) == q_omega_brute(omega, big_n)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_total_count_identity(self, d):
        for big_n in range(1, 9):
            total = sum(q_omega(omega, big_n) for omega in enumerate_patterns(d))
            assert total == big_n ** (d - 1)


class TestPatternOfX:
    def test_all_merged(self):
        assert pattern_of_x([1.0, 1.0, 1.0], 3, pi / 2).parts == (3,)

    def test_all_distinct(self):
        assert pattern_of_x([0.0, -0.3, 0.2], 3, pi / 3).parts == (1, 1, 1)

    def test_one_merged_pair(self):
        assert pattern_of_x([1.0, 0.1, 0.1], 3, pi / 3).parts == (2, 1)

    def test_forbidden_gap(self):
        with pytest.raises(ValueError, match="forbidden"):
            pattern_of_x([0.8, 0.0, 0.0], 3, pi / 3)


class TestVerifyNonpositive:
    def test_t_times_t_plus_one(self):
        assert verify_nonpositive([0.0, 1.0, 1.0], pi / 2)

    def test_linear_positive_at_cap(self):
        assert not verify_nonpositive([1.0, 1.0], 2.0)

    def test_negated_square(self):
        c = cos(pi / 3)
        # -(t - cos theta)^2
        assert verify_nonpositive([-(c**2), 2 * c, -1.0], pi / 3)

    def test_interior_spike_caught(self):
        # positive bump hidden between likely grid points
        center = -0.123456789
        coeffs = np.polynomial.polynomial.polyfromroots([center - 1e-7, center + 1e-7])
        assert not verify_nonpositive(-coeffs + np.array([1e-10, 0, 0]), pi / 2)

    def test_maximum_next_to_minimum(self):
        # f = 1e-6 - 1e12 t^2 ((t - 1.5e-4)^2 + 1e-10): the maximum f(0) = 1e-6
        # lies 1.5e-4 from a local minimum, inside one cell of a 10^4-point grid
        coeffs = [1e-6, 0.0, -1e12 * (2.25e-8 + 1e-10), 3e8, -1e12]
        assert poly_max_on_interval(coeffs, -1.0, 1.0) >= 1e-6 - 1e-15
        assert not verify_nonpositive(coeffs, 1e-9)


class TestPolyMaxOnInterval:
    def test_matches_dense_evaluation(self):
        # never below the best of 10^5 evaluations, and above it by no
        # more than the curvature between them allows
        rng = np.random.default_rng(20240601)
        for _ in range(300):
            coeffs = rng.standard_normal(int(rng.integers(2, 32)))
            lo, hi = np.sort(rng.uniform(-1.0, 1.0, 2))
            dense = np.max(np.polynomial.polynomial.polyval(np.linspace(lo, hi, 10**5), coeffs))
            scale = np.sum(np.abs(coeffs))
            top = poly_max_on_interval(coeffs, lo, hi)
            assert dense - 1e-13 * scale <= top <= dense + 1e-8 * scale

    def test_tiny_leading_coefficient(self):
        # a leading coefficient 1e-30 of the others must not hide the maximum
        rng = np.random.default_rng(3)
        coeffs = np.append(rng.standard_normal(11), 1e-30)
        dense = np.max(np.polynomial.polynomial.polyval(np.linspace(-1.0, 0.5, 10**5), coeffs))
        assert poly_max_on_interval(coeffs, -1.0, 0.5) >= dense - 1e-13 * np.sum(np.abs(coeffs))

    def test_degenerate_interval_and_constant(self):
        assert poly_max_on_interval([1.0, 2.0, -3.0], 0.5, 0.5) == 1.25
        assert poly_max_on_interval([-2.0], -1.0, 1.0) == -2.0

    @pytest.mark.parametrize(
        "coeffs, lo, hi, reason",
        [
            ([], -1.0, 1.0, "coefficients"),
            ([0.0, float("nan")], -1.0, 1.0, "finite"),
            ([float("inf"), 1.0], -1.0, 1.0, "finite"),
            ([1.0] * 66, -1.0, 1.0, "coefficients"),
            ([1.0, 1.0], -1.0, float("inf"), "interval"),
            ([1.0, 1.0], 0.5, -0.5, "interval"),
        ],
    )
    def test_input_errors(self, coeffs, lo, hi, reason):
        with pytest.raises(ValueError, match=reason):
            poly_max_on_interval(coeffs, lo, hi)


class TestDelsarteBound:
    def test_quadratic_certificate_gives_2n(self):
        for n in range(3, 9):
            bound = delsarte_bound([0.0, 1.0, 1.0], n, pi / 2)
            assert bound == pytest.approx(2 * n, abs=1e-9)

    def test_linear_certificate_antipodal(self):
        assert delsarte_bound([1.0, 1.0], 4, pi) == pytest.approx(2.0, abs=1e-12)

    def test_scaling_invariance(self):
        b1 = delsarte_bound([0.0, 1.0, 1.0], 5, pi / 2)
        b2 = delsarte_bound([0.0, 17.0, 17.0], 5, pi / 2)
        assert b1 == pytest.approx(b2, rel=1e-14)

    def test_refuses_positive_region(self):
        for scale in (1.0, 1e-13):
            with pytest.raises(CertificateError, match="positive somewhere"):
                delsarte_bound([0.0, scale, scale], 4, pi / 3)

    def test_refuses_negative_expansion(self):
        # G_1 - G_2 has a negative expansion coefficient
        n = 4
        g2 = np.array([-1.0 / (n - 1), 0.0, n / (n - 1)])
        coeffs = np.array([0.5, 1.0, 0.0]) - g2
        for scale in (1.0, 1e-13):
            with pytest.raises(CertificateError, match="negative"):
                delsarte_bound(scale * coeffs, n, pi / 2)

    def test_huge_certificate_keeps_its_bound(self):
        # f(1) = 2e308 overflows; f(1) / f0 is 2n
        assert delsarte_bound([0.0, 1e308, 1e308], 4, pi / 2) == pytest.approx(8.0, rel=1e-14)

    @pytest.mark.parametrize(
        "coeffs", [[], [0.0, float("nan")], [0.0, 1.0, float("-inf")], 5.0, [[1.0]], "12", {}]
    )
    def test_bad_coefficients_are_input_errors(self, coeffs):
        with pytest.raises(ValueError) as info:
            delsarte_bound(coeffs, 4, pi / 2)
        assert not isinstance(info.value, CertificateError)


class TestDelsarteLp:
    def test_orthogonal_angle_matches_cross_polytope(self):
        for n in (3, 4, 6):
            cert = delsarte_lp(n, pi / 2, degree=4, grid_size=512)
            assert 2 * n - 1e-9 <= cert.bound <= 2 * n + 1e-6
            witness = named_code(f"cross_polytope({n})")
            assert code_audit(witness, pi / 2)
            assert witness.size <= cert.bound + 1e-9

    def test_kissing_angle_dimension_three(self):
        cert = delsarte_lp(3, pi / 3, degree=9, grid_size=1024)
        assert 12.0 <= cert.bound < 14.0
        witness = named_code("icosahedron")
        assert code_audit(witness, pi / 3)

    def test_degree_monotone(self):
        b1 = delsarte_lp(4, pi / 3, degree=6, grid_size=512).bound
        b2 = delsarte_lp(4, pi / 3, degree=10, grid_size=512).bound
        assert b2 <= b1 + 1e-9

    def test_certificate_recomputes_bound(self):
        cert = delsarte_lp(5, pi / 2, degree=6, grid_size=512)
        coeffs = np.array(cert.coefficients)
        from spherepd.gegenbauer import gegenbauer_expansion

        exp = gegenbauer_expansion(coeffs, 5)
        assert cert.bound == pytest.approx(coeffs.sum() / exp[0], rel=1e-10)


class TestTheorem61:
    def test_m0_matches_delsarte_bitwise(self):
        from spherepd.gegenbauer import gegenbauer_expansion

        coeffs = [0.0, 1.0, 1.0]
        n = 6
        exp = gegenbauer_expansion(coeffs, n)
        direct = delsarte_bound(coeffs, n, pi / 2)
        res = theorem61_bound(0, float(exp[0]), float(np.sum(coeffs)), {})
        assert res.ratio == direct  # identical float division
        assert res.n_max == int(direct + 1e-9)

    def test_m1_reduction_formula(self):
        f0, f_diag, b = 0.25, 2.0, 1.5
        res = theorem61_bound(1, f0, f_diag, {(2, 1): b})
        big_n = res.n_max
        assert f0 * big_n**2 <= f_diag + 3 * (big_n - 1) * b + 1e-12
        assert f0 * (big_n + 1) ** 2 > f_diag + 3 * big_n * b

    def test_m2_zero_b_cube_root(self):
        res = theorem61_bound(2, 1.0, 100.0, {})
        assert res.n_max == 4  # floor of 100^(1/3)

    def test_negative_b_clamped(self):
        res_zero = theorem61_bound(1, 0.25, 2.0, {(2, 1): 0.0})
        res_neg = theorem61_bound(1, 0.25, 2.0, {(2, 1): -5.0})
        assert res_neg.n_max == res_zero.n_max

    def test_residual_signs(self):
        res = theorem61_bound(1, 0.25, 2.0, {(2, 1): 1.5})
        assert res.residual_at_n >= 0 > res.residual_at_next

    def test_rejects_bad_f0(self):
        with pytest.raises(ValueError):
            theorem61_bound(0, 0.0, 1.0, {})

    @pytest.mark.parametrize(
        "key, reason",
        [
            ((1, 2), "weakly decreasing"),  # not a valid pattern
            ((2, 1, 1), "sums to 4"),  # a pattern of d = 4, not m + 2 = 3
            ((3,), "all-merged"),  # its value is f_diag
            (PartitionPattern((3,)), "all-merged"),
        ],
    )
    def test_rejects_unmatched_key(self, key, reason):
        # a silently dropped supremum would understate the bound
        with pytest.raises(ValueError, match=reason):
            theorem61_bound(1, 0.25, 2.0, {key: 5.0})

    def test_pattern_and_tuple_keys_agree(self):
        by_tuple = theorem61_bound(1, 0.25, 2.0, {(2, 1): 5.0})
        by_pattern = theorem61_bound(1, 0.25, 2.0, {PartitionPattern((2, 1)): 5.0})
        assert by_tuple == by_pattern and by_tuple.n_max == 59

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_matches_scan_on_random_configs(self, m):
        rng = np.random.default_rng(6100 + m)
        for _ in range(100):
            cfg = _random_counting_config(m, rng)
            assert theorem61_bound(*cfg) == _scan_reference(*cfg), cfg

    def test_matches_scan_on_float_ties(self):
        # at n = 6 the float residual is 0.0 at N = 12 and the exact one
        # -2^-52: deciding the sign exactly would give N_max = 11
        for n in range(3, 41):
            cfg = (0, float(gegenbauer_expansion([0, 1, 1], n)[0]), 2.0, {})
            assert theorem61_bound(*cfg) == _scan_reference(*cfg), n

    def test_first_negative_residual_ends_the_search(self):
        # negative at N = 2 and positive from N = 3 on until about 118
        cfg = (1, 0.25, -31.0, {(2, 1): 10.0})
        assert _exact_residual(*cfg, 3) > 0
        res = theorem61_bound(*cfg)
        assert res == _scan_reference(*cfg)
        assert res.n_max == 1 and res.residual_at_next == -2.0

    def test_root_at_an_integer(self):
        # 46 + 6 (N - 1) - N^2 = -(N - 10)(N + 4)
        cfg = (1, 1.0, 46.0, {(2, 1): 2.0})
        res = theorem61_bound(*cfg)
        assert res == _scan_reference(*cfg)
        assert res.n_max == 10 and res.residual_at_n == 0.0

    def test_overflowing_float_parts_refused(self):
        # the right side overflows near N = 60, long before the exact root
        # near 3e6; the inequality is homogeneous in f0, f_diag and the
        # suprema, so the same config divided by 1e300 finds that root
        with pytest.raises(ValueError, match="overflows"):
            theorem61_bound(1, 1e300, 1.0, {(2, 1): 1e306})
        cfg = (1, 1.0, 1e-300, {(2, 1): 1e6})
        res = theorem61_bound(*cfg)
        assert res.n_max == 2_999_998
        assert _exact_residual(*cfg, res.n_max) >= 0 > _exact_residual(*cfg, res.n_max + 1)

    def test_m1_large_n_closed_form(self):
        # 2 + 3 b (N - 1) - N^2 / 4 >= 0 up to 6 b + sqrt(4 (9 b^2 + 2 - 3 b))
        b = 250_000
        res = theorem61_bound(1, 0.25, 2.0, {(2, 1): float(b)})
        assert res.n_max == 6 * b + isqrt(4 * (9 * b * b + 2 - 3 * b)) == 2_999_999
        # dyadic inputs this small keep every float step exact
        cfg = (1, 0.25, 2.0, {(2, 1): float(b)})
        assert res.residual_at_n == float(_exact_residual(*cfg, res.n_max))
        assert res.residual_at_next == float(_exact_residual(*cfg, res.n_max + 1))

    def test_m2_large_n_exact_signs(self):
        cfg = (2, 0.25, 2.0, {(2, 1, 1): 4166.75, (3, 1): 1.0, (2, 2): 0.5})
        res = theorem61_bound(*cfg)
        assert 99_000 < res.n_max < 101_000
        assert _exact_residual(*cfg, res.n_max) >= 0 > _exact_residual(*cfg, res.n_max + 1)

    def test_n_max_beyond_float_integers_refused(self):
        # the residual turns negative near 12 * 2^52
        with pytest.raises(ValueError, match=r"2\*\*53"):
            theorem61_bound(1, 0.25, 2.0, {(2, 1): 2.0**52})

    @pytest.mark.parametrize(
        "f0, f_diag, b",
        [
            (float("nan"), 2.0, 1.0),
            (float("inf"), 2.0, 1.0),
            (0.25, float("nan"), 1.0),
            (0.25, float("inf"), 1.0),
            (0.25, 2.0, float("nan")),
            (0.25, 2.0, float("inf")),
            (0.25, 2.0, float("-inf")),
        ],
    )
    def test_rejects_non_finite_inputs(self, f0, f_diag, b):
        with pytest.raises(ValueError, match="finite"):
            theorem61_bound(1, f0, f_diag, {(2, 1): b})

    def test_first_nonpositive_sturm_search(self):
        # -(2N - 11)^2 (N - 20) only touches zero at 5.5; -(N - 7)^2 (N - 20)
        # touches it at the integer 7
        touch_between = [2420, -1001, 124, -4]
        touch_at = [980, -329, 34, -1]
        assert cb._first_nonpositive(touch_between, cb._sturm(touch_between), 2) == 20
        assert cb._first_nonpositive(touch_at, cb._sturm(touch_at), 2) == 7
        assert cb._first_nonpositive(touch_at, cb._sturm(touch_at), 7) == 20


class TestEstimateB:
    def make_problem(self, n=4, theta=pi / 2, m=1):
        return CodeProblem(n=n, theta=theta, m=m, f=lambda g: float(np.sum(g)), f0=0.5)

    def test_all_merged_is_exact(self):
        prob = self.make_problem()
        val = estimate_B(PartitionPattern((3,)), prob, budget=10, seed=0)
        assert val == pytest.approx(9.0)

    def test_constant_function(self):
        prob = CodeProblem(n=4, theta=pi / 2, m=1, f=lambda g: 7.0, f0=1.0)
        assert estimate_B(PartitionPattern((2, 1)), prob, budget=50, seed=0) == 7.0

    def test_pairwise_maximum_approached(self):
        # d = 2, f = x12: the supremum over (1,1) is cos theta
        prob = CodeProblem(n=3, theta=pi / 3, m=0, f=lambda g: float(g[0, 1]), f0=1.0)
        val = estimate_B(PartitionPattern((1, 1)), prob, budget=4000, seed=1)
        assert val == pytest.approx(cos(pi / 3), abs=1e-3)
        assert val <= cos(pi / 3) + 1e-12

    def test_budget_monotone(self):
        prob = self.make_problem()
        lo = estimate_B(PartitionPattern((1, 1, 1)), prob, budget=100, seed=2)
        hi = estimate_B(PartitionPattern((1, 1, 1)), prob, budget=2000, seed=2)
        assert hi >= lo


class TestCodes:
    def test_greedy_respects_angle(self):
        for seed in (0, 1, 2):
            pts = greedy_code(4, pi / 3, seed)
            assert code_audit(pts, pi / 3)
            assert pts.size >= 2

    def test_greedy_deterministic(self):
        a = greedy_code(3, pi / 2, seed=5)
        b = greedy_code(3, pi / 2, seed=5)
        assert np.array_equal(a.coords, b.coords)

    def test_audit_thresholds(self):
        ico = named_code("icosahedron")
        assert code_audit(ico, float(np.arccos(1 / sqrt(5.0))))
        assert not code_audit(ico, pi / 2)
