"""Upper bounds for spherical codes.

Combinatorial counting of index-collision patterns, suprema of
certificate functions over constrained Gram configurations, the
generalized counting bound for levels m = 0, 1, 2, and a discretized
linear program optimizing the classical m = 0 bound with post-hoc
certificate verification.

The counting bound is read off its residual, a polynomial in the code
size N of degree m + 1 with exact dyadic coefficients: Sturm sequences
locate its sign changes in integer arithmetic, so the cost does not
depend on N, and the float residual is evaluated only where rounding
could flip its sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import cos, factorial, isfinite, isinf, lcm

import numpy as np

from .gegenbauer import coeffs_1d, eval_1d, gegenbauer_expansion
from .randgen import rng_for
from .simplex import solve_lp
from .spherical import PointConfiguration

__all__ = [
    "PartitionPattern",
    "CodeProblem",
    "BoundCertificate",
    "Theorem61Result",
    "CertificateError",
    "enumerate_patterns",
    "pattern_of",
    "q_omega",
    "q_omega_brute",
    "pattern_of_x",
    "estimate_B",
    "verify_nonpositive",
    "poly_max_on_interval",
    "delsarte_bound",
    "delsarte_lp",
    "theorem61_bound",
    "code_audit",
    "greedy_code",
]

MAX_PATTERN_D = 12
BRUTE_LIMIT = 10_000_000
FLOAT_INT_LIMIT = 2**53  # every integer up to here is exact as a float


class CertificateError(ValueError):
    """A certificate precondition failed; the message names the condition."""


@dataclass(frozen=True, order=True)
class PartitionPattern:
    """Weakly decreasing positive part sizes summing to d."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        if not parts or any(p <= 0 for p in parts):
            raise ValueError("parts must be positive")
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError("parts must be weakly decreasing")
        object.__setattr__(self, "parts", parts)

    @property
    def d(self) -> int:
        return sum(self.parts)

    @property
    def blocks(self) -> int:
        return len(self.parts)


def enumerate_patterns(d: int) -> set[PartitionPattern]:
    """All integer partitions of d in weakly decreasing form."""
    if d < 1 or d > MAX_PATTERN_D:
        raise ValueError(f"d must be in [1, {MAX_PATTERN_D}]")

    def gen(rest: int, cap: int):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, cap), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail

    return {PartitionPattern(p) for p in gen(d, d)}


def pattern_of(j_vector) -> PartitionPattern:
    """Multiset of equal-value group sizes, sorted weakly decreasing."""
    counts: dict = {}
    for j in j_vector:
        counts[j] = counts.get(j, 0) + 1
    return PartitionPattern(tuple(sorted(counts.values(), reverse=True)))


def _arrangements(omega: PartitionPattern) -> int:
    """Set partitions of d labelled slots into blocks of the pattern's sizes.

    d! / prod(p!) / prod(multiplicity!): the blocks are unordered, so
    equal-sized blocks are not told apart.
    """
    count = factorial(omega.d)
    for p in omega.parts:
        count //= factorial(p)
    mult: dict = {}
    for p in omega.parts:
        mult[p] = mult.get(p, 0) + 1
    for c in mult.values():
        count //= factorial(c)
    return count


def q_omega(omega: PartitionPattern, big_n: int) -> int:
    """Closed-form collision count, divided by N.

    The number of index vectors in {1..N}^d with collision pattern omega
    is (set partitions of the d slots with these block sizes) times the
    falling factorial of N over the number of blocks; division by N is
    exact.
    """
    if big_n < 1:
        raise ValueError("N must be >= 1")
    falling = 1
    for i in range(1, omega.blocks):  # falling factorial / N
        falling *= big_n - i
    return _arrangements(omega) * falling


def _q_poly(omega: PartitionPattern) -> list[int]:
    """q_omega as a polynomial in N: integer coefficients, ascending powers."""
    poly = [_arrangements(omega)]
    for i in range(1, omega.blocks):  # times (N - i)
        poly = [shifted - i * c for c, shifted in zip(poly + [0], [0] + poly)]
    return poly


def q_omega_brute(omega: PartitionPattern, big_n: int) -> int:
    """Direct enumeration oracle over {1..N}^d (guarded by N^d size)."""
    d = omega.d
    if big_n**d > BRUTE_LIMIT:
        raise ValueError("enumeration too large")
    count = sum(
        1 for j in product(range(1, big_n + 1), repeat=d) if pattern_of(j) == omega
    )
    if count % big_n:
        raise ArithmeticError("collision count not divisible by N")
    return count // big_n


def _pair_index(d: int):
    return [(i, j) for i in range(d) for j in range(i + 1, d)]


def pattern_of_x(x, d: int, theta: float) -> PartitionPattern:
    """Collision pattern of a pairwise-entry vector in the feasible set.

    x lists the entries x_ij for i < j in lexicographic order; each entry
    must lie in [-1, cos theta] or equal 1.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    pairs = _pair_index(d)
    if x.size != len(pairs):
        raise ValueError(f"need {len(pairs)} pairwise entries for d={d}")
    c = cos(theta)
    bad = [(i + 1, j + 1) for (i, j), v in zip(pairs, x) if c + 1e-12 < v < 1 - 1e-12]
    if bad:
        raise ValueError(f"entries in the forbidden gap (cos theta, 1) at {bad}")
    entry = {p: v for p, v in zip(pairs, x)}
    j_vec = []
    for k in range(d):
        jk = k
        for i in range(k):
            if entry[(i, k)] >= 1 - 1e-12:
                jk = j_vec[i]
                break
        j_vec.append(jk)
    return pattern_of(j_vec)


@dataclass(frozen=True)
class CodeProblem:
    """A bound computation instance.

    f is the certificate: a callable taking the d x d matrix of inner
    products (d = m + 2) and returning a float.  f0 is its positive
    constant term in the relevant expansion.
    """

    n: int
    theta: float
    m: int
    f: object
    f0: float

    def __post_init__(self):
        if not 0.0 < self.theta < np.pi:
            raise ValueError("theta must be in (0, pi)")
        if self.f0 <= 0:
            raise ValueError("constant term f0 must be positive")
        if self.m not in (0, 1, 2):
            raise ValueError("closed-form bounds cover m in {0, 1, 2} only")


@dataclass(frozen=True)
class BoundCertificate:
    bound: float
    per_omega: dict
    verification: tuple[str, ...]
    coefficients: tuple[float, ...] = ()  # monomial basis, ascending powers
    expansion: tuple[float, ...] = ()  # f_k in the orthogonal basis


@dataclass(frozen=True)
class Theorem61Result:
    n_max: int
    residual_at_n: float
    residual_at_next: float
    ratio: float | None  # f_diag / f0 for the m = 0 reduction, else None


def _gram_from_x(x: np.ndarray, d: int) -> np.ndarray:
    a = np.eye(d)
    for (i, j), v in zip(_pair_index(d), x):
        a[i, j] = a[j, i] = v
    return a


def _x_from_points(assign: list[int], pts: np.ndarray, d: int) -> np.ndarray:
    out = []
    for i, j in _pair_index(d):
        if assign[i] == assign[j]:
            out.append(1.0)
        else:
            out.append(float(pts[assign[i]] @ pts[assign[j]]))
    return np.array(out)


def estimate_B(
    omega: PartitionPattern, problem: CodeProblem, budget: int, seed: int
) -> float:
    """Heuristic maximum of the certificate over the pattern's domain.

    Samples unit-vector tuples realizing the collision pattern (which
    guarantees Gram positivity), rejects tuples violating the angle cap,
    and runs a simple coordinate-ascent polish.  The result is a certified
    LOWER estimate of the supremum; it is exact for the all-merged
    pattern.
    """
    d = problem.m + 2
    if omega.d != d:
        raise ValueError(f"pattern sums to {omega.d}, expected {d}")
    if d > 6:
        raise ValueError("pattern dimension too large")
    if omega.parts == (d,):
        return float(problem.f(_gram_from_x(np.ones(d * (d - 1) // 2), d)))
    c = cos(problem.theta)
    k = omega.blocks
    assign = []
    for b, size in enumerate(omega.parts):
        assign.extend([b] * size)
    rng = rng_for(seed, d, k)

    def draw() -> np.ndarray | None:
        for _ in range(200):
            pts = rng.standard_normal((k, d))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            g = pts @ pts.T
            if np.max(g[~np.eye(k, dtype=bool)]) <= c:
                return pts
        return None

    best = -np.inf
    pts_best = None
    for _ in range(max(budget // 10, 1)):
        pts = draw()
        if pts is None:
            continue
        val = float(problem.f(_gram_from_x(_x_from_points(assign, pts, d), d)))
        if val > best:
            best, pts_best = val, pts
    if pts_best is None:
        raise ValueError("no feasible configuration found for this pattern and angle")
    step = 0.3
    pts = pts_best
    for _ in range(budget):
        cand = pts + step * rng.standard_normal(pts.shape)
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        g = cand @ cand.T
        if np.max(g[~np.eye(k, dtype=bool)]) > c:
            step *= 0.97
            continue
        val = float(problem.f(_gram_from_x(_x_from_points(assign, cand, d), d)))
        if val > best:
            best, pts = val, cand
        else:
            step *= 0.99
        if step < 1e-6:
            break
    return best


def _poly_coeffs(coeffs) -> np.ndarray:
    """Monomial coefficients as floats: a flat list of 1 to 65 of them, all finite."""
    try:
        coeffs = np.asarray(coeffs, dtype=float)
    except TypeError:
        raise ValueError(f"polynomial coefficients {coeffs!r} are not numbers") from None
    if coeffs.ndim != 1:
        raise ValueError(f"polynomial coefficients {coeffs.tolist()!r} are not a flat list")
    if not 0 < coeffs.size <= 65:
        raise ValueError(f"a polynomial needs 1 to 65 coefficients, not {coeffs.size}")
    if not np.all(np.isfinite(coeffs)):
        raise ValueError(f"polynomial coefficients {coeffs.tolist()} are not all finite")
    return coeffs


def verify_nonpositive(coeffs, theta: float, tol: float = 1e-12) -> bool:
    """True iff the polynomial's maximum on [-1, cos theta] is <= tol."""
    return poly_max_on_interval(coeffs, -1.0, cos(theta)) <= tol


def poly_max_on_interval(coeffs, lo: float, hi: float) -> float:
    """Maximum of a polynomial on [lo, hi], from its critical points.

    The largest value at lo, at hi and at the real part of every root of
    the derivative in (lo, hi), the eigenvalues of its companion matrix.
    A complex root only adds a point, which cannot lower the result, so
    the imaginary parts need no tolerance.  A tiny leading coefficient
    spoils every eigenvalue (at 1e-30 relative a maximum of 1.7 was
    missed), so the derivative's top terms whose bounds on [lo, hi] sum
    under 2^-52 of the total are dropped first: about what rounding in
    evaluating the polynomial moves.  Empty or non-finite input raises
    ValueError.
    """
    coeffs = _poly_coeffs(coeffs)
    if not (isfinite(lo) and isfinite(hi) and lo <= hi):
        raise ValueError(f"[{lo}, {hi}] is not a finite nonempty interval")
    deriv = np.polynomial.polynomial.polyder(coeffs)
    size = np.abs(deriv) * max(1.0, abs(lo), abs(hi)) ** np.arange(deriv.size)
    tail = np.cumsum(size[::-1])[::-1]  # tail[k] bounds terms k.. on [lo, hi]
    if isfinite(tail[0]):
        deriv = deriv[: np.count_nonzero(tail > 2**-52 * tail[0]) or 1]
    crit = np.polynomial.polynomial.polyroots(deriv).real
    ts = np.concatenate(([lo, hi], crit[(lo < crit) & (crit < hi)]))
    return float(np.max(np.polynomial.polynomial.polyval(ts, coeffs)))


def delsarte_bound(coeffs, n: int, theta: float) -> float:
    """The classical linear programming bound f(1) / f0 for a certificate.

    Refuses (naming the violated condition) unless the basis expansion is
    nonnegative with positive constant term and the polynomial is
    nonpositive on [-1, cos theta], both checked on f / f0 so that scale
    does not matter.  Empty or non-finite coefficients raise ValueError.
    """
    coeffs = _poly_coeffs(coeffs)
    expansion = gegenbauer_expansion(coeffs, n)
    f0 = float(expansion[0])
    if not f0 > 0:
        raise CertificateError("constant expansion coefficient f0 is not positive")
    k = int(np.argmin(expansion))
    if expansion[k] / f0 < -1e-12:
        raise CertificateError(
            f"expansion coefficient f_{k} is negative: f_{k} / f0 = {expansion[k] / f0:.3e}"
        )
    scaled = coeffs / f0
    if not verify_nonpositive(scaled, theta):
        raise CertificateError("certificate is positive somewhere on [-1, cos theta]")
    return float(np.sum(scaled))


def delsarte_lp(
    n: int, theta: float, degree: int, grid_size: int = 4096
) -> BoundCertificate:
    """Optimize the classical bound over degree-bounded certificates.

    The discretized program (minimize f(1) with f0 = 1, nonnegative
    expansion coefficients, and nonpositivity on a grid over
    [-1, cos theta]) is solved through its dual with the self-contained
    two-phase simplex; the certificate is then re-verified on the
    continuous interval, shrinking the constant term by any detected grid
    overshoot before the ratio is reported.
    """
    if degree < 1 or degree > 30:
        raise ValueError("degree must be in [1, 30]")
    if grid_size < 256:
        raise ValueError("grid must have at least 256 points")
    c = cos(theta)
    ts = np.linspace(-1.0, c, grid_size)
    gvals = np.vstack([eval_1d(n, k, ts) for k in range(1, degree + 1)])

    # variables f_1..f_degree >= 0; grid rows sum_k G_k(t) f_k <= -1.
    # Solved via the dual (grid_size variables, degree rows), whose slack
    # basis is immediately feasible; the primal comes back as the duals.
    res = solve_lp(
        c=-np.ones(grid_size),
        a_ub=-gvals,
        b_ub=np.ones(degree),
    )
    if res.status != "optimal":
        raise RuntimeError(f"discretized program not solved: {res.status}")
    f_rest = np.maximum(-res.duals_ub, 0.0)

    checks = [f"lp grid={grid_size} degree={degree} iterations={res.iterations}"]
    coeffs = np.zeros(degree + 1)
    for k in range(1, degree + 1):
        basis = np.zeros(degree + 1)
        bc = np.asarray(coeffs_1d(n, k).coeffs, dtype=float)
        basis[: bc.size] = bc
        coeffs += f_rest[k - 1] * basis
    coeffs[0] += 1.0  # f0 = 1

    overshoot = max(poly_max_on_interval(coeffs, -1.0, c), 0.0)
    f0 = 1.0
    if overshoot > 0.0:
        overshoot *= 1.0 + 1e-12
        coeffs[0] -= overshoot
        f0 -= overshoot
        checks.append(f"shrunk constant term by grid overshoot {overshoot:.3e}")
        if f0 <= 0:
            raise RuntimeError("grid leakage consumed the whole constant term")
    if not verify_nonpositive(coeffs, theta, tol=1e-10):
        raise RuntimeError("post-hoc verification failed after shrinkage")
    checks.append("continuous nonpositivity verified")

    f_at_one = float(np.sum(coeffs))
    bound = f_at_one / f0
    return BoundCertificate(
        bound=bound,
        per_omega={
            PartitionPattern((2,)): f_at_one,
            PartitionPattern((1, 1)): 0.0,
        },
        verification=tuple(checks),
        coefficients=tuple(coeffs),
        expansion=(f0, *(float(v) for v in f_rest)),
    )


def _horner(poly: list[int], x: int) -> int:
    acc = 0
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def _to_int(poly: list[Fraction]) -> list[int]:
    """The polynomial times the positive lcm of its denominators."""
    scale = lcm(*(c.denominator for c in poly))
    return [int(c * scale) for c in poly]


def _divmod_poly(a: list[Fraction], b: list[Fraction]):
    """Quotient and remainder of a / b; ascending coefficients, b[-1] != 0."""
    a = list(a)
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        shift = len(a) - len(b)
        quot[shift] = c = a[-1] / b[-1]
        for i, bc in enumerate(b):
            a[shift + i] -= c * bc
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return quot, a


def _sturm(poly: list[int]) -> list[list[int]]:
    """Sturm sequence of the squarefree part of poly.

    With the common factor divided out, the sign-change count V is
    right-continuous, so poly has V(a) - V(b) distinct roots in (a, b]
    for any a < b.
    """
    seq = [[Fraction(c) for c in poly], [Fraction(i * c) for i, c in enumerate(poly)][1:]]
    while len(seq[-1]) > 1:
        rem = _divmod_poly(seq[-2], seq[-1])[1]
        if not rem:
            break
        seq.append([-c for c in rem])
    if len(seq[-1]) > 1:  # a multiple root: divide by gcd(poly, poly')
        seq = [_divmod_poly(p, seq[-1])[0] for p in seq]
    return [_to_int(p) for p in seq]


def _sign_changes(seq: list[list[int]], x: int) -> int:
    signs = [v > 0 for v in (_horner(p, x) for p in seq) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _first_nonpositive(poly: list[int], seq: list[list[int]], lo: int) -> int:
    """Smallest integer N > lo with poly(N) <= 0.

    Needs poly(lo) > 0 and a negative leading coefficient; seq is
    poly's Sturm sequence.  Bisection on the root count isolates the
    first root in a unit interval (N - 1, N]; a root where poly only
    touches zero between integers is stepped over.
    """
    top = 2 + max(abs(c) for c in poly[:-1]) // -poly[-1]  # above every root
    v_lo = _sign_changes(seq, lo)
    while True:
        hi = top  # poly(top) < 0, so (lo, hi] holds a root
        while hi - lo > 1:
            mid = (lo + hi) // 2
            v_mid = _sign_changes(seq, mid)
            if v_mid < v_lo:
                hi = mid
            else:  # no root in (lo, mid]: poly(mid) > 0
                lo, v_lo = mid, v_mid
        if _horner(poly, hi) <= 0:
            return hi
        lo, v_lo = hi, _sign_changes(seq, hi)


def _residual_sign_bounds(b_map: dict, f0: float, m: int):
    """Integer polynomials lo, hi in N that decide the float residual's sign.

    lo = R - E and hi = R + E, each times a positive constant, where
    R(N) = sum of b q_omega(N) - f0 N^(m+1) in exact rationals and E(N)
    bounds the rounding error of r(N), the float residual.  r(N) is
    at most five products of a float by a rounded integer, four
    additions, a libm pow within one ulp, one product and one
    subtraction.  Without overflow |r - R| <= 7u T(N), u = 2^-53, where
    T(N) sums the terms' absolute values; E = 2^-49 T keeps a factor of
    two in hand.  A float times an integer is exact when it underflows,
    so only f0 N^(m+1) can round in the subnormal range, by at most
    2^-1075, and only when f0 is subnormal.  So lo(N) > 0 means r(N) > 0
    and hi(N) < 0 means r(N) < 0.
    """
    exact = [Fraction(0)] * (m + 2)
    total = [Fraction(0)] * (m + 2)
    for omega, b in b_map.items():
        b = Fraction(b)
        for i, c in enumerate(_q_poly(omega)):
            exact[i] += b * c
            total[i] += abs(b) * c
    exact[m + 1] -= Fraction(f0)
    total[m + 1] += Fraction(f0)
    err = [c / 2**49 for c in total]
    if f0 < 2.0**-1022:
        err[0] += Fraction(1, 2**1074)
    return (
        _to_int([r - e for r, e in zip(exact, err)]),
        _to_int([r + e for r, e in zip(exact, err)]),
    )


def theorem61_bound(
    m: int, f0: float, f_diag: float, b_values: dict
) -> Theorem61Result:
    """Largest code size consistent with the counting inequality.

    b_values maps collision patterns of d = m + 2 (PartitionPattern or
    parts tuple; not the all-merged one, whose value is f_diag) to upper
    bounds on the corresponding suprema; missing patterns are asserted
    nonpositive and contribute zero.  A key that is no such pattern raises
    ValueError, since dropping its supremum would understate the bound,
    and so do non-finite inputs.

    N_max is one less than the first N >= 2 where the float residual
    sum of b q_omega(N) - f0 N^(m+1) is negative.  Its exact counterpart
    is a polynomial of degree m + 1 with a negative leading term, since
    the all-distinct pattern contributes nothing.  Two integer
    polynomials bracket it by the float rounding error; a Sturm count
    jumps over every N where the float residual is surely positive, and
    the float residual itself is evaluated only in the few N around a
    root where rounding could decide the sign.  The cost does not depend
    on N_max, and the result, residuals included, is what the float
    residual evaluated at N = 2, 3, ... in turn gives.  A float part that
    overflows before the residual turns negative, and an N_max + 1 above
    2^53, where float(N) is no longer exact, raise ValueError.
    """
    if m not in (0, 1, 2):
        raise ValueError("m must be 0, 1, or 2")
    if not (isfinite(f0) and isfinite(f_diag)):
        raise ValueError(f"f0 = {f0} and f_diag = {f_diag} must be finite")
    if f0 <= 0:
        raise ValueError("f0 must be positive")
    d = m + 2
    all_merged = PartitionPattern((d,))
    b_map = dict.fromkeys(enumerate_patterns(d), 0.0)
    b_map[all_merged] = f_diag
    for key, val in b_values.items():
        try:
            omega = key if isinstance(key, PartitionPattern) else PartitionPattern(key)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"supremum key {key!r} is not a pattern: {exc}") from None
        if omega.d != d:
            raise ValueError(f"supremum key {key!r} sums to {omega.d}, not m + 2 = {d}")
        if omega == all_merged:
            raise ValueError(
                f"supremum key {key!r} is the all-merged pattern, whose value is f_diag"
            )
        val = float(val)
        if not isfinite(val):
            raise ValueError(f"supremum for {key!r} is {val}, not finite")
        # negative entries are clamped to zero: collision counts are
        # nonnegative, so dropping a nonpositive term only weakens the
        # right side upward
        b_map[omega] = max(val, 0.0)

    all_distinct = PartitionPattern((1,) * d)
    if b_map[all_distinct] > 0:
        raise ValueError(
            "the all-distinct pattern needs a nonpositive supremum for a finite bound"
        )

    def rhs(big_n: int) -> float:
        return sum(b * q_omega(omega, big_n) for omega, b in b_map.items())

    def lhs(big_n: int) -> float:
        return f0 * float(big_n) ** (m + 1)

    def residual(big_n: int) -> float:
        return rhs(big_n) - lhs(big_n)

    lo, hi = _residual_sign_bounds(b_map, f0, m)
    lo_sturm = _sturm(lo)
    big_n = 2  # ends at the first N whose float residual is not >= 0
    while big_n <= FLOAT_INT_LIMIT:
        if _horner(hi, big_n) < 0:
            break
        if _horner(lo, big_n) > 0:
            big_n = _first_nonpositive(lo, lo_sturm, big_n)
        elif residual(big_n) >= 0:
            big_n += 1
        else:
            break
    top = min(big_n, FLOAT_INT_LIMIT)
    if isinf(rhs(top)) or isinf(lhs(top)):
        # each float part is nondecreasing in N, so without overflow here
        # there is none below, where every decision was made
        raise ValueError(
            f"the float residual overflows by N = {top}; f0, f_diag and the "
            "suprema can be divided by a common factor, since the counting "
            "inequality is homogeneous in them"
        )
    if big_n > FLOAT_INT_LIMIT:
        raise ValueError(
            f"N_max + 1 exceeds 2**53 = {FLOAT_INT_LIMIT}, beyond which float(N) "
            "is not exact; check the supplied suprema"
        )
    ratio = f_diag / f0 if m == 0 else None
    return Theorem61Result(
        n_max=big_n - 1,
        residual_at_n=residual(big_n - 1),
        residual_at_next=residual(big_n),
        ratio=ratio,
    )


def code_audit(points: PointConfiguration, theta: float) -> bool:
    """True iff all pairwise inner products stay at or below cos theta."""
    points.require_unit()
    return points.max_inner_product() <= cos(theta) + 1e-12


def greedy_code(n: int, theta: float, seed: int, max_rejects: int = 200) -> PointConfiguration:
    """A reproducible (non-optimal) code built by greedy rejection packing."""
    c = cos(theta)
    rng = rng_for(seed, n)
    accepted: list[np.ndarray] = []
    rejects = 0
    while rejects < max_rejects:
        p = rng.standard_normal(n)
        p /= np.linalg.norm(p)
        if all(q @ p <= c for q in accepted):
            accepted.append(p)
            rejects = 0
        else:
            rejects += 1
    return PointConfiguration(n, np.array(accepted))
