"""Upper bounds for spherical codes.

Combinatorial counting of index-collision patterns, suprema of
certificate functions over constrained Gram configurations, the
generalized counting bound for levels m = 0, 1, 2, and a discretized
linear program optimizing the classical m = 0 bound with post-hoc
certificate verification.

The counting bound is read off its residual, a polynomial in the code
size N of degree m + 1 with exact dyadic coefficients, and every sign
is decided on that exact polynomial: Sturm sequences locate its sign
changes in integer arithmetic, so the cost does not depend on N.  Two
results are refused with ValueError rather than printed inexactly: an
N_max + 1 above 2^53, and a residual whose float would overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import cos, factorial, isfinite, lcm, pi

import numpy as np

from .gegenbauer import _homogeneous_upto, coeffs_1d, gegenbauer_expansion
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
# greedy_code stops after this many candidates in a row are rejected
_GREEDY_MAX_REJECTS = 200
# greedy_code refuses a packing that would pass this many points: each
# accepted point is checked against all before it, so the cost grows with
# the square of the size
_GREEDY_MAX_POINTS = 2500


class CertificateError(ValueError):
    """A certificate precondition failed; the message names the condition."""


def _check_theta(theta: float) -> None:
    """The one rule for a minimal angle: theta in (0, pi] with cos theta < 1.

    NaN is refused; cos would read theta = 4 as 2 pi - 4; and at theta = 0,
    or any theta <= 1.0536712127723507e-08 where cos theta rounds to 1.0,
    the LP has no solution and a greedy packing accepts every point.
    """
    if not (0.0 < theta <= pi and cos(theta) < 1.0):
        raise ValueError(f"theta must be in (0, pi] with cos(theta) < 1, got {theta}")


def _inner_product_cap(theta: float) -> float:
    """The largest inner product two points of a code with minimal angle
    theta may have: cos theta, plus 1e-12 for rounding."""
    _check_theta(theta)
    return cos(theta) + 1e-12


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
    return _horner(_q_poly(omega), big_n)


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
        _check_theta(self.theta)
        if self.f0 <= 0:
            raise ValueError("constant term f0 must be positive")
        if self.m not in (0, 1, 2):
            raise ValueError("closed-form bounds cover m in {0, 1, 2} only")


@dataclass(frozen=True)
class BoundCertificate:
    bound: float
    coefficients: tuple[float, ...]  # monomial basis, ascending powers
    expansion: tuple[float, ...]  # f_k in the orthogonal basis


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
    """Maximum of a polynomial on [lo, hi], from its critical points (see
    _critical_points).  Empty or non-finite input raises ValueError."""
    coeffs = _poly_coeffs(coeffs)
    return _max_at(_critical_points(coeffs, lo, hi), coeffs)


def _critical_points(coeffs: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """lo, hi and the real part of every root of the derivative in (lo, hi).

    The roots are the eigenvalues of the derivative's companion matrix.  A
    complex root only adds a point, which cannot lower the maximum, so the
    imaginary parts need no tolerance.  A tiny leading coefficient
    spoils every eigenvalue (at 1e-30 relative a maximum of 1.7 was
    missed), so the derivative's top terms whose bounds on [lo, hi] sum
    under 2^-52 of the total are dropped first: about what rounding in
    evaluating the polynomial moves.  The constant term plays no part, so
    the points hold for every polynomial that differs from coeffs in it.
    """
    if not (isfinite(lo) and isfinite(hi) and lo <= hi):
        raise ValueError(f"[{lo}, {hi}] is not a finite nonempty interval")
    deriv = np.polynomial.polynomial.polyder(coeffs)
    size = np.abs(deriv) * max(1.0, abs(lo), abs(hi)) ** np.arange(deriv.size)
    tail = np.cumsum(size[::-1])[::-1]  # tail[k] bounds terms k.. on [lo, hi]
    if isfinite(tail[0]):
        deriv = deriv[: np.count_nonzero(tail > 2**-52 * tail[0]) or 1]
    crit = np.polynomial.polynomial.polyroots(deriv).real
    return np.concatenate(([lo, hi], crit[(lo < crit) & (crit < hi)]))


def _max_at(ts: np.ndarray, coeffs: np.ndarray) -> float:
    """The polynomial's largest value at the points ts."""
    return float(np.max(np.polynomial.polynomial.polyval(ts, coeffs)))


def delsarte_bound(coeffs, n: int, theta: float) -> float:
    """The classical linear programming bound f(1) / f0 for a certificate.

    Refuses (naming the violated condition) unless the basis expansion is
    nonnegative with positive constant term and the polynomial is
    nonpositive on [-1, cos theta], both checked on f / f0 so that scale
    does not matter.  Empty or non-finite coefficients raise ValueError.
    """
    _check_theta(theta)
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
    one-phase revised simplex; the certificate is then re-verified on the
    continuous interval, shrinking the constant term by any detected grid
    overshoot before the ratio is reported.  When no degree-bounded
    certificate exists on the grid, the dual is unbounded and this raises
    ValueError; so it does when the simplex stops at its iteration limit
    or ends on a basis that rounding has carried off its rows or left
    singular ("numerical"), or when the grid overshoot of the LP optimum
    is at least its constant term, since then the grid yields no usable
    certificate.
    """
    _check_theta(theta)
    if n < 2:
        raise ValueError(f"dimension parameter must be >= 2, got {n}")
    if degree < 1 or degree > 30:
        raise ValueError("degree must be in [1, 30]")
    if grid_size < 256:
        raise ValueError("grid must have at least 256 points")
    c = cos(theta)
    ts = np.linspace(-1.0, c, grid_size)
    # variables f_1..f_degree >= 0; grid rows sum_k G_k(t) f_k <= -1.
    # Solved via the dual (grid_size variables, degree rows), whose slack
    # basis is immediately feasible; the primal comes back as the duals.
    # Its rows -G_1..-G_degree are written once, straight from the recurrence.
    neg_g = np.empty((degree, grid_size))
    for row, g in zip(neg_g, _homogeneous_upto(n, degree, ts, 1.0, 1)):
        np.negative(g, out=row)
    res = solve_lp(
        c=-np.ones(grid_size),
        a_ub=neg_g,
        b_ub=np.ones(degree),
    )
    if res.status == "unbounded":  # no f >= 0 with f(t) <= -1 on the grid
        raise ValueError(
            f"no degree-{degree} certificate at theta={theta}: no polynomial with"
            " f_0 = 1 and f_k >= 0 is <= 0 on the grid"
        )
    where = f"degree {degree}, theta={theta}, grid {grid_size}"
    if res.status != "optimal":
        raise ValueError(f"discretized program at {where} not solved: {res.status}")
    f_rest = np.maximum(-res.duals_ub, 0.0)

    coeffs = np.zeros(degree + 1)
    for k in range(1, degree + 1):
        coeffs[: k + 1] += f_rest[k - 1] * np.asarray(coeffs_1d(n, k))
    coeffs[0] += 1.0  # f0 = 1

    # shrinking coeffs[0] leaves the critical points as they are
    crit = _critical_points(coeffs, -1.0, c)
    overshoot = max(_max_at(crit, coeffs), 0.0)
    f0 = 1.0
    if overshoot > 0.0:
        overshoot *= 1.0 + 1e-12
        coeffs[0] -= overshoot
        f0 -= overshoot
        if f0 <= 0:
            raise ValueError(
                f"no usable certificate at {where}: grid leakage consumed the whole"
                " constant term"
            )
    if not _max_at(crit, coeffs) <= 1e-10:
        raise RuntimeError("post-hoc verification failed after shrinkage")

    return BoundCertificate(
        bound=float(np.sum(coeffs)) / f0,
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


def _residual_poly(b_map: dict, f0: float, m: int) -> list[Fraction]:
    """R(N) = sum of b q_omega(N) - f0 N^(m+1) in exact rationals, ascending powers."""
    exact = [Fraction(0)] * (m + 2)
    for omega, b in b_map.items():
        b = Fraction(b)
        for i, c in enumerate(_q_poly(omega)):
            exact[i] += b * c
    exact[m + 1] -= Fraction(f0)
    return exact


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

    N_max is one less than the first N >= 2 where the residual
    R(N) = sum of b q_omega(N) - f0 N^(m+1) is negative, every sign
    decided exactly: the float inputs are read as the rationals they are,
    and R is a polynomial of degree m + 1 with a negative leading term,
    since the all-distinct pattern contributes nothing.  Scaled to
    integer coefficients R takes integer values at integer N, so R(N) < 0
    exactly where that polynomial plus one is <= 0, and a Sturm search
    finds the first such N at a cost that does not depend on N_max.  The
    residuals reported are float(R(N_max)) and float(R(N_max + 1)).  An
    N_max + 1 above 2^53, where float(N) is no longer exact, and a
    residual too large for a float raise ValueError.
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

    exact = _residual_poly(b_map, f0, m)
    poly = _to_int(exact)
    poly[0] += 1  # an integer at integer N, so poly(N) <= 0 exactly where R(N) < 0
    big_n = _first_nonpositive(poly, _sturm(poly), 2) if _horner(poly, 2) > 0 else 2
    if big_n > FLOAT_INT_LIMIT:
        raise ValueError(
            f"N_max + 1 exceeds 2**53 = {FLOAT_INT_LIMIT}, beyond which float(N) "
            "is not exact; check the supplied suprema"
        )
    try:
        at_n, at_next = float(_horner(exact, big_n - 1)), float(_horner(exact, big_n))
    except OverflowError:
        raise ValueError(
            f"the residual at N = {big_n - 1} or {big_n} overflows a float"
        ) from None
    return Theorem61Result(
        n_max=big_n - 1,
        residual_at_n=at_n,
        residual_at_next=at_next,
        ratio=f_diag / f0 if m == 0 else None,
    )


def code_audit(points: PointConfiguration, theta: float) -> bool:
    """True iff all pairwise inner products stay at or below cos theta."""
    cap = _inner_product_cap(theta)
    points.require_unit()
    return points.max_inner_product() <= cap


def greedy_code(n: int, theta: float, seed: int) -> PointConfiguration:
    """A reproducible (non-optimal) code built by greedy rejection packing.

    n < 1 and an angle that _check_theta refuses raise ValueError: where
    cos theta rounds to 1 or with no coordinates every point is accepted,
    so the packing never ends.  A packing that would accept more than
    _GREEDY_MAX_POINTS points raises ValueError when it gets there; every
    code of at most that many points is built in full.  A candidate p is
    accepted when (accepted @ p).max() <= cos theta: one BLAS product, whose
    rounding may differ in the last bit from a dot product per point.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_theta(theta)
    c = cos(theta)
    rng = rng_for(seed, n)
    # rows [:size] are the code; the array doubles when full, so it holds
    # at most twice the code, not the cap, in any dimension
    accepted = np.empty((16, n))
    size = rejects = 0
    while rejects < _GREEDY_MAX_REJECTS:
        p = rng.standard_normal(n)
        p /= np.linalg.norm(p)
        if size == 0 or (accepted[:size] @ p).max() <= c:
            if size == _GREEDY_MAX_POINTS:
                raise ValueError(
                    f"greedy code at n={n}, theta={theta} refused: the packing"
                    f" passed the cap of {_GREEDY_MAX_POINTS} points"
                )
            if size == len(accepted):
                accepted = np.concatenate([accepted, np.empty_like(accepted)])
            accepted[size] = p
            size += 1
            rejects = 0
        else:
            rejects += 1
    return PointConfiguration(n, accepted[:size])
