"""Upper bounds for spherical codes.

Combinatorial counting of index-collision patterns, suprema of
certificate functions over constrained Gram configurations, the
generalized counting bound for levels m = 0, 1, 2, and a discretized
linear program optimizing the classical m = 0 bound with post-hoc
certificate verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import cos, factorial

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


def q_omega(omega: PartitionPattern, big_n: int) -> int:
    """Closed-form collision count, divided by N.

    The number of index vectors in {1..N}^d with collision pattern omega
    is (set partitions of the d slots with these block sizes) times the
    falling factorial of N over the number of blocks; division by N is
    exact.
    """
    if big_n < 1:
        raise ValueError("N must be >= 1")
    d = omega.d
    arrangements = factorial(d)
    for p in omega.parts:
        arrangements //= factorial(p)
    mult: dict = {}
    for p in omega.parts:
        mult[p] = mult.get(p, 0) + 1
    for c in mult.values():
        arrangements //= factorial(c)
    falling = 1
    for i in range(1, omega.blocks):  # falling factorial / N
        falling *= big_n - i
    return arrangements * falling


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


def _poly_eval(coeffs, t):
    return np.polynomial.polynomial.polyval(t, np.asarray(coeffs, dtype=float))


def verify_nonpositive(
    coeffs, theta: float, grid: int = 10_000, tol: float = 1e-12
) -> bool:
    """True iff the polynomial stays <= tol on [-1, cos theta].

    Dense grid check, then every local maximum between grid nodes is
    isolated by bisection on the derivative and evaluated.
    """
    return _interval_max(coeffs, -1.0, cos(theta), grid) <= tol


def poly_max_on_interval(coeffs, lo: float, hi: float, grid: int = 10_000) -> float:
    """Maximum of a polynomial on [lo, hi] (grid + derivative bisection)."""
    return _interval_max(coeffs, lo, hi, grid)


def _interval_max(coeffs, lo: float, hi: float, grid: int) -> float:
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.size > 65:
        raise ValueError("polynomial degree too high")
    if hi < lo:
        raise ValueError("empty interval")
    ts = np.linspace(lo, hi, grid)
    vals = _poly_eval(coeffs, ts)
    best = float(np.max(vals))
    deriv = np.polynomial.polynomial.polyder(coeffs)
    dv = _poly_eval(deriv, ts)
    # a sign change + to - in the derivative brackets an interior maximum
    idx = np.flatnonzero((dv[:-1] > 0) & (dv[1:] <= 0))
    for i in idx:
        a, b = ts[i], ts[i + 1]
        for _ in range(60):
            mid = 0.5 * (a + b)
            if _poly_eval(deriv, mid) > 0:
                a = mid
            else:
                b = mid
        best = max(best, float(_poly_eval(coeffs, 0.5 * (a + b))))
    return best


def delsarte_bound(coeffs, n: int, theta: float) -> float:
    """The classical linear programming bound f(1) / f0 for a certificate.

    Refuses (naming the violated condition) unless the basis expansion is
    nonnegative with positive constant term and the polynomial is
    nonpositive on [-1, cos theta].
    """
    expansion = gegenbauer_expansion(coeffs, n)
    if expansion[0] <= 0:
        raise CertificateError("constant expansion coefficient f0 is not positive")
    if np.min(expansion) < -1e-12:
        k = int(np.argmin(expansion))
        raise CertificateError(
            f"expansion coefficient f_{k} = {expansion[k]:.3e} is negative"
        )
    if not verify_nonpositive(coeffs, theta):
        raise CertificateError("certificate is positive somewhere on [-1, cos theta]")
    f_at_one = float(np.sum(np.asarray(coeffs, dtype=float)))
    return f_at_one / float(expansion[0])


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


def theorem61_bound(
    m: int, f0: float, f_diag: float, b_values: dict
) -> Theorem61Result:
    """Largest code size consistent with the counting inequality.

    b_values maps collision patterns of d = m + 2 (PartitionPattern or
    parts tuple; not the all-merged one, whose value is f_diag) to upper
    bounds on the corresponding suprema; missing patterns are asserted
    nonpositive and contribute zero.  A key that is no such pattern raises
    ValueError, since dropping its supremum would understate the bound.
    Scans integers upward; the left side eventually dominates because its
    degree exceeds the right side's once the all-distinct pattern drops
    out.
    """
    if m not in (0, 1, 2):
        raise ValueError("m must be 0, 1, or 2")
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
        # negative entries are clamped to zero: collision counts are
        # nonnegative, so dropping a nonpositive term only weakens the
        # right side upward
        b_map[omega] = max(float(val), 0.0)

    all_distinct = PartitionPattern((1,) * d)
    if b_map[all_distinct] > 0:
        raise ValueError(
            "the all-distinct pattern needs a nonpositive supremum for a finite bound"
        )

    def residual(big_n: int) -> float:
        rhs = sum(b * q_omega(omega, big_n) for omega, b in b_map.items())
        return rhs - f0 * float(big_n) ** (m + 1)

    n_max = 1
    while residual(n_max + 1) >= 0:
        n_max += 1
        if n_max > 100_000_000:
            raise RuntimeError("no finite bound reached; check the supplied suprema")
    ratio = f_diag / f0 if m == 0 else None
    return Theorem61Result(
        n_max=n_max,
        residual_at_n=residual(n_max),
        residual_at_next=residual(n_max + 1),
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
