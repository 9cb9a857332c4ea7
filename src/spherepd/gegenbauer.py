"""Gegenbauer polynomials, one-dimensional and multivariate.

The multivariate polynomial of dimension parameter n, level m and degree
k is, for |u|, |v| < 1,

    ((1-|u|^2)(1-|v|^2))^(k/2) * G_k^{(n-m)}( (t-<u,v>) / sqrt((1-|u|^2)(1-|v|^2)) )

with G normalized so G(1) = 1.  Every kernel here has this homogenized
form e^(k/2) G_k(d / sqrt(e)), and one division-free three-term
recurrence in d and e evaluates all of them (the one-dimensional
polynomial is the case e = 1), so the boundary |u| = 1, where e = 0,
evaluates exactly.  The addition coefficients come from their closed
form (DLMF 18.18.8) in exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb, prod, sqrt

import numpy as np

from .randgen import rng_for

__all__ = [
    "GegenbauerPolynomial",
    "AdditionCoefficients",
    "OrthogonalityEstimate",
    "eval_1d",
    "coeffs_1d",
    "eval_mv",
    "domain_gap",
    "in_domain",
    "monomial_exponents",
    "monomial_vector",
    "z_outer",
    "addition_coefficients",
    "addition_term",
    "addition_residual",
    "expand_in_t",
    "gegenbauer_expansion",
    "orthogonality_mc",
    "orthogonality_quad",
]


@dataclass(frozen=True)
class GegenbauerPolynomial:
    """Monomial coefficients of the degree-k polynomial: coeffs[j] multiplies t^j."""

    n: int
    k: int
    coeffs: tuple[float, ...]


@dataclass(frozen=True)
class AdditionCoefficients:
    """Positive coefficients c[s], s = 0..k, of the classical addition identity."""

    n: int
    k: int
    c: tuple[float, ...]


@dataclass(frozen=True)
class OrthogonalityEstimate:
    estimate: float
    stderr: float
    samples: int


def _check_nk(n: int, k: int) -> None:
    if n < 2:
        raise ValueError(f"dimension parameter must be >= 2, got {n}")
    if k < 0:
        raise ValueError(f"degree must be >= 0, got {k}")


def eval_1d(n: int, k: int, t):
    """G_k for dimension parameter n at t (scalar or array), by recurrence."""
    _check_nk(n, k)
    return _homogeneous(n, k, t, 1.0)


@lru_cache(maxsize=None)
def coeffs_1d(n: int, k: int) -> GegenbauerPolynomial:
    """Monomial coefficient form, built by the same three-term recurrence."""
    _check_nk(n, k)
    prev = np.array([1.0])
    if k == 0:
        return GegenbauerPolynomial(n, 0, (1.0,))
    cur = np.array([0.0, 1.0])
    for j in range(2, k + 1):
        nxt = np.zeros(j + 1)
        nxt[1:] = (2 * j + n - 4) * cur
        nxt[: j - 1] -= (j - 1) * prev
        nxt /= j + n - 3
        prev, cur = cur, nxt
    return GegenbauerPolynomial(n, k, tuple(cur))


def _homogeneous(nu: int, k: int, d, e):
    """e^(k/2) * G_k^{(nu)}(d / sqrt(e)) for e >= 0, division-free.

    Runs the three-term recurrence of H_j = e^(j/2) G_j(d / sqrt(e)):
    H_0 = 1, H_1 = d and

        H_j = ((2j+nu-4) d H_{j-1} - (j-1) e H_{j-2}) / (j+nu-3),

    which holds no square root and no division by e, so e = 0 is exact.
    Python scalars stay floats throughout.  Arrays broadcast; the
    recurrence then updates three work buffers in place and never writes
    into d or e.
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


def _uv_arrays(u, v, m: int) -> tuple[np.ndarray, np.ndarray]:
    u = np.asarray(u, dtype=float).reshape(-1)
    v = np.asarray(v, dtype=float).reshape(-1)
    if u.size != m or v.size != m:
        raise ValueError(f"u and v must have length m={m}")
    return u, v


def eval_mv(n: int, m: int, k: int, t: float, u=(), v=()) -> float:
    """Multivariate Gegenbauer value at (t, u, v), division-free."""
    if m < 0 or m > n - 2:
        raise ValueError(f"level m={m} out of range [0, {n - 2}]")
    _check_nk(n - m, k)
    u, v = _uv_arrays(u, v, m)
    d = t - float(u @ v)
    e = (1.0 - float(u @ u)) * (1.0 - float(v @ v))
    return _homogeneous(n - m, k, d, e)


def domain_gap(t: float, u, v) -> float:
    """(1-|u|^2)(1-|v|^2) - (t-<u,v>)^2, the bordered-identity determinant.

    Nonnegative (together with |u| <= 1) exactly on the natural domain of
    the multivariate polynomials.
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    v = np.asarray(v, dtype=float).reshape(-1)
    return (1.0 - float(u @ u)) * (1.0 - float(v @ v)) - (t - float(u @ v)) ** 2


def in_domain(t: float, u, v, tol: float = 1e-12) -> bool:
    u = np.asarray(u, dtype=float).reshape(-1)
    v = np.asarray(v, dtype=float).reshape(-1)
    return domain_gap(t, u, v) >= -tol and float(u @ u) <= 1.0 + tol


@lru_cache(maxsize=None)
def monomial_exponents(m: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples of all monomials in m variables of total degree <= d,
    graded, and within each degree ordered as x1^g, x1^{g-1}x2, ..., xm^g."""
    if m < 1 or d < 0:
        raise ValueError("need m >= 1 and d >= 0")
    out = []
    for g in range(d + 1):
        for combo in combinations_with_replacement(range(m), g):
            exp = [0] * m
            for i in combo:
                exp[i] += 1
            out.append(tuple(exp))
    return tuple(out)


def monomial_vector(x, d: int) -> np.ndarray:
    """All monomials of x of total degree <= d in graded lexicographic order."""
    x = np.asarray(x, dtype=float).reshape(-1)
    m = x.size
    if m == 0:
        return np.ones(1)
    exps = monomial_exponents(m, d)
    return np.array([np.prod(x**np.array(e)) for e in exps])


def z_outer(u, v, d: int) -> np.ndarray:
    """Outer product of the monomial vectors of u and v."""
    u = np.asarray(u, dtype=float).reshape(-1)
    v = np.asarray(v, dtype=float).reshape(-1)
    if u.size != v.size:
        raise ValueError("u and v must have the same length")
    zu = monomial_vector(u, d)
    zv = monomial_vector(v, d)
    return np.outer(zu, zv)


def _gauss_legendre(nodes: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(nodes)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def _rising(a, j: int):
    """The rising factorial (a)_j = a (a+1) ... (a+j-1)."""
    return prod(a + i for i in range(j))


@lru_cache(maxsize=None)
def addition_coefficients(n: int, k: int) -> AdditionCoefficients:
    """Coefficients of the Gegenbauer addition theorem, from its closed form.

    With G normalized so G(1) = 1, the theorem (DLMF 18.18.8) reads

        G_k^{(n)}(cos a cos b + sin a sin b cos phi)
          = sum_s c[s] (sin a sin b)^s G_{k-s}^{(n+2s)}(cos a)
                       G_{k-s}^{(n+2s)}(cos b) G_s^{(n-1)}(cos phi)

    and, with N = n - 2 and (x)_j the rising factorial, c[0] = 1 and

        c[s] = C(k,s) 4^s ((N/2)_s)^2 (N+k)_s (N+2s-1) (N)_{s-1} / ((N)_{2s})^2.

    The values are computed in exact rationals and stored as floats.
    """
    if n < 3:
        raise ValueError(f"dimension parameter must be >= 3, got {n}")
    _check_nk(n, k)
    big_n = n - 2
    c = [Fraction(1)]
    for s in range(1, k + 1):
        num = (
            comb(k, s)
            * 4**s
            * _rising(Fraction(big_n, 2), s) ** 2
            * _rising(big_n + k, s)
            * (big_n + 2 * s - 1)
            * _rising(big_n, s - 1)
        )
        c.append(num / _rising(big_n, 2 * s) ** 2)
    return AdditionCoefficients(n, k, tuple(float(x) for x in c))


def addition_term(u, n: int, m: int, k: int, s: int) -> float:
    """The degree-(k-s) anchor polynomial of the level-raising identity.

    With nu = n - m + 1 (the effective dimension parameter at level m-1),
    equals sqrt(c[s]) * w^(k-s) * G_{k-s} of dimension parameter nu+2s at
    u_m / w, with w^2 = 1 - u_1^2 - ... - u_{m-1}^2, evaluated by the
    homogeneous recurrence in (u_m, w^2) so w = 0 is regular.  The
    coefficients c are the addition coefficients for (nu, k).
    """
    if not 1 <= m <= n - 2:
        raise ValueError(f"level m={m} out of range [1, {n - 2}]")
    if not 0 <= s <= k:
        raise ValueError(f"index s={s} out of range [0, {k}]")
    u = np.asarray(u, dtype=float).reshape(-1)
    if u.size != m:
        raise ValueError(f"u must have length m={m}")
    nu = n - m + 1
    w2 = 1.0 - float(u[: m - 1] @ u[: m - 1])
    val = _homogeneous(nu + 2 * s, k - s, float(u[m - 1]), w2)
    return sqrt(addition_coefficients(nu, k).c[s]) * val


def _t_power_coefficient(n: int, m: int, k: int, i: int):
    """Coefficient function of t^i in the level-m polynomial of degree k."""
    coeffs = coeffs_1d(n - m, k).coeffs

    def g(u, v) -> float:
        u_ = np.asarray(u, dtype=float).reshape(-1)
        v_ = np.asarray(v, dtype=float).reshape(-1)
        ip = float(u_ @ v_)
        e = (1.0 - float(u_ @ u_)) * (1.0 - float(v_ @ v_))
        total = 0.0
        for j in range(i, k + 1):
            if coeffs[j] != 0.0:
                total += coeffs[j] * comb(j, i) * (-ip) ** (j - i) * e ** ((k - j) // 2)
        return total

    return g


def expand_in_t(coeff_fns, n: int, m: int):
    """Rewrite a t-polynomial with (u, v) coefficient functions in the
    multivariate Gegenbauer basis of level m.

    coeff_fns[i] is the coefficient function of t^i (a callable of (u, v);
    for m = 0 it is called with empty vectors).  Returns callables
    f_0, ..., f_d with  F(t,u,v) = sum_k f_k(u,v) * basis_k(t,u,v).

    Extraction peels from the top t-degree down: the t^k coefficient of
    the degree-k basis element is the constant leading monomial
    coefficient of the one-dimensional polynomial.
    """
    if m < 0 or m > n - 2:
        raise ValueError(f"level m={m} out of range [0, {n - 2}]")
    d = len(coeff_fns) - 1
    cur = [fn for fn in coeff_fns]
    extracted: list = [None] * (d + 1)
    for k in range(d, -1, -1):
        lead = coeffs_1d(n - m, k).coeffs[k]
        top = cur[k]

        def f_k(u, v, top=top, lead=lead) -> float:
            return top(u, v) / lead

        extracted[k] = f_k
        for i in range(k):
            g = _t_power_coefficient(n, m, k, i)

            def reduced(u, v, old=cur[i], fk=f_k, g=g) -> float:
                return old(u, v) - fk(u, v) * g(u, v)

            cur[i] = reduced
    return extracted


def gegenbauer_expansion(poly_coeffs, n: int) -> np.ndarray:
    """One-dimensional expansion: monomial coefficients -> basis coefficients."""
    p = np.array(poly_coeffs, dtype=float)
    d = p.size - 1
    out = np.zeros(d + 1)
    for k in range(d, -1, -1):
        basis = np.array(coeffs_1d(n, k).coeffs)
        out[k] = p[k] / basis[k]
        p[: k + 1] -= out[k] * basis
    return out


def _sphere_sample(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    g = rng.standard_normal((count, n))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def orthogonality_mc(
    n: int, m: int, k: int, l: int, f=None, samples: int = 1_000_000, seed: int = 0
) -> OrthogonalityEstimate:
    """Monte Carlo estimate of the sphere-pair integral of G_k * G_l * f.

    The estimate is the mean against the normalized uniform product
    measure on two spheres; for k != l it should sit within a few
    standard errors of zero for any continuous weight f(u, v).
    """
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    if m < 0 or m > n - 2:
        raise ValueError(f"level m={m} out of range [0, {n - 2}]")
    rng = rng_for(seed, n, m, k, l)
    x = _sphere_sample(rng, n, samples)
    y = _sphere_sample(rng, n, samples)
    u = x[:, :m]
    v = y[:, :m]
    t = np.einsum("ij,ij->i", x, y)
    d = t - np.einsum("ij,ij->i", u, v)
    e = (1.0 - np.einsum("ij,ij->i", u, u)) * (1.0 - np.einsum("ij,ij->i", v, v))
    vals = _homogeneous(n - m, k, d, e)
    vals *= _homogeneous(n - m, l, d, e)
    if f is not None:
        vals = vals * np.asarray(f(u, v), dtype=float)
    est = float(np.mean(vals))
    err = float(np.std(vals, ddof=1) / np.sqrt(samples))
    return OrthogonalityEstimate(est, err, samples)


def _ball_quadrature(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (P, m) and weights for integration over the unit m-ball."""
    if m == 0:
        return np.zeros((1, 0)), np.ones(1)
    if m == 1:
        x, w = _gauss_legendre(32, -1.0, 1.0)
        return x[:, None], w
    if m == 2:
        r, wr = _gauss_legendre(16, 0.0, 1.0)
        na = 32
        ang = 2.0 * np.pi * np.arange(na) / na
        pts = np.stack(
            [
                np.outer(r, np.cos(ang)).ravel(),
                np.outer(r, np.sin(ang)).ravel(),
            ],
            axis=1,
        )
        w = np.outer(wr * r, np.full(na, 2.0 * np.pi / na)).ravel()
        return pts, w
    raise ValueError("tensorized ball quadrature supports m <= 2 only")


def orthogonality_quad(n: int, m: int, k: int, l: int, q=None) -> float:
    """Deterministic quadrature of the weighted orthogonality integral.

    Uses the substitution t = s * sqrt((1-|u|^2)(1-|v|^2)) + <u,v>, with
    Gauss-Legendre in the angle of s and polar quadrature over the unit
    balls in u and v.  Returns the value of the integral; for k != l it
    vanishes to quadrature precision.
    """
    if m < 0 or m > 2:
        raise ValueError("deterministic quadrature supports m <= 2 only")
    if m > n - 2:
        raise ValueError(f"level m={m} out of range [0, {n - 2}]")
    nm = n - m
    ns = max(32, k + l + 8)
    phi, wphi = _gauss_legendre(ns, 0.0, np.pi)
    s = np.cos(phi)
    ws = wphi * np.sin(phi) ** (nm - 2)

    pts, wb = _ball_quadrature(m)
    # all (u, v) pairs on the tensor grid
    pu = np.repeat(pts, pts.shape[0], axis=0)
    pv = np.tile(pts, (pts.shape[0], 1))
    wp = np.outer(wb, wb).ravel()
    ip = np.einsum("ij,ij->i", pu, pv)
    e = (1.0 - np.einsum("ij,ij->i", pu, pu)) * (1.0 - np.einsum("ij,ij->i", pv, pv))
    qvals = np.ones_like(e) if q is None else np.asarray(q(pu, pv), dtype=float)
    # (1-s^2)^((n-m-3)/2) is folded into ws; the remaining u,v factor is
    # rho * dt/ds = e^((n-m-2)/2), nonnegative for every m <= n-2
    pair_part = wp * qvals * e ** ((nm - 2) / 2.0)

    total = 0.0
    sqrt_e = np.sqrt(e)
    for si, wsi in zip(s, ws):
        d = si * sqrt_e
        vals = _homogeneous(nm, k, d, e)
        vals *= _homogeneous(nm, l, d, e)
        total += wsi * float(np.sum(vals * pair_part))
    return total


def addition_residual(n: int, m: int, k: int, samples: int = 100, seed: int = 0) -> float:
    """Max residual of the level-raising identity at random valid triples.

    Compares the level-(m-1) polynomial at (t, u', v') with the sum over s
    of anchor-polynomial products times level-m polynomials, where u and v
    extend u' and v' by one ball coordinate.  For exact coefficients the
    residual is at machine precision.
    """
    if not 1 <= m <= n - 2:
        raise ValueError(f"level m={m} out of range [1, {n - 2}]")
    rng = rng_for(seed, n, m, k)
    worst = 0.0
    for _ in range(samples):
        u = rng.uniform(-1.0, 1.0, size=m)
        v = rng.uniform(-1.0, 1.0, size=m)
        for w in (u, v):
            nw = np.linalg.norm(w)
            if nw >= 1.0:
                w *= rng.uniform(0.0, 0.999) / nw
        e = (1.0 - float(u @ u)) * (1.0 - float(v @ v))
        t = float(u @ v) + rng.uniform(-1.0, 1.0) * np.sqrt(e)
        lhs = eval_mv(n, m - 1, k, t, u[: m - 1], v[: m - 1])
        rhs = sum(
            addition_term(u, n, m, k, s)
            * addition_term(v, n, m, k, s)
            * eval_mv(n, m, s, t, u, v)
            for s in range(k + 1)
        )
        worst = max(worst, abs(lhs - rhs))
    return worst
