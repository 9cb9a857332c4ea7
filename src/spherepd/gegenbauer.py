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

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb, exp, lgamma, log, pi, prod, sqrt

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


def _homogeneous_upto(nu: int, k: int, d, e, lo: int = 0):
    """Yield H_j = e^(j/2) * G_j^{(nu)}(d / sqrt(e)) for j = lo..k, from one pass.

    d and e are finite with e >= 0.  The three-term recurrence H_0 = 1,
    H_1 = d and

        H_j = ((2j+nu-4) d H_{j-1} - (j-1) e H_{j-2}) / (j+nu-3)

    holds no square root and no division by e, so e = 0 is exact.  One
    loop serves floats and arrays: scalar d and e give Python floats,
    anything else fresh arrays of their broadcast shape.  Nothing is
    written to a value after it is yielded, so list() of this is safe;
    the storage of H_j for j < lo, which is never yielded, is reused.
    Degrees outside 0 <= lo <= k are a ValueError on the first next().
    """
    if not 0 <= lo <= k:
        raise ValueError(f"need degrees 0 <= lo <= k, got lo={lo}, k={k}")
    # H_0 = 1 and H_1 = d by exact arithmetic, which broadcasts d against e
    prev = 1.0 + 0.0 * (d * e)
    cur = d * prev
    if lo == 0:
        yield _value(prev)
    if lo <= 1 <= k:
        yield _value(cur)
    for j in range(2, k + 1):
        if j - 2 < lo:  # H_{j-2} was not yielded and is not needed again
            prev *= e
        else:
            prev = prev * e
        prev *= j - 1
        nxt = d * cur
        nxt *= 2 * j + nu - 4
        nxt -= prev
        nxt /= j + nu - 3
        prev, cur = cur, nxt
        if j >= lo:
            yield _value(nxt)


def _value(h):
    return h if isinstance(h, np.ndarray) else float(h)


def _homogeneous(nu: int, k: int, d, e):
    """e^(k/2) * G_k^{(nu)}(d / sqrt(e)): _homogeneous_upto's only value at lo = k."""
    return next(_homogeneous_upto(nu, k, d, e, k))


def _uv_arrays(u, v, m: int) -> tuple[np.ndarray, np.ndarray]:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape[-1:] != (m,) or v.shape[-1:] != (m,):
        raise ValueError(f"u and v must have length m={m}")
    return u, v


def eval_mv(n: int, m: int, k: int, t, u=(), v=()):
    """Multivariate Gegenbauer value at (t, u, v), division-free.

    u and v are vectors of length m (with a scalar t, the value is a
    float) or stacks of shape (..., m), against which t broadcasts; the
    array then equals the row-by-row calls bit for bit.
    """
    if m < 0 or m > n - 2:
        raise ValueError(f"level m={m} out of range [0, {n - 2}]")
    _check_nk(n - m, k)
    u, v = _uv_arrays(u, v, m)
    d = t - (u * v).sum(-1)
    e = (1.0 - (u * u).sum(-1)) * (1.0 - (v * v).sum(-1))
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
    return np.prod(x ** np.array(monomial_exponents(m, d)), axis=1)


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


def _gauss_jacobi(nodes: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi rule for the weight (1-x)^alpha (1+x)^beta on [-1, 1].

    Golub-Welsch: the nodes are the eigenvalues of the symmetric tridiagonal
    Jacobi matrix of the monic Jacobi recurrence, the weights mu0 times the
    squared first components of its eigenvectors, where mu0 is the integral
    of the weight.  Used with alpha, beta >= 0.
    """
    ab = alpha + beta
    j = np.arange(1, nodes, dtype=float)
    s = 2.0 * j + ab
    diag = np.empty(nodes)
    diag[0] = (beta - alpha) / (ab + 2.0)
    diag[1:] = (beta**2 - alpha**2) / (s * (s + 2.0))
    off = np.sqrt(4.0 * j * (j + alpha) * (j + beta) * (j + ab) / (s**2 * (s + 1.0) * (s - 1.0)))
    x, vec = np.linalg.eigh(np.diag(diag) + np.diag(off, -1))
    mu0 = exp((ab + 1.0) * log(2.0) + lgamma(alpha + 1.0) + lgamma(beta + 1.0) - lgamma(ab + 2.0))
    return x, mu0 * vec[0] ** 2


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


def addition_term(u, n: int, m: int, k: int, s: int):
    """The degree-(k-s) anchor polynomial of the level-raising identity.

    With nu = n - m + 1 (the effective dimension parameter at level m-1),
    equals sqrt(c[s]) * w^(k-s) * G_{k-s} of dimension parameter nu+2s at
    u_m / w, with w^2 = 1 - u_1^2 - ... - u_{m-1}^2, evaluated by the
    homogeneous recurrence in (u_m, w^2) so w = 0 is regular.  The
    coefficients c are the addition coefficients for (nu, k).  A vector u
    gives a float, a stack of shape (..., m) an array that equals the
    row-by-row calls bit for bit.
    """
    if not 1 <= m <= n - 2:
        raise ValueError(f"level m={m} out of range [1, {n - 2}]")
    if not 0 <= s <= k:
        raise ValueError(f"index s={s} out of range [0, {k}]")
    u = np.asarray(u, dtype=float)
    if u.shape[-1:] != (m,):
        raise ValueError(f"u must have length m={m}")
    nu = n - m + 1
    w2 = 1.0 - (u[..., : m - 1] ** 2).sum(-1)
    val = _homogeneous(nu + 2 * s, k - s, u[..., m - 1], w2)
    return sqrt(addition_coefficients(nu, k).c[s]) * val


def _peel(g, nu: int, e) -> np.ndarray:
    """Coefficients f of sum_j g[j] s^j in the basis e^(k/2) G_k^{(nu)}(s / sqrt(e)).

    With a_j the monomial coefficients of G_k, the degree-k basis element
    is sum_j a_j e^((k-j)/2) s^j over j = k, k-2, ..., so back-substitution
    from the top degree divides only by the leading a_k, never by e, and
    e = 0 is exact.
    """
    g = np.array(g, dtype=float).tolist()
    f = [0.0] * len(g)
    for k in range(len(g) - 1, -1, -1):
        a = coeffs_1d(nu, k).coeffs
        f[k] = g[k] / a[k]
        w = 1.0
        for j in range(k - 2, -1, -2):
            w *= e
            g[j] -= f[k] * a[j] * w
    return np.array(f)


def expand_in_t(coeff_fns, n: int, m: int):
    """Rewrite a t-polynomial with (u, v) coefficient functions in the
    multivariate Gegenbauer basis of level m.

    coeff_fns[i] is the coefficient function of t^i (a callable of (u, v);
    for m = 0 it is called with empty vectors).  Returns callables
    f_0, ..., f_K with  F(t,u,v) = sum_k f_k(u,v) * basis_k(t,u,v).

    At a point (u, v), f_k calls each coefficient function once,
    re-expands the polynomial in s = t - <u,v> and peels it in the basis
    e^(k/2) G_k^{(n-m)}(s / sqrt(e)), e = (1-|u|^2)(1-|v|^2): O(K^2)
    operations, exact at e = 0.
    """
    if m < 0 or m > n - 2:
        raise ValueError(f"level m={m} out of range [0, {n - 2}]")

    def expansion(u, v) -> np.ndarray:
        u_, v_ = _uv_arrays(u, v, m)
        ip = float(u_ @ v_)
        e = (1.0 - float(u_ @ u_)) * (1.0 - float(v_ @ v_))
        g = np.zeros(len(coeff_fns))
        for fn in reversed(coeff_fns):  # Horner in t = s + <u,v>
            g[1:] = g[:-1] + ip * g[1:]
            g[0] = ip * g[0] + fn(u, v)
        return _peel(g, n - m, e)

    return [lambda u, v, k=k: float(expansion(u, v)[k]) for k in range(len(coeff_fns))]


def gegenbauer_expansion(poly_coeffs, n: int) -> np.ndarray:
    """One-dimensional expansion: monomial coefficients -> basis coefficients."""
    return _peel(poly_coeffs, n, 1.0)


# Samples per Monte Carlo chunk.  Chunk i draws from its own stream, so this
# size is part of the stream definition, not a tuning value.  Only one
# chunk's draws and temporaries are live at a time.
_MC_CHUNK = 1 << 16


def _mc_chunk(rng: np.random.Generator, n: int, m: int, k: int, l: int, f, size: int) -> np.ndarray:
    """G_k * G_l (times f(u, v)) at size uniform sphere pairs drawn from rng.

    The pairs stay unnormalized Gaussian rows gx, then gy.  With
    sx = 1/|gx|^2 and sy = 1/|gy|^2, the kernel arguments are
    d = <gx[m:], gy[m:]> sqrt(sx sy), which is t - <u,v> without
    cancellation, and e = (1 - |gx[:m]|^2 sx)(1 - |gy[:m]|^2 sy), formed
    in place with the same roundings as those expressions.  One recurrence
    pass gives both G_k and G_l.  The points u and v are formed only for
    the weight, which is taken before sx is overwritten.
    """
    gx = rng.standard_normal((size, n))
    gy = rng.standard_normal((size, n))
    ux, uy = gx[:, :m], gy[:, :m]
    sx = np.einsum("ij,ij->i", gx, gx)
    sy = np.einsum("ij,ij->i", gy, gy)
    np.divide(1.0, sx, out=sx)
    np.divide(1.0, sy, out=sy)
    d = np.einsum("ij,ij->i", gx[:, m:], gy[:, m:])
    e = np.einsum("ij,ij->i", ux, ux)
    ey = np.einsum("ij,ij->i", uy, uy)
    if f is not None:
        weight = f(ux * np.sqrt(sx)[:, None], uy * np.sqrt(sy)[:, None])
        weight = np.asarray(weight, dtype=float)
    e *= sx
    np.subtract(1.0, e, out=e)
    ey *= sy
    np.subtract(1.0, ey, out=ey)
    e *= ey
    sx *= sy
    d *= np.sqrt(sx, out=sx)
    del sx, sy, ey  # freed before the recurrence allocates its rows
    degrees = _homogeneous_upto(n - m, max(k, l), d, e, min(k, l))
    vals = next(degrees)
    # the pass reads H_min(k,l) again, so it runs to the end before vals changes
    vals *= vals if k == l else deque(degrees, maxlen=1)[0]
    if f is not None:
        vals *= weight
    return vals


def orthogonality_mc(
    n: int, m: int, k: int, l: int, f=None, samples: int = 1_000_000, seed: int = 0
) -> OrthogonalityEstimate:
    """Monte Carlo estimate of the sphere-pair integral of G_k * G_l * f.

    The estimate is the mean against the normalized uniform product
    measure on two spheres; for k != l it should sit within a few
    standard errors of zero for any continuous weight f(u, v).

    The samples come in fixed chunks of 2^16 (the last one shorter), and
    chunk i draws from its own stream rng_for(seed, n, m, k, l, i), i.e.
    derive_seed(seed, n, m, k, l, i).  The chunks run in order on the
    calling thread, and a weight f is called once per chunk with that
    chunk's (rows, m) arrays u and v, so f must be vectorized.

    No array of all samples is kept, so memory does not grow with samples.
    Each chunk's values x give its count c, mean a = np.mean(x) and
    M2 = (x - a) @ (x - a), and these are merged into the running
    (count, mean, M2) in chunk order by the pairwise update of Chan,
    Golub and LeVeque (1979): with delta = a - mean and C = count + c,

        mean += delta * c / C,   M2 += M2_chunk + delta^2 * count * c / C.

    The estimate is the final mean and the standard error
    sqrt(M2 / (samples - 1)) / sqrt(samples).  Both agree with np.mean and
    np.std(ddof=1) over all samples to rounding, not bit for bit, so a
    printed z-score may move in its last digits.
    """
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    if m < 0 or m > n - 2:
        raise ValueError(f"level m={m} out of range [0, {n - 2}]")
    _check_nk(n - m, k)
    _check_nk(n - m, l)
    count, mean, m2 = 0, 0.0, 0.0
    for i, lo in enumerate(range(0, samples, _MC_CHUNK)):
        size = min(_MC_CHUNK, samples - lo)
        vals = _mc_chunk(rng_for(seed, n, m, k, l, i), n, m, k, l, f, size)
        chunk_mean = float(np.mean(vals))
        vals -= chunk_mean
        total = count + size
        delta = chunk_mean - mean
        mean += delta * size / total
        m2 += float(vals @ vals) + delta * delta * count * size / total
        count = total
    return OrthogonalityEstimate(mean, sqrt(m2 / (samples - 1)) / sqrt(samples), samples)


def _ball_quadrature(m: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (P, m) and weights for integration over the unit m-ball
    against the weight (1-|x|^2)^p.

    For m = 1 this is Gauss-Jacobi with alpha = beta = p.  For m = 2 it is
    Gauss-Jacobi with alpha = p, beta = 0 in rho = r^2 on [0, 1], where
    dx = d(rho)/2 d(angle), times equally spaced angles.
    """
    if m == 0:
        return np.zeros((1, 0)), np.ones(1)
    if m == 1:
        x, w = _gauss_jacobi(32, p, p)
        return x[:, None], w
    if m == 2:
        x, w = _gauss_jacobi(16, p, 0.0)
        # rho = (1+x)/2 turns (1-rho)^p d(rho)/2 into 2^-(p+2) (1-x)^p dx
        r = np.sqrt(0.5 * (1.0 + x))
        wr = w * 2.0 ** -(p + 2.0)
        na = 32
        ang = 2.0 * np.pi * np.arange(na) / na
        pts = np.stack(
            [
                np.outer(r, np.cos(ang)).ravel(),
                np.outer(r, np.sin(ang)).ravel(),
            ],
            axis=1,
        )
        w = np.outer(wr, np.full(na, 2.0 * np.pi / na)).ravel()
        return pts, w
    raise ValueError("tensorized ball quadrature supports m <= 2 only")


def orthogonality_quad(n: int, m: int, k: int, l: int, q=None) -> float:
    """Deterministic quadrature of the weighted orthogonality integral.

    With e = (1-|u|^2)(1-|v|^2), t = s sqrt(e) + <u,v> turns the kernel into
    e^(k/2) G_k(s) and the density of t into e^((n-m-2)/2) (1-s^2)^((n-m-3)/2),
    so the integral is line * ball:

        line = integral of G_k(s) G_l(s) (1-s^2)^((n-m-3)/2) over s in [-1, 1],
        ball = double integral over the m-ball of (1-|u|^2)^p (1-|v|^2)^p q(u, v),

    with p = (n-m-2+k+l)/2.  line is Gauss-Legendre in the angle of s; for
    k != l it vanishes to quadrature precision.  Without q, ball is the
    closed form (pi^(m/2) Gamma(p+1) / Gamma(p+1+m/2))^2.  With q it is
    a^T Q a, a_i the Gauss-Jacobi weights of the ball nodes x_i against
    (1-|x|^2)^p and Q_ij = q(x_i, x_j), exact for q polynomial of degree
    up to 31 in each of u and v, whether p is an integer or not.
    """
    if m < 0 or m > 2:
        raise ValueError("deterministic quadrature supports m <= 2 only")
    if m > n - 2:
        raise ValueError(f"level m={m} out of range [0, {n - 2}]")
    nm = n - m
    phi, wphi = _gauss_legendre(max(32, k + l + 8), 0.0, np.pi)
    s = np.cos(phi)  # (1-s^2)^((n-m-3)/2) ds = sin(phi)^(n-m-2) dphi
    gk, gl = eval_1d(nm, k, s), eval_1d(nm, l, s)
    line = float(np.sum(wphi * np.sin(phi) ** (nm - 2) * gk * gl))

    p = (nm - 2 + k + l) / 2.0
    if q is None:
        return line * (pi ** (m / 2) * exp(lgamma(p + 1.0) - lgamma(p + 1.0 + m / 2))) ** 2
    pts, a = _ball_quadrature(m, p)
    size = pts.shape[0]  # q sees the (u, v) grid as two (size^2, m) arrays
    qvals = np.asarray(q(np.repeat(pts, size, axis=0), np.tile(pts, (size, 1))), dtype=float)
    return line * float(a @ qvals.reshape(size, size) @ a)


def addition_residual(n: int, m: int, k: int, samples: int = 100, seed: int = 0) -> float:
    """Max residual of the level-raising identity at random valid triples.

    Compares the level-(m-1) polynomial at (t, u', v') with the sum over s
    of anchor-polynomial products times level-m polynomials, where u and v
    extend u' and v' by one ball coordinate.  For exact coefficients the
    residual is at machine precision.

    rng_for(seed, n, m, k) draws all samples at once: u, then v, each
    (samples, m) in the cube; a shrink factor into the ball for each row
    of u, then of v, of norm >= 1; then t.  eval_mv and addition_term each
    run once per term on the whole stack.
    """
    if not 1 <= m <= n - 2:
        raise ValueError(f"level m={m} out of range [1, {n - 2}]")
    if samples < 1:
        raise ValueError(f"need at least 1 sample, got {samples}")
    rng = rng_for(seed, n, m, k)
    u = rng.uniform(-1.0, 1.0, size=(samples, m))
    v = rng.uniform(-1.0, 1.0, size=(samples, m))
    for w in (u, v):
        nw = np.linalg.norm(w, axis=1)
        out = nw >= 1.0
        w[out] *= (rng.uniform(0.0, 0.999, size=int(out.sum())) / nw[out])[:, None]
    e = (1.0 - (u * u).sum(-1)) * (1.0 - (v * v).sum(-1))
    t = (u * v).sum(-1) + rng.uniform(-1.0, 1.0, size=samples) * np.sqrt(e)
    lhs = eval_mv(n, m - 1, k, t, u[:, : m - 1], v[:, : m - 1])
    rhs = sum(
        addition_term(u, n, m, k, s) * addition_term(v, n, m, k, s) * eval_mv(n, m, s, t, u, v)
        for s in range(k + 1)
    )
    return float(np.max(np.abs(lhs - rhs)))
