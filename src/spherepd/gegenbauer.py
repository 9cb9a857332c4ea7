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
from .symlin import eigensystem

__all__ = [
    "AdditionCoefficients",
    "OrthogonalityEstimate",
    "eval_1d",
    "coeffs_1d",
    "eval_mv",
    "monomial_exponents",
    "monomial_vector",
    "addition_coefficients",
    "addition_term",
    "addition_residual",
    "expand_in_t",
    "gegenbauer_expansion",
    "orthogonality_mc",
    "orthogonality_quad",
]


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


def _check_level(n: int, m: int, lo: int = 0) -> None:
    """Refuse a level m outside lo..n-2, the range of every level-m kernel."""
    if not lo <= m <= n - 2:
        raise ValueError(f"level m={m} out of range [{lo}, {n - 2}]")


def eval_1d(n: int, k: int, t):
    """G_k for dimension parameter n at t (scalar or array), by recurrence."""
    _check_nk(n, k)
    return _homogeneous(n, k, t, 1.0)


@lru_cache(maxsize=None)
def coeffs_1d(n: int, k: int) -> tuple[float, ...]:
    """Monomial coefficients of G_k (entry j multiplies t^j), built by the
    same three-term recurrence."""
    _check_nk(n, k)
    if k == 0:
        return (1.0,)
    prev = np.array([1.0])
    cur = np.array([0.0, 1.0])
    for j in range(2, k + 1):
        nxt = np.zeros(j + 1)
        nxt[1:] = (2 * j + n - 4) * cur
        nxt[: j - 1] -= (j - 1) * prev
        nxt /= j + n - 3
        prev, cur = cur, nxt
    return tuple(cur)


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


def _kernel_args(t: np.ndarray, u: np.ndarray, sq=1.0) -> tuple[np.ndarray, np.ndarray]:
    """The recurrence arguments of a kernel matrix: d = t - u u^T and
    e = (sq_i - |u_i|^2)(sq_j - |u_j|^2).

    Row i of u is a point's level-m prefix and sq its squared norm, a
    scalar or one per point (1 on the sphere); t is the Gram matrix.
    """
    a = sq - np.einsum("ij,ij->i", u, u)
    return t - u @ u.T, np.outer(a, a)


def _pair_args(t, u, v, m: int):
    """The recurrence arguments of paired rows: d = t - <u, v> and
    e = (1 - |u|^2)(1 - |v|^2).

    u and v are level-m prefixes, vectors of length m or stacks of shape
    (..., m), against which t broadcasts.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape[-1:] != (m,) or v.shape[-1:] != (m,):
        raise ValueError(f"u and v must have length m={m}")
    return t - (u * v).sum(-1), (1.0 - (u * u).sum(-1)) * (1.0 - (v * v).sum(-1))


def eval_mv(n: int, m: int, k: int, t, u=(), v=()):
    """Multivariate Gegenbauer value at (t, u, v), division-free.

    u and v are vectors of length m (with a scalar t, the value is a
    float) or stacks of shape (..., m), against which t broadcasts; the
    array then equals the row-by-row calls bit for bit.
    """
    _check_level(n, m)
    _check_nk(n - m, k)
    return _homogeneous(n - m, k, *_pair_args(t, u, v, m))


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


def _gauss_legendre(nodes: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(nodes)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def _gauss_jacobi(nodes: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi rule for the weight (1-x)^alpha (1+x)^beta on [-1, 1].

    Golub-Welsch: the nodes are the eigenvalues of the symmetric tridiagonal
    Jacobi matrix of the monic Jacobi recurrence, built full and handed to
    symlin.eigensystem, the weights mu0 times the squared first components
    of its eigenvectors, where mu0 is the integral of the weight.  Used
    with alpha, beta >= 0.
    """
    ab = alpha + beta
    j = np.arange(1, nodes, dtype=float)
    s = 2.0 * j + ab
    diag = np.empty(nodes)
    diag[0] = (beta - alpha) / (ab + 2.0)
    diag[1:] = (beta**2 - alpha**2) / (s * (s + 2.0))
    off = np.sqrt(4.0 * j * (j + alpha) * (j + beta) * (j + ab) / (s**2 * (s + 1.0) * (s - 1.0)))
    x, vec = eigensystem(np.diag(diag) + np.diag(off, -1) + np.diag(off, 1))
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
    _check_level(n, m, 1)
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
        a = coeffs_1d(nu, k)
        f[k] = g[k] / a[k]
        w = 1.0
        for j in range(k - 2, -1, -2):
            w *= e
            g[j] -= f[k] * a[j] * w
    return np.array(f)


def expand_in_t(coeff_fns, n: int, m: int):
    """Rewrite a t-polynomial with (u, v) coefficient functions in the
    multivariate Gegenbauer basis of level m.

    coeff_fns[i] is the coefficient function of t^i (a callable of
    vectors (u, v); for m = 0 it is called with empty vectors).  Returns
    one callable of (u, v) whose value is the array f_0, ..., f_K with
    F(t,u,v) = sum_k f_k(u,v) * basis_k(t,u,v).

    At a point (u, v), it calls each coefficient function once, shifts
    the polynomial by Horner to s = t - <u,v>, i.e. t = s - d with
    (d, e) = _pair_args(0, u, v, m), and peels it once in the basis
    e^(k/2) G_k^{(n-m)}(s / sqrt(e)), e = (1-|u|^2)(1-|v|^2): O(K^2)
    operations for all K + 1 coefficients, exact at e = 0.
    """
    _check_level(n, m)

    def expansion(u, v) -> np.ndarray:
        d, e = _pair_args(0.0, u, v, m)  # d = -<u,v>
        g = np.zeros(len(coeff_fns))
        for fn in reversed(coeff_fns):  # Horner in t = s - d
            g[1:] = g[:-1] - d * g[1:]
            g[0] = fn(u, v) - d * g[0]
        return _peel(g, n - m, e)

    return expansion


def gegenbauer_expansion(poly_coeffs, n: int) -> np.ndarray:
    """One-dimensional expansion: monomial coefficients -> basis coefficients."""
    return _peel(poly_coeffs, n, 1.0)


# Samples per Monte Carlo chunk.  Chunk i draws from its own stream, so this
# size is part of the stream definition, not a tuning value.  Only one
# chunk's draws and temporaries are live at a time.
_MC_CHUNK = 1 << 16

# Rows per block of a chunk's walk.  Consecutive draws from one Generator
# give the same numbers as one draw of their total size, so this size is
# not part of the stream: it only bounds the temporaries of a block.
_MC_BLOCK = 1 << 12


def _mc_chunk(rng: np.random.Generator, n: int, m: int, k: int, l: int, f, size: int) -> np.ndarray:
    """G_k * G_l (times f(u, v)) at size uniform sphere pairs drawn from rng.

    The pairs stay unnormalized Gaussian rows gx, then gy: the stream
    gives all of gx first, so gx is drawn whole and gy one block of
    _MC_BLOCK rows at a time, as the chunk is walked block by block.
    With sx = 1/|gx|^2 and sy = 1/|gy|^2, the kernel arguments are
    d = <gx[m:], gy[m:]> sqrt(sx sy), which is t - <u,v> without
    cancellation, and e = (1 - |gx[:m]|^2 sx)(1 - |gy[:m]|^2 sy), formed
    in place with the same roundings as those expressions.  One recurrence
    pass gives both G_k and G_l.  The points u and v are formed only for
    the weight, a block of rows at a time, and f is called once on the
    whole chunk's (size, m) arrays after the walk.
    """
    gx = rng.standard_normal((size, n))
    vals = np.empty(size)
    if f is not None:
        u, v = np.empty((size, m)), np.empty((size, m))
    for lo in range(0, size, _MC_BLOCK):
        rows = slice(lo, min(lo + _MC_BLOCK, size))
        bx = gx[rows]
        by = rng.standard_normal((len(bx), n))
        ux, uy = bx[:, :m], by[:, :m]
        sx = np.einsum("ij,ij->i", bx, bx)
        sy = np.einsum("ij,ij->i", by, by)
        np.divide(1.0, sx, out=sx)
        np.divide(1.0, sy, out=sy)
        d = np.einsum("ij,ij->i", bx[:, m:], by[:, m:])
        e = np.einsum("ij,ij->i", ux, ux)
        ey = np.einsum("ij,ij->i", uy, uy)
        if f is not None:
            np.multiply(ux, np.sqrt(sx)[:, None], out=u[rows])
            np.multiply(uy, np.sqrt(sy)[:, None], out=v[rows])
        e *= sx
        np.subtract(1.0, e, out=e)
        ey *= sy
        np.subtract(1.0, ey, out=ey)
        e *= ey
        sx *= sy
        d *= np.sqrt(sx, out=sx)
        degrees = _homogeneous_upto(n - m, max(k, l), d, e, min(k, l))
        low = next(degrees)
        # the pass reads H_min(k,l) again, so it runs to the end before low is read
        np.multiply(low, low if k == l else deque(degrees, maxlen=1)[0], out=vals[rows])
    if f is not None:
        vals *= np.asarray(f(u, v), dtype=float)
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
    Within a chunk, the first sphere's Gaussian rows are drawn whole (the
    stream gives them first) and the rest is walked in blocks of 2^12
    rows, so a block's temporaries stay small; the block size is not part
    of the stream, and every value is bit for bit that of one pass over
    the chunk.  At (5, 3, 2, 4) one chunk's traced peak is about 3.5 MiB
    (8.0 MiB when the chunk was one pass), and a whole 10^7-sample
    `verify-orthogonality` run peaks near 40 MB resident.
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
    _check_level(n, m)
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
    if m > 2:
        raise ValueError("deterministic quadrature supports m <= 2 only")
    _check_level(n, m)
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
    of u, then of v, of norm >= 1; then t.  Each addition_term runs once
    on the whole stack, and one recurrence pass gives the level-m
    polynomials of every degree 0..k.
    """
    _check_level(n, m, 1)
    if samples < 1:
        raise ValueError(f"need at least 1 sample, got {samples}")
    rng = rng_for(seed, n, m, k)
    u = rng.uniform(-1.0, 1.0, size=(samples, m))
    v = rng.uniform(-1.0, 1.0, size=(samples, m))
    for w in (u, v):
        nw = np.linalg.norm(w, axis=1)
        out = nw >= 1.0
        w[out] *= (rng.uniform(0.0, 0.999, size=int(out.sum())) / nw[out])[:, None]
    d, e = _pair_args(0.0, u, v, m)  # d = -<u,v>
    t = rng.uniform(-1.0, 1.0, size=samples) * np.sqrt(e) - d
    lhs = eval_mv(n, m - 1, k, t, u[:, : m - 1], v[:, : m - 1])
    rhs = sum(
        addition_term(u, n, m, k, s) * addition_term(v, n, m, k, s) * h
        for s, h in enumerate(_homogeneous_upto(n - m, k, *_pair_args(t, u, v, m)))
    )
    return float(np.max(np.abs(lhs - rhs)))
