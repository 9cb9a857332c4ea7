"""Point configurations on the unit sphere and their kernel matrices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import symlin
from .gegenbauer import _homogeneous, eval_1d, monomial_vector
from .randgen import rng_for
from .symlin import PsdReport, SymmetricMatrix

__all__ = [
    "PointConfiguration",
    "KernelMatrix",
    "sample_sphere",
    "named_code",
    "project",
    "kernel_matrix",
    "bv_matrices",
    "verify_corollary31",
]

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class PointConfiguration:
    """r points in R^n, stored as rows of coords."""

    n: int
    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != self.n:
            raise ValueError(f"coords must be (r, {self.n})")
        coords = coords.copy()
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)

    @property
    def size(self) -> int:
        return self.coords.shape[0]

    def require_unit(self, tol: float = 1e-12) -> "PointConfiguration":
        norms = np.linalg.norm(self.coords, axis=1)
        if np.max(np.abs(norms - 1.0)) > tol:
            raise ValueError("points are not on the unit sphere")
        return self

    def max_inner_product(self) -> float:
        """Largest off-diagonal Gram entry; -inf for a single point."""
        g = self.coords @ self.coords.T
        if self.size < 2:
            return -np.inf
        mask = ~np.eye(self.size, dtype=bool)
        return float(np.max(g[mask]))


@dataclass(frozen=True)
class KernelMatrix:
    base: SymmetricMatrix
    n: int
    m: int
    k: int
    source: str


def sample_sphere(n: int, r: int, seed: int) -> PointConfiguration:
    """r independent uniform points on the sphere, deterministic per seed."""
    if n < 2 or r < 1:
        raise ValueError("need n >= 2 and r >= 1")
    rng = rng_for(seed, n, r)
    g = rng.standard_normal((r, n))
    return PointConfiguration(n, g / np.linalg.norm(g, axis=1, keepdims=True))


def _helmert_rows(n: int) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to the all-ones vector."""
    rows = np.zeros((n, n + 1))
    for j in range(1, n + 1):
        rows[j - 1, :j] = 1.0
        rows[j - 1, j] = -j
        rows[j - 1] /= np.sqrt(j * (j + 1))
    return rows


def _simplex(n: int) -> np.ndarray:
    # n+1 unit vectors in R^n with pairwise inner products -1/n
    v = np.eye(n + 1) - 1.0 / (n + 1)
    v /= np.sqrt(1.0 - 1.0 / (n + 1))
    return v @ _helmert_rows(n).T


def _cross_polytope(n: int) -> np.ndarray:
    return np.vstack([np.eye(n), -np.eye(n)])


def _icosahedron() -> np.ndarray:
    base = []
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            base.append([0.0, s1, s2 * GOLDEN])
            base.append([s1, s2 * GOLDEN, 0.0])
            base.append([s2 * GOLDEN, 0.0, s1])
    return np.array(base) / np.sqrt(1.0 + GOLDEN**2)


def named_code(name: str) -> PointConfiguration:
    """Reference configurations with known minimal angle.

    Accepted names: ``simplex(n)``, ``cross_polytope(n)``, ``icosahedron``.
    """
    name = name.strip().lower()
    if name == "icosahedron":
        return PointConfiguration(3, _icosahedron())
    for prefix, builder in (("simplex", _simplex), ("cross_polytope", _cross_polytope)):
        if name.startswith(prefix + "(") and name.endswith(")"):
            try:
                n = int(name[len(prefix) + 1 : -1])
            except ValueError:
                raise ValueError(f"bad dimension in code name {name!r}") from None
            if n < 2:
                raise ValueError("code dimension must be >= 2")
            return PointConfiguration(n, builder(n))
    raise ValueError(f"unknown code name {name!r}")


def project(points: PointConfiguration, m: int) -> np.ndarray:
    """Coordinate prefixes of every point in the fixed standard basis."""
    if m < 0 or m > points.n:
        raise ValueError(f"projection level {m} out of range [0, {points.n}]")
    return points.coords[:, :m]


def kernel_values(
    n: int, m: int, k: int, t: np.ndarray, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Vectorized multivariate Gegenbauer values for paired rows.

    t has shape (r, r); u, v have shape (r, m); entry (i, j) is evaluated
    at (t[i, j], u[i], v[j]).
    """
    d = t - u @ v.T
    au = 1.0 - np.einsum("ij,ij->i", u, u)
    av = 1.0 - np.einsum("ij,ij->i", v, v)
    e = np.outer(au, av)
    return _homogeneous(n - m, k, d, e)


def kernel_matrix(points: PointConfiguration, m: int, k: int) -> KernelMatrix:
    """The PSD kernel matrix of a unit configuration at level m, degree k."""
    points.require_unit()
    n = points.n
    if m < 0 or m > n - 2:
        raise ValueError(f"level m={m} out of range [0, {n - 2}]")
    if k < 0:
        raise ValueError("degree must be >= 0")
    u = project(points, m)
    t = points.coords @ points.coords.T
    base = SymmetricMatrix(kernel_values(n, m, k, t, u, u), check=False)
    return KernelMatrix(base=base, n=n, m=m, k=k, source=f"r={points.size}")


def bv_matrices(
    points: PointConfiguration, k: int, d: int, weights
) -> tuple[list[SymmetricMatrix], SymmetricMatrix]:
    """Per-anchor congruence matrices and their sum.

    For each anchor index l, the basis is rotated so the first basis
    vector is p_l; the level-1 kernel matrix A_l then has entries built
    from the inner products with the anchor.  Y_l = W A_l W^T with
    W[i, j] = weights[i] * G_i^{(n+2k)}(<p_j, p_l>).  Every Y_l and the
    sum of all Y_l are PSD.
    """
    points.require_unit()
    n = points.n
    if n < 3:
        raise ValueError("need ambient dimension >= 3")
    weights = np.asarray(weights, dtype=float).reshape(-1)
    if weights.size != d + 1:
        raise ValueError(f"need d+1 = {d + 1} weights, got {weights.size}")
    t = points.coords @ points.coords.T
    ys = []
    total = np.zeros((d + 1, d + 1))
    for l in range(points.size):
        tl = t[:, l]
        dmat = t - np.outer(tl, tl)
        e = np.outer(1.0 - tl**2, 1.0 - tl**2)
        a_l = _homogeneous(n - 1, k, dmat, e)
        w = np.vstack([weights[i] * eval_1d(n + 2 * k, i, tl) for i in range(d + 1)])
        y = w @ a_l @ w.T
        y = 0.5 * (y + y.T)
        ys.append(SymmetricMatrix(y, check=False))
        total += y
    return ys, SymmetricMatrix(total, check=False)


def verify_corollary31(
    points: PointConfiguration,
    m: int,
    h_matrices,
    d: int,
    tol: float = symlin.DEFAULT_TOL,
) -> PsdReport:
    """Eigencheck of an expansion with PSD coefficient matrices.

    h_matrices[k] is the PSD matrix H_k defining the coefficient function
    f_k(u, v) = z_d(u) . H_k . z_d(v) (entries may be None for absent
    terms).  The assembled matrix sum_k (f_k(u_i, u_j)) o (kernel_k) must
    come out PSD.
    """
    points.require_unit()
    n = points.n
    if m < 0 or m > n - 2:
        raise ValueError(f"level m={m} out of range [0, {n - 2}]")
    u = project(points, m)
    z = np.array([monomial_vector(row, d) for row in u])
    bad = []
    total = np.zeros((points.size, points.size))
    for k, h in enumerate(h_matrices):
        if h is None:
            continue
        harr = h.array if isinstance(h, SymmetricMatrix) else np.asarray(h, float)
        if harr.shape != (z.shape[1], z.shape[1]):
            raise ValueError(
                f"H_{k} has shape {harr.shape}, expected {(z.shape[1], z.shape[1])}"
            )
        if not symlin.is_psd(harr, tol).is_psd:
            bad.append(k)
            continue
        a_k = z @ harr @ z.T
        b_k = kernel_matrix(points, m, k).base.array
        total += a_k * b_k
    if bad:
        raise ValueError(f"coefficient matrices not PSD at degrees {bad}")
    return symlin.is_psd(SymmetricMatrix(total, check=False), tol)
