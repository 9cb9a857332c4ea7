"""Point configurations on the unit sphere and their kernel matrices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import symlin
from .gegenbauer import _check_level, _homogeneous, _homogeneous_upto, _kernel_args, monomial_vector
from .randgen import rng_for
from .symlin import PsdReport, SymmetricMatrix

__all__ = [
    "PointConfiguration",
    "KernelMatrix",
    "sample_sphere",
    "named_code",
    "project",
    "kernel_matrix",
    "kernel_psd_reports",
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

    def require_unit(self) -> "PointConfiguration":
        norms = np.linalg.norm(self.coords, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-12):  # written so that NaN fails
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


def _psd_reports(nu: int, t: np.ndarray, u: np.ndarray, lo: int, hi: int, tol: float):
    """symlin.is_psd of H_lo..H_hi at d = t - u u^T, e = (1-|u_i|^2)(1-|u_j|^2).

    One recurrence pass; each H_k is tested as the pass produces it and
    then dropped.  It goes to is_psd as it is, with no symmetric copy:
    for an exactly symmetric t it is exactly symmetric by construction.
    """
    d, e = _kernel_args(t, u)
    return [symlin.is_psd(h, tol) for h in _homogeneous_upto(nu, hi, d, e, lo)]


def kernel_matrix(points: PointConfiguration, m: int, k: int) -> KernelMatrix:
    """The PSD kernel matrix of a unit configuration at level m, degree k."""
    points.require_unit()
    n = points.n
    _check_level(n, m)
    if k < 0:
        raise ValueError("degree must be >= 0")
    u = project(points, m)
    t = points.coords @ points.coords.T
    base = SymmetricMatrix(_homogeneous(n - m, k, *_kernel_args(t, u)))
    return KernelMatrix(base=base, n=n, m=m, k=k, source=f"r={points.size}")


def kernel_psd_reports(points: PointConfiguration, m: int, lo: int, hi: int) -> list[PsdReport]:
    """symlin.is_psd of the level-m kernel matrix at each degree lo..hi.

    The same matrices as kernel_matrix, from one recurrence pass up to hi
    (_psd_reports).  The points are taken to be on the unit sphere
    (callers check once with require_unit).
    """
    _check_level(points.n, m)
    t = points.coords @ points.coords.T
    return _psd_reports(points.n - m, t, project(points, m), lo, hi, symlin.DEFAULT_TOL)


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
    if k < 0 or d < 0:
        raise ValueError("degrees k and d must be >= 0")
    weights = np.asarray(weights, dtype=float).reshape(-1)
    if weights.size != d + 1:
        raise ValueError(f"need d+1 = {d + 1} weights, got {weights.size}")
    t = points.coords @ points.coords.T
    ys = []
    total = np.zeros((d + 1, d + 1))
    for l in range(points.size):
        tl = t[:, l]
        a_l = _homogeneous(n - 1, k, *_kernel_args(t, tl[:, None]))
        w = weights[:, None] * np.vstack(list(_homogeneous_upto(n + 2 * k, d, tl, 1.0)))
        y = w @ a_l @ w.T
        y = 0.5 * (y + y.T)
        ys.append(SymmetricMatrix(y))
        total += y
    return ys, SymmetricMatrix(total)


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
    terms), read through SymmetricMatrix, so an asymmetric H_k is refused.
    The assembled matrix sum_k (f_k(u_i, u_j)) o (kernel_k) must come out
    PSD.  Every degree's kernel comes from one recurrence pass; total is
    mirrored, as z H z^T is not formed exactly symmetric.
    """
    points.require_unit()
    n = points.n
    _check_level(n, m)
    u = project(points, m)
    z = np.array([monomial_vector(row, d) for row in u])
    h_matrices = list(h_matrices)
    d_e = _kernel_args(points.coords @ points.coords.T, u)
    kernels = _homogeneous_upto(n - m, len(h_matrices) - 1, *d_e) if h_matrices else ()
    bad = []
    total = np.zeros((points.size, points.size))
    for k, (h, b_k) in enumerate(zip(h_matrices, kernels)):
        if h is None:
            continue
        harr = SymmetricMatrix(h).array
        if harr.shape != (z.shape[1], z.shape[1]):
            raise ValueError(
                f"H_{k} has shape {harr.shape}, expected {(z.shape[1], z.shape[1])}"
            )
        if not symlin.is_psd(harr, tol).is_psd:
            bad.append(k)
            continue
        total += (z @ harr @ z.T) * b_k
    if bad:
        raise ValueError(f"coefficient matrices not PSD at degrees {bad}")
    return symlin.is_psd(SymmetricMatrix(total), tol)
