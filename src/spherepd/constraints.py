"""Feasible-pair hierarchy and Euclidean kernel maps.

A feasible pair (T, U) is candidate inner-product data: T plays the role
of a Gram matrix of r unit vectors and row i of U the first n-1
coordinates of point i.  Augmenting with the unused basis vectors turns
kernel-matrix positivity at level m into a family of necessary
conditions, nested in m; pairs satisfying the rank-n conditions are
exactly the realizable ones and can be reconstructed as actual points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import symlin
from .gegenbauer import _check_level, _homogeneous, _kernel_args
from .spherical import PointConfiguration, _psd_reports
from .symlin import SymmetricMatrix

__all__ = [
    "FeasiblePair",
    "AugmentedPair",
    "MembershipReport",
    "make_pair",
    "augment",
    "lambda_member",
    "delta_member",
    "reconstruct",
    "euclid_kernel",
    "h_map",
    "pair_from_points",
]

IDENTITY_TOL = 1e-9
RANK_TOL = 1e-7


@dataclass(frozen=True)
class FeasiblePair:
    t: SymmetricMatrix
    u: np.ndarray
    n: int

    @property
    def r(self) -> int:
        return self.t.dim


@dataclass(frozen=True)
class AugmentedPair:
    x: SymmetricMatrix
    v: np.ndarray
    m: int


@dataclass(frozen=True)
class MembershipReport:
    member: bool
    reports: dict


def make_pair(t, u, n: int) -> FeasiblePair:
    """Validate and wrap candidate data; lists every violated condition."""
    if n < 2:  # the levels run 0..n - 2
        raise ValueError(f"a feasible pair needs n >= 2, got n={n}")
    tm = SymmetricMatrix(t)
    ua = np.asarray(u, dtype=float)
    r = tm.dim
    problems = []
    if ua.shape != (r, n - 1):
        raise ValueError(f"U must have shape {(r, n - 1)}, got {ua.shape}")
    arr = tm.array
    for name, a in (("T", arr), ("U", ua)):
        if not np.all(np.isfinite(a)):  # NaN passes every comparison below
            problems.append(f"entries of {name} must be finite")
    if np.max(np.abs(np.diag(arr) - 1.0)) > 1e-12:
        problems.append("diagonal of T must be 1")
    if np.max(np.abs(arr)) > 1.0 + 1e-12:
        problems.append("entries of T must lie in [-1, 1]")
    norms = np.linalg.norm(ua, axis=1)
    if np.max(norms) > 1.0 + 1e-12:
        bad = np.flatnonzero(norms > 1.0 + 1e-12)
        problems.append(f"rows of U with norm > 1: {list(bad)}")
    if problems:
        raise ValueError("infeasible pair: " + "; ".join(problems))
    return FeasiblePair(tm, ua, n)


def pair_from_points(points: PointConfiguration) -> FeasiblePair:
    """The feasible pair realized by an actual unit configuration."""
    points.require_unit()
    return make_pair(points.coords @ points.coords.T, points.coords[:, :-1], points.n)


def augment(pair: FeasiblePair, m: int) -> AugmentedPair:
    """Append the unused basis vectors e_{m+1}..e_{n-1} as extra points.

    The result has size r + n - m - 1; its inner-product block restricted
    to the first r indices is T, the cross block holds u-coordinates, and
    the basis block is the identity.  Projection data for the appended
    basis vectors is zero (they are orthogonal to e_1..e_m).
    """
    n, r = pair.n, pair.r
    _check_level(n, m)
    extra = n - m - 1
    size = r + extra
    x = np.eye(size)
    x[:r, :r] = pair.t.array
    x[:r, r:] = pair.u[:, m : n - 1]
    x[r:, :r] = x[:r, r:].T
    v = np.zeros((size, m))
    v[:r] = pair.u[:, :m]
    return AugmentedPair(SymmetricMatrix(x), v, m)


def lambda_member(
    pair: FeasiblePair, m: int, d: int, tol: float = symlin.DEFAULT_TOL
) -> MembershipReport:
    """Kernel-matrix positivity of the augmented pair for k = 1..d, one pass."""
    if d < 1:
        raise ValueError("need d >= 1")
    aug = augment(pair, m)
    reports = dict(enumerate(_psd_reports(pair.n - m, aug.x.array, aug.v, 1, d, tol), 1))
    return MembershipReport(all(rep.is_psd for rep in reports.values()), reports)


def delta_member(pair: FeasiblePair) -> bool:
    """Membership in the realizable set: T - U U^T PSD and the quadratic
    coupling identity (t_ij - <u_i, u_j>)^2 = (1-|u_i|^2)(1-|u_j|^2)."""
    diff, e = _kernel_args(pair.t.array, pair.u)
    if not symlin.is_psd(diff).is_psd:
        return False
    return bool(np.max(np.abs(diff**2 - e)) <= IDENTITY_TOL)


def reconstruct(pair: FeasiblePair) -> tuple[PointConfiguration, np.ndarray]:
    """Recover unit points and an orthonormal basis from a realizable pair.

    Builds the fully augmented inner-product matrix (level 0), checks it
    is PSD of rank at most n, and factors it.  Returns (points, basis)
    with basis rows e_1..e_{n-1}; t_ij = <p_i, p_j> and u_ik = <p_i, e_k>
    hold within the realization tolerance.
    """
    if not delta_member(pair):
        raise ValueError("pair is not in the realizable set")
    n, r = pair.n, pair.r
    x0 = augment(pair, 0).x
    q = symlin.realize(x0, RANK_TOL)
    rank = q.shape[1]
    if rank > n:
        raise ValueError(f"augmented matrix has numerical rank {rank} > n = {n}")
    if rank < n:
        q = np.hstack([q, np.zeros((q.shape[0], n - rank))])
    return PointConfiguration(n, q[:r]), q[r:]


def euclid_kernel(points: PointConfiguration, m: int, k: int) -> SymmetricMatrix:
    """Degree-k PSD kernel for points of arbitrary norm.

    Division-free form of the homogenized kernel: with x_i = |p_i|^2 and
    u_i the level-m prefix, the entry is e^(k/2) G_k(d / sqrt(e)) with

        d = t_ij - <u_i,u_j>,   e = (x_i - |u_i|^2)(x_j - |u_j|^2),

    evaluated by the homogeneous recurrence in d and e, so it is a
    polynomial in the original coordinates.  A zero vector
    contributes entry 0 for k >= 1 and 1 for k = 0 (the continuous limit).
    """
    n = points.n
    _check_level(n, m)
    c = points.coords
    d_e = _kernel_args(c @ c.T, c[:, :m], np.einsum("ij,ij->i", c, c))
    return SymmetricMatrix(_homogeneous(n - m, k, *d_e))


def h_map(a, n: int, k: int) -> SymmetricMatrix:
    """Entrywise Gegenbauer map of a PSD matrix of rank at most n.

    Entry (i, j) is (a_ii a_jj)^(k/2) G_k(a_ij / sqrt(a_ii a_jj)),
    evaluated division-free.  For k = 1 this is A itself; for k = 2 it is
    (n A_2 - a^T a) / (n - 1) with A_2 the entrywise square and a the
    diagonal.
    """
    arr = SymmetricMatrix(a).array
    if np.min(np.diag(arr)) < 0:
        raise ValueError("diagonal entries must be nonnegative")
    rank = symlin.psd_rank(arr)
    if rank > n:
        raise ValueError(f"rank {rank} exceeds n = {n}; the PSD claim does not apply")
    e = np.outer(np.diag(arr), np.diag(arr))
    return SymmetricMatrix(_homogeneous(n, k, arr, e))
