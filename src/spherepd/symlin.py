"""Dense symmetric linear algebra.

Eigenvalues come from numpy's LAPACK symmetric eigensolvers (``eigvalsh``
and ``eigh``); everything else in the library reduces its
positive-semidefiniteness questions to this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SymmetricMatrix",
    "PsdReport",
    "eigenvalues",
    "eigensystem",
    "is_psd",
    "hadamard",
    "gram",
    "psd_rank",
    "realize",
]

DEFAULT_TOL = 1e-8


class SymmetricMatrix:
    """A dense real symmetric matrix.

    Symmetry is structural: only the upper triangle of the input is kept
    and mirrored, so ``entries(i, j) == entries(j, i)`` always holds.
    """

    def __init__(self, array: np.ndarray, check: bool = True):
        a = np.asarray(array, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ValueError("dimension must be >= 1")
        if check:
            # equal infinities and mirrored NaNs count as symmetric and are
            # left to callers; any other non-finite pair is not close
            scale = np.max(np.abs(a), initial=1.0, where=np.isfinite(a))
            if not np.isclose(a, a.T, rtol=0.0, atol=1e-10 * scale, equal_nan=True).all():
                raise ValueError("input matrix is not symmetric")
        upper = np.triu(a)
        self._array = upper + np.triu(a, 1).T
        self._array.flags.writeable = False

    @classmethod
    def from_upper(cls, dim: int, upper: np.ndarray) -> "SymmetricMatrix":
        """Build from the row-major upper triangle (length dim*(dim+1)/2)."""
        upper = np.asarray(upper, dtype=float)
        if upper.size != dim * (dim + 1) // 2:
            raise ValueError("upper triangle has wrong length")
        a = np.zeros((dim, dim))
        a[np.triu_indices(dim)] = upper
        return cls(a + np.triu(a, 1).T, check=False)

    @property
    def dim(self) -> int:
        return self._array.shape[0]

    @property
    def array(self) -> np.ndarray:
        """Read-only view of the full matrix."""
        return self._array

    @property
    def upper(self) -> np.ndarray:
        """Row-major upper triangle, the canonical storage."""
        return self._array[np.triu_indices(self.dim)]

    def __repr__(self) -> str:
        return f"SymmetricMatrix(dim={self.dim})"


@dataclass(frozen=True)
class PsdReport:
    """Outcome of a positive-semidefiniteness test."""

    min_eigenvalue: float
    matrix_scale: float
    is_psd: bool
    tolerance_used: float

    @property
    def threshold(self) -> float:
        """Smallest eigenvalue the test accepts: -tol * max(scale, 1)."""
        return -self.tolerance_used * max(self.matrix_scale, 1.0)


def _as_array(a) -> np.ndarray:
    """The matrix to hand LAPACK, never to be written to: a SymmetricMatrix's
    array, an exactly symmetric float array as given, else the symmetric part.

    The symmetric part of a symmetric array is the array itself bit for bit,
    where a + a.T does not overflow, so skipping its copy changes no result.
    """
    if isinstance(a, SymmetricMatrix):
        return a.array
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("expected a square matrix")
    return arr if np.array_equal(arr, arr.T) else 0.5 * (arr + arr.T)


def _finite(arr: np.ndarray) -> np.ndarray:
    """arr itself, if all its entries are finite.

    LAPACK does not reliably propagate NaN: for diag(-1, NaN) eigvalsh
    returns [0, -0], which would pass as PSD.
    """
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    return arr


def eigensystem(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and matching orthonormal eigenvectors.

    Returns (w, V) with V[:, i] the unit eigenvector for w[i].  Vector
    signs are fixed so the largest-magnitude component is positive,
    which keeps downstream factorizations deterministic.  NaN or
    infinite entries raise ValueError.
    """
    w, v = np.linalg.eigh(_finite(_as_array(a)))
    cols = np.arange(v.shape[1])
    lead = v[np.argmax(np.abs(v), axis=0), cols]
    v[:, lead < 0] *= -1.0
    return w, v


def eigenvalues(a) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending; NaN or infinite
    entries raise ValueError."""
    return np.linalg.eigvalsh(_finite(_as_array(a)))


def _report(w: np.ndarray, tol: float) -> PsdReport:
    """PSD verdict from ascending eigenvalues w."""
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    scale = float(np.max(np.abs(w)))
    lo = float(w[0])
    return PsdReport(
        min_eigenvalue=lo,
        matrix_scale=scale,
        is_psd=lo >= -tol * max(scale, 1.0),
        tolerance_used=tol,
    )


def _rank_mask(w: np.ndarray, tol: float) -> np.ndarray:
    """Eigenvalues above the rank threshold; raises unless w is PSD."""
    report = _report(w, tol)
    if not report.is_psd:
        raise ValueError(
            f"matrix is not PSD (min eigenvalue {report.min_eigenvalue:.3e})"
        )
    return w > -report.threshold


def is_psd(a, tol: float = DEFAULT_TOL) -> PsdReport:
    """Relative-tolerance PSD test: min eigenvalue >= -tol * max(scale, 1)."""
    return _report(eigenvalues(a), tol)


def hadamard(a, b) -> SymmetricMatrix:
    """Entrywise (Schur) product; preserves positive semidefiniteness."""
    aa = _as_array(a)
    bb = _as_array(b)
    if aa.shape != bb.shape:
        raise ValueError(f"dimension mismatch: {aa.shape[0]} vs {bb.shape[0]}")
    return SymmetricMatrix(aa * bb, check=False)


def gram(points) -> SymmetricMatrix:
    """Gram matrix of a point set (rows of a 2-D array, or .coords)."""
    coords = getattr(points, "coords", points)
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[0] == 0:
        raise ValueError("expected a nonempty r x n array of points")
    return SymmetricMatrix(coords @ coords.T, check=False)


def psd_rank(a, tol: float = DEFAULT_TOL) -> int:
    """Number of eigenvalues above tol * max(scale, 1); input must be PSD."""
    return int(np.sum(_rank_mask(eigenvalues(a), tol)))


def realize(a, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Points whose Gram matrix is the given PSD matrix.

    Factorizes A = Q L Q^T and returns the rows of Q L^{1/2} restricted
    to the eigenvalues above the rank threshold, ordered by descending
    eigenvalue.  The embedding dimension equals psd_rank(A, tol).
    """
    w, v = eigensystem(a)
    keep = _rank_mask(w, tol)
    w = w[keep][::-1]
    v = v[:, keep][:, ::-1]
    return v * np.sqrt(w)
