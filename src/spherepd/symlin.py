"""Dense symmetric linear algebra.

Eigenvalues come from numpy's LAPACK symmetric eigensolvers (``eigvalsh``
and ``eigh``), called here and nowhere else: the rest of the library
reduces its positive-semidefiniteness questions, and the Jacobi matrices
of its Gauss-Jacobi rules, to this module.
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
    "psd_rank",
    "realize",
]

DEFAULT_TOL = 1e-8


class SymmetricMatrix:
    """A dense real symmetric matrix, read-only.  A SymmetricMatrix is reused;
    other input is copied as float and must meet the rule of _symmetric."""

    def __init__(self, array):
        if isinstance(array, SymmetricMatrix):
            self._array = array.array
            return
        a = _symmetric(np.array(array, dtype=float))
        a.flags.writeable = False
        self._array = a

    @property
    def dim(self) -> int:
        return self._array.shape[0]

    @property
    def array(self) -> np.ndarray:
        """Read-only view of the full matrix."""
        return self._array

    def __repr__(self) -> str:
        return f"SymmetricMatrix(dim={self.dim})"


@dataclass(frozen=True)
class PsdReport:
    """Outcome of a positive-semidefiniteness test."""

    min_eigenvalue: float
    matrix_scale: float
    tolerance_used: float

    @property
    def threshold(self) -> float:
        """Smallest eigenvalue the test accepts: -tol * max(scale, 1)."""
        return -self.tolerance_used * max(self.matrix_scale, 1.0)

    @property
    def is_psd(self) -> bool:
        """The verdict, read from the same threshold that reports print."""
        return self.min_eigenvalue >= self.threshold


def _symmetric(arr: np.ndarray) -> np.ndarray:
    """The one rule for a float matrix: square with dimension >= 1, and arr
    itself if it equals its transpose bit for bit (mirrored zeros of opposite
    sign do not), else its upper triangle mirrored if within 1e-10 of its
    largest finite entry, else refused."""
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise ValueError("dimension must be >= 1")
    if (arr.view(np.uint64) == arr.T.view(np.uint64)).all():
        return arr
    # equal infinities and mirrored NaNs pass; any other non-finite gap fails
    scale = np.max(np.abs(arr), initial=1.0, where=np.isfinite(arr))
    if not np.isclose(arr, arr.T, rtol=0.0, atol=1e-10 * scale, equal_nan=True).all():
        raise ValueError("input matrix is not symmetric")
    return np.triu(arr) + np.triu(arr, 1).T


def _as_array(a) -> np.ndarray:
    """The matrix to hand LAPACK, never to be written to: a SymmetricMatrix's
    array, else a float array under the rule of _symmetric, not copied when
    it equals its transpose bit for bit."""
    if isinstance(a, SymmetricMatrix):
        return a.array
    return _symmetric(np.asarray(a, dtype=float))


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
    return PsdReport(min_eigenvalue=lo, matrix_scale=scale, tolerance_used=tol)


def _lower_reports(stack: np.ndarray, tol: float) -> list[PsdReport]:
    """The PSD report of each matrix of a (count, r, r) stack, from one
    eigvalsh call that reads only the lower triangles.

    A matrix built on its lower triangle alone needs no upper one:
    eigvalsh with UPLO='L' never reads it, so it is neither mirrored nor
    tested by the rule of _symmetric.  Each matrix gets the eigenvalues,
    bit for bit, of its own call on the full symmetric matrix.
    """
    return [_report(w, tol) for w in np.linalg.eigvalsh(_finite(stack), UPLO="L")]


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
