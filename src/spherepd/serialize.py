"""File formats for matrices, point sets, feasible pairs, and certificates.

Matrices: CSV (row-major, full square) or JSON {"dim": n, "upper": [...]}
with the upper triangle (including the diagonal) flattened row by row.
Point sets: CSV (one point per row) or JSON {"n": ..., "points": [[...]]}.
Feasible pairs: JSON {"n": ..., "T": full square, "U": rows}.
Multivariate polynomials: JSON {"n", "m", "tdeg", "coeffs": [{"tpow": j,
"monomials": [{"upow": [...], "vpow": [...], "c": value}]}]}.
Linear-program certificates: CSV with one "k, f_k" row per coefficient.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from .codebounds import BoundCertificate
from .constraints import FeasiblePair, make_pair
from .spherical import PointConfiguration
from .symlin import SymmetricMatrix

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "matrix_to_csv",
    "matrix_from_csv",
    "points_to_json",
    "points_from_json",
    "points_to_csv",
    "points_from_csv",
    "pair_to_json",
    "pair_from_json",
    "polynomial_to_json",
    "polynomial_from_json",
    "certificate_to_csv",
    "certificate_to_json",
]


def matrix_to_json(a) -> str:
    m = a if isinstance(a, SymmetricMatrix) else SymmetricMatrix(a)
    return json.dumps({"dim": m.dim, "upper": m.upper.tolist()})


def matrix_from_json(text: str) -> SymmetricMatrix:
    obj = json.loads(text)
    return _finite_matrix(SymmetricMatrix.from_upper(int(obj["dim"]), obj["upper"]))


def matrix_to_csv(a) -> str:
    m = a if isinstance(a, SymmetricMatrix) else SymmetricMatrix(a)
    return _rows_to_csv(m.array)


def matrix_from_csv(text: str) -> SymmetricMatrix:
    return _finite_matrix(SymmetricMatrix(_rows_from_csv(text)))


def points_to_json(points: PointConfiguration) -> str:
    return json.dumps({"n": points.n, "points": points.coords.tolist()})


def points_from_json(text: str) -> PointConfiguration:
    obj = json.loads(text)
    return PointConfiguration(int(obj["n"]), np.asarray(obj["points"], dtype=float))


def points_to_csv(points: PointConfiguration) -> str:
    return _rows_to_csv(points.coords)


def points_from_csv(text: str) -> PointConfiguration:
    rows = _rows_from_csv(text)
    return PointConfiguration(rows.shape[1], rows)


def pair_to_json(pair: FeasiblePair) -> str:
    return json.dumps(
        {"n": pair.n, "T": pair.t.array.tolist(), "U": pair.u.tolist()}
    )


def pair_from_json(text: str) -> FeasiblePair:
    obj = json.loads(text)
    t = SymmetricMatrix(np.asarray(obj["T"], dtype=float))
    return make_pair(t, np.asarray(obj["U"], dtype=float), int(obj["n"]))


def polynomial_to_json(n: int, m: int, terms: dict) -> str:
    """terms maps tpow -> list of (upow tuple, vpow tuple, coefficient)."""
    tdeg = max(terms) if terms else 0
    coeffs = []
    for tpow in sorted(terms):
        monomials = [
            {"upow": list(up), "vpow": list(vp), "c": float(c)}
            for up, vp, c in terms[tpow]
        ]
        coeffs.append({"tpow": int(tpow), "monomials": monomials})
    return json.dumps({"n": n, "m": m, "tdeg": tdeg, "coeffs": coeffs})


def polynomial_from_json(text: str) -> tuple[int, int, dict]:
    obj = json.loads(text)
    n, m = int(obj["n"]), int(obj["m"])
    terms: dict = {}
    for entry in obj["coeffs"]:
        tpow = int(entry["tpow"])
        monomials = [
            (tuple(mono["upow"]), tuple(mono["vpow"]), float(mono["c"]))
            for mono in entry["monomials"]
        ]
        terms[tpow] = monomials
    if terms and max(terms) > int(obj["tdeg"]):
        raise ValueError("tdeg is smaller than the largest stored power")
    return n, m, terms


def certificate_to_csv(cert: BoundCertificate) -> str:
    """One "k, f_k" row per orthogonal-basis expansion coefficient."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    for k, fk in enumerate(cert.expansion):
        writer.writerow([k, repr(float(fk))])
    return buf.getvalue()


def certificate_to_json(cert: BoundCertificate) -> str:
    return json.dumps(
        {
            "bound": cert.bound,
            "per_omega": {
                "+".join(map(str, omega.parts)): value
                for omega, value in cert.per_omega.items()
            },
            "verification": list(cert.verification),
            "coefficients": list(cert.coefficients),
            "expansion": list(cert.expansion),
        }
    )


def _finite_matrix(m: SymmetricMatrix) -> SymmetricMatrix:
    # json.loads reads NaN and Infinity, and float() reads "nan" and "inf"
    if not np.isfinite(m.array).all():
        raise ValueError("matrix entries must be finite")
    return m


def _rows_to_csv(arr: np.ndarray) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    for row in np.asarray(arr, dtype=float):
        writer.writerow([repr(float(v)) for v in row])
    return buf.getvalue()


def _rows_from_csv(text: str) -> np.ndarray:
    rows = [
        [float(v) for v in line]
        for line in csv.reader(io.StringIO(text))
        if line
    ]
    return np.asarray(rows, dtype=float)
