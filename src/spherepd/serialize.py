"""File formats that the CLI reads or writes.

Point sets: JSON {"n": ..., "points": [[...]]} (`codes --out`).
Feasible pairs: JSON {"n": ..., "T": full square, "U": rows} (`hierarchy`).
Linear-program certificates: CSV with one "k, f_k" row per coefficient
(`bound --out`).
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from .codebounds import BoundCertificate
from .constraints import FeasiblePair, make_pair
from .spherical import PointConfiguration

__all__ = [
    "points_to_json",
    "points_from_json",
    "pair_to_json",
    "pair_from_json",
    "certificate_to_csv",
    "json_int",
    "json_number",
]

PAIR_KEYS = ("n", "T", "U")


def json_int(obj: dict, key: str, default: int | None = None) -> int:
    """obj[key], or default where the key is absent and a default is given,
    if it is a JSON integer; a float, string or boolean is refused."""
    value = obj[key] if default is None else obj.get(key, default)
    if type(value) is not int:  # bool is a subclass of int
        raise ValueError(f"{key} must be a JSON integer, got {json.dumps(value)}")
    return value


def json_number(obj, key, name: str | None = None) -> float:
    """obj[key] as a float if it is a JSON number, an integer or a float; a
    boolean, string, null, list or object is refused, and so is an integer
    too large for a float.  The error names the value by name, else by key."""
    value = obj[key]
    if type(value) not in (int, float):  # bool is a subclass of int
        raise ValueError(f"{name or key} must be a JSON number, got {json.dumps(value)}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name or key} is too large for a float") from None


def points_to_json(points: PointConfiguration) -> str:
    return json.dumps({"n": points.n, "points": points.coords.tolist()})


def points_from_json(text: str) -> PointConfiguration:
    obj = json.loads(text)
    return PointConfiguration(json_int(obj, "n"), np.asarray(obj["points"], dtype=float))


def pair_to_json(pair: FeasiblePair) -> str:
    return json.dumps(
        {"n": pair.n, "T": pair.t.array.tolist(), "U": pair.u.tolist()}
    )


def pair_from_json(text: str) -> FeasiblePair:
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("a pair file is a JSON object")
    for key in PAIR_KEYS:
        if key not in obj:
            raise ValueError(f"a pair file has no key {key!r}")
    unknown = ", ".join(map(repr, sorted(set(obj) - set(PAIR_KEYS))))
    if unknown:
        raise ValueError(f"a pair file holds only n, T and U, not {unknown}")
    return make_pair(obj["T"], np.asarray(obj["U"], dtype=float), json_int(obj, "n"))


def certificate_to_csv(cert: BoundCertificate) -> str:
    """One "k, f_k" row per orthogonal-basis expansion coefficient."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    for k, fk in enumerate(cert.expansion):
        writer.writerow([k, repr(float(fk))])
    return buf.getvalue()
