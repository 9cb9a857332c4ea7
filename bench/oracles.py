"""Checks of each op's printed report, computed apart from the program.

Expected values come from numpy, scipy and `fractions` only; spherepd's
own evaluators are never used for them.  Program functions are called
only to recover what an op printed in summary form (the points a seed
stands for, an LP certificate, a greedy code, addition coefficients),
outside the timed phase.  Each checker returns a list of problems; an
empty list means the op's output is correct.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import comb, cos

import numpy as np
from scipy.linalg import eigvalsh
from scipy.special import eval_chebyt, eval_gegenbauer, roots_jacobi

from workloads import known_optimum

PSD_TOL = 1e-8  # the program's relative PSD tolerance, applied as -tol * max(scale, 1)
ENTRY_TOL = 1e-9
ENTRY_CHECK_MAX_K = 12
ENTRY_SUBSET = 3  # matrices per verify-psd op whose entries are compared
EIGEN_AGREE = 1e-9
NORM_TOL = 1e-12
MC_SIGMAS = 5.0
MC_Z_MAX = 6.0  # a correct k != l run exceeds it with probability about 2e-9
CERT_COEFF_TOL = 1e-9  # relative to the largest |f_k|
CERT_VALUE_TOL = 1e-9  # relative to the sum of |monomial coefficients|
BOUND_REL_TOL = 1e-9
ADDITION_TOL = 1e-9
ADDITION_POINTS = 20
IDENTITY_TOL = 1e-9

_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def normalized(text: str) -> str:
    """Report text without its timestamp, the one field allowed to differ."""
    return _TIMESTAMP.sub('"timestamp": ""', text)


def parse(text: str) -> tuple[float | None, dict]:
    """(the "bound: X" line if printed, the JSON report)."""
    bound = None
    if text.startswith("bound: "):
        first, text = text.split("\n", 1)
        bound = float(first[len("bound: "):])
    return bound, json.loads(text)


def gegenbauer(n: int, k: int, x):
    """G_k of dimension parameter n, normalized to G(1) = 1, from scipy."""
    if n == 2:
        return eval_chebyt(k, x)
    lam = (n - 2) / 2.0
    return eval_gegenbauer(k, lam, x) / eval_gegenbauer(k, lam, 1.0)


def psd_verdict(matrix: np.ndarray) -> tuple[bool, float, float]:
    w = eigvalsh(matrix)
    scale = float(np.max(np.abs(w)))
    return bool(w[0] >= -PSD_TOL * max(scale, 1.0)), float(w[0]), scale


def _expect_exit(rc: int, report: dict) -> list:
    failed = any(c["status"] == "fail" for c in report["checks"])
    expected = 1 if failed else 0
    return [] if rc == expected else [f"exit code {rc}, report implies {expected}"]


def _statuses(report: dict) -> dict:
    return {c["name"]: c for c in report["checks"]}


# --------------------------------------------------------------------- verify-psd

def kernel_matrix(points: np.ndarray, m: int, k: int) -> np.ndarray:
    """e^(k/2) G_k^(n-m)(d / sqrt(e)) for interior points (|u| < 1)."""
    n = points.shape[1]
    u = points[:, :m]
    d = points @ points.T - u @ u.T
    slack = 1.0 - np.einsum("ij,ij->i", u, u)
    e = np.outer(slack, slack)
    root = np.sqrt(e)
    return root**k * gegenbauer(n - m, k, d / root)


def check_psd(op, rc: int, text: str, spherepd) -> list:
    p = op.meta
    _, report = parse(text)
    problems = _expect_exit(rc, report)
    checks = report["checks"]
    want = len(p["m"]) * len(p["k"]) * p["seeds"]
    if len(checks) != want:
        return problems + [f"{len(checks)} checks, expected {want}"]
    cases = [(m, k, p["seed"] + s) for m in p["m"] for k in p["k"] for s in range(p["seeds"])]
    points = {}
    rng = np.random.default_rng(p["check_seed"])
    low = [i for i, (m, k, s) in enumerate(cases) if k <= ENTRY_CHECK_MAX_K]
    subset = set(rng.choice(low, size=min(ENTRY_SUBSET, len(low)), replace=False)) if low else set()
    for i, ((m, k, s), check) in enumerate(zip(cases, checks)):
        name = f"psd n={p['n']} m={m} k={k} seed={s}"
        if check["name"] != name:
            problems.append(f"check {i} is {check['name']!r}, expected {name!r}")
            continue
        if s not in points:
            points[s] = spherepd.spherical.sample_sphere(p["n"], p["r"], s).coords
        pts = points[s]
        matrix = kernel_matrix(pts, m, k)
        is_psd, low_eig, scale = psd_verdict(matrix)
        if check["status"] != ("pass" if is_psd else "fail"):
            problems.append(f"{name}: status {check['status']}, independent min eigenvalue "
                            f"{low_eig:.3e} (scale {scale:.3e})")
        elif abs(check["metric"] - low_eig) > EIGEN_AGREE * max(scale, 1.0):
            problems.append(f"{name}: min eigenvalue {check['metric']:.6e}, "
                            f"independent {low_eig:.6e}")
        if i in subset:
            program = spherepd.spherical.kernel_matrix(
                spherepd.spherical.PointConfiguration(p["n"], pts), m, k).base.array
            err = float(np.max(np.abs(program - matrix)))
            if err > ENTRY_TOL:
                problems.append(f"{name}: kernel entries differ by {err:.3e}")
    return problems


# --------------------------------------------------------------------- verify-orthogonality

def harmonic_dim(n: int, k: int) -> int:
    """Dimension of the degree-k spherical harmonics on S^(n-1)."""
    return comb(k + n - 1, n - 1) - (comb(k + n - 3, n - 1) if k >= 2 else 0)


def check_orth(op, rc: int, text: str, spherepd) -> list:
    p = op.meta
    n, m, k, l = p["n"], p["m"], p["k"], p["l"]
    _, report = parse(text)
    problems = _expect_exit(rc, report)
    checks = _statuses(report)
    if k == l:
        want = ["norm positive"]
    else:
        want = ["mc z-score"] + (["quadrature relative"] if m <= 2 else [])
    if list(checks) != want:
        return problems + [f"checks {list(checks)}, expected {want}"]
    if k != l:
        # the integral is 0; the program passes z < 4, which a correct run
        # still misses with probability about 6e-5, so the oracle asks for a
        # status that matches that rule and for z below MC_Z_MAX
        z = checks["mc z-score"]
        if z["status"] != ("pass" if z["metric"] < 4 else "fail") or not z["metric"] < MC_Z_MAX:
            problems.append(f"mc z-score {z['metric']} ({z['status']}) for k != l")
        if m <= 2:
            q = checks["quadrature relative"]
            if not (q["status"] == "pass" and q["metric"] < 1e-8):
                problems.append(f"quadrature relative {q['metric']} for k != l")
        return problems
    norm = checks["norm positive"]
    if norm["status"] != "pass":
        problems.append("squared norm not positive")
    if m == 0:
        exact = 1.0 / harmonic_dim(n, k)
        g = spherepd.gegenbauer
        ratio = g.orthogonality_quad(n, 0, k, k) / g.orthogonality_quad(n, 0, 0, 0)
        if abs(ratio - exact) > NORM_TOL:
            problems.append(f"quadrature norm ratio {ratio!r}, exact 1/{harmonic_dim(n, k)}")
        est = g.orthogonality_mc(n, 0, k, k, samples=p["samples"], seed=p["seed"])
        if abs(est.estimate - exact) > MC_SIGMAS * est.stderr:
            problems.append(f"Monte Carlo norm {est.estimate} is more than "
                            f"{MC_SIGMAS} sigma from {exact}")
        if abs(norm["metric"] - est.estimate / est.stderr) > 1e-9 * abs(norm["metric"]):
            problems.append(f"printed z {norm['metric']} is not estimate / stderr")
    return problems


# --------------------------------------------------------------------- bound and codes

def expansion(coeffs, n: int) -> np.ndarray:
    """Gegenbauer coefficients f_k of a monomial-basis polynomial, by
    Gauss-Jacobi projection against the weight (1 - t^2)^((n-3)/2)."""
    coeffs = np.asarray(coeffs, dtype=float)
    degree = coeffs.size - 1
    alpha = (n - 3) / 2.0
    x, w = roots_jacobi(degree + 2, alpha, alpha)
    f = np.polynomial.polynomial.polyval(x, coeffs)
    out = np.empty(degree + 1)
    for k in range(degree + 1):
        g = gegenbauer(n, k, x)
        out[k] = np.sum(w * f * g) / np.sum(w * g * g)
    return out


def interval_max(coeffs, lo: float, hi: float) -> float:
    """Largest value on [lo, hi]: at the endpoints and the real critical points."""
    coeffs = np.asarray(coeffs, dtype=float)
    deriv = np.polynomial.polynomial.polyder(coeffs)
    crit = np.polynomial.polynomial.polyroots(deriv) if deriv.size > 1 else np.array([])
    real = crit.real[np.abs(crit.imag) <= 1e-9 * np.maximum(1.0, np.abs(crit.real))]
    xs = np.concatenate([[lo, hi], real[(real >= lo) & (real <= hi)]])
    return float(np.max(np.polynomial.polynomial.polyval(xs, coeffs)))


def check_certificate(coeffs, n: int, theta: float, bound: float, optimum: int) -> list:
    """f_k >= 0, f <= 0 on [-1, cos theta], bound = f(1)/f_0 >= optimum."""
    problems = []
    coeffs = np.asarray(coeffs, dtype=float)
    f = expansion(coeffs, n)
    if f[0] <= 0:
        problems.append(f"f_0 = {f[0]:.3e} is not positive")
    if np.min(f) < -CERT_COEFF_TOL * np.max(np.abs(f)):
        k = int(np.argmin(f))
        problems.append(f"f_{k} = {f[k]:.3e} is negative")
    top = interval_max(coeffs, -1.0, cos(theta))
    if top > CERT_VALUE_TOL * np.sum(np.abs(coeffs)):
        problems.append(f"f reaches {top:.3e} on [-1, cos theta]")
    ratio = float(np.sum(coeffs)) / f[0]
    if abs(bound - ratio) > BOUND_REL_TOL * abs(ratio):
        problems.append(f"bound {bound!r} is not f(1)/f_0 = {ratio!r}")
    if bound < optimum * (1.0 - BOUND_REL_TOL):
        problems.append(f"bound {bound!r} is below the known optimum {optimum}")
    return problems


def _bound_report(rc: int, text: str, check_name: str) -> tuple[list, float | None, dict]:
    bound, report = parse(text)
    problems = _expect_exit(rc, report)
    checks = _statuses(report)
    if list(checks) != [check_name] or checks[check_name]["status"] != "pass":
        problems.append(f"checks {report['checks']}, expected one passing {check_name!r}")
    if bound is None or report["parameters"].get("bound") != bound:
        problems.append("printed bound missing or unlike the report's")
    return problems, bound, checks


def check_lp(op, rc: int, text: str, spherepd) -> list:
    p = op.meta
    problems, bound, _ = _bound_report(rc, text, "certificate verified")
    if problems:
        return problems
    cert = spherepd.codebounds.delsarte_lp(p["n"], p["theta_value"], p["degree"], p["grid"])
    if cert.bound != bound:
        problems.append(f"printed bound {bound!r}, delsarte_lp gives {cert.bound!r}")
    return problems + check_certificate(
        cert.coefficients, p["n"], p["theta_value"], bound, known_optimum(p["n"], p["theta"]))


def check_cert(op, rc: int, text: str, spherepd) -> list:
    p = op.meta
    problems, bound, _ = _bound_report(rc, text, "certificate verified")
    if problems:
        return problems
    return check_certificate(p["coeffs"], p["n"], p["theta_value"], bound, 2 * p["n"])


def _set_partition_shapes(d: int) -> dict:
    """Number of set partitions of d slots by sorted block sizes."""
    shapes: dict = {}

    def grow(i: int, blocks: list) -> None:
        if i == d:
            key = tuple(sorted(blocks, reverse=True))
            shapes[key] = shapes.get(key, 0) + 1
            return
        for b in range(len(blocks)):
            blocks[b] += 1
            grow(i + 1, blocks)
            blocks[b] -= 1
        grow(i + 1, blocks + [1])

    grow(0, [])
    return shapes


def counting_residual(cfg: dict, big_n: int) -> Fraction:
    """Exact residual of the counting inequality at N = big_n.

    The index vectors in {1..N}^d with collision shape omega number
    (set partitions of that shape) * N (N-1) ... (N - blocks + 1); the
    inequality divides them by N.
    """
    m = cfg["m"]
    d = m + 2
    b = {tuple(int(x) for x in key.split("+")): Fraction(v) for key, v in cfg["B"].items()}
    total = Fraction(0)
    for shape, count in _set_partition_shapes(d).items():
        # the program clamps supplied suprema at 0; the all-merged one is f_diag
        if shape == (d,):
            value = Fraction(cfg["f_diag"])
        else:
            value = max(b.get(shape, Fraction(0)), Fraction(0))
        falling = 1
        for i in range(1, len(shape)):
            falling *= big_n - i
        total += value * count * falling
    return total - Fraction(cfg["f0"]) * big_n ** (m + 1)


def check_count(op, rc: int, text: str, spherepd) -> list:
    problems, bound, checks = _bound_report(rc, text, "counting inequality")
    if problems:
        return problems
    n_max = int(bound)
    if n_max != bound:
        return [f"bound {bound!r} is not an integer"]
    at, nxt = counting_residual(op.meta, n_max), counting_residual(op.meta, n_max + 1)
    if not at >= 0 > nxt:
        problems.append(f"residual {float(at)} at N_max = {n_max}, {float(nxt)} after it")
    if checks["counting inequality"]["metric"] != float(nxt):
        problems.append(f"printed residual {checks['counting inequality']['metric']!r}, "
                        f"exact {float(nxt)!r}")
    return problems


def check_code(op, rc: int, text: str, spherepd) -> list:
    p = op.meta
    _, report = parse(text)
    problems = _expect_exit(rc, report)
    checks = _statuses(report)
    if list(checks) != ["angle audit"] or checks["angle audit"]["status"] != "pass":
        return problems + [f"checks {report['checks']}, expected one passing 'angle audit'"]
    cap = cos(p["theta_value"]) + 1e-12
    top = checks["angle audit"]["metric"]
    size = report["parameters"]["size"]
    if top > cap:
        problems.append(f"maximum inner product {top!r} exceeds cos theta")
    if size > known_optimum(p["n"], p["theta"]):
        problems.append(f"code size {size} exceeds the known bound")
    coords = spherepd.codebounds.greedy_code(p["n"], p["theta_value"], p["seed"]).coords
    gram = coords @ coords.T
    np.fill_diagonal(gram, -np.inf)
    if coords.shape[0] != size or float(np.max(gram)) != top:
        problems.append("printed size or maximum inner product is not the code's")
    if np.max(np.abs(np.linalg.norm(coords, axis=1) - 1.0)) > 1e-12:
        problems.append("code points are not unit vectors")
    return problems


# --------------------------------------------------------------------- hierarchy

def realizable(t: np.ndarray, u: np.ndarray) -> bool:
    """T - U U^T PSD and (t_ij - <u_i,u_j>)^2 = (1 - |u_i|^2)(1 - |u_j|^2)."""
    diff = t - u @ u.T
    if not psd_verdict(diff)[0]:
        return False
    slack = 1.0 - np.einsum("ij,ij->i", u, u)
    return bool(np.max(np.abs(diff**2 - np.outer(slack, slack))) <= IDENTITY_TOL)


def check_pair(op, rc: int, text: str, spherepd) -> list:
    p = op.meta
    n = p["n"]
    _, report = parse(text)
    problems = _expect_exit(rc, report)
    checks = _statuses(report)
    levels = [f"level m={m}" for m in range(n - 1)]
    want = levels + ["realizable set", "membership chain monotone"]
    if p["realizable"]:
        want.append("reconstruction round-trip")
    if list(checks) != want:
        return problems + [f"checks {list(checks)}, expected {want}"]
    truth = realizable(np.array(p["T"]), np.array(p["U"]))
    if truth != p["realizable"]:
        problems.append(f"independent realizability {truth}, pair built as {p['realizable']}")
    if (checks["realizable set"]["status"] == "pass") != truth:
        problems.append(f"realizable set {checks['realizable set']['status']}, "
                        f"independent check says {truth}")
    chain = [checks[name]["status"] == "pass" for name in levels + ["realizable set"]]
    monotone = all(chain[i] or not any(chain[i + 1:]) for i in range(len(chain)))
    if not monotone or checks["membership chain monotone"]["status"] != "pass":
        problems.append(f"membership chain {chain} is not monotone")
    if p["realizable"]:
        if not all(chain):
            problems.append(f"realizable pair fails a level: {chain}")
        rt = checks["reconstruction round-trip"]
        if not (rt["status"] == "pass" and rt["metric"] < 1e-8):
            problems.append(f"round-trip error {rt['metric']}")
    return problems


def check_addition(op, rc: int, text: str, spherepd) -> list:
    p = op.meta
    n, k = p["n"], p["k"]
    _, report = parse(text)
    problems = _expect_exit(rc, report)
    checks = _statuses(report)
    want = [name for m in p["m"] for name in (f"c0=1 m={m}", f"identity residual m={m}")]
    if list(checks) != want:
        return problems + [f"checks {list(checks)}, expected {want}"]
    rng = np.random.default_rng([p["seed"], n, k])
    for m in p["m"]:
        for name in (f"c0=1 m={m}", f"identity residual m={m}"):
            c = checks[name]
            if not (c["status"] == "pass" and c["metric"] < 1e-9):
                problems.append(f"{name}: {c['status']} with {c['metric']}")
        nu = n - m + 1
        coeffs = np.array(spherepd.gegenbauer.addition_coefficients(nu, k).c)
        if abs(coeffs[0] - 1.0) > ADDITION_TOL or np.min(coeffs) <= 0:
            problems.append(f"addition coefficients ({nu}, {k}) = {coeffs}")
        t1, t2, phi = rng.uniform(0.1, np.pi - 0.1, size=(3, ADDITION_POINTS))
        lhs = gegenbauer(nu, k, np.cos(t1) * np.cos(t2) + np.sin(t1) * np.sin(t2) * np.cos(phi))
        rhs = sum(
            coeffs[s] * gegenbauer(nu + 2 * s, k - s, np.cos(t1))
            * gegenbauer(nu + 2 * s, k - s, np.cos(t2))
            * (np.sin(t1) * np.sin(t2)) ** s * gegenbauer(nu - 1, s, np.cos(phi))
            for s in range(k + 1)
        )
        err = float(np.max(np.abs(lhs - rhs)))
        if err > ADDITION_TOL:
            problems.append(f"addition identity ({nu}, {k}) off by {err:.3e} (scipy)")
    return problems


CHECKERS = {
    "psd": check_psd,
    "orth": check_orth,
    "lp": check_lp,
    "cert": check_cert,
    "count": check_count,
    "code": check_code,
    "pair": check_pair,
    "addition": check_addition,
}


def check(op, rc: int, text: str, spherepd) -> list:
    try:
        return CHECKERS[op.kind](op, rc, text, spherepd)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
