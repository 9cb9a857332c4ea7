"""Command-line entry point for verification sweeps and bound computations.

Subcommands: verify-psd, verify-orthogonality, verify-addition, hierarchy,
bound, codes.  Every run emits a machine-readable report (JSON by default,
CSV on request) and exits 0 iff every check passed, 1 on a check failure,
2 on usage or input errors.  All randomness derives from --seed through
the documented splitmix-style stream, so runs are bit-for-bit
reproducible.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from math import cos, pi

import numpy as np

from . import codebounds, constraints, serialize, spherical, symlin
from .gegenbauer import (
    addition_coefficients,
    addition_residual,
    orthogonality_mc,
    orthogonality_quad,
)

__all__ = ["RunReport", "main"]

USAGE_ERROR = 2


@dataclass
class RunReport:
    command: str
    parameters: dict
    checks: list = field(default_factory=list)
    timestamp: str = ""
    seed: int = 0

    def add(self, name: str, status: str, metric=None, tolerance=None):
        if status not in ("pass", "fail", "skip"):
            raise ValueError(f"bad status {status!r}")
        self.checks.append(
            {"name": name, "status": status, "metric": metric, "tolerance": tolerance}
        )

    @property
    def passed(self) -> bool:
        return all(c["status"] != "fail" for c in self.checks)

    def to_json(self) -> str:
        return json.dumps(
            {
                "command": self.command,
                "parameters": self.parameters,
                "checks": self.checks,
                "timestamp": self.timestamp,
                "seed": self.seed,
            },
            indent=2,
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["name", "status", "metric", "tolerance"])
        for c in self.checks:
            writer.writerow([c["name"], c["status"], c["metric"], c["tolerance"]])
        return buf.getvalue()


class UsageError(Exception):
    pass


def parse_theta(text: str) -> float:
    """An angle in radians, given numerically or as a pi fraction literal.

    Accepts plain floats ("1.0472"), "pi", "pi/3", and "2pi/5".
    """
    s = text.strip().lower().replace(" ", "")
    match = re.fullmatch(r"(?:(\d+(?:\.\d+)?)\*?)?pi(?:/(\d+(?:\.\d+)?))?", s)
    if match:
        num = float(match.group(1)) if match.group(1) else 1.0
        den = float(match.group(2)) if match.group(2) else 1.0
        return num * pi / den
    try:
        return float(s)
    except ValueError:
        raise UsageError(f"cannot parse angle {text!r}") from None


def parse_range(text: str) -> list[int]:
    """Either a single integer or an inclusive "a..b" range."""
    s = text.strip()
    if ".." in s:
        lo, hi = s.split("..", 1)
        try:
            lo_i, hi_i = int(lo), int(hi)
        except ValueError:
            raise UsageError(f"cannot parse range {text!r}") from None
        if hi_i < lo_i:
            raise UsageError(f"empty range {text!r}")
        return list(range(lo_i, hi_i + 1))
    try:
        return [int(s)]
    except ValueError:
        raise UsageError(f"cannot parse range {text!r}") from None


def _new_report(command: str, params: dict, seed: int) -> RunReport:
    return RunReport(
        command=command,
        parameters=params,
        timestamp=datetime.now(timezone.utc).isoformat(),
        seed=seed,
    )


def cmd_verify_psd(args) -> RunReport:
    n = args.n
    m_values = parse_range(args.m)
    k_values = parse_range(args.k)
    if any(m < 0 or m > n - 2 for m in m_values):
        raise UsageError(f"levels must lie in [0, {n - 2}] for n={n}")
    if any(k < 0 for k in k_values):
        raise UsageError("degrees must be >= 0")
    report = _new_report(
        "verify-psd",
        {"n": n, "m": m_values, "k": k_values, "r": args.r, "seeds": args.seeds},
        args.seed,
    )
    for m in m_values:
        for k in k_values:
            if args.seeds == 0:
                report.add(f"psd n={n} m={m} k={k}", "skip")
                continue
            for s in range(args.seeds):
                pts = spherical.sample_sphere(n, args.r, args.seed + s)
                km = spherical.kernel_matrix(pts, m, k)
                rep = symlin.is_psd(km.base)
                report.add(
                    f"psd n={n} m={m} k={k} seed={args.seed + s}",
                    "pass" if rep.is_psd else "fail",
                    metric=rep.min_eigenvalue,
                    tolerance=rep.threshold,
                )
    return report


def cmd_verify_orthogonality(args) -> RunReport:
    n, m, k, l = args.n, args.m_level, args.k_level, args.l
    if m < 0 or m > n - 2:
        raise UsageError(f"level must lie in [0, {n - 2}] for n={n}")
    report = _new_report(
        "verify-orthogonality",
        {"n": n, "m": m, "k": k, "l": l, "samples": args.samples},
        args.seed,
    )
    est = orthogonality_mc(n, m, k, l, samples=args.samples, seed=args.seed)
    if k == l:
        # the squared norm is positive; the check is a positivity margin
        z = est.estimate / est.stderr if est.stderr > 0 else np.inf
        report.add("norm positive", "pass" if z > 4 else "fail", metric=z, tolerance=4)
    else:
        z = abs(est.estimate) / est.stderr if est.stderr > 0 else 0.0
        report.add("mc z-score", "pass" if z < 4 else "fail", metric=z, tolerance=4)
    if m <= 2 and k != l:
        quad = orthogonality_quad(n, m, k, l)
        scale = abs(orthogonality_quad(n, m, k, k))
        rel = abs(quad) / max(scale, 1e-300)
        report.add(
            "quadrature relative", "pass" if rel < 1e-8 else "fail",
            metric=rel, tolerance=1e-8,
        )
    return report


def cmd_verify_addition(args) -> RunReport:
    n, k = args.n, args.k_level
    m_values = parse_range(args.m)
    if any(m < 1 or m > n - 2 for m in m_values):
        raise UsageError(f"levels must lie in [1, {n - 2}] for n={n}")
    report = _new_report(
        "verify-addition",
        {"n": n, "m": m_values, "k": k, "samples": args.samples},
        args.seed,
    )
    for m in m_values:
        c0 = addition_coefficients(n - m + 1, k).c[0]
        report.add(
            f"c0=1 m={m}", "pass" if abs(c0 - 1.0) < 1e-9 else "fail",
            metric=abs(c0 - 1.0), tolerance=1e-9,
        )
        res = addition_residual(n, m, k, samples=args.samples, seed=args.seed)
        report.add(
            f"identity residual m={m}", "pass" if res < 1e-9 else "fail",
            metric=res, tolerance=1e-9,
        )
    return report


def cmd_hierarchy(args) -> RunReport:
    try:
        with open(args.pair, encoding="utf-8") as fh:
            pair = serialize.pair_from_json(fh.read())
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read pair file: {exc}") from None
    d = args.degree
    report = _new_report(
        "hierarchy", {"pair": args.pair, "degree": d, "n": pair.n}, args.seed
    )
    members = []
    for m in range(pair.n - 1):
        mem = constraints.lambda_member(pair, m, d)
        members.append(mem.member)
        # the degree nearest to (or furthest past) its own threshold, so the
        # level passes exactly when its metric reaches its tolerance
        tightest = min(
            mem.reports.values(), key=lambda rep: rep.min_eigenvalue - rep.threshold
        )
        report.add(
            f"level m={m}", "pass" if mem.member else "fail",
            metric=tightest.min_eigenvalue, tolerance=tightest.threshold,
        )
    delta = constraints.delta_member(pair)
    report.add("realizable set", "pass" if delta else "fail")
    # the hierarchy is nested: once membership fails at some level it must
    # stay failed at every higher level
    chain = members + [delta]
    monotone = all(chain[i] or not any(chain[i + 1 :]) for i in range(len(chain)))
    report.add("membership chain monotone", "pass" if monotone else "fail")
    if delta:
        pts, _basis = constraints.reconstruct(pair)
        gram = pts.coords @ pts.coords.T
        err = float(np.max(np.abs(gram - pair.t.array)))
        report.add(
            "reconstruction round-trip", "pass" if err < 1e-8 else "fail",
            metric=err, tolerance=1e-8,
        )
    return report


def cmd_bound(args) -> RunReport:
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise UsageError("a bound configuration is a JSON object")
        n = int(cfg["n"])
        theta = parse_theta(str(cfg["theta"])) if args.theta is None else parse_theta(args.theta)
        m = int(cfg.get("m", 0))
        if m:
            f0, f_diag = float(cfg["f0"]), float(cfg["f_diag"])
            b_values = {
                tuple(int(p) for p in key.split("+")): float(val)
                for key, val in cfg.get("B", {}).items()
            }
        elif "coeffs" not in cfg:
            degree = args.degree if args.degree is not None else int(cfg.get("degree", 9))
            grid = args.grid if args.grid is not None else int(cfg.get("grid", 4096))
    except (OSError, KeyError, TypeError, AttributeError) as exc:
        # TypeError and AttributeError: a value of the wrong JSON type
        raise UsageError(f"bad bound configuration: {exc}") from None
    report = _new_report("bound", {"config": args.config, "n": n, "m": m}, args.seed)
    try:
        if m == 0 and "coeffs" in cfg:
            bound = codebounds.delsarte_bound(cfg["coeffs"], n, theta)
            report.add("certificate verified", "pass", metric=bound)
        elif m == 0:
            cert = codebounds.delsarte_lp(n, theta, degree, grid)
            bound = cert.bound
            report.add("certificate verified", "pass", metric=bound)
            if args.out:
                path = args.out + ".certificate.csv"
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(serialize.certificate_to_csv(cert))
                report.parameters["certificate"] = path
        else:
            result = codebounds.theorem61_bound(m, f0, f_diag, b_values)
            bound = float(result.n_max)
            report.add(
                "counting inequality", "pass",
                metric=result.residual_at_next, tolerance=0.0,
            )
    except codebounds.CertificateError as exc:
        report.add("certificate verified", "fail", metric=str(exc))
        return report
    report.parameters["bound"] = bound
    print(f"bound: {bound}")
    return report


def cmd_codes(args) -> RunReport:
    theta = parse_theta(args.theta)
    report = _new_report(
        "codes", {"name": args.name, "n": args.n, "theta": theta}, args.seed
    )
    if args.name:
        try:
            pts = spherical.named_code(args.name)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    else:
        if args.n is None:
            raise UsageError("either --name or --n is required")
        pts = codebounds.greedy_code(args.n, theta, args.seed)
    ok = codebounds.code_audit(pts, theta)
    report.add(
        "angle audit", "pass" if ok else "fail",
        metric=pts.max_inner_product(), tolerance=cos(theta) + 1e-12,
    )
    report.parameters["size"] = pts.size
    if args.out:
        path = args.out + ".points.json"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize.points_to_json(pts))
        report.parameters["points"] = path
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spherepd",
        description="PSD verification and spherical-code bounds",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="master RNG seed")
    common.add_argument("--out", help="write the report (and artifacts) to this path")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("verify-psd", parents=[common], help="kernel-matrix positivity sweep")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", default="0..0", help="level or range, e.g. 0..4")
    p.add_argument("--k", default="0..6", help="degree or range")
    p.add_argument("--r", type=int, default=30, help="points per configuration")
    p.add_argument("--seeds", type=int, default=5, help="number of seeded draws")
    p.set_defaults(func=cmd_verify_psd)

    p = sub.add_parser("verify-orthogonality", parents=[common], help="orthogonality integrals")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", dest="m_level", type=int, default=0)
    p.add_argument("--k", dest="k_level", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.set_defaults(func=cmd_verify_orthogonality)

    p = sub.add_parser("verify-addition", parents=[common], help="level-raising identity residuals")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", default="1..1", help="level or range (>= 1)")
    p.add_argument("--k", dest="k_level", type=int, required=True)
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(func=cmd_verify_addition)

    p = sub.add_parser("hierarchy", parents=[common], help="feasible-pair membership table")
    p.add_argument("pair", help="pair JSON file")
    p.add_argument("--degree", type=int, default=3)
    p.set_defaults(func=cmd_hierarchy)

    p = sub.add_parser("bound", parents=[common], help="code-size upper bound from a config file")
    p.add_argument("config", help="bound configuration JSON file")
    p.add_argument("--theta", help="override the configured angle")
    p.add_argument("--degree", type=int)
    p.add_argument("--grid", type=int)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("codes", parents=[common], help="build or audit a code at a given angle")
    p.add_argument("--name", help="simplex(n), cross_polytope(n), icosahedron")
    p.add_argument("--n", type=int)
    p.add_argument("--theta", required=True)
    p.set_defaults(func=cmd_codes)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        report = args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    rendered = report.to_csv() if args.format == "csv" else report.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    print(rendered)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
