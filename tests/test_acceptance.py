"""Acceptance suite: one test per primary criterion, and one that checks the
README's map of the paper's results onto the library against the library.

Each test prints a single PASS line on success; pytest reports failures
with the offending metric.
"""

import inspect
import io
import re
import time
from contextlib import redirect_stdout
from math import cos, pi
from pathlib import Path

import numpy as np
import pytest

import spherepd
from spherepd import codebounds as cb
from spherepd import constraints, gegenbauer as gg, spherical, symlin
from spherepd.cli import main
from spherepd.codebounds import PartitionPattern
from spherepd.randgen import rng_for
from spherepd.spherical import PointConfiguration, named_code, sample_sphere
from spherepd.symlin import SymmetricMatrix


def report(line):
    print(f"\n[acceptance] {line}")


def test_criterion_1_kernel_psd_sweep():
    """Every kernel matrix over the full sweep is PSD within tolerance."""
    start = time.monotonic()
    worst = 0.0
    checked = 0
    for n in range(3, 9):
        for m in range(n - 1):
            for k in range(7):
                for seed in range(20):
                    pts = sample_sphere(n, 30, seed=seed)
                    km = spherical.kernel_matrix(pts, m, k)
                    rep = symlin.is_psd(km.base)
                    margin = rep.min_eigenvalue / max(rep.matrix_scale, 1.0)
                    worst = min(worst, margin)
                    checked += 1
                    assert rep.min_eigenvalue >= -1e-8 * max(rep.matrix_scale, 1.0), (
                        f"n={n} m={m} k={k} seed={seed}: "
                        f"min eigenvalue {rep.min_eigenvalue}"
                    )
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
    report(
        f"criterion 1 PASS: {checked} kernel matrices PSD, "
        f"worst relative eigenvalue {worst:.2e}, {elapsed:.1f}s"
    )


def test_criterion_2_addition_identity():
    """Level-raising identity residuals and leading coefficients."""
    worst = 0.0
    for n in range(3, 9):
        for m in range(1, n - 1):
            for k in range(6):
                res = gg.addition_residual(n, m, k, samples=100, seed=k)
                worst = max(worst, res)
                assert res < 1e-9, f"n={n} m={m} k={k}: residual {res}"
    worst_c0 = 0.0
    for nu in range(3, 9):
        for k in range(6):
            dev = abs(gg.addition_coefficients(nu, k).c[0] - 1.0)
            worst_c0 = max(worst_c0, dev)
            assert dev < 1e-9
    report(
        f"criterion 2 PASS: worst identity residual {worst:.2e}, "
        f"worst |c0 - 1| {worst_c0:.2e}"
    )


def test_criterion_3_orthogonality():
    """Deterministic quadrature and Monte Carlo orthogonality."""
    worst_rel = 0.0
    for n, m in [(4, 0), (5, 1), (6, 2), (8, 2)]:
        norm = abs(gg.orthogonality_quad(n, m, 2, 2))
        for k, l in [(0, 1), (1, 2), (0, 3), (2, 3), (1, 4)]:
            rel = abs(gg.orthogonality_quad(n, m, k, l)) / norm
            worst_rel = max(worst_rel, rel)
            assert rel < 1e-8, f"n={n} m={m} k={k} l={l}: relative {rel}"
    worst_z = 0.0
    configs = [(4, 1, 1, 2), (5, 0, 2, 3), (5, 2, 1, 3), (6, 1, 2, 4), (8, 3, 1, 2)]
    for n, m, k, l in configs:
        est = gg.orthogonality_mc(n, m, k, l, samples=1_000_000, seed=7)
        z = abs(est.estimate) / est.stderr
        worst_z = max(worst_z, z)
        assert z < 4.0, f"n={n} m={m} k={k} l={l}: z-score {z}"
    report(
        f"criterion 3 PASS: worst quadrature relative {worst_rel:.2e}, "
        f"worst MC z-score {worst_z:.2f}"
    )


def test_criterion_4_combinatorics():
    """Collision-count closed form against brute force, plus the total."""
    for d in range(2, 5):
        patterns = cb.enumerate_patterns(d)
        for big_n in range(1, 9):
            total = 0
            for omega in patterns:
                closed = cb.q_omega(omega, big_n)
                assert closed == cb.q_omega_brute(omega, big_n), (omega, big_n)
                total += closed
            assert total == big_n ** (d - 1), (d, big_n)
    report("criterion 4 PASS: closed form exact for d <= 4, N <= 8; totals N^(d-1)")


def test_criterion_5_delsarte_reductions():
    """Exact 2n bound, optimized kissing-angle bound, and the m=0 reduction."""
    for n in range(3, 9):
        bound = cb.delsarte_bound([0.0, 1.0, 1.0], n, pi / 2)
        assert abs(bound - 2 * n) < 1e-9, f"n={n}: bound {bound}"
        witness = named_code(f"cross_polytope({n})")
        assert cb.code_audit(witness, pi / 2)
        assert witness.size == 2 * n

    cert = cb.delsarte_lp(3, pi / 3, degree=9, grid_size=4096)
    assert 12.0 <= cert.bound < 14.0, f"lp bound {cert.bound}"
    ico = named_code("icosahedron")
    assert cb.code_audit(ico, pi / 3) and ico.size == 12

    coeffs = [0.0, 1.0, 1.0]
    for n in (3, 5, 8):
        exp = gg.gegenbauer_expansion(coeffs, n)
        direct = cb.delsarte_bound(coeffs, n, pi / 2)
        reduced = cb.theorem61_bound(0, float(exp[0]), float(np.sum(coeffs)), {})
        assert reduced.ratio == direct, "m=0 reduction must agree bit-for-bit"
    report(
        f"criterion 5 PASS: quadratic certificate exact at 2n; "
        f"kissing-angle lp bound {cert.bound:.4f} in [12, 14)"
    )


def test_criterion_6_euclidean_consistency():
    """Entrywise map identities and rank-constrained positivity."""
    rng = rng_for(0xACCE, 6)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(3, 7))
        r = int(rng.integers(3, 9))
        b = rng.standard_normal((r, n))
        a = b @ b.T
        got = constraints.h_map(SymmetricMatrix(a), n, 2).array
        diag = np.diag(a)
        expected = (n * a**2 - np.outer(diag, diag)) / (n - 1)
        worst = max(worst, float(np.max(np.abs(got - expected))))
    assert worst < 1e-12, f"h_map k=2 deviation {worst}"

    worst_kernel = 0.0
    for n, m, k in [(4, 0, 2), (5, 1, 3), (6, 3, 2), (5, 2, 4)]:
        pts = sample_sphere(n, 12, seed=n + k)
        a = constraints.euclid_kernel(pts, m, k).array
        b = spherical.kernel_matrix(pts, m, k).base.array
        worst_kernel = max(worst_kernel, float(np.max(np.abs(a - b))))
    assert worst_kernel < 1e-12

    for trial in range(100):
        n = int(rng.integers(2, 7))
        r = int(rng.integers(2, 10))
        b = rng.standard_normal((r, n))
        a = b @ b.T
        diag = np.diag(a)
        h2 = (n * a**2 - np.outer(diag, diag)) / (n - 1)
        assert symlin.is_psd(SymmetricMatrix(h2)).is_psd, trial
    report(
        f"criterion 6 PASS: entrywise-map deviation {worst:.2e}, "
        f"kernel agreement {worst_kernel:.2e}, 100 rank-bounded matrices PSD"
    )


def test_criterion_7_hierarchy():
    """Realizable pairs are members everywhere; reconstruction round-trips;
    membership is downward-closed in the level."""
    count = 0
    for seed in range(500):
        n = 3 + seed % 4
        r = 3 + seed % 5
        pair = constraints.pair_from_points(sample_sphere(n, r, seed))
        for m in range(n - 1):
            assert constraints.lambda_member(pair, m, d=2).member, (seed, m)
        count += 1

    worst_rt = 0.0
    for seed in range(50):
        n = 4 + seed % 3
        pair = constraints.pair_from_points(sample_sphere(n, 6, 1000 + seed))
        assert constraints.delta_member(pair), seed
        pts, basis = constraints.reconstruct(pair)
        gram_err = float(np.max(np.abs(pts.coords @ pts.coords.T - pair.t.array)))
        u_err = float(np.max(np.abs(pts.coords @ basis.T - pair.u)))
        worst_rt = max(worst_rt, gram_err, u_err)
        assert worst_rt < 1e-8, seed

    rng = rng_for(0x5CA1E, 7)
    tested = 0
    for trial in range(300):
        n = 4
        t = np.eye(3)
        idx = np.triu_indices(3, 1)
        vals = rng.uniform(-1.0, 1.0, size=3)
        t[idx] = vals
        t.T[idx] = vals
        u = rng.uniform(-0.57, 0.57, size=(3, n - 1))
        try:
            pair = constraints.make_pair(SymmetricMatrix(t), u, n)
        except ValueError:
            continue
        flags = [constraints.lambda_member(pair, m, d=3).member for m in range(n - 1)]
        for lower, upper in zip(flags, flags[1:]):
            assert lower or not upper, f"trial {trial}: member above a failed level"
        tested += 1
    assert tested >= 100
    report(
        f"criterion 7 PASS: {count} realizable pairs member at all levels, "
        f"50 reconstructions round-trip (worst {worst_rt:.2e}), "
        f"{tested} random pairs never re-enter the hierarchy"
    )


def _pi3_certificates():
    """Post-verified optimized certificates per dimension at the pi/3 angle."""
    certs = {}
    for n in (3, 4, 5):
        cert = cb.delsarte_lp(n, pi / 3, degree=9, grid_size=1024)
        certs[n] = cert
    return certs


def test_criterion_8_soundness_audit():
    """No computed bound ever undercuts an audited greedy code."""
    lp_certs = _pi3_certificates()
    combos = [(n, th) for n in (3, 4, 5) for th in (pi / 3, pi / 2)]
    audited = 0
    for seed in range(100):
        n, theta = combos[seed % len(combos)]
        code = cb.greedy_code(n, theta, seed)
        assert cb.code_audit(code, theta), (n, theta, seed)
        size = code.size

        if theta == pi / 2:
            f_coeffs = np.array([0.0, 1.0, 1.0])
            m0_bound = cb.delsarte_bound(f_coeffs, n, theta)
        else:
            cert = lp_certs[n]
            f_coeffs = np.array(cert.coefficients)
            m0_bound = cert.bound
        assert m0_bound >= size, (n, theta, seed, m0_bound, size)

        # level-1 counting bound from the same univariate certificate:
        # the all-distinct supremum is certified nonpositive, the merged
        # patterns are bounded by f(1)
        assert cb.verify_nonpositive(f_coeffs, theta, tol=1e-10)
        exp = gg.gegenbauer_expansion(f_coeffs, n)
        f0 = float(exp[0])
        f_diag = float(np.sum(f_coeffs))
        m1 = cb.theorem61_bound(1, f0, f_diag, {(2, 1): f_diag})
        assert m1.n_max >= size, (n, theta, seed, m1.n_max, size)

        if theta == pi / 2:
            # a genuinely multivariate certificate: add a rank-one level-1
            # term gamma * x13 * x23 * G_2 and shrink the constant term so
            # the all-distinct supremum stays nonpositive
            delta = gamma = 0.05
            f0_mv = 1.0 / n - delta
            f_diag_mv = 2.0 - delta
            b_merged = 2.0 - delta + gamma
            mv = cb.theorem61_bound(1, f0_mv, f_diag_mv, {(2, 1): b_merged})
            assert mv.n_max >= size, (n, seed, mv.n_max, size)

            def f_mv(g):
                uni = g[0, 1] * (g[0, 1] + 1.0) - delta
                kappa_term = gamma * g[0, 2] * g[1, 2] * gg.eval_mv(
                    n, 1, 2, g[0, 1], [g[0, 2]], [g[1, 2]]
                )
                return float(uni + kappa_term)

            prob = cb.CodeProblem(n=n, theta=theta, m=1, f=f_mv, f0=f0_mv)
            est = cb.estimate_B(
                PartitionPattern((2, 1)), prob, budget=200, seed=seed
            )
            assert est <= b_merged + 1e-9, (n, seed, est, b_merged)
        audited += 1
    assert audited == 100
    report(f"criterion 8 PASS: {audited} greedy codes audited, no bound undercut")


def _paper_map_rows():
    """The body rows of the README's "Paper map" table, each a list of cells."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Paper map\n", 1)[1].split("\n## ", 1)[0]
    lines = [line.strip() for line in section.splitlines() if line.startswith("|")]
    return [line.strip("|").split(" | ") for line in lines[2:]]  # after the header and its rule


def _is_function(obj) -> bool:
    # lru_cache wrappers, such as addition_coefficients, are not
    # inspect.isfunction
    return callable(obj) and not inspect.isclass(obj)


def test_paper_map_covers_the_library():
    """Every function the README's paper map names exists, with its command
    and criterion, and every public function of the library is in the map."""
    rows = _paper_map_rows()
    assert len(rows) >= 6 and all(len(row) == 4 for row in rows), rows
    named = set()
    for _result, functions, command, criterion in rows:
        for name in re.findall(r"`([^`]+)`", functions):
            module, _, attr = name.partition(".")
            obj = getattr(getattr(spherepd, module, None), attr, None)
            assert not attr.startswith("_") and _is_function(obj), name
            named.add(name)
        for sub in re.findall(r"`([a-z][a-z-]*)`", command):
            with redirect_stdout(io.StringIO()):  # --help prints the usage
                assert main([sub, "--help"]) == 0, sub
        for number in re.findall(r"\d+", criterion):
            assert any(key.startswith(f"test_criterion_{number}_") for key in globals()), number
    public = set()
    for module in (getattr(spherepd, name) for name in spherepd.__all__):
        if not inspect.ismodule(module):
            continue
        short = module.__name__.rpartition(".")[2]
        for attr in getattr(module, "__all__", [a for a in vars(module) if not a.startswith("_")]):
            obj = getattr(module, attr)
            if _is_function(obj) and getattr(obj, "__module__", None) == module.__name__:
                public.add(f"{short}.{attr}")
    assert len(public) > 40
    assert public <= named, sorted(public - named)
    report(f"paper map PASS: {len(rows)} rows name all {len(public)} public functions")
