"""Command-line interface: parsing, reports, exit codes."""

import csv
import json
from math import pi

import pytest

from spherepd import codebounds, serialize, simplex, spherical, symlin
from spherepd.cli import RunReport, UsageError, main, parse_range, parse_theta
from spherepd.constraints import make_pair, pair_from_points
from spherepd.simplex import LpResult
from spherepd.spherical import sample_sphere
from spherepd.symlin import SymmetricMatrix


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


class TestParsing:
    def test_theta_literals(self):
        assert parse_theta("pi") == pytest.approx(pi)
        assert parse_theta("pi/3") == pytest.approx(pi / 3)
        assert parse_theta("2pi/5") == pytest.approx(2 * pi / 5)
        assert parse_theta("1.5") == pytest.approx(1.5)

    def test_theta_rejects_garbage(self):
        with pytest.raises(UsageError):
            parse_theta("tau/2")

    @pytest.mark.parametrize("text", ["pi/0", "2pi/0.0"])
    def test_theta_rejects_zero_denominator(self, text):
        with pytest.raises(UsageError, match="cannot parse angle"):
            parse_theta(text)

    def test_ranges(self):
        assert parse_range("3") == [3]
        assert parse_range("0..4") == [0, 1, 2, 3, 4]
        with pytest.raises(UsageError):
            parse_range("4..0")


class TestVerifyPsd:
    def test_pass_run(self, capsys):
        rc = main(["verify-psd", "--n", "5", "--m", "0..2", "--k", "0..2",
                   "--r", "10", "--seeds", "2"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "verify-psd"
        assert all(c["status"] == "pass" for c in report["checks"])

    def test_high_degree_sweep_passes(self, capsys):
        # every one of these 42 kernel matrices is PSD; degree <= 30 needs
        # an evaluator accurate to rounding, not a monomial sum
        rc = main(["verify-psd", "--n", "3", "--m", "0..1", "--k", "24..30",
                   "--r", "60", "--seeds", "3"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert len(report["checks"]) == 42
        assert all(c["status"] == "pass" for c in report["checks"])

    def test_level_range_guard(self, capsys):
        rc = main(["verify-psd", "--n", "3", "--m", "2..2", "--k", "1"])
        assert rc == 2

    def test_zero_seeds_skip(self, capsys):
        rc = main(["verify-psd", "--n", "4", "--m", "0", "--k", "0..1", "--seeds", "0"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert all(c["status"] == "skip" for c in report["checks"])

    def test_csv_format(self, capsys):
        rc = main(["verify-psd", "--n", "4", "--m", "0", "--k", "1",
                   "--seeds", "1", "--format", "csv"])
        assert rc == 0
        rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
        assert rows[0] == ["name", "status", "metric", "tolerance"]
        assert rows[1][1] == "pass"


def _reference_psd_checks(n, m_values, k_values, r, seeds, seed):
    """The verify-psd checks built one (m, k, seed) at a time from kernel_matrix."""
    checks = []
    for m in m_values:
        for k in k_values:
            if seeds == 0:
                checks.append({"name": f"psd n={n} m={m} k={k}", "status": "skip",
                               "metric": None, "tolerance": None})
            for s in range(seeds):
                pts = spherical.sample_sphere(n, r, seed + s)
                rep = symlin.is_psd(spherical.kernel_matrix(pts, m, k).base)
                checks.append({"name": f"psd n={n} m={m} k={k} seed={seed + s}",
                               "status": "pass" if rep.is_psd else "fail",
                               "metric": rep.min_eigenvalue, "tolerance": rep.threshold})
    return checks


class TestVerifyPsdReport:
    """One recurrence pass per (seed, level) prints what per-degree matrices print."""

    @pytest.mark.parametrize(
        "n,m,k,r,seeds,seed",
        [
            (4, (0, 2), (8, 12), 30, 2, 5),
            (6, (0, 4), (12, 12), 30, 2, 9),
            (3, (0, 1), (24, 30), 60, 3, 0),
            (5, (0, 3), (0, 6), 20, 2, 41),
            (5, (1, 2), (3, 5), 20, 0, 7),
        ],
        ids=["k8..12", "k12..12", "n3-high-degree", "n5-two-seeds", "zero-seeds"],
    )
    def test_checks_equal_per_matrix_reference(self, n, m, k, r, seeds, seed, capsys):
        argv = ["verify-psd", "--n", str(n), "--m", f"{m[0]}..{m[1]}", "--k", f"{k[0]}..{k[1]}",
                "--r", str(r), "--seeds", str(seeds), "--seed", str(seed)]
        rc = main(argv)
        checks = json.loads(capsys.readouterr().out)["checks"]
        want = _reference_psd_checks(n, range(m[0], m[1] + 1), range(k[0], k[1] + 1),
                                     r, seeds, seed)
        assert checks == want
        assert rc == (1 if any(c["status"] == "fail" for c in want) else 0)


class TestVerifyOrthogonality:
    def test_off_diagonal(self, capsys):
        rc = main(["verify-orthogonality", "--n", "5", "--m", "1",
                   "--k", "1", "--l", "2", "--samples", "50000"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        names = [c["name"] for c in report["checks"]]
        assert "mc z-score" in names and "quadrature relative" in names

    def test_diagonal_norm(self, capsys):
        rc = main(["verify-orthogonality", "--n", "5", "--m", "0",
                   "--k", "2", "--l", "2", "--samples", "50000"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checks"][0]["name"] == "norm positive"

    def test_constant_kernel_prints_null_z(self, capsys):
        # G_0 = 1, so every sample agrees and the stderr is 0: no z to print
        rc = main(["verify-orthogonality", "--n", "3", "--m", "0",
                   "--k", "0", "--l", "0", "--samples", "1000"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        check = report["checks"][0]
        assert (check["name"], check["status"], check["metric"]) == ("norm positive", "pass", None)


class TestVerifyAddition:
    def test_residuals(self, capsys):
        rc = main(["verify-addition", "--n", "6", "--m", "1..3", "--k", "4",
                   "--samples", "30"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["checks"]) == 6


class TestToleranceColumn:
    """The printed tolerance is the threshold the PSD test applied, so a
    check passes exactly when its metric reaches its tolerance."""

    @staticmethod
    def assert_status_follows_tolerance(checks):
        for c in checks:
            assert (c["status"] == "pass") == (c["metric"] >= c["tolerance"]), c

    def test_verify_psd(self, capsys):
        for n, m, k in [(3, "0..1", "1..4"), (5, "0..3", "0..6")]:
            rc = main(["verify-psd", "--n", str(n), "--m", m, "--k", k,
                       "--r", "30", "--seeds", "2"])
            checks = json.loads(capsys.readouterr().out)["checks"]
            assert rc == 0
            # matrix scale > 1 makes the applied threshold wider than -1e-8
            assert min(c["tolerance"] for c in checks) < -1e-8
            self.assert_status_follows_tolerance(checks)

    def test_hierarchy(self, tmp_path, capsys):
        good = pair_from_points(sample_sphere(5, 12, seed=3))
        bad = make_pair(SymmetricMatrix([[1.0, -0.99], [-0.99, 1.0]]),
                        [[0.99, 0.0, 0.0], [0.99, 0.0, 0.0]], 4)
        statuses = set()
        for name, pair in (("good", good), ("bad", bad)):
            path = tmp_path / f"{name}.json"
            path.write_text(serialize.pair_to_json(pair))
            main(["hierarchy", str(path), "--degree", "4"])
            checks = json.loads(capsys.readouterr().out)["checks"]
            levels = [c for c in checks if c["name"].startswith("level")]
            assert min(c["tolerance"] for c in levels) < -1e-8
            self.assert_status_follows_tolerance(levels)
            statuses |= {c["status"] for c in levels}
        assert statuses == {"pass", "fail"}


class TestHierarchy:
    def test_realizable_pair(self, tmp_path, capsys):
        pair = pair_from_points(sample_sphere(4, 5, seed=7))
        path = tmp_path / "pair.json"
        path.write_text(serialize.pair_to_json(pair))
        rc = main(["hierarchy", str(path), "--degree", "3"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        names = [c["name"] for c in report["checks"]]
        assert "membership chain monotone" in names
        assert "reconstruction round-trip" in names

    def test_violator_pair(self, tmp_path, capsys):
        t = [[1.0, -0.99], [-0.99, 1.0]]
        u = [[0.99, 0.0, 0.0], [0.99, 0.0, 0.0]]
        pair = make_pair(SymmetricMatrix(t), u, 4)
        path = tmp_path / "bad_pair.json"
        path.write_text(serialize.pair_to_json(pair))
        rc = main(["hierarchy", str(path), "--degree", "3"])
        assert rc == 1
        report = json.loads(capsys.readouterr().out)
        by_name = {c["name"]: c["status"] for c in report["checks"]}
        assert by_name["membership chain monotone"] == "pass"
        assert by_name["realizable set"] == "fail"

    def test_missing_file(self, capsys):
        assert main(["hierarchy", "/nonexistent/pair.json"]) == 2

    @pytest.mark.parametrize("n", [1, 0])
    def test_pair_file_below_dimension_2(self, tmp_path, capsys, n):
        # with n = 1 the levels 0..n - 2 are empty
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({"n": n, "T": [[1.0]], "U": [[0.0] * max(n - 1, 0)]}))
        assert main(["hierarchy", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: cannot read pair file: a feasible pair needs n >= 2, got n={n}\n"
        )

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_nonfinite_pair_file(self, tmp_path, capsys, bad):
        path = tmp_path / "pair.json"
        path.write_text(f'{{"n": 3, "T": [[1, {bad}], [{bad}, 1]], "U": [[0, 0], [0, 0]]}}')
        assert main(["hierarchy", str(path)]) == 2
        err = capsys.readouterr().err
        assert "cannot read pair file" in err and "entries of T must be finite" in err

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"T": [[1]], "U": [[1, 0]]}, "a pair file has no key 'n'"),
            ({"n": 3, "U": [[1, 0]]}, "a pair file has no key 'T'"),
            ({"n": 3, "T": [[1]]}, "a pair file has no key 'U'"),
            ({"n": 3, "T": [[1]], "U": [[1, 0]], "extra": 1},
             "a pair file holds only n, T and U, not 'extra'"),
            ({"n": 3, "T": [[1]], "U": [[1, 0]], "u": [], "P": 0},
             "a pair file holds only n, T and U, not 'P', 'u'"),
        ],
        ids=["no-n", "no-T", "no-U", "extra", "two-unknown"],
    )
    def test_missing_or_unknown_key_exits_2(self, tmp_path, capsys, obj, message):
        # the parent printed only the bare key "'T'" for a missing key, and ran
        # the pair with an unknown key (exit 0)
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(obj))
        assert main(["hierarchy", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot read pair file: {message}\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[1, 2]", "a pair file is a JSON object"),
            ('"x"', "a pair file is a JSON object"),
            ("7", "a pair file is a JSON object"),
            ('{"n": 3, "T": {"a": 1}, "U": [[1, 0]]}', "not 'dict'"),
        ],
        ids=["list", "string", "number", "T-object"],
    )
    def test_wrong_json_type_exits_2(self, tmp_path, capsys, text, message):
        # each of these used to escape as a TypeError, exit 1 with a traceback
        path = tmp_path / "pair.json"
        path.write_text(text)
        assert main(["hierarchy", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot read pair file: ")
        assert message in captured.err


class TestBound:
    def test_lp_config(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 4, "theta": "pi/2", "degree": 4, "grid": 512}))
        out = tmp_path / "report.json"
        rc = main(["bound", str(path), "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "bound: 8.0" in stdout
        assert (tmp_path / "report.json.certificate.csv").exists()

    def test_explicit_certificate(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 6, "theta": "pi/2", "coeffs": [0, 1, 1]}))
        rc = main(["bound", str(path)])
        assert rc == 0
        stdout = capsys.readouterr().out
        bound = float(stdout.split("bound:")[1].splitlines()[0])
        assert bound == pytest.approx(12.0, abs=1e-9)

    def test_invalid_certificate_fails(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 4, "theta": "pi/3", "coeffs": [0, 1, 1]}))
        rc = main(["bound", str(path)])
        assert rc == 1

    def test_counting_config(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "n": 4, "theta": "pi/2", "m": 1,
            "f0": 0.25, "f_diag": 2.0, "B": {"2+1": 2.0},
        }))
        rc = main(["bound", str(path)])
        assert rc == 0
        assert "bound:" in capsys.readouterr().out

    def test_counting_config_at_level_0(self, tmp_path, capsys):
        # "f0" selects the counting bound at m = 0 too; the degree-9 LP
        # would print 6.000000000000003 and ignore f0 and f_diag
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 3, "theta": "pi/2", "m": 0, "f0": 0.25, "f_diag": 2.0}))
        assert main(["bound", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("bound: 8.0\n")
        report = json.loads(out.split("\n", 1)[1], parse_constant=_reject_constant)
        assert [c["name"] for c in report["checks"]] == ["counting inequality"]
        assert report["parameters"]["m"] == 0

    @pytest.mark.parametrize("m", [0, 1])
    def test_coeffs_with_f0_exits_2(self, tmp_path, capsys, m):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 4, "theta": "pi/2", "m": m, "coeffs": [0, 1, 1],
                                    "f0": 0.25, "f_diag": 2.0}))
        assert main(["bound", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a bound configuration holds coeffs or f0, not both\n"

    def test_counting_float_tie_decided_exactly(self, tmp_path, capsys):
        # the float residual at N = 111 rounds below zero; the exact one is +137/2^56
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "n": 4, "theta": "pi/3", "m": 1, "f0": 0.06839747911460346,
            "f_diag": 38.76134839373541, "B": {"2+1": 2.436254520537254},
        }))
        assert main(["bound", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("bound: 111.0\n")
        report = json.loads(out.split("\n", 1)[1])
        assert report["checks"][0]["metric"] == -7.943874280944808

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{broken")
        assert main(["bound", str(path)]) == 2

    def test_lp_without_certificate_exits_2(self, tmp_path, capsys):
        # no degree-2 polynomial with f_0 = 1 and f_k >= 0 is <= 0 on [-1, 1/2]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 3, "theta": "pi/3", "degree": 2}))
        assert main(["bound", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: no degree-2 certificate at theta=1.047")

    def test_lp_grid_leakage_exits_2(self, tmp_path, capsys):
        # the grid optimum is about -6.9e7 with f_k near 1e7: its overshoot
        # off the grid exceeds f_0, so the grid holds no usable certificate
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 4, "theta": "pi/4", "degree": 5, "grid": 4096}))
        assert main(["bound", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: no usable certificate at degree 5, theta=0.7853981633974483, grid 4096:"
            " grid leakage consumed the whole constant term\n"
        )

    def test_lp_iteration_limit_exits_2(self, tmp_path, capsys, monkeypatch):
        def stopped(c, a_ub, b_ub):
            return LpResult("iteration limit", None, None, None, simplex._MAX_PIVOTS)

        monkeypatch.setattr(codebounds, "solve_lp", stopped)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 4, "theta": "pi/2", "degree": 4, "grid": 512}))
        assert main(["bound", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: discretized program at degree 4, theta=1.5707963267948966, grid 512"
            " not solved: iteration limit\n"
        )

    @pytest.mark.parametrize(
        "change",
        [
            {"f0": float("nan")},
            {"f_diag": float("inf")},
            {"B": {"2+1": float("nan")}},
            {"B": {"2+1": 2.0**52}},  # N_max + 1 beyond 2^53
            {"f0": 1e307, "f_diag": 1.0, "B": {"2+1": 1.7e308}},  # the residual overflows
        ],
    )
    def test_counting_input_errors_exit_2(self, tmp_path, capsys, change):
        cfg = {"n": 4, "theta": "pi/2", "m": 1, "f0": 0.25, "f_diag": 2.0, "B": {"2+1": 2.0}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**cfg, **change}))
        assert main(["bound", str(path)]) == 2
        captured = capsys.readouterr()
        assert "bound:" not in captured.out
        assert "error:" in captured.err

    @pytest.mark.parametrize(
        "coeffs",
        [
            [],
            [0.0, float("nan"), 1.0],
            [float("inf"), 1.0],
            [0.0, 1.0, float("-inf")],
            5,
            [[1.0]],
            "12",  # not the digits 1 and 2
            {"0": 1.0},
        ],
    )
    def test_certificate_input_errors_exit_2(self, tmp_path, capsys, coeffs):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 4, "theta": "pi/2", "coeffs": coeffs}))
        assert main(["bound", str(path)]) == 2
        captured = capsys.readouterr()
        assert "bound:" not in captured.out
        assert "coefficient" in captured.err

    def test_huge_certificate_strict_json(self, tmp_path, capsys):
        # f(1) = 2e308 overflows, so the bound must come from f / f0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 4, "theta": "pi/2", "coeffs": [0, 1e308, 1e308]}))
        assert main(["bound", str(path)]) == 0
        out = capsys.readouterr().out
        assert "bound: 8.0" in out
        report = json.loads(out.split("\n", 1)[1], parse_constant=_reject_constant)
        assert report["checks"][0]["metric"] == pytest.approx(8.0, rel=1e-14)

    @pytest.mark.parametrize(
        "cfg",
        [
            [{"n": 4, "theta": "pi/2", "coeffs": [0, 1, 1]}],
            {"n": 4, "theta": "pi/2", "m": 1, "f0": 0.25, "f_diag": 2.0, "B": "x"},
            {"n": None, "theta": "pi/2", "coeffs": [0, 1, 1]},
            {"n": 4, "theta": "pi/2", "m": None, "coeffs": [0, 1, 1]},
            {"n": 4, "theta": "pi/2", "m": 1, "f0": None, "f_diag": 2.0, "B": {"2+1": 2.0}},
            {"n": 4, "theta": "pi/2", "m": 1, "f0": 0.25, "f_diag": 2.0, "B": {"2+1": None}},
            {"n": 4, "theta": "pi/2", "degree": None},
        ],
    )
    def test_malformed_config_exits_2(self, tmp_path, capsys, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["bound", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "cfg, key",
        [
            ({"n": 4, "theta": "pi/2", "m": 1.9, "f0": 0.25, "f_diag": 2.0,
              "B": {"2+1": 2.0}}, "m"),
            ({"n": 4, "theta": "pi/2", "m": True, "f0": 0.25, "f_diag": 2.0,
              "B": {"2+1": 2.0}}, "m"),
            ({"n": 8.7, "theta": "pi/3", "degree": 11, "grid": 4096}, "n"),
            ({"n": "8", "theta": "pi/3", "degree": 11}, "n"),
            ({"n": 8, "theta": "pi/3", "degree": 11.9}, "degree"),
            ({"n": 8, "theta": "pi/3", "degree": "11"}, "degree"),
            ({"n": 8, "theta": "pi/3", "degree": 11, "grid": 4096.5}, "grid"),
        ],
        ids=["m-float", "m-bool", "n-float", "n-string", "degree-float", "degree-string",
             "grid-float"],
    )
    def test_non_integer_config_exits_2(self, tmp_path, capsys, cfg, key):
        # int() would read "m": 1.9 and "m": true as the m = 1 bound
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["bound", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {key} must be a JSON integer, got ")

    @pytest.mark.parametrize(
        "cfg, keys",
        [
            ({"n": 8, "theta": "pi/3", "degre": 16}, "'degre'"),
            ({"n": 4, "theta": "pi/2", "coeffs": [0, 1, 1], "coef": [1]}, "'coef'"),
            ({"n": 4, "theta": "pi/2", "m": 1, "f0": 0.25, "f_diag": 2.0, "B": {"2+1": 2.0},
              "b": {}, "T": [[1.0]]}, "'T', 'b'"),
        ],
        ids=["lp", "certificate", "counting"],
    )
    def test_unknown_key_exits_2(self, tmp_path, capsys, cfg, keys):
        # an unknown key used to be ignored: "degre": 16 printed the degree-9
        # bound, 240.00016044813415, and exited 0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["bound", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unknown key in bound configuration: {keys}\n"

    @pytest.mark.parametrize(
        "change, err",
        [
            ({"m": 0, "f0": True}, "f0 must be a JSON number, got true"),
            ({"f0": "0.25"}, 'f0 must be a JSON number, got "0.25"'),
            ({"f_diag": "2"}, 'f_diag must be a JSON number, got "2"'),
            ({"f0": 10**400}, "f0 is too large for a float"),
            ({"B": {"2+1": "2"}}, 'B["2+1"] must be a JSON number, got "2"'),
            ({"B": {"2+1": True}}, 'B["2+1"] must be a JSON number, got true'),
            ({"B": {" 2 + 1 ": 2.0}}, 'B key " 2 + 1 " is not a pattern such as "2+1"'),
            ({"B": {"2+": 2.0}}, 'B key "2+" is not a pattern such as "2+1"'),
            ({"B": [1]}, "B must be a JSON object, got [1]"),
            ({"B": {"2+1": 5.0, "02+1": 2.0}}, 'B key "02+1" repeats the pattern of another key'),
            ({"coeffs": ["1", "-1"]}, 'coefficient coeffs[0] must be a JSON number, got "1"'),
            ({"coeffs": [True, 1, 1]}, "coefficient coeffs[0] must be a JSON number, got true"),
            ({"coeffs": [0, 1, "1"]}, 'coefficient coeffs[2] must be a JSON number, got "1"'),
        ],
        ids=["f0-bool", "f0-string", "f_diag-string", "f0-huge-int", "B-value-string",
             "B-value-bool", "B-padded-key", "B-open-key", "B-list", "B-same-pattern-twice",
             "coeffs-strings",
             "coeffs-bool", "coeffs-last-string"],
    )
    def test_non_number_config_exits_2(self, tmp_path, capsys, change, err):
        # the parent read each of these with float() or int(): "f0": true ran
        # the counting bound with f0 = 1, the strings gave "bound: 23.0", and
        # "B": [1] and the huge f0 failed with a message that named no key
        if "coeffs" in change:
            cfg = {"n": 4, "theta": "pi/2", **change}
        else:
            cfg = {"n": 4, "theta": "pi/2", "m": 1, "f0": 0.25, "f_diag": 2.0,
                   "B": {"2+1": 2.0}, **change}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["bound", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {err}\n"

    def test_tiny_certificate_refused(self, tmp_path, capsys):
        # t (1 + t) is positive on (0, 1/2]; its scale must not hide that
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 4, "theta": "pi/3", "coeffs": [0.0, 1e-13, 1e-13]}))
        assert main(["bound", str(path)]) == 1
        assert "bound:" not in capsys.readouterr().out

    def test_unmatched_supremum_key(self, tmp_path, capsys):
        # "1+2" is not weakly decreasing; dropping it would print bound 2.0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "n": 4, "theta": "pi/3", "m": 1,
            "f0": 0.25, "f_diag": 2.0, "B": {"1+2": 5.0},
        }))
        assert main(["bound", str(path)]) == 2
        captured = capsys.readouterr()
        assert "bound:" not in captured.out
        assert "(1, 2)" in captured.err


class TestCodes:
    def test_named_code_audit(self, capsys):
        rc = main(["codes", "--name", "cross_polytope(3)", "--theta", "pi/2"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["parameters"]["size"] == 6

    def test_failed_audit(self, capsys):
        rc = main(["codes", "--name", "icosahedron", "--theta", "pi/2"])
        assert rc == 1

    def test_one_point_code_prints_null_metric(self, capsys):
        # at theta = pi no second point fits, and a lone point has no pair
        assert main(["codes", "--n", "3", "--theta", "pi"]) == 0
        report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert report["parameters"]["size"] == 1
        check = report["checks"][0]
        assert (check["status"], check["metric"]) == ("pass", None)

    def test_greedy_with_out(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        rc = main(["codes", "--n", "3", "--theta", "pi/2", "--seed", "3",
                   "--out", str(out)])
        assert rc == 0
        assert out.exists()
        pts_file = tmp_path / "run.json.points.json"
        pts = serialize.points_from_json(pts_file.read_text())
        assert pts.n == 3

    def test_requires_name_or_n(self, capsys):
        assert main(["codes", "--theta", "pi/2"]) == 2

    @pytest.mark.parametrize("theta", ["pi/2", "1.1071487177940904"])
    def test_tolerance_is_the_audit_cap(self, theta, capsys):
        # the icosahedron's largest inner product is 1/sqrt(5) = cos(1.107...):
        # one audit fails and one passes, each on the tolerance it prints
        rc = main(["codes", "--name", "icosahedron", "--theta", theta])
        check = json.loads(capsys.readouterr().out)["checks"][0]
        assert check["tolerance"] == codebounds._inner_product_cap(parse_theta(theta))
        passed = check["metric"] <= check["tolerance"]
        assert (check["status"] == "pass") == passed == (rc == 0)


@pytest.mark.parametrize("command", ["codes", "bound"])
def test_zero_denominator_angle_exits_2(command, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 4, "theta": "pi/0", "degree": 4}))
    argv = ["codes", "--n", "3", "--theta", "pi/0"] if command == "codes" else ["bound", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: cannot parse angle 'pi/0'\n"


class TestUsage:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 2

    def test_non_finite_metric_is_not_printed(self):
        report = RunReport("codes", {})
        report.add("angle audit", "pass", metric=float("-inf"))
        with pytest.raises(ValueError, match="JSON compliant"):
            report.to_json()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify-psd", "--n", "3", "--m", "0..2", "--k", "1", "--seeds", "0"],
             "level m=2 out of range [0, 1]"),
            (["verify-orthogonality", "--n", "4", "--m", "3", "--k", "1", "--l", "2"],
             "level m=3 out of range [0, 2]"),
            (["verify-addition", "--n", "4", "--m", "3", "--k", "2"],
             "level m=3 out of range [1, 2]"),
            (["verify-addition", "--n", "4", "--m", "0..1", "--k", "2"],
             "level m=0 out of range [1, 2]"),
        ],
        ids=["verify-psd", "verify-orthogonality", "verify-addition", "verify-addition-low"],
    )
    def test_level_out_of_range_has_shared_message(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-psd", "--n", "3", "--r", "0", "--k", "1"],
            ["verify-orthogonality", "--n", "3", "--k", "1", "--l", "2", "--samples", "10"],
            ["verify-orthogonality", "--n", "3", "--k", "-1", "--l", "2"],
            ["verify-addition", "--n", "4", "--k", "-1"],
            ["hierarchy", "PAIR", "--degree", "0"],
            ["verify-addition", "--n", "5", "--m", "1..2", "--k", "4", "--samples", "0"],
            ["verify-psd", "--n", "3", "--k", "1..2", "--seeds", "-1"],
            ["codes", "--n", "3", "--theta", "0"],
            ["codes", "--n", "0", "--theta", "pi/2"],
            ["codes", "--n", "3", "--theta", "nan"],
            ["codes", "--n", "3", "--theta", "4"],
            ["verify-psd", "--n", "3", "--r", "0", "--k", "1", "--seeds", "1"],
            ["bound", "LP", "--theta", "0"],
            ["bound", "LP", "--theta", "nan"],
            ["bound", "LP", "--theta", "4"],
            ["bound", "CERT", "--theta", "4"],
            ["codes", "--name", "icosahedron", "--theta", "nan"],
            ["codes", "--n", "3", "--theta", "1e-300"],  # cos rounds to 1
            ["codes", "--n", "3", "--theta", "0.01"],  # passes 2,500 points
        ],
    )
    def test_input_errors_exit_2(self, argv, tmp_path, capsys):
        files = {
            "PAIR": serialize.pair_to_json(pair_from_points(sample_sphere(4, 5, seed=7))),
            "LP": json.dumps({"n": 4, "theta": "pi/2", "degree": 4, "grid": 512}),
            # t (1 + t), a valid certificate at every theta in [pi/2, pi]
            "CERT": json.dumps({"n": 4, "theta": "pi/2", "coeffs": [0.0, 1.0, 1.0]}),
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        argv = [str(tmp_path / a) if a in files else a for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-psd", "--n", "4", "--m", "0..1", "--k", "2", "--seeds", "2", "--seed", "11"],
            ["verify-addition", "--n", "6", "--m", "1..3", "--k", "4", "--seed", "5"],
        ],
        ids=["verify-psd", "verify-addition"],
    )
    def test_reproducible_reports(self, argv, capsys):
        main(argv)
        first = json.loads(capsys.readouterr().out)
        main(argv)
        second = json.loads(capsys.readouterr().out)
        first.pop("timestamp")
        second.pop("timestamp")
        assert first == second
        if argv[0] == "verify-addition":
            residuals = [c for c in first["checks"] if c["name"].startswith("identity residual")]
            assert len(residuals) == 3
            assert all(c["metric"] < 1e-9 for c in residuals)
