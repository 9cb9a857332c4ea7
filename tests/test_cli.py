"""Command-line interface: parsing, reports, exit codes."""

import csv
import json
from math import pi

import pytest

from spherepd import serialize
from spherepd.cli import UsageError, main, parse_range, parse_theta
from spherepd.constraints import make_pair, pair_from_points
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

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{broken")
        assert main(["bound", str(path)]) == 2

    @pytest.mark.parametrize(
        "change",
        [
            {"f0": float("nan")},
            {"f_diag": float("inf")},
            {"B": {"2+1": float("nan")}},
            {"B": {"2+1": 2.0**52}},  # N_max + 1 beyond 2^53
            {"f0": 1e300, "f_diag": 1.0, "B": {"2+1": 1e306}},  # the residual overflows
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


class TestUsage:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-psd", "--n", "3", "--r", "0", "--k", "1"],
            ["verify-orthogonality", "--n", "3", "--k", "1", "--l", "2", "--samples", "10"],
            ["verify-orthogonality", "--n", "3", "--k", "-1", "--l", "2"],
            ["verify-addition", "--n", "4", "--k", "-1"],
            ["hierarchy", "PAIR", "--degree", "0"],
        ],
    )
    def test_input_errors_exit_2(self, argv, tmp_path, capsys):
        path = tmp_path / "pair.json"
        path.write_text(serialize.pair_to_json(pair_from_points(sample_sphere(4, 5, seed=7))))
        argv = [str(path) if a == "PAIR" else a for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_reproducible_reports(self, capsys):
        argv = ["verify-psd", "--n", "4", "--m", "0..1", "--k", "2",
                "--seeds", "2", "--seed", "11"]
        main(argv)
        first = json.loads(capsys.readouterr().out)
        main(argv)
        second = json.loads(capsys.readouterr().out)
        first.pop("timestamp")
        second.pop("timestamp")
        assert first == second
