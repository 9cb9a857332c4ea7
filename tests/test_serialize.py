"""Round-trip tests for all file formats."""

import json

import numpy as np
import pytest

from spherepd import serialize
from spherepd.codebounds import delsarte_lp
from spherepd.constraints import pair_from_points
from spherepd.randgen import rng_for
from spherepd.spherical import sample_sphere
from spherepd.symlin import SymmetricMatrix


class TestMatrixFormats:
    def setup_method(self):
        rng = rng_for(50, 0)
        a = rng.standard_normal((4, 4))
        self.m = SymmetricMatrix(0.5 * (a + a.T), check=False)

    def test_json_roundtrip(self):
        text = serialize.matrix_to_json(self.m)
        obj = json.loads(text)
        assert obj["dim"] == 4 and len(obj["upper"]) == 10
        back = serialize.matrix_from_json(text)
        assert np.array_equal(back.array, self.m.array)

    def test_csv_roundtrip(self):
        back = serialize.matrix_from_csv(serialize.matrix_to_csv(self.m))
        assert np.array_equal(back.array, self.m.array)

    def test_csv_rejects_nonfinite_asymmetric(self):
        with pytest.raises(ValueError, match="input matrix is not symmetric"):
            serialize.matrix_from_csv("1,inf\n-inf,1\n")

    @pytest.mark.parametrize(
        "text",
        ['{"dim": 2, "upper": [1, NaN, 1]}', '{"dim": 2, "upper": [Infinity, 0, 1]}',
         '{"dim": 2, "upper": [1, 0, -Infinity]}'],
    )
    def test_json_rejects_nonfinite(self, text):
        with pytest.raises(ValueError, match="entries must be finite"):
            serialize.matrix_from_json(text)

    @pytest.mark.parametrize("text", ["1,inf\ninf,1\n", "nan,0\n0,1\n", "1,0\n0,-inf\n"])
    def test_csv_rejects_nonfinite(self, text):
        with pytest.raises(ValueError, match="entries must be finite"):
            serialize.matrix_from_csv(text)

    def test_bad_upper_length(self):
        with pytest.raises(ValueError):
            serialize.matrix_from_json('{"dim": 3, "upper": [1, 2]}')


class TestPointFormats:
    def test_json_roundtrip(self):
        pts = sample_sphere(5, 7, seed=1)
        back = serialize.points_from_json(serialize.points_to_json(pts))
        assert back.n == 5
        assert np.array_equal(back.coords, pts.coords)

    def test_csv_roundtrip(self):
        pts = sample_sphere(3, 4, seed=2)
        back = serialize.points_from_csv(serialize.points_to_csv(pts))
        assert np.array_equal(back.coords, pts.coords)


class TestPairFormat:
    def test_roundtrip(self):
        pair = pair_from_points(sample_sphere(4, 5, seed=3))
        back = serialize.pair_from_json(serialize.pair_to_json(pair))
        assert back.n == pair.n
        assert np.allclose(back.t.array, pair.t.array)
        assert np.allclose(back.u, pair.u)

    def test_rejects_invalid_pair(self):
        text = json.dumps({"n": 3, "T": [[1.0, 2.0], [2.0, 1.0]], "U": [[0.0], [0.0]]})
        with pytest.raises(ValueError):
            serialize.pair_from_json(text)


class TestPolynomialFormat:
    def test_roundtrip(self):
        terms = {
            0: [((0, 0), (0, 0), 1.5)],
            2: [((1, 0), (0, 1), -0.25), ((0, 2), (0, 0), 0.75)],
        }
        text = serialize.polynomial_to_json(5, 2, terms)
        n, m, back = serialize.polynomial_from_json(text)
        assert (n, m) == (5, 2)
        assert back == terms
        assert json.loads(text)["tdeg"] == 2


class TestCertificateFormats:
    def test_csv_rows(self):
        cert = delsarte_lp(4, np.pi / 2, degree=4, grid_size=256)
        rows = [r.split(",") for r in serialize.certificate_to_csv(cert).strip().splitlines()]
        assert len(rows) == 5
        assert [int(r[0]) for r in rows] == [0, 1, 2, 3, 4]
        assert float(rows[0][1]) > 0.0

    def test_json_schema(self):
        cert = delsarte_lp(3, np.pi / 2, degree=3, grid_size=256)
        obj = json.loads(serialize.certificate_to_json(cert))
        assert set(obj) == {
            "bound", "per_omega", "verification", "coefficients", "expansion",
        }
        assert "2" in obj["per_omega"] and "1+1" in obj["per_omega"]
