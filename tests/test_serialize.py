"""Round-trip tests for the file formats the CLI reads or writes."""

import csv
import io
import json

import numpy as np
import pytest

from spherepd import serialize
from spherepd.codebounds import delsarte_lp
from spherepd.constraints import pair_from_points
from spherepd.spherical import sample_sphere


class TestPointFormats:
    def test_json_roundtrip(self):
        pts = sample_sphere(5, 7, seed=1)
        back = serialize.points_from_json(serialize.points_to_json(pts))
        assert back.n == 5
        assert np.array_equal(back.coords, pts.coords)


class TestPairFormat:
    def test_roundtrip(self):
        pair = pair_from_points(sample_sphere(4, 5, seed=3))
        back = serialize.pair_from_json(serialize.pair_to_json(pair))
        assert back.n == pair.n
        assert np.allclose(back.t.array, pair.t.array)
        assert np.allclose(back.u, pair.u)

    def test_writes_the_keys_it_reads(self):
        # pair_from_json refuses any other key, so the writer holds exactly these
        pair = pair_from_points(sample_sphere(4, 5, seed=3))
        assert list(json.loads(serialize.pair_to_json(pair))) == list(serialize.PAIR_KEYS)

    @pytest.mark.parametrize("n", [3.9, "3", True])
    def test_rejects_non_integer_n(self, n):
        pair = json.loads(serialize.pair_to_json(pair_from_points(sample_sphere(3, 4, seed=3))))
        points = json.loads(serialize.points_to_json(sample_sphere(3, 4, seed=3)))
        with pytest.raises(ValueError, match="n must be a JSON integer"):
            serialize.pair_from_json(json.dumps(dict(pair, n=n)))
        with pytest.raises(ValueError, match="n must be a JSON integer"):
            serialize.points_from_json(json.dumps(dict(points, n=n)))

    def test_rejects_invalid_pair(self):
        text = json.dumps({"n": 3, "T": [[1.0, 2.0], [2.0, 1.0]], "U": [[0.0], [0.0]]})
        with pytest.raises(ValueError):
            serialize.pair_from_json(text)


class TestCertificateFormats:
    def test_csv_rows(self):
        cert = delsarte_lp(4, np.pi / 2, degree=4, grid_size=256)
        rows = [r.split(",") for r in serialize.certificate_to_csv(cert).strip().splitlines()]
        assert len(rows) == 5
        assert [int(r[0]) for r in rows] == [0, 1, 2, 3, 4]
        assert float(rows[0][1]) > 0.0

    def test_csv_reads_back_bit_for_bit(self):
        # the one certificate file: a "k, f_k" row per expansion coefficient,
        # each float printed so that it reads back exactly
        cert = delsarte_lp(8, np.pi / 3, degree=11, grid_size=4096)
        rows = list(csv.reader(io.StringIO(serialize.certificate_to_csv(cert))))
        assert len(rows) == 11 + 1 == len(cert.expansion)
        for k, row in enumerate(rows):
            assert int(row[0]) == k
            assert float(row[1]) == cert.expansion[k]
        assert float(rows[0][1]) < 1.0  # f_0 = 1 less the grid overshoot
