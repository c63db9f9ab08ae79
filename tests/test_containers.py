import struct

import numpy as np
import pytest

from stegokit import codec, containers


def make_grid(rng, h=16, w=24):
    coeffs = rng.integers(-100, 101, size=(h, w)).astype(np.int16)
    return codec.DctGrid(coeffs=coeffs, quant_table=codec.quant_table_for_quality(75))


class TestJcg:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        grid = make_grid(rng)
        path = tmp_path / "a.jcg"
        containers.write_jcg(path, grid)
        back = containers.read_jcg(path)
        assert np.array_equal(back.coeffs, grid.coeffs)
        assert np.array_equal(back.quant_table, grid.quant_table)

    def test_byte_layout(self, tmp_path):
        # coefficients must be stored block by block, row-major within a block
        h, w = 8, 16
        coeffs = np.arange(h * w, dtype=np.int16).reshape(h, w)
        grid = codec.DctGrid(coeffs=coeffs, quant_table=np.ones((8, 8), np.uint16))
        path = tmp_path / "layout.jcg"
        containers.write_jcg(path, grid)
        data = path.read_bytes()
        assert data[:4] == b"JCG1"
        assert struct.unpack_from("<II", data, 4) == (w, h)
        qt = np.frombuffer(data, dtype="<u2", count=64, offset=12)
        assert (qt == 1).all()
        payload = np.frombuffer(data, dtype="<i2", offset=12 + 128)
        first_block = coeffs[:8, :8].reshape(-1)
        second_block = coeffs[:8, 8:16].reshape(-1)
        assert np.array_equal(payload[:64], first_block)
        assert np.array_equal(payload[64:128], second_block)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.jcg"
        path.write_bytes(b"XXXX" + b"\0" * 64)
        with pytest.raises(ValueError):
            containers.read_jcg(path)

    def test_truncated_rejected(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "t.jcg"
        containers.write_jcg(path, make_grid(rng))
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(ValueError):
            containers.read_jcg(path)

    @pytest.mark.parametrize("edit", [
        lambda d: d[:8],  # magic, then part of the width
        lambda d: d[:12 + 64],  # part of the quant table
        lambda d: d[:-2],  # one coefficient short
        lambda d: d + b"\0\0",  # one coefficient too many
    ], ids=["short-header", "short-table", "truncated", "over-long"])
    def test_wrong_length_names_the_file(self, edit, tmp_path):
        rng = np.random.default_rng(4)
        path = tmp_path / "w.jcg"
        containers.write_jcg(path, make_grid(rng))
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(ValueError, match="w.jcg"):
            containers.read_jcg(path)


class TestPgm:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        pixels = rng.integers(0, 256, size=(24, 16)).astype(np.uint8)
        path = tmp_path / "img.pgm"
        containers.write_pgm(path, pixels)
        assert np.array_equal(containers.read_pgm(path), pixels)

    def test_header_format(self, tmp_path):
        path = tmp_path / "img.pgm"
        containers.write_pgm(path, np.zeros((8, 16), np.uint8))
        assert path.read_bytes().startswith(b"P5\n16 8\n255\n")

    def test_comments_tolerated(self, tmp_path):
        path = tmp_path / "c.pgm"
        pixels = np.arange(4, dtype=np.uint8).reshape(2, 2)
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + pixels.tobytes())
        assert np.array_equal(containers.read_pgm(path), pixels)

    def test_rejects_non_p5(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 0 0 0")
        with pytest.raises(ValueError):
            containers.read_pgm(path)

    def test_out_of_range_values_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            containers.write_pgm(tmp_path / "o.pgm", np.full((4, 4), 300))

    @pytest.mark.parametrize("data, field", [
        (b"P5\n2", "height"),
        (b"P5\n2 2", "maxval"),
        (b"P5\nx 2\n255\n" + bytes(4), "width"),
        (b"P5\n-2 2\n255\n" + bytes(4), "width: must be positive"),
        (b"P5\n2 0\n255\n", "height: must be positive"),
        (b"P5\n2 2\n65535\n" + bytes(8), "maxval"),
        (b"P5\n2 2\n255\n" + bytes(3), "pixels: expected 4 bytes for 2x2, found 3"),
        (b"P5\n2 2\n255\n" + bytes(5), "pixels: expected 4 bytes for 2x2, found 5"),
        (b"P5\n2 2\n255", "pixels: expected 4 bytes for 2x2, found 0"),
    ], ids=["cut-after-width", "cut-after-height", "not-an-int", "negative-width",
            "zero-height", "16-bit", "truncated", "trailing-bytes", "no-payload"])
    def test_corrupt_header_or_payload_names_file_and_field(self, data, field, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=field) as exc:
            containers.read_pgm(path)
        assert str(path) in str(exc.value)
