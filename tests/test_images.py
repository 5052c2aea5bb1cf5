"""Tests for PPM / PFM / mask file round-trips and format validation."""

import numpy as np
import pytest

from querysplat import images as im


class TestPPM:
    def test_round_trip_quantized(self, tmp_path):
        rng = np.random.default_rng(42)
        rgb = rng.uniform(size=(9, 7, 3))
        path = tmp_path / "img.ppm"
        im.write_ppm(path, rgb)
        back = im.read_ppm(path)
        assert back.shape == (9, 7, 3)
        # Quantization to 8 bits: error at most half a level.
        assert np.max(np.abs(back - rgb)) <= 0.5 / 255.0 + 1e-12

    def test_exact_levels_survive(self, tmp_path):
        rgb = np.array([[[0.0, 1.0, 128.0 / 255.0]]])
        path = tmp_path / "img.ppm"
        im.write_ppm(path, rgb)
        np.testing.assert_array_equal(im.read_ppm(path), rgb)

    def test_header_bytes(self, tmp_path):
        path = tmp_path / "img.ppm"
        im.write_ppm(path, np.zeros((2, 3, 3)))
        data = path.read_bytes()
        assert data.startswith(b"P6\n3 2\n255\n")
        assert len(data) == len(b"P6\n3 2\n255\n") + 2 * 3 * 3

    def test_out_of_range_clipped(self, tmp_path):
        path = tmp_path / "img.ppm"
        im.write_ppm(path, np.array([[[-0.5, 1.5, 0.5]]]))
        back = im.read_ppm(path)
        np.testing.assert_allclose(back[0, 0], [0.0, 1.0, 0.5], atol=0.5 / 255)

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n# a comment\n1 1\n255\n\x10\x20\x30")
        back = im.read_ppm(path)
        np.testing.assert_allclose(back[0, 0], np.array([16, 32, 48]) / 255.0)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(im.ImageFormatError, match="P6"):
            im.read_ppm(path)

    def test_truncated_pixels(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n2 2\n255\n\x00\x01")
        with pytest.raises(im.ImageFormatError, match="pixel data"):
            im.read_ppm(path)

    def test_bad_shape_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="shape"):
            im.write_ppm(tmp_path / "x.ppm", np.zeros((4, 4)))


class TestPFM:
    def test_round_trip_float32_exact(self, tmp_path):
        rng = np.random.default_rng(42)
        depth = rng.uniform(0.1, 50.0, size=(6, 11)).astype(np.float32)
        path = tmp_path / "d.pfm"
        im.write_pfm(path, depth)
        back = im.read_pfm(path)
        np.testing.assert_array_equal(back, depth.astype(np.float64))

    def test_header_and_row_order(self, tmp_path):
        depth = np.array([[1.0, 2.0], [3.0, 4.0]])
        path = tmp_path / "d.pfm"
        im.write_pfm(path, depth)
        data = path.read_bytes()
        assert data.startswith(b"Pf\n2 2\n-1.0\n")
        # Bottom row is stored first.
        floats = np.frombuffer(data[len(b"Pf\n2 2\n-1.0\n"):], dtype="<f4")
        np.testing.assert_array_equal(floats, [3.0, 4.0, 1.0, 2.0])

    def test_big_endian_scale_honored(self, tmp_path):
        path = tmp_path / "d.pfm"
        payload = np.array([1.5, -2.0], dtype=">f4").tobytes()
        path.write_bytes(b"Pf\n2 1\n1.0\n" + payload)
        np.testing.assert_array_equal(im.read_pfm(path), [[1.5, -2.0]])

    def test_color_pfm_rejected(self, tmp_path):
        path = tmp_path / "d.pfm"
        path.write_bytes(b"PF\n1 1\n-1.0\n" + b"\x00" * 12)
        with pytest.raises(im.ImageFormatError, match="grayscale"):
            im.read_pfm(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "d.pfm"
        path.write_bytes(b"Pf\n2 1\n-1.0\n\x00\x00")
        with pytest.raises(im.ImageFormatError, match="pixel data"):
            im.read_pfm(path)

    def test_zero_scale_rejected(self, tmp_path):
        path = tmp_path / "d.pfm"
        path.write_bytes(b"Pf\n1 1\n0.0\n\x00\x00\x00\x00")
        with pytest.raises(im.ImageFormatError, match="scale"):
            im.read_pfm(path)


class TestMask:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(42)
        mask = rng.uniform(size=(8, 5)) < 0.4
        path = tmp_path / "m.bin"
        im.write_mask(path, mask)
        np.testing.assert_array_equal(im.read_mask(path), mask)

    def test_byte_layout(self, tmp_path):
        path = tmp_path / "m.bin"
        im.write_mask(path, np.array([[True, False]]))
        data = path.read_bytes()
        assert data == b"SQSMSK1" + bytes([1]) + np.uint32(1).tobytes() + np.uint32(
            2
        ).tobytes() + b"\x01\x00"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"NOTMSK1" + bytes(9))
        with pytest.raises(im.ImageFormatError, match="magic"):
            im.read_mask(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"SQSMSK1" + bytes([9]) + bytes(8))
        with pytest.raises(im.ImageFormatError, match="version"):
            im.read_mask(path)

    def test_truncated_data(self, tmp_path):
        path = tmp_path / "m.bin"
        good = b"SQSMSK1" + bytes([1]) + np.uint32(2).tobytes() + np.uint32(2).tobytes()
        path.write_bytes(good + b"\x01")
        with pytest.raises(im.ImageFormatError, match="mask data"):
            im.read_mask(path)

    def test_invalid_byte_value(self, tmp_path):
        path = tmp_path / "m.bin"
        good = b"SQSMSK1" + bytes([1]) + np.uint32(1).tobytes() + np.uint32(2).tobytes()
        path.write_bytes(good + b"\x00\x07")
        with pytest.raises(im.ImageFormatError, match="pixel 1"):
            im.read_mask(path)


class TestForgedSizes:
    """A header that declares more pixels than the file holds is refused
    from the file size, before any read."""

    def test_ppm(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n4294967295 4294967295\n255\n" + bytes(12))
        with pytest.raises(im.ImageFormatError, match="PPM pixel data needs"):
            im.read_ppm(path)

    def test_pfm(self, tmp_path):
        path = tmp_path / "d.pfm"
        path.write_bytes(b"Pf\n99999999999 99999999999\n-1.0\n" + bytes(16))
        with pytest.raises(im.ImageFormatError, match="PFM pixel data needs"):
            im.read_pfm(path)

    def test_mask(self, tmp_path):
        path = tmp_path / "m.bin"
        side = np.uint32(2**32 - 1).tobytes()
        path.write_bytes(b"SQSMSK1" + bytes([1]) + side + side + bytes(4))
        with pytest.raises(im.ImageFormatError, match="mask data needs"):
            im.read_mask(path)
