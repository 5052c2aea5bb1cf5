"""Tests for the PPM and PFM writers' bytes and the mask round trip and validation."""

import numpy as np
import pytest

from querysplat import images as im


class TestPPM:
    """The writer's exact bytes: PPM is an output only, never read back."""

    def test_payload_is_row_major_rint_of_clipped_values(self, tmp_path):
        # Top row first, RGB per pixel; 0.3 * 255 = 76.5 rounds half to even.
        rgb = np.array([[[1.0 / 255.0, 254.0 / 255.0, 0.2]], [[0.3, 0.6, 0.999]]])
        path = tmp_path / "img.ppm"
        im.write_ppm(path, rgb)
        assert path.read_bytes() == b"P6\n1 2\n255\n" + bytes([1, 254, 51, 76, 153, 255])

    def test_exact_levels_survive(self, tmp_path):
        path = tmp_path / "img.ppm"
        im.write_ppm(path, np.array([[[0.0, 1.0, 128.0 / 255.0]]]))
        assert path.read_bytes() == b"P6\n1 1\n255\n" + bytes([0, 255, 128])

    def test_header_bytes(self, tmp_path):
        path = tmp_path / "img.ppm"
        im.write_ppm(path, np.zeros((2, 3, 3)))
        data = path.read_bytes()
        assert data.startswith(b"P6\n3 2\n255\n")
        assert len(data) == len(b"P6\n3 2\n255\n") + 2 * 3 * 3

    def test_out_of_range_clipped(self, tmp_path):
        path = tmp_path / "img.ppm"
        im.write_ppm(path, np.array([[[-0.5, 1.5, 0.5]]]))
        assert path.read_bytes() == b"P6\n1 1\n255\n" + bytes([0, 255, 128])

    def test_bad_shape_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="shape"):
            im.write_ppm(tmp_path / "x.ppm", np.zeros((4, 4)))


class TestPFM:
    """The writer's exact bytes: PFM is an output only, never read back."""

    def test_payload_is_bottom_up_little_endian_float32(self, tmp_path):
        # 0.1 rounds to the nearest float32 (0x3dcccccd); NaN is written as
        # the quiet NaN 0x7fc00000 and -0.0 keeps its sign bit.
        depth = np.array([[1.0, -0.0, 0.1], [np.nan, 2.5, -3.0]])
        path = tmp_path / "d.pfm"
        im.write_pfm(path, depth)
        assert path.read_bytes() == b"Pf\n3 2\n-1.0\n" + bytes.fromhex(
            "0000c07f" "00002040" "000040c0"  # bottom row first
            "0000803f" "00000080" "cdcccc3d"
        )

    def test_header_and_row_order(self, tmp_path):
        depth = np.array([[1.0, 2.0], [3.0, 4.0]])
        path = tmp_path / "d.pfm"
        im.write_pfm(path, depth)
        data = path.read_bytes()
        assert data.startswith(b"Pf\n2 2\n-1.0\n")
        # Bottom row is stored first.
        floats = np.frombuffer(data[len(b"Pf\n2 2\n-1.0\n"):], dtype="<f4")
        np.testing.assert_array_equal(floats, [3.0, 4.0, 1.0, 2.0])

    def test_bad_shape_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="shape"):
            im.write_pfm(tmp_path / "d.pfm", np.zeros((4, 4, 1)))


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

    def test_mask(self, tmp_path):
        path = tmp_path / "m.bin"
        side = np.uint32(2**32 - 1).tobytes()
        path.write_bytes(b"SQSMSK1" + bytes([1]) + side + side + bytes(4))
        with pytest.raises(im.ImageFormatError, match="mask data needs"):
            im.read_mask(path)
