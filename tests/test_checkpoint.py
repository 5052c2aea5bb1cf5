"""Tests for the binary checkpoint container."""

import os
import struct

import numpy as np
import pytest

from querysplat import checkpoint
from querysplat.checkpoint import MAGIC, CheckpointError, load_checkpoint, save_checkpoint


class TestRoundTrip:
    def test_values_and_shapes_survive(self, tmp_path):
        rng = np.random.default_rng(42)
        state = {
            "weight": rng.normal(size=(3, 4)),
            "bias": rng.normal(size=(4,)),
            "scalar": np.array(2.5),
        }
        path = tmp_path / "ckpt.bin"
        save_checkpoint(str(path), state)
        loaded = load_checkpoint(str(path))
        assert set(loaded) == set(state)
        for name in state:
            np.testing.assert_array_equal(loaded[name], np.asarray(state[name], dtype=np.float64))
            assert loaded[name].shape == np.asarray(state[name]).shape

    def test_serialization_is_canonical(self, tmp_path):
        state = {"b": np.ones(2), "a": np.zeros(3)}
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(str(p1), state)
        save_checkpoint(str(p2), {"a": np.zeros(3), "b": np.ones(2)})
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_state(self, tmp_path):
        path = tmp_path / "empty.bin"
        save_checkpoint(str(path), {})
        assert path.read_bytes() == MAGIC
        assert load_checkpoint(str(path)) == {}

    def test_unicode_names(self, tmp_path):
        path = tmp_path / "u.bin"
        save_checkpoint(str(path), {"décodeur.weight": np.arange(2.0)})
        loaded = load_checkpoint(str(path))
        np.testing.assert_array_equal(loaded["décodeur.weight"], [0.0, 1.0])


class TestMalformed:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(str(path))

    def test_truncated_data(self, tmp_path):
        path = tmp_path / "t.bin"
        save_checkpoint(str(path), {"w": np.ones((4, 4))})
        full = path.read_bytes()
        path.write_bytes(full[:-8])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(str(path))

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "t.bin"
        save_checkpoint(str(path), {"w": np.ones(2)})
        full = path.read_bytes()
        # Cut inside the record header (magic is 8 bytes, name length is 4).
        path.write_bytes(full[: len(MAGIC) + 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(str(path))

    def test_forged_shape_header(self, tmp_path):
        # A (2^32 - 1, 2^32 - 1) shape declares far more data than the file
        # holds; the count is exact in Python ints and refused before a read.
        path = tmp_path / "f.bin"
        save_checkpoint(str(path), {"w": np.ones((2, 2))})
        data = bytearray(path.read_bytes())
        shape_at = len(MAGIC) + 4 + 1 + 4
        data[shape_at : shape_at + 8] = struct.pack("<II", 2**32 - 1, 2**32 - 1)
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="data of 'w' needs"):
            load_checkpoint(str(path))

    def test_non_utf8_name(self, tmp_path):
        path = tmp_path / "n.bin"
        path.write_bytes(MAGIC + struct.pack("<I", 2) + b"\xff\xfe" + struct.pack("<I", 0)
                         + struct.pack("<d", 1.0))
        with pytest.raises(CheckpointError, match="UTF-8"):
            load_checkpoint(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.bin"
        path.write_bytes(b"")
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(str(path))


class TestAtomicWrite:
    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), {"w": np.ones(3)})
        before = path.read_bytes()

        def failing_open(file, mode="r", *args, **kwargs):
            f = open(file, mode, *args, **kwargs)
            if "w" in mode:
                f.write(MAGIC + b"partial")  # the disk fills mid-write
                f.close()
                raise OSError("No space left on device")
            return f

        monkeypatch.setattr(checkpoint, "open", failing_open, raising=False)
        with pytest.raises(OSError):
            save_checkpoint(str(path), {"w": np.zeros(1000)})
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.ckpt"]
        np.testing.assert_array_equal(load_checkpoint(str(path))["w"], np.ones(3))

    def test_overwrite_replaces_previous_checkpoint(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), {"w": np.ones(3)})
        save_checkpoint(str(path), {"v": np.zeros(2)})
        assert set(load_checkpoint(str(path))) == {"v"}
        assert os.listdir(tmp_path) == ["model.ckpt"]
