"""Tests for the binary checkpoint container."""

import hashlib
import itertools
import json
import os
import struct

import numpy as np
import pytest

from querysplat import checkpoint, cli
from querysplat.checkpoint import MAGIC, CheckpointError, load_checkpoint, save_checkpoint


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


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


class TestGoldenBytes:
    """Digests of files that the writer made before it wrote each array's
    own buffer; the same states must keep giving the same bytes."""

    def test_hand_built_state(self, tmp_path):
        state = {
            "opt.step": np.array(7, dtype=np.int64),  # 0-d, and not float64
            "empty": np.zeros((0,)),
            "cube": np.arange(24, dtype=np.float64).reshape(2, 3, 4) / 7.0 - 1.5,
            "décodeur.poids": np.array([[-0.0, np.pi], [1e-300, -2.5e10]]),
        }
        path = tmp_path / "hand.ckpt"
        save_checkpoint(str(path), state)
        assert sha256(path) == (
            "cbb9177e00936927622032f865f64540f5c6f7eaad416ebb24be4f7a3961a5ee"
        )

    def test_two_step_pretraining(self, tmp_path):
        doc = {
            "seed": 0,
            "data": {"n_scenes": 1, "n_objects": 1, "n_views": 2,
                     "image_size": [32, 32], "keep_rate": 0.5},
            "decoder": {"queries": 16, "feature_dim": 32},
            "pretrain": {"total_steps": 2, "warmup_steps": 1, "checkpoint_every": 1,
                         "snapshot_every": 0, "hflip_prob": 0.5},
        }
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        data, out = tmp_path / "data", tmp_path / "pre"
        assert cli.main(["gen-data", "--config", str(cfg), "--out-dir", str(data)]) == 0
        assert cli.main(["pretrain", "--config", str(cfg), "--data", str(data),
                         "--out-dir", str(out)]) == 0
        step1 = "7bf402f7263c41d3a4798b29689072d4ce1ab48a9340c5f5b07c7de474ab3ca2"
        step2 = "ef1cdd856ddf858a1f563d16561da67956e55b22fc795fce216b60d4cd57aff4"
        assert sha256(out / "checkpoints" / "step000001.ckpt") == step1
        assert sha256(out / "checkpoints" / "step000002.ckpt") == step2
        assert sha256(out / "model.ckpt") == step2


class TestLoadedArrays:
    def test_fresh_writeable_native_arrays(self, tmp_path):
        path = tmp_path / "c.bin"
        save_checkpoint(str(path), {
            "a": np.arange(12.0).reshape(3, 4).T,  # Fortran order on the way in
            "b": np.array(3, dtype=np.int64),
            "c": np.zeros((0, 2)),
            "d": np.ones((2, 2, 2)),
            "e": np.arange(5.0),
        })
        loaded = load_checkpoint(str(path))
        for arr in loaded.values():
            assert arr.dtype == np.float64 and arr.dtype.isnative
            assert arr.flags.c_contiguous and arr.flags.writeable
            assert arr.flags.owndata  # no buffer shared with other records
        for x, y in itertools.combinations(loaded.values(), 2):
            assert not np.shares_memory(x, y)
        np.testing.assert_array_equal(loaded["a"], np.arange(12.0).reshape(3, 4).T)
        assert loaded["b"].shape == () and loaded["b"] == 3.0
        loaded["d"][0, 0, 0] = -1.0  # writeable, and no other array sees it
        assert loaded["e"][0] == 0.0


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

    def test_forged_rank(self, tmp_path):
        # A rank of 2^32 - 1 declares a shape field of 4 * (2^32 - 1) bytes;
        # it is refused as a whole, before any of it is read.
        path = tmp_path / "r.bin"
        save_checkpoint(str(path), {"w": np.ones((4, 4))})
        data = bytearray(path.read_bytes())
        rank_at = len(MAGIC) + 4 + 1
        data[rank_at : rank_at + 4] = struct.pack("<I", 2**32 - 1)
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match=r"shape of 'w' needs 17179869180 bytes"):
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


class TestSkipAndFinite:
    """Records named by a skip prefix are sought past after the same checks;
    every record returned must be finite."""

    STATE = {"a": np.arange(6.0).reshape(2, 3), "opt.m:a": np.ones((2, 3)),
             "opt.step": np.array(4.0), "z": np.array([0.5, -0.0])}

    def write(self, tmp_path, state=None):
        path = tmp_path / "s.ckpt"
        save_checkpoint(str(path), self.STATE if state is None else state)
        return path

    @pytest.mark.parametrize("skip", ["opt.", ("opt.m", "opt.step")])
    def test_skipped_records_are_left_out(self, tmp_path, skip):
        path = self.write(tmp_path)
        got = load_checkpoint(str(path), skip=skip)
        full = load_checkpoint(str(path))
        assert sorted(got) == ["a", "z"]
        for name in got:
            assert got[name].tobytes() == full[name].tobytes()

    def test_forged_size_in_a_skipped_record_is_refused(self, tmp_path):
        # Records are in sorted order: a, opt.m:a, opt.step, z.
        path = self.write(tmp_path)
        data = bytearray(path.read_bytes())
        rank_at = data.index(b"opt.m:a") + len("opt.m:a")
        data[rank_at + 4 : rank_at + 12] = struct.pack("<II", 2**31, 2**31)
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="data of 'opt.m:a' needs"):
            load_checkpoint(str(path), skip="opt.")

    def test_truncated_skipped_record_is_refused(self, tmp_path):
        path = self.write(tmp_path, {"a": np.ones(2), "opt.m:a": np.ones(2)})
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CheckpointError, match="data of 'opt.m:a' needs 16 bytes"):
            load_checkpoint(str(path), skip="opt.")

    def test_duplicate_skipped_record_is_refused(self, tmp_path):
        path = self.write(tmp_path, {"opt.m:a": np.ones(2)})
        record = path.read_bytes()[len(MAGIC):]
        path.write_bytes(MAGIC + record + record)
        with pytest.raises(CheckpointError, match="duplicate parameter 'opt.m:a'"):
            load_checkpoint(str(path), skip="opt.")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_record_is_named(self, tmp_path, bad):
        state = dict(self.STATE, z=np.array([0.5, bad]))
        path = self.write(tmp_path, state)
        with pytest.raises(CheckpointError, match="non-finite value in 'z'"):
            load_checkpoint(str(path))

    def test_non_finite_skipped_record_is_not_read(self, tmp_path):
        state = dict(self.STATE, **{"opt.m:a": np.full((2, 3), np.nan)})
        path = self.write(tmp_path, state)
        assert sorted(load_checkpoint(str(path), skip="opt.")) == ["a", "z"]


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
