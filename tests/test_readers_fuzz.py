"""Property tests: every file reader either loads a damaged file or raises
its documented error.

Each reader starts from a valid file, which is then truncated, flipped at a
few bytes, overwritten in its header, or given trailing bytes. Whatever the
damage, the reader must return a value or raise its own format error
(ImageFormatError, SceneFormatError, CheckpointError, ConfigError), never
another exception. A reader must not warn on the way either: a NumPy
RuntimeWarning (an overflow while validating, say) fails the test.
"""

import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from querysplat import config as cf
from querysplat import scenes as sc
from querysplat.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from querysplat.images import ImageFormatError, read_mask, write_mask

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

HEADER_BYTES = 96  # covers every format's header, up to the scene's first record


def _valid_files(root):
    """(reader, error, bytes of a valid file) for every reader."""
    rng = np.random.default_rng(0)
    writers = {
        "mask": lambda p: write_mask(p, rng.uniform(size=(3, 4)) < 0.5),
        "scene": lambda p: sc.save_scene(p, sc.generate_scene(
            {"n_objects": 1, "bounds": [[-1, -1, -1], [1, 1, 1]], "n_views": 2,
             "image_size": (8, 8)}, seed=0)),
        "checkpoint": lambda p: save_checkpoint(
            p, {"a.w": rng.normal(size=(2, 3)), "b": rng.normal(size=4), "s": np.ones(())}
        ),
        "config": lambda p: pathlib.Path(p).write_text(json.dumps(cf.DEFAULTS, indent=2)),
    }
    readers = {
        "mask": (read_mask, ImageFormatError),
        "scene": (sc.load_scene, sc.SceneFormatError),
        "checkpoint": (load_checkpoint, CheckpointError),
        "config": (cf.load_config, cf.ConfigError),
    }
    out = {}
    for name, write in writers.items():
        path = root / f"valid.{name}"
        write(str(path))
        out[name] = (*readers[name], path.read_bytes())
    return out


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sc, "POINTS_PER_OBJECT", 3)  # a small scene file
        return root, _valid_files(root)


@st.composite
def damage(draw, data):
    """The bytes of a valid file after one kind of damage."""
    kind = draw(st.sampled_from(["truncate", "flip", "header", "trailing"]))
    buf = bytearray(data)
    if kind == "truncate":
        return bytes(buf[: draw(st.integers(0, len(buf) - 1))])
    if kind == "flip":
        for pos in draw(st.lists(st.integers(0, len(buf) - 1), min_size=1, max_size=4)):
            buf[pos] ^= draw(st.integers(1, 255))
        return bytes(buf)
    if kind == "header":
        start = draw(st.integers(0, min(HEADER_BYTES, len(buf)) - 1))
        patch = draw(st.binary(min_size=1, max_size=12))
        buf[start : start + len(patch)] = patch
        return bytes(buf)
    return bytes(buf) + draw(st.binary(min_size=1, max_size=16))


@pytest.mark.parametrize("name", ["mask", "scene", "checkpoint", "config"])
def test_valid_file_loads(files, name):
    root, valid = files
    reader, _, data = valid[name]
    path = root / f"case.{name}"
    path.write_bytes(data)
    reader(str(path))


@pytest.mark.parametrize("name", ["mask", "scene", "checkpoint", "config"])
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_damaged_file_loads_or_raises_format_error(files, name, data):
    root, valid = files
    reader, error, original = valid[name]
    path = root / f"case.{name}"
    path.write_bytes(data.draw(damage(original)))
    try:
        reader(str(path))
    except error:
        pass
