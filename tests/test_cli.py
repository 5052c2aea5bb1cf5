"""End-to-end tests for the command-line interface.

A module-scoped tiny dataset and pre-training run are shared across the
classes below so that each command is exercised against real artifacts
while keeping the suite fast.
"""

import contextlib
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import querysplat.finetune as ft
import querysplat.pretrain as pt
import querysplat.scenes as sc
from querysplat import cli
from querysplat import config as cf
from querysplat.checkpoint import load_checkpoint, save_checkpoint
from querysplat.images import write_mask, write_pfm, write_ppm

TINY = {
    "seed": 0,
    "data": {
        "n_scenes": 3,
        "n_objects": 1,
        "n_views": 2,
        "image_size": [32, 32],
        "keep_rate": 0.5,
    },
    "decoder": {"queries": 16, "feature_dim": 32},
    "pretrain": {
        "total_steps": 6,
        "warmup_steps": 2,
        "checkpoint_every": 3,
        "snapshot_every": 3,
        "hflip_prob": 0.5,
    },
    "finetune": {"steps": 4, "grid": 4, "k": 4, "d_task": 16, "pe_hidden": 8},
}


def run(*argv):
    return cli.main([str(a) for a in argv])


def tree_bytes(root):
    """Map of relative path -> file bytes for a directory tree."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


def read_csv_lines(path):
    with open(path) as f:
        return f.read().splitlines()


def pfm_depth(path, width, height):
    """A render's depth map: the PFM's fixed header is checked and its
    bottom-up little-endian float32 payload decoded in place."""
    data = pathlib.Path(path).read_bytes()
    header = f"Pf\n{width} {height}\n-1.0\n".encode("ascii")
    assert data[: len(header)] == header
    return np.frombuffer(data, "<f4", offset=len(header)).reshape(height, width)[::-1]


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliws")
    cfg_path = root / "tiny.json"
    cfg_path.write_text(json.dumps(TINY))
    return root, str(cfg_path)


@pytest.fixture(scope="module")
def dataset(ws):
    root, cfg = ws
    out = root / "data"
    assert run("gen-data", "--config", cfg, "--out-dir", out) == 0
    return str(out)


@pytest.fixture(scope="module")
def pretrained(ws, dataset):
    root, cfg = ws
    out = root / "pre"
    code = run("pretrain", "--config", cfg, "--data", dataset, "--out-dir", out)
    assert code == 0
    return str(out)


@pytest.fixture(scope="module")
def finetuned(ws, dataset, pretrained):
    root, cfg = ws
    out = root / "fin"
    code = run(
        "finetune", "--config", cfg, "--data", dataset,
        "--pretrained", os.path.join(pretrained, "model.ckpt"), "--out-dir", out,
    )
    assert code == 0
    return str(out)


class TestUsageAndExitCodes:
    def test_no_command_is_a_usage_error(self):
        assert run() == 1

    def test_unknown_command(self):
        assert run("frobnicate") == 1

    def test_unknown_flag(self):
        assert run("gen-data", "--no-such-flag") == 1

    def test_help_exits_zero(self):
        assert run("--help") == 0

    def test_subcommand_help_exits_zero(self):
        assert run("pretrain", "--help") == 0

    def test_malformed_config_key_is_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"data": {"foo": 1}}))
        assert run("gen-data", "--config", bad, "--out-dir", tmp_path / "o") == 1
        assert "data.foo" in capsys.readouterr().err

    @pytest.mark.parametrize("document, key", [
        ({"render": {"alpha_clamp": 0.5}}, "render"),
        ({"decoder": {"n_levels": 3}}, "decoder.n_levels"),
    ])
    def test_removed_config_key_is_unknown(self, tmp_path, capsys, document, key):
        old = tmp_path / "old.json"
        old.write_text(json.dumps(document))
        assert run("pretrain", "--config", old, "--dry-run") == 1
        assert f"error: unknown config key: {key}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("document, key", [
        ({"data": {"n_scenes": "four"}}, "data.n_scenes"),
        ({"decoder": {"n_heads": [4]}}, "decoder.n_heads"),
        ({"finetune": {"use_interaction": "no"}}, "finetune.use_interaction"),
        ({"pretrain": {"peak_lr": "x"}}, "pretrain.peak_lr"),
        ({"pretrain": {"hflip_prob": 7}}, "pretrain.hflip_prob"),
        ({"pretrain": {"peak_lr": -1}}, "pretrain.peak_lr"),
        ({"pretrain": {"weight_decay": float("nan")}}, "pretrain.weight_decay"),
        ({"pretrain": {"checkpoint_every": -5}}, "pretrain.checkpoint_every"),
        ({"finetune": {"grid": "x"}}, "finetune.grid"),
        ({"finetune": {"lr": "fast"}}, "finetune.lr"),
        ({"seed": "one"}, "seed"),
        ({"out_dir": 5}, "out_dir"),
        ({"data": {"n_scenes": 2.7}}, "data.n_scenes"),
        ({"data": {"n_scenes": True}}, "data.n_scenes"),
        ({"finetune": {"k": 2.5}}, "finetune.k"),
        ({"decoder": {"queries": "64"}}, "decoder.queries"),
        ({"decoder": {"voxel_size": "0.1"}}, "decoder.voxel_size"),
        ({"seed": 1.9}, "seed"),
        ({"finetune": {"alpha_thresh": True}}, "finetune.alpha_thresh"),
        ({"data": {"bounds": "x"}}, "data.bounds"),
        ({"data": {"bounds": [[1, 1, 1], [-1, -1, -1]]}}, "data.bounds"),
        ({"pretrain": {"warmup_steps": -5}}, "pretrain.warmup_steps"),
    ])
    def test_mistyped_config_value_is_named(self, tmp_path, capsys, document, key):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document))
        assert run("pretrain", "--config", bad, "--dry-run") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {key} must be "), err

    def test_mistyped_out_dir_stops_gen_data_before_any_write(self, tmp_path, capsys,
                                                              monkeypatch):
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"out_dir": 5}))
        assert run("gen-data", "--config", bad) == 1
        assert capsys.readouterr().err == "error: out_dir must be a non-empty string, got 5\n"

    def test_deeply_nested_config_is_not_valid_json(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text('{"data":' + "[" * 200_000 + "]" * 200_000 + "}")
        assert run("gen-data", "--config", deep, "--out-dir", tmp_path / "o") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith(f"error: config file {deep} is not valid JSON: ")

    @pytest.mark.parametrize("seed, n_scenes", [(2**64, 1), (2**64 - 1, 2), (2**70, 3)])
    def test_seed_past_the_scene_files_uint64_is_refused(self, tmp_path, capsys,
                                                         seed, n_scenes):
        out = tmp_path / "o"
        assert run("gen-data", "--seed", seed, "--n-scenes", n_scenes, "--out-dir", out) == 1
        assert capsys.readouterr().err == (
            f"error: seed + data.n_scenes - 1 must be below 2**64, got {seed} + {n_scenes} - 1\n"
        )
        assert not out.exists()  # refused before any write

    def test_seed_env_past_the_scene_files_uint64_is_refused(self, tmp_path, capsys,
                                                             monkeypatch):
        monkeypatch.setenv("SQS_SEED", str(2**64))
        out = tmp_path / "o"
        assert run("gen-data", "--n-scenes", 1, "--out-dir", out) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: seed "), err
        assert not out.exists()

    def test_pretrain_requires_data(self, ws, tmp_path):
        _, cfg = ws
        assert run("pretrain", "--config", cfg, "--out-dir", tmp_path / "o") == 1

    def test_missing_dataset_rejected(self, ws, tmp_path):
        _, cfg = ws
        code = run(
            "pretrain", "--config", cfg, "--data", tmp_path / "absent",
            "--out-dir", tmp_path / "o",
        )
        assert code == 1

    def test_missing_checkpoint_rejected(self, ws, dataset, tmp_path):
        _, cfg = ws
        code = run(
            "render", "--config", cfg, "--checkpoint", tmp_path / "no.ckpt",
            "--scene", os.path.join(dataset, "scenes", "0000"),
            "--out-dir", tmp_path / "o",
        )
        assert code == 1

    def test_dry_run_validates_and_exits_zero(self, ws, capsys):
        _, cfg = ws
        assert run("pretrain", "--config", cfg, "--dry-run") == 0
        assert "config ok" in capsys.readouterr().out

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, ws, capsys, threads):
        _, cfg = ws
        assert run("pretrain", "--config", cfg, "--dry-run", "--threads", threads) == 1
        err = capsys.readouterr().err
        assert err == f"error: --threads must be >= 1, got {threads}\n"

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SQS_SEED", "5")
        seedless = {k: v for k, v in TINY.items() if k != "seed"}
        cfg = tmp_path / "seedless.json"
        cfg.write_text(json.dumps(seedless))
        out = tmp_path / "seeded"
        code = run(
            "gen-data", "--config", cfg, "--out-dir", out, "--n-scenes", 1
        )
        assert code == 0
        resolved = json.loads((out / "config.resolved").read_text())
        assert resolved["seed"] == 5


class TestOSErrors:
    """A path of the wrong kind exits 1 with a one-line error."""

    def check(self, capsys, *argv):
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_checkpoint_is_a_directory(self, ws, dataset, tmp_path, capsys):
        _, cfg = ws
        self.check(capsys, "render", "--config", cfg, "--checkpoint", tmp_path,
                   "--scene", os.path.join(dataset, "scenes", "0000"),
                   "--out-dir", tmp_path / "o")

    def test_config_is_a_directory(self, tmp_path, capsys):
        self.check(capsys, "pretrain", "--config", tmp_path, "--dry-run")

    def test_out_dir_is_a_file(self, ws, tmp_path, capsys):
        _, cfg = ws
        path = tmp_path / "taken"
        path.write_text("")
        self.check(capsys, "gen-data", "--config", cfg, "--out-dir", path)


class TestForgedHeaders:
    """A forged header exits 1, naming what is wrong with it."""

    def forged_copy(self, dataset, tmp_path, name, offset, value):
        src = os.path.join(dataset, "scenes", "0000")
        dst = tmp_path / "data" / "scenes" / "0000"
        os.makedirs(dst)
        for f in os.listdir(src):
            with open(os.path.join(src, f), "rb") as fh:
                data = bytearray(fh.read())
            if f == name:
                data[offset : offset + len(value)] = value
            (dst / f).write_bytes(bytes(data))
        return tmp_path / "data"

    def test_scene_gaussian_count(self, ws, dataset, tmp_path, capsys):
        _, cfg = ws
        data = self.forged_copy(dataset, tmp_path, "scene.bin", 8,
                                np.uint32(2**32 - 1).tobytes())
        code = run("pretrain", "--config", cfg, "--data", data, "--out-dir", tmp_path / "o")
        assert code == 1
        assert "gaussian records needs" in capsys.readouterr().err

    def test_scene_non_finite_bounds(self, ws, dataset, tmp_path, capsys):
        _, cfg = ws
        data = self.forged_copy(dataset, tmp_path, "scene.bin", 16,
                                np.float64(-np.inf).tobytes())  # xmin
        code = run("pretrain", "--config", cfg, "--data", data, "--out-dir", tmp_path / "o")
        assert code == 1
        assert "degenerate bounds" in capsys.readouterr().err

    def test_mask_size(self, ws, dataset, tmp_path, capsys):
        _, cfg = ws
        data = self.forged_copy(dataset, tmp_path, "mask1.bin", 8,
                                np.uint32(2**32 - 1).tobytes() * 2)
        code = run("pretrain", "--config", cfg, "--data", data, "--out-dir", tmp_path / "o")
        assert code == 1
        assert "mask data needs" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pretrain", "finetune", "eval"])
    def test_mask_of_another_size_is_named(self, ws, dataset, pretrained, finetuned,
                                           tmp_path, capsys, command):
        _, cfg = ws
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        bad = data / "scenes" / "0000" / "mask1.bin"
        write_mask(str(bad), np.ones((16, 16), dtype=bool))
        models = {
            "pretrain": [],
            "finetune": ["--pretrained", os.path.join(pretrained, "model.ckpt")],
            "eval": ["--pretrained", os.path.join(pretrained, "model.ckpt"),
                     "--task", os.path.join(finetuned, "task.ckpt")],
        }[command]
        assert run(command, "--config", cfg, "--data", data, "--out-dir", tmp_path / "o",
                   *models) == 1
        one_error_line(capsys, str(bad), "(16, 16)", "(32, 32)")

    def test_checkpoint_shape(self, ws, dataset, pretrained, tmp_path, capsys):
        _, cfg = ws
        with open(os.path.join(pretrained, "model.ckpt"), "rb") as fh:
            ckpt = bytearray(fh.read())
        (name_len,) = np.frombuffer(ckpt[8:12], "<u4")
        shape_at = 8 + 4 + int(name_len) + 4
        ckpt[shape_at : shape_at + 4] = np.uint32(2**32 - 1).tobytes()
        forged = tmp_path / "forged.ckpt"
        forged.write_bytes(bytes(ckpt))
        code = run("render", "--config", cfg, "--checkpoint", forged,
                   "--scene", os.path.join(dataset, "scenes", "0000"),
                   "--out-dir", tmp_path / "o")
        assert code == 1
        assert "needs" in capsys.readouterr().err


# Arguments each command requires besides its override flags, and a valid
# text for each kind a flag parses, with the value it must set.
REQUIRED = {
    "render": ["--checkpoint", "c", "--scene", "s"],
    "finetune": ["--data", "d", "--pretrained", "p"],
    "eval": ["--data", "d", "--pretrained", "p", "--task", "t"],
}
VALID_TEXT = {"an integer": ("3", 3), "a finite number": ("0.5", 0.5),
              "a non-empty string": ("x", "x")}
OVERRIDES = [(command, flag, leaf) for command in cli.COMMANDS
             for flag, leaf in {**cli.COMMON_FLAGS, **cli.COMMAND_FLAGS.get(command, {})}.items()]
ALL_FLAGS = {flag for _, flag, _ in OVERRIDES}


def kind_of(leaf):
    return cf.SCHEMA[leaf][0][1]


def refused_by_the_parser(*argv):
    """The parser refuses argv, so the command never runs and main exits 1."""
    with pytest.raises(SystemExit) as e:
        cli.build_parser().parse_args(list(argv))
    assert e.value.code == 2
    return run(*argv) == 1


class TestOverrideFlags:
    """Each override flag sets exactly its leaf, parsed as the leaf's kind."""

    @pytest.mark.parametrize("command, flag, leaf", OVERRIDES)
    def test_flag_sets_exactly_its_leaf(self, command, flag, leaf):
        if flag.startswith("--no-"):
            argv, want = [flag], False
        else:
            text, want = VALID_TEXT[kind_of(leaf)]
            argv = [flag, text]
        args = cli.build_parser().parse_args([command, *REQUIRED.get(command, []), *argv])
        got = cli._collect_overrides(args)
        assert got == {leaf: want} and type(got[leaf]) is type(want)

    @pytest.mark.parametrize("command, flag, text", [
        (command, flag, text) for command, flag, leaf in OVERRIDES
        for text in {"an integer": ["2.5", "x"], "a finite number": ["x"]}.get(kind_of(leaf), [])
    ])
    def test_value_of_another_kind_exits_1(self, command, flag, text):
        assert refused_by_the_parser(command, *REQUIRED.get(command, []), flag, text)

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command in cli.COMMANDS for flag in sorted(ALL_FLAGS)
        if (command, flag) not in {(c, f) for c, f, _ in OVERRIDES}
    ])
    def test_flag_of_another_command_exits_1(self, command, flag):
        value = [] if flag.startswith("--no-") else ["3"]
        assert refused_by_the_parser(command, *REQUIRED.get(command, []), flag, *value)


class TestGenData:
    def test_writes_expected_layout(self, dataset):
        scenes = sorted(os.listdir(os.path.join(dataset, "scenes")))
        assert scenes == ["0000", "0001", "0002"]
        assert os.path.exists(os.path.join(dataset, "config.resolved"))
        for d in scenes:
            root = os.path.join(dataset, "scenes", d)
            names = sorted(os.listdir(root))
            assert names == [
                "mask0.bin", "mask1.bin", "scene.bin",
                "view0.pfm", "view0.ppm", "view1.pfm", "view1.ppm",
            ]

    def test_n_scenes_override(self, ws, tmp_path):
        _, cfg = ws
        out = tmp_path / "ten"
        assert run("gen-data", "--config", cfg, "--out-dir", out,
                   "--n-scenes", 10) == 0
        assert len(os.listdir(out / "scenes")) == 10

    def test_rejects_existing_data_without_force(self, ws, dataset):
        _, cfg = ws
        assert run("gen-data", "--config", cfg, "--out-dir", dataset) == 1

    def test_same_seed_twice_is_byte_identical(self, ws, dataset, tmp_path):
        # config.resolved echoes out_dir, so tree comparisons across output
        # directories cover the scenes/ payload; the in-place --force rerun
        # below covers the whole tree.
        _, cfg = ws
        again = tmp_path / "again"
        assert run("gen-data", "--config", cfg, "--out-dir", again) == 0
        assert tree_bytes(again / "scenes") == tree_bytes(
            os.path.join(dataset, "scenes")
        )
        before = tree_bytes(again)
        assert run("gen-data", "--config", cfg, "--out-dir", again,
                   "--force", "--threads", 8) == 0
        assert tree_bytes(again) == before

    def test_force_leaves_no_scene_or_view_of_the_old_dataset(self, ws, tmp_path):
        # A smaller dataset written over a larger one: fewer scenes, fewer views.
        _, cfg = ws
        out = tmp_path / "shrink"
        assert run("gen-data", "--config", cfg, "--out-dir", out) == 0
        one_view = tmp_path / "one_view.json"
        one_view.write_text(json.dumps({**TINY, "data": {**TINY["data"], "n_views": 1}}))
        assert run("gen-data", "--config", one_view, "--out-dir", out,
                   "--n-scenes", 1, "--force") == 0
        assert sorted(os.listdir(out / "scenes")) == ["0000"]
        assert sorted(os.listdir(out / "scenes" / "0000")) == [
            "mask0.bin", "scene.bin", "view0.pfm", "view0.ppm",
        ]


    def test_failed_write_leaves_no_dataset(self, ws, dataset, tmp_path, capsys,
                                            monkeypatch):
        # The dataset appears whole or not at all; a plain rerun then succeeds.
        _, cfg = ws
        out = tmp_path / "failed"
        write_mask = cli.write_mask

        def failing_write_mask(path, mask):
            if os.path.basename(os.path.dirname(path)) == "0001":
                raise OSError("no space left on device")
            write_mask(path, mask)

        monkeypatch.setattr(cli, "write_mask", failing_write_mask)
        assert run("gen-data", "--config", cfg, "--out-dir", out) == 1
        assert capsys.readouterr().err == "error: no space left on device\n"
        assert not (out / "scenes").exists()
        monkeypatch.undo()
        assert run("gen-data", "--config", cfg, "--out-dir", out) == 0
        assert not (out / "scenes.partial").exists()
        assert tree_bytes(out / "scenes") == tree_bytes(os.path.join(dataset, "scenes"))

    def test_stdout_names_the_final_scene_paths(self, ws, tmp_path, capsys):
        _, cfg = ws
        out = tmp_path / "named"
        assert run("gen-data", "--config", cfg, "--out-dir", out, "--n-scenes", 1) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith(f"-> {out / 'scenes' / '0000'}")
        assert lines[1] == f"wrote 1 scenes under {out / 'scenes'}"


class TestPretrain:
    def test_outputs(self, pretrained):
        lines = read_csv_lines(os.path.join(pretrained, "loss.csv"))
        assert lines[0] == "step,loss,lr"
        assert len(lines) == 7
        losses = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(np.isfinite(v) and v > 0 for v in losses)
        state = load_checkpoint(os.path.join(pretrained, "model.ckpt"))
        assert int(state["opt.step"]) == 6
        for step in (3, 6):
            tagged = os.path.join(pretrained, "checkpoints", f"step{step:06d}.ckpt")
            assert os.path.exists(tagged)

    def test_snapshots_written(self, pretrained):
        for step in (3, 6):
            snap = os.path.join(pretrained, "snapshots", f"step{step:06d}")
            assert sorted(os.listdir(snap)) == [
                "view0.pfm", "view0.ppm", "view1.pfm", "view1.ppm",
            ]

    def test_rerun_is_byte_identical_at_any_threads(self, ws, dataset, pretrained,
                                                    tmp_path):
        _, cfg = ws
        for threads in (1, 8):
            out = tmp_path / f"t{threads}"
            code = run("pretrain", "--config", cfg, "--data", dataset,
                       "--out-dir", out, "--threads", threads)
            assert code == 0
            for name in ("loss.csv", "model.ckpt"):
                with open(os.path.join(pretrained, name), "rb") as f:
                    want = f.read()
                with open(out / name, "rb") as f:
                    assert f.read() == want, f"{name} differs at --threads {threads}"

    def test_resume_reproduces_uninterrupted_run(self, ws, dataset, pretrained,
                                                 tmp_path):
        _, cfg = ws
        mid = os.path.join(pretrained, "checkpoints", "step000003.ckpt")
        out = tmp_path / "resumed"
        code = run("pretrain", "--config", cfg, "--data", dataset,
                   "--out-dir", out, "--resume", mid)
        assert code == 0
        full = read_csv_lines(os.path.join(pretrained, "loss.csv"))
        resumed = read_csv_lines(str(out / "loss.csv"))
        assert resumed[0] == "step,loss,lr"
        assert resumed[1:] == full[4:]  # steps 4..6, byte for byte
        with open(os.path.join(pretrained, "model.ckpt"), "rb") as f:
            want = f.read()
        with open(out / "model.ckpt", "rb") as f:
            assert f.read() == want

    def test_resume_into_own_out_dir_keeps_the_log(self, ws, dataset, pretrained,
                                                   tmp_path):
        # The run's own directory holds the log of all 6 steps, with the
        # last row cut short as by a kill; resuming from step 3 must leave
        # the uninterrupted run's loss.csv, byte for byte.
        _, cfg = ws
        out = tmp_path / "again"
        os.makedirs(out)
        with open(os.path.join(pretrained, "loss.csv"), "rb") as f:
            full = f.read()
        (out / "loss.csv").write_bytes(full[:-5])
        mid = os.path.join(pretrained, "checkpoints", "step000003.ckpt")
        code = run("pretrain", "--config", cfg, "--data", dataset,
                   "--out-dir", out, "--resume", mid)
        assert code == 0
        assert (out / "loss.csv").read_bytes() == full

    def test_hundred_step_smoke_run_decreases_loss(self, ws, dataset, tmp_path):
        _, cfg = ws
        out = tmp_path / "smoke"
        start = time.monotonic()
        code = run("pretrain", "--config", cfg, "--data", dataset,
                   "--out-dir", out, "--queries", 64, "--steps", 100)
        elapsed = time.monotonic() - start
        assert code == 0
        assert elapsed < 60.0
        lines = read_csv_lines(str(out / "loss.csv"))[1:]
        losses = [float(line.split(",")[1]) for line in lines]
        assert len(losses) == 100
        assert np.mean(losses[-10:]) < np.mean(losses[:10])


def one_error_line(capsys, *needles):
    """The command's stderr is one line holding every needle."""
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    for needle in needles:
        assert needle in lines[0]
    return lines[0]


class TestFinishedAndForgedCheckpoints:
    """Resuming at or past a run's end, and checkpoint records that no
    run writes, end in one line."""

    def test_resume_at_the_last_step_changes_nothing(self, ws, dataset, pretrained,
                                                     tmp_path, capsys):
        _, cfg = ws
        out = tmp_path / "done"
        shutil.copytree(pretrained, out)

        def stamped():
            return {p: (b, os.stat(out / p).st_mtime_ns) for p, b in tree_bytes(out).items()}

        before = stamped()
        assert run("pretrain", "--config", cfg, "--data", dataset, "--out-dir", out,
                   "--resume", out / "model.ckpt") == 0
        assert "nothing left to run" in capsys.readouterr().out
        assert stamped() == before

    def test_resume_past_the_last_step_names_both(self, ws, dataset, pretrained,
                                                  tmp_path, capsys):
        _, cfg = ws
        out = tmp_path / "past"
        assert run("pretrain", "--config", cfg, "--data", dataset, "--out-dir", out,
                   "--resume", os.path.join(pretrained, "model.ckpt"),
                   "--steps", 4) == 1
        one_error_line(capsys, "step 6", "last step 4")
        assert not out.exists()

    def test_resume_checkpoint_of_another_config_is_named(self, ws, dataset, pretrained,
                                                          tmp_path, capsys):
        _, cfg = ws
        out = tmp_path / "out"
        assert run("pretrain", "--config", cfg, "--data", dataset, "--out-dir", out,
                   "--queries", 32,
                   "--resume", os.path.join(pretrained, "checkpoints", "step000003.ckpt")) == 1
        one_error_line(capsys, "error: resume checkpoint does not match the config: ",
                       "'queries.anchors'")
        assert not (out / "model.ckpt").exists()

    @pytest.mark.parametrize("step", [2.5, 1e300, float("nan"), -5.0])
    def test_forged_step_is_refused(self, ws, dataset, pretrained, tmp_path, capsys,
                                    step):
        _, cfg = ws
        state = load_checkpoint(os.path.join(pretrained, "checkpoints", "step000003.ckpt"))
        state["opt.step"] = np.array(step)
        forged = tmp_path / "forged.ckpt"
        save_checkpoint(str(forged), state)
        assert run("pretrain", "--config", cfg, "--data", dataset,
                   "--out-dir", tmp_path / "out", "--resume", forged) == 1
        one_error_line(capsys, "'opt.step'")

    @pytest.mark.parametrize("command", ["render", "finetune", "eval"])
    def test_nan_parameter_is_refused(self, ws, dataset, pretrained, finetuned,
                                      tmp_path, capsys, command):
        _, cfg = ws
        state = load_checkpoint(os.path.join(pretrained, "model.ckpt"))
        state["queries.anchors"][0, 0] = np.nan
        forged = tmp_path / "nan.ckpt"
        save_checkpoint(str(forged), state)
        args = {
            "render": ["--checkpoint", forged, "--scene", os.path.join(dataset, "scenes", "0000")],
            "finetune": ["--data", dataset, "--pretrained", forged],
            "eval": ["--data", dataset, "--pretrained", forged,
                     "--task", os.path.join(finetuned, "task.ckpt")],
        }[command]
        out = tmp_path / "out"
        assert run(command, "--config", cfg, "--out-dir", out, *args) == 1
        one_error_line(capsys, "non-finite value in 'queries.anchors'")


# What a forged training checkpoint holds in place of a value: a non-finite
# entry in any record, or an opt.step that no run writes.
NON_FINITE = [np.nan, np.inf, -np.inf]
FORGED_STEPS = [2.5, 1e300, np.nan, np.inf, -5.0, 2.0**63]


def finite_outputs(command, out):
    """Whether a command that exited 0 left only finite numbers behind."""
    if command == "render":
        return all(
            np.isfinite(pfm_depth(out / "render" / name, *TINY["data"]["image_size"])).all()
            for name in os.listdir(out / "render") if name.endswith(".pfm")
        )
    csv_name, ckpt = {
        "finetune": ("metrics.csv", "task.ckpt"),
        "eval": ("eval.csv", None),
        "pretrain": ("loss.csv", "model.ckpt"),
    }[command]
    if ckpt is not None:
        load_checkpoint(str(out / ckpt))  # refuses a non-finite record
    rows = read_csv_lines(str(out / csv_name))[1:]
    return all(np.isfinite(float(v)) for row in rows for v in row.split(",")[1:])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_hostile_checkpoint_contents_end_in_one_line(ws, dataset, pretrained, finetuned,
                                                     data):
    """NaN, infinities and forged steps in a training checkpoint: every
    command exits 0 with finite outputs, or 1 or 2 with one line."""
    _, cfg = ws
    state = load_checkpoint(os.path.join(pretrained, "checkpoints", "step000003.ckpt"))
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        if data.draw(st.booleans(), label="forge opt.step"):
            state["opt.step"] = np.array(data.draw(st.sampled_from(FORGED_STEPS)))
            continue
        name = data.draw(st.sampled_from(sorted(state)), label="record")
        flat = state[name].reshape(-1)
        flat[data.draw(st.integers(0, flat.size - 1), label="entry")] = data.draw(
            st.sampled_from(NON_FINITE), label="value"
        )
    command = data.draw(st.sampled_from(["render", "finetune", "eval", "pretrain"]))
    with tempfile.TemporaryDirectory() as tmp:
        forged, out = os.path.join(tmp, "forged.ckpt"), pathlib.Path(tmp) / "out"
        save_checkpoint(forged, state)
        args = {
            "render": ["--checkpoint", forged, "--scene", os.path.join(dataset, "scenes", "0000")],
            "finetune": ["--data", dataset, "--pretrained", forged],
            "eval": ["--data", dataset, "--pretrained", forged,
                     "--task", os.path.join(finetuned, "task.ckpt")],
            "pretrain": ["--data", dataset, "--resume", forged],
        }[command]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(command, "--config", cfg, "--out-dir", out, *args)
        if code == 0:
            assert finite_outputs(command, out)
        else:
            lines = err.getvalue().strip().splitlines()
            assert code in (1, 2) and len(lines) == 1, (code, lines)
            assert lines[0].startswith(("error: ", "numeric failure: "))


class TestRender:
    def test_file_count_and_rerun_identical(self, ws, dataset, pretrained,
                                            tmp_path, capsys):
        _, cfg = ws
        ckpt = os.path.join(pretrained, "model.ckpt")
        scene = os.path.join(dataset, "scenes", "0000")
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run("render", "--config", cfg, "--checkpoint", ckpt,
                       "--scene", scene, "--out-dir", out) == 0
            outs.append(out)
        assert "wrote 8 files" in capsys.readouterr().out
        files = sorted(os.listdir(outs[0] / "render"))
        assert files == [
            "view0.pfm", "view0.ppm", "view0_gt.pfm", "view0_gt.ppm",
            "view1.pfm", "view1.ppm", "view1_gt.pfm", "view1_gt.ppm",
        ]
        assert tree_bytes(outs[0] / "render") == tree_bytes(outs[1] / "render")

    def test_scene_file_path_accepted(self, ws, dataset, pretrained, tmp_path):
        _, cfg = ws
        code = run(
            "render", "--config", cfg,
            "--checkpoint", os.path.join(pretrained, "model.ckpt"),
            "--scene", os.path.join(dataset, "scenes", "0001", "scene.bin"),
            "--out-dir", tmp_path / "o",
        )
        assert code == 0

    def test_untrained_model_renders_without_crashing(self, ws, dataset, tmp_path):
        _, cfg = ws
        scene = sc.load_scene(os.path.join(dataset, "scenes", "0000", "scene.bin"))
        import querysplat.config as cf
        cfg_doc = cf.load_config(cfg)
        model = pt.build_model(scene.bounds, cf.decoder_config(cfg_doc), seed=1)
        ckpt = tmp_path / "fresh.ckpt"
        save_checkpoint(str(ckpt), model.store.state_dict())
        out = tmp_path / "o"
        code = run("render", "--config", cfg, "--checkpoint", ckpt,
                   "--scene", os.path.join(dataset, "scenes", "0000"),
                   "--out-dir", out)
        assert code == 0
        depth = pfm_depth(out / "render" / "view0.pfm", *TINY["data"]["image_size"])
        assert np.all(np.isfinite(depth))

    def test_non_square_views_match_ground_truth_size(self, tmp_path):
        import querysplat.config as cf
        doc = dict(TINY, data=dict(TINY["data"], n_scenes=1, image_size=[64, 32]))
        cfg = tmp_path / "wide.json"
        cfg.write_text(json.dumps(doc))
        data = tmp_path / "data"
        assert run("gen-data", "--config", cfg, "--out-dir", data) == 0
        scene = sc.load_scene(str(data / "scenes" / "0000" / "scene.bin"))
        model = pt.build_model(
            scene.bounds, cf.decoder_config(cf.load_config(str(cfg))), seed=1
        )
        ckpt = tmp_path / "fresh.ckpt"
        save_checkpoint(str(ckpt), model.store.state_dict())
        out = tmp_path / "o"
        assert run("render", "--config", cfg, "--checkpoint", ckpt,
                   "--scene", data / "scenes" / "0000", "--out-dir", out) == 0

        def header(name):
            with open(out / "render" / name, "rb") as f:
                return f.read(len(b"P6\n64 32\n"))

        assert header("view0_gt.ppm") == b"P6\n64 32\n"
        assert header("view0.ppm") == header("view0_gt.ppm")
        pfm_depth(out / "render" / "view0.pfm", 64, 32)  # a 64x32 header and payload

    def test_mismatched_checkpoint_dims_rejected(self, ws, dataset, pretrained,
                                                 tmp_path, capsys):
        _, cfg = ws
        code = run(
            "render", "--config", cfg, "--queries", 8,
            "--checkpoint", os.path.join(pretrained, "model.ckpt"),
            "--scene", os.path.join(dataset, "scenes", "0000"),
            "--out-dir", tmp_path / "o",
        )
        assert code == 1
        assert "does not match" in capsys.readouterr().err


class TestFinetune:
    def test_outputs(self, finetuned):
        lines = read_csv_lines(os.path.join(finetuned, "metrics.csv"))
        assert lines[0] == "step,loss,iou_occupied,miou"
        assert len(lines) == 5
        state = load_checkpoint(os.path.join(finetuned, "task.ckpt"))
        assert any(name.startswith("task.interact") for name in state)

    def test_train_fraction_uses_ceil(self, ws, dataset, pretrained, tmp_path,
                                      capsys):
        _, cfg = ws
        ckpt = os.path.join(pretrained, "model.ckpt")
        for fraction, n in ((0.5, 2), (0.25, 1)):
            out = tmp_path / f"f{n}"
            code = run("finetune", "--config", cfg, "--data", dataset,
                       "--pretrained", ckpt, "--out-dir", out,
                       "--train-fraction", fraction, "--steps", 1)
            assert code == 0
            assert f"fine-tuning on {n} scene(s)" in capsys.readouterr().out

    def test_no_interaction_ablation_runs(self, ws, dataset, pretrained, tmp_path):
        _, cfg = ws
        out = tmp_path / "noint"
        code = run("finetune", "--config", cfg, "--data", dataset,
                   "--pretrained", os.path.join(pretrained, "model.ckpt"),
                   "--out-dir", out, "--no-interaction")
        assert code == 0
        lines = read_csv_lines(str(out / "metrics.csv"))
        assert len(lines) == 5
        assert all(np.isfinite(float(line.split(",")[1])) for line in lines[1:])

    def test_diverging_run_exits_2_without_a_checkpoint(self, ws, dataset, pretrained,
                                                         tmp_path, capsys):
        hot = tmp_path / "hot.json"
        hot.write_text(json.dumps(dict(TINY, finetune=dict(TINY["finetune"], lr=1e300))))
        out = tmp_path / "hot"
        code = run("finetune", "--config", hot, "--data", dataset,
                   "--pretrained", os.path.join(pretrained, "model.ckpt"), "--out-dir", out)
        assert code == 2
        one_error_line(capsys, "numeric failure: ", "non-finite loss")
        assert not (out / "task.ckpt").exists()

    def test_rerun_is_byte_identical(self, ws, dataset, pretrained, finetuned,
                                     tmp_path):
        _, cfg = ws
        out = tmp_path / "fin2"
        code = run("finetune", "--config", cfg, "--data", dataset,
                   "--pretrained", os.path.join(pretrained, "model.ckpt"),
                   "--out-dir", out, "--threads", 4)
        assert code == 0
        for name in ("metrics.csv", "task.ckpt"):
            with open(os.path.join(finetuned, name), "rb") as f:
                want = f.read()
            with open(out / name, "rb") as f:
                assert f.read() == want


class TestEval:
    def test_holdout_split_and_mean_row(self, ws, dataset, pretrained, finetuned,
                                        tmp_path, capsys, monkeypatch):
        _, cfg = ws
        baked = []
        bake = sc.bake_ground_truth
        monkeypatch.setattr(
            sc, "bake_ground_truth", lambda scene: baked.append(scene) or bake(scene)
        )
        out = tmp_path / "ev"
        code = run("eval", "--config", cfg, "--data", dataset,
                   "--pretrained", os.path.join(pretrained, "model.ckpt"),
                   "--task", os.path.join(finetuned, "task.ckpt"),
                   "--out-dir", out, "--train-fraction", 0.5)
        assert code == 0
        assert "evaluated 1 scene(s)" in capsys.readouterr().out
        assert len(baked) == 1  # only the scored scene, not the training ones
        lines = read_csv_lines(str(out / "eval.csv"))
        assert lines[0] == "scene,iou_occupied,miou"
        assert len(lines) == 3  # one held-out scene plus the mean row
        scene_row = lines[1].split(",")
        mean_row = lines[2].split(",")
        assert mean_row[0] == "mean"
        assert float(mean_row[2]) == float(scene_row[2])

        # The held-out scene is the dataset's last; scoring the full set
        # gives it the same row, byte for byte.
        full = tmp_path / "full"
        code = run("eval", "--config", cfg, "--data", dataset,
                   "--pretrained", os.path.join(pretrained, "model.ckpt"),
                   "--task", os.path.join(finetuned, "task.ckpt"),
                   "--out-dir", full)
        assert code == 0
        assert len(baked) == 4
        full_row = read_csv_lines(str(full / "eval.csv"))[3].split(",")
        assert full_row[0] == "0002"
        assert full_row[1:] == scene_row[1:]

    def test_full_set_scored_when_nothing_held_out(self, ws, dataset, pretrained,
                                                   finetuned, tmp_path):
        _, cfg = ws
        out = tmp_path / "ev"
        code = run("eval", "--config", cfg, "--data", dataset,
                   "--pretrained", os.path.join(pretrained, "model.ckpt"),
                   "--task", os.path.join(finetuned, "task.ckpt"),
                   "--out-dir", out)
        assert code == 0
        lines = read_csv_lines(str(out / "eval.csv"))
        assert len(lines) == 5  # header, three scenes, mean

    def test_says_when_it_scores_training_scenes(self, ws, dataset, pretrained,
                                                 finetuned, tmp_path, capsys):
        root, cfg = ws
        ckpts = ("--pretrained", os.path.join(pretrained, "model.ckpt"),
                 "--task", os.path.join(finetuned, "task.ckpt"))
        all_train = root / "all_train.json"
        all_train.write_text(json.dumps(dict(TINY, finetune=dict(TINY["finetune"],
                                                                 train_fraction=1.0))))
        assert run("eval", "--config", all_train, "--data", dataset, *ckpts,
                   "--out-dir", tmp_path / "all") == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "no held-out scene: scoring the 3 training scene(s)"
        assert out[1].startswith("evaluated 3 scene(s)")
        assert len(read_csv_lines(str(tmp_path / "all" / "eval.csv"))) == 5

        assert run("eval", "--config", cfg, "--data", dataset, *ckpts,
                   "--out-dir", tmp_path / "held", "--train-fraction", 0.5) == 0
        assert "held-out" not in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, ws, dataset, pretrained, finetuned,
                                     tmp_path):
        _, cfg = ws
        raw = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            code = run("eval", "--config", cfg, "--data", dataset,
                       "--pretrained", os.path.join(pretrained, "model.ckpt"),
                       "--task", os.path.join(finetuned, "task.ckpt"),
                       "--out-dir", out)
            assert code == 0
            with open(out / "eval.csv", "rb") as f:
                raw.append(f.read())
        assert raw[0] == raw[1]

    def test_perfect_predictor_scores_miou_one(self, ws, pretrained, tmp_path):
        """A scene with no occupied voxels plus a fresh task head (which
        predicts all-empty) is a perfect predictor end to end."""
        _, cfg = ws
        base = sc.load_scene(
            os.path.join(pretrained, "..", "data", "scenes", "0000", "scene.bin")
        )
        faint = base.gaussians.copy()
        faint.opacity = 0.3
        scene = sc.Scene(
            gaussians=faint, cameras=base.cameras, bounds=base.bounds, seed=0
        )
        data = tmp_path / "data"
        d = data / "scenes" / "0000"
        os.makedirs(d)
        sc.save_scene(str(d / "scene.bin"), scene)
        sample = sc.sparsify_depth(sc.bake_ground_truth(scene), 0.5, seed=0)
        for k in range(sample.n_views):
            write_ppm(str(d / f"view{k}.ppm"), sample.rgb[k])
            write_pfm(str(d / f"view{k}.pfm"), sample.dense_depth[k])
            write_mask(str(d / f"mask{k}.bin"), sample.valid_mask[k])

        task = ft.build_task_model(
            scene.bounds, grid=4,
            cfg=ft.InteractionConfig(k=4, alpha_thresh=0.05, pe_hidden=8),
            d_task=16, d_pre=32, seed=0,
        )
        task_ckpt = tmp_path / "task.ckpt"
        save_checkpoint(str(task_ckpt), task.store.state_dict())

        out = tmp_path / "ev"
        code = run("eval", "--config", cfg, "--data", data,
                   "--pretrained", os.path.join(pretrained, "model.ckpt"),
                   "--task", task_ckpt, "--out-dir", out)
        assert code == 0
        lines = read_csv_lines(str(out / "eval.csv"))
        assert float(lines[1].split(",")[2]) == 1.0


class TestModelsFilledFromACheckpoint:
    """`render`, `finetune`, `eval` and `pretrain --resume` build the models
    a checkpoint fills without drawing initial values; what they hold after
    the load is what a seeded build plus `load_state_dict` holds."""

    @staticmethod
    def assert_same_parameters(got, want):
        assert got.names() == want.names()
        for name, p in want.items():
            assert got[name].data.dtype == p.data.dtype == np.float64
            assert got[name].data.shape == p.data.shape
            assert got[name].data.tobytes() == p.data.tobytes(), name

    @pytest.fixture
    def setting(self, ws, dataset, pretrained, finetuned):
        import querysplat.config as cf
        _, cfg = ws
        doc = cf.load_config(cfg)
        scene = sc.load_scene(os.path.join(dataset, "scenes", "0000", "scene.bin"))
        return (doc, scene.bounds, os.path.join(pretrained, "model.ckpt"),
                os.path.join(finetuned, "task.ckpt"))

    def test_pretrained_model_matches_a_seeded_build(self, setting):
        import querysplat.config as cf
        doc, bounds, ckpt, _ = setting
        got = cli._load_pretrained(doc, ckpt, bounds)
        want = pt.build_model(bounds, cf.decoder_config(doc), seed=doc["seed"])
        want.store.load_state_dict(pt.model_state(load_checkpoint(ckpt)))
        self.assert_same_parameters(got.store, want.store)
        assert got.decoder_cfg == want.decoder_cfg
        assert got.bounds.tobytes() == want.bounds.tobytes()

    def test_task_model_matches_a_seeded_build(self, setting):
        doc, bounds, _, task_ckpt = setting
        got = cli._load_task(doc, task_ckpt, bounds, 32)
        want = cli._build_task(doc, bounds, 32)
        want.store.load_state_dict(load_checkpoint(task_ckpt))
        self.assert_same_parameters(got.store, want.store)
        assert got.positions.tobytes() == want.positions.tobytes()
        assert (got.grid, got.cfg) == (want.grid, want.cfg)

    def test_loading_draws_nothing(self, setting, monkeypatch):
        doc, bounds, ckpt, task_ckpt = setting

        def refuse(*args, **kwargs):
            raise AssertionError("a model filled from a checkpoint drew values")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        cli._load_pretrained(doc, ckpt, bounds)
        cli._load_task(doc, task_ckpt, bounds, 32)
        with pytest.raises(AssertionError, match="drew values"):
            cli._build_task(doc, bounds, 32)

    def test_blank_builds_keep_names_and_shapes(self, setting):
        import querysplat.config as cf
        doc, bounds, _, _ = setting
        for blank, seeded in (
            (pt.build_model(bounds, cf.decoder_config(doc), seed=None).store,
             pt.build_model(bounds, cf.decoder_config(doc), seed=0).store),
            (cli._build_task(doc, bounds, 32, from_checkpoint=True).store,
             cli._build_task(doc, bounds, 32).store),
        ):
            assert blank.names() == seeded.names()
            for name, p in seeded.items():
                assert blank[name].data.shape == p.data.shape
                assert np.all(np.isfinite(blank[name].data))

    def test_resume_builds_its_model_without_drawing(self, ws, dataset, pretrained,
                                                     tmp_path, monkeypatch):
        _, cfg = ws
        seeds = []
        build = pt.build_model

        def spy(bounds, decoder_cfg, seed):
            seeds.append(seed)
            return build(bounds, decoder_cfg, seed)

        monkeypatch.setattr(pt, "build_model", spy)
        mid = os.path.join(pretrained, "checkpoints", "step000003.ckpt")
        assert run("pretrain", "--config", cfg, "--data", dataset,
                   "--out-dir", tmp_path / "r", "--resume", mid) == 0
        assert seeds == [None]
        with open(os.path.join(pretrained, "model.ckpt"), "rb") as f:
            assert (tmp_path / "r" / "model.ckpt").read_bytes() == f.read()

    def test_mismatched_task_checkpoint_rejected(self, ws, dataset, pretrained,
                                                 finetuned, tmp_path, capsys):
        _, cfg = ws
        code = run("eval", "--config", cfg, "--data", dataset, "--grid", 3,
                   "--pretrained", os.path.join(pretrained, "model.ckpt"),
                   "--task", os.path.join(finetuned, "task.ckpt"),
                   "--out-dir", tmp_path / "o")
        assert code == 1
        err = capsys.readouterr().err
        assert "does not match" in err and "Traceback" not in err


class TestGradcheckCommand:
    def test_passes_and_lists_every_group(self, tmp_path, capsys):
        assert run("gradcheck", "--out-dir", tmp_path / "gc", "--seed", 0) == 0
        out = capsys.readouterr().out
        for group in ("renderer.mu", "renderer.quat", "renderer.scale",
                      "renderer.opacity", "renderer.color", "decoder.anchors",
                      "encoder.stem", "interaction.task.queries",
                      "interaction.task.interact.out.w"):
            assert group in out
        assert "gradcheck passed" in out

    def test_injected_fault_exits_nonzero(self, tmp_path, capsys):
        code = run("gradcheck", "--out-dir", tmp_path / "gc", "--seed", 0,
                   "--inject-fault")
        assert code == 2
        assert "gradcheck FAILED" in capsys.readouterr().out


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "querysplat.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "gen-data" in proc.stdout
