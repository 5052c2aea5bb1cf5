"""End-to-end tests for the command-line interface.

A module-scoped tiny dataset and pre-training run are shared across the
classes below so that each command is exercised against real artifacts
while keeping the suite fast.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import querysplat.finetune as ft
import querysplat.pretrain as pt
import querysplat.scenes as sc
from querysplat import cli
from querysplat.checkpoint import load_checkpoint, save_checkpoint
from querysplat.images import read_pfm, write_mask, write_pfm, write_ppm

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
        depth = read_pfm(str(out / "render" / "view0.pfm"))
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
        assert read_pfm(str(out / "render" / "view0.pfm")).shape == (32, 64)

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
