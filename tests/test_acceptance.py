"""Acceptance gate: ten seeded regression and property checks.

Each test prints one `criterion NN [PASS|FAIL]` line with the measured
values, so a log scrape of a full run shows the whole scorecard. The
heavyweight single-scene overfit run is shared by the later regression
criteria through module-scoped fixtures.
"""

import json
import os
import time

import numpy as np
import pytest

import querysplat.cli as cli
import querysplat.config as cf
import querysplat.decoder as dec
import querysplat.finetune as ft
import querysplat.geometry as geo
import querysplat.pretrain as pt
import querysplat.renderer as rd
import querysplat.scenes as sc
from querysplat.checkpoint import save_checkpoint

from test_geometry import (
    covariance_from_scale_rotation,
    quaternion_to_rotation,
    random_rigid,
    rotation_to_quaternion,
)
from test_renderer import alpha_composite, make_camera, random_scene


def report(n, label, ok, detail, capsys):
    line = f"criterion {n:2d} [{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    with capsys.disabled():
        print("\n" + line)
    assert ok, line


def random_gaussians(rng, n):
    quat = rng.normal(size=(n, 4))
    quat /= np.linalg.norm(quat, axis=1, keepdims=True)
    return {
        "mu": rng.uniform(-0.8, 0.8, size=(n, 3)),
        "quat": quat,
        "scale": rng.uniform(0.03, 0.3, size=(n, 3)),
        "opacity": rng.uniform(0.05, 0.95, size=n),
        "color": rng.uniform(size=(n, 3)),
    }


OVERFIT_SPEC = {
    "n_objects": 1,
    "bounds": [[-1, -1, -1], [1, 1, 1]],
    "n_views": 4,
    "image_size": (64, 64),
}


@pytest.fixture(scope="module")
def overfit():
    """2,000-step single-scene overfit: 512 queries, 4 views at 64x64."""
    scene = sc.generate_scene(OVERFIT_SPEC, seed=0)
    sample = sc.bake_ground_truth(scene)
    cfg = dec.DecoderConfig(n_views=4, K=512, n_layers=2)
    model = pt.build_model(scene.bounds, cfg, seed=0)
    start = time.monotonic()
    losses = pt.run_pretraining(model, [sample], total_steps=2000, seed=0)
    wall_s = time.monotonic() - start

    _, _, outs = pt.forward(model, sample, pt.LossWeights())
    maes = [
        float(np.abs(out.depth - sample.dense_depth[v])[sample.valid_mask[v]].mean())
        for v, out in enumerate(outs)
    ]
    return {
        "scene": scene,
        "sample": sample,
        "model": model,
        "losses": losses,
        "wall_s": wall_s,
        "mae_over_extent": float(np.mean(maes)) / scene.extent,
    }


@pytest.fixture(scope="module")
def ablation(overfit, tmp_path_factory):
    """Paired 500-step fine-tuning runs, with and without interaction."""
    tmp = tmp_path_factory.mktemp("ablation")
    model, scene, sample = overfit["model"], overfit["scene"], overfit["sample"]

    before = tmp / "pretrained_before.ckpt"
    save_checkpoint(str(before), model.store.state_dict())

    gt = ft.make_ground_truth_grid(scene, 16)
    arms = {}
    for use in (True, False):
        task = ft.build_task_model(
            scene.bounds, grid=16, d_task=64,
            d_pre=model.decoder_cfg.feature_dim, seed=0,
        )
        history = ft.run_finetuning(
            task, model, [sample], [scene], total_steps=500, use_interaction=use,
        )
        frozen = ft.infer_frozen(model, sample)
        pred = ft.predict_occupancy(task, frozen, use)
        per_class, miou = ft.evaluate_iou(pred, gt)
        arms["with" if use else "without"] = {
            "loss500": history[-1]["loss"],
            "iou_occupied": per_class.get(1, 0.0),
            "miou": miou,
        }

    after = tmp / "pretrained_after.ckpt"
    save_checkpoint(str(after), model.store.state_dict())
    return {
        "arms": arms,
        "ckpt_before": before.read_bytes(),
        "ckpt_after": after.read_bytes(),
    }


class TestAcceptance:
    def test_criterion_01_oracle_equivalence(self, capsys):
        cams = sc.generate_scene(OVERFIT_SPEC, seed=0).cameras
        start = time.monotonic()
        worst_rgb = worst_depth = 0.0
        for i in range(50):
            rng = np.random.default_rng(100 + i)
            g = random_gaussians(rng, int(rng.integers(20, 501)))
            for cam in cams:
                tiled = rd.render(g, cam)
                ref = rd.render_reference(g, cam)
                worst_rgb = max(worst_rgb, float(np.max(np.abs(tiled.rgb - ref.rgb))))
                worst_depth = max(
                    worst_depth, float(np.max(np.abs(tiled.depth - ref.depth)))
                )
        elapsed = time.monotonic() - start
        ok = worst_rgb < 1e-6 and worst_depth < 1e-6 and elapsed < 60.0
        report(
            1, "oracle equivalence (50 scenes, 4 views)", ok,
            f"max |rgb| err {worst_rgb:.2e}, max depth err {worst_depth:.2e} "
            f"(tol 1e-6), {elapsed:.1f}s (< 60s)", capsys,
        )

    def test_criterion_02_gradient_suite(self, capsys, tmp_path):
        results = {}
        results.update(cli._gradcheck_renderer(0, fault=False))
        results.update(cli._gradcheck_decoder(0, fault=False))
        results.update(cli._gradcheck_interaction(0, fault=False))
        worst = max(results.values())
        code = cli.main(["gradcheck", "--out-dir", str(tmp_path), "--seed", "0"])
        ok = worst < 1e-4 and code == 0
        report(
            2, "finite-difference gradient suite", ok,
            f"{len(results)} parameter groups, worst rel err {worst:.2e} "
            f"(tol 1e-4); gradcheck exit {code}", capsys,
        )

    def test_criterion_03_compositing_invariant(self, capsys):
        # Per pixel the compositing weights sum to the accumulated alpha.
        rng = np.random.default_rng(3)
        scene = random_scene(rng, 40)
        cam = make_camera(fx=40.0, fy=40.0, size=(64, 64))
        _, prep = rd._prepare(scene, cam, rd.DEFAULT_CONFIG)
        slots = np.arange(prep["mx"].shape[0])
        px = np.arange(64, dtype=np.float64)
        py = np.arange(64, dtype=np.float64)
        _, _, acc, wgt = rd._composite_block(px, py, prep, slots, rd.DEFAULT_CONFIG)
        sum_err = float(np.max(np.abs(wgt.sum(axis=0) - acc)))

        # Hand-expanded two-splat compositing case.
        color, depth, _ = alpha_composite(
            [(0.5, (1.0, 0.0, 0.0), 2.0), (1.0, (0.0, 1.0, 0.0), 4.0)]
        )
        exact = bool(np.all(color == [0.5, 0.5, 0.0]) and depth == 3.0)
        ok = sum_err <= 1e-12 and exact
        report(
            3, "compositing invariant", ok,
            f"max |sum(w) - alpha_acc| {sum_err:.2e} (tol 1e-12); "
            f"two-splat case color {tuple(float(c) for c in color)} "
            f"depth {float(depth)} (exact)", capsys,
        )

    def test_criterion_04_eigen_invariant(self, capsys):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(1000):
            scale = rng.uniform(0.1, 3.0, size=3)
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            S = covariance_from_scale_rotation(scale, q)
            eig = np.sort(np.linalg.eigvalsh(S))
            worst = max(worst, float(np.max(np.abs(eig - np.sort(scale**2)))))
        ok = worst < 1e-10
        report(
            4, "covariance eigen-invariant (1000 pairs)", ok,
            f"max eigenvalue err {worst:.2e} (tol 1e-10)", capsys,
        )

    def test_criterion_05_rigid_invariance(self, capsys):
        rng = np.random.default_rng(42)
        scene = random_scene(rng, 30)
        cam = make_camera()
        before = rd.render(scene, cam)
        G = random_rigid(rng)
        mus = scene["mu"] @ G[:3, :3].T + G[:3, 3]
        quats = np.stack(
            [
                rotation_to_quaternion(G[:3, :3] @ quaternion_to_rotation(q))
                for q in scene["quat"]
            ]
        )
        cam2 = geo.Camera(
            intrinsics=cam.intrinsics,
            extrinsics=G @ cam.extrinsics,
            image_size=cam.image_size,
        )
        after = rd.render(dict(scene, mu=mus, quat=quats), cam2)
        err = max(
            float(np.max(np.abs(after.rgb - before.rgb))),
            float(np.max(np.abs(after.depth - before.depth))),
        )
        ok = err < 1e-9
        report(
            5, "rigid invariance of rendering", ok,
            f"max output change {err:.2e} (tol 1e-9)", capsys,
        )

    def test_criterion_06_default_constants(self, capsys):
        cfg = cf.load_config(overrides={"seed": 0})
        w = cf.loss_weights(cfg)
        lr_peak = pt.lr_schedule(500, 2000)
        lr_end = pt.lr_schedule(2000, 2000)
        wd = float(cfg["pretrain"]["weight_decay"])
        layers = dec.DecoderConfig().n_layers
        ok = (
            w.w_rgb == 1.0
            and w.w_depth == 0.05
            and lr_peak == 2e-4
            and abs(lr_end) <= 1e-12
            and wd == 0.01
            and pt.OptimizerState().weight_decay == 0.01
            and layers == 2
            and int(cfg["decoder"]["n_layers"]) == 2
        )
        report(
            6, "default constants", ok,
            f"w_rgb {w.w_rgb}, w_depth {w.w_depth}, lr(500) {lr_peak}, "
            f"lr(2000) {lr_end:.1e}, weight decay {wd}, decoder layers {layers}",
            capsys,
        )

    def test_criterion_07_single_scene_overfit(self, overfit, capsys):
        losses = overfit["losses"]
        ratio = losses[-1] / losses[0]
        mae = overfit["mae_over_extent"]
        wall_min = overfit["wall_s"] / 60.0
        ok = ratio <= 0.10 and mae <= 0.02 and overfit["wall_s"] <= 600.0
        report(
            7, "single-scene overfit (512 queries, 2000 steps)", ok,
            f"loss {losses[0]:.4f} -> {losses[-1]:.6f} (ratio {ratio:.4f} <= 0.10), "
            f"depth MAE {100 * mae:.2f}% of extent (<= 2%), "
            f"{wall_min:.1f} min (<= 10)", capsys,
        )

    def test_criterion_08_interaction_ablation(self, ablation, capsys):
        w = ablation["arms"]["with"]
        wo = ablation["arms"]["without"]
        ok = (
            w["loss500"] <= wo["loss500"]
            and w["iou_occupied"] >= wo["iou_occupied"]
        )
        report(
            8, "query-interaction ablation (paired, 500 steps)", ok,
            f"loss {w['loss500']:.2e} (with) vs {wo['loss500']:.2e} (without); "
            f"occupied IoU {w['iou_occupied']:.3f} vs {wo['iou_occupied']:.3f}",
            capsys,
        )

    def test_criterion_09_freeze_contract(self, ablation, capsys):
        ok = ablation["ckpt_before"] == ablation["ckpt_after"]
        report(
            9, "freeze contract", ok,
            f"pre-trained checkpoint bytes identical before/after fine-tuning: "
            f"{ok} ({len(ablation['ckpt_before'])} bytes)", capsys,
        )

    def test_criterion_10_cli_determinism(self, tmp_path, capsys):
        tiny = {
            "seed": 0,
            "data": {"n_scenes": 2, "n_objects": 1, "n_views": 2,
                     "image_size": [32, 32], "keep_rate": 0.5},
            "decoder": {"queries": 16, "feature_dim": 32},
            "pretrain": {"total_steps": 6, "warmup_steps": 2,
                         "checkpoint_every": 3, "snapshot_every": 3,
                         "hflip_prob": 0.5},
            "finetune": {"steps": 4, "grid": 4, "k": 4, "d_task": 16,
                         "pe_hidden": 8},
        }
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps(tiny))

        def read(path):
            with open(path, "rb") as f:
                return f.read()

        def tree(root):
            out = {}
            for dirpath, _, files in os.walk(root):
                for name in files:
                    p = os.path.join(dirpath, name)
                    out[os.path.relpath(p, root)] = read(p)
            return out

        mismatches = []
        runs = {}
        for threads in (1, 8):
            d = tmp_path / f"t{threads}"
            argv = lambda *a: [str(x) for x in a] + ["--threads", str(threads)]
            assert cli.main(argv("gen-data", "--config", cfg,
                                 "--out-dir", d / "data")) == 0
            assert cli.main(argv("pretrain", "--config", cfg,
                                 "--data", d / "data",
                                 "--out-dir", d / "pre")) == 0
            assert cli.main(argv("render", "--config", cfg,
                                 "--checkpoint", d / "pre" / "model.ckpt",
                                 "--scene", d / "data" / "scenes" / "0000",
                                 "--out-dir", d / "ren")) == 0
            assert cli.main(argv("finetune", "--config", cfg,
                                 "--data", d / "data",
                                 "--pretrained", d / "pre" / "model.ckpt",
                                 "--out-dir", d / "fin")) == 0
            assert cli.main(argv("eval", "--config", cfg,
                                 "--data", d / "data",
                                 "--pretrained", d / "pre" / "model.ckpt",
                                 "--task", d / "fin" / "task.ckpt",
                                 "--out-dir", d / "ev")) == 0
            capsys.readouterr()
            assert cli.main(argv("gradcheck", "--config", cfg,
                                 "--out-dir", d / "gc", "--seed", 0)) == 0
            runs[threads] = {
                "gen-data": tree(d / "data" / "scenes"),
                "pretrain loss.csv": read(d / "pre" / "loss.csv"),
                "pretrain model.ckpt": read(d / "pre" / "model.ckpt"),
                "render": tree(d / "ren" / "render"),
                "finetune metrics.csv": read(d / "fin" / "metrics.csv"),
                "finetune task.ckpt": read(d / "fin" / "task.ckpt"),
                "eval eval.csv": read(d / "ev" / "eval.csv"),
                "gradcheck stdout": capsys.readouterr().out,
            }
        for key in runs[1]:
            if runs[1][key] != runs[8][key]:
                mismatches.append(key)
        ok = not mismatches
        report(
            10, "CLI determinism across --threads", ok,
            "all six commands byte-identical at --threads 1 vs 8"
            if ok else f"mismatched artifacts: {mismatches}", capsys,
        )
