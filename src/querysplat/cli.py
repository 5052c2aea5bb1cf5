"""Command-line entry point: reproducible data generation, training,
rendering, evaluation, and gradient verification.

Commands: gen-data, pretrain, render, finetune, eval, gradcheck.  Every
command echoes its fully-resolved configuration to ``out_dir/config.resolved``
and is deterministic given (config, seed).  Exit codes: 0 success, 1 usage
or configuration error, 2 runtime or numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import shutil
import sys
from dataclasses import replace

import numpy as np

from . import autodiff as ad
from . import config as cf
from . import decoder as dec
from . import finetune as ft
from . import pretrain as pt
from . import renderer as rd
from . import scenes as sc
from .checkpoint import CheckpointError, load_checkpoint
from .images import read_mask, write_mask, write_pfm, write_ppm

GRADCHECK_TOL = 1e-4


class UsageError(Exception):
    """Bad input from the user: missing files, mismatched dims, bad flags."""


# Every flag that overrides a config leaf, with the dotted leaf it sets:
# COMMON_FLAGS on every command, COMMAND_FLAGS on one. eval scores with the
# task settings finetune trained with, so the two share theirs.
COMMON_FLAGS = {"--seed": "seed", "--out-dir": "out_dir", "--queries": "decoder.queries"}
_TASK_FLAGS = {"--no-interaction": "finetune.use_interaction", "--k": "finetune.k",
               "--alpha-thresh": "finetune.alpha_thresh", "--grid": "finetune.grid",
               "--train-fraction": "finetune.train_fraction"}
COMMAND_FLAGS = {
    "gen-data": {"--n-scenes": "data.n_scenes"},
    "pretrain": {"--steps": "pretrain.total_steps"},
    "finetune": {**_TASK_FLAGS, "--steps": "finetune.steps"},
    "eval": _TASK_FLAGS,
}


def _add_override_flags(parser, flags):
    """Each flag stores into its leaf's dotted key, parsed as the leaf's
    kind; a --no- flag sets its true/false leaf to false."""
    for flag, leaf in flags.items():
        if flag.startswith("--no-"):
            parser.add_argument(flag, dest=leaf, action="store_const", const=False,
                                help=f"set {leaf} to false")
        else:
            parse = cf.SCHEMA[leaf][0][2]
            parser.add_argument(flag, dest=leaf, type=parse, help=f"override {leaf}",
                                metavar=leaf.rsplit(".", 1)[-1].upper())


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file (defaults apply)")
    _add_override_flags(common, COMMON_FLAGS)
    common.add_argument(
        "--threads", type=int, default=1,
        help="worker cap; execution is single-worker, so results are "
        "byte-identical at every value",
    )

    p = argparse.ArgumentParser(
        prog="querysplat",
        description="Query-based Gaussian splatting pre-training at desk scale.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", parents=[common], help="write a scene dataset")
    gen.add_argument("--force", action="store_true", help="overwrite existing data")

    pre = sub.add_parser("pretrain", parents=[common], help="run pre-training")
    pre.add_argument("--data", help="dataset directory from gen-data")
    pre.add_argument("--resume", help="continue from a training checkpoint")
    pre.add_argument(
        "--dry-run", action="store_true", help="validate config and exit"
    )

    ren = sub.add_parser("render", parents=[common], help="render a scene")
    ren.add_argument("--checkpoint", required=True, help="model checkpoint")
    ren.add_argument("--scene", required=True, help="scene.bin file or scene dir")

    fin = sub.add_parser("finetune", parents=[common], help="occupancy transfer")
    fin.add_argument("--data", required=True, help="dataset directory")
    fin.add_argument("--pretrained", required=True, help="pre-trained checkpoint")

    ev = sub.add_parser("eval", parents=[common], help="score a task checkpoint")
    ev.add_argument("--data", required=True, help="dataset directory")
    ev.add_argument("--pretrained", required=True, help="pre-trained checkpoint")
    ev.add_argument("--task", required=True, help="task checkpoint from finetune")

    gc = sub.add_parser("gradcheck", parents=[common],
                        help="finite-difference verification suite")
    gc.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    for command, flags in COMMAND_FLAGS.items():
        _add_override_flags(sub.choices[command], flags)
    return p


def _collect_overrides(args):
    """The config leaves that set command-line flags override, by dotted key."""
    return {key: value for key, value in vars(args).items()
            if key in cf.SCHEMA and value is not None}


# ---------------------------------------------------------------------------
# Dataset layout: <out>/scenes/<id>/{scene.bin, view<k>.ppm/.pfm, mask<k>.bin}
# ---------------------------------------------------------------------------


def _scene_dirs(data_dir):
    root = os.path.join(data_dir, "scenes")
    if not os.path.isdir(root):
        raise UsageError(f"dataset not found: no scenes/ directory under {data_dir}")
    dirs = sorted(
        os.path.join(root, d) for d in os.listdir(root)
        if os.path.isdir(os.path.join(root, d))
    )
    if not dirs:
        raise UsageError(f"dataset is empty: {root}")
    return dirs


def _load_dataset(dirs):
    """Scenes of the given scene directories plus baked samples, with the
    stored sparse masks applied; a mask must be its view's size."""
    scenes, samples = [], []
    for d in dirs:
        scene = sc.load_scene(os.path.join(d, "scene.bin"))
        sample = sc.bake_ground_truth(scene)
        masks = []
        for k, view in enumerate(sample.valid_mask):
            path = os.path.join(d, f"mask{k}.bin")
            masks.append(read_mask(path))
            if masks[-1].shape != view.shape:
                raise UsageError(f"{path} has shape {masks[-1].shape}, its view {view.shape}")
        scenes.append(scene)
        samples.append(replace(sample, valid_mask=np.stack(masks)))
    return scenes, samples


def cmd_gen_data(cfg, args):
    """Write the dataset whole or not at all: scenes go to a sibling
    scenes.partial/, renamed to scenes/ after the last one."""
    out = cfg["out_dir"]
    scenes_root = os.path.join(out, "scenes")
    if os.path.isdir(scenes_root) and os.listdir(scenes_root) and not args.force:
        raise UsageError(
            f"{scenes_root} already holds data; pass --force to overwrite"
        )
    partial = scenes_root + ".partial"
    if os.path.isdir(partial):
        shutil.rmtree(partial)  # left by an interrupted run
    cf.write_resolved(cfg, out)
    data = cfg["data"]
    for i in range(data["n_scenes"]):
        scene_seed = cfg["seed"] + i
        scene = sc.generate_scene(data, seed=scene_seed)
        sample = sc.sparsify_depth(
            sc.bake_ground_truth(scene), data["keep_rate"], seed=scene_seed
        )
        d = os.path.join(partial, f"{i:04d}")
        os.makedirs(d)
        sc.save_scene(os.path.join(d, "scene.bin"), scene)
        for k in range(sample.n_views):
            write_ppm(os.path.join(d, f"view{k}.ppm"), sample.rgb[k])
            write_pfm(os.path.join(d, f"view{k}.pfm"), sample.dense_depth[k])
            write_mask(os.path.join(d, f"mask{k}.bin"), sample.valid_mask[k])
        final = os.path.join(scenes_root, f"{i:04d}")
        print(f"scene {i:04d}: {len(scene.gaussians)} gaussians -> {final}")
    if os.path.isdir(scenes_root):
        shutil.rmtree(scenes_root)  # empty, or --force: no earlier scene or view stays
    os.rename(partial, scenes_root)
    print(f"wrote {data['n_scenes']} scenes under {scenes_root}")
    return 0


def _check_views(cfg, scenes):
    want, got = cfg["data"]["n_views"], len(scenes[0].cameras)
    if got != want:
        raise UsageError(f"scene has {got} views but the config expects {want}")


def cmd_pretrain(cfg, args):
    if args.dry_run:
        print("config ok")
        return 0
    if not args.data:
        raise UsageError("pretrain requires --data (a gen-data directory)")
    p = cfg["pretrain"]
    resume_state = None
    if args.resume:
        resume_state = load_checkpoint(args.resume)
        done, total = pt.checkpoint_step(resume_state), p["total_steps"]
        if done == total:
            print(f"nothing left to run: {args.resume} is at the last step, {total}")
            return 0
        if done > total:
            raise UsageError(
                f"{args.resume} is at step {done}, past the run's last step {total}"
            )
    out = cfg["out_dir"]
    cf.write_resolved(cfg, out)
    scenes, samples = _load_dataset(_scene_dirs(args.data))
    _check_views(cfg, scenes)
    model = pt.build_model(scenes[0].bounds, cf.decoder_config(cfg),
                           seed=None if args.resume else cfg["seed"])
    if args.resume:  # run_pretraining loads it again, with the optimizer
        _fill(model.store, pt.model_state(resume_state), "resume")

    def snapshot(step, loss, lr, model):
        if p["snapshot_every"] <= 0 or step % p["snapshot_every"] != 0:
            return
        snap_dir = os.path.join(out, "snapshots", f"step{step:06d}")
        os.makedirs(snap_dir, exist_ok=True)
        _write_views(model, samples[0], snap_dir, with_gt=False)

    losses = pt.run_pretraining(
        model,
        samples,
        total_steps=p["total_steps"],
        warmup=p["warmup_steps"],
        peak_lr=p["peak_lr"],
        weight_decay=p["weight_decay"],
        loss_weights=cf.loss_weights(cfg),
        hflip_prob=p["hflip_prob"],
        seed=cfg["seed"],
        log_path=os.path.join(out, "loss.csv"),
        checkpoint_path=os.path.join(out, "model.ckpt"),
        checkpoint_every=p["checkpoint_every"],
        checkpoint_dir=os.path.join(out, "checkpoints"),
        callback=snapshot,
        resume_state=resume_state,
    )
    print(
        f"pretrained {len(losses)} steps: "
        f"loss {losses[0]:.6f} -> {losses[-1]:.6f}; "
        f"checkpoint {os.path.join(out, 'model.ckpt')}"
    )
    return 0


def _write_views(model, sample, out_dir, with_gt):
    head, _ = pt.decode_sample(model, sample)
    n = 0
    for k, cam in enumerate(sample.cameras):
        out = rd.render(head, cam)
        write_ppm(os.path.join(out_dir, f"view{k}.ppm"), out.rgb)
        write_pfm(os.path.join(out_dir, f"view{k}.pfm"), out.depth)
        n += 2
        if with_gt:
            write_ppm(os.path.join(out_dir, f"view{k}_gt.ppm"), sample.rgb[k])
            write_pfm(os.path.join(out_dir, f"view{k}_gt.pfm"), sample.dense_depth[k])
            n += 2
    return n


def cmd_render(cfg, args):
    out = cfg["out_dir"]
    cf.write_resolved(cfg, out)
    scene_path = args.scene
    if os.path.isdir(scene_path):
        scene_path = os.path.join(scene_path, "scene.bin")
    scene = sc.load_scene(scene_path)
    _check_views(cfg, [scene])
    model = _load_pretrained(cfg, args.checkpoint, scene.bounds)
    sample = sc.bake_ground_truth(scene)
    render_dir = os.path.join(out, "render")
    os.makedirs(render_dir, exist_ok=True)
    n = _write_views(model, sample, render_dir, with_gt=True)
    print(f"wrote {n} files to {render_dir}")
    return 0


def _split_scenes(dirs, fraction):
    """(training, held-out) scene directories: the first ceil(fraction * n)
    train, the rest are held out."""
    n_train = math.ceil(fraction * len(dirs))
    return dirs[:n_train], dirs[n_train:]


def _fill(store, state, what):
    try:
        store.load_state_dict(state)
    except ValueError as e:
        raise UsageError(f"{what} checkpoint does not match the config: {e}")


def _load_pretrained(cfg, path, bounds):
    model = pt.build_model(bounds, cf.decoder_config(cfg), seed=None)  # draws nothing
    _fill(model.store, load_checkpoint(path, skip=pt.OPT_PREFIX), "pre-trained")
    return model


def _build_task(cfg, bounds, d_pre, from_checkpoint=False):
    f = cfg["finetune"]
    return ft.build_task_model(
        bounds,
        grid=f["grid"],
        cfg=cf.interaction_config(cfg),
        d_task=f["d_task"],
        d_pre=d_pre,
        seed=None if from_checkpoint else cfg["seed"],
    )


def _load_task(cfg, path, bounds, d_pre):
    task = _build_task(cfg, bounds, d_pre, from_checkpoint=True)
    _fill(task.store, load_checkpoint(path), "task")
    return task


def cmd_finetune(cfg, args):
    out = cfg["out_dir"]
    cf.write_resolved(cfg, out)
    f = cfg["finetune"]
    train, _ = _split_scenes(_scene_dirs(args.data), f["train_fraction"])
    scenes, samples = _load_dataset(train)
    _check_views(cfg, scenes)
    print(f"fine-tuning on {len(scenes)} scene(s)")
    model = _load_pretrained(cfg, args.pretrained, scenes[0].bounds)
    task = _build_task(cfg, scenes[0].bounds, model.decoder_cfg.feature_dim)
    history = ft.run_finetuning(
        task,
        model,
        samples,
        scenes,
        total_steps=f["steps"],
        lr=f["lr"],
        use_interaction=f["use_interaction"],
        weight_decay=f["weight_decay"],
        log_path=os.path.join(out, "metrics.csv"),
        checkpoint_path=os.path.join(out, "task.ckpt"),
    )
    last = history[-1]
    print(
        f"finetuned {len(history)} steps: loss {last['loss']:.6f}, "
        f"miou {last['miou']:.4f}; checkpoint {os.path.join(out, 'task.ckpt')}"
    )
    return 0


def cmd_eval(cfg, args):
    out = cfg["out_dir"]
    cf.write_resolved(cfg, out)
    f = cfg["finetune"]
    train, held = _split_scenes(_scene_dirs(args.data), f["train_fraction"])
    if not held:
        print(f"no held-out scene: scoring the {len(train)} training scene(s)")
    scenes, samples = _load_dataset(held or train)
    _check_views(cfg, scenes)
    model = _load_pretrained(cfg, args.pretrained, scenes[0].bounds)
    task = _load_task(cfg, args.task, scenes[0].bounds, model.decoder_cfg.feature_dim)

    use_interaction = f["use_interaction"]
    rows = []
    for i, (scene, sample) in enumerate(zip(scenes, samples)):
        frozen = ft.infer_frozen(model, sample)
        pred = ft.predict_occupancy(task, frozen, use_interaction)
        gt = ft.make_ground_truth_grid(scene, task.grid)
        per_class, miou = ft.evaluate_iou(pred, gt)
        rows.append((f"{i:04d}", per_class.get(1, 0.0), miou))

    path = os.path.join(out, "eval.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["scene", "iou_occupied", "miou"])
        for name, iou, miou in rows:
            writer.writerow([name, repr(iou), repr(miou)])
        mean_iou = float(np.mean([r[1] for r in rows]))
        mean_miou = float(np.mean([r[2] for r in rows]))
        writer.writerow(["mean", repr(mean_iou), repr(mean_miou)])
    print(f"evaluated {len(rows)} scene(s): mean miou {mean_miou:.4f} -> {path}")
    return 0


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------


def _fault_wrap(t):
    """Identity forward, sign-flipped backward: the negative control."""
    return ad.custom((t,), t.data.copy(), lambda g: (-g,), name="fault")


def _gradcheck_renderer(seed, fault):
    """FD over the five Gaussian parameter classes of one rendered view."""
    rng = np.random.default_rng(seed)
    n = 6
    mu = rng.uniform(-0.5, 0.5, size=(n, 3))
    quat = rng.normal(size=(n, 4))
    base = dec.DecodedGaussians(
        mu=ad.constant(mu),
        quat=ad.constant(quat / np.linalg.norm(quat, axis=1, keepdims=True)),
        scale=ad.constant(rng.uniform(0.08, 0.25, size=(n, 3))),
        opacity=ad.constant(rng.uniform(0.3, 0.9, size=n)),
        color=ad.constant(rng.uniform(0.1, 0.9, size=(n, 3))),
    )
    scene = sc.generate_scene(
        {"n_objects": 1, "bounds": [[-1, -1, -1], [1, 1, 1]],
         "n_views": 1, "image_size": (24, 24)},
        seed=seed,
    )
    cam = scene.cameras[0]
    cfg = rd.check_config()
    probe = rng.normal(size=(24, 24, 4))

    results = {}
    for cls in rd.FIELDS:
        def fn(t, cls=cls):
            if fault:
                t = _fault_wrap(t)
            node, _ = rd.render_node(replace(base, **{cls: t}), cam, cfg)
            return ad.reduce_sum(node * ad.constant(probe))

        results[f"renderer.{cls}"] = ad.finite_difference_check(fn, base[cls])
    return results


def _gradcheck_decoder(seed, fault):
    """FD through encode -> decode -> render -> loss for anchors and
    encoder weights."""
    scene = sc.generate_scene(
        {"n_objects": 1, "bounds": [[-1, -1, -1], [1, 1, 1]],
         "n_views": 2, "image_size": (32, 32)},
        seed=seed,
    )
    sample = sc.bake_ground_truth(scene)
    cfg = dec.DecoderConfig(n_views=2, K=8)
    model = pt.build_model(scene.bounds, cfg, seed=seed)
    # Nudge every parameter off its init: zero-initialized projection layers
    # would otherwise cut some gradient paths exactly, making the check
    # vacuously pass on them.
    rng = np.random.default_rng(seed + 1)
    for name in model.store.names():
        tensor = model.store[name]
        tensor.data = tensor.data + rng.normal(size=tensor.data.shape) * 0.05
    rcfg = rd.check_config()
    w = pt.LossWeights()

    def loss_with(name, probe):
        with model.store.substitute(name, probe):
            loss, _, _ = pt.forward(model, sample, w, render_config=rcfg)
        return loss

    def check(name):
        def fn(t):
            if fault:
                t = _fault_wrap(t)
            return loss_with(name, t)

        return ad.finite_difference_check(fn, model.store[name].data.copy())

    def check_block(name, cols):
        # FD over every entry of a wide weight matrix is slow; a column
        # block exercises the same gradient path at a fraction of the cost.
        full = model.store[name].data
        fixed = ad.constant(full[:, cols:].copy())

        def fn(t):
            if fault:
                t = _fault_wrap(t)
            return loss_with(name, ad.concat([t, fixed], axis=1))

        return ad.finite_difference_check(fn, full[:, :cols].copy())

    return {
        "decoder.anchors": check("queries.anchors"),
        "encoder.stem.w[:,:4]": check_block("encoder.stem.w", 4),
        "encoder.stem.b": check("encoder.stem.b"),
    }


def _gradcheck_interaction(seed, fault):
    """FD through the query-interaction block and occupancy head."""
    rng = np.random.default_rng(seed)
    cfg = ft.InteractionConfig(k=3, pe_hidden=6)
    bounds = np.array([[-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]])
    task = ft.build_task_model(bounds, grid=2, cfg=cfg, d_task=8, d_pre=8, seed=seed)
    for name in task.store.names():
        task.store[name].data = rng.normal(size=task.store[name].data.shape) * 0.3
    col = dec.anchor_slice
    anchors = np.zeros((6, dec.ANCHOR_DIM))
    anchors[:, col("pos")] = rng.uniform(-0.9, 0.9, size=(6, 3))
    anchors[:, col("scale")] = rng.uniform(0.05, 0.2, size=(6, 3))
    q = rng.normal(size=(6, 4))
    anchors[:, col("quat")] = q / np.linalg.norm(q, axis=1, keepdims=True)
    anchors[:, col("opacity")] = rng.uniform(0.1, 1.0, size=(6, 1))
    feats = rng.normal(size=(6, 8))
    gt = rng.integers(0, 2, size=8)
    neigh = ft.knn_neighbors(task.positions, anchors[:, col("pos")], cfg.k)

    results = {}
    for name in task.store.names():
        def fn(t, name=name):
            if fault:
                t = _fault_wrap(t)
            with task.store.substitute(name, t):
                features = ft.local_query_interaction(
                    task.positions, task.store["task.queries"], anchors, feats,
                    task.store, neigh,
                )
                logits = ft.occupancy_head(features, task.grid, task.store)
                return ad.cross_entropy(logits, gt)

        results[f"interaction.{name}"] = ad.finite_difference_check(
            fn, task.store[name].data.copy()
        )
    return results


def cmd_gradcheck(cfg, args):
    out = cfg["out_dir"]
    cf.write_resolved(cfg, out)
    seed = cfg["seed"]
    fault = args.inject_fault
    results = {}
    results.update(_gradcheck_renderer(seed, fault))
    results.update(_gradcheck_decoder(seed, fault))
    results.update(_gradcheck_interaction(seed, fault))
    worst = 0.0
    for name in sorted(results):
        err = results[name]
        worst = max(worst, err)
        status = "ok" if err < GRADCHECK_TOL else "FAIL"
        print(f"[{status:>4}] {name:<40} max rel err {err:.3e}")
    print(f"worst {worst:.3e} (tolerance {GRADCHECK_TOL:.0e})")
    if worst >= GRADCHECK_TOL:
        print("gradcheck FAILED")
        return 2
    print("gradcheck passed")
    return 0


COMMANDS = {
    "gen-data": cmd_gen_data,
    "pretrain": cmd_pretrain,
    "render": cmd_render,
    "finetune": cmd_finetune,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    if args.threads < 1:
        print(f"error: --threads must be >= 1, got {args.threads}", file=sys.stderr)
        return 1
    try:
        cfg = cf.load_config(args.config, _collect_overrides(args))
    except cf.ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        return COMMANDS[args.command](cfg, args)
    except (UsageError, OSError, CheckpointError, ValueError) as e:
        # ConfigError and scenes.SceneFormatError are ValueErrors.
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (pt.PretrainDivergedError, ad.NondeterministicError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
