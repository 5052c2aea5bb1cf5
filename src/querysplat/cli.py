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


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file (defaults apply)")
    common.add_argument("--seed", type=int, help="run seed (else SQS_SEED, else 0)")
    common.add_argument("--out-dir", help="output directory for this run")
    common.add_argument("--queries", type=int, help="override decoder.queries")
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
    gen.add_argument("--n-scenes", type=int, help="override data.n_scenes")
    gen.add_argument("--force", action="store_true", help="overwrite existing data")

    pre = sub.add_parser("pretrain", parents=[common], help="run pre-training")
    pre.add_argument("--data", help="dataset directory from gen-data")
    pre.add_argument("--steps", type=int, help="override pretrain.total_steps")
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
    fin.add_argument("--no-interaction", action="store_true",
                     help="ablation: skip the query-interaction block")
    fin.add_argument("--k", type=int, help="override finetune.k")
    fin.add_argument("--alpha-thresh", type=float, help="override finetune.alpha_thresh")
    fin.add_argument("--grid", type=int, help="override finetune.grid")
    fin.add_argument("--steps", type=int, help="override finetune.steps")
    fin.add_argument("--train-fraction", type=float,
                     help="override finetune.train_fraction")

    ev = sub.add_parser("eval", parents=[common], help="score a task checkpoint")
    ev.add_argument("--data", required=True, help="dataset directory")
    ev.add_argument("--pretrained", required=True, help="pre-trained checkpoint")
    ev.add_argument("--task", required=True, help="task checkpoint from finetune")
    ev.add_argument("--no-interaction", action="store_true")
    ev.add_argument("--k", type=int)
    ev.add_argument("--alpha-thresh", type=float)
    ev.add_argument("--grid", type=int)
    ev.add_argument("--train-fraction", type=float)

    gc = sub.add_parser("gradcheck", parents=[common],
                        help="finite-difference verification suite")
    gc.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    return p


def _collect_overrides(args):
    """Map set command-line flags onto dotted config keys."""
    mapping = {
        "seed": "seed",
        "out_dir": "out_dir",
        "n_scenes": "data.n_scenes",
        "steps": {
            "pretrain": "pretrain.total_steps",
            "finetune": "finetune.steps",
        },
        "queries": "decoder.queries",
        "k": "finetune.k",
        "alpha_thresh": "finetune.alpha_thresh",
        "grid": "finetune.grid",
        "train_fraction": "finetune.train_fraction",
    }
    overrides = {}
    for attr, key in mapping.items():
        value = getattr(args, attr, None)
        if value is None:
            continue
        if isinstance(key, dict):
            key = key[args.command]
        overrides[key] = value
    if getattr(args, "no_interaction", False):
        overrides["finetune.use_interaction"] = False
    return overrides


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
    stored sparse masks applied."""
    scenes, samples = [], []
    for d in dirs:
        scene = sc.load_scene(os.path.join(d, "scene.bin"))
        sample = sc.bake_ground_truth(scene)
        masks = np.stack(
            [
                read_mask(os.path.join(d, f"mask{k}.bin"))
                for k in range(sample.n_views)
            ]
        )
        scenes.append(scene)
        samples.append(replace(sample, valid_mask=masks))
    return scenes, samples


def cmd_gen_data(cfg, args):
    out = cfg["out_dir"]
    scenes_root = os.path.join(out, "scenes")
    if os.path.isdir(scenes_root) and os.listdir(scenes_root) and not args.force:
        raise UsageError(
            f"{scenes_root} already holds data; pass --force to overwrite"
        )
    cf.write_resolved(cfg, out)
    data = cfg["data"]
    spec = {
        "n_objects": int(data["n_objects"]),
        "bounds": data["bounds"],
        "n_views": int(data["n_views"]),
        "image_size": tuple(int(v) for v in data["image_size"]),
    }
    for i in range(int(data["n_scenes"])):
        scene_seed = int(cfg["seed"]) + i
        scene = sc.generate_scene(spec, seed=scene_seed)
        sample = sc.sparsify_depth(
            sc.bake_ground_truth(scene), float(data["keep_rate"]), seed=scene_seed
        )
        d = os.path.join(scenes_root, f"{i:04d}")
        os.makedirs(d, exist_ok=True)
        sc.save_scene(os.path.join(d, "scene.bin"), scene)
        for k in range(sample.n_views):
            write_ppm(os.path.join(d, f"view{k}.ppm"), sample.rgb[k])
            write_pfm(os.path.join(d, f"view{k}.pfm"), sample.dense_depth[k])
            write_mask(os.path.join(d, f"mask{k}.bin"), sample.valid_mask[k])
        print(f"scene {i:04d}: {len(scene.gaussians)} gaussians -> {d}")
    print(f"wrote {data['n_scenes']} scenes under {scenes_root}")
    return 0


def _build_model_for(cfg, bounds):
    return pt.build_model(bounds, cf.decoder_config(cfg), seed=int(cfg["seed"]))


def _check_views(cfg, scenes):
    want = int(cfg["data"]["n_views"])
    got = len(scenes[0].cameras)
    if got != want:
        raise UsageError(
            f"scene has {got} views but the config expects {want}"
        )


def cmd_pretrain(cfg, args):
    if args.dry_run:
        print("config ok")
        return 0
    if not args.data:
        raise UsageError("pretrain requires --data (a gen-data directory)")
    out = cfg["out_dir"]
    cf.write_resolved(cfg, out)
    scenes, samples = _load_dataset(_scene_dirs(args.data))
    _check_views(cfg, scenes)
    model = _build_model_for(cfg, scenes[0].bounds)

    resume_state = None
    if args.resume:
        resume_state = load_checkpoint(args.resume)

    p = cfg["pretrain"]
    rcfg = cf.render_config(cfg)
    snapshot_every = int(p["snapshot_every"])

    def snapshot(step, loss, lr, model):
        if snapshot_every <= 0 or step % snapshot_every != 0:
            return
        snap_dir = os.path.join(out, "snapshots", f"step{step:06d}")
        os.makedirs(snap_dir, exist_ok=True)
        _write_views(model, samples[0], rcfg, snap_dir, with_gt=False)

    losses = pt.run_pretraining(
        model,
        samples,
        total_steps=int(p["total_steps"]),
        warmup=int(p["warmup_steps"]),
        peak_lr=float(p["peak_lr"]),
        weight_decay=float(p["weight_decay"]),
        loss_weights=cf.loss_weights(cfg),
        hflip_prob=float(p["hflip_prob"]),
        seed=int(cfg["seed"]),
        log_path=os.path.join(out, "loss.csv"),
        checkpoint_path=os.path.join(out, "model.ckpt"),
        checkpoint_every=int(p["checkpoint_every"]),
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


def _write_views(model, sample, rcfg, out_dir, with_gt):
    head, _ = pt.decode_sample(model, sample)
    gaussians = {
        name: getattr(head, name).data
        for name in ("mu", "quat", "scale", "opacity", "color")
    }
    n = 0
    for k, cam in enumerate(sample.cameras):
        out = rd.render(gaussians, cam, rcfg)
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
    n = _write_views(model, sample, cf.render_config(cfg), render_dir, with_gt=True)
    print(f"wrote {n} files to {render_dir}")
    return 0


def _split_scenes(dirs, fraction):
    """(training, held-out) scene directories: the first ceil(fraction * n)
    train, the rest are held out."""
    n_train = math.ceil(float(fraction) * len(dirs))
    return dirs[:n_train], dirs[n_train:]


def _load_pretrained(cfg, path, bounds):
    model = _build_model_for(cfg, bounds)
    state = pt.model_state(load_checkpoint(path))
    try:
        model.store.load_state_dict(state)
    except ValueError as e:
        raise UsageError(f"pre-trained checkpoint does not match the config: {e}")
    return model


def _build_task(cfg, bounds, d_pre):
    f = cfg["finetune"]
    return ft.build_task_model(
        bounds,
        grid=int(f["grid"]),
        cfg=cf.interaction_config(cfg),
        d_task=int(f["d_task"]),
        d_pre=d_pre,
        seed=int(cfg["seed"]),
    )


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
        total_steps=int(f["steps"]),
        lr=float(f["lr"]),
        use_interaction=bool(f["use_interaction"]),
        weight_decay=float(f["weight_decay"]),
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
    # With no held-out scenes the full set is scored instead.
    scenes, samples = _load_dataset(held or train)
    _check_views(cfg, scenes)
    model = _load_pretrained(cfg, args.pretrained, scenes[0].bounds)
    task = _build_task(cfg, scenes[0].bounds, model.decoder_cfg.feature_dim)
    try:
        task.store.load_state_dict(load_checkpoint(args.task))
    except ValueError as e:
        raise UsageError(f"task checkpoint does not match the config: {e}")

    use_interaction = bool(f["use_interaction"])
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
    quat /= np.linalg.norm(quat, axis=1, keepdims=True)
    scale = rng.uniform(0.08, 0.25, size=(n, 3))
    opacity = rng.uniform(0.3, 0.9, size=n)
    color = rng.uniform(0.1, 0.9, size=(n, 3))
    scene = sc.generate_scene(
        {"n_objects": 1, "bounds": [[-1, -1, -1], [1, 1, 1]],
         "n_views": 1, "image_size": (24, 24)},
        seed=seed,
    )
    cam = scene.cameras[0]
    cfg = rd.check_config()
    probe = rng.normal(size=(24, 24, 4))
    base = {"mu": mu, "quat": quat, "scale": scale, "opacity": opacity,
            "color": color}

    results = {}
    for cls in ("mu", "quat", "scale", "opacity", "color"):
        def fn(t, cls=cls):
            if fault:
                t = _fault_wrap(t)
            parts = {
                k: (t if k == cls else ad.constant(v)) for k, v in base.items()
            }
            node, _ = rd.render_node(
                parts["mu"], parts["quat"], parts["scale"], parts["opacity"],
                parts["color"], cam, cfg,
            )
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

    results = {}
    for name in task.store.names():
        def fn(t, name=name):
            if fault:
                t = _fault_wrap(t)
            with task.store.substitute(name, t):
                tq = ft.TaskQuerySet(
                    positions=task.positions, features=task.store["task.queries"]
                )
                tq = ft.local_query_interaction(tq, anchors, feats, cfg, task.store)
                logits = ft.occupancy_head(tq, task.grid, task.store)
                return ad.cross_entropy(logits, gt)

        results[f"interaction.{name}"] = ad.finite_difference_check(
            fn, task.store[name].data.copy()
        )
    return results


def cmd_gradcheck(cfg, args):
    out = cfg["out_dir"]
    cf.write_resolved(cfg, out)
    seed = int(cfg["seed"])
    fault = bool(args.inject_fault)
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
    try:
        cfg = cf.load_config(args.config, _collect_overrides(args))
    except cf.ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        return COMMANDS[args.command](cfg, args)
    except (UsageError, cf.ConfigError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (FileNotFoundError, sc.SceneFormatError, CheckpointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (pt.PretrainDivergedError, ad.NondeterministicError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
