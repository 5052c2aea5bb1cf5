"""The three workloads: one user pipeline, sized three ways.

Every workload runs the same stages through the program's public functions,
one caller in a closed loop:

  set-up    ``cli.main gen-data`` writes the dataset; the scenes are read back
            and baked as the CLI's loader does; the model and task are built.
            Run ``setups`` times, each rewriting the same dataset byte for
            byte; the last feeds the stages below.
  pretrain  ``pretrain.run_pretraining`` with hflip, a loss log and periodic
            checkpoints; the LR schedule is scaled to the run length.
  finetune  ``finetune.run_finetuning`` with query interaction on the
            pre-trained model, frozen.
  render    ``cli.main render`` once per scene per pass.
  eval      ``cli.main eval`` on the held-out split.

A workload makes one stage its focus and gives it the run's ``--seconds``
in whole rounds; the other stages run at a small fixed size, so every
end-to-end metric is measured on every workload. Work is fixed by the
workload and ``--seconds``, never by the clock, so every run attempts the
same operations and a faster program finishes sooner.

The box these runs share drifts in speed by a quarter over minutes, which
would swamp every bound. ``machine_probe`` times a fixed NumPy kernel mix,
independent of the program, right after each operation of a stage (each
set-up, pretrain step and CLI call, and three times before and after
fine-tuning). A stage's time metrics are divided, and its rates multiplied,
by the median of its probes over PROBE_NOMINAL_S, so they read as seconds on
a machine whose probe takes PROBE_NOMINAL_S. Probe time is not counted in
any metric; the raw values stay in the run's result file.
"""

import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

import checks
import tracing
import querysplat.cli as cli
import querysplat.config as cf
import querysplat.decoder as dec
import querysplat.encoder as enc
import querysplat.finetune as ft
import querysplat.pretrain as pt
import querysplat.renderer as rd
import querysplat.scenes as sc
from querysplat.checkpoint import load_checkpoint
from querysplat.images import read_mask

PROBE_NOMINAL_S = 0.09
# The seed makes the dataset; the model and task start from fixed weights, so
# run-to-run differences come from the inputs, not from the initialisation.
MODEL_SEED = 0
HFLIP_PROB = 0.5
RERUN_STEPS = 2


@dataclass(frozen=True)
class Workload:
    setups: int  # set-ups per run; cheap ones repeat more, for a steady median
    n_scenes: int
    n_objects: int
    train_fraction: float
    # Per run: fixed part + per-round part * rounds.
    pretrain_steps: tuple
    finetune_cycles: tuple  # one step per training scene per cycle
    render_passes: tuple  # one render call per scene per pass
    eval_calls: tuple
    round_s: float  # nominal seconds of one round on a 2-core box

    def rounds(self, seconds):
        return max(1, round(seconds / self.round_s))


WORKLOADS = {
    # Criterion 7's step: one 1-object scene per step, 4 views at 64x64,
    # K=512 queries, 2 decoder layers.
    "pretrain-default": Workload(
        setups=7, n_scenes=6, n_objects=1, train_fraction=0.5,
        pretrain_steps=(0, 6), finetune_cycles=(1, 0), render_passes=(1, 0),
        eval_calls=(2, 0), round_s=3.9,
    ),
    # Query interaction (grid 16, k 8) on a model frozen after a short
    # pre-training; the decoder and renderer run once per scene.
    "finetune-occupancy": Workload(
        setups=3, n_scenes=6, n_objects=3, train_fraction=0.8,
        pretrain_steps=(6, 0), finetune_cycles=(0, 1), render_passes=(1, 0),
        eval_calls=(2, 0), round_s=3.7,
    ),
    # Forward-only CLI: render every scene, eval the held-out half, with
    # scene, image and checkpoint I/O and ground-truth baking.
    "infer-cli": Workload(
        setups=5, n_scenes=4, n_objects=3, train_fraction=0.5,
        pretrain_steps=(4, 0), finetune_cycles=(1, 0), render_passes=(0, 1),
        eval_calls=(0, 1), round_s=3.2,
    ),
}


def machine_probe():
    """Seconds taken by a fixed NumPy kernel mix like the program's own:
    elementwise exp and cumprod over tile-sized blocks, a small matmul, a
    gather, a bincount scatter and a stable argsort."""
    rng = np.random.default_rng(0)
    a = rng.normal(size=(2048, 64))
    w = rng.normal(size=(64, 64))
    idx = rng.integers(0, 2048, size=8192)
    q = rng.uniform(size=(64, 16, 16))
    t0 = time.perf_counter()
    for _ in range(40):
        np.exp(-0.5 * q * q).cumprod(axis=0)
        d = (a @ w)[idx]
        e = np.bincount(idx, weights=d[:, 0], minlength=2048)
        np.argsort(a[:, 0] + e, kind="stable")
    return time.perf_counter() - t0


class Probes:
    """Machine-probe samples per stage, each taken right after an operation of
    that stage, so a stage's timings are scaled by the speed they ran at."""

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.samples = {}

    def take(self, stage, n=1):
        if self.enabled:
            self.samples.setdefault(stage, []).extend(machine_probe() for _ in range(n))

    def slowdown(self, stage):
        return statistics.median(self.samples[stage]) / PROBE_NOMINAL_S


def _size(part, rounds):
    return part[0] + part[1] * rounds


class Ops:
    """Operations attempted and failed, and the CLI's captured output."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def cli(self, argv):
        self.attempted += 1
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main([str(a) for a in argv])
        if code != 0:
            self.failed += 1
            self.errors.append(f"{argv[0]} exited {code}: {out.getvalue().strip()[-200:]}")
        return code


@dataclass
class Setup:
    cfg_path: str
    cfg: dict
    data_dir: str
    scene_dirs: list
    scenes: list
    samples: list
    model: object
    task: object
    gen_data_s: float
    seconds: float


# Scene seeds are data_seed + i; spacing the runs' seeds apart keeps the
# datasets of different --seed values disjoint.
SEED_STRIDE = 1000


def write_config(w, seed, run_dir):
    doc = {
        "seed": seed * SEED_STRIDE,
        "data": {"n_scenes": w.n_scenes, "n_objects": w.n_objects},
        "finetune": {"train_fraction": w.train_fraction},
    }
    path = os.path.join(run_dir, "config.json")
    with open(path, "w") as f:
        json.dump(doc, f)
    return path


def load_dataset(data_dir, n_scenes):
    """Scenes and baked samples with the stored sparse masks, as the CLI loads them."""
    dirs = [os.path.join(data_dir, "scenes", f"{i:04d}") for i in range(n_scenes)]
    scenes, samples = [], []
    for d in dirs:
        scene = sc.load_scene(os.path.join(d, "scene.bin"))
        sample = sc.bake_ground_truth(scene)
        masks = np.stack([read_mask(os.path.join(d, f"mask{k}.bin")) for k in range(sample.n_views)])
        scenes.append(scene)
        samples.append(replace(sample, valid_mask=masks))
    return dirs, scenes, samples


def set_up(w, seed, run_dir, ops, probes):
    t0 = time.perf_counter()
    cfg_path = write_config(w, seed, run_dir)
    cfg = cf.load_config(cfg_path)
    data_dir = os.path.join(run_dir, "data")
    g0 = time.perf_counter()
    ops.cli(["gen-data", "--config", cfg_path, "--out-dir", data_dir, "--force"])
    gen_data_s = time.perf_counter() - g0
    dirs, scenes, samples = load_dataset(data_dir, w.n_scenes)
    model = pt.build_model(scenes[0].bounds, cf.decoder_config(cfg), seed=MODEL_SEED)
    f = cfg["finetune"]
    task = ft.build_task_model(
        scenes[0].bounds, grid=int(f["grid"]), cfg=cf.interaction_config(cfg),
        d_task=int(f["d_task"]), d_pre=model.decoder_cfg.feature_dim, seed=MODEL_SEED,
    )
    seconds = time.perf_counter() - t0
    probes.take("setup")
    return Setup(cfg_path, cfg, data_dir, dirs, scenes, samples, model, task, gen_data_s, seconds)


def pretrain_kwargs(s, steps, seed, run_dir=None):
    p = s.cfg["pretrain"]
    kwargs = dict(
        total_steps=steps, warmup=max(1, steps // 4), peak_lr=float(p["peak_lr"]),
        weight_decay=float(p["weight_decay"]), loss_weights=cf.loss_weights(s.cfg),
        hflip_prob=HFLIP_PROB, seed=seed,
    )
    if run_dir is not None:
        kwargs.update(
            log_path=os.path.join(run_dir, "loss.csv"),
            checkpoint_path=os.path.join(run_dir, "model.ckpt"),
            checkpoint_every=max(1, steps // 4),
            checkpoint_dir=os.path.join(run_dir, "checkpoints"),
        )
    return kwargs


def n_train(w):
    return math.ceil(w.train_fraction * w.n_scenes)


def measure(w, s, seed, rounds, run_dir, ops, probes):
    """Run every stage once; return timings and what the checks need."""
    r = {}
    steps = _size(w.pretrain_steps, rounds)
    step_times = []
    last = [0.0]
    paused = [0.0]

    def on_step(step, loss, lr, model):
        now = time.perf_counter()
        step_times.append(now - last[0])
        probes.take("pretrain")
        last[0] = time.perf_counter()
        paused[0] += last[0] - now

    ops.attempted += steps
    t0 = last[0] = time.perf_counter()
    r["losses"] = pt.run_pretraining(
        s.model, s.samples, callback=on_step, **pretrain_kwargs(s, steps, seed, run_dir)
    )
    r["pretrain_wall"] = time.perf_counter() - t0 - paused[0]
    r["step_times"] = step_times

    k = n_train(w)
    f = s.cfg["finetune"]
    ft_steps = k * _size(w.finetune_cycles, rounds)
    r["frozen_before"] = checks.state_bytes(s.model.store)
    ops.attempted += ft_steps
    probes.take("finetune", 3)
    t0 = time.perf_counter()
    r["history"] = ft.run_finetuning(
        s.task, s.model, s.samples[:k], s.scenes[:k], total_steps=ft_steps,
        lr=float(f["lr"]), use_interaction=True, weight_decay=float(f["weight_decay"]),
        log_path=os.path.join(run_dir, "metrics.csv"),
        checkpoint_path=os.path.join(run_dir, "task.ckpt"),
    )
    r["finetune_wall"] = time.perf_counter() - t0
    probes.take("finetune", 3)
    r["frozen_after"] = checks.state_bytes(s.model.store)

    targets = list(range(w.n_scenes)) * _size(w.render_passes, rounds)
    render_times = []
    for i in targets:
        t0 = time.perf_counter()
        ops.cli([
            "render", "--config", s.cfg_path, "--checkpoint", os.path.join(run_dir, "model.ckpt"),
            "--scene", s.scene_dirs[i], "--out-dir", os.path.join(run_dir, f"render{i}"),
        ])
        render_times.append(time.perf_counter() - t0)
        probes.take("render")
    r["render_times"] = render_times

    scored = w.n_scenes - k if k < w.n_scenes else w.n_scenes
    eval_times = []
    for _ in range(_size(w.eval_calls, rounds)):
        t0 = time.perf_counter()
        ops.cli([
            "eval", "--config", s.cfg_path, "--data", s.data_dir,
            "--pretrained", os.path.join(run_dir, "model.ckpt"),
            "--task", os.path.join(run_dir, "task.ckpt"), "--out-dir", os.path.join(run_dir, "eval"),
        ])
        eval_times.append((time.perf_counter() - t0) / scored)
        probes.take("eval", 2)
    r["eval_times"] = eval_times
    r["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return r


class _Stop(Exception):
    pass


def check_all(w, s, seed, r, run_dir, ops):
    """Every correctness check; returns the reasons of those that fail."""
    errors = list(ops.errors)
    wts = cf.loss_weights(s.cfg)
    model, sample = s.model, s.samples[0]

    # Pre-training: the loss, the renders and the gradient of the final model.
    loss, head, outputs = pt.forward(model, sample, wts)
    errors.append(checks.loss_error(outputs, sample, float(loss.data), wts))
    errors.append(checks.render_error(outputs, head, sample.cameras))
    errors.append(checks.gradient_error(model, sample, wts, seed))
    if len(r["losses"]) >= 2 * w.n_scenes:
        errors.append(checks.learning_error(r["losses"], w.n_scenes, "pre-training"))
    errors.append(checks.log_error(os.path.join(run_dir, "loss.csv"), r["losses"]))
    rerun = pt.build_model(s.scenes[0].bounds, cf.decoder_config(s.cfg), seed=MODEL_SEED)
    prefix = []

    def stop_after(step, loss, lr, model):
        prefix.append(loss)
        if len(prefix) == RERUN_STEPS:
            raise _Stop

    try:
        pt.run_pretraining(
            rerun, s.samples, callback=stop_after,
            **pretrain_kwargs(s, len(r["losses"]), seed),
        )
    except _Stop:
        pass
    if prefix != r["losses"][:RERUN_STEPS]:
        errors.append(f"rerun losses {prefix} differ from {r['losses'][:RERUN_STEPS]}")

    # Fine-tuning: neighbours, IoU, the freeze and learning.
    k = n_train(w)
    task, history = s.task, r["history"]
    last = (len(history) - 1) % k
    frozen = ft.infer_frozen(model, s.samples[last])
    anchors, _ = ft.filter_by_opacity(frozen.anchors, frozen.features, task.cfg.alpha_thresh)
    neighbours = ft.knn_neighbors(task.positions, anchors[:, :3], task.cfg.k)
    errors.append(checks.knn_error(task.positions, anchors[:, :3], neighbours, task.cfg.k))
    pred = ft.predict_occupancy(task, frozen, True)
    errors.append(checks.iou_error(
        pred, s.scenes[last], task.grid, history[-1]["iou_occupied"], history[-1]["miou"]
    ))
    errors.append(checks.frozen_error(r["frozen_before"], r["frozen_after"]))
    if len(history) >= 2 * k:
        errors.append(checks.learning_error([h["loss"] for h in history], k, "fine-tuning"))

    # CLI files: the first scene's views, and eval.csv.
    i = 0
    trained = pt.build_model(s.scenes[i].bounds, cf.decoder_config(s.cfg), seed=MODEL_SEED)
    trained.store.load_state_dict(pt.model_state(load_checkpoint(os.path.join(run_dir, "model.ckpt"))))
    images = [s.samples[i].rgb[v] for v in range(s.samples[i].n_views)]
    head, _ = dec.decode(
        trained.query_set(), enc.encode(trained.store, images), s.scenes[i].cameras,
        trained.decoder_cfg, trained.store,
    )
    arrays = checks.head_arrays(head)
    render_dir = os.path.join(run_dir, f"render{i}", "render")
    for v, cam in enumerate(s.scenes[i].cameras):
        ref = rd.render_reference(arrays, cam)
        errors.append(checks.image_error(
            os.path.join(render_dir, f"view{v}.ppm"), os.path.join(render_dir, f"view{v}.pfm"), ref, cam
        ))
    held = list(range(k, w.n_scenes)) if k < w.n_scenes else list(range(w.n_scenes))
    expected = []
    for j, idx in enumerate(held):
        pred = ft.predict_occupancy(task, ft.infer_frozen(trained, s.samples[idx]), True)
        expected.append((f"{j:04d}",) + checks.iou(pred, checks.voxelize(s.scenes[idx], task.grid)))
    errors.append(checks.eval_csv_error(os.path.join(run_dir, "eval", "eval.csv"), expected))
    return [e for e in errors if e]


def _metrics(w, setups, r, slowdown):
    def m(value, unit):
        return {"value": float(value), "unit": unit}

    def per_s(count, seconds, stage):
        return m(count / seconds * slowdown(stage), "1/s")

    def secs(seconds, stage):
        return m(seconds / slowdown(stage), "s")

    k = n_train(w)
    _, last = checks.cycle_means(r["losses"], w.n_scenes)
    _, ft_last = checks.cycle_means([h["loss"] for h in r["history"]], k)
    return {
        "setup_s": secs(statistics.median(s.seconds for s in setups), "setup"),
        "peak_rss_mb": m(r["peak_rss_mb"], "MB"),
        "pretrain_step_s": secs(statistics.median(r["step_times"]), "pretrain"),
        "pretrain_steps_per_s": per_s(len(r["losses"]), r["pretrain_wall"], "pretrain"),
        "pretrain_final_loss": m(last, "loss"),
        "finetune_steps_per_s": per_s(len(r["history"]), r["finetune_wall"], "finetune"),
        "finetune_final_loss": m(ft_last, "loss"),
        # The fastest call: file writes on a shared disk stall at random, and
        # a median of a few calls still carries the stalls.
        "gen_data_scene_s": secs(min(s.gen_data_s for s in setups) / w.n_scenes, "setup"),
        "render_scene_s": secs(statistics.median(r["render_times"]), "render"),
        "eval_scene_s": secs(statistics.median(r["eval_times"]), "eval"),
    }


def run(name, seed, seconds, traced, out_root, env):
    w = WORKLOADS[name]
    run_dir = os.path.join(out_root, f"{name}-seed{seed}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    rounds = w.rounds(seconds)
    ops = Ops()

    # A traced run skips the probes so its two passes differ only by tracing.
    probes = Probes(enabled=not traced)
    setups = [set_up(w, seed, run_dir, ops, probes) for _ in range(w.setups)]
    t0 = time.perf_counter()
    r = measure(w, setups[-1], seed, rounds, run_dir, ops, probes)
    wall = time.perf_counter() - t0
    info = {"workload": name, "seed": seed, "rounds": rounds, "measured_s": wall}
    if traced:
        # The untraced pass above is the baseline for the tracing overhead.
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            setups = [set_up(w, seed, run_dir, Ops(), probes)]
            t0 = time.perf_counter()
            r = measure(w, setups[0], seed, rounds, run_dir, ops, probes)
            traced_wall = time.perf_counter() - t0
        finally:
            tracer.restore()
        metrics = tracing.layer_metrics(tracer)
        metrics["trace.overhead_s"] = {"value": traced_wall - wall, "unit": "s"}
        info["traced_s"] = traced_wall
        tracer.dump(os.path.join(out_root, f"trace-{name}-seed{seed}.json"), dict(info, env=env))
        raw = {}
    else:
        metrics = _metrics(w, setups, r, probes.slowdown)
        raw = _metrics(w, setups, r, lambda stage: 1.0)
    t0 = time.perf_counter()
    errors = check_all(w, setups[-1], seed, r, run_dir, ops)
    info["checks_s"] = time.perf_counter() - t0
    for e in errors:
        print(f"check failed: {e}")
    samples = {
        "setup_s": [x.seconds for x in setups],
        "gen_data_s": [x.gen_data_s for x in setups],
        **{key: r[key] for key in ("step_times", "render_times", "eval_times")},
        "pretrain_wall": r["pretrain_wall"],
        "finetune_wall": r["finetune_wall"],
        "probes": probes.samples,
        "raw": raw,
    }
    with open(os.path.join(out_root, f"result-{name}-seed{seed}-trace{int(traced)}.json"), "w") as f:
        json.dump(dict(info, env=env, samples=samples, metrics=metrics, errors=errors), f, indent=1)
    # Datasets and checkpoints run to about 100 MB; only the summaries stay.
    shutil.rmtree(run_dir)
    print("run " + json.dumps(info, sort_keys=True))
    return {
        "correct": not errors,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }
