"""Self-supervised pre-training: render decoded Gaussians and minimize the
masked L1 reconstruction loss with AdamW under warmup + cosine scheduling.

The loss is L = w_rgb * mean over all pixels of |rgb error| + w_depth * mean
over mask-valid pixels of |depth error| (weights default 1.0 and 0.05),
averaged over views. Weight decay is decoupled and applied multiplicatively
before the moment update. Horizontal-flip augmentation mirrors images, the
principal point, and camera poses about the scene's x midplane so the flipped
sample is exactly the mirrored scene seen through mirrored cameras.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import decoder as dec
from . import encoder as enc
from . import renderer as rd
from .checkpoint import save_checkpoint
from .geometry import Camera
from .scenes import SceneSample


@dataclass
class LossWeights:
    w_rgb: float = 1.0
    w_depth: float = 0.05

    def __post_init__(self):
        if self.w_rgb < 0.0 or self.w_depth < 0.0:
            raise ValueError("loss weights must be non-negative")


@dataclass
class OptimizerState:
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


class PretrainDivergedError(RuntimeError):
    """Raised when the loss goes non-finite; carries diagnostics."""

    def __init__(self, message, diagnostics):
        super().__init__(f"{message}; diagnostics: {diagnostics}")
        self.diagnostics = diagnostics


def reconstruction_loss(pred_rgb, pred_depth, gt_rgb, gt_depth, valid_mask, w):
    """Masked L1 loss for one view.

    RGB is averaged over every pixel and channel; depth only over pixels
    where valid_mask is true (zero term if none are).
    """
    gt_rgb = np.asarray(gt_rgb, dtype=np.float64)
    gt_depth = np.asarray(gt_depth, dtype=np.float64)
    mask = np.asarray(valid_mask, dtype=bool)
    if pred_rgb.shape != gt_rgb.shape or pred_depth.shape != gt_depth.shape:
        raise ValueError("prediction and target shapes disagree")
    if mask.shape != gt_depth.shape:
        raise ValueError("valid_mask shape disagrees with depth")

    loss = ad.l1_loss(pred_rgb, ad.constant(gt_rgb)) * (w.w_rgb / gt_rgb.size)
    n_valid = int(mask.sum())
    if n_valid > 0:
        depth_term = ad.l1_loss(
            pred_depth, ad.constant(gt_depth), weight=mask.astype(np.float64)
        )
        loss = loss + depth_term * (w.w_depth / n_valid)
    return loss


def lr_schedule(step, total_steps, warmup=500, peak=2e-4):
    """Linear warmup to the peak, then cosine decay to exactly zero."""
    if total_steps <= warmup:
        raise ValueError(
            f"total_steps ({total_steps}) must exceed warmup ({warmup})"
        )
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    if step <= warmup:
        return peak * (step / warmup)
    progress = (step - warmup) / (total_steps - warmup)
    return peak * 0.5 * (1.0 + np.cos(np.pi * progress))


def adamw_step(store, state, lr):
    """One decoupled-weight-decay Adam update over every parameter.

    Decay multiplies weights by (1 - lr * weight_decay) before the moment
    term. Parameters without a gradient are treated as having zero gradient.
    """
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    for name, param in store.items():
        g = param.grad if param.grad is not None else np.zeros_like(param.data)
        if name not in state.m:
            state.m[name] = np.zeros_like(param.data)
            state.v[name] = np.zeros_like(param.data)
        state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        state.v[name] = b2 * state.v[name] + (1.0 - b2) * g * g
        m_hat = state.m[name] / (1.0 - b1**t)
        v_hat = state.v[name] / (1.0 - b2**t)
        param.data = param.data * (1.0 - lr * state.weight_decay)
        param.data = param.data - lr * m_hat / (np.sqrt(v_hat) + state.eps)


def _mirror_world(bounds):
    """Reflection about the bounds' x midplane, as a 4x4 homogeneous map."""
    M = np.eye(4)
    M[0, 0] = -1.0
    M[0, 3] = float(bounds[0, 0] + bounds[1, 0])
    return M


_MIRROR_CAM = np.diag([-1.0, 1.0, 1.0, 1.0])


def horizontal_flip_augment(sample, apply):
    """Mirror a sample along image width, consistently with its cameras.

    The flipped sample equals the x-mirrored scene viewed through cameras
    whose poses are conjugated by the world mirror and a camera-frame x flip
    (pose' = Mirror_world @ pose @ Mirror_cam, so the rotation stays proper).
    """
    if not apply:
        return sample
    M_w = _mirror_world(sample.bounds)
    cameras = []
    for cam in sample.cameras:
        K = cam.intrinsics.copy()
        K[0, 2] = (cam.image_size[0] - 1) - K[0, 2]
        cameras.append(
            Camera(
                intrinsics=K,
                extrinsics=M_w @ cam.extrinsics @ _MIRROR_CAM,
                image_size=cam.image_size,
            )
        )
    return SceneSample(
        rgb=sample.rgb[:, :, ::-1].copy(),
        dense_depth=sample.dense_depth[:, :, ::-1].copy(),
        valid_mask=sample.valid_mask[:, :, ::-1].copy(),
        cameras=cameras,
        bounds=sample.bounds.copy(),
    )


@dataclass
class PretrainModel:
    store: ad.ParamStore
    decoder_cfg: dec.DecoderConfig
    bounds: np.ndarray

    def query_set(self):
        anchors = self.store["queries.anchors"]
        return dec.GaussianQuerySet(
            anchors=anchors,
            features=ad.constant(
                np.zeros((anchors.data.shape[0], self.decoder_cfg.feature_dim))
            ),
            bounds=self.bounds,
        )


def build_model(bounds, decoder_cfg, seed):
    """Encoder + decoder + learnable query anchors in one ParamStore."""
    rng = np.random.default_rng(seed)
    store = ad.ParamStore()
    enc.init_encoder_params(store, rng)
    dec.init_decoder_params(store, rng, decoder_cfg)
    store.param(
        "queries.anchors",
        dec.init_anchor_array(decoder_cfg.K, bounds, rng.integers(2**63)),
    )
    bounds = np.asarray(bounds, dtype=np.float64).reshape(2, 3)
    return PretrainModel(store=store, decoder_cfg=decoder_cfg, bounds=bounds)


def decode_sample(model, sample):
    """Encode a sample's views and decode the model's queries against them.

    Returns (DecodedGaussians, final query set), as decoder.decode does.
    """
    images = [sample.rgb[v] for v in range(sample.n_views)]
    pyramid = enc.encode(model.store, images)
    return dec.decode(
        model.query_set(), pyramid, sample.cameras, model.decoder_cfg, model.store
    )


def forward(model, sample, w, render_config=None):
    """Encode, decode, render every view, and average per-view losses.

    Returns (loss Tensor, DecodedGaussians, per-view RenderOutput list).
    """
    head, _ = decode_sample(model, sample)

    render_config = render_config or rd.DEFAULT_CONFIG
    loss = None
    outputs = []
    for v, cam in enumerate(sample.cameras):
        node, out = rd.render_node(
            head.mu, head.quat, head.scale, head.opacity, head.color,
            cam, render_config,
        )
        pred_rgb = ad.narrow(node, 2, 0, 3)
        pred_depth = ad.reshape(ad.narrow(node, 2, 3, 1), sample.rgb[v].shape[:2])
        view_loss = reconstruction_loss(
            pred_rgb, pred_depth,
            sample.rgb[v], sample.dense_depth[v], sample.valid_mask[v], w,
        )
        loss = view_loss if loss is None else loss + view_loss
        outputs.append(out)
    return loss * (1.0 / sample.n_views), head, outputs


def pretrain_step(model, sample, opt_state, w, lr):
    """One optimization step; returns the scalar loss value."""
    model.store.zero_grad()
    loss, _, _ = forward(model, sample, w)
    value = float(loss.data)
    if not np.isfinite(value):
        diagnostics = {"lr": lr, "loss": value}
        raise PretrainDivergedError("non-finite loss", diagnostics)
    loss.backward()
    grad_norms = {
        name: float(np.linalg.norm(p.grad)) if p.grad is not None else 0.0
        for name, p in model.store.items()
    }
    if not all(np.isfinite(v) for v in grad_norms.values()):
        bad = sorted(n for n, v in grad_norms.items() if not np.isfinite(v))
        raise PretrainDivergedError(
            "non-finite gradients", {"lr": lr, "params": bad}
        )
    adamw_step(model.store, opt_state, lr)
    return value


def train_state_dict(model, opt):
    """Checkpoint payload: parameters plus optimizer moments and step count.

    Optimizer entries use the reserved ``opt.`` name prefix, which no model
    parameter uses, so `model_state` can split them back out.
    """
    state = model.store.state_dict()
    for name in model.store.names():
        zero = np.zeros_like(model.store[name].data)
        state[f"opt.m:{name}"] = opt.m.get(name, zero).copy()
        state[f"opt.v:{name}"] = opt.v.get(name, zero).copy()
    state["opt.step"] = np.array(opt.step, dtype=np.int64)
    return state


def model_state(state):
    """The parameter part of a checkpoint, with optimizer entries dropped."""
    return {k: v for k, v in state.items() if not k.startswith("opt.")}


def load_train_state(model, state):
    """Restore parameters + optimizer from a training checkpoint.

    Returns the rebuilt OptimizerState; training can continue from
    step ``opt.step + 1`` as if never interrupted.
    """
    if "opt.step" not in state:
        raise ValueError("checkpoint holds no optimizer state; cannot resume")
    model.store.load_state_dict(model_state(state))
    opt = OptimizerState(step=int(state["opt.step"]))
    opt.m = {
        k[len("opt.m:") :]: v.copy() for k, v in state.items()
        if k.startswith("opt.m:")
    }
    opt.v = {
        k[len("opt.v:") :]: v.copy() for k, v in state.items()
        if k.startswith("opt.v:")
    }
    return opt


def _open_log(log_path, start):
    """The loss log opened for appending the rows of steps start and on.

    A run from step 1 starts a new log. A resumed run keeps an existing
    log's header and its rows of the steps before start, so resuming into
    the run's own directory leaves the log an uninterrupted run writes.
    """
    if start == 1 or not os.path.exists(log_path):
        return open(log_path, "w", newline="")
    keep = 0
    with open(log_path, "r+b") as f:
        for i, line in enumerate(f):
            step = line.split(b",", 1)[0]
            earlier = line.endswith(b"\n") and step.isdigit() and int(step) < start
            if i > 0 and not earlier:
                break
            keep += len(line)
        f.truncate(keep)
    return open(log_path, "a", newline="")


def run_pretraining(
    model,
    samples,
    total_steps,
    warmup=500,
    peak_lr=2e-4,
    weight_decay=0.01,
    loss_weights=None,
    hflip_prob=0.0,
    seed=0,
    log_path=None,
    checkpoint_path=None,
    checkpoint_every=0,
    checkpoint_dir=None,
    callback=None,
    resume_state=None,
):
    """The training loop: scheduled AdamW over a cycle of baked samples.

    Writes `step,loss,lr` CSV rows when log_path is given (a resumed run
    keeps the rows of an existing log up to its checkpoint); emits SQSCKPT1
    training checkpoints (parameters + optimizer) every `checkpoint_every`
    steps and always at the end when checkpoint_path is given. When
    checkpoint_dir is also given, each periodic checkpoint is additionally
    kept as `<checkpoint_dir>/step<NNNNNN>.ckpt` so intermediate states
    survive the final save. Passing a loaded checkpoint as resume_state
    continues from its step with the optimizer intact, reproducing the
    uninterrupted run's remaining steps exactly: the flip decision is
    re-seeded per (seed, step), so it does not depend on how many steps
    this process has already taken. Returns the list of per-step losses.
    """
    w = loss_weights or LossWeights()
    if resume_state is not None:
        opt = load_train_state(model, resume_state)
        opt.weight_decay = weight_decay
        start = opt.step + 1
    else:
        opt = OptimizerState(weight_decay=weight_decay)
        start = 1
    losses = []
    log_file = _open_log(log_path, start) if log_path else None
    try:
        writer = None
        if log_file is not None:
            writer = csv.writer(log_file, lineterminator="\n")
            if log_file.tell() == 0:
                writer.writerow(["step", "loss", "lr"])
        for step in range(start, total_steps + 1):
            sample = samples[(step - 1) % len(samples)]
            flip = False
            if hflip_prob > 0.0:
                draw = np.random.default_rng((seed, step)).uniform()
                flip = bool(draw < hflip_prob)
            sample = horizontal_flip_augment(sample, flip)
            lr = lr_schedule(step, total_steps, warmup=warmup, peak=peak_lr)
            loss = pretrain_step(model, sample, opt, w, lr)
            losses.append(loss)
            if writer is not None:
                writer.writerow([step, repr(loss), repr(float(lr))])
            if (
                checkpoint_path
                and checkpoint_every > 0
                and step % checkpoint_every == 0
            ):
                if log_file is not None:
                    log_file.flush()  # a resume keeps the rows up to here
                state = train_state_dict(model, opt)
                save_checkpoint(checkpoint_path, state)
                if checkpoint_dir is not None:
                    os.makedirs(checkpoint_dir, exist_ok=True)
                    save_checkpoint(
                        os.path.join(checkpoint_dir, f"step{step:06d}.ckpt"), state
                    )
            if callback is not None:
                callback(step, loss, lr, model)
        if checkpoint_path:
            save_checkpoint(checkpoint_path, train_state_dict(model, opt))
    finally:
        if log_file is not None:
            log_file.close()
    return losses
