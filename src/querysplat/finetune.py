"""Downstream transfer: frozen splat inference feeding a toy occupancy task.

The pre-trained model is run once, read-only, to produce decoded Gaussian
anchors and their final query features.  Anchors below an opacity threshold
are dropped; the survivors act as a sparse scene summary.  Task queries —
one per voxel center of a G^3 grid — pull information from their k nearest
anchors through a single-head local attention block, and a small head maps
each query to {empty, occupied} logits.  Only the interaction block, the
task queries, and the head train; the pre-trained parameters never change.

Anchor rows are the decoded Gaussian parameters in the raw anchors' column
layout, decoder.ANCHOR_COLUMNS: its "pos" group holds the mean mu.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import decoder as dec
from . import pretrain as pt
from .checkpoint import save_checkpoint
from .decoder import _init_mlp2, _mlp2

logger = logging.getLogger(__name__)


@dataclass
class TaskQuerySet:
    """Per-voxel task queries: fixed positions plus learnable features."""

    positions: np.ndarray  # (M, 3) world meters
    features: ad.Tensor  # (M, D_t)

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ValueError(
                f"positions must be (M, 3), got {self.positions.shape}"
            )
        if not isinstance(self.features, ad.Tensor):
            self.features = ad.constant(np.asarray(self.features, dtype=np.float64))
        if (
            self.features.data.ndim != 2
            or self.features.data.shape[0] != self.positions.shape[0]
        ):
            raise ValueError(
                f"features {self.features.data.shape} do not match "
                f"{self.positions.shape[0]} positions"
            )


@dataclass
class InteractionConfig:
    """Knobs for the anchor-to-task-query attention block."""

    k: int = 8
    alpha_thresh: float = 0.05
    pe_hidden: int = 64

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not 0.0 <= self.alpha_thresh <= 1.0:
            raise ValueError(
                f"alpha_thresh must be in [0, 1], got {self.alpha_thresh}"
            )
        if self.pe_hidden < 1:
            raise ValueError(f"pe_hidden must be >= 1, got {self.pe_hidden}")


@dataclass
class FrozenInference:
    """Detached product of one read-only pre-trained forward pass.

    Treat it as read-only: the opacity-filtered anchors and the neighbour
    table a task derives from it are memoised on it (see _interaction_inputs).
    """

    anchors: np.ndarray  # (N, ANCHOR_DIM) decoded, in ANCHOR_COLUMNS layout
    features: np.ndarray  # (N, D) final query features
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def infer_frozen(model, sample):
    """Run the pre-trained encoder + decoder on a sample, detached.

    The result is plain numpy: nothing downstream can backpropagate into
    the pre-trained parameters, which implements the freeze contract.
    """
    head, working = pt.decode_sample(model, sample)
    anchors = np.empty((head.mu.data.shape[0], dec.ANCHOR_DIM))
    for group, (_, width) in dec.ANCHOR_COLUMNS.items():
        value = head.mu if group == "pos" else getattr(head, group)
        anchors[:, dec.anchor_slice(group)] = value.data.reshape(-1, width)
    return FrozenInference(anchors=anchors, features=working.features.data.copy())


def filter_by_opacity(gaussians, features, alpha_thresh):
    """Keep anchors with opacity >= alpha_thresh, preserving order.

    An empty result is returned as zero-row arrays; the interaction block
    treats that as its identity pass-through mode.
    """
    g = np.asarray(gaussians, dtype=np.float64)
    f = np.asarray(features, dtype=np.float64)
    if g.ndim != 2 or g.shape[1] != dec.ANCHOR_DIM:
        raise ValueError(
            f"gaussians must be (N, {dec.ANCHOR_DIM}), got {g.shape}"
        )
    if f.ndim != 2 or f.shape[0] != g.shape[0]:
        raise ValueError(
            f"features {f.shape} do not match {g.shape[0]} gaussians"
        )
    keep = g[:, dec.ANCHOR_COLUMNS["opacity"][0]] >= alpha_thresh
    return g[keep], f[keep]


# Query rows per distance block in knn_neighbors: bounds its scratch memory
# at _KNN_CHUNK x N distances whatever the number of task queries.
_KNN_CHUNK = 128


def knn_neighbors(task_positions, anchor_positions, k):
    """Indices of the k nearest anchors per task position, shape (M, k).

    Euclidean distance; ties broken by ascending anchor index.  With fewer
    than k anchors, the nearest one's index repeats to fill the row.

    Rows are processed in blocks of _KNN_CHUNK.  Each row's k candidates
    come from a partial select and are then ordered by (distance, index);
    a row whose k-th distance is tied with an anchor outside the candidates
    falls back to a full stable sort, so the result equals a stable argsort
    of the squared distances bit for bit.
    """
    tp = np.asarray(task_positions, dtype=np.float64)
    ap = np.asarray(anchor_positions, dtype=np.float64)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if ap.ndim != 2 or ap.shape[0] == 0:
        raise ValueError("knn_neighbors requires at least one anchor")
    n = ap.shape[0]
    take = min(k, n)
    out = np.empty((tp.shape[0], take), dtype=np.intp)
    for lo in range(0, tp.shape[0], _KNN_CHUNK):
        rows = tp[lo : lo + _KNN_CHUNK]
        # One axis at a time: the same bits as summing the squared
        # differences over the last axis.
        d2 = np.zeros((rows.shape[0], n))
        for axis in range(ap.shape[1]):
            diff = rows[:, axis, None] - ap[None, :, axis]
            d2 += diff * diff
        out[lo : lo + rows.shape[0]] = _k_smallest(d2, take)
    if n >= k:
        return out
    fill = np.repeat(out[:, :1], k - n, axis=1)
    return np.concatenate([out, fill], axis=1)


def _k_smallest(d2, k):
    """Per row, the indices of the k smallest values by (value, index)."""
    if k == d2.shape[1]:
        return np.argsort(d2, axis=1, kind="stable")
    part = np.argpartition(d2, k - 1, axis=1)[:, :k]
    dist = np.take_along_axis(d2, part, axis=1)
    idx = np.take_along_axis(part, np.lexsort((part, dist), axis=1), axis=1)
    # Exactly k values at or below the k-th one make the candidates the
    # unique k smallest; otherwise (a tie at the boundary, or NaN) the
    # partial select may have picked the wrong index among equals.
    kth = np.take_along_axis(d2, part[:, k - 1 : k], axis=1)
    for r in np.flatnonzero((d2 <= kth).sum(axis=1) != k):
        idx[r] = np.argsort(d2[r], kind="stable")[:k]
    return idx


def local_query_interaction(tq, anchors, anchor_features, cfg, store, neighbors=None):
    """Update task queries from their k nearest anchors (one attention head).

    Query side is q_t + MLP(mu_t); key/value side is adapter(q_k) + MLP(g_k)
    with g_k the full decoded anchor row.  The attended value is projected
    and added residually to q_t.  Anchors and their features enter as
    constants, so gradients reach only the block's own parameters and the
    task queries.  With zero anchors the input is returned unchanged.
    neighbors, if given, is the (M, k) table knn_neighbors returns for these
    positions and anchors, which is then not looked up again.
    """
    anchors = np.asarray(anchors, dtype=np.float64)
    anchor_features = np.asarray(anchor_features, dtype=np.float64)
    if anchors.shape[0] == 0:
        logger.warning(
            "no anchors passed the opacity filter; "
            "query interaction is an identity pass-through"
        )
        return tq
    adapter = store["task.interact.adapter.w"]
    if anchor_features.shape[1] != adapter.data.shape[0]:
        raise ValueError(
            f"anchor feature dim {anchor_features.shape[1]} does not match "
            f"the interaction adapter input dim {adapter.data.shape[0]}"
        )
    if neighbors is None:
        mu = anchors[:, dec.anchor_slice("pos")]
        neighbors = knn_neighbors(tq.positions, mu, cfg.k)
    q = tq.features + _mlp2(store, "task.interact.pos", ad.constant(tq.positions))
    kv = ad.matmul(ad.constant(anchor_features), adapter) + _mlp2(
        store, "task.interact.gk", ad.constant(anchors)
    )
    attended = neighbor_attention(q, kv, neighbors)
    update = ad.matmul(attended, store["task.interact.out.w"])
    return TaskQuerySet(positions=tq.positions, features=tq.features + update)


def neighbor_attention(q, kv, neigh):
    """Softmax attention of each query row over its own neighbour rows of kv.

    Row i attends to kv[neigh[i]] with weights softmax_j(q_i . kv_j / sqrt(D))
    and returns their weighted sum, shape (M, D).  One tape node: the
    backward is analytic, and the kv cotangent is scattered back to the
    rows it was gathered from.
    """
    qd = q.data
    kn = kv.data[neigh]  # (M, k, D)
    scale = 1.0 / np.sqrt(qd.shape[1])
    scores = np.einsum("md,mkd->mk", qd, kn) * scale
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    w = e / e.sum(axis=1, keepdims=True)
    out = np.einsum("mk,mkd->md", w, kn)

    def vjp(g):
        gw = np.einsum("md,mkd->mk", g, kn)
        gs = w * (gw - (gw * w).sum(axis=1, keepdims=True)) * scale
        gq = np.einsum("mk,mkd->md", gs, kn)
        gkn = w[:, :, None] * g[:, None, :] + gs[:, :, None] * qd[:, None, :]
        return gq, ad._index_add(kv.data.shape, neigh, gkn)

    return ad.custom((q, kv), out, vjp, name="neighbor_attention")


def occupancy_head(tq, grid_shape, store):
    """Map each task query to {empty, occupied} logits, shape (G^3, 2).

    Row order matches the C-order flattening of the (G, G, G) voxel grid.
    """
    g = int(grid_shape)
    m = tq.features.data.shape[0]
    if m != g**3:
        raise ValueError(f"expected {g**3} queries for a {g}^3 grid, got {m}")
    return _mlp2(store, "task.head", tq.features)


def voxel_centers(bounds, grid):
    """Centers of a grid^3 voxelization of bounds, C-order, shape (G^3, 3)."""
    bounds = np.asarray(bounds, dtype=np.float64).reshape(2, 3)
    g = int(grid)
    size = (bounds[1] - bounds[0]) / g
    axes = [bounds[0, d] + (np.arange(g) + 0.5) * size[d] for d in range(3)]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    return np.stack([gx, gy, gz], axis=-1).reshape(-1, 3)


def make_ground_truth_grid(scene, grid=16):
    """Binary occupancy on a grid^3 voxelization of the scene bounds.

    A voxel is occupied iff some scene Gaussian with opacity > 0.5 has its
    mean inside it.  Means exactly on the upper bound land in the last voxel.
    """
    g = int(grid)
    lo, hi = scene.bounds[0], scene.bounds[1]
    size = (hi - lo) / g
    occ = np.zeros((g, g, g), dtype=np.int64)
    mu, opacity = scene.gaussians.mu, scene.gaussians.opacity
    keep = (opacity > 0.5) & ~np.any((mu < lo) | (mu > hi), axis=1)
    idx = np.minimum(((mu[keep] - lo) / size).astype(np.int64), g - 1)
    occ[idx[:, 0], idx[:, 1], idx[:, 2]] = 1
    return occ


def evaluate_iou(pred_grid, gt_grid):
    """Per-class IoU and their mean over the classes present anywhere.

    A class absent from both grids is excluded from the mean; a counted
    class with an empty union scores 0.
    """
    pred = np.asarray(pred_grid)
    gt = np.asarray(gt_grid)
    if pred.shape != gt.shape:
        raise ValueError(
            f"prediction shape {pred.shape} does not match {gt.shape}"
        )
    per_class = {}
    for c in (0, 1):
        p = pred == c
        t = gt == c
        if not p.any() and not t.any():
            continue
        union = int(np.logical_or(p, t).sum())
        inter = int(np.logical_and(p, t).sum())
        per_class[c] = inter / union if union else 0.0
    miou = float(np.mean(list(per_class.values()))) if per_class else 0.0
    return per_class, miou


@dataclass
class TaskModel:
    """Trainable occupancy task: its parameter store and query layout."""

    store: ad.ParamStore
    positions: np.ndarray  # (G^3, 3) voxel centers
    cfg: InteractionConfig
    grid: int
    bounds: np.ndarray = field(default=None)


def build_task_model(bounds, grid=16, cfg=None, d_task=64, d_pre=64, seed=0):
    """Task queries at voxel centers plus interaction-block and head params.

    The output projection starts at zero, so the interaction block is an
    exact identity at initialization and the head sees the same features
    with or without it; the block departs from identity as training moves
    the projection.
    """
    cfg = cfg or InteractionConfig()
    bounds = np.asarray(bounds, dtype=np.float64).reshape(2, 3)
    if not np.all(bounds[1] > bounds[0]):
        raise ValueError(f"degenerate bounds: {bounds.tolist()}")
    g = int(grid)
    if g < 1:
        raise ValueError(f"grid must be >= 1, got {grid}")
    positions = voxel_centers(bounds, g)

    rng = np.random.default_rng(seed)
    store = ad.ParamStore()
    store.param("task.queries", rng.normal(size=(g**3, d_task)) * 0.02)
    _init_mlp2(store, rng, "task.interact.pos", 3, cfg.pe_hidden, d_task)
    _init_mlp2(store, rng, "task.interact.gk", dec.ANCHOR_DIM, cfg.pe_hidden, d_task)
    store.param(
        "task.interact.adapter.w",
        rng.normal(size=(d_pre, d_task)) * np.sqrt(1.0 / d_pre),
    )
    store.param("task.interact.out.w", np.zeros((d_task, d_task)))
    _init_mlp2(store, rng, "task.head", d_task, cfg.pe_hidden, 2)
    return TaskModel(store=store, positions=positions, cfg=cfg, grid=g, bounds=bounds)


def _interaction_inputs(task, frozen):
    """Opacity-filtered anchors, their features and the (M, k) neighbour table.

    They depend only on the frozen inference and on the task's fixed
    positions, k and alpha_thresh, so they are computed once per scene and
    memoised on the frozen inference, keyed by those values.
    """
    cfg, positions = task.cfg, task.positions
    key = (cfg.k, cfg.alpha_thresh, positions.shape, positions.tobytes())
    if key not in frozen._memo:
        anchors, feats = filter_by_opacity(
            frozen.anchors, frozen.features, cfg.alpha_thresh
        )
        neigh = None
        if anchors.shape[0]:
            mu = anchors[:, dec.anchor_slice("pos")]
            neigh = knn_neighbors(positions, mu, cfg.k)
        frozen._memo[key] = (anchors, feats, neigh)
    return frozen._memo[key]


def _task_logits(task, frozen, use_interaction):
    """Forward pass from stored task queries to per-voxel logits."""
    tq = TaskQuerySet(positions=task.positions, features=task.store["task.queries"])
    if use_interaction:
        anchors, feats, neigh = _interaction_inputs(task, frozen)
        tq = local_query_interaction(tq, anchors, feats, task.cfg, task.store, neigh)
    return occupancy_head(tq, task.grid, task.store)


def finetune_step(task, frozen, gt_grid, opt_state, lr, use_interaction=True):
    """One cross-entropy step on the task parameters; returns the loss.

    The frozen inference enters as constants, so only the task store is
    touched by the update.
    """
    gt = np.asarray(gt_grid)
    if gt.shape != (task.grid,) * 3:
        raise ValueError(
            f"ground-truth grid shape {gt.shape} does not match {(task.grid,) * 3}"
        )
    task.store.zero_grad()
    logits = _task_logits(task, frozen, use_interaction)
    loss = ad.cross_entropy(logits, gt.reshape(-1).astype(np.int64))
    loss.backward()
    pt.adamw_step(task.store, opt_state, lr)
    return float(loss.data)


def predict_occupancy(task, frozen, use_interaction=True):
    """Argmax class per voxel, shape (G, G, G)."""
    logits = _task_logits(task, frozen, use_interaction)
    return np.argmax(logits.data, axis=1).reshape((task.grid,) * 3)


def run_finetuning(
    task,
    pretrained,
    samples,
    scenes,
    total_steps,
    lr=1e-3,
    use_interaction=True,
    weight_decay=0.01,
    log_path=None,
    checkpoint_path=None,
):
    """Train the task model over a cycle of scenes' occupancy grids.

    The pre-trained forward pass runs once per scene up front — it is
    frozen, so its output is the same every step.  The opacity filter and
    the k-NN lookup also run once per scene, at its first step.  Returns
    one metrics dict per step with keys step, loss, iou_occupied, miou
    (scored on that step's scene); the same rows go to the CSV at log_path
    when given.
    """
    if len(samples) != len(scenes) or not scenes:
        raise ValueError(
            f"need matching non-empty sample/scene lists, "
            f"got {len(samples)} and {len(scenes)}"
        )
    frozen = [infer_frozen(pretrained, s) for s in samples]
    grids = [make_ground_truth_grid(s, task.grid) for s in scenes]
    opt_state = pt.OptimizerState(weight_decay=weight_decay)

    log_file = None
    writer = None
    if log_path is not None:
        log_file = open(log_path, "w", newline="")
        writer = csv.writer(log_file, lineterminator="\n")
        writer.writerow(["step", "loss", "iou_occupied", "miou"])

    history = []
    try:
        for step in range(1, total_steps + 1):
            i = (step - 1) % len(scenes)
            loss = finetune_step(
                task, frozen[i], grids[i], opt_state, lr, use_interaction
            )
            pred = predict_occupancy(task, frozen[i], use_interaction)
            per_class, miou = evaluate_iou(pred, grids[i])
            iou_occ = per_class.get(1, 0.0)
            history.append(
                {"step": step, "loss": loss, "iou_occupied": iou_occ, "miou": miou}
            )
            if writer is not None:
                writer.writerow([step, repr(loss), repr(iou_occ), repr(miou)])
    finally:
        if log_file is not None:
            log_file.close()
    if checkpoint_path is not None:
        save_checkpoint(checkpoint_path, task.store.state_dict())
    return history
