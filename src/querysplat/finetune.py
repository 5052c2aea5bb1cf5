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
from .config import DEFAULTS, InteractionConfig
from .decoder import _init_mlp2, _mlp2

logger = logging.getLogger(__name__)


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


# Query rows per block in knn_neighbors, in its scan and its full search:
# bounds their scratch at _KNN_CHUNK x N whatever the number of task queries.
# Its per-axis tables add one row of N per distinct coordinate on the axis.
_KNN_CHUNK = 128

# Query rows per block in neighbor_attention: bounds its gathered neighbour
# rows at _ATTEND_BLOCK x k x D whatever the number of task queries.
_ATTEND_BLOCK = 512


def knn_neighbors(task_positions, anchor_positions, k):
    """Indices of the k nearest anchors per task position, shape (M, k).

    Euclidean distance; ties broken by ascending anchor index.  With fewer
    than k anchors, the nearest one's index repeats to fill the row.

    Each axis gets a table of squared differences between the distinct task
    coordinates on it and the anchors' coordinates: a G^3 voxel grid has G
    per axis, at most M.  A row's squared distances are its gathered table
    rows added in axis order onto zeros, the same bits as summing
    (t - a)**2 over the last axis.  A bounded scan (_scan_columns) settles
    most rows from 8k anchors each; the rest go through the full search in
    blocks of _KNN_CHUNK rows.  There each row's k candidates come from a
    partial select and are then ordered by (distance, index); the rows
    whose k-th distance is tied with an anchor outside the candidates are
    ordered together by one sort of their entries not above it.  So the
    result equals a stable argsort of the squared distances bit for bit.
    """
    tp = np.asarray(task_positions, dtype=np.float64)
    ap = np.asarray(anchor_positions, dtype=np.float64)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if ap.ndim != 2 or ap.shape[0] == 0:
        raise ValueError("knn_neighbors requires at least one anchor")
    n = ap.shape[0]
    take = min(k, n)
    # np.unique merges 0.0 with -0.0 and NaN with NaN; both members of
    # each pair give the same squared difference to every anchor.
    tables = []
    for axis in range(ap.shape[1]):
        vals, inv = np.unique(tp[:, axis], return_inverse=True)
        diff = vals[:, None] - ap[None, :, axis]
        tables.append((diff * diff, inv))
    out = np.empty((tp.shape[0], take), dtype=np.intp)
    rest = np.arange(tp.shape[0])
    if n > 8 * k:
        rest = _scan_columns(tables, k, out)
    for lo in range(0, rest.size, _KNN_CHUNK):
        rows = rest[lo : lo + _KNN_CHUNK]
        d2 = np.zeros((rows.size, n))
        for table, inv in tables:
            d2 += table[inv[rows]]
        out[rows] = _k_smallest(d2, take)
    if n >= k:
        return out
    fill = np.repeat(out[:, :1], k - n, axis=1)
    return np.concatenate([out, fill], axis=1)


def _scan_columns(tables, k, out):
    """Write the k nearest anchors of the rows a bounded scan settles into
    out; return the other rows, ascending.  Needs more than 8k anchors.

    Rows that share their coordinates on every axis but the last form a
    column, and share its partial squared distances p: those axes' table
    rows added onto zeros.  The column's scan set is its 8k anchors of
    smallest p, and its bound b the next smallest p.  A row's distances over
    the scan set are p plus its last-axis table row, the floats the full
    search computes.  Every anchor outside the scan set is at a distance of
    at least p >= b, since a square is never negative.  So a row is settled
    when exactly k scanned distances are at or below its k-th one and that
    one is below b: those k, ordered by (distance, index), are its nearest.
    A tie at the k-th distance or at the bound, or a NaN, leaves it to the
    full search.  Rows go in blocks of _KNN_CHUNK, sorted by column.
    """
    *head, (last, last_inv) = tables
    n, m = last.shape[1], 8 * k
    col = np.zeros(last_inv.shape[0], dtype=np.intp)
    for table, inv in head:
        col = col * table.shape[0] + inv
    order = np.argsort(col, kind="stable")
    settled = np.zeros(col.shape[0], dtype=bool)
    for lo in range(0, order.size, _KNN_CHUNK):
        rows = order[lo : lo + _KNN_CHUNK]
        new = np.ones(rows.size, dtype=bool)
        new[1:] = col[rows[1:]] != col[rows[:-1]]
        which = np.cumsum(new) - 1  # each row's column within the block
        p = np.zeros((int(new.sum()), n))
        for table, inv in head:
            p += table[inv[rows[new]]]
        part = np.argpartition(p, m, axis=1)
        bound = p[which, part[which, m]]
        # Ascending anchor index, so each row's hits come in index order.
        scan = np.sort(part[:, :m], axis=1)
        near = np.take_along_axis(p, scan, axis=1)[which]
        scan = scan[which]
        near += np.take(last, last_inv[rows][:, None] * n + scan)
        kth = np.partition(near, k - 1, axis=1)[:, k - 1 : k]
        hit = near <= kth
        ok = (hit.sum(axis=1) == k) & (kth[:, 0] < bound)
        flat = np.flatnonzero(hit & ok[:, None])
        pick, dist = scan.take(flat).reshape(-1, k), near.take(flat).reshape(-1, k)
        by_dist = np.argsort(dist, axis=1, kind="stable")
        out[rows[ok]] = np.take_along_axis(pick, by_dist, axis=1)
        settled[rows[ok]] = True
    return np.flatnonzero(~settled)


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
    tied = np.flatnonzero((d2 <= kth).sum(axis=1) != k)
    # A tied row's k smallest are among its values not above the k-th one
    # (all of them if that is NaN), and NaN sorts last: one sort of those by
    # (row, value, index) orders every tied row as its stable argsort would.
    sub = d2[tied]
    rows, cols = np.nonzero(~(sub > kth[tied]))
    order = np.lexsort((cols, sub[rows, cols], rows))
    starts = np.searchsorted(rows, np.arange(tied.size))
    idx[tied] = cols[order[starts[:, None] + np.arange(k)]]
    return idx


def local_query_interaction(positions, features, anchors, anchor_features, store, neighbors):
    """Update the (M, D_t) task-query features from their nearest anchors
    (one attention head); returns the updated features.

    Query side is q_t + MLP(mu_t) with mu_t the (M, 3) positions; key/value
    side is adapter(q_k) + MLP(g_k) with g_k the full decoded anchor row.
    neighbors is the (M, k) table knn_neighbors returns for these positions
    and anchors.  The attended value is projected and added residually to
    q_t.  Anchors and their features enter as constants, so gradients reach
    only the block's own parameters and the task queries.  With zero anchors
    the features are returned unchanged.
    """
    anchors = np.asarray(anchors, dtype=np.float64)
    anchor_features = np.asarray(anchor_features, dtype=np.float64)
    if anchors.shape[0] == 0:
        logger.warning(
            "no anchors passed the opacity filter; "
            "query interaction is an identity pass-through"
        )
        return features
    adapter = store["task.interact.adapter.w"]
    if anchor_features.shape[1] != adapter.data.shape[0]:
        raise ValueError(
            f"anchor feature dim {anchor_features.shape[1]} does not match "
            f"the interaction adapter input dim {adapter.data.shape[0]}"
        )
    q = features + _mlp2(store, "task.interact.pos", ad.constant(positions))
    kv = ad.matmul(ad.constant(anchor_features), adapter) + _mlp2(
        store, "task.interact.gk", ad.constant(anchors)
    )
    attended = neighbor_attention(q, kv, neighbors)
    update = ad.matmul(attended, store["task.interact.out.w"])
    return features + update


def neighbor_attention(q, kv, neigh):
    """Softmax attention of each query row over its own neighbour rows of kv.

    Row i attends to kv[neigh[i]] with weights softmax_j(q_i . kv_j / sqrt(D))
    and returns their weighted sum, shape (M, D).  One tape node: the
    backward is analytic.  The forward and the VJP each gather the
    neighbour rows _ATTEND_BLOCK query rows at a time, so the (M, k, D)
    array never exists and the node keeps only the (M, k) weights; each row
    is computed by the same operations as a whole-array pass, so the bits
    do not depend on the block.  The kv cotangent is built one channel at a
    time: the channel's M*k products w_ij g_ic + gs_ij q_ic go through one
    bincount over the neighbour table, which adds them per anchor in the
    same (i, j) order as scattering the (M, k, D) products would, so the
    bits are the same without that array or its per-channel keys.
    """
    qd, kvd = q.data, kv.data
    (m, d), k = qd.shape, neigh.shape[1]
    scale = 1.0 / np.sqrt(d)
    blocks = [slice(lo, lo + _ATTEND_BLOCK) for lo in range(0, m, _ATTEND_BLOCK)]
    w, out = np.empty((m, k)), np.empty((m, d))
    for rows in blocks:
        kn = kvd[neigh[rows]]  # (rows, k, D)
        scores = np.einsum("md,mkd->mk", qd[rows], kn) * scale
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        w[rows] = e / e.sum(axis=1, keepdims=True)
        out[rows] = np.einsum("mk,mkd->md", w[rows], kn)

    def vjp(g):
        gq, gs = np.empty((m, d)), np.empty((m, k))
        for rows in blocks:
            kn, wb = kvd[neigh[rows]], w[rows]
            gw = np.einsum("md,mkd->mk", g[rows], kn)
            gs[rows] = wb * (gw - (gw * wb).sum(axis=1, keepdims=True)) * scale
            gq[rows] = np.einsum("mk,mkd->md", gs[rows], kn)
        n = kvd.shape[0]
        flat, wf, sf = neigh.reshape(-1), w.reshape(-1), gs.reshape(-1)
        # Channel-major copies make each channel's rows contiguous.
        gt, qt = np.ascontiguousarray(g.T), np.ascontiguousarray(qd.T)
        gkv = np.empty(kvd.shape)
        for c in range(gkv.shape[1]):
            row = np.repeat(gt[c], k) * wf
            row += np.repeat(qt[c], k) * sf
            gkv[:, c] = np.bincount(flat, row, n)
        return gq, gkv

    return ad.custom((q, kv), out, vjp, name="neighbor_attention")


def occupancy_head(features, grid_shape, store):
    """Map each task query's features to {empty, occupied} logits, shape (G^3, 2).

    Row order matches the C-order flattening of the (G, G, G) voxel grid.
    """
    g = int(grid_shape)
    m = features.data.shape[0]
    if m != g**3:
        raise ValueError(f"expected {g**3} queries for a {g}^3 grid, got {m}")
    return _mlp2(store, "task.head", features)


def voxel_centers(bounds, grid):
    """Centers of a grid^3 voxelization of bounds, C-order, shape (G^3, 3)."""
    bounds = np.asarray(bounds, dtype=np.float64).reshape(2, 3)
    g = int(grid)
    size = (bounds[1] - bounds[0]) / g
    axes = [bounds[0, d] + (np.arange(g) + 0.5) * size[d] for d in range(3)]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    return np.stack([gx, gy, gz], axis=-1).reshape(-1, 3)


def make_ground_truth_grid(scene, grid):
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


def build_task_model(bounds, *, grid, d_task, d_pre, cfg=None, seed=0):
    """Task queries at voxel centers plus interaction-block and head params.

    The output projection starts at zero, so the interaction block is an
    exact identity at initialization and the head sees the same features
    with or without it; the block departs from identity as training moves
    the projection. With seed None nothing is drawn (see `ad.init_rng`),
    for a model that a checkpoint then fills.
    """
    cfg = cfg or InteractionConfig()
    bounds = np.asarray(bounds, dtype=np.float64).reshape(2, 3)
    if not np.all(bounds[1] > bounds[0]):
        raise ValueError(f"degenerate bounds: {bounds.tolist()}")
    g = int(grid)
    if g < 1:
        raise ValueError(f"grid must be >= 1, got {grid}")
    positions = voxel_centers(bounds, g)

    rng = ad.init_rng(seed)
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
    return TaskModel(store=store, positions=positions, cfg=cfg, grid=g)


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
    features = task.store["task.queries"]
    if use_interaction:
        anchors, feats, neigh = _interaction_inputs(task, frozen)
        features = local_query_interaction(
            task.positions, features, anchors, feats, task.store, neigh
        )
    return occupancy_head(features, task.grid, task.store)


def finetune_step(task, frozen, gt_grid, opt_state, lr,
                  use_interaction=DEFAULTS["finetune"]["use_interaction"]):
    """One cross-entropy step on the task parameters; returns the loss.

    The frozen inference enters as constants, so only the task store is
    touched by the update. A non-finite loss or gradient raises
    pt.PretrainDivergedError before any parameter moves.
    """
    gt = np.asarray(gt_grid)
    if gt.shape != (task.grid,) * 3:
        raise ValueError(
            f"ground-truth grid shape {gt.shape} does not match {(task.grid,) * 3}"
        )
    task.store.zero_grad()
    logits = _task_logits(task, frozen, use_interaction)
    loss = ad.cross_entropy(logits, gt.reshape(-1).astype(np.int64))
    return pt.guarded_update(task.store, loss, opt_state, lr)


def predict_occupancy(task, frozen, use_interaction=DEFAULTS["finetune"]["use_interaction"]):
    """Argmax class per voxel, shape (G, G, G)."""
    logits = _task_logits(task, frozen, use_interaction)
    return np.argmax(logits.data, axis=1).reshape((task.grid,) * 3)


def run_finetuning(
    task,
    pretrained,
    samples,
    scenes,
    total_steps,
    lr=DEFAULTS["finetune"]["lr"],
    use_interaction=DEFAULTS["finetune"]["use_interaction"],
    weight_decay=DEFAULTS["finetune"]["weight_decay"],
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
        save_checkpoint(checkpoint_path, {n: p.data for n, p in task.store.items()})
    return history
