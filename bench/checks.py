"""Correctness checks, each against a computation made apart from the program
or against a property the method must have. None compares against stored
output.

Every check returns ``None`` when it holds and a one-line reason when it
does not, so a run can report all failures at once.
"""

import csv

import numpy as np

import querysplat.pretrain as pt
import querysplat.renderer as rd

# Criterion 1: tiled render equals the brute-force reference within 1e-6.
RENDER_TOL = 1e-6
# Relative error allowed between a central difference and the tape gradient.
GRAD_TOL = 1e-4
# Central-difference steps. Voxel assignment and the depth sort make the loss
# piecewise smooth, and a step straddles a jump with odds in proportion to its
# size; the check takes the best agreement over a small step and a smaller
# one, which a wrong gradient fails at every step.
FD_STEPS = (1e-7, 1e-8)


# ---------------------------------------------------------------------------
# Pre-training
# ---------------------------------------------------------------------------


def masked_l1(rgb, depth, sample, w):
    """The paper's loss in NumPy: per view, mean |rgb error| over every pixel
    and channel plus w_depth times mean |depth error| over valid pixels;
    averaged over views."""
    total = 0.0
    for v in range(sample.n_views):
        term = w.w_rgb * np.abs(rgb[v] - sample.rgb[v]).mean()
        mask = sample.valid_mask[v]
        if mask.any():
            term += w.w_depth * np.abs(depth[v] - sample.dense_depth[v])[mask].mean()
        total += term
    return total / sample.n_views


def loss_error(outputs, sample, reported, w):
    mine = masked_l1([o.rgb for o in outputs], [o.depth for o in outputs], sample, w)
    if not np.isclose(mine, reported, rtol=1e-10, atol=1e-12):
        return f"loss recomputed from the renders is {mine!r}, the program reports {reported!r}"
    return None


def head_arrays(head):
    return {
        "mu": head.mu.data, "quat": head.quat.data, "scale": head.scale.data,
        "opacity": head.opacity.data, "color": head.color.data,
    }


def render_error(outputs, head, cameras):
    """Training renders against the brute-force reference renderer."""
    arrays = head_arrays(head)
    worst = 0.0
    for out, cam in zip(outputs, cameras):
        ref = rd.render_reference(arrays, cam)
        worst = max(
            worst,
            float(np.abs(out.rgb - ref.rgb).max()),
            float(np.abs(out.depth - ref.depth).max()),
        )
    if worst > RENDER_TOL:
        return f"training render differs from the reference by {worst:.3e} > {RENDER_TOL}"
    return None


def directional_derivative_error(model, sample, w, seed, name="queries.anchors"):
    """Central difference of the loss along a seeded random direction over
    one parameter, against the tape gradient projected on that direction.
    Thresholds are off so the loss is smooth. Returns the relative error."""
    cfg = rd.check_config()
    param = model.store[name]
    base = param.data.copy()
    direction = np.random.default_rng(seed).normal(size=base.shape)
    direction /= np.linalg.norm(direction)

    def loss_at(data):
        param.data = data
        loss, _, _ = pt.forward(model, sample, w, render_config=cfg)
        return loss

    try:
        model.store.zero_grad()
        loss = loss_at(base)
        loss.backward()
        analytic = float((param.grad * direction).sum())
        errors = []
        for h in FD_STEPS:
            plus = float(loss_at(base + h * direction).data)
            minus = float(loss_at(base - h * direction).data)
            numeric = (plus - minus) / (2.0 * h)
            errors.append(abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-12))
    finally:
        param.data = base
        model.store.zero_grad()
    return min(errors)


def gradient_error(model, sample, w, seed):
    err = directional_derivative_error(model, sample, w, seed)
    if not err <= GRAD_TOL:
        return f"directional derivative disagrees with the tape gradient: rel err {err:.3e}"
    return None


def cycle_means(losses, period):
    """Mean loss over the first and over the last whole cycle of scenes."""
    return float(np.mean(losses[:period])), float(np.mean(losses[-period:]))


def learning_error(losses, period, what):
    first, last = cycle_means(losses, period)
    if not last < first:
        return f"{what} loss did not fall: first cycle {first:.6f}, last cycle {last:.6f}"
    return None


def log_error(path, losses):
    """The loss log holds one row per step with the returned loss."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if rows[0] != ["step", "loss", "lr"] or len(rows) != len(losses) + 1:
        return f"loss log {path} has {len(rows) - 1} rows for {len(losses)} steps"
    for i, (row, loss) in enumerate(zip(rows[1:], losses), start=1):
        if int(row[0]) != i or float(row[1]) != loss:
            return f"loss log row {i} is {row}, the run returned {loss!r}"
    return None


# ---------------------------------------------------------------------------
# Fine-tuning
# ---------------------------------------------------------------------------


def knn_error(task_positions, anchor_positions, neighbours, k):
    """Chosen neighbours are k distinct anchors with the k smallest distances."""
    tp = np.asarray(task_positions, dtype=np.float64)
    ap = np.asarray(anchor_positions, dtype=np.float64)
    neighbours = np.asarray(neighbours)
    if neighbours.shape != (tp.shape[0], k):
        return f"neighbour table has shape {neighbours.shape}, want {(tp.shape[0], k)}"
    for row in range(tp.shape[0]):
        dist = np.sqrt(((ap - tp[row]) ** 2).sum(axis=1))
        chosen = neighbours[row]
        if ap.shape[0] >= k and len(set(chosen.tolist())) != k:
            return f"task query {row}: repeated neighbours {chosen.tolist()}"
        kth = np.partition(dist, k - 1)[k - 1] if ap.shape[0] >= k else dist.max()
        if dist[chosen].max() > kth * (1.0 + 1e-12):
            return (
                f"task query {row}: a chosen neighbour lies at {dist[chosen].max():.6f}, "
                f"beyond the k-th smallest distance {kth:.6f}"
            )
    return None


def voxelize(scene, grid):
    """Occupied voxels of a grid^3 over the scene bounds: a voxel holds a
    Gaussian of opacity above 0.5 whose mean lies in it (upper faces close
    the last voxel)."""
    lo, hi = scene.bounds
    occ = np.zeros((grid,) * 3, dtype=np.int64)
    for g in scene.gaussians:
        if g.opacity <= 0.5 or np.any(g.mu < lo) or np.any(g.mu > hi):
            continue
        cell = np.floor((g.mu - lo) / (hi - lo) * grid).astype(int)
        occ[tuple(np.minimum(cell, grid - 1))] = 1
    return occ


def iou(pred, truth):
    """(IoU of the occupied class, mean IoU over classes present anywhere)."""
    scores = {}
    for c in (0, 1):
        p, t = pred == c, truth == c
        union = np.logical_or(p, t).sum()
        if union:
            scores[c] = np.logical_and(p, t).sum() / union
    miou = float(np.mean(list(scores.values()))) if scores else 0.0
    return float(scores.get(1, 0.0)), miou


def iou_error(pred, scene, grid, reported_iou, reported_miou):
    mine = iou(np.asarray(pred), voxelize(scene, grid))
    if not np.allclose(mine, (reported_iou, reported_miou), rtol=0, atol=1e-12):
        return f"IoU recomputed is {mine}, the program reports {(reported_iou, reported_miou)}"
    return None


def state_bytes(store):
    return {name: t.data.tobytes() for name, t in store.items()}


def frozen_error(before, after):
    changed = sorted(n for n in before if before[n] != after.get(n))
    if changed or set(before) != set(after):
        return f"fine-tuning changed pre-trained parameters: {changed[:5]}"
    return None


# ---------------------------------------------------------------------------
# Files written by the CLI
# ---------------------------------------------------------------------------


def _header(data, n_fields):
    """Split a PNM-style ASCII header of n whitespace-separated fields."""
    fields, pos = [], 0
    while len(fields) < n_fields:
        while data[pos:pos + 1].isspace():
            pos += 1
        end = pos
        while not data[end:end + 1].isspace():
            end += 1
        fields.append(data[pos:end].decode("ascii"))
        pos = end
    return fields, pos + 1  # one whitespace byte ends the header


def parse_ppm(path):
    """(width, height, uint8 array (height, width, 3)) of a binary P6 file."""
    with open(path, "rb") as f:
        data = f.read()
    (magic, w, h, maxval), pos = _header(data, 4)
    if magic != "P6" or maxval != "255":
        raise ValueError(f"{path}: not an 8-bit P6 PPM")
    w, h = int(w), int(h)
    pixels = np.frombuffer(data, dtype=np.uint8, count=w * h * 3, offset=pos)
    return w, h, pixels.reshape(h, w, 3)


def parse_pfm(path):
    """(width, height, float32 array (height, width), top row first)."""
    with open(path, "rb") as f:
        data = f.read()
    (magic, w, h, scale), pos = _header(data, 4)
    if magic != "Pf":
        raise ValueError(f"{path}: not a grayscale PFM")
    w, h = int(w), int(h)
    dtype = "<f4" if float(scale) < 0 else ">f4"
    values = np.frombuffer(data, dtype=dtype, count=w * h, offset=pos)
    return w, h, values.reshape(h, w)[::-1]


def image_error(ppm_path, pfm_path, reference, camera):
    """Written view files against a reference render of the same Gaussians:
    RGB within 8-bit quantisation, depth within float32 rounding."""
    width, height = camera.image_size
    w, h, rgb8 = parse_ppm(ppm_path)
    if (w, h) != (width, height):
        return f"{ppm_path}: {w}x{h} image for a {width}x{height} camera"
    w, h, depth = parse_pfm(pfm_path)
    if (w, h) != (width, height):
        return f"{pfm_path}: {w}x{h} image for a {width}x{height} camera"
    rgb_err = np.abs(rgb8 / 255.0 - np.clip(reference.rgb, 0.0, 1.0)).max()
    if rgb_err > 0.5 / 255.0 + RENDER_TOL:
        return f"{ppm_path}: RGB off the reference by {rgb_err:.4f}, beyond 8-bit quantisation"
    ref_depth = reference.depth
    depth_err = np.abs(depth - ref_depth) - (RENDER_TOL + 2.0**-23 * np.abs(ref_depth))
    if depth_err.max() > 0:
        return f"{pfm_path}: depth off the reference beyond float32 rounding"
    return None


def eval_csv_error(path, expected):
    """eval.csv rows against per-scene (name, iou_occupied, miou) recomputed
    by the benchmark, and its mean row against the mean of its scene rows."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if rows[0] != ["scene", "iou_occupied", "miou"]:
        return f"{path}: header {rows[0]}"
    scene_rows, mean_row = rows[1:-1], rows[-1]
    if [r[0] for r in scene_rows] != [e[0] for e in expected]:
        return f"{path}: scenes {[r[0] for r in scene_rows]}, want {[e[0] for e in expected]}"
    values = np.array([[float(r[1]), float(r[2])] for r in scene_rows])
    if not np.allclose(values, [e[1:] for e in expected], rtol=0, atol=1e-12):
        return f"{path}: per-scene IoU {values.tolist()}, recomputed {[e[1:] for e in expected]}"
    if mean_row[0] != "mean" or not np.allclose(
        [float(mean_row[1]), float(mean_row[2])], values.mean(axis=0), rtol=0, atol=1e-12
    ):
        return f"{path}: mean row {mean_row} is not the mean of the scene rows"
    return None
