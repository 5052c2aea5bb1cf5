"""Gaussian query decoder: learnable anchors refined by sparse-conv
self-interaction, deformable cross-attention into the image pyramid, and
per-group heads with constrained activations.

Anchors are (K, ANCHOR_DIM) raw parameters in the column groups position,
scale, quat and opacity that ANCHOR_COLUMNS declares. Query features are
(K, D) and start at exactly zero every decode. Each refine layer runs
voxelized sparse convolution, deformable cross-attention, and a feed-forward
block, then updates the anchors: the position head emits a delta in raw
(pre-sigmoid) space while the scale, quat, and opacity heads replace their
groups outright. Decoding activates raws via sigmoid ranges (position into
the scene bounds, scale into [0.001, 0.25] * bounds extent), quaternion
normalization, and a color MLP on the final features.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import encoder as enc
from .geometry import NEAR_PLANE

SCALE_RANGE = (0.001, 0.25)  # fraction of bounds extent
INIT_SCALE_FRACTION = 0.02
INIT_OPACITY = 0.1
# The anchor row, group -> (first column, width), in column order. Decoded
# anchors (finetune.FrozenInference), the queries.anchors checkpoints and
# the task.interact.gk weights all use this layout, so it must not change.
ANCHOR_COLUMNS = {"pos": (0, 3), "scale": (3, 3), "quat": (6, 4), "opacity": (10, 1)}
ANCHOR_DIM = sum(width for _, width in ANCHOR_COLUMNS.values())
QUAT_EPS = 1e-8


@dataclass
class DecoderConfig:
    n_layers: int = 2
    n_offsets: int = 4
    n_heads: int = 4
    n_views: int = 4
    n_levels: int = 4
    voxel_size: float | None = None  # None -> bounds extent / 32
    K: int = 512
    feature_dim: int = 64

    def __post_init__(self):
        for field in ("n_offsets", "n_heads", "n_views", "n_levels", "K", "feature_dim"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be positive")
        if self.n_layers < 0:
            raise ValueError("n_layers must be >= 0")
        if self.voxel_size is not None and self.voxel_size <= 0.0:
            raise ValueError("voxel_size must be positive")
        if self.feature_dim % self.n_heads != 0:
            raise ValueError("feature_dim must be divisible by n_heads")
        if enc.D_F % self.n_heads != 0:
            raise ValueError("pyramid width must be divisible by n_heads")

    def resolve_voxel_size(self, bounds):
        if self.voxel_size is not None:
            return float(self.voxel_size)
        extent = float(np.linalg.norm(np.asarray(bounds)[1] - np.asarray(bounds)[0]))
        return extent / 32.0


@dataclass
class GaussianQuerySet:
    anchors: ad.Tensor  # (K, ANCHOR_DIM) raw parameters
    features: ad.Tensor  # (K, D)
    bounds: np.ndarray  # (2, 3)

    def __post_init__(self):
        self.bounds = np.asarray(self.bounds, dtype=np.float64).reshape(2, 3)
        if self.anchors.data.shape[1] != ANCHOR_DIM:
            raise ValueError(
                f"anchors must have {ANCHOR_DIM} columns, got {self.anchors.data.shape}"
            )


@dataclass
class DecodedGaussians:
    """Activated Gaussian parameters as graph Tensors, plus diagnostics."""

    mu: ad.Tensor  # (K, 3)
    scale: ad.Tensor  # (K, 3)
    quat: ad.Tensor  # (K, 4), unit norm
    opacity: ad.Tensor  # (K,)
    color: ad.Tensor  # (K, 3)
    degenerate_quats: int


def _init_raw_scale_logit():
    """Raw scale whose activation gives INIT_SCALE_FRACTION of the extent.

    The ratio is extent-independent: sigmoid(x) = (0.02 - 0.001) / 0.249.
    """
    target = (INIT_SCALE_FRACTION - SCALE_RANGE[0]) / (SCALE_RANGE[1] - SCALE_RANGE[0])
    return float(np.log(target / (1.0 - target)))


def _logit(p):
    return float(np.log(p / (1.0 - p)))


# Final biases of the anchor-update heads, per ANCHOR_COLUMNS group: a zero
# position delta, 2%-extent scales, identity rotations, and opacity 0.1.
_HEAD_BIASES = {
    "pos": np.zeros(3),
    "scale": np.full(3, _init_raw_scale_logit()),
    "quat": np.array([1.0, 0.0, 0.0, 0.0]),
    "opacity": np.array([_logit(INIT_OPACITY)]),
}


def anchor_slice(group):
    """Column slice of an ANCHOR_COLUMNS group in anchor rows."""
    start, width = ANCHOR_COLUMNS[group]
    return slice(start, start + width)


def init_anchor_array(K, bounds, seed):
    """Raw anchors whose decode is uniform positions and, in the other
    groups, what the heads' initial biases decode to."""
    bounds = np.asarray(bounds, dtype=np.float64).reshape(2, 3)
    rng = np.random.default_rng(seed)
    u = rng.uniform(1e-4, 1.0 - 1e-4, size=(K, 3))
    anchors = np.empty((K, ANCHOR_DIM))
    for group, bias in _HEAD_BIASES.items():
        anchors[:, anchor_slice(group)] = bias
    anchors[:, anchor_slice("pos")] = np.log(u / (1.0 - u))
    return anchors


def init_queries(K, bounds, seed, feature_dim=64):
    if K < 1:
        raise ValueError("K must be >= 1")
    return GaussianQuerySet(
        anchors=ad.Tensor(init_anchor_array(K, bounds, seed), name="anchors"),
        features=ad.constant(np.zeros((K, feature_dim))),
        bounds=bounds,
    )


def decode_positions(anchors, bounds):
    """mu = bounds_min + sigmoid(raw_pos) * per-axis extent, shape (K, 3)."""
    bounds = np.asarray(bounds, dtype=np.float64).reshape(2, 3)
    raw = ad.narrow(anchors, 1, *ANCHOR_COLUMNS["pos"])
    return ad.sigmoid(raw) * (bounds[1] - bounds[0]) + bounds[0]


def _bounds_extent(bounds):
    bounds = np.asarray(bounds, dtype=np.float64).reshape(2, 3)
    return float(np.linalg.norm(bounds[1] - bounds[0]))


def _mlp2(store, prefix, x):
    """Two-layer perceptron: linear, relu, linear."""
    hidden = ad.relu(ad.linear(x, store[f"{prefix}.w1"], store[f"{prefix}.b1"]))
    return ad.linear(hidden, store[f"{prefix}.w2"], store[f"{prefix}.b2"])


def _init_mlp2(store, rng, prefix, d_in, d_hidden, d_out, final_bias=None):
    """He-init hidden layer; final layer zero weights with a fixed bias, so
    the block's output at init is the bias regardless of input."""
    store.param(
        f"{prefix}.w1", rng.normal(size=(d_in, d_hidden)) * np.sqrt(2.0 / d_in)
    )
    store.param(f"{prefix}.b1", np.zeros(d_hidden))
    store.param(f"{prefix}.w2", np.zeros((d_hidden, d_out)))
    bias = np.zeros(d_out) if final_bias is None else np.asarray(final_bias, float)
    store.param(f"{prefix}.b2", bias.copy())


def init_decoder_params(store, rng, cfg, prefix="decoder"):
    D = cfg.feature_dim
    S = cfg.n_views * cfg.n_levels * cfg.n_offsets
    for i in range(cfg.n_layers):
        lp = f"{prefix}.layer{i}"
        store.param(
            f"{lp}.voxconv.w",
            rng.normal(size=(27 * D, D)) * np.sqrt(2.0 / (27 * D)),
        )
        store.param(f"{lp}.voxconv.b", np.zeros(D))
        store.param(f"{lp}.attn.offset.w", rng.normal(size=(D, cfg.n_offsets * 3)) * 0.01)
        store.param(f"{lp}.attn.offset.b", np.zeros(cfg.n_offsets * 3))
        store.param(f"{lp}.attn.logit.w", rng.normal(size=(D, cfg.n_heads * S)) * 0.01)
        store.param(f"{lp}.attn.logit.b", np.zeros(cfg.n_heads * S))
        store.param(
            f"{lp}.attn.out.w", rng.normal(size=(enc.D_F, D)) * np.sqrt(2.0 / enc.D_F)
        )
        store.param(f"{lp}.ffn.w1", rng.normal(size=(D, 2 * D)) * np.sqrt(2.0 / D))
        store.param(f"{lp}.ffn.b1", np.zeros(2 * D))
        store.param(f"{lp}.ffn.w2", rng.normal(size=(2 * D, D)) * np.sqrt(2.0 / (2 * D)))
        store.param(f"{lp}.ffn.b2", np.zeros(D))
        for group, (_, width) in ANCHOR_COLUMNS.items():
            _init_mlp2(
                store, rng, f"{lp}.head_{group}", D, D, width,
                final_bias=_HEAD_BIASES[group],
            )
    _init_mlp2(store, rng, f"{prefix}.head.color", D, D, 3)


_VOXEL_OFFSETS = list(itertools.product((-1, 0, 1), repeat=3))


def _sparse_voxel_conv(pooled, weight, bias, pairs):
    """3x3x3 conv over occupied voxels as one tape node.

    weight is (27 * D, D_out) with row block o for offset o; pairs[o] =
    (dst, src) lists the voxels dst whose offset-o neighbor is occupied, at
    slot src. Absent neighbors read zeros, so each offset contributes only
    its occupied pairs; the result equals the dense im2col product of the
    (V, 27 * D) neighbor matrix with weight, without building it.
    """
    D = pooled.data.shape[1]
    w_blocks = [weight.data[o * D:(o + 1) * D] for o in range(len(pairs))]
    out = np.tile(bias.data, (pooled.data.shape[0], 1))
    for (dst, src), w_o in zip(pairs, w_blocks):
        if dst.size:
            out[dst] += pooled.data[src] @ w_o

    def vjp(g):
        g_pooled = np.zeros_like(pooled.data)
        g_weight = np.zeros_like(weight.data)
        for o, ((dst, src), w_o) in enumerate(zip(pairs, w_blocks)):
            if dst.size:
                g_dst = g[dst]
                # src slots are distinct within one offset, so += is exact.
                g_pooled[src] += g_dst @ w_o.T
                g_weight[o * D:(o + 1) * D] = pooled.data[src].T @ g_dst
        return g_pooled, g_weight, g.sum(axis=0)

    return ad.custom((pooled, weight, bias), out, vjp, name="voxel_conv")


def voxelize_and_sparse_conv(qs, voxel_size, store, prefix):
    """Mean-pool query features into voxels, run one 3x3x3 sparse conv over
    occupied voxels, and scatter the result back residually.

    Queries are reordered canonically (voxel id, then position) before
    pooling so the float accumulation order - hence the result, bit for bit -
    does not depend on the incoming query order.
    """
    if voxel_size <= 0.0:
        raise ValueError("voxel_size must be positive")
    K = qs.features.data.shape[0]
    mu = decode_positions(qs.anchors, qs.bounds)
    origin = qs.bounds[0]
    vox = np.floor((mu.data - origin) / voxel_size).astype(np.int64)

    # Canonical query order: voxel, then decoded position.
    uniq, inverse = np.unique(vox, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    order = np.lexsort(
        (mu.data[:, 2], mu.data[:, 1], mu.data[:, 0], inverse)
    )
    inv_order = np.empty_like(order)
    inv_order[order] = np.arange(K)
    slot_sorted = inverse[order]

    V = uniq.shape[0]
    feats_sorted = ad.gather(qs.features, order)
    sums = ad.scatter_add(feats_sorted, slot_sorted, V)
    counts = np.bincount(slot_sorted, minlength=V).astype(np.float64)
    pooled = sums * (1.0 / counts)[:, None]

    # 3x3x3 neighborhood gather with a zero sentinel row for absent voxels.
    # Coordinates pack collision-free into sorted scalar keys (np.unique
    # returns rows lexicographically sorted), so lookups are searchsorted.
    base = uniq.min(axis=0) - 1
    span = uniq.max(axis=0) - base + 2

    def _pack(coords):
        s = coords - base
        return (s[:, 0] * span[1] + s[:, 1]) * span[2] + s[:, 2]

    keys = _pack(uniq)
    pairs = []  # per offset: (voxels with that neighbor, the neighbor's slot)
    for off in _VOXEL_OFFSETS:
        cand = _pack(uniq + np.asarray(off))
        pos = np.searchsorted(keys, cand)
        pos_c = np.minimum(pos, V - 1)
        dst = np.flatnonzero(keys[pos_c] == cand)
        pairs.append((dst, pos_c[dst]))
    conv = _sparse_voxel_conv(
        pooled, store[f"{prefix}.voxconv.w"], store[f"{prefix}.voxconv.b"], pairs
    )

    per_query_sorted = ad.gather(conv, slot_sorted)
    update = ad.gather(per_query_sorted, inv_order)
    return GaussianQuerySet(
        anchors=qs.anchors, features=ad.add(qs.features, update), bounds=qs.bounds
    )


def _project_points_engine(points, camera):
    """In-graph pinhole projection of (M, 3) world points.

    Returns (pixels (M, 2) Tensor, in_front (M, 1) constant 0/1 mask).
    Behind-near-plane points get a placeholder depth of 1 so the graph stays
    finite; their samples must be masked out by the caller.
    """
    W = camera.world_to_camera()
    t = ad.add(ad.matmul(points, ad.constant(W[:3, :3].T)), ad.constant(W[:3, 3]))
    z = ad.narrow(t, 1, 2, 1)  # (M, 1)
    mask = (z.data > NEAR_PLANE).astype(np.float64)
    z_safe = ad.add(z * mask, ad.constant(1.0 - mask))
    inv_z = ad.reciprocal_pos(z_safe)
    xy = ad.narrow(t, 1, 0, 2)
    K = camera.intrinsics
    focal = np.array([K[0, 0], K[1, 1]])
    center = np.array([K[0, 2], K[1, 2]])
    pixels = ad.add(ad.mul(ad.mul(xy, inv_z), ad.constant(focal)), ad.constant(center))
    return pixels, mask


def _mix_heads(sampled, weights):
    """Per-head weighted sum over the sampled features as one tape node.

    sampled: B tensors of shape (K * O, D_F), query-major, one per (view,
    level) block; sample s = (b, o) enumerates them block by block.
    weights: (K, H, S) with S = B * O. Returns (K, H, dh), out[k, h] =
    sum_s weights[k, h, s] * value[k, s, h], where value[k, (b, o)] is row
    k * O + o of block b split into H heads of width dh.
    """
    w = weights.data
    K, H, S = w.shape
    B = len(sampled)
    O = S // B
    D = sampled[0].data.shape[1]
    dh = D // H
    value = np.concatenate(
        [t.data.reshape(K, O * D) for t in sampled], axis=1
    ).reshape(K, S, D)
    # Mixing all H heads' weights against all D channels costs H times the
    # flops of the per-head sums but runs as one batched matmul; the
    # (h, h) diagonal blocks are the per-head results.
    heads = np.arange(H)
    out = (w @ value).reshape(K, H, H, dh)[:, heads, heads]
    eye = np.eye(H)[None, :, :, None]

    def vjp(g):
        g_full = (eye * g[:, :, None, :]).reshape(K, H, D)  # block-diagonal g
        g_weights = g_full @ value.transpose(0, 2, 1)
        g_value = (w.transpose(0, 2, 1) @ g_full).reshape(K, B, O * D)
        return tuple(g_value[:, b].reshape(K * O, D) for b in range(B)) + (g_weights,)

    return ad.custom(tuple(sampled) + (weights,), out, vjp, name="mix_heads")


def deformable_cross_attention(qs, pyramid, cameras, cfg, store, prefix):
    """Sample the pyramid at learned 3D offset points and mix per-head."""
    if len(cameras) == 0:
        raise ValueError("deformable attention needs at least one view")
    if len(cameras) != cfg.n_views:
        raise ValueError(f"expected {cfg.n_views} views, got {len(cameras)}")
    if len(pyramid.levels) != cfg.n_levels:
        raise ValueError(
            f"expected {cfg.n_levels} pyramid levels, got {len(pyramid.levels)}"
        )
    K, D = qs.features.data.shape
    O, H = cfg.n_offsets, cfg.n_heads
    voxel_size = cfg.resolve_voxel_size(qs.bounds)

    mu = decode_positions(qs.anchors, qs.bounds)  # (K, 3)
    raw_off = ad.linear(
        qs.features, store[f"{prefix}.attn.offset.w"], store[f"{prefix}.attn.offset.b"]
    )
    offsets = ad.tanh(raw_off) * voxel_size  # (K, 3 * O)

    # Reference points: mu + offset_o, flattened to (K * O, 3), query-major.
    mu_rep = ad.gather(mu, np.repeat(np.arange(K), O))
    off_flat = ad.reshape(offsets, (K * O, 3))
    refs = ad.add(mu_rep, off_flat)

    sampled = []  # one (K * O, D_F) tensor per (view, level), view-major
    for vi, cam in enumerate(cameras):
        pixels, in_front = _project_points_engine(refs, cam)
        for li, stride in enumerate(pyramid.strides):
            feats = enc.bilinear_sample_batch(
                pyramid.levels[li][vi], pixels, stride, mask=in_front
            )
            sampled.append(feats)

    S = cfg.n_views * cfg.n_levels * O
    logits = ad.linear(
        qs.features, store[f"{prefix}.attn.logit.w"], store[f"{prefix}.attn.logit.b"]
    )
    weights = ad.softmax(ad.reshape(logits, (K, H, S)), axis=2)

    # Samples s run over (view, level, offset), matching `sampled` order.
    mixed = _mix_heads(sampled, weights)  # (K, H, dh)
    mixed_flat = ad.reshape(mixed, (K, enc.D_F))
    update = ad.matmul(mixed_flat, store[f"{prefix}.attn.out.w"])  # bias-free
    return GaussianQuerySet(
        anchors=qs.anchors, features=ad.add(qs.features, update), bounds=qs.bounds
    )


def _normalize_quats(raw_quat):
    """Unit-normalize rows; rows with norm < QUAT_EPS become identity.

    Returns (quat Tensor, number of degenerate rows).
    """
    K = raw_quat.data.shape[0]
    norms_np = np.linalg.norm(raw_quat.data, axis=1, keepdims=True)
    good = (norms_np >= QUAT_EPS).astype(np.float64)
    identity = np.tile([1.0, 0.0, 0.0, 0.0], (K, 1))
    safe = ad.add(ad.mul(raw_quat, good), ad.constant(identity * (1.0 - good)))
    sq = ad.reduce_sum(ad.mul(safe, safe), axis=1, keepdims=True)
    quat = ad.mul(safe, ad.reciprocal_pos(ad.sqrt_pos(sq)))
    return quat, int(K - good.sum())


def gaussian_head(qs, store, prefix="decoder"):
    """Activate anchor raws into valid Gaussian parameters; color from a
    2-layer MLP on the query features."""
    bounds = qs.bounds
    extent = _bounds_extent(bounds)
    s_min, s_max = SCALE_RANGE[0] * extent, SCALE_RANGE[1] * extent

    mu = decode_positions(qs.anchors, bounds)
    raw_scale = ad.narrow(qs.anchors, 1, *ANCHOR_COLUMNS["scale"])
    scale = ad.sigmoid(raw_scale) * (s_max - s_min) + s_min
    raw_quat = ad.narrow(qs.anchors, 1, *ANCHOR_COLUMNS["quat"])
    quat, degenerate = _normalize_quats(raw_quat)
    raw_op = ad.narrow(qs.anchors, 1, *ANCHOR_COLUMNS["opacity"])
    opacity = ad.reshape(ad.sigmoid(raw_op), (qs.anchors.data.shape[0],))
    color = ad.sigmoid(_mlp2(store, f"{prefix}.head.color", qs.features))
    return DecodedGaussians(
        mu=mu, scale=scale, quat=quat, opacity=opacity, color=color,
        degenerate_quats=degenerate,
    )


def refine_layer(qs, pyramid, cameras, cfg, store, layer_prefix):
    """One decoder layer: interaction blocks, then anchor update.

    The position head emits a raw-space delta; scale, quat, and opacity raws
    are replaced by their head outputs. Features carry forward.
    """
    voxel_size = cfg.resolve_voxel_size(qs.bounds)
    qs = voxelize_and_sparse_conv(qs, voxel_size, store, layer_prefix)
    qs = deformable_cross_attention(qs, pyramid, cameras, cfg, store, layer_prefix)
    ffn_out = _mlp2(store, f"{layer_prefix}.ffn", qs.features)
    features = ad.add(qs.features, ffn_out)

    groups = []
    for group in ANCHOR_COLUMNS:
        out = _mlp2(store, f"{layer_prefix}.head_{group}", features)
        if group == "pos":
            out = ad.add(ad.narrow(qs.anchors, 1, *ANCHOR_COLUMNS["pos"]), out)
        groups.append(out)
    anchors = ad.concat(groups, axis=1)
    return GaussianQuerySet(anchors=anchors, features=features, bounds=qs.bounds)


def decode(qs, pyramid, cameras, cfg, store, prefix="decoder"):
    """Run cfg.n_layers refine layers then the head.

    Features are reset to exactly zero before the first layer; the incoming
    query set is not mutated. Returns (DecodedGaussians, final query set).
    """
    working = GaussianQuerySet(
        anchors=qs.anchors,
        features=ad.constant(np.zeros(qs.features.data.shape)),
        bounds=qs.bounds,
    )
    for i in range(cfg.n_layers):
        working = refine_layer(
            working, pyramid, cameras, cfg, store, f"{prefix}.layer{i}"
        )
    return gaussian_head(working, store, prefix), working
