"""Gaussian query decoder: learnable anchors refined by sparse-conv
self-interaction, deformable cross-attention into the image pyramid, and
per-group heads with constrained activations.

Anchors are (K, ANCHOR_DIM) raw parameters in the column groups position,
scale, quat and opacity that ANCHOR_COLUMNS declares. Query features are
(K, D); pre-training's query set starts them at exactly zero. Each refine
layer runs voxelized sparse convolution, deformable cross-attention, and a
feed-forward block, then updates the anchors. The sparse conv is one tape node with an
analytic VJP, and so is the attention's projection, sampling of every
(view, level) map and head mixing. In the anchor update the position head
emits a delta in raw (pre-sigmoid) space while the scale, quat, and opacity
heads replace their groups outright. Decoding activates raws via sigmoid ranges (position into
the scene bounds, scale into [0.001, 0.25] * bounds extent), quaternion
normalization, and a color MLP on the final features.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import encoder as enc
from .config import DecoderConfig  # noqa: F401 (dec.DecoderConfig)
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
    """Activated Gaussian parameters as graph Tensors, plus diagnostics. The
    fields run in GAUSSIAN_DTYPE order, and head["mu"] is head.mu.data, as on
    a record array, so the renderer reads a decoded set like a scene's."""

    mu: ad.Tensor  # (K, 3)
    quat: ad.Tensor  # (K, 4), unit norm
    scale: ad.Tensor  # (K, 3)
    opacity: ad.Tensor  # (K,)
    color: ad.Tensor  # (K, 3)
    degenerate_quats: int = 0

    def __getitem__(self, name):
        return getattr(self, name).data


def _logit(p):
    return float(np.log(p / (1.0 - p)))


# Final biases of the anchor-update heads, per ANCHOR_COLUMNS group: a zero
# position delta, 2%-extent scales, identity rotations, and opacity 0.1. The
# scale bias is extent-independent: its sigmoid is (0.02 - 0.001) / 0.249.
_HEAD_BIASES = {
    "pos": np.zeros(3),
    "scale": np.full(3, _logit(
        (INIT_SCALE_FRACTION - SCALE_RANGE[0]) / (SCALE_RANGE[1] - SCALE_RANGE[0])
    )),
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
    rng = ad.init_rng(seed)
    u = rng.uniform(1e-4, 1.0 - 1e-4, size=(K, 3))
    anchors = np.empty((K, ANCHOR_DIM))
    for group, bias in _HEAD_BIASES.items():
        anchors[:, anchor_slice(group)] = bias
    anchors[:, anchor_slice("pos")] = np.log(u / (1.0 - u))
    return anchors


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


def init_decoder_params(store, rng, cfg):
    D = cfg.feature_dim
    S = cfg.n_views * len(enc.STRIDES) * cfg.n_offsets
    for i in range(cfg.n_layers):
        lp = f"decoder.layer{i}"
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
    _init_mlp2(store, rng, "decoder.head.color", D, D, 3)


_VOXEL_OFFSETS = np.array(list(itertools.product((-1, 0, 1), repeat=3)))


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


def _voxel_table(vox):
    """(slot, pairs) of a (K, 3) int64 voxel array: slot[i] indexes voxel i
    among the distinct voxels in lexicographic order, and pairs[o] = (dst,
    src) for offset _VOXEL_OFFSETS[o], as _sparse_voxel_conv takes them.

    Coordinates pack into int64 keys with a one-voxel margin per side, so
    a neighbour's key is the voxel's key plus its offset's.
    """
    base = vox.min(axis=0) - 1
    span = vox.max(axis=0) - base + 2

    def pack(coords):
        return (coords[..., 0] * span[1] + coords[..., 1]) * span[2] + coords[..., 2]

    keys, slot = np.unique(pack(vox - base), return_inverse=True)
    cand = keys + pack(_VOXEL_OFFSETS)[:, None]  # (27, V)
    pos = np.minimum(np.searchsorted(keys, cand), keys.size - 1)
    found = keys[pos] == cand
    pairs = [(np.flatnonzero(hit), p[hit]) for hit, p in zip(found, pos)]
    return slot, pairs


def voxelize_and_sparse_conv(qs, mu, voxel_size, store, prefix):
    """Mean-pool query features into voxels, run one 3x3x3 sparse conv over
    occupied voxels, and scatter the result back residually.

    mu is the (K, 3) decode_positions Tensor of qs; only its values are
    read. Queries are reordered canonically (voxel id, then position) before
    pooling so the float accumulation order - hence the result, bit for bit -
    does not depend on the incoming query order.
    """
    if voxel_size <= 0.0:
        raise ValueError("voxel_size must be positive")
    K = qs.features.data.shape[0]
    vox = np.floor((mu.data - qs.bounds[0]) / voxel_size).astype(np.int64)
    slot, pairs = _voxel_table(vox)

    # Canonical query order: voxel, then decoded position.
    order = np.lexsort((mu.data[:, 2], mu.data[:, 1], mu.data[:, 0], slot))
    inv_order = np.empty_like(order)
    inv_order[order] = np.arange(K)
    slot_sorted = slot[order]

    V = int(slot.max()) + 1
    feats_sorted = ad.gather(qs.features, order)
    sums = ad.scatter_add(feats_sorted, slot_sorted, V)
    counts = np.bincount(slot_sorted, minlength=V).astype(np.float64)
    pooled = sums * (1.0 / counts)[:, None]
    conv = _sparse_voxel_conv(
        pooled, store[f"{prefix}.voxconv.w"], store[f"{prefix}.voxconv.b"], pairs
    )

    per_query_sorted = ad.gather(conv, slot_sorted)
    update = ad.gather(per_query_sorted, inv_order)
    return GaussianQuerySet(
        anchors=qs.anchors, features=ad.add(qs.features, update), bounds=qs.bounds
    )


def _project(points, camera):
    """Pinhole projection of (M, 3) world points, with what its VJP needs.

    Returns (pixels (M, 2), in_front (M, 1) 0/1 mask, vjp). Points behind
    the near plane get a placeholder depth of 1 so the pixels stay finite;
    their samples must be masked out. vjp maps a pixel cotangent to the
    points' cotangent.
    """
    W = camera.world_to_camera()
    rot_t = np.ascontiguousarray(W[:3, :3].T)
    t = points @ rot_t + W[:3, 3]
    z = t[:, 2:3]
    mask = (z > NEAR_PLANE).astype(np.float64)
    z_safe = z * mask + (1.0 - mask)
    inv_z = np.exp(-np.log(z_safe))
    xy = t[:, :2]
    K = camera.intrinsics
    focal = np.array([K[0, 0], K[1, 1]])
    center = np.array([K[0, 2], K[1, 2]])
    pixels = xy * inv_z * focal + center

    def vjp(g):
        g_scaled = g * focal
        g_inv_z = (g_scaled * xy).sum(axis=1, keepdims=True)
        g_z = -(g_inv_z * inv_z) / z_safe * mask
        g_t = np.concatenate([g_scaled * inv_z, g_z], axis=1)
        return g_t @ rot_t.T

    return pixels, mask, vjp


def _sample_and_mix(refs, pyramid, cameras, weights):
    """Deformable sampling and per-head mixing as one tape node.

    refs: (K * O, 3) Tensor of reference points, query-major. weights:
    (K, H, S) Tensor with S = B * O over the B = views x levels blocks,
    view-major. Each view projects the points once; each (view, level)
    block samples its level map through encoder.bilinear_sample_batch, and
    its (K * O, D_F) rows fill block b of the (K, S, D_F) value array,
    value[k, (b, o)] = row k * O + o. Returns (K, D_F), where head h's
    slice of row k is sum_s weights[k, h, s] * value[k, s, h-th slice].

    The parents are refs, the B level maps and weights. The VJP sums each
    view's pixel cotangent over its levels and chains it through the view's
    projection.
    """
    w = weights.data
    K, H, S = w.shape
    maps = [lvl[vi] for vi in range(len(cameras)) for lvl in pyramid]
    B = len(maps)
    O = S // B
    D = maps[0].data.shape[2]
    dh = D // H
    L = len(enc.STRIDES)
    value = np.empty((K, B, O * D))
    projections, samplers = [], []
    for vi, cam in enumerate(cameras):
        pixels, in_front, project_vjp = _project(refs.data, cam)
        projections.append(project_vjp)
        for li, stride in enumerate(enc.STRIDES):
            block = enc.bilinear_sample_batch(
                maps[vi * L + li], pixels, stride, mask=in_front
            )
            value[:, vi * L + li] = block.data.reshape(K, O * D)
            samplers.append(block._vjp)
    value = value.reshape(K, S, D)
    # Mixing all H heads' weights against all D channels costs H times the
    # flops of the per-head sums but runs as one batched matmul; the
    # (h, h) diagonal blocks are the per-head results.
    heads = np.arange(H)
    out = (w @ value).reshape(K, H, H, dh)[:, heads, heads].reshape(K, D)
    eye = np.eye(H)[None, :, :, None]

    def vjp(g):
        g_full = (eye * g.reshape(K, H, 1, dh)).reshape(K, H, D)  # block-diagonal
        g_weights = g_full @ value.transpose(0, 2, 1)
        g_value = (w.transpose(0, 2, 1) @ g_full).reshape(K, B, O * D)
        g_maps = [None] * B
        g_refs = None
        for vi in reversed(range(len(cameras))):
            g_pix = None
            for b in reversed(range(vi * L, (vi + 1) * L)):
                g_maps[b], g_b = samplers[b](g_value[:, b].reshape(K * O, D))
                g_pix = g_b if g_pix is None else g_pix + g_b
            g_view = projections[vi](g_pix)
            g_refs = g_view if g_refs is None else g_refs + g_view
        return (g_refs, *g_maps, g_weights)

    return ad.custom((refs, *maps, weights), out, vjp, name="deformable_attention")


def deformable_cross_attention(qs, mu, pyramid, cameras, cfg, store, prefix):
    """Sample the pyramid at learned 3D offset points around mu, the (K, 3)
    decode_positions Tensor of qs, and mix per-head."""
    if len(cameras) == 0:
        raise ValueError("deformable attention needs at least one view")
    if len(cameras) != cfg.n_views:
        raise ValueError(f"expected {cfg.n_views} views, got {len(cameras)}")
    K, D = qs.features.data.shape
    O, H = cfg.n_offsets, cfg.n_heads
    voxel_size = cfg.resolve_voxel_size(qs.bounds)

    raw_off = ad.linear(
        qs.features, store[f"{prefix}.attn.offset.w"], store[f"{prefix}.attn.offset.b"]
    )
    offsets = ad.tanh(raw_off) * voxel_size  # (K, 3 * O)

    # Reference points: mu + offset_o, flattened to (K * O, 3), query-major.
    mu_rep = ad.gather(mu, np.repeat(np.arange(K), O))
    off_flat = ad.reshape(offsets, (K * O, 3))
    refs = ad.add(mu_rep, off_flat)

    # Samples s run over (view, level, offset).
    S = cfg.n_views * len(enc.STRIDES) * O
    logits = ad.linear(
        qs.features, store[f"{prefix}.attn.logit.w"], store[f"{prefix}.attn.logit.b"]
    )
    weights = ad.softmax(ad.reshape(logits, (K, H, S)), axis=2)
    mixed = _sample_and_mix(refs, pyramid, cameras, weights)  # (K, D_F)
    update = ad.matmul(mixed, store[f"{prefix}.attn.out.w"])  # bias-free
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


def gaussian_head(qs, store):
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
    color = ad.sigmoid(_mlp2(store, "decoder.head.color", qs.features))
    return DecodedGaussians(
        mu=mu, quat=quat, scale=scale, opacity=opacity, color=color,
        degenerate_quats=degenerate,
    )


def refine_layer(qs, pyramid, cameras, cfg, store, layer_prefix):
    """One decoder layer: interaction blocks, then anchor update.

    The position head emits a raw-space delta; scale, quat, and opacity raws
    are replaced by their head outputs. Features carry forward. Both
    interaction blocks read the layer's one decode of the anchor positions.
    """
    voxel_size = cfg.resolve_voxel_size(qs.bounds)
    mu = decode_positions(qs.anchors, qs.bounds)
    qs = voxelize_and_sparse_conv(qs, mu, voxel_size, store, layer_prefix)
    qs = deformable_cross_attention(qs, mu, pyramid, cameras, cfg, store, layer_prefix)
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


def decode(qs, pyramid, cameras, cfg, store):
    """Run cfg.n_layers refine layers from qs, then the head.

    pyramid is encoder.encode's pyramid[level][view]. The first layer starts
    from qs's anchors and features as given (PretrainModel.query_set's are
    exactly zero); qs is not mutated. Returns (DecodedGaussians, final qs).
    """
    for i in range(cfg.n_layers):
        qs = refine_layer(qs, pyramid, cameras, cfg, store, f"decoder.layer{i}")
    return gaussian_head(qs, store), qs
