"""Convolutional backbone and feature-pyramid neck.

The backbone is a stride-2 stem followed by four stride-2 stages (3x3 conv,
channel layer norm, relu; widths 16, 16, 32, 64, 128), tapping features after
each stage at strides 4, 8, 16, and 32. The neck applies 1x1 laterals to a
uniform width, nearest-neighbor top-down upsampling with addition, and a 3x3
smoothing conv per level.

Feature maps are channels-last (H, W, C) autodiff Tensors. Convolutions are
implemented as im2col gathers against a flattened input with an appended
all-zero sentinel row, so zero padding and the conv itself ride on the
engine's gather/matmul primitives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

STRIDES = (4, 8, 16, 32)
STAGE_WIDTHS = (16, 32, 64, 128)
STEM_WIDTH = 16
D_F = 32  # pyramid feature width


@dataclass
class FeaturePyramid:
    """Per-view feature maps at strides 4, 8, 16, 32 (each (h, w, D_f))."""

    levels: list  # levels[l][view] -> Tensor (h_l, w_l, D_F)
    strides: tuple = STRIDES

    def __post_init__(self):
        if len(self.levels) != len(self.strides):
            raise ValueError(
                f"expected {len(self.strides)} levels, got {len(self.levels)}"
            )


def _conv_indices(h, w, stride):
    """Flat im2col gather indices (h_out * w_out * 9,) for a 3x3 conv.

    Out-of-bounds taps point at the sentinel row h*w (zero padding).
    """
    h_out = (h + 1) // 2 if stride == 2 else h
    w_out = (w + 1) // 2 if stride == 2 else w
    oy, ox = np.meshgrid(np.arange(h_out), np.arange(w_out), indexing="ij")
    ky, kx = np.meshgrid(np.arange(3), np.arange(3), indexing="ij")
    iy = oy[:, :, None, None] * stride + ky[None, None] - 1
    ix = ox[:, :, None, None] * stride + kx[None, None] - 1
    inside = (iy >= 0) & (iy < h) & (ix >= 0) & (ix < w)
    flat = np.where(inside, iy * w + ix, h * w)
    return flat.reshape(-1), h_out, w_out


def conv2d(x, weight, bias, stride=1):
    """3x3 convolution with zero padding 1 on a (h, w, c_in) Tensor.

    weight: (9 * c_in, c_out) with taps ordered (ky, kx, c_in); bias (c_out,).
    """
    h, w, c_in = x.data.shape
    index, h_out, w_out = _conv_indices(h, w, stride)
    flat = ad.reshape(x, (h * w, c_in))
    padded = ad.concat([flat, ad.constant(np.zeros((1, c_in)))], axis=0)
    patches = ad.gather(padded, index)
    cols = ad.reshape(patches, (h_out * w_out, 9 * c_in))
    out = ad.linear(cols, weight, bias)
    return ad.reshape(out, (h_out, w_out, weight.data.shape[1]))


def conv1x1(x, weight, bias):
    """Pointwise convolution: (h, w, c_in) -> (h, w, c_out)."""
    h, w, c_in = x.data.shape
    out = ad.linear(ad.reshape(x, (h * w, c_in)), weight, bias)
    return ad.reshape(out, (h, w, weight.data.shape[1]))


def upsample2x_nearest(x):
    """Nearest-neighbor 2x upsampling of a (h, w, c) Tensor."""
    h, w, c = x.data.shape
    oy, ox = np.meshgrid(np.arange(2 * h) // 2, np.arange(2 * w) // 2, indexing="ij")
    index = (oy * w + ox).reshape(-1)
    rows = ad.gather(ad.reshape(x, (h * w, c)), index)
    return ad.reshape(rows, (2 * h, 2 * w, c))


def _stage(x, store, name):
    out = conv2d(x, store[f"{name}.w"], store[f"{name}.b"], stride=2)
    return ad.relu(ad.layer_norm(out))


def init_encoder_params(store, rng, prefix="encoder"):
    """Create all encoder parameters in `store` (He-normal weights)."""

    def conv_param(name, c_in, c_out, taps=9):
        fan_in = taps * c_in
        store.param(
            f"{prefix}.{name}.w",
            rng.normal(size=(fan_in, c_out)) * np.sqrt(2.0 / fan_in),
        )
        store.param(f"{prefix}.{name}.b", np.zeros(c_out))

    conv_param("stem", 3, STEM_WIDTH)
    c_in = STEM_WIDTH
    for i, width in enumerate(STAGE_WIDTHS):
        conv_param(f"stage{i}", c_in, width)
        c_in = width
    for i, width in enumerate(STAGE_WIDTHS):
        conv_param(f"lateral{i}", width, D_F, taps=1)
        conv_param(f"smooth{i}", D_F, D_F)


def encode_view(store, image, prefix="encoder"):
    """Encode one (H, W, 3) view into four (h, w, D_F) levels."""
    x = image if isinstance(image, ad.Tensor) else ad.constant(image)
    h, w = x.data.shape[:2]
    if h % 32 != 0 or w % 32 != 0:
        raise ValueError(f"image size {(h, w)} not divisible by 32")

    def p(name):
        return store[f"{prefix}.{name}"]

    x = ad.relu(ad.layer_norm(conv2d(x, p("stem.w"), p("stem.b"), stride=2)))
    taps = []
    for i in range(len(STAGE_WIDTHS)):
        x = _stage(x, store, f"{prefix}.stage{i}")
        taps.append(x)

    laterals = [
        conv1x1(t, p(f"lateral{i}.w"), p(f"lateral{i}.b")) for i, t in enumerate(taps)
    ]
    merged = [None] * len(laterals)
    merged[-1] = laterals[-1]
    for i in range(len(laterals) - 2, -1, -1):
        merged[i] = ad.add(laterals[i], upsample2x_nearest(merged[i + 1]))
    return [
        conv2d(m, p(f"smooth{i}.w"), p(f"smooth{i}.b"), stride=1)
        for i, m in enumerate(merged)
    ]


def encode(store, images, prefix="encoder"):
    """Encode N views (list of (H, W, 3) arrays/Tensors) into a FeaturePyramid."""
    per_view = [encode_view(store, img, prefix) for img in images]
    levels = [[pv[l] for pv in per_view] for l in range(len(STRIDES))]
    return FeaturePyramid(levels=levels)


def bilinear_sample_batch(level_map, pixels, stride, mask=None):
    """Sample a (h, w, c) level at continuous image-pixel locations.

    pixels: (M, 2) Tensor or array of (x, y) image coordinates; sampling
    happens at level coordinates pixel/stride. Out-of-bounds corners
    contribute zero (zero-padded bilinear), so a fully out-of-bounds pixel
    yields a zero vector with zero gradient. An optional (M, 1) 0/1 mask
    multiplies the result, suppressing value and gradient. Returns (M, c).

    The method depends only on the map's size. A small map, h*w + 1 <= 4*c
    cells counting the zero sentinel, is sampled through a dense (M, h*w + 1)
    interpolation matrix W with four weights per row: the forward is W @ map
    and the map cotangent W.T @ g, two BLAS calls. W then holds no more
    entries than the (4, M, c) corner array that a larger map gathers and
    keeps for its VJP, whose map cotangent is one bincount over 4*M*c keys;
    so the choice never raises memory. Both give the same values up to
    summation order.
    """
    h, w, c = level_map.data.shape
    pix = pixels if isinstance(pixels, ad.Tensor) else ad.constant(pixels)
    uv = pix.data * (1.0 / float(stride))
    base = np.floor(uv)  # the cell choice is locally fixed
    fu = uv[:, 0] - base[:, 0]  # (M,)
    fv = uv[:, 1] - base[:, 1]
    wu = [1.0 - fu, fu]
    wv = [1.0 - fv, fv]
    x0 = base[:, 0].astype(np.int64)
    y0 = base[:, 1].astype(np.int64)

    padded = np.concatenate([level_map.data.reshape(h * w, c), np.zeros((1, c))])
    # corner order: (dy, dx) = (0,0), (0,1), (1,0), (1,1)
    cx = x0[None, :] + np.array([[0], [1], [0], [1]])
    cy = y0[None, :] + np.array([[0], [0], [1], [1]])
    inside = (cx >= 0) & (cx < w) & (cy >= 0) & (cy < h)
    idx = np.where(inside, cy * w + cx, h * w)  # (4, M)
    wt = np.stack([wu[0] * wv[0], wu[1] * wv[0], wu[0] * wv[1], wu[1] * wv[1]])
    if mask is not None:
        mask = np.asarray(mask, dtype=np.float64).reshape(-1)
        wt = wt * mask

    if h * w + 1 <= 4 * c:
        # In-bounds corners of a row are distinct cells; out-of-bounds ones
        # share the sentinel column with weight 0.
        interp = np.zeros((idx.shape[1], h * w + 1))
        interp[np.arange(idx.shape[1]), idx] = np.where(inside, wt, 0.0)
        out = interp @ padded

        def map_grad(g):
            return interp.T @ g

        def corner_grad(g):  # (4, M): g contracted with each corner's features
            return np.take_along_axis(g @ padded.T, idx.T, axis=1).T

    else:
        corner = padded[idx]  # (4, M, c)
        out = np.einsum("amc,am->mc", corner, wt)

        def map_grad(g):
            return ad._index_add((h * w + 1, c), idx.reshape(-1), wt[:, :, None] * g[None])

        def corner_grad(g):
            return np.einsum("amc,mc->am", corner, g)

    def vjp(g):
        gmap = map_grad(g)
        # d out / d(fu, fv) per corner, contracted with g over channels first.
        gc = corner_grad(g)
        gfu = wv[0] * (gc[1] - gc[0]) + wv[1] * (gc[3] - gc[2])
        gfv = wu[0] * (gc[2] - gc[0]) + wu[1] * (gc[3] - gc[1])
        if mask is not None:
            gfu, gfv = gfu * mask, gfv * mask
        gpix = np.stack([gfu, gfv], axis=1) * (1.0 / float(stride))
        return gmap[: h * w].reshape(h, w, c), gpix

    return ad.custom((level_map, pix), out, vjp, name="bilinear")
