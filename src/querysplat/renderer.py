"""Differentiable splat rendering: footprint rasterizer, reference oracle, backward.

Per pixel p, front-to-back alpha compositing over depth-sorted Gaussians:

    C(p) = sum_i c_i * alpha_i * prod_{j<i} (1 - alpha_j)        (color)
    D(p) = sum_i d_i * alpha_i * prod_{j<i} (1 - alpha_j)        (depth, unnormalized)

with alpha_i = opacity_i * exp(-0.5 * Delta^T Sigma'^{-1} Delta). Depth d_i is
the Euclidean camera distance of the Gaussian mean.

Threshold semantics are shared by both render paths through RenderConfig:

  * alpha is clamped below ``alpha_clamp`` (default 0.9999);
  * contributions below ``contribution_floor`` (default 1/255) are dropped —
    implemented as the exact-arithmetic test q > 2*ln(opacity/floor) on the
    Mahalanobis quadform q, so both paths make bit-identical drop decisions;
  * compositing stops once transmittance falls below
    ``early_stop_transmittance`` (default 1e-4).

The fast path enumerates, per Gaussian, the pixels of the bounding box of
its drop ellipse and keeps the (Gaussian, pixel) pairs that pass the drop
test; everything outside the box is below the drop floor, so it only skips
exact no-ops, and each pixel composites its kept pairs in depth order. It is
the only path the package renders with: training, inference and the
ground-truth bake all use it. The reference path, ``render_reference``,
visits every Gaussian at every pixel and serves only as its oracle in tests
and benchmark checks.

Every entry point takes the Gaussians as anything whose fields mu, quat,
scale, opacity and color index by name: a geometry.GAUSSIAN_DTYPE record
array, a decoder.DecodedGaussians (whose Tensor fields index to their
values), or a dict of (K, ...) arrays. render_node takes a DecodedGaussians.

``render_backward`` is a hand-derived analytic adjoint of the full pipeline
(compositing, Gaussian footprint, projection, covariance construction); it is
validated against central finite differences with thresholds disabled.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import geometry as geo
from .geometry import Camera

__all__ = [
    "RenderConfig",
    "RenderOutput",
    "RenderCache",
    "check_config",
    "render",
    "render_reference",
    "render_forward",
    "render_backward",
    "render_node",
]

FIELDS = geo.GAUSSIAN_DTYPE.names  # render_node's parent order

# Floor used for footprint/drop bookkeeping when the configured floor is 0
# ("thresholds disabled"): contributions below this are numerically invisible
# to the 1e-4 finite-difference tolerance.
_MIN_FLOOR = 1e-12


@dataclass(frozen=True)
class RenderConfig:
    """Thresholds shared by the fast renderer and the reference oracle.

    tile_size only sizes the per-tile slot lists of RenderCache.tiles, a
    diagnostic view of the footprints; it does not change any output.
    """

    tile_size: int = 16
    alpha_clamp: float = 0.9999
    contribution_floor: float = 1.0 / 255.0
    early_stop_transmittance: float = 1e-4


DEFAULT_CONFIG = RenderConfig()


def check_config() -> RenderConfig:
    """The gradcheck configuration: drop floor and early stop disabled."""
    return replace(DEFAULT_CONFIG, contribution_floor=0.0, early_stop_transmittance=0.0)


@dataclass
class RenderOutput:
    rgb: np.ndarray  # (H, W, 3) in [0, 1]
    depth: np.ndarray  # (H, W) meters
    alpha_acc: np.ndarray  # (H, W) accumulated opacity


class RenderCache:
    """Forward-pass state retained for the analytic backward pass."""

    def __init__(self, arrays, camera, config, width, height, P, prep, internals):
        self.arrays = arrays
        self.camera = camera
        self.config = config
        self.width = width
        self.height = height
        self.P = P  # projection dict from geometry.project_gaussians_batch
        self.prep = prep  # per-Gaussian prepared rasterization data
        self.internals = internals  # per-pair compositing state, or None
        self._tiles = None

    @property
    def tiles(self) -> list[np.ndarray]:
        """Per-tile index arrays into prep's sorted order (config.tile_size
        bins), built on first use; the renderer itself works on pixels."""
        if self._tiles is None:
            self._tiles = _build_tiles(self)
        return self._tiles


# ---------------------------------------------------------------------------
# Shared per-Gaussian pixel math
# ---------------------------------------------------------------------------


def _invert_cov2d(cov2d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse entries (ia, ib, ic) of symmetric 2x2 covariances (K,2,2)."""
    a = cov2d[:, 0, 0]
    b = cov2d[:, 0, 1]
    c = cov2d[:, 1, 1]
    det = a * c - b * b
    return c / det, -b / det, a / det


def _quad_cutoff(opacity: np.ndarray, floor: float) -> np.ndarray:
    """Per-Gaussian quadform cutoff: alpha < floor  <=>  q > cutoff."""
    eff = max(floor, _MIN_FLOOR)
    op = np.asarray(opacity, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        cut = 2.0 * (np.log(op) - np.log(eff))
    return np.where(op <= eff, -np.inf, cut)


# ---------------------------------------------------------------------------
# Preparation: projection, thresholds, depth sort, tile binning
# ---------------------------------------------------------------------------


def _prepare(arrays, camera: Camera, config: RenderConfig):
    """Project, threshold, and depth-sort; returns (projection, prep dict)."""
    P = geo.project_gaussians_batch(arrays["mu"], arrays["quat"], arrays["scale"], camera)
    opacity = np.asarray(arrays["opacity"], dtype=np.float64)
    qcut = _quad_cutoff(opacity, config.contribution_floor)
    include = P["valid"] & np.isfinite(qcut)
    idx = np.nonzero(include)[0]
    dist = P["cam_distance"][idx]
    order = np.lexsort((idx, dist))
    sel = idx[order]

    ia, ib, ic = _invert_cov2d(P["cov2d"][sel])
    prep = {
        "sel": sel,  # original Gaussian index per sorted slot
        "mx": P["mean2d"][sel, 0],
        "my": P["mean2d"][sel, 1],
        "ia": ia,
        "ib": ib,
        "ic": ic,
        "opacity": opacity[sel],
        "color": np.asarray(arrays["color"], dtype=np.float64)[sel],
        "dist": P["cam_distance"][sel],
        "qcut": qcut[sel],
    }
    return P, prep


def _build_tiles(cache: RenderCache) -> list[np.ndarray]:
    """Per-tile arrays of sorted-slot indices whose footprints reach the tile."""
    prep, width, height = cache.prep, cache.width, cache.height
    tile_size = cache.config.tile_size
    cov2d = cache.P["cov2d"][prep["sel"]]
    lam_max = 0.5 * (cov2d[:, 0, 0] + cov2d[:, 1, 1]) + np.sqrt(
        (0.5 * (cov2d[:, 0, 0] - cov2d[:, 1, 1])) ** 2 + cov2d[:, 0, 1] ** 2
    )
    # Conservative pixel-space footprint: outside this radius q > qcut holds,
    # so skipped pixels would contribute exactly zero. The 3-sigma lower
    # bound (q >= 9) keeps every Gaussian in all tiles its 3-sigma ellipse
    # can touch.
    r = np.sqrt(np.maximum(prep["qcut"], 9.0) * lam_max)
    ntx = -(-width // tile_size)
    nty = -(-height // tile_size)
    lists: list[list[int]] = [[] for _ in range(ntx * nty)]
    mx, my = prep["mx"], prep["my"]
    tx0 = np.floor((mx - r) / tile_size).astype(np.int64)
    tx1 = np.floor((mx + r) / tile_size).astype(np.int64)
    ty0 = np.floor((my - r) / tile_size).astype(np.int64)
    ty1 = np.floor((my + r) / tile_size).astype(np.int64)
    np.clip(tx0, 0, ntx - 1, out=tx0)
    np.clip(ty0, 0, nty - 1, out=ty0)
    for s in range(mx.shape[0]):
        x1 = min(int(tx1[s]), ntx - 1)
        y1 = min(int(ty1[s]), nty - 1)
        if x1 < tx0[s] or y1 < ty0[s]:
            continue
        for ty in range(int(ty0[s]), y1 + 1):
            base = ty * ntx
            for tx in range(int(tx0[s]), x1 + 1):
                lists[base + tx].append(s)
    return [np.asarray(slot, dtype=np.int64) for slot in lists]


# Bounds the renderer's scratch arrays: candidate pairs per enumeration block
# in _footprint_pairs and padded entries per block of pixels in _row_scan.
_BLOCK_ENTRIES = 1 << 16


def _footprint_pairs(prep, width: int, height: int):
    """Kept (sorted slot, pixel) pairs, pixel-major and front to back.

    Each Gaussian's candidates are the pixels of the bounding box of its
    ellipse q <= qcut, whose half-widths are sqrt(qcut * cov2d_xx) and
    sqrt(qcut * cov2d_yy), padded well beyond their rounding error (the
    determinant of a near-degenerate footprint loses digits). A candidate
    is kept by the quadform test of _composite_block on the same
    arithmetic, so the kept pairs are those a dense pass would keep.
    Candidates are enumerated over runs of Gaussians holding about
    _BLOCK_ENTRIES of them (a larger box is a run of its own).
    Returns (slot, pixel, dx, dy, q), each (n_pairs,).
    """
    mx, my, ia, ib, ic = (prep[k] for k in ("mx", "my", "ia", "ib", "ic"))
    qcut = prep["qcut"]
    det = ia * ic - ib * ib  # of the inverse covariance
    rx = np.sqrt(qcut * ic / det) * (1.0 + 1e-6) + 1e-6
    ry = np.sqrt(qcut * ia / det) * (1.0 + 1e-6) + 1e-6
    # A non-finite covariance keeps no pair (its q is NaN): empty box.
    finite = np.isfinite(rx) & np.isfinite(ry)
    rx, ry = np.where(finite, rx, -1.0), np.where(finite, ry, -1.0)
    x0 = np.clip(np.ceil(mx - rx), 0.0, float(width)).astype(np.int64)
    x1 = np.clip(np.floor(mx + rx), -1.0, float(width - 1)).astype(np.int64)
    y0 = np.clip(np.ceil(my - ry), 0.0, float(height)).astype(np.int64)
    y1 = np.clip(np.floor(my + ry), -1.0, float(height - 1)).astype(np.int64)
    nx = np.maximum(x1 - x0 + 1, 0)
    count = nx * np.maximum(y1 - y0 + 1, 0)
    ends = np.cumsum(count)

    parts = []
    lo, n_slots = 0, mx.shape[0]
    while lo < n_slots:
        before = ends[lo] - count[lo]
        stop = np.searchsorted(ends, before + _BLOCK_ENTRIES, side="right")
        hi = max(int(stop), lo + 1)
        c = count[lo:hi]
        slot = np.repeat(np.arange(lo, hi), c)
        local = np.arange(slot.shape[0]) - np.repeat(np.cumsum(c) - c, c)
        ly, lx = np.divmod(local, nx[slot])
        px = x0[slot] + lx
        py = y0[slot] + ly
        dx = px.astype(np.float64) - mx[slot]
        dy = py.astype(np.float64) - my[slot]
        a, b, d = ia[slot], ib[slot], ic[slot]
        q = dx * (a * dx + b * dy) + dy * (b * dx + d * dy)
        keep = q <= qcut[slot]
        parts.append(
            (slot[keep], (py * width + px)[keep], dx[keep], dy[keep], q[keep])
        )
        lo = hi
    if not parts:
        empty = np.zeros(0)
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), empty, empty, empty
    slot, pixel, dx, dy, q = (np.concatenate(col) for col in zip(*parts))
    # Candidates run slot by slot, so a stable sort by pixel keeps each
    # pixel's pairs in depth order; 16-bit keys make it a radix sort.
    key = pixel.astype(np.uint16) if width * height <= 1 << 16 else pixel
    order = np.argsort(key, kind="stable")
    return slot[order], pixel[order], dx[order], dy[order], q[order]


def _row_blocks(counts):
    """Blocks of pixels scanned together by _row_scan, as (rows, width).

    Pixels are grouped by pair count between consecutive powers of two, so
    padding a block to its longest list less than doubles it, and a group
    is cut into blocks of about _BLOCK_ENTRIES padded entries (at least one
    pixel each): memory follows the pair count, not pixels x deepest pixel.
    """
    group = np.frexp(counts.astype(np.float64))[1]
    for g in np.unique(group):
        rows = np.flatnonzero(group == g)
        width = int(counts[rows].max())
        step = max(1, _BLOCK_ENTRIES // width)
        for lo in range(0, rows.shape[0], step):
            yield rows[lo : lo + step], width


def _row_scan(values, starts, counts, fill, scan):
    """Apply scan along each pixel's pair list; returns per-pair results.

    values are per pair, pixel-major: pixel r's list is
    values[starts[r] : starts[r] + counts[r]], front to back. Each block of
    _row_blocks is padded at the end of its rows with fill and passed to
    scan, which works along axis 1.
    """
    out = np.empty_like(values)
    for rows, width in _row_blocks(counts):
        c = counts[rows]
        r = np.repeat(np.arange(rows.shape[0]), c)
        col = np.arange(r.shape[0]) - np.repeat(np.cumsum(c) - c, c)
        pair = starts[rows][r] + col
        block = np.full((rows.shape[0], width), fill)
        block[r, col] = values[pair]
        out[pair] = scan(block)[r, col]
    return out


def _composite_pairs(prep, width: int, height: int, config: RenderConfig):
    """Composite every pixel over its kept pairs only.

    Skipped pairs have alpha exactly 0, a factor of exactly 1 in the
    transmittance product, so per pixel this reproduces _composite_block's
    transmittance and weights bit for bit. Returns flat (H*W, 3) rgb,
    (H*W,) depth and alpha_acc, and the per-pair state render_backward uses
    (None when no pair is kept).
    """
    n_pix = width * height
    rgb = np.zeros((n_pix, 3))
    depth = np.zeros(n_pix)
    alpha_acc = np.zeros(n_pix)
    slot, pixel, dx, dy, q = _footprint_pairs(prep, width, height)
    n = slot.shape[0]
    if n == 0:
        return rgb, depth, alpha_acc, None

    starts = np.flatnonzero(np.concatenate([[True], pixel[1:] != pixel[:-1]]))
    counts = np.diff(np.append(starts, n))
    last = starts + counts - 1

    e = np.exp(-0.5 * q)
    araw = prep["opacity"][slot] * e
    a = np.minimum(araw, config.alpha_clamp)
    T_incl = _row_scan(1.0 - a, starts, counts, 1.0, lambda b: np.cumprod(b, axis=1))
    T_excl = np.empty(n)
    T_excl[1:] = T_incl[:-1]
    T_excl[starts] = 1.0
    active = T_excl >= config.early_stop_transmittance
    wgt = np.where(active, T_excl * a, 0.0)

    color = prep["color"][slot]
    for c in range(3):
        rgb[:, c] = np.bincount(pixel, weights=wgt * color[:, c], minlength=n_pix)
    depth[:] = np.bincount(pixel, weights=wgt * prep["dist"][slot], minlength=n_pix)
    # Transmittance never rises along a pixel's list, so the early stop
    # freezes it at the first inactive pair, or after the last pair when
    # every pair stayed active.
    n_active = np.add.reduceat(active.astype(np.int64), starts)
    frozen = np.where(
        n_active < counts,
        T_excl[np.minimum(starts + n_active, last)],
        T_incl[last],
    )
    alpha_acc[pixel[starts]] = 1.0 - frozen

    state = {
        "slot": slot, "pixel": pixel, "starts": starts, "counts": counts,
        "dx": dx, "dy": dy, "e": e, "araw": araw, "a": a,
        "T_excl": T_excl, "active": active, "wgt": wgt,
    }
    return rgb, depth, alpha_acc, state


# ---------------------------------------------------------------------------
# Block compositing (the reference forward pass)
# ---------------------------------------------------------------------------


def _composite_block(px, py, prep, slots, config):
    """Composite the Gaussians at ``slots`` over the pixel block py x px.

    Per pixel this is the front-to-back compositing of the module docstring:
    the transmittance recursion is a sequential cumulative product over the
    sorted slots. Returns (rgb, depth, alpha_acc, wgt), where wgt (L, h, w)
    holds each slot's compositing weight at each pixel.
    """
    h, w = py.shape[0], px.shape[0]
    L = slots.shape[0]
    if L == 0:
        zero = np.zeros((h, w))
        return np.zeros((h, w, 3)), zero, zero.copy(), np.zeros((0, h, w))

    mx = prep["mx"][slots][:, None, None]
    my = prep["my"][slots][:, None, None]
    ia = prep["ia"][slots][:, None, None]
    ib = prep["ib"][slots][:, None, None]
    ic = prep["ic"][slots][:, None, None]
    op = prep["opacity"][slots][:, None, None]
    qcut = prep["qcut"][slots][:, None, None]
    color = prep["color"][slots]
    dist = prep["dist"][slots]

    dx = px[None, None, :] - mx
    dy = py[None, :, None] - my
    q = dx * (ia * dx + ib * dy) + dy * (ib * dx + ic * dy)
    # Dropped pairs (q > qcut) contribute neither value nor gradient, so
    # skipping their exp changes nothing and saves most of the exp cost.
    kept_q = q <= qcut
    e = np.exp(-0.5 * q, out=np.zeros_like(q), where=kept_q)
    araw = op * e
    # dropped pairs (e = 0) already land at a = 0, no extra mask pass needed
    a = np.minimum(araw, config.alpha_clamp)

    one_minus = 1.0 - a
    T_incl = np.cumprod(one_minus, axis=0)
    T_excl = np.concatenate([np.ones((1, h, w)), T_incl[:-1]], axis=0)
    stop = config.early_stop_transmittance
    active = T_excl >= stop
    wgt = np.where(active, T_excl * a, 0.0)

    wgt_flat = wgt.reshape(L, h * w)
    rgb = (wgt_flat.T @ color).reshape(h, w, 3)
    depth = (dist @ wgt_flat).reshape(h, w)

    # Early stop freezes transmittance at its first sub-threshold value.
    T_ext = np.concatenate([T_excl, T_incl[-1:]], axis=0)
    below = T_ext < stop
    any_below = below.any(axis=0)
    first = below.argmax(axis=0)
    frozen = np.take_along_axis(T_ext, first[None], axis=0)[0]
    T_final = np.where(any_below, frozen, T_incl[-1])
    alpha_acc = 1.0 - T_final
    return rgb, depth, alpha_acc, wgt


def _validate_size(camera: Camera) -> tuple[int, int]:
    width, height = camera.image_size
    if width <= 0 or height <= 0:
        raise ValueError(f"image size must be positive, got {(width, height)}")
    return int(width), int(height)


def render_reference(
    gaussians,
    camera: Camera,
    config: RenderConfig = DEFAULT_CONFIG,
) -> RenderOutput:
    """Brute-force oracle: every Gaussian at every pixel, no tiling."""
    width, height = _validate_size(camera)
    _, prep = _prepare(gaussians, camera, config)
    slots = np.arange(prep["mx"].shape[0], dtype=np.int64)

    rgb = np.zeros((height, width, 3))
    depth = np.zeros((height, width))
    alpha_acc = np.zeros((height, width))
    px = np.arange(width, dtype=np.float64)
    band = 16  # row-band processing bounds the (L, h, w) temporaries
    for y0 in range(0, height, band):
        y1 = min(y0 + band, height)
        py = np.arange(y0, y1, dtype=np.float64)
        r, d, acc, _ = _composite_block(px, py, prep, slots, config)
        rgb[y0:y1] = r
        depth[y0:y1] = d
        alpha_acc[y0:y1] = acc
    return RenderOutput(rgb=rgb, depth=depth, alpha_acc=alpha_acc)


def render_forward(
    gaussians,
    camera: Camera,
    config: RenderConfig = DEFAULT_CONFIG,
) -> tuple[RenderOutput, RenderCache]:
    """Footprint-pair forward pass; the returned cache, which keeps the
    per-pair compositing intermediates, enables render_backward."""
    width, height = _validate_size(camera)
    P, prep = _prepare(gaussians, camera, config)
    rgb, depth, alpha_acc, state = _composite_pairs(prep, width, height, config)
    out = RenderOutput(
        rgb=rgb.reshape(height, width, 3),
        depth=depth.reshape(height, width),
        alpha_acc=alpha_acc.reshape(height, width),
    )
    return out, RenderCache(gaussians, camera, config, width, height, P, prep, state)


def render(
    gaussians,
    camera: Camera,
    config: RenderConfig = DEFAULT_CONFIG,
) -> RenderOutput:
    """Footprint-pair rendering, as used by the ground-truth bake and
    inference; agrees with the render_reference oracle to rounding, and
    makes the same drop and early-stop decisions."""
    out, _ = render_forward(gaussians, camera, config)
    return out


# ---------------------------------------------------------------------------
# Analytic backward
# ---------------------------------------------------------------------------


def render_backward(cache: RenderCache, grad_rgb: np.ndarray, grad_depth: np.ndarray):
    """Gradients of sum(grad_rgb * rgb) + sum(grad_depth * depth) w.r.t. the
    five Gaussian parameter classes. Requires the cache from render_forward."""
    if not isinstance(cache, RenderCache):
        raise ValueError("render_backward requires the cache from render_forward")
    grad_rgb = np.asarray(grad_rgb, dtype=np.float64)
    grad_depth = np.asarray(grad_depth, dtype=np.float64)
    H, W = cache.height, cache.width
    if grad_rgb.shape != (H, W, 3) or grad_depth.shape != (H, W):
        raise ValueError(
            f"gradient shapes {grad_rgb.shape}/{grad_depth.shape} do not match render size {(H, W)}"
        )

    prep, config = cache.prep, cache.config
    n_sorted = prep["mx"].shape[0]
    state = cache.internals
    if state is None:  # no Gaussian reaches a pixel
        zero = np.zeros(n_sorted)
        return _projection_backward(
            cache, zero, zero, zero, zero, zero, zero, zero, np.zeros((n_sorted, 3))
        )

    slot, pixel = state["slot"], state["pixel"]
    a, araw, e, wgt = state["a"], state["araw"], state["e"], state["wgt"]
    dx, dy = state["dx"], state["dy"]
    gC = grad_rgb.reshape(-1, 3)[pixel]  # per pair
    gD = grad_depth.reshape(-1)[pixel]
    color = prep["color"][slot]
    v = np.einsum("pc,pc->p", color, gC) + prep["dist"][slot] * gD

    # dL/dalpha_i = T_i v_i - S_i/(1-alpha_i), S_i the suffix sum of w_k v_k
    # along the pixel. When alpha_i = 1 the suffix is exactly zero
    # (everything behind is fully occluded), so the quotient is defined as
    # zero; those pairs are dropped by the clamp mask anyway.
    sw = wgt * v
    suffix = _row_scan(
        sw, state["starts"], state["counts"], 0.0,
        lambda b: np.cumsum(b[:, ::-1], axis=1)[:, ::-1],
    ) - sw
    om = 1.0 - a
    ratio = np.divide(suffix, om, out=np.zeros_like(suffix), where=om > 0.0)
    ga = state["T_excl"] * v - ratio
    kept = state["active"] & (a > 0.0) & (araw < config.alpha_clamp)
    ga = np.where(kept, ga, 0.0)

    # q = ia dx^2 + 2 ib dx dy + ic dy^2, dx = px - mx, dy = py - my.
    gq = -0.5 * ga * a
    gqdx = gq * dx
    gqdy = gq * dy
    ia, ib, ic = prep["ia"][slot], prep["ib"][slot], prep["ic"][slot]

    def per_slot(weights):
        return np.bincount(slot, weights=weights, minlength=n_sorted)

    g_mx = -2.0 * per_slot(ia * gqdx + ib * gqdy)
    g_my = -2.0 * per_slot(ib * gqdx + ic * gqdy)
    g_ia = per_slot(gqdx * dx)
    g_ib = 2.0 * per_slot(gqdx * dy)
    g_ic = per_slot(gqdy * dy)
    g_op = per_slot(ga * e)
    g_color = np.stack([per_slot(wgt * gC[:, c]) for c in range(3)], axis=1)
    g_dist = per_slot(wgt * gD)

    return _projection_backward(
        cache, g_mx, g_my, g_ia, g_ib, g_ic, g_op, g_dist, g_color
    )


def _projection_backward(cache, g_mx, g_my, g_ia, g_ib, g_ic, g_op, g_dist, g_color):
    """Chain screen-space gradients back to mu/quat/scale/opacity/color."""
    arrays, camera, P, prep = cache.arrays, cache.camera, cache.P, cache.prep
    K = arrays["mu"].shape[0]
    sel = prep["sel"]

    out = {name: np.zeros((K, *geo.GAUSSIAN_DTYPE[name].shape)) for name in FIELDS}
    if sel.shape[0] == 0:
        return out

    out["opacity"][sel] = g_op
    out["color"][sel] = g_color

    # Inverse-covariance entries -> cov2d. P2 = cov2d^{-1}; the quadform used
    # ib once for both off-diagonal slots, so its matrix gradient splits.
    ia, ib, ic = prep["ia"], prep["ib"], prep["ic"]
    P2 = np.empty((sel.shape[0], 2, 2))
    P2[:, 0, 0] = ia
    P2[:, 0, 1] = ib
    P2[:, 1, 0] = ib
    P2[:, 1, 1] = ic
    GP = np.empty_like(P2)
    GP[:, 0, 0] = g_ia
    GP[:, 0, 1] = 0.5 * g_ib
    GP[:, 1, 0] = 0.5 * g_ib
    GP[:, 1, 1] = g_ic
    G2 = -(P2 @ GP @ P2)

    J = P["J"][sel]
    cov_cam = P["cov_cam"][sel]
    gJ = 2.0 * (G2 @ J @ cov_cam)
    g_cov_cam = np.transpose(J, (0, 2, 1)) @ G2 @ J

    W4 = camera.world_to_camera()
    Rcw = W4[:3, :3]
    g_cov3d = Rcw.T @ g_cov_cam @ Rcw

    # Camera-frame mean gradients from mean2d, J, and cam_distance.
    t = P["cam_t"][sel]
    x, y, z = t[:, 0], t[:, 1], t[:, 2]
    fx, fy = camera.fx, camera.fy
    dist = prep["dist"]
    gt = np.zeros_like(t)
    gt[:, 0] = g_mx * fx / z + gJ[:, 0, 2] * (-fx / z**2)
    gt[:, 1] = g_my * fy / z + gJ[:, 1, 2] * (-fy / z**2)
    gt[:, 2] = (
        g_mx * (-fx * x / z**2)
        + g_my * (-fy * y / z**2)
        + gJ[:, 0, 0] * (-fx / z**2)
        + gJ[:, 1, 1] * (-fy / z**2)
        + gJ[:, 0, 2] * (2.0 * fx * x / z**3)
        + gJ[:, 1, 2] * (2.0 * fy * y / z**3)
    )
    gt += g_dist[:, None] * t / dist[:, None]
    out["mu"][sel] = gt @ Rcw

    # cov3d = R diag(s^2) R^T.
    Gsym = g_cov3d + np.transpose(g_cov3d, (0, 2, 1))
    R = P["R"][sel]
    scale = np.asarray(arrays["scale"], dtype=np.float64)[sel]
    # dL/ds_a = 2 s_a r_a^T G r_a (columns r_a of R), with the full G + G^T.
    col_quad = (R * (g_cov3d @ R)).sum(axis=1)
    out["scale"][sel] = 2.0 * scale * col_quad
    D = scale**2
    gR = (Gsym @ R) * D[:, None, :]
    dRdq = geo.rotation_jacobian_batch(np.asarray(arrays["quat"], dtype=np.float64)[sel])
    out["quat"][sel] = (dRdq.reshape(-1, 4, 9) @ gR.reshape(-1, 9, 1))[:, :, 0]
    return out


# ---------------------------------------------------------------------------
# Autodiff bridge
# ---------------------------------------------------------------------------


def render_node(
    gaussians, camera: Camera, config: RenderConfig = DEFAULT_CONFIG
) -> tuple[ad.Tensor, RenderOutput]:
    """Differentiable rendering of a decoder.DecodedGaussians as one engine
    node with value (H, W, 4), whose parents are its FIELDS Tensors in order.

    Channels 0-2 are RGB; channel 3 is depth. Returns the node and the full
    RenderOutput (for alpha_acc diagnostics, which carry no gradient).
    """
    out, cache = render_forward(gaussians, camera, config)
    value = np.concatenate([out.rgb, out.depth[..., None]], axis=2)

    def vjp(g):
        grads = render_backward(cache, g[..., 0:3], g[..., 3])
        return tuple(grads[name] for name in FIELDS)

    parents = tuple(getattr(gaussians, name) for name in FIELDS)
    return ad.custom(parents, value, vjp, name="render"), out
