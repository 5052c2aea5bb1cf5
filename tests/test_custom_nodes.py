"""Every custom tape node against a composed-ops oracle and finite differences.

REGISTRY maps each name the package gives ``ad.custom`` to a builder of
cases. A case holds the node's parent values, the package call that builds
the node, and an oracle that computes the same function from engine ops
(the attention oracle also uses the bilinear node, registered on its own).
One parametrised test compares forward values and VJPs with the oracle,
another checks the VJP of every parent against central differences, and a
coverage test fails when the pre-training or fine-tuning graph holds a
custom node that is not registered.
"""

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from querysplat import autodiff as ad
from querysplat import cli
from querysplat import config as cf
from querysplat import decoder as dec
from querysplat import encoder as enc
from querysplat import finetune as ft
from querysplat import pretrain as pt
from querysplat import renderer as rd
from querysplat import scenes as sc
from querysplat.geometry import COV2D_REG, NEAR_PLANE

from test_autodiff import transpose
from test_decoder import dense_voxel_conv, voxel_conv_case
from test_finetune import composed_neighbor_attention
from test_renderer import make_camera, random_scene


@dataclass
class Case:
    inputs: list  # parent values, in the node's parent order
    fused: Callable  # parent Tensors -> the custom node
    oracle: Callable  # parent Tensors -> the same function from engine ops
    exact: bool = False  # compare bits instead of to 1e-12
    fd_tol: float = 1e-6
    fd_agrees: bool = True  # False for a negative control that FD must flag


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def conv_indices(h, w, stride):
    """Flat im2col gather indices (h_out * w_out * 9,) for a 3x3 conv, with
    out-of-bounds taps pointing at the sentinel row h*w (zero padding)."""
    h_out, w_out = -(-h // stride), -(-w // stride)
    oy, ox = np.meshgrid(np.arange(h_out), np.arange(w_out), indexing="ij")
    ky, kx = np.meshgrid(np.arange(3), np.arange(3), indexing="ij")
    iy = oy[:, :, None, None] * stride + ky[None, None] - 1
    ix = ox[:, :, None, None] * stride + kx[None, None] - 1
    inside = (iy >= 0) & (iy < h) & (ix >= 0) & (ix < w)
    return np.where(inside, iy * w + ix, h * w).reshape(-1), h_out, w_out


def composed_conv2d(x, weight, bias, stride):
    """The 3x3 conv as reshape, zero sentinel row, im2col gather and linear."""
    h, w, c_in = x.data.shape
    index, h_out, w_out = conv_indices(h, w, stride)
    flat = ad.reshape(x, (h * w, c_in))
    padded = ad.concat([flat, ad.constant(np.zeros((1, c_in)))], axis=0)
    cols = ad.reshape(ad.gather(padded, index), (h_out * w_out, 9 * c_in))
    out = ad.linear(cols, weight, bias)
    return ad.reshape(out, (h_out, w_out, weight.data.shape[1]))


def composed_bilinear(level_map, pixels, stride, mask):
    """Zero-padded bilinear sampling as four corner gathers times weights."""
    h, w, c = level_map.data.shape
    uv = pixels * (1.0 / stride)
    base = np.floor(uv.data)
    frac = uv - ad.constant(base)
    fu, fv = ad.narrow(frac, 1, 0, 1), ad.narrow(frac, 1, 1, 1)
    padded = ad.concat(
        [ad.reshape(level_map, (h * w, c)), ad.constant(np.zeros((1, c)))], axis=0
    )
    x0, y0 = base[:, 0].astype(np.int64), base[:, 1].astype(np.int64)
    out = None
    for dy in (0, 1):
        for dx in (0, 1):
            cx, cy = x0 + dx, y0 + dy
            inside = (cx >= 0) & (cx < w) & (cy >= 0) & (cy < h)
            rows = ad.gather(padded, np.where(inside, cy * w + cx, h * w))
            weight = (fu if dx else 1.0 - fu) * (fv if dy else 1.0 - fv)
            term = rows * (weight * ad.constant(mask))
            out = term if out is None else out + term
    return out


def composed_projection(points, camera):
    """Pinhole projection in engine ops; behind-plane points get depth 1."""
    W = camera.world_to_camera()
    t = ad.add(ad.matmul(points, ad.constant(W[:3, :3].T)), ad.constant(W[:3, 3]))
    z = ad.narrow(t, 1, 2, 1)
    mask = (z.data > NEAR_PLANE).astype(np.float64)
    inv_z = ad.reciprocal_pos(ad.add(z * mask, ad.constant(1.0 - mask)))
    focal = np.array([camera.fx, camera.fy])
    center = np.array([camera.cx, camera.cy])
    xy = ad.narrow(t, 1, 0, 2)
    return ad.mul(xy, inv_z) * ad.constant(focal) + ad.constant(center), mask


def composed_mix(sampled, weights):
    """Per-head weighted sums over B (K * O, D) blocks as concat, transpose,
    mul and sum; returns (K, H, D // H)."""
    K, H, S = weights.shape
    D = sampled[0].shape[1]
    O = S // len(sampled)
    blocks = [ad.reshape(t, (K, O * D)) for t in sampled]
    value = ad.reshape(ad.concat(blocks, axis=1), (K, S, H, D // H))
    value_hm = transpose(value, (0, 2, 1, 3))
    return ad.reduce_sum(ad.mul(value_hm, ad.reshape(weights, (K, H, S, 1))), axis=2)


def composed_attention(refs, maps, weights, cameras):
    """The deformable attention body as it was composed before its fusion:
    per view a projection, per (view, level) a bilinear node, then mixing."""
    sampled = []
    for vi, cam in enumerate(cameras):
        pixels, in_front = composed_projection(refs, cam)
        for li, stride in enumerate(enc.STRIDES):
            level = maps[vi * len(enc.STRIDES) + li]
            sampled.append(enc.bilinear_sample_batch(level, pixels, stride, mask=in_front))
    mixed = composed_mix(sampled, weights)
    return ad.reshape(mixed, (weights.shape[0], sampled[0].shape[1]))


def composed_render(mu, quat, scale, opacity, color, cam, config):
    """Splat rendering of Gaussians in front of the camera, in engine ops:
    projection, covariance, footprint, drop rule and front-to-back
    compositing. Returns the (H, W, 4) rgb + depth node value."""
    K = mu.shape[0]
    width, height = cam.image_size
    W = cam.world_to_camera()
    Rcw = W[:3, :3]
    t = ad.matmul(mu, ad.constant(Rcw.T)) + ad.constant(W[:3, 3])
    x, y, z = (ad.narrow(t, 1, i, 1) for i in range(3))
    inv_z = ad.reciprocal_pos(z)
    mx = x * inv_z * cam.fx + cam.cx
    my = y * inv_z * cam.fy + cam.cy
    dist = ad.sqrt_pos(ad.reduce_sum(t * t, axis=1, keepdims=True))

    norm = ad.sqrt_pos(ad.reduce_sum(quat * quat, axis=1, keepdims=True))
    qw, qx, qy, qz = (ad.narrow(quat * ad.reciprocal_pos(norm), 1, i, 1) for i in range(4))
    R = ad.reshape(ad.concat([
        1.0 - (qy * qy + qz * qz) * 2.0, (qx * qy - qw * qz) * 2.0, (qx * qz + qw * qy) * 2.0,
        (qx * qy + qw * qz) * 2.0, 1.0 - (qx * qx + qz * qz) * 2.0, (qy * qz - qw * qx) * 2.0,
        (qx * qz - qw * qy) * 2.0, (qy * qz + qw * qx) * 2.0, 1.0 - (qx * qx + qy * qy) * 2.0,
    ], axis=1), (K, 3, 3))
    RS = R * ad.reshape(scale, (K, 1, 3))
    cov3d = ad.reduce_sum(ad.reshape(RS, (K, 3, 1, 3)) * ad.reshape(RS, (K, 1, 3, 3)), axis=3)
    # cov2d = M cov3d M^T with M = J Rcw, J the projection Jacobian.
    zero = ad.constant(np.zeros((K, 1)))
    J = ad.reshape(ad.concat([
        inv_z * cam.fx, zero, -(x * inv_z * inv_z * cam.fx),
        zero, inv_z * cam.fy, -(y * inv_z * inv_z * cam.fy),
    ], axis=1), (K, 2, 3, 1))
    M = ad.reduce_sum(J * ad.constant(Rcw.reshape(1, 1, 3, 3)), axis=2)  # (K, 2, 3)
    N = ad.reduce_sum(ad.reshape(M, (K, 2, 3, 1)) * ad.reshape(cov3d, (K, 1, 3, 3)), axis=2)
    cov2d = ad.reshape(
        ad.reduce_sum(ad.reshape(N, (K, 2, 1, 3)) * ad.reshape(M, (K, 1, 2, 3)), axis=3),
        (K, 4),
    )
    a = ad.narrow(cov2d, 1, 0, 1) + COV2D_REG
    b = (ad.narrow(cov2d, 1, 1, 1) + ad.narrow(cov2d, 1, 2, 1)) * 0.5
    c = ad.narrow(cov2d, 1, 3, 1) + COV2D_REG
    inv_det = ad.reciprocal_pos(a * c - b * b)
    ia, ib, ic = (ad.reshape(v, (1, K)) for v in (c * inv_det, -(b * inv_det), a * inv_det))

    px = np.tile(np.arange(width, dtype=np.float64), height)[:, None]
    py = np.repeat(np.arange(height, dtype=np.float64), width)[:, None]
    dx = ad.constant(px) - ad.reshape(mx, (1, K))
    dy = ad.constant(py) - ad.reshape(my, (1, K))
    q = dx * (ia * dx + ib * dy) + dy * (ib * dx + ic * dy)  # (P, K)
    kept = q.data <= rd._quad_cutoff(opacity.data, config.contribution_floor)[None]
    alpha = ad.reshape(opacity, (1, K)) * ad.exp(q * -0.5) * ad.constant(kept * 1.0)

    trans = rgb = depth = None
    for k in np.lexsort((np.arange(K), dist.data[:, 0])):
        a_k = ad.narrow(alpha, 1, int(k), 1)
        w_k = a_k if trans is None else trans * a_k
        rgb_k = w_k * ad.narrow(color, 0, int(k), 1)
        depth_k = w_k * ad.narrow(dist, 0, int(k), 1)
        rgb = rgb_k if rgb is None else rgb + rgb_k
        depth = depth_k if depth is None else depth + depth_k
        trans = (1.0 - a_k) if trans is None else trans * (1.0 - a_k)
    return ad.reshape(ad.concat([rgb, depth], axis=1), (height, width, 4))


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------


def conv2d_cases(rng):
    cases = []
    # Stride 1, and stride 2 on odd sizes (the last row and column of
    # outputs sit on the zero padding).
    for h, w, c_in, c_out, stride in ((5, 6, 3, 4, 1), (7, 5, 2, 3, 2)):
        inputs = [
            rng.normal(size=(h, w, c_in)),
            rng.normal(size=(9 * c_in, c_out)),
            rng.normal(size=c_out),
        ]
        cases.append(Case(
            inputs,
            lambda x, wt, b, s=stride: enc.conv2d(x, wt, b, stride=s),
            lambda x, wt, b, s=stride: composed_conv2d(x, wt, b, s),
            exact=True,
        ))
    return cases


def bilinear_cases(rng):
    cases = []
    # With c = 4 a map of h*w + 1 <= 16 cells is sampled by the dense
    # interpolation matmul, a larger one by gathers: one case each.
    for h, w in ((3, 3), (5, 4)):
        c, stride, M = 4, 4, 9
        pixels = rng.uniform(-6.0, stride * w + 2.0, size=(M, 2))
        mask = np.ones((M, 1))
        mask[2] = 0.0
        cases.append(Case(
            [rng.normal(size=(h, w, c)), pixels],
            lambda m, p, mk=mask: enc.bilinear_sample_batch(m, p, stride, mask=mk),
            lambda m, p, mk=mask: composed_bilinear(m, p, stride, mk),
        ))
    return cases


def _attention_case(rng, cameras, level_sizes, K, O, H, c, refs):
    """level_sizes gives one map size per encoder stride."""
    maps = [rng.normal(size=(h, w, c)) for _ in cameras for h, w in level_sizes]
    S = len(maps) * O
    weights = rng.uniform(size=(K, H, S))

    def pyramid(level_maps):
        L = len(enc.STRIDES)
        return [[level_maps[v * L + li] for v in range(len(cameras))] for li in range(L)]

    return Case(
        [refs] + maps + [weights],
        lambda r, *rest: dec._sample_and_mix(r, pyramid(rest[:-1]), cameras, rest[-1]),
        lambda r, *rest: composed_attention(r, rest[:-1], rest[-1], cameras),
        fd_tol=1e-5,
    )


# Level map sizes of a 16x16 view at the encoder strides 4, 8, 16 and 32.
LEVELS_16 = ((4, 4), (2, 2), (1, 1), (1, 1))


def attention_cases(rng):
    bounds = np.array([[-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]])
    cams = sc._ring_cameras(bounds, 3, (16, 16))
    K, O = 3, 2
    refs = rng.uniform(-0.6, 0.6, size=(K * O, 3))
    # Two points behind the first camera: their samples in that view are
    # masked out, with zero value and gradient.
    ext = cams[0].extrinsics
    behind = ext[:3, 3] - ext[:3, :3] @ np.array([0.0, 0.0, 0.5])
    refs[:2] = behind + rng.uniform(-0.05, 0.05, size=(2, 3))
    return [
        # 2 views x 4 levels, the sizes a 16x16 view gives: the 4x4 level
        # gathers, the smaller ones use the matmul.
        _attention_case(rng, cams[:2], LEVELS_16, K, O, 2, 4, refs),
        # The head-mixing case: 1 view x 4 levels, 4 heads of width 2.
        _attention_case(
            rng, cams[:1], LEVELS_16, 5, 2, 4, 8, rng.uniform(-0.6, 0.6, size=(10, 3))
        ),
    ]


def voxel_conv_cases(rng):
    pairs, arrays, _ = voxel_conv_case(int(rng.integers(1 << 30)))
    return [Case(
        list(arrays),
        lambda p, w, b: dec._sparse_voxel_conv(p, w, b, pairs),
        lambda p, w, b: dense_voxel_conv(p, w, b, pairs),
    )]


def render_cases(rng):
    c, s = np.cos(0.2), np.sin(0.2)
    ext = np.eye(4)
    ext[:3, :3] = [[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]]
    cam = make_camera(fx=6.0, fy=7.0, size=(8, 6), extrinsics=ext)
    scene = random_scene(rng, 4, depth_range=(2.0, 3.5), spread=0.6)
    scene["opacity"] = rng.uniform(0.3, 0.9, size=4)
    config = rd.check_config()

    def render(*fields):
        return rd.render_node(dec.DecodedGaussians(*fields), cam, config)[0]

    return [Case(
        [scene[k] for k in ("mu", "quat", "scale", "opacity", "color")],
        render,
        lambda *g: composed_render(*g, cam, config),
        fd_tol=1e-4,
    )]


def neighbor_attention_cases(rng):
    neigh = rng.integers(0, 4, size=(7, 3))  # repeated rows exercise the scatter
    return [Case(
        [rng.normal(size=(7, 5)), rng.normal(size=(4, 5))],
        lambda q, kv: ft.neighbor_attention(q, kv, neigh),
        lambda q, kv: composed_neighbor_attention(q, kv, neigh),
        fd_tol=1e-5,
    )]


def fault_cases(rng):
    # The gradcheck's negative control: identity forward, negated VJP.
    # Its oracle is 2 * stop_gradient(x) - x; finite differences must flag it.
    return [Case(
        [rng.normal(size=(3, 2))],
        cli._fault_wrap,
        lambda t: ad.constant(2.0 * t.data) - t,
        exact=True,
        fd_agrees=False,
    )]


REGISTRY = {
    "conv2d": conv2d_cases,
    "bilinear": bilinear_cases,
    "deformable_attention": attention_cases,
    "voxel_conv": voxel_conv_cases,
    "render": render_cases,
    "neighbor_attention": neighbor_attention_cases,
    "fault": fault_cases,
}

# Names of the engine's own operations, which need no registry entry.
PRIMITIVES = {
    "add", "mul", "matmul", "sigmoid", "relu", "exp", "log", "softmax", "layer_norm",
    "concat", "narrow", "reshape", "sum", "gather", "scatter_add", "l1", "linear",
}


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_matches_oracle(name):
    for case in REGISTRY[name](np.random.default_rng(0)):
        results = []
        for build in (case.fused, case.oracle):
            leaves = [ad.Tensor(a.copy()) for a in case.inputs]
            out = build(*leaves)
            out.backward(np.random.default_rng(1).normal(size=out.shape))
            results.append([out.data] + [t.grad for t in leaves])
        for got, want in zip(*results):
            if case.exact:
                np.testing.assert_array_equal(got, want)
            else:
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_finite_differences(name):
    for case in REGISTRY[name](np.random.default_rng(2)):
        shape = case.fused(*[ad.constant(a) for a in case.inputs]).shape
        probe = np.random.default_rng(3).normal(size=shape)
        for i, point in enumerate(case.inputs):
            def fn(t, i=i):
                args = [ad.constant(a) for a in case.inputs]
                args[i] = t
                return ad.reduce_sum(case.fused(*args) * ad.constant(probe))

            err = ad.finite_difference_check(fn, point)
            if case.fd_agrees:
                assert err < case.fd_tol, f"{name} parent {i}: relative error {err:.2e}"
            else:
                assert err > 0.5, f"{name} parent {i}: the negative control passed"


def test_training_graphs_hold_only_registered_custom_nodes(tmp_path, monkeypatch):
    # Criterion 10's tiny CLI config.
    tiny = {
        "seed": 0,
        "data": {"n_scenes": 2, "n_objects": 1, "n_views": 2,
                 "image_size": [32, 32], "keep_rate": 0.5},
        "decoder": {"queries": 16, "feature_dim": 32},
        "finetune": {"grid": 4, "k": 4, "d_task": 16, "pe_hidden": 8},
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(tiny))
    cfg = cf.load_config(str(path))

    seen = set()
    custom, backward = ad.custom, ad.Tensor.backward

    def recording_custom(parents, value, vjp, name="custom"):
        seen.add(name)
        return custom(parents, value, vjp, name)

    def walking_backward(self, *args, **kwargs):
        seen.update(
            n.name for n in ad._topological_order(self)
            if n._vjp is not None and n.name not in PRIMITIVES
        )
        return backward(self, *args, **kwargs)

    monkeypatch.setattr(ad, "custom", recording_custom)
    monkeypatch.setattr(ad.Tensor, "backward", walking_backward)

    data = cfg["data"]
    spec = {k: data[k] for k in ("n_objects", "bounds", "n_views", "image_size")}
    scene = sc.generate_scene(spec, seed=0)
    sample = sc.bake_ground_truth(scene)
    model = pt.build_model(scene.bounds, cf.decoder_config(cfg), seed=0)
    pt.pretrain_step(model, sample, pt.OptimizerState(), cf.loss_weights(cfg), 1e-4)
    task = cli._build_task(cfg, scene.bounds, model.decoder_cfg.feature_dim)
    gt = ft.make_ground_truth_grid(scene, task.grid)
    ft.finetune_step(task, ft.infer_frozen(model, sample), gt, pt.OptimizerState(), 1e-3)

    assert seen - set(REGISTRY) == set(), "custom nodes without a registry entry"
    # The walk saw the graphs: every node the two steps build is there.
    assert set(REGISTRY) - {"fault"} <= seen
