"""Tests for the splat renderer: forward paths, oracle equivalence, backward."""

import numpy as np
import pytest

from querysplat import autodiff as ad
from querysplat import decoder as dec
from querysplat import geometry as geo
from querysplat import renderer as rd
from querysplat.geometry import Camera
from querysplat.renderer import RenderConfig

from test_geometry import (
    ProjectedGaussian,
    gaussian_records,
    project_gaussian,
    quaternion_to_rotation,
)


def make_camera(fx=25.0, fy=25.0, cx=None, cy=None, size=(32, 32), extrinsics=None):
    cx = (size[0] - 1) / 2.0 if cx is None else cx
    cy = (size[1] - 1) / 2.0 if cy is None else cy
    K = np.array([[fx, 0.0, cx], [0.0, fy, cy], [0.0, 0.0, 1.0]])
    T = np.eye(4) if extrinsics is None else extrinsics
    return Camera(intrinsics=K, extrinsics=T, image_size=size)


def random_scene(rng, n, depth_range=(2.0, 5.0), spread=1.2):
    """n Gaussians in front of an identity camera."""
    quats = rng.normal(size=(n, 4))
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    return {
        "mu": np.column_stack(
            [
                rng.uniform(-spread, spread, size=n),
                rng.uniform(-spread, spread, size=n),
                rng.uniform(*depth_range, size=n),
            ]
        ),
        "quat": quats,
        "scale": rng.uniform(0.05, 0.4, size=(n, 3)),
        "opacity": rng.uniform(0.1, 0.95, size=n),
        "color": rng.uniform(size=(n, 3)),
    }


def projected(opacity=1.0, mean=(0.0, 0.0), cov=None, dist=2.0, color=(1.0, 0.0, 0.0)):
    return ProjectedGaussian(
        mean2d=np.asarray(mean, dtype=np.float64),
        cov2d=np.eye(2) if cov is None else np.asarray(cov, dtype=np.float64),
        cam_distance=dist,
        opacity=opacity,
        color=np.asarray(color, dtype=np.float64),
    )


def alpha_composite(contributions, config=rd.DEFAULT_CONFIG, checked=True):
    """Scalar oracle: front-to-back compositing of an ordered (alpha, color,
    distance) list; returns (color (3,), depth, alpha_acc).

    Stops once transmittance drops below the configured early-stop
    threshold. When ``checked``, rejects input whose distances are not
    non-decreasing.
    """
    items = list(contributions)
    if checked:
        for i in range(1, len(items)):
            if items[i][2] < items[i - 1][2]:
                raise ValueError(
                    f"contributions not sorted front-to-back at position {i}"
                )
    T = 1.0
    color = np.zeros(3, dtype=np.float64)
    depth = 0.0
    for alpha, c, d in items:
        if T < config.early_stop_transmittance:
            break
        w = T * alpha
        color = color + w * np.asarray(c, dtype=np.float64)
        depth = depth + w * d
        T = T * (1.0 - alpha)
    return color, depth, 1.0 - T


def pixel_alpha(pg, pixel, config=rd.DEFAULT_CONFIG):
    """Scalar oracle: one Gaussian's alpha at one pixel, with clamp and floor."""
    ia, ib, ic = rd._invert_cov2d(pg.cov2d[None])
    dx = float(pixel[0]) - pg.mean2d[0]
    dy = float(pixel[1]) - pg.mean2d[1]
    q = dx * (ia[0] * dx + ib[0] * dy) + dy * (ib[0] * dx + ic[0] * dy)
    a = min(pg.opacity * np.exp(-0.5 * q), config.alpha_clamp)
    if q > rd._quad_cutoff(np.array([pg.opacity]), config.contribution_floor)[0]:
        return 0.0
    return float(a)


class TestPixelAlpha:
    def test_center_equals_opacity(self):
        pg = projected(opacity=0.8)
        assert pixel_alpha(pg, np.zeros(2)) == pytest.approx(0.8, abs=0.0)

    def test_zero_opacity(self):
        pg = projected(opacity=0.0)
        assert pixel_alpha(pg, np.array([0.3, -0.7])) == 0.0

    def test_unit_offset(self):
        pg = projected(opacity=1.0)
        alpha = pixel_alpha(pg, np.array([1.0, 0.0]))
        assert alpha == pytest.approx(np.exp(-0.5), abs=1e-12)

    def test_clamped(self):
        pg = projected(opacity=1.0)
        cfg = RenderConfig(alpha_clamp=0.9)
        assert pixel_alpha(pg, np.zeros(2), cfg) == 0.9

    def test_floor_drops_far_contributions(self):
        pg = projected(opacity=1.0)
        # q = 100 => alpha ~ 2e-22, far below 1/255.
        assert pixel_alpha(pg, np.array([10.0, 0.0])) == 0.0


class TestAlphaComposite:
    def test_single_opaque(self):
        color, depth, acc = alpha_composite([(1.0, (1.0, 0.0, 0.0), 2.0)])
        np.testing.assert_array_equal(color, [1.0, 0.0, 0.0])
        assert depth == 2.0
        assert acc == 1.0

    def test_two_gaussian_exact_case(self):
        # Expanding the compositing sums by hand:
        # w1 = 0.5, w2 = 0.5*1.0; color = (0.5, 0.5, 0); depth = 0.5*2 + 0.5*4.
        color, depth, acc = alpha_composite(
            [(0.5, (1.0, 0.0, 0.0), 2.0), (1.0, (0.0, 1.0, 0.0), 4.0)]
        )
        np.testing.assert_array_equal(color, [0.5, 0.5, 0.0])
        assert depth == 3.0
        assert acc == 1.0

    def test_empty(self):
        color, depth, acc = alpha_composite([])
        np.testing.assert_array_equal(color, np.zeros(3))
        assert depth == 0.0
        assert acc == 0.0

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            alpha_composite(
                [(0.5, (1.0, 0.0, 0.0), 4.0), (0.5, (0.0, 1.0, 0.0), 2.0)]
            )

    def test_early_termination_freezes_transmittance(self):
        # After an alpha of 0.99999 the transmittance is 1e-5 < 1e-4, so the
        # second contribution is never composited.
        color, depth, acc = alpha_composite(
            [(0.99999, (1.0, 0.0, 0.0), 1.0), (1.0, (0.0, 1.0, 0.0), 2.0)],
            checked=True,
        )
        assert color[1] == 0.0
        assert acc == pytest.approx(0.99999, abs=1e-15)

    def test_weights_sum_to_alpha_acc(self):
        rng = np.random.default_rng(42)
        alphas = rng.uniform(0.0, 0.9, size=30)
        items = [(float(a), rng.uniform(size=3), float(d)) for a, d in zip(alphas, np.sort(rng.uniform(1, 5, size=30)))]
        _, _, acc = alpha_composite(items, rd.check_config())
        T = 1.0
        wsum = 0.0
        for a, _, _ in items:
            wsum += T * a
            T *= 1.0 - a
        assert abs(wsum - acc) < 1e-12


class TestRenderForward:
    def test_empty_scene_is_background(self):
        out = rd.render(np.zeros(0, dtype=geo.GAUSSIAN_DTYPE), make_camera())
        assert not out.rgb.any()
        assert not out.depth.any()
        assert not out.alpha_acc.any()

    def test_zero_image_size_rejected(self):
        with pytest.raises(ValueError, match="image size"):
            rd.render(np.zeros(0, dtype=geo.GAUSSIAN_DTYPE), make_camera(size=(0, 32)))

    def test_single_gaussian_matches_reference_exactly(self):
        g = {
            "mu": np.array([[0.0, 0.0, 3.0]]),
            "quat": np.array([[1.0, 0.0, 0.0, 0.0]]),
            "scale": np.array([[0.3, 0.3, 0.3]]),
            "opacity": np.array([0.9]),
            "color": np.array([[0.2, 0.7, 0.4]]),
        }
        cam = make_camera()
        tiled = rd.render(g, cam)
        ref = rd.render_reference(g, cam)
        np.testing.assert_array_equal(tiled.rgb, ref.rgb)
        np.testing.assert_array_equal(tiled.depth, ref.depth)
        np.testing.assert_array_equal(tiled.alpha_acc, ref.alpha_acc)

    def test_random_scenes_match_reference(self):
        rng = np.random.default_rng(42)
        cam = make_camera(fx=40.0, fy=40.0, size=(64, 64))
        for _ in range(5):
            scene = random_scene(rng, 120)
            tiled = rd.render(scene, cam)
            ref = rd.render_reference(scene, cam)
            assert np.max(np.abs(tiled.rgb - ref.rgb)) < 1e-6
            assert np.max(np.abs(tiled.depth - ref.depth)) < 1e-6
            assert np.max(np.abs(tiled.alpha_acc - ref.alpha_acc)) < 1e-6

    def test_reference_matches_per_pixel_spec_ops(self):
        # The block-compositing implementation agrees with the literal
        # pixel_alpha + alpha_composite pipeline.
        rng = np.random.default_rng(7)
        cam = make_camera(size=(12, 12))
        scene = random_scene(rng, 25)
        out = rd.render_reference(scene, cam)

        prims = gaussian_records(**scene)
        pgs = [project_gaussian(g, cam, index=k) for k, g in enumerate(prims)]
        pgs = [p for p in pgs if p is not None]
        pgs.sort(key=lambda p: (p.cam_distance, p.index))
        for (py, px) in [(0, 0), (3, 7), (11, 11), (6, 5)]:
            pixel = np.array([float(px), float(py)])
            contribs = [
                (pixel_alpha(p, pixel), p.color, p.cam_distance) for p in pgs
            ]
            color, depth, acc = alpha_composite(contribs, checked=False)
            np.testing.assert_allclose(out.rgb[py, px], color, atol=1e-12)
            assert abs(out.depth[py, px] - depth) < 1e-12
            assert abs(out.alpha_acc[py, px] - acc) < 1e-12

    def test_compositing_weights_match_alpha_acc(self):
        rng = np.random.default_rng(3)
        scene = random_scene(rng, 40)
        cam = make_camera()
        _, prep = rd._prepare(scene, cam, rd.DEFAULT_CONFIG)
        slots = np.arange(prep["mx"].shape[0])
        px = np.arange(32, dtype=np.float64)
        py = np.arange(32, dtype=np.float64)
        _, _, acc, wgt = rd._composite_block(px, py, prep, slots, rd.DEFAULT_CONFIG)
        assert np.all(wgt >= 0.0)
        np.testing.assert_allclose(wgt.sum(axis=0), acc, atol=1e-12)

    def _dense_quadform(self, prep, width, height):
        px = np.arange(width, dtype=np.float64)
        py = np.arange(height, dtype=np.float64)
        dx = px[None, None, :] - prep["mx"][:, None, None]
        dy = py[None, :, None] - prep["my"][:, None, None]
        ia = prep["ia"][:, None, None]
        ib = prep["ib"][:, None, None]
        ic = prep["ic"][:, None, None]
        return dx * (ia * dx + ib * dy) + dy * (ib * dx + ic * dy)

    def test_footprint_pairs_match_dense_drop_rule(self):
        rng = np.random.default_rng(5)
        cam = make_camera(size=(40, 24))
        for config in (rd.DEFAULT_CONFIG, rd.check_config()):
            arrays = random_scene(rng, 80)
            _, prep = rd._prepare(arrays, cam, config)
            q = self._dense_quadform(prep, 40, 24)
            l_idx, y, x = np.nonzero(q <= prep["qcut"][:, None, None])
            slot, pixel, dx, dy, qp = rd._footprint_pairs(prep, 40, 24)
            expected = sorted(zip((y * 40 + x).tolist(), l_idx.tolist()))
            assert list(zip(pixel.tolist(), slot.tolist())) == expected
            np.testing.assert_array_equal(qp, q[slot, pixel // 40, pixel % 40])
            np.testing.assert_array_equal(dx, pixel % 40 - prep["mx"][slot])
            np.testing.assert_array_equal(dy, pixel // 40 - prep["my"][slot])

    def test_pair_compositing_bit_identical_to_block(self):
        rng = np.random.default_rng(6)
        cam = make_camera(size=(32, 32))
        arrays = random_scene(rng, 80)
        _, prep = rd._prepare(arrays, cam, rd.DEFAULT_CONFIG)
        px = np.arange(32, dtype=np.float64)
        slots = np.arange(prep["mx"].shape[0])
        _, _, acc, wgt = rd._composite_block(px, px, prep, slots, rd.DEFAULT_CONFIG)
        _, _, acc_pairs, state = rd._composite_pairs(prep, 32, 32, rd.DEFAULT_CONFIG)
        pixel = state["pixel"]
        np.testing.assert_array_equal(
            state["wgt"], wgt[state["slot"], pixel // 32, pixel % 32]
        )
        wgt[state["slot"], pixel // 32, pixel % 32] = 0.0
        assert not wgt.any()  # every other pair has weight exactly 0
        np.testing.assert_array_equal(acc_pairs.reshape(32, 32), acc)

    def test_cache_tiles_list_every_kept_pair(self):
        rng = np.random.default_rng(8)
        cam = make_camera(size=(40, 24))
        _, cache = rd.render_forward(random_scene(rng, 60), cam)
        ts = cache.config.tile_size
        state = cache.internals
        pixel = state["pixel"]
        tile = (pixel // 40) // ts * (-(-40 // ts)) + (pixel % 40) // ts
        for t, s in zip(tile.tolist(), state["slot"].tolist()):
            assert s in cache.tiles[t]

    def test_row_blocks_bound_padding(self):
        # One deep pixel among thousands of shallow ones must not pad them all.
        rng = np.random.default_rng(9)
        counts = np.concatenate(
            [rng.integers(1, 4, size=5000), [300], rng.integers(4, 40, size=500)]
        )
        seen = []
        for rows, width in rd._row_blocks(counts):
            assert width == counts[rows].max()
            assert width < 2 * counts[rows].min()
            assert rows.shape[0] * width <= max(rd._BLOCK_ENTRIES, width)
            seen.append(rows)
        seen = np.sort(np.concatenate(seen))
        np.testing.assert_array_equal(seen, np.arange(counts.shape[0]))

    def test_deep_pixel_on_wide_image(self, monkeypatch):
        # 200 faint, tiny Gaussians on one pixel's ray of a wide view, over
        # a spread of ordinary ones.
        rng = np.random.default_rng(10)
        cam = make_camera(size=(256, 24))
        t = np.linspace(2.0, 5.0, 200)
        stack = {
            "mu": t[:, None] * np.array([0.1, 0.06, 1.0]),  # pixel (130, 13)
            "quat": np.tile([1.0, 0.0, 0.0, 0.0], (200, 1)),
            "scale": np.full((200, 3), 0.02),
            "opacity": np.full(200, 0.02),
            "color": rng.uniform(size=(200, 3)),
        }
        spread = random_scene(rng, 60, spread=4.0)
        scene = {k: np.concatenate([stack[k], spread[k]]) for k in stack}
        out, cache = rd.render_forward(scene, cam)
        assert cache.internals["counts"].max() >= 200
        ref = rd.render_reference(scene, cam)
        np.testing.assert_allclose(out.rgb, ref.rgb, atol=1e-6)
        np.testing.assert_allclose(out.depth, ref.depth, atol=1e-6)
        g_rgb = rng.normal(size=(24, 256, 3))
        g_depth = rng.normal(size=(24, 256))
        grads = rd.render_backward(cache, g_rgb, g_depth)

        # Blocks of one pixel (and one Gaussian per enumeration run) give
        # the same bits.
        monkeypatch.setattr(rd, "_BLOCK_ENTRIES", 16)
        small_out, small_cache = rd.render_forward(scene, cam)
        assert small_out.rgb.tobytes() == out.rgb.tobytes()
        assert small_out.alpha_acc.tobytes() == out.alpha_acc.tobytes()
        small = rd.render_backward(small_cache, g_rgb, g_depth)
        for k in grads:
            assert small[k].tobytes() == grads[k].tobytes()

    def test_equal_distance_tie_broken_by_index(self):
        # Two fully-overlapping Gaussians at the same distance: the first by
        # index is composited first, so its color dominates.
        base = {
            "quat": np.tile([1.0, 0.0, 0.0, 0.0], (2, 1)),
            "scale": np.full((2, 3), 0.4),
            "opacity": np.array([0.8, 0.8]),
            "color": np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        }
        scene = dict(base, mu=np.array([[0.0, 0.0, 3.0], [0.0, 0.0, 3.0]]))
        out = rd.render(scene, make_camera())
        center = out.rgb[15, 15]
        assert center[0] > center[1] > 0.0

    def test_bit_identical_across_runs(self):
        rng = np.random.default_rng(11)
        scene = random_scene(rng, 60)
        cam = make_camera()
        a = rd.render(scene, cam)
        b = rd.render(scene, cam)
        assert a.rgb.tobytes() == b.rgb.tobytes()
        assert a.depth.tobytes() == b.depth.tobytes()

    def test_record_array_renders_like_dict(self):
        # A GAUSSIAN_DTYPE record array holds its fields strided in one
        # buffer; every path gives the dict's bits, and the backward's.
        rng = np.random.default_rng(12)
        scene = random_scene(rng, 60)
        records = gaussian_records(**scene)
        cam = make_camera()
        for render in (rd.render, rd.render_reference):
            a, b = render(scene, cam), render(records, cam)
            for field in ("rgb", "depth", "alpha_acc"):
                assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
        seed_rgb = rng.normal(size=(32, 32, 3))
        seed_depth = rng.normal(size=(32, 32))
        ga = rd.render_backward(rd.render_forward(scene, cam)[1], seed_rgb, seed_depth)
        gb = rd.render_backward(rd.render_forward(records, cam)[1], seed_rgb, seed_depth)
        for name in ga:
            assert ga[name].tobytes() == gb[name].tobytes()

    def test_rigid_invariance_of_render(self):
        from test_geometry import random_rigid, rotation_to_quaternion

        rng = np.random.default_rng(42)
        scene = random_scene(rng, 30)
        cam = make_camera()
        before = rd.render(scene, cam)

        G = random_rigid(rng)
        mus = scene["mu"] @ G[:3, :3].T + G[:3, 3]
        quats = np.stack(
            [
                rotation_to_quaternion(G[:3, :3] @ quaternion_to_rotation(q))
                for q in scene["quat"]
            ]
        )
        cam2 = Camera(
            intrinsics=cam.intrinsics,
            extrinsics=G @ cam.extrinsics,
            image_size=cam.image_size,
        )
        after = rd.render(dict(scene, mu=mus, quat=quats), cam2)
        assert np.max(np.abs(after.rgb - before.rgb)) < 1e-9
        assert np.max(np.abs(after.depth - before.depth)) < 1e-9


def _fd_scene(n=6, seed=5):
    rng = np.random.default_rng(seed)
    scene = random_scene(rng, n, depth_range=(2.0, 4.0), spread=0.8)
    scene["opacity"] = rng.uniform(0.3, 0.9, size=n)
    return scene


def _render_scalar_loss(scene_arrays, replace_key, t, cam, w_rgb, w_depth):
    """Scalar loss through render_node with one parameter class replaced by t."""
    tensors = {
        k: (t if k == replace_key else ad.Tensor(v)) for k, v in scene_arrays.items()
    }
    gaussians = dec.DecodedGaussians(**tensors)
    node, _ = rd.render_node(gaussians, cam, rd.check_config())
    flat = ad.reshape(node, (node.size,))
    # Interleave is avoided by weighting the packed (H, W, 4) layout directly.
    packed = np.concatenate(
        [w_rgb.reshape(-1, 3), w_depth.reshape(-1, 1)], axis=1
    ).ravel()
    return ad.reduce_sum(flat * ad.Tensor(packed))


class TestRenderBackward:
    def setup_method(self):
        self.cam = make_camera(fx=12.0, fy=12.0, size=(20, 20))
        self.scene = _fd_scene()
        rng = np.random.default_rng(99)
        self.w_rgb = rng.normal(size=(20, 20, 3))
        self.w_depth = rng.normal(size=(20, 20))

    def _check_class(self, key, tol=1e-4):
        point = self.scene[key].copy()

        def fn(t):
            return _render_scalar_loss(
                self.scene, key, t, self.cam, self.w_rgb, self.w_depth
            )

        err = ad.finite_difference_check(fn, point, epsilon=1e-5)
        assert err < tol, f"{key}: max relative error {err:.2e}"

    def test_grad_mu(self):
        self._check_class("mu")

    def test_grad_quat(self):
        self._check_class("quat")

    def test_grad_scale(self):
        self._check_class("scale")

    def test_grad_opacity(self):
        self._check_class("opacity")

    def test_grad_color(self):
        self._check_class("color")

    def test_zero_seed_gives_zero_grads(self):
        out, cache = rd.render_forward(self.scene, self.cam)
        grads = rd.render_backward(
            cache, np.zeros_like(out.rgb), np.zeros_like(out.depth)
        )
        for v in grads.values():
            assert not v.any()

    def test_opaque_color_gradient_is_pixel_seed(self):
        # A fully opaque Gaussian covering the center pixel: dC/dcolor = 1.
        scene = {
            "mu": np.array([[0.0, 0.0, 2.0]]),
            "quat": np.array([[1.0, 0.0, 0.0, 0.0]]),
            "scale": np.array([[1.0, 1.0, 1.0]]),
            "opacity": np.array([1.0]),
            "color": np.array([[0.3, 0.3, 0.3]]),
        }
        cfg = RenderConfig(alpha_clamp=1.0, early_stop_transmittance=0.0)
        cam = make_camera(fx=12.0, fy=12.0, cx=10.0, cy=10.0, size=(20, 20))
        out, cache = rd.render_forward(scene, cam, cfg)
        assert out.alpha_acc[10, 10] == 1.0
        g_rgb = np.zeros_like(out.rgb)
        g_rgb[10, 10, 1] = 1.0
        grads = rd.render_backward(cache, g_rgb, np.zeros_like(out.depth))
        np.testing.assert_allclose(grads["color"][0], [0.0, 1.0, 0.0], atol=1e-12)

    def test_backward_without_cache_rejected(self):
        with pytest.raises(ValueError, match="cache"):
            rd.render_backward(None, np.zeros((4, 4, 3)), np.zeros((4, 4)))

    def test_backward_shape_mismatch_rejected(self):
        _, cache = rd.render_forward(self.scene, self.cam)
        with pytest.raises(ValueError, match="shape"):
            rd.render_backward(cache, np.zeros((4, 4, 3)), np.zeros((4, 4)))

    def test_render_node_parents_in_record_order(self):
        # The parents are the set's fields in GAUSSIAN_DTYPE order, and each
        # receives its own render_backward cotangent.
        head = dec.DecodedGaussians(**{k: ad.Tensor(v) for k, v in self.scene.items()})
        node, _ = rd.render_node(head, self.cam)
        fields = (head.mu, head.quat, head.scale, head.opacity, head.color)
        assert len(node._parents) == len(fields)
        assert all(p is f for p, f in zip(node._parents, fields))
        seed = np.concatenate([self.w_rgb, self.w_depth[..., None]], axis=2)
        node.backward(seed)
        _, cache = rd.render_forward(self.scene, self.cam)
        want = rd.render_backward(cache, self.w_rgb, self.w_depth)
        for name in geo.GAUSSIAN_DTYPE.names:
            assert getattr(head, name).grad.tobytes() == want[name].tobytes(), name

    def test_backward_deterministic(self):
        out, cache = rd.render_forward(self.scene, self.cam)
        g1 = rd.render_backward(cache, self.w_rgb, self.w_depth)
        g2 = rd.render_backward(cache, self.w_rgb, self.w_depth)
        for k in g1:
            assert g1[k].tobytes() == g2[k].tobytes()
