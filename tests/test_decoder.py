"""Tests for the Gaussian query decoder."""

import numpy as np
import pytest

from querysplat import autodiff as ad
from querysplat import decoder as dec
from querysplat import encoder as enc
from querysplat import renderer as rd
from querysplat.decoder import DecoderConfig, GaussianQuerySet
from querysplat.geometry import Camera

BOUNDS = np.array([[-2.0, -2.0, 0.0], [2.0, 2.0, 2.0]])


def make_cameras(n, image_size=(32, 32)):
    from querysplat import scenes as sc

    return sc._ring_cameras(BOUNDS, n, image_size)


def make_setup(cfg, seed=42, image_size=(32, 32)):
    """Store with encoder+decoder params, a pyramid, and cameras."""
    rng = np.random.default_rng(seed)
    store = ad.ParamStore()
    enc.init_encoder_params(store, rng)
    dec.init_decoder_params(store, rng, cfg)
    cameras = make_cameras(cfg.n_views, image_size)
    images = [
        rng.uniform(size=(image_size[1], image_size[0], 3))
        for _ in range(cfg.n_views)
    ]
    pyramid = enc.encode(store, images)
    return store, pyramid, cameras


def random_queries(K, seed=0, feature_dim=64, features=None):
    rng = np.random.default_rng(seed)
    anchors = dec.init_anchor_array(K, BOUNDS, seed)
    if features is None:
        features = rng.normal(size=(K, feature_dim))
    return GaussianQuerySet(
        anchors=ad.Tensor(anchors), features=ad.Tensor(features), bounds=BOUNDS
    )


class TestAnchorColumns:
    def test_groups_tile_the_row_in_order(self):
        # queries.anchors checkpoints and task.interact.gk weights use this
        # layout, so it is pinned.
        end = 0
        for start, width in dec.ANCHOR_COLUMNS.values():
            assert start == end and width > 0
            end = start + width
        assert end == dec.ANCHOR_DIM == 11
        assert list(dec.ANCHOR_COLUMNS) == ["pos", "scale", "quat", "opacity"]


class TestInitQueries:
    def test_features_exactly_zero(self):
        qs = dec.init_queries(64, BOUNDS, seed=1)
        assert not qs.features.data.any()

    def test_decoded_positions_inside_bounds(self):
        qs = dec.init_queries(10_000, BOUNDS, seed=2)
        mu = dec.decode_positions(qs.anchors, BOUNDS).data
        assert np.all(mu > BOUNDS[0]) and np.all(mu < BOUNDS[1])

    def test_same_seed_identical(self):
        a = dec.init_anchor_array(32, BOUNDS, seed=3)
        b = dec.init_anchor_array(32, BOUNDS, seed=3)
        assert a.tobytes() == b.tobytes()

    def test_init_decodes_to_documented_constants(self):
        store = ad.ParamStore()
        dec.init_decoder_params(store, np.random.default_rng(0), DecoderConfig())
        qs = dec.init_queries(16, BOUNDS, seed=4)
        head = dec.gaussian_head(qs, store)
        extent = np.linalg.norm(BOUNDS[1] - BOUNDS[0])
        np.testing.assert_allclose(head.scale.data, 0.02 * extent, atol=1e-12)
        np.testing.assert_allclose(head.opacity.data, 0.1, atol=1e-12)
        np.testing.assert_allclose(
            head.quat.data, np.tile([1.0, 0, 0, 0], (16, 1)), atol=1e-12
        )

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError, match="K"):
            dec.init_queries(0, BOUNDS, seed=0)


class TestVoxelize:
    def _store(self, cfg=None, seed=5):
        cfg = cfg or DecoderConfig(n_layers=1)
        store = ad.ParamStore()
        dec.init_decoder_params(store, np.random.default_rng(seed), cfg)
        return store

    def test_floor_binning(self):
        mu = np.array([[0.1, 0.1, 0.1], [0.2, 0.2, 0.2]])
        vox = np.floor((mu - 0.0) / 0.5).astype(int)
        assert (vox == 0).all()

    def test_identity_center_kernel_doubles(self):
        store = self._store()
        name = "decoder.layer0.voxconv.w"
        w = np.zeros((27 * 64, 64))
        w[13 * 64 : 14 * 64] = np.eye(64)  # center tap of the 3x3x3 kernel
        store[name].data = w
        qs = random_queries(1, seed=6)
        out = dec.voxelize_and_sparse_conv(qs, 0.5, store, "decoder.layer0")
        np.testing.assert_allclose(out.features.data, 2.0 * qs.features.data, atol=1e-12)

    def test_permutation_oracle_bit_identical(self):
        store = self._store()
        qs = random_queries(32, seed=7)
        base = dec.voxelize_and_sparse_conv(qs, 0.4, store, "decoder.layer0")

        rng = np.random.default_rng(8)
        perm = rng.permutation(32)
        qs_p = GaussianQuerySet(
            anchors=ad.Tensor(qs.anchors.data[perm]),
            features=ad.Tensor(qs.features.data[perm]),
            bounds=BOUNDS,
        )
        out_p = dec.voxelize_and_sparse_conv(qs_p, 0.4, store, "decoder.layer0")
        restored = out_p.features.data[np.argsort(perm)]
        assert restored.tobytes() == base.features.data.tobytes()

    def test_mean_pooling_shares_update(self):
        # Two queries in one voxel receive the same conv result.
        store = self._store()
        anchors = dec.init_anchor_array(2, BOUNDS, seed=9)
        anchors[1, :3] = anchors[0, :3] + 1e-4  # same voxel at coarse size
        qs = GaussianQuerySet(
            anchors=ad.Tensor(anchors),
            features=ad.Tensor(np.random.default_rng(10).normal(size=(2, 64))),
            bounds=BOUNDS,
        )
        out = dec.voxelize_and_sparse_conv(qs, 10.0, store, "decoder.layer0")
        # The reconstruction (f + u) - f reintroduces one-ulp noise, so
        # compare the shared update at tight tolerance rather than bitwise.
        update = out.features.data - qs.features.data
        np.testing.assert_allclose(update[0], update[1], atol=1e-12)

    def test_bad_voxel_size(self):
        store = self._store()
        with pytest.raises(ValueError, match="voxel_size"):
            dec.voxelize_and_sparse_conv(random_queries(4), 0.0, store, "decoder.layer0")

    def test_gradcheck_features(self):
        store = self._store()
        feat0 = np.random.default_rng(11).normal(size=(3, 64)) * 0.3
        anchors = dec.init_anchor_array(3, BOUNDS, seed=12)
        seed_w = np.random.default_rng(13).normal(size=(3, 64))

        def fn(t):
            qs = GaussianQuerySet(anchors=ad.constant(anchors), features=t, bounds=BOUNDS)
            out = dec.voxelize_and_sparse_conv(qs, 0.6, store, "decoder.layer0")
            return ad.reduce_sum(out.features * ad.constant(seed_w))

        assert ad.finite_difference_check(fn, feat0) < 1e-5


class TestDeformableAttention:
    def test_zero_views_rejected(self):
        cfg = DecoderConfig(n_layers=1, n_views=1)
        store, pyramid, _ = make_setup(cfg)
        with pytest.raises(ValueError, match="view"):
            dec.deformable_cross_attention(
                random_queries(4), pyramid, [], cfg, store, "decoder.layer0"
            )

    def test_uniform_logits_give_mean_of_samples(self):
        cfg = DecoderConfig(n_layers=1, n_views=2)
        store, pyramid, cameras = make_setup(cfg)
        lp = "decoder.layer0"
        store[f"{lp}.attn.logit.w"].data = np.zeros_like(
            store[f"{lp}.attn.logit.w"].data
        )
        store[f"{lp}.attn.offset.w"].data = np.zeros_like(
            store[f"{lp}.attn.offset.w"].data
        )
        qs = random_queries(5, seed=14)
        out = dec.deformable_cross_attention(qs, pyramid, cameras, cfg, store, lp)
        update = out.features.data - qs.features.data

        # Oracle: with zero offsets all reference points coincide with mu, so
        # the softmax-uniform mix is the plain mean over (view, level, offset).
        mu = dec.decode_positions(qs.anchors, BOUNDS).data
        mats = []
        for cam in cameras:
            W = cam.world_to_camera()
            t = mu @ W[:3, :3].T + W[:3, 3]
            pix = t[:, :2] / t[:, 2:3] * [cam.fx, cam.fy] + [cam.cx, cam.cy]
            for li, stride in enumerate(pyramid.strides):
                mats.append(
                    enc.bilinear_sample_batch(
                        pyramid.levels[li][0 if cam is cameras[0] else 1],
                        pix,
                        stride,
                    ).data
                )
        mean_feat = np.mean(mats, axis=0)
        expected = mean_feat @ store[f"{lp}.attn.out.w"].data
        np.testing.assert_allclose(update, expected, atol=1e-10)

    def test_behind_camera_update_is_zero(self):
        cfg = DecoderConfig(n_layers=1, n_views=1)
        store, pyramid, cameras = make_setup(cfg)
        # Flip the camera to face away from the scene: reuse rotation but
        # move the eye far along +z of the camera so everything is behind.
        cam = cameras[0]
        T = cam.extrinsics.copy()
        T[:3, 3] = T[:3, 3] + T[:3, :3] @ np.array([0.0, 0.0, 100.0])
        cameras = [Camera(intrinsics=cam.intrinsics, extrinsics=T, image_size=cam.image_size)]
        qs = random_queries(6, seed=15)
        out = dec.deformable_cross_attention(
            qs, pyramid, cameras, cfg, store, "decoder.layer0"
        )
        np.testing.assert_array_equal(out.features.data, qs.features.data)

    def test_singleton_path_exact(self):
        cfg = DecoderConfig(n_layers=1, n_views=1, n_levels=1, n_offsets=1, n_heads=4)
        rng = np.random.default_rng(16)
        store = ad.ParamStore()
        enc.init_encoder_params(store, rng)
        dec.init_decoder_params(store, rng, cfg)
        cameras = make_cameras(1)
        img = rng.uniform(size=(32, 32, 3))
        full = enc.encode(store, [img])
        pyramid = enc.FeaturePyramid(levels=[full.levels[0]], strides=(4,))

        qs = random_queries(3, seed=17)
        lp = "decoder.layer0"
        out = dec.deformable_cross_attention(qs, pyramid, cameras, cfg, store, lp)
        update = out.features.data - qs.features.data

        # Oracle: S = 1 so softmax weight is 1; follow the single path.
        off = np.tanh(
            qs.features.data @ store[f"{lp}.attn.offset.w"].data
            + store[f"{lp}.attn.offset.b"].data
        ) * cfg.resolve_voxel_size(BOUNDS)
        mu = dec.decode_positions(qs.anchors, BOUNDS).data + off
        cam = cameras[0]
        W = cam.world_to_camera()
        t = mu @ W[:3, :3].T + W[:3, 3]
        pix = t[:, :2] / t[:, 2:3] * [cam.fx, cam.fy] + [cam.cx, cam.cy]
        feat = enc.bilinear_sample_batch(pyramid.levels[0][0], pix, 4).data
        expected = feat @ store[f"{lp}.attn.out.w"].data
        np.testing.assert_allclose(update, expected, atol=1e-10)

    def test_gradcheck_through_attention(self):
        cfg = DecoderConfig(n_layers=1, n_views=1)
        store, pyramid, cameras = make_setup(cfg)
        feat0 = np.random.default_rng(18).normal(size=(2, 64)) * 0.2
        anchors = dec.init_anchor_array(2, BOUNDS, seed=19)
        seed_w = np.random.default_rng(20).normal(size=(2, 64))

        def fn(t):
            qs = GaussianQuerySet(anchors=ad.constant(anchors), features=t, bounds=BOUNDS)
            out = dec.deformable_cross_attention(
                qs, pyramid, cameras, cfg, store, "decoder.layer0"
            )
            return ad.reduce_sum(out.features * ad.constant(seed_w))

        assert ad.finite_difference_check(fn, feat0) < 1e-4


class TestFusedNodes:
    """The one-node decoder ops against the composed engine ops they replace."""

    @staticmethod
    def _voxel_case(seed):
        rng = np.random.default_rng(seed)
        V, D, D_out = 7, 3, 4
        pairs = []
        for _ in range(27):
            m = int(rng.integers(0, V + 1))
            dst = np.sort(rng.choice(V, m, replace=False))
            pairs.append((dst, rng.choice(V, m, replace=False)))
        arrays = (
            rng.normal(size=(V, D)),
            rng.normal(size=(27 * D, D_out)),
            rng.normal(size=D_out),
        )
        return pairs, arrays, rng.normal(size=(V, D_out))

    @staticmethod
    def _dense_voxel_conv(pooled, weight, bias, pairs):
        V, D = pooled.shape
        padded = ad.concat([pooled, ad.constant(np.zeros((1, D)))], axis=0)
        cols = []
        for dst, src in pairs:
            idx = np.full(V, V)
            idx[dst] = src
            cols.append(ad.gather(padded, idx))
        return ad.linear(ad.concat(cols, axis=1), weight, bias)

    def test_sparse_voxel_conv_matches_dense_im2col(self):
        pairs, arrays, seed_g = self._voxel_case(0)
        results = []
        for conv in (dec._sparse_voxel_conv, self._dense_voxel_conv):
            leaves = [ad.Tensor(a.copy()) for a in arrays]
            out = conv(*leaves, pairs)
            out.backward(seed_g)
            results.append([out.data] + [t.grad for t in leaves])
        for fused, dense in zip(*results):
            np.testing.assert_allclose(fused, dense, rtol=0.0, atol=1e-12)

    def test_sparse_voxel_conv_gradcheck(self):
        pairs, (pooled, weight, bias), seed_g = self._voxel_case(1)

        def via(slot):
            def fn(t):
                args = [ad.constant(pooled), ad.constant(weight), ad.constant(bias)]
                args[slot] = t
                out = dec._sparse_voxel_conv(*args, pairs)
                return ad.reduce_sum(out * ad.constant(seed_g))

            return fn

        assert ad.finite_difference_check(via(0), pooled) < 1e-6
        assert ad.finite_difference_check(via(1), weight) < 1e-6

    @staticmethod
    def _mix_case(seed, K=5, B=3, O=2, H=4, D=8):
        rng = np.random.default_rng(seed)
        sampled = [rng.normal(size=(K * O, D)) for _ in range(B)]
        weights = rng.uniform(size=(K, H, B * O))
        return sampled, weights, rng.normal(size=(K, H, D // H))

    @staticmethod
    def _composed_mix(sampled, weights):
        K, H, S = weights.shape
        D = sampled[0].shape[1]
        O = S // len(sampled)
        blocks = [ad.reshape(t, (K, O * D)) for t in sampled]
        value = ad.reshape(ad.concat(blocks, axis=1), (K, S, H, D // H))
        value_hm = ad.transpose(value, (0, 2, 1, 3))
        return ad.reduce_sum(
            ad.mul(value_hm, ad.reshape(weights, (K, H, S, 1))), axis=2
        )

    def test_mix_heads_matches_composed_ops(self):
        sampled, weights, seed_g = self._mix_case(2)
        results = []
        for mix in (dec._mix_heads, self._composed_mix):
            leaves = [ad.Tensor(a.copy()) for a in sampled]
            w = ad.Tensor(weights.copy())
            out = mix(leaves, w)
            out.backward(seed_g)
            results.append([out.data, w.grad] + [t.grad for t in leaves])
        for fused, composed in zip(*results):
            np.testing.assert_allclose(fused, composed, rtol=0.0, atol=1e-12)

    def test_mix_heads_gradcheck(self):
        sampled, weights, seed_g = self._mix_case(3)

        def fn_block(t):
            blocks = [ad.constant(a) for a in sampled]
            blocks[1] = t
            out = dec._mix_heads(blocks, ad.constant(weights))
            return ad.reduce_sum(out * ad.constant(seed_g))

        def fn_weights(t):
            out = dec._mix_heads([ad.constant(a) for a in sampled], t)
            return ad.reduce_sum(out * ad.constant(seed_g))

        assert ad.finite_difference_check(fn_block, sampled[1]) < 1e-6
        assert ad.finite_difference_check(fn_weights, weights) < 1e-6


class TestGaussianHead:
    def _store(self):
        store = ad.ParamStore()
        dec.init_decoder_params(store, np.random.default_rng(21), DecoderConfig())
        return store

    def _qs(self, anchors, features=None):
        K = anchors.shape[0]
        feats = np.zeros((K, 64)) if features is None else features
        return GaussianQuerySet(
            anchors=ad.Tensor(anchors), features=ad.Tensor(feats), bounds=BOUNDS
        )

    def test_zero_logits_midpoint(self):
        bounds = np.array([[-10.0, -10.0, -10.0], [10.0, 10.0, 10.0]])
        anchors = np.zeros((1, 11))
        anchors[0, 6] = 1.0  # identity quat
        qs = GaussianQuerySet(
            anchors=ad.Tensor(anchors), features=ad.Tensor(np.zeros((1, 64))),
            bounds=bounds,
        )
        head = dec.gaussian_head(qs, self._store())
        np.testing.assert_allclose(head.mu.data[0], [0.0, 0.0, 0.0], atol=1e-12)
        assert head.opacity.data[0] == pytest.approx(0.5, abs=1e-12)

    def test_quat_normalized(self):
        anchors = np.zeros((1, 11))
        anchors[0, 6] = 2.0
        head = dec.gaussian_head(self._qs(anchors), self._store())
        np.testing.assert_allclose(head.quat.data[0], [1.0, 0, 0, 0], atol=1e-12)

    def test_degenerate_quat_identity_fallback(self):
        anchors = np.zeros((2, 11))
        anchors[0, 6:10] = [1e-9, 0.0, 0.0, 0.0]  # norm below threshold
        anchors[1, 6:10] = [0.0, 1.0, 0.0, 0.0]
        head = dec.gaussian_head(self._qs(anchors), self._store())
        np.testing.assert_array_equal(head.quat.data[0], [1.0, 0, 0, 0])
        np.testing.assert_allclose(head.quat.data[1], [0.0, 1.0, 0, 0], atol=1e-12)
        assert head.degenerate_quats == 1

    def test_arbitrary_raws_decode_to_valid_primitives(self):
        rng = np.random.default_rng(22)
        anchors = rng.normal(size=(50, 11)) * 5.0
        head = dec.gaussian_head(self._qs(anchors, rng.normal(size=(50, 64))), self._store())
        g = {n: getattr(head, n).data for n in ("mu", "quat", "scale", "opacity", "color")}
        assert g["mu"].shape == (50, 3)
        extent = np.linalg.norm(BOUNDS[1] - BOUNDS[0])
        assert np.all(g["mu"] >= BOUNDS[0]) and np.all(g["mu"] <= BOUNDS[1])
        assert np.all(g["scale"] >= 0.001 * extent - 1e-12)
        assert np.all(g["scale"] <= 0.25 * extent + 1e-12)
        assert np.all((g["opacity"] >= 0.0) & (g["opacity"] <= 1.0))
        assert np.all((g["color"] >= 0.0) & (g["color"] <= 1.0))
        assert np.all(np.abs(np.linalg.norm(g["quat"], axis=1) - 1.0) < 1e-9)


class TestRefineAndDecode:
    def test_zero_delta_keeps_positions(self):
        # Head final layers are zero-initialized with delta bias 0, so a
        # freshly initialized layer leaves decoded positions unchanged.
        cfg = DecoderConfig(n_layers=1)
        store, pyramid, cameras = make_setup(cfg)
        qs = dec.init_queries(cfg.K, BOUNDS, seed=23)
        mu_before = dec.decode_positions(qs.anchors, BOUNDS).data.copy()
        head, _ = dec.decode(qs, pyramid, cameras, cfg, store)
        np.testing.assert_array_equal(head.mu.data, mu_before)

    def test_opacity_replacement_semantics(self):
        cfg = DecoderConfig(n_layers=1)
        store, pyramid, cameras = make_setup(cfg)
        r = 1.7
        store["decoder.layer0.head_opacity.b2"].data = np.array([r])
        qs = dec.init_queries(cfg.K, BOUNDS, seed=24)
        head, _ = dec.decode(qs, pyramid, cameras, cfg, store)
        np.testing.assert_allclose(
            head.opacity.data, 1.0 / (1.0 + np.exp(-r)), atol=1e-12
        )

    def test_two_zero_layers_trace(self):
        cfg = DecoderConfig(n_layers=2)
        store, pyramid, cameras = make_setup(cfg)
        for name in store.names():
            if name.startswith("decoder.layer"):
                store[name].data = np.zeros_like(store[name].data)
        qs = dec.init_queries(8, BOUNDS, seed=25)
        head, final = dec.decode(qs, pyramid, cameras, cfg, store)
        # Positions survive (delta 0); features never leave zero.
        np.testing.assert_array_equal(
            head.mu.data, dec.decode_positions(qs.anchors, BOUNDS).data
        )
        assert not final.features.data.any()
        # Replaced groups collapse to head(0) = raw 0: scale midpoint,
        # opacity 0.5, quat zero -> identity fallback.
        extent = np.linalg.norm(BOUNDS[1] - BOUNDS[0])
        mid_scale = (0.001 + 0.5 * (0.25 - 0.001)) * extent
        np.testing.assert_allclose(head.scale.data, mid_scale, atol=1e-12)
        np.testing.assert_allclose(head.opacity.data, 0.5, atol=1e-12)
        np.testing.assert_array_equal(
            head.quat.data, np.tile([1.0, 0, 0, 0], (8, 1))
        )
        assert head.degenerate_quats == 8

    def test_n_layers_zero_decodes_initial_anchors(self):
        cfg = DecoderConfig(n_layers=0)
        store, pyramid, cameras = make_setup(cfg)
        qs = dec.init_queries(16, BOUNDS, seed=26)
        head, _ = dec.decode(qs, pyramid, cameras, cfg, store)
        expected = dec.gaussian_head(qs, store)
        np.testing.assert_array_equal(head.mu.data, expected.mu.data)
        np.testing.assert_array_equal(head.scale.data, expected.scale.data)

    def test_decode_deterministic(self):
        cfg = DecoderConfig(n_layers=2)
        store, pyramid, cameras = make_setup(cfg)
        qs = dec.init_queries(32, BOUNDS, seed=27)
        h1, _ = dec.decode(qs, pyramid, cameras, cfg, store)
        h2, _ = dec.decode(qs, pyramid, cameras, cfg, store)
        for field in ("mu", "scale", "quat", "opacity", "color"):
            assert getattr(h1, field).data.tobytes() == getattr(h2, field).data.tobytes()

    def test_decode_does_not_mutate_inputs(self):
        cfg = DecoderConfig(n_layers=1)
        store, pyramid, cameras = make_setup(cfg)
        qs = dec.init_queries(8, BOUNDS, seed=28)
        anchors_before = qs.anchors.data.copy()
        state_before = store.state_dict()
        dec.decode(qs, pyramid, cameras, cfg, store)
        np.testing.assert_array_equal(qs.anchors.data, anchors_before)
        for name, arr in store.state_dict().items():
            np.testing.assert_array_equal(arr, state_before[name])

    def test_permutation_equivariance_full_decode(self):
        cfg = DecoderConfig(n_layers=2)
        store, pyramid, cameras = make_setup(cfg)
        anchors = dec.init_anchor_array(16, BOUNDS, seed=29)
        qs = GaussianQuerySet(
            anchors=ad.Tensor(anchors),
            features=ad.constant(np.zeros((16, 64))),
            bounds=BOUNDS,
        )
        head, _ = dec.decode(qs, pyramid, cameras, cfg, store)
        perm = np.random.default_rng(30).permutation(16)
        qs_p = GaussianQuerySet(
            anchors=ad.Tensor(anchors[perm]),
            features=ad.constant(np.zeros((16, 64))),
            bounds=BOUNDS,
        )
        head_p, _ = dec.decode(qs_p, pyramid, cameras, cfg, store)
        inv = np.argsort(perm)
        np.testing.assert_allclose(head_p.mu.data[inv], head.mu.data, atol=1e-12)
        np.testing.assert_allclose(head_p.color.data[inv], head.color.data, atol=1e-12)

    def test_gradcheck_full_stack_anchor_position(self):
        # Loss = mean rendered depth; gradient w.r.t. one anchor's raw
        # position against finite differences.
        cfg = DecoderConfig(n_layers=1, n_views=1, K=4)
        store, pyramid, cameras = make_setup(cfg, seed=31)
        anchors = dec.init_anchor_array(4, BOUNDS, seed=32)
        pos0 = anchors[0, :3].copy()

        def fn(t):
            first = ad.concat([ad.reshape(t, (1, 3)), ad.constant(anchors[:1, 3:])], axis=1)
            full = ad.concat([first, ad.constant(anchors[1:])], axis=0)
            qs = GaussianQuerySet(
                anchors=full, features=ad.constant(np.zeros((4, 64))), bounds=BOUNDS
            )
            head, _ = dec.decode(qs, pyramid, cameras, cfg, store)
            node, _ = rd.render_node(
                head.mu, head.quat, head.scale, head.opacity, head.color,
                cameras[0], rd.check_config(), image_size=(16, 16),
            )
            depth = ad.narrow(ad.reshape(node, (16 * 16, 4)), 1, 3, 1)
            return ad.mean(depth)

        assert ad.finite_difference_check(fn, pos0, epsilon=1e-5) < 1e-4
