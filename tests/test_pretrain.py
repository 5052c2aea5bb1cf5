"""Tests for the pre-training engine: loss, schedule, AdamW, augmentation,
and the optimization loop."""

import hashlib
import os
import shutil
import tracemalloc

import numpy as np
import pytest
from test_acceptance import OVERFIT_SPEC
from test_geometry import quaternion_to_rotation, rotation_to_quaternion

from querysplat import autodiff as ad
from querysplat import decoder as dec
from querysplat import pretrain as pt
from querysplat import renderer as rd
from querysplat import scenes as sc
from querysplat.checkpoint import load_checkpoint


def tiny_sample(seed=3, n_views=2, image_size=(32, 32), n_objects=1):
    spec = {
        "n_objects": n_objects,
        "bounds": [[-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]],
        "n_views": n_views,
        "image_size": image_size,
    }
    scene = sc.generate_scene(spec, seed=seed)
    return scene, sc.bake_ground_truth(scene)


def tiny_model(scene, K=16, n_layers=1, n_views=2, seed=0):
    cfg = dec.DecoderConfig(n_views=n_views, K=K, n_layers=n_layers)
    return pt.build_model(scene.bounds, cfg, seed=seed)


class TestLossWeights:
    def test_defaults(self):
        w = pt.LossWeights()
        assert w.w_rgb == 1.0
        assert w.w_depth == 0.05

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            pt.LossWeights(w_rgb=-0.1)
        with pytest.raises(ValueError):
            pt.LossWeights(w_depth=-1.0)


class TestReconstructionLoss:
    def setup_method(self):
        rng = np.random.default_rng(42)
        self.gt_rgb = rng.uniform(0, 1, size=(8, 10, 3))
        self.gt_depth = rng.uniform(1, 3, size=(8, 10))
        self.mask = rng.uniform(size=(8, 10)) < 0.6
        self.w = pt.LossWeights()

    def loss(self, pred_rgb, pred_depth, gt_depth=None, mask=None):
        return pt.reconstruction_loss(
            ad.constant(pred_rgb),
            ad.constant(pred_depth),
            self.gt_rgb,
            self.gt_depth if gt_depth is None else gt_depth,
            self.mask if mask is None else mask,
            self.w,
        )

    def test_zero_at_exact_match(self):
        assert float(self.loss(self.gt_rgb, self.gt_depth).data) == 0.0

    def test_rgb_offset_gives_mean_abs(self):
        loss = self.loss(self.gt_rgb + 0.1, self.gt_depth)
        np.testing.assert_allclose(float(loss.data), 0.1, rtol=1e-12)

    def test_depth_offset_on_valid_gives_weighted_mean(self):
        loss = self.loss(self.gt_rgb, self.gt_depth + 1.0)
        np.testing.assert_allclose(float(loss.data), 0.05, rtol=1e-12)

    def test_invalid_pixels_never_affect_loss(self):
        base = float(self.loss(self.gt_rgb + 0.02, self.gt_depth + 0.5).data)
        poked = self.gt_depth.copy()
        poked[~self.mask] += 1e6
        again = float(
            self.loss(self.gt_rgb + 0.02, self.gt_depth + 0.5, gt_depth=poked).data
        )
        assert base == again

    def test_no_valid_pixels_drops_depth_term(self):
        none = np.zeros_like(self.mask)
        loss = self.loss(self.gt_rgb, self.gt_depth + 7.0, mask=none)
        assert float(loss.data) == 0.0

    def test_positive_when_any_supervised_pixel_differs(self):
        pred = self.gt_rgb.copy()
        pred[0, 0, 0] += 1e-6
        assert float(self.loss(pred, self.gt_depth).data) > 0.0

    def test_combined_hand_value(self):
        loss = self.loss(self.gt_rgb - 0.2, self.gt_depth + 2.0)
        expected = 1.0 * 0.2 + 0.05 * 2.0
        np.testing.assert_allclose(float(loss.data), expected, rtol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            pt.reconstruction_loss(
                ad.constant(self.gt_rgb[:4]),
                ad.constant(self.gt_depth),
                self.gt_rgb,
                self.gt_depth,
                self.mask,
                self.w,
            )
        with pytest.raises(ValueError, match="mask"):
            pt.reconstruction_loss(
                ad.constant(self.gt_rgb),
                ad.constant(self.gt_depth),
                self.gt_rgb,
                self.gt_depth,
                self.mask[:4],
                self.w,
            )

    def test_gradient_is_sign_over_count(self):
        live = ad.constant(self.gt_rgb + 0.1)
        loss = pt.reconstruction_loss(
            live, ad.constant(self.gt_depth), self.gt_rgb, self.gt_depth,
            self.mask, self.w,
        )
        loss.backward()
        np.testing.assert_allclose(
            live.grad, np.full_like(self.gt_rgb, 1.0 / self.gt_rgb.size)
        )


class TestLrSchedule:
    def test_warmup_is_linear_from_zero(self):
        assert pt.lr_schedule(0, 2000) == 0.0
        np.testing.assert_allclose(pt.lr_schedule(250, 2000), 1e-4, rtol=1e-15)

    def test_peak_hit_exactly_at_warmup_end(self):
        assert pt.lr_schedule(500, 2000) == 2e-4

    def test_final_lr_is_zero(self):
        assert abs(pt.lr_schedule(2000, 2000)) <= 1e-12

    def test_cosine_midpoint_is_half_peak(self):
        np.testing.assert_allclose(
            pt.lr_schedule(1250, 2000), 1e-4, rtol=0, atol=1e-12
        )

    def test_monotone_decay_after_warmup(self):
        values = [pt.lr_schedule(s, 2000) for s in range(500, 2001, 50)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_total_not_exceeding_warmup_rejected(self):
        with pytest.raises(ValueError, match="warmup"):
            pt.lr_schedule(10, 400, warmup=500)

    def test_no_warmup_starts_the_cosine_at_the_peak(self):
        assert pt.lr_schedule(0, 2000, warmup=0) == 2e-4
        np.testing.assert_allclose(
            pt.lr_schedule(1000, 2000, warmup=0), 1e-4, rtol=0, atol=1e-12
        )

    def test_negative_warmup_rejected(self):
        with pytest.raises(ValueError, match="warmup must be >= 0"):
            pt.lr_schedule(10, 2000, warmup=-5)

    def test_step_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            pt.lr_schedule(-1, 2000)
        with pytest.raises(ValueError):
            pt.lr_schedule(2001, 2000)


def adamw_oracle(store, state, lr):
    """AdamW with fresh moment arrays each step: pt.adamw_step, which updates
    them in place, must match it bit for bit."""
    state.step += 1
    t = state.step
    b1, b2 = pt.ADAM_BETA1, pt.ADAM_BETA2
    for name, param in store.items():
        g = param.grad if param.grad is not None else np.zeros_like(param.data)
        if name not in state.m:
            state.m[name] = np.zeros_like(param.data)
            state.v[name] = np.zeros_like(param.data)
        state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        state.v[name] = b2 * state.v[name] + (1.0 - b2) * g * g
        m_hat = state.m[name] / (1.0 - b1**t)
        v_hat = state.v[name] / (1.0 - b2**t)
        param.data = param.data * (1.0 - lr * state.weight_decay)
        param.data = param.data - lr * m_hat / (np.sqrt(v_hat) + pt.ADAM_EPS)


class TestAdamW:
    def test_matches_the_oracle_bit_for_bit(self):
        rng = np.random.default_rng(5)
        shapes = {"a": (3, 4), "b": (7,), "c": (2, 3, 5), "no_grad": (4,)}
        stores = [ad.ParamStore(), ad.ParamStore()]
        for name, shape in shapes.items():
            value = rng.normal(size=shape)
            for store in stores:
                store.param(name, value.copy())
        states = [pt.OptimizerState(), pt.OptimizerState()]
        for lr in (1e-3, 2e-4, 5e-2):
            grads = {n: rng.normal(size=s) * 10.0 ** rng.integers(-6, 3)
                     for n, s in shapes.items() if n != "no_grad"}
            for store in stores:
                for name in shapes:
                    store[name].grad = grads.get(name)
            pt.adamw_step(stores[0], states[0], lr)
            adamw_oracle(stores[1], states[1], lr)
        got, want = states
        assert got.step == want.step == 3
        for name in shapes:
            np.testing.assert_array_equal(stores[0][name].data, stores[1][name].data)
            np.testing.assert_array_equal(got.m[name], want.m[name])
            np.testing.assert_array_equal(got.v[name], want.v[name])

    def make_store(self, value):
        store = ad.ParamStore()
        store.param("w", np.array([value]))
        return store

    def test_zero_grad_decay_only(self):
        store = self.make_store(1.0)
        store["w"].grad = np.zeros(1)
        state = pt.OptimizerState()
        pt.adamw_step(store, state, lr=2e-4)
        np.testing.assert_allclose(store["w"].data[0], 1.0 - 2e-6, rtol=1e-15)

    def test_zero_grad_zero_decay_is_identity(self):
        store = self.make_store(1.234)
        store["w"].grad = np.zeros(1)
        state = pt.OptimizerState(weight_decay=0.0)
        pt.adamw_step(store, state, lr=2e-4)
        assert store["w"].data[0] == 1.234

    def test_quadratic_first_step_matches_hand_value(self):
        # f(w) = w^2 at w=1: bias-corrected m/sqrt(v) = 1 at step 1.
        store = self.make_store(1.0)
        store["w"].grad = np.array([2.0])
        state = pt.OptimizerState(weight_decay=0.0)
        pt.adamw_step(store, state, lr=0.1)
        np.testing.assert_allclose(store["w"].data[0], 0.9, atol=1e-8)

    def test_missing_grad_treated_as_zero(self):
        store = self.make_store(2.0)
        state = pt.OptimizerState(weight_decay=0.0)
        pt.adamw_step(store, state, lr=0.1)
        assert store["w"].data[0] == 2.0

    def test_two_steps_keep_descending_quadratic(self):
        store = self.make_store(1.0)
        state = pt.OptimizerState(weight_decay=0.0)
        seen = [1.0]
        for _ in range(5):
            store["w"].grad = 2.0 * store["w"].data
            pt.adamw_step(store, state, lr=0.05)
            seen.append(float(store["w"].data[0]))
        assert all(b < a for a, b in zip(seen, seen[1:]))


def mirrored_gaussians(scene):
    """The x-mirrored twin of a scene's Gaussians about the bounds midplane."""
    S = np.diag([-1.0, 1.0, 1.0])
    twins = scene.gaussians.copy()
    twins.mu[:, 0] = scene.bounds[0, 0] + scene.bounds[1, 0] - twins.mu[:, 0]
    twins.quat = [rotation_to_quaternion(S @ quaternion_to_rotation(q) @ S) for q in twins.quat]
    return twins


class TestHorizontalFlip:
    def test_apply_false_is_identity(self):
        _, sample = tiny_sample()
        assert pt.horizontal_flip_augment(sample, False) is sample

    def test_arrays_mirror_along_width(self):
        _, sample = tiny_sample()
        flipped = pt.horizontal_flip_augment(sample, True)
        assert np.array_equal(flipped.rgb, sample.rgb[:, :, ::-1])
        assert np.array_equal(flipped.dense_depth, sample.dense_depth[:, :, ::-1])
        assert np.array_equal(flipped.valid_mask, sample.valid_mask[:, :, ::-1])

    def test_principal_point_mirrors(self):
        _, sample = tiny_sample()
        flipped = pt.horizontal_flip_augment(sample, True)
        for cam, fcam in zip(sample.cameras, flipped.cameras):
            width = cam.image_size[0]
            np.testing.assert_allclose(
                fcam.intrinsics[0, 2], (width - 1) - cam.intrinsics[0, 2]
            )
            assert fcam.intrinsics[1, 2] == cam.intrinsics[1, 2]

    def test_double_flip_is_original(self):
        _, sample = tiny_sample()
        back = pt.horizontal_flip_augment(
            pt.horizontal_flip_augment(sample, True), True
        )
        assert np.array_equal(back.rgb, sample.rgb)
        assert np.array_equal(back.dense_depth, sample.dense_depth)
        assert np.array_equal(back.valid_mask, sample.valid_mask)
        for cam, bcam in zip(sample.cameras, back.cameras):
            np.testing.assert_allclose(
                bcam.extrinsics, cam.extrinsics, rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(
                bcam.intrinsics, cam.intrinsics, rtol=0, atol=1e-12
            )

    def test_flip_poses_stay_valid_cameras(self):
        _, sample = tiny_sample()
        flipped = pt.horizontal_flip_augment(sample, True)
        for cam in flipped.cameras:
            R = cam.extrinsics[:3, :3]
            np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(R) > 0.0

    def test_render_through_flipped_cameras_matches_mirrored_bake(self):
        # The flipped sample must equal the x-mirrored scene rendered through
        # the flipped cameras: reflections conjugate cleanly through the
        # whole projection pipeline. Asymmetric x-bounds exercise the
        # midplane shift, not just the sign change.
        spec = {
            "n_objects": 1,
            "bounds": [[-0.6, -1.0, -1.0], [1.4, 1.0, 1.0]],
            "n_views": 2,
            "image_size": (32, 32),
        }
        scene = sc.generate_scene(spec, seed=9)
        sample = sc.bake_ground_truth(scene)
        flipped = pt.horizontal_flip_augment(sample, True)
        twins = mirrored_gaussians(scene)
        for v, cam in enumerate(flipped.cameras):
            out = rd.render_reference(twins, cam)
            np.testing.assert_allclose(out.rgb, flipped.rgb[v], atol=1e-6)
            np.testing.assert_allclose(out.depth, flipped.dense_depth[v], atol=1e-6)


class TestBuildModel:
    def test_store_contains_all_components(self):
        scene, _ = tiny_sample()
        model = tiny_model(scene)
        names = [n for n, _ in model.store.items()]
        assert "queries.anchors" in names
        assert any(n.startswith("encoder.") for n in names)
        assert any(n.startswith("decoder.") for n in names)

    def test_query_set_has_zero_features(self):
        scene, _ = tiny_sample()
        model = tiny_model(scene)
        qs = model.query_set()
        assert not qs.features.data.any()
        assert qs.anchors.data.shape == (16, 11)

    def test_seed_determinism(self):
        scene, _ = tiny_sample()
        a = tiny_model(scene, seed=7).store.state_dict()
        b = tiny_model(scene, seed=7).store.state_dict()
        assert sorted(a) == sorted(b)
        for name in a:
            assert np.array_equal(a[name], b[name])


class TestPretrainStep:
    def test_lr_zero_preserves_parameters(self):
        scene, sample = tiny_sample()
        model = tiny_model(scene)
        before = model.store.state_dict()
        pt.pretrain_step(model, sample, pt.OptimizerState(), pt.LossWeights(), 0.0)
        after = model.store.state_dict()
        for name in before:
            assert np.array_equal(before[name], after[name]), name

    def test_frozen_model_is_pure(self):
        scene, sample = tiny_sample()
        model = tiny_model(scene)
        opt = pt.OptimizerState()
        w = pt.LossWeights()
        l1 = pt.pretrain_step(model, sample, opt, w, 0.0)
        l2 = pt.pretrain_step(model, sample, opt, w, 0.0)
        assert l1 == l2

    def test_gradient_reaches_query_anchors(self):
        scene, sample = tiny_sample()
        model = tiny_model(scene)
        pt.pretrain_step(model, sample, pt.OptimizerState(), pt.LossWeights(), 1e-4)
        grad = model.store["queries.anchors"].grad
        assert grad is not None and np.abs(grad).max() > 0.0

    def test_loss_decreases_on_short_overfit(self):
        scene, sample = tiny_sample()
        model = tiny_model(scene)
        opt = pt.OptimizerState()
        w = pt.LossWeights()
        losses = [pt.pretrain_step(model, sample, opt, w, 2e-4) for _ in range(25)]
        assert losses[-1] < losses[0]

    def test_determinism_across_fresh_runs(self):
        scene, sample = tiny_sample()
        seqs = []
        for _ in range(2):
            model = tiny_model(scene)
            opt = pt.OptimizerState()
            w = pt.LossWeights()
            seqs.append([pt.pretrain_step(model, sample, opt, w, 1e-4) for _ in range(3)])
        assert seqs[0] == seqs[1]

    def test_non_finite_loss_aborts_with_diagnostics(self):
        scene, sample = tiny_sample()
        model = tiny_model(scene)
        sample.rgb[0, 0, 0, 0] = np.nan
        with pytest.raises(pt.PretrainDivergedError) as err:
            pt.pretrain_step(
                model, sample, pt.OptimizerState(), pt.LossWeights(), 3e-4
            )
        assert "lr" in err.value.diagnostics
        assert err.value.diagnostics["lr"] == 3e-4


class TestRunPretraining:
    def run(self, tmp_path, tag, **kwargs):
        scene, sample = tiny_sample()
        model = tiny_model(scene)
        log = os.path.join(tmp_path, f"{tag}.csv")
        ckpt = os.path.join(tmp_path, f"{tag}.ckpt")
        losses = pt.run_pretraining(
            model,
            [sample],
            total_steps=8,
            warmup=4,
            log_path=log,
            checkpoint_path=ckpt,
            checkpoint_every=5,
            **kwargs,
        )
        return model, losses, log, ckpt

    def test_loop_runs_and_logs(self, tmp_path):
        model, losses, log, ckpt = self.run(tmp_path, "a")
        assert len(losses) == 8
        lines = open(log).read().splitlines()
        assert lines[0] == "step,loss,lr"
        assert len(lines) == 9
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == losses[0]

    def test_rerun_is_byte_identical(self, tmp_path):
        _, l1, log1, ck1 = self.run(tmp_path, "r1", seed=5)
        _, l2, log2, ck2 = self.run(tmp_path, "r2", seed=5)
        assert l1 == l2
        assert open(log1, "rb").read() == open(log2, "rb").read()
        assert open(ck1, "rb").read() == open(ck2, "rb").read()

    def test_checkpoint_restores_exact_state(self, tmp_path):
        model, _, _, ckpt = self.run(tmp_path, "c")
        params = pt.model_state(load_checkpoint(ckpt))
        final = model.store.state_dict()
        assert sorted(params) == sorted(final)
        for name in params:
            assert np.array_equal(params[name], final[name])

    @pytest.mark.parametrize("every, calls, to_ckpt", [(1, 8, 4), (3, 3, 2)])
    def test_final_save_skipped_only_after_a_periodic_one(self, tmp_path, monkeypatch,
                                                          every, calls, to_ckpt):
        # every=1: 4 steps save model.ckpt and checkpoints/step<N>.ckpt each,
        # and the last of them is the final state.  every=3: step 3 saves
        # both, and the end saves model.ckpt once more.
        scene, sample = tiny_sample()
        paths = []
        save = pt.save_checkpoint
        monkeypatch.setattr(
            pt, "save_checkpoint", lambda path, state: paths.append(path) or save(path, state)
        )
        ckpt = os.path.join(tmp_path, "model.ckpt")
        pt.run_pretraining(
            tiny_model(scene), [sample], total_steps=4, warmup=2, checkpoint_path=ckpt,
            checkpoint_every=every, checkpoint_dir=os.path.join(tmp_path, "checkpoints"),
        )
        assert len(paths) == calls
        assert paths.count(ckpt) == to_ckpt
        monkeypatch.undo()
        final_only = os.path.join(tmp_path, "final.ckpt")
        pt.run_pretraining(
            tiny_model(scene), [sample], total_steps=4, warmup=2, checkpoint_path=final_only,
        )
        with open(ckpt, "rb") as f, open(final_only, "rb") as g:
            assert f.read() == g.read()

    def test_checkpoint_carries_optimizer_state(self, tmp_path):
        model, _, _, ckpt = self.run(tmp_path, "o")
        state = load_checkpoint(ckpt)
        assert int(state["opt.step"]) == 8
        for name in model.store.names():
            assert f"opt.m:{name}" in state
            assert f"opt.v:{name}" in state

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        scene, sample = tiny_sample()
        ckpt = os.path.join(tmp_path, "train.ckpt")
        mid = os.path.join(tmp_path, "mid.ckpt")

        def keep_midpoint(step, loss, lr, model):
            if step == 4:
                shutil.copy(ckpt, mid)

        full_model = tiny_model(scene)
        full = pt.run_pretraining(
            full_model, [sample], total_steps=8, warmup=4, hflip_prob=0.6,
            seed=9, checkpoint_path=ckpt, checkpoint_every=4,
            callback=keep_midpoint,
        )
        resumed_model = tiny_model(scene)
        rest = pt.run_pretraining(
            resumed_model, [sample], total_steps=8, warmup=4, hflip_prob=0.6,
            seed=9, resume_state=load_checkpoint(mid),
        )
        assert rest == full[4:]
        for name in full_model.store.names():
            assert np.array_equal(
                full_model.store[name].data, resumed_model.store[name].data
            )

    def test_hflip_probability_changes_the_run(self, tmp_path):
        _, plain, _, _ = self.run(tmp_path, "p", seed=5)
        _, flipped, _, _ = self.run(tmp_path, "f", seed=5, hflip_prob=1.0)
        assert plain != flipped


# One criterion-7 step's forward-plus-backward peak as one_step_peak_bytes
# measures it, at the commit before backward consumed its graph and before
# the largest gathers were remade in their VJPs (NumPy 2.4, Linux x86-64).
# Most of it is the tape: each node's value and what its VJP keeps.
TAPE_PEAK_BEFORE = 101.1e6


def one_step_peak_bytes():
    """Peak traced bytes of one forward and backward of criterion 7's model
    (512 queries, 2 layers, 4 views at 64x64), after a warm-up forward has
    filled the per-size index caches."""
    scene = sc.generate_scene(OVERFIT_SPEC, seed=0)
    sample = sc.bake_ground_truth(scene)
    model = pt.build_model(scene.bounds, dec.DecoderConfig(n_views=4, K=512, n_layers=2), seed=0)
    w = pt.LossWeights()
    pt.forward(model, sample, w)
    tracemalloc.start()
    try:
        loss, _, _ = pt.forward(model, sample, w)
        loss.backward()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_step_peak_memory():
    peak = one_step_peak_bytes()
    assert peak <= 0.75 * TAPE_PEAK_BEFORE, f"peak {peak / 1e6:.1f} MB"


def test_full_size_steps_are_pinned():
    """Three steps of criterion 7's model give the pinned losses and anchors.

    The golden CLI digests run 32x32 views, whose 8x8 level-0 maps the
    sampler always reads through its dense branch; 64x64 views take the
    gather branch at level 0, so this digest pins that path's bits.
    """
    scene = sc.generate_scene(OVERFIT_SPEC, seed=0)
    sample = sc.bake_ground_truth(scene)
    model = pt.build_model(scene.bounds, dec.DecoderConfig(n_views=4, K=512, n_layers=2), seed=0)
    opt, w = pt.OptimizerState(), pt.LossWeights()
    losses = [pt.pretrain_step(model, sample, opt, w, 2e-4) for _ in range(3)]
    anchors = model.store["queries.anchors"].data
    digest = hashlib.sha256(np.array(losses).tobytes() + anchors.tobytes()).hexdigest()
    assert digest == "201f4adf01c66200a85aa829d647a140b50d8e23150a4418127dd7a341e81e2d"
