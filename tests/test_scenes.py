"""Tests for scene generation, ground-truth baking, and persistence."""

import hashlib

import numpy as np
import pytest

from querysplat import geometry as geo
from querysplat import renderer as rd
from querysplat import scenes as sc

from test_geometry import gaussian_records, project_gaussian


SPEC = {
    "n_objects": 3,
    "bounds": [[-2.0, -2.0, 0.0], [2.0, 2.0, 2.0]],
    "n_views": 4,
    "image_size": (32, 32),
}


def scene_bytes(scene):
    parts = [scene.gaussians.tobytes()]
    for cam in scene.cameras:
        parts.append(np.asarray(cam.intrinsics).tobytes())
        parts.append(np.asarray(cam.extrinsics).tobytes())
    return b"".join(parts)


class TestGenerateScene:
    def test_deterministic_in_seed(self):
        a = sc.generate_scene(SPEC, seed=123)
        b = sc.generate_scene(SPEC, seed=123)
        assert scene_bytes(a) == scene_bytes(b)

    def test_different_seeds_differ(self):
        a = sc.generate_scene(SPEC, seed=1)
        b = sc.generate_scene(SPEC, seed=2)
        assert scene_bytes(a) != scene_bytes(b)

    def test_four_views_ninety_degrees_apart(self):
        scene = sc.generate_scene(SPEC, seed=0)
        assert len(scene.cameras) == 4
        center = scene.bounds.mean(axis=0)
        eyes = [cam.extrinsics[:3, 3] for cam in scene.cameras]
        angles = [np.arctan2(e[1] - center[1], e[0] - center[0]) for e in eyes]
        diffs = np.diff(np.unwrap(angles))
        np.testing.assert_allclose(diffs, np.pi / 2.0, atol=1e-12)
        # All eyes share the same ring radius and height.
        radii = [np.hypot(e[0] - center[0], e[1] - center[1]) for e in eyes]
        np.testing.assert_allclose(radii, radii[0], atol=1e-9)

    def test_cameras_are_valid(self):
        scene = sc.generate_scene(SPEC, seed=5)
        for cam in scene.cameras:
            R = cam.extrinsics[:3, :3]
            np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(R) > 0.0

    def test_scene_visible_from_all_cameras(self):
        scene = sc.generate_scene(SPEC, seed=9)
        arrays = scene.arrays()
        for cam in scene.cameras:
            mean2d, cam_t, valid = geo.project_points_batch(arrays["mu"], cam)
            assert valid.all()
            assert np.all(cam_t[:, 2] > 0.0)
            W, H = cam.image_size
            inside = (
                (mean2d[:, 0] >= 0)
                & (mean2d[:, 0] <= W - 1)
                & (mean2d[:, 1] >= 0)
                & (mean2d[:, 1] <= H - 1)
            )
            assert inside.mean() > 0.9

    def test_mu_within_bounds_1000_seeds(self):
        spec = dict(SPEC, n_objects=2, points_per_object=8)
        lo = np.asarray(spec["bounds"][0])
        hi = np.asarray(spec["bounds"][1])
        for seed in range(1000):
            scene = sc.generate_scene(spec, seed)
            mu = scene.arrays()["mu"]
            assert np.all(mu > lo) and np.all(mu < hi), f"seed {seed}"

    def test_opacity_range(self):
        scene = sc.generate_scene(SPEC, seed=77)
        op = scene.arrays()["opacity"]
        assert np.all(op >= 0.6) and np.all(op <= 1.0)

    def test_degenerate_bounds_rejected(self):
        bad = dict(SPEC, bounds=[[0.0, 0.0, 0.0], [1.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="bounds"):
            sc.generate_scene(bad, seed=0)

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError, match="n_views"):
            sc.generate_scene({k: v for k, v in SPEC.items() if k != "n_views"}, 0)

    def test_gaussian_count(self):
        scene = sc.generate_scene(dict(SPEC, points_per_object=10), seed=0)
        assert len(scene.gaussians) == SPEC["n_objects"] * 10


def single_gaussian_scene(opacity=1.0):
    bounds = np.array([[-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]])
    g = gaussian_records(
        mu=np.zeros(3),
        quat=np.array([1.0, 0.0, 0.0, 0.0]),
        scale=np.full(3, 0.15),
        opacity=opacity,
        color=np.array([0.9, 0.1, 0.2]),
    )
    cameras = sc._ring_cameras(bounds, 2, (24, 24))
    return sc.Scene(gaussians=g, cameras=cameras, bounds=bounds, seed=0)


class TestBakeGroundTruth:
    def test_empty_scene_all_background(self):
        bounds = np.array([[-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]])
        scene = sc.Scene(
            gaussians=[], cameras=sc._ring_cameras(bounds, 2, (16, 16)),
            bounds=bounds, seed=0,
        )
        sample = sc.bake_ground_truth(scene)
        assert not sample.rgb.any()
        assert not sample.valid_mask.any()
        assert sample.n_views == 2

    def test_opaque_gaussian_center_valid(self):
        sample = sc.bake_ground_truth(single_gaussian_scene())
        W, H = (24, 24)
        # The Gaussian sits at the bounds center, which projects to the
        # principal point; the mask must be true there.
        assert sample.valid_mask[0, H // 2, W // 2]

    def test_depth_matches_cam_distance(self):
        # Coincident near-opaque Gaussians (opacity just below the alpha
        # clamp) drive the remaining transmittance to ~4e-8 before the early
        # stop, so the unnormalized depth at their center pixel equals the
        # front Gaussian's cam_distance to well under 1e-6. An odd image size
        # puts the principal point on the integer pixel grid, so the
        # projected mean lands exactly on a pixel.
        bounds = np.array([[-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]])
        gaussians = gaussian_records(
            mu=np.zeros((3, 3)),
            quat=np.array([1.0, 0.0, 0.0, 0.0]),
            scale=np.full(3, 0.15),
            opacity=0.9998,
            color=np.array([0.5, 0.5, 0.5]),
        )
        cameras = sc._ring_cameras(bounds, 2, (25, 25))
        scene = sc.Scene(gaussians=gaussians, cameras=cameras, bounds=bounds, seed=0)
        sample = sc.bake_ground_truth(scene)
        for vi, cam in enumerate(scene.cameras):
            pg = project_gaussian(scene.gaussians[0], cam)
            np.testing.assert_allclose(pg.mean2d, [12.0, 12.0], atol=1e-9)
            depth = sample.dense_depth[vi, 12, 12]
            assert abs(depth - pg.cam_distance) < 1e-6
            assert sample.valid_mask[vi, 12, 12]

    def test_valid_implies_positive_depth(self):
        scene = sc.generate_scene(SPEC, seed=4)
        sample = sc.bake_ground_truth(scene)
        assert np.all(sample.dense_depth[sample.valid_mask] > 0.0)

    def test_rgb_in_unit_range(self):
        sample = sc.bake_ground_truth(sc.generate_scene(SPEC, seed=6))
        assert sample.rgb.min() >= 0.0 and sample.rgb.max() <= 1.0

    def test_bounds_carried(self):
        scene = sc.generate_scene(SPEC, seed=8)
        sample = sc.bake_ground_truth(scene)
        np.testing.assert_array_equal(sample.bounds, scene.bounds)


def reference_views(scene):
    """The per-pixel reference render of every view of a scene."""
    return [rd.render_reference(scene.arrays(), cam) for cam in scene.cameras]


class TestBakeMatchesReference:
    # The bake composites with the footprint-pair renderer; the per-pixel
    # reference is its oracle. Both make the same drop and early-stop
    # decisions, so the mask is bit-equal; RGB and depth sum in different
    # orders (bincount in depth order against a matmul), so they agree to
    # rounding only.
    @pytest.mark.parametrize(
        "n_objects, image_size", [(1, (64, 64)), (3, (64, 64)), (3, (64, 32))],
        ids=["1obj-64x64", "3obj-64x64", "3obj-64x32"],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bake_equals_reference(self, n_objects, image_size, seed):
        spec = dict(GOLDEN_SPEC, n_objects=n_objects, image_size=image_size)
        scene = sc.generate_scene(spec, seed=seed)
        sample = sc.bake_ground_truth(scene)
        refs = reference_views(scene)
        W, H = image_size
        assert sample.rgb.shape == (4, H, W, 3)
        mask = np.stack([r.alpha_acc > 0.5 for r in refs])
        assert mask.any()
        np.testing.assert_array_equal(sample.valid_mask, mask)
        np.testing.assert_allclose(sample.rgb, np.stack([r.rgb for r in refs]),
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(sample.dense_depth, np.stack([r.depth for r in refs]),
                                   rtol=0, atol=1e-14)

    def test_bake_does_not_run_the_reference(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("bake_ground_truth called render_reference")

        scene = sc.generate_scene(SPEC, seed=3)
        expected = sc.bake_ground_truth(scene)
        monkeypatch.setattr(rd, "render_reference", refuse)
        sample = sc.bake_ground_truth(scene)
        assert sample.rgb.tobytes() == expected.rgb.tobytes()
        assert sample.valid_mask.any()


class TestSparsifyDepth:
    def _sample(self):
        return sc.bake_ground_truth(sc.generate_scene(SPEC, seed=2))

    def test_keep_rate_one_is_identity(self):
        sample = self._sample()
        thin = sc.sparsify_depth(sample, 1.0, seed=3)
        np.testing.assert_array_equal(thin.valid_mask, sample.valid_mask)
        np.testing.assert_array_equal(thin.dense_depth, sample.dense_depth)

    def test_binomial_bound(self):
        rng = np.random.default_rng(42)
        mask = np.ones((1, 100, 100), dtype=bool)
        sample = sc.SceneSample(
            rgb=np.zeros((1, 100, 100, 3)),
            dense_depth=np.ones((1, 100, 100)),
            valid_mask=mask,
            cameras=[],
            bounds=np.array([[-1.0, -1, -1], [1.0, 1, 1]]),
        )
        del rng
        thin = sc.sparsify_depth(sample, 0.25, seed=0)
        kept = int(thin.valid_mask.sum())
        sigma = np.sqrt(10000 * 0.25 * 0.75)
        assert abs(kept - 2500) <= 3 * sigma

    def test_monotone(self):
        sample = self._sample()
        thin = sc.sparsify_depth(sample, 0.3, seed=1)
        assert not np.any(thin.valid_mask & ~sample.valid_mask)

    def test_deterministic(self):
        sample = self._sample()
        a = sc.sparsify_depth(sample, 0.5, seed=9)
        b = sc.sparsify_depth(sample, 0.5, seed=9)
        np.testing.assert_array_equal(a.valid_mask, b.valid_mask)

    def test_bad_rate_rejected(self):
        sample = self._sample()
        for rate in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="keep_rate"):
                sc.sparsify_depth(sample, rate, seed=0)

    def test_purity(self):
        sample = self._sample()
        before = sample.valid_mask.copy()
        sc.sparsify_depth(sample, 0.2, seed=0)
        np.testing.assert_array_equal(sample.valid_mask, before)


class TestScenePersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        scene = sc.generate_scene(SPEC, seed=31)
        path = tmp_path / "scene.bin"
        sc.save_scene(path, scene)
        back = sc.load_scene(path)
        assert scene_bytes(back) == scene_bytes(scene)
        np.testing.assert_array_equal(back.bounds, scene.bounds)
        assert back.seed == scene.seed
        for a, b in zip(back.cameras, scene.cameras):
            assert a.image_size == b.image_size

    def test_save_is_canonical(self, tmp_path):
        scene = sc.generate_scene(SPEC, seed=31)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        sc.save_scene(p1, scene)
        sc.save_scene(p2, scene)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"WRONGMG" + bytes(64))
        with pytest.raises(sc.SceneFormatError, match="magic"):
            sc.load_scene(path)

    def test_version_mismatch(self, tmp_path):
        scene = sc.generate_scene(SPEC, seed=1)
        path = tmp_path / "scene.bin"
        sc.save_scene(path, scene)
        data = bytearray(path.read_bytes())
        data[7] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(sc.SceneFormatError, match="version"):
            sc.load_scene(path)

    def test_truncation_names_record(self, tmp_path):
        scene = sc.generate_scene(SPEC, seed=1)
        path = tmp_path / "scene.bin"
        sc.save_scene(path, scene)
        data = path.read_bytes()
        header_len = 7 + 1 + 4 + 4 + 48 + 8
        # Cut inside the gaussian block.
        path.write_bytes(data[: header_len + 100])
        with pytest.raises(sc.SceneFormatError, match="gaussian records"):
            sc.load_scene(path)
        # Cut inside the second camera record.
        n_gauss_bytes = len(scene.gaussians) * 14 * 8
        cut = header_len + n_gauss_bytes + (72 + 128 + 8) + 10
        path.write_bytes(data[:cut])
        with pytest.raises(sc.SceneFormatError, match="camera 1"):
            sc.load_scene(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        scene = sc.generate_scene(SPEC, seed=1)
        path = tmp_path / "scene.bin"
        sc.save_scene(path, scene)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(sc.SceneFormatError, match="trailing"):
            sc.load_scene(path)

    def test_forged_gaussian_count_rejected(self, tmp_path):
        # K = 2^32 - 1 declares 481 GB of records; the reader refuses it
        # from the file size instead of trying to read it.
        scene = sc.generate_scene(SPEC, seed=1)
        path = tmp_path / "scene.bin"
        sc.save_scene(path, scene)
        data = bytearray(path.read_bytes())
        data[8:12] = np.uint32(2**32 - 1).tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(sc.SceneFormatError, match="gaussian records needs"):
            sc.load_scene(path)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("quat", [2.0, 0.0, 0.0, 0.0], "quaternion"),
            ("scale", [0.1, 0.0, 0.1], "scale"),
            ("mu", [0.0, 0.0, 9.0], "outside bounds"),
            ("opacity", np.nan, "opacity"),
            ("color", [0.5, 1.5, 0.5], "color"),
            ("quat", [1e300, 0.0, 0.0, 0.0], "quaternion"),
            ("quat", [np.inf, 0.0, 0.0, 0.0], "quaternion"),
            ("scale", [0.1, np.inf, 0.1], "scale"),
        ],
    )
    def test_invalid_gaussian_rejected(self, tmp_path, field, value, message):
        scene = sc.generate_scene(SPEC, seed=1)
        path = tmp_path / "scene.bin"
        sc.save_scene(path, scene)
        data = bytearray(path.read_bytes())
        records = np.frombuffer(data, geo.GAUSSIAN_DTYPE, count=len(scene.gaussians),
                                offset=72).copy()
        records[field][5] = value
        data[72 : 72 + records.nbytes] = records.tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(sc.SceneFormatError, match=f"gaussian 5: .*{message}"):
            sc.load_scene(path)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "record, entry, value, message",
        [
            ("bounds", 0, -np.inf, "bounds"),
            ("bounds", 4, np.nan, "bounds"),
            ("intrinsics", 2, np.inf, "finite"),
            ("extrinsics", 3, np.nan, "finite"),
            ("extrinsics", 1, 1e200, "orthonormal"),
        ],
    )
    def test_non_finite_header_rejected_without_warnings(self, tmp_path, record, entry,
                                                         value, message):
        # The f8 entry `entry` of the bounds or of camera 1's intrinsics or
        # extrinsics is overwritten.
        scene = sc.generate_scene(SPEC, seed=1)
        path = tmp_path / "scene.bin"
        sc.save_scene(path, scene)
        data = bytearray(path.read_bytes())
        cameras_at = 72 + scene.gaussians.nbytes
        offset = {"bounds": 16, "intrinsics": cameras_at + 208,
                  "extrinsics": cameras_at + 208 + 72}[record]
        data[offset + 8 * entry : offset + 8 * entry + 8] = np.float64(value).tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(sc.SceneFormatError, match=message):
            sc.load_scene(path)


# sha256 of the bytes written for generate_scene(GOLDEN_SPEC, seed=0) when
# a scene still held a list of per-Gaussian objects: the scene file, and
# the RGB and dense depth of the per-pixel reference render of every view as
# float64 arrays, which is what the bake wrote while it used the reference.
# The record-array form must keep every byte. "bake_rgb" and
# "bake_dense_depth" pin the bake itself, which renders with the
# footprint-pair path; it agrees with the reference to rounding (see
# TestBakeMatchesReference), not byte for byte.
GOLDEN_SPEC = {
    "n_objects": 1,
    "bounds": [[-1, -1, -1], [1, 1, 1]],
    "n_views": 4,
    "image_size": (64, 64),
}
GOLDEN = {
    "scene": "929e520bfbc782924839501d420674d934f84454411e61cca01ff8dae4b9287b",
    "rgb": "cf7371ca7530649c952305c2977d29c702e79f37145398b6351dbf98d6dcd0da",
    "dense_depth": "f5d7546b2b281b17b173324332ee30f409b9394745c8c5bb19246aeae601c2f3",
    "bake_rgb": "f1d27b258c0fc81b37fb3dac61a5a7bc6ce76d4dca19ac05fadf03bf675c457a",
    "bake_dense_depth": "3dc13edb5fc6089b27467ef0c2baba4318c4b744df5932ced996185bf1402e78",
}


def sha256(array):
    return hashlib.sha256(array.tobytes()).hexdigest()


class TestGoldenBytes:
    def test_scene_file_and_bake_are_pinned(self, tmp_path):
        scene = sc.generate_scene(GOLDEN_SPEC, seed=0)
        path = tmp_path / "scene.bin"
        sc.save_scene(path, scene)
        refs = reference_views(scene)
        sample = sc.bake_ground_truth(scene)
        got = {
            "scene": hashlib.sha256(path.read_bytes()).hexdigest(),
            "rgb": sha256(np.stack([r.rgb for r in refs])),
            "dense_depth": sha256(np.stack([r.depth for r in refs])),
            "bake_rgb": sha256(sample.rgb),
            "bake_dense_depth": sha256(sample.dense_depth),
        }
        assert got == GOLDEN
        back = sc.bake_ground_truth(sc.load_scene(path))
        assert back.rgb.tobytes() == sample.rgb.tobytes()
        assert back.dense_depth.tobytes() == sample.dense_depth.tobytes()
