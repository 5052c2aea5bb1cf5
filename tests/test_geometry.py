"""Tests for Gaussian parameterization and camera projection."""

from dataclasses import dataclass

import numpy as np
import pytest

from querysplat import geometry as geo
from querysplat import scenes as sc
from querysplat.geometry import Camera


def gaussian_records(mu, quat, scale, opacity, color):
    """A GAUSSIAN_DTYPE record array; each field broadcasts over K = len(mu)."""
    mu = np.asarray(mu, dtype=np.float64).reshape(-1, 3)
    g = np.zeros(mu.shape[0], dtype=geo.GAUSSIAN_DTYPE).view(np.recarray)
    g.mu, g.quat, g.scale, g.opacity, g.color = mu, quat, scale, opacity, color
    return g


def quaternion_to_rotation(quat):
    """Rotation matrix of one (w, x, y, z) quaternion; normalized internally."""
    return geo.quaternion_to_rotation_batch(np.asarray(quat, dtype=np.float64).reshape(1, 4))[0]


@dataclass
class ProjectedGaussian:
    """Scalar oracle: one Gaussian after projection into one camera."""

    mean2d: np.ndarray  # (2,) pixels
    cov2d: np.ndarray  # (2, 2) symmetric positive definite, px^2
    cam_distance: float  # Euclidean distance to camera origin, meters
    opacity: float
    color: np.ndarray  # (3,)
    index: int = 0  # position in the source set (sort tie-break)


def project_gaussian(g, cam, index=0):
    """Project one Gaussian record; None when culled by the near plane."""
    out = geo.project_gaussians_batch(g.mu[None], g.quat[None], g.scale[None], cam)
    if not out["valid"][0]:
        return None
    return ProjectedGaussian(
        mean2d=out["mean2d"][0],
        cov2d=out["cov2d"][0],
        cam_distance=float(out["cam_distance"][0]),
        opacity=float(g.opacity),
        color=g.color,
        index=index,
    )


def covariance_from_scale_rotation(scale, quat):
    """Scalar oracle: world covariance Sigma = R S S^T R^T of one Gaussian."""
    s = np.asarray(scale, dtype=np.float64).reshape(3)
    if np.any(s <= 0.0):
        raise ValueError(f"scale components must be positive, got {s}")
    RS = quaternion_to_rotation(quat) * s[None, :]  # columns scaled: R @ diag(s)
    return RS @ RS.T


def make_camera(fx=100.0, fy=100.0, cx=50.0, cy=50.0, extrinsics=None, size=(100, 100)):
    K = np.array([[fx, 0.0, cx], [0.0, fy, cy], [0.0, 0.0, 1.0]])
    T = np.eye(4) if extrinsics is None else extrinsics
    return Camera(intrinsics=K, extrinsics=T, image_size=size)


def random_rigid(rng):
    """A random rigid 4x4 (rotation det +1, translation)."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    G = np.eye(4)
    G[:3, :3] = quaternion_to_rotation(q)
    G[:3, 3] = rng.normal(size=3)
    return G


class TestQuaternionToRotation:
    def test_identity_quaternion(self):
        R = quaternion_to_rotation(np.array([1.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(R, np.eye(3), atol=1e-15)

    def test_ninety_degrees_about_z(self):
        s = np.sqrt(2.0) / 2.0
        R = quaternion_to_rotation(np.array([s, 0.0, 0.0, s]))
        np.testing.assert_allclose(R @ np.array([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-12)

    def test_scale_invariance(self):
        R = quaternion_to_rotation(np.array([2.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(R, np.eye(3), atol=1e-15)

    def test_near_zero_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            quaternion_to_rotation(np.array([1e-9, 0.0, 0.0, 0.0]))

    def test_orthonormal_det_plus_one(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            R = quaternion_to_rotation(q)
            np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(R) > 0.0

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            q *= rng.uniform(0.6, 1.8)  # exercise the normalization chain
            analytic = geo.rotation_jacobian_batch(q[None])[0]
            eps = 1e-6
            for c in range(4):
                qp, qm = q.copy(), q.copy()
                qp[c] += eps
                qm[c] -= eps
                fd = (quaternion_to_rotation(qp) - quaternion_to_rotation(qm)) / (2 * eps)
                np.testing.assert_allclose(analytic[c], fd, atol=1e-8)


class TestCovariance:
    def test_unit_scale_identity(self):
        S = covariance_from_scale_rotation(np.ones(3), np.array([1.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(S, np.eye(3), atol=1e-15)

    def test_axis_aligned_scaling(self):
        S = covariance_from_scale_rotation(
            np.array([2.0, 1.0, 1.0]), np.array([1.0, 0.0, 0.0, 0.0])
        )
        np.testing.assert_allclose(S, np.diag([4.0, 1.0, 1.0]), atol=1e-15)

    def test_rotated_scaling(self):
        # 90 deg about z maps the stretched x-axis onto y.
        s = np.sqrt(2.0) / 2.0
        S = covariance_from_scale_rotation(
            np.array([2.0, 1.0, 1.0]), np.array([s, 0.0, 0.0, s])
        )
        np.testing.assert_allclose(S, np.diag([1.0, 4.0, 1.0]), atol=1e-12)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            covariance_from_scale_rotation(
                np.array([1.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0, 0.0])
            )

    def test_eigenvalues_equal_squared_scales(self):
        # Eq. 1 eigen-invariant over 1000 random scale/rotation pairs.
        rng = np.random.default_rng(42)
        for _ in range(1000):
            scale = rng.uniform(0.1, 3.0, size=3)
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            S = covariance_from_scale_rotation(scale, q)
            eig = np.sort(np.linalg.eigvalsh(S))
            np.testing.assert_allclose(eig, np.sort(scale**2), atol=1e-10)

    def test_projection_builds_the_oracle_covariance(self):
        rng = np.random.default_rng(43)
        scales = rng.uniform(0.1, 3.0, size=(50, 3))
        quats = rng.normal(size=(50, 4))
        cov3d = geo.project_gaussians_batch(
            rng.normal(size=(50, 3)), quats, scales, make_camera()
        )["cov3d"]
        for k in range(50):
            np.testing.assert_allclose(
                cov3d[k], covariance_from_scale_rotation(scales[k], quats[k]), atol=1e-12
            )


class TestProjection:
    def test_on_axis_example(self):
        # Camera at origin, mu at camera-frame (0, 0, 2), Sigma = I.
        g = gaussian_records(
            mu=np.array([0.0, 0.0, 2.0]),
            quat=np.array([1.0, 0.0, 0.0, 0.0]),
            scale=np.ones(3),
            opacity=0.8,
            color=np.array([1.0, 0.0, 0.0]),
        )[0]
        pg = project_gaussian(g, make_camera())
        np.testing.assert_allclose(pg.mean2d, [50.0, 50.0], atol=1e-12)
        np.testing.assert_allclose(
            pg.cov2d, np.diag([2500.0 + geo.COV2D_REG, 2500.0 + geo.COV2D_REG]), atol=1e-9
        )
        assert pg.cam_distance == pytest.approx(2.0, abs=1e-12)

    def test_behind_camera_culled(self):
        g = gaussian_records(
            mu=np.array([0.0, 0.0, -1.0]),
            quat=np.array([1.0, 0.0, 0.0, 0.0]),
            scale=np.ones(3),
            opacity=0.5,
            color=np.zeros(3),
        )[0]
        assert project_gaussian(g, make_camera()) is None

    def test_optical_axis_hits_principal_point(self):
        g = gaussian_records(
            mu=np.array([0.0, 0.0, 5.0]),
            quat=np.array([1.0, 0.0, 0.0, 0.0]),
            scale=np.full(3, 0.1),
            opacity=1.0,
            color=np.ones(3),
        )[0]
        cam = make_camera(cx=31.5, cy=17.0)
        pg = project_gaussian(g, cam)
        np.testing.assert_allclose(pg.mean2d, [31.5, 17.0], atol=0.0)

    def test_cov2d_exactly_symmetric(self):
        rng = np.random.default_rng(3)
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        out = geo.project_gaussians_batch(
            rng.normal(size=(8, 3)) + np.array([0, 0, 5.0]),
            np.tile(q, (8, 1)),
            rng.uniform(0.1, 1.0, size=(8, 3)),
            make_camera(),
        )
        diff = out["cov2d"][:, 0, 1] - out["cov2d"][:, 1, 0]
        assert np.all(diff == 0.0)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(11)
        cam = make_camera()
        for k in range(5):
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            g = gaussian_records(
                mu=rng.normal(size=3) + np.array([0, 0, 4.0]),
                quat=q,
                scale=rng.uniform(0.2, 1.0, size=3),
                opacity=0.7,
                color=np.full(3, 0.5),
            )[0]
            single = project_gaussian(g, cam, index=k)
            batch = geo.project_gaussians_batch(g.mu[None], g.quat[None], g.scale[None], cam)
            np.testing.assert_array_equal(single.mean2d, batch["mean2d"][0])
            np.testing.assert_array_equal(single.cov2d, batch["cov2d"][0])
            assert single.cam_distance == float(batch["cam_distance"][0])

    def test_rigid_invariance(self):
        # Applying one rigid transform to every mu/quat and camera leaves
        # projections unchanged within 1e-9.
        rng = np.random.default_rng(42)
        cam_T = np.eye(4)
        cam_T[:3, 3] = [0.0, 0.0, -3.0]
        cam = make_camera(extrinsics=cam_T)
        G = random_rigid(rng)

        mus = rng.normal(size=(20, 3)) * 0.5 + np.array([0.0, 0.0, 2.0])
        quats = rng.normal(size=(20, 4))
        quats /= np.linalg.norm(quats, axis=1, keepdims=True)
        scales = rng.uniform(0.1, 0.8, size=(20, 3))

        before = geo.project_gaussians_batch(mus, quats, scales, cam)

        # Transform the world: x' = G x.
        mus_t = mus @ G[:3, :3].T + G[:3, 3]
        R_g = G[:3, :3]
        quats_t = np.stack(
            [rotation_to_quaternion(R_g @ quaternion_to_rotation(q)) for q in quats]
        )
        cam_t = Camera(
            intrinsics=cam.intrinsics, extrinsics=G @ cam.extrinsics, image_size=cam.image_size
        )
        after = geo.project_gaussians_batch(mus_t, quats_t, scales, cam_t)

        np.testing.assert_allclose(after["mean2d"], before["mean2d"], atol=1e-9)
        np.testing.assert_allclose(after["cov2d"], before["cov2d"], atol=1e-9)
        np.testing.assert_allclose(after["cam_distance"], before["cam_distance"], atol=1e-9)


def rotation_to_quaternion(R):
    """Inverse of quaternion_to_rotation (w, x, y, z), for test construction."""
    tr = np.trace(R)
    if tr > 0:
        s = np.sqrt(tr + 1.0) * 2.0
        w = 0.25 * s
        x = (R[2, 1] - R[1, 2]) / s
        y = (R[0, 2] - R[2, 0]) / s
        z = (R[1, 0] - R[0, 1]) / s
    elif R[0, 0] > R[1, 1] and R[0, 0] > R[2, 2]:
        s = np.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
        w = (R[2, 1] - R[1, 2]) / s
        x = 0.25 * s
        y = (R[0, 1] + R[1, 0]) / s
        z = (R[0, 2] + R[2, 0]) / s
    elif R[1, 1] > R[2, 2]:
        s = np.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
        w = (R[0, 2] - R[2, 0]) / s
        x = (R[0, 1] + R[1, 0]) / s
        y = 0.25 * s
        z = (R[1, 2] + R[2, 1]) / s
    else:
        s = np.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
        w = (R[1, 0] - R[0, 1]) / s
        x = (R[0, 2] + R[2, 0]) / s
        y = (R[1, 2] + R[2, 1]) / s
        z = 0.25 * s
    q = np.array([w, x, y, z])
    return q / np.linalg.norm(q)


def unit_scene(**fields):
    """A one-Gaussian Scene in the [-1, 1]^3 box, with fields overridden."""
    g = dict(mu=np.zeros(3), quat=[1.0, 0.0, 0.0, 0.0], scale=np.ones(3),
             opacity=0.5, color=np.zeros(3))
    g.update(fields)
    bounds = np.array([[-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]])
    return sc.Scene(
        gaussians=gaussian_records(**g), cameras=[make_camera()], bounds=bounds, seed=0
    )


class TestDomainTypes:
    def test_gaussian_rejects_unnormalized_quat(self):
        with pytest.raises(ValueError, match="gaussian 0: quaternion"):
            unit_scene(quat=np.array([1.0, 1.0, 0.0, 0.0]))

    def test_gaussian_rejects_out_of_range_opacity_and_color(self):
        # Out-of-range values are refused, never clipped.
        with pytest.raises(ValueError, match="opacity"):
            unit_scene(opacity=1.5)
        with pytest.raises(ValueError, match="color"):
            unit_scene(color=np.array([-0.2, 0.5, 2.0]))

    def test_gaussian_checks_name_first_bad_index(self):
        ok = dict(mu=np.zeros((4, 3)), quat=[1.0, 0.0, 0.0, 0.0], scale=np.ones(3),
                  opacity=0.5, color=np.zeros(3))
        bounds = np.array([[-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]])
        cases = [
            ("scale", np.array([[1.0] * 3, [1.0] * 3, [1.0, 0.0, 1.0], [-1.0] * 3]),
             "gaussian 2: scale"),
            ("mu", np.array([[0.0] * 3, [0.0, 0.0, 1.5], [0.0] * 3, [2.0] * 3]),
             "gaussian 1: mean"),
            ("opacity", np.array([0.5, 0.5, 0.5, np.nan]), "gaussian 3: opacity"),
            ("color", np.array([[0.0] * 3, [np.nan, 0.0, 0.0]] * 2), "gaussian 1: color"),
        ]
        for field, value, message in cases:
            g = gaussian_records(**dict(ok, **{field: value}))
            with pytest.raises(ValueError, match=message):
                sc.Scene(gaussians=g, cameras=[make_camera()], bounds=bounds, seed=0)

    def test_camera_rejects_sheared_rotation(self):
        T = np.eye(4)
        T[0, 1] = 0.1
        with pytest.raises(ValueError, match="orthonormal"):
            make_camera(extrinsics=T)

    def test_camera_rejects_reflection(self):
        T = np.eye(4)
        T[0, 0] = -1.0  # det -1 with the other axes unchanged
        with pytest.raises(ValueError, match="determinant"):
            make_camera(extrinsics=T)

    def test_camera_rejects_nonpositive_focal(self):
        with pytest.raises(ValueError, match="focal"):
            make_camera(fx=-1.0)

    def test_world_to_camera_inverts_extrinsics(self):
        rng = np.random.default_rng(5)
        T = random_rigid(rng)
        cam = make_camera(extrinsics=T)
        np.testing.assert_allclose(cam.world_to_camera() @ T, np.eye(4), atol=1e-12)

    def test_array_roundtrip(self):
        # A GAUSSIAN_DTYPE record is the 14-float64 row
        # (mu[3], quat[4], scale[3], opacity, color[3]), little-endian.
        rng = np.random.default_rng(9)
        q = rng.normal(size=(4, 4))
        fields = dict(
            mu=rng.normal(size=(4, 3)),
            quat=q / np.linalg.norm(q, axis=1, keepdims=True),
            scale=rng.uniform(0.1, 1.0, size=(4, 3)),
            opacity=rng.uniform(size=4),
            color=rng.uniform(size=(4, 3)),
        )
        g = gaussian_records(**fields)
        assert geo.GAUSSIAN_DTYPE.itemsize == 14 * 8
        rows = np.concatenate(
            [fields["mu"], fields["quat"], fields["scale"], fields["opacity"][:, None],
             fields["color"]], axis=1,
        )
        assert g.tobytes() == rows.astype("<f8").tobytes()
        back = np.frombuffer(rows.astype("<f8").tobytes(), geo.GAUSSIAN_DTYPE).view(np.recarray)
        for name, value in fields.items():
            np.testing.assert_array_equal(back[name], value)
            np.testing.assert_array_equal(getattr(back, name), value)
