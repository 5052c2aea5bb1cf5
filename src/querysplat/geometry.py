"""Gaussian parameterization and camera projection.

A Gaussian's world covariance follows the scale/rotation factorization

    Sigma = R S S^T R^T                                            (cov3d)

and its image-plane footprint comes from the affine approximation of the
pinhole projection,

    Sigma' = J W Sigma W^T J^T                                     (cov2d)

with W the world-to-camera rotation and J the perspective Jacobian

    J = [[fx/z, 0, -fx*x/z^2],
         [0, fy/z, -fy*y/z^2]]

evaluated at the camera-frame mean (x, y, z). Pixel coordinates sample the
integer grid: pixel (row i, column j) is the point (x=j, y=i).

A set of K Gaussians is one record array of GAUSSIAN_DTYPE, whose 112-byte
little-endian record is also the Gaussian row of the SQSSCN1 scene file.
Projection is implemented once, vectorized over all Gaussians.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GAUSSIAN_DTYPE",
    "Camera",
    "NEAR_PLANE",
    "COV2D_REG",
    "quaternion_to_rotation",
    "quaternion_to_rotation_batch",
    "rotation_jacobian_wrt_quaternion",
    "rotation_jacobian_batch",
    "covariance_from_scale_rotation",
    "project_gaussians_batch",
    "project_points_batch",
]

NEAR_PLANE = 0.01  # meters; camera-frame z at or below this is culled
COV2D_REG = 0.3  # px^2 added to the cov2d diagonal to keep it invertible


# One Gaussian: world mean (m), unit (w, x, y, z) rotation quaternion,
# positive scales (m), opacity and RGB color in [0, 1].
GAUSSIAN_DTYPE = np.dtype(
    [
        ("mu", "<f8", 3),
        ("quat", "<f8", 4),
        ("scale", "<f8", 3),
        ("opacity", "<f8"),
        ("color", "<f8", 3),
    ]
)


@dataclass
class Camera:
    """Pinhole camera: intrinsics K, camera-to-world extrinsics T."""

    intrinsics: np.ndarray  # (3, 3)
    extrinsics: np.ndarray  # (4, 4) camera-to-world
    image_size: tuple[int, int]  # (width, height) pixels

    def __post_init__(self):
        self.intrinsics = np.asarray(self.intrinsics, dtype=np.float64).reshape(3, 3)
        self.extrinsics = np.asarray(self.extrinsics, dtype=np.float64).reshape(4, 4)
        self.image_size = (int(self.image_size[0]), int(self.image_size[1]))
        if not (np.isfinite(self.intrinsics).all() and np.isfinite(self.extrinsics).all()):
            raise ValueError("camera intrinsics and extrinsics must be finite")
        R = self.extrinsics[:3, :3]
        # An orthonormal block has no entry above 1; checking that first
        # keeps R @ R.T from overflowing on a huge entry.
        if not (np.abs(R).max() <= 1.0 + 1e-9 and np.allclose(R @ R.T, np.eye(3), atol=1e-9)):
            raise ValueError("extrinsics rotation block is not orthonormal within 1e-9")
        if np.linalg.det(R) < 0.0:
            raise ValueError("extrinsics rotation block has negative determinant")
        if self.intrinsics[0, 0] <= 0.0 or self.intrinsics[1, 1] <= 0.0:
            raise ValueError("focal lengths must be positive")

    @property
    def fx(self) -> float:
        return float(self.intrinsics[0, 0])

    @property
    def fy(self) -> float:
        return float(self.intrinsics[1, 1])

    @property
    def cx(self) -> float:
        return float(self.intrinsics[0, 2])

    @property
    def cy(self) -> float:
        return float(self.intrinsics[1, 2])

    def world_to_camera(self) -> np.ndarray:
        """The 4x4 inverse of the camera-to-world extrinsics (rigid inverse)."""
        R = self.extrinsics[:3, :3]
        t = self.extrinsics[:3, 3]
        W = np.eye(4)
        W[:3, :3] = R.T
        W[:3, 3] = -R.T @ t
        return W


def quaternion_to_rotation(quat: np.ndarray) -> np.ndarray:
    """Rotation matrix of a (w, x, y, z) quaternion; normalized internally."""
    return quaternion_to_rotation_batch(np.asarray(quat, dtype=np.float64).reshape(1, 4))[0]


def quaternion_to_rotation_batch(quats: np.ndarray) -> np.ndarray:
    """(K, 4) quaternions -> (K, 3, 3) rotation matrices."""
    q = np.asarray(quats, dtype=np.float64)
    norms = np.sqrt((q * q).sum(axis=-1))
    if np.any(norms < 1e-8):
        raise ValueError("quaternion norm below 1e-8")
    q = q / norms[:, None]
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    R = np.empty((q.shape[0], 3, 3), dtype=np.float64)
    R[:, 0, 0] = 1.0 - 2.0 * (y * y + z * z)
    R[:, 0, 1] = 2.0 * (x * y - w * z)
    R[:, 0, 2] = 2.0 * (x * z + w * y)
    R[:, 1, 0] = 2.0 * (x * y + w * z)
    R[:, 1, 1] = 1.0 - 2.0 * (x * x + z * z)
    R[:, 1, 2] = 2.0 * (y * z - w * x)
    R[:, 2, 0] = 2.0 * (x * z - w * y)
    R[:, 2, 1] = 2.0 * (y * z + w * x)
    R[:, 2, 2] = 1.0 - 2.0 * (x * x + y * y)
    return R


def rotation_jacobian_wrt_quaternion(quat: np.ndarray) -> np.ndarray:
    """dR/dq for the normalized rotation, as a (4, 3, 3) array.

    Includes the normalization step: R is evaluated at q/||q||, so the
    Jacobian is (dR/dq_hat) composed with the projection (I - q_hat q_hat^T)/||q||.
    """
    return rotation_jacobian_batch(np.asarray(quat, dtype=np.float64).reshape(1, 4))[0]


def rotation_jacobian_batch(quats: np.ndarray) -> np.ndarray:
    """(K, 4) quaternions -> (K, 4, 3, 3) rotation Jacobians dR/dq."""
    q = np.asarray(quats, dtype=np.float64).reshape(-1, 4)
    norms = np.sqrt((q * q).sum(axis=-1))
    if np.any(norms < 1e-8):
        raise ValueError("quaternion norm below 1e-8")
    qh = q / norms[:, None]
    w, x, y, z = qh[:, 0], qh[:, 1], qh[:, 2], qh[:, 3]
    zero = np.zeros_like(w)
    # dR/d(qh_c) for the unnormalized rotation formula, c in (w, x, y, z).
    dR = np.empty((q.shape[0], 4, 3, 3), dtype=np.float64)
    dR[:, 0] = 2.0 * np.stack(
        [zero, -z, y, z, zero, -x, -y, x, zero], axis=-1
    ).reshape(-1, 3, 3)
    dR[:, 1] = 2.0 * np.stack(
        [zero, y, z, y, -2.0 * x, -w, z, w, -2.0 * x], axis=-1
    ).reshape(-1, 3, 3)
    dR[:, 2] = 2.0 * np.stack(
        [-2.0 * y, x, w, x, zero, z, -w, z, -2.0 * y], axis=-1
    ).reshape(-1, 3, 3)
    dR[:, 3] = 2.0 * np.stack(
        [-2.0 * z, -w, x, w, -2.0 * z, y, x, y, zero], axis=-1
    ).reshape(-1, 3, 3)
    # Chain through normalization: dqh/dq = (I - qh qh^T) / norm.
    proj = (np.eye(4)[None] - qh[:, :, None] * qh[:, None, :]) / norms[:, None, None]
    return np.einsum("kab,kbij->kaij", proj, dR)


def covariance_from_scale_rotation(scale: np.ndarray, quat: np.ndarray) -> np.ndarray:
    """World covariance Sigma = R S S^T R^T for positive scales."""
    s = np.asarray(scale, dtype=np.float64).reshape(3)
    if np.any(s <= 0.0):
        raise ValueError(f"scale components must be positive, got {s}")
    R = quaternion_to_rotation(quat)
    RS = R * s[None, :]  # columns scaled: R @ diag(s)
    return RS @ RS.T


def project_points_batch(mus: np.ndarray, cam: Camera) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project (K, 3) world points; returns (mean2d (K,2), cam_t (K,3), valid (K,))."""
    mus = np.asarray(mus, dtype=np.float64).reshape(-1, 3)
    W = cam.world_to_camera()
    t = mus @ W[:3, :3].T + W[:3, 3]
    valid = t[:, 2] > NEAR_PLANE
    z = np.where(valid, t[:, 2], 1.0)  # placeholder z for culled rows
    mean2d = np.empty((mus.shape[0], 2), dtype=np.float64)
    mean2d[:, 0] = cam.cx + cam.fx * t[:, 0] / z
    mean2d[:, 1] = cam.cy + cam.fy * t[:, 1] / z
    return mean2d, t, valid


def project_gaussians_batch(
    mus: np.ndarray,
    quats: np.ndarray,
    scales: np.ndarray,
    cam: Camera,
) -> dict[str, np.ndarray]:
    """Vectorized projection of K Gaussians into one camera.

    Returns a dict of arrays: ``mean2d`` (K,2), ``cov2d`` (K,2,2) with the
    diagonal regularizer applied, ``cam_t`` (K,3) camera-frame means,
    ``cam_distance`` (K,), ``valid`` (K,) near-plane mask, plus intermediates
    reused by the analytic backward pass (``R`` (K,3,3) rotations, ``cov3d``
    (K,3,3), ``cov_cam`` (K,3,3), ``J`` (K,2,3)).
    """
    mus = np.asarray(mus, dtype=np.float64).reshape(-1, 3)
    quats = np.asarray(quats, dtype=np.float64).reshape(-1, 4)
    scales = np.asarray(scales, dtype=np.float64).reshape(-1, 3)
    K = mus.shape[0]
    cam_W = cam.world_to_camera()
    Rcw = cam_W[:3, :3]

    mean2d, t, valid = project_points_batch(mus, cam)
    cam_distance = np.sqrt((t * t).sum(axis=1))

    R = quaternion_to_rotation_batch(quats)
    RS = R * scales[:, None, :]
    cov3d = RS @ np.transpose(RS, (0, 2, 1))
    cov_cam = np.einsum("ab,kbc,dc->kad", Rcw, cov3d, Rcw)

    z = np.where(valid, t[:, 2], 1.0)
    x, y = t[:, 0], t[:, 1]
    J = np.zeros((K, 2, 3), dtype=np.float64)
    J[:, 0, 0] = cam.fx / z
    J[:, 0, 2] = -cam.fx * x / (z * z)
    J[:, 1, 1] = cam.fy / z
    J[:, 1, 2] = -cam.fy * y / (z * z)

    cov2d = np.einsum("kab,kbc,kdc->kad", J, cov_cam, J)
    # Exact symmetric storage: average off-diagonal entries.
    off = 0.5 * (cov2d[:, 0, 1] + cov2d[:, 1, 0])
    cov2d[:, 0, 1] = off
    cov2d[:, 1, 0] = off
    cov2d[:, 0, 0] += COV2D_REG
    cov2d[:, 1, 1] += COV2D_REG

    return {
        "mean2d": mean2d,
        "cov2d": cov2d,
        "cam_t": t,
        "cam_distance": cam_distance,
        "valid": valid,
        "R": R,
        "cov3d": cov3d,
        "cov_cam": cov_cam,
        "J": J,
    }
