"""Synthetic multi-view scene generation, baking, and persistence.

A scene is a ground-truth set of 3D Gaussians plus a ring of pinhole cameras
looking at the scene center. Objects are Gaussian point clouds sampled on
sphere and box surfaces inside an axis-aligned bounding box. `bake_ground_truth`
renders every view with the footprint-pair renderer, the path training uses,
to produce RGB, dense depth, and a validity mask; `sparsify_depth` thins the
mask to simulate sparse range measurements.

Scene container file (all fields little-endian):

    magic   b"SQSSCN1"                        7 bytes
    version uint8 (currently 1)               1 byte
    K       uint32   number of Gaussians
    N       uint32   number of cameras
    bounds  6 float64  (xmin, ymin, zmin, xmax, ymax, zmax)
    seed    uint64
    gauss   K records of geometry.GAUSSIAN_DTYPE, 112 bytes each:
            float64 mu[3], quat[4], scale[3], opacity, color[3]
    per camera:
        intrinsics  9 float64 (row-major 3x3)
        extrinsics 16 float64 (row-major 4x4)
        image size  2 uint32 (width, height)

A file whose Gaussians break a Scene's rules (unit quaternions, positive
scales, means inside the bounds, opacity and color in [0, 1]) is rejected
like a malformed one, with SceneFormatError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import renderer
from .geometry import GAUSSIAN_DTYPE, Camera
from .images import _read_exact

SCENE_MAGIC = b"SQSSCN1"
SCENE_VERSION = 1


class SceneFormatError(ValueError):
    """Raised when a scene file is malformed or truncated."""


@dataclass
class Scene:
    """Ground-truth Gaussians, cameras, bounds, and the generating seed.

    gaussians is a (K,) record array of GAUSSIAN_DTYPE; each field reads as
    an attribute (``scene.gaussians.mu`` is (K, 3)) or by name.
    """

    gaussians: np.recarray
    cameras: list
    bounds: np.ndarray  # (2, 3): [min_corner, max_corner]
    seed: int

    def __post_init__(self):
        self.bounds = np.asarray(self.bounds, dtype=np.float64).reshape(2, 3)
        if not (np.isfinite(self.bounds).all() and np.all(self.bounds[1] > self.bounds[0])):
            raise ValueError(f"degenerate bounds: {self.bounds.tolist()}")
        if len(self.cameras) < 1:
            raise ValueError("scene needs at least one camera")
        g = np.asarray(self.gaussians, dtype=GAUSSIAN_DTYPE).reshape(-1).view(np.recarray)
        self.gaussians = g
        # Each check is false for NaN, so a NaN field is rejected too. A unit
        # quaternion has no component above 1, so only bounded ones take the
        # norm, which then cannot overflow.
        bounded = np.all(np.abs(g.quat) <= 1.0 + 1e-9, axis=1)
        norm = np.linalg.norm(np.where(bounded[:, None], g.quat, 0.0), axis=1)
        checks = [
            ("quaternion norm is not 1 within 1e-9", bounded & (np.abs(norm - 1.0) <= 1e-9)),
            ("scale is not positive and finite",
             np.all(np.isfinite(g.scale) & (g.scale > 0.0), axis=1)),
            ("mean is outside bounds",
             np.all((g.mu >= self.bounds[0]) & (g.mu <= self.bounds[1]), axis=1)),
            ("opacity is outside [0, 1]", (g.opacity >= 0.0) & (g.opacity <= 1.0)),
            ("color is outside [0, 1]",
             np.all((g.color >= 0.0) & (g.color <= 1.0), axis=1)),
        ]
        for what, ok in checks:
            if not ok.all():
                i = int(np.argmin(ok))
                raise ValueError(f"gaussian {i}: {what}: {g[i]}")

    def arrays(self):
        """The Gaussians, whose fields the renderer reads by name."""
        return self.gaussians

    @property
    def extent(self):
        """Length of the bounds diagonal, the scene's natural scale."""
        return float(np.linalg.norm(self.bounds[1] - self.bounds[0]))


@dataclass
class SceneSample:
    """Baked supervision: per-view RGB, dense depth, and validity masks."""

    rgb: np.ndarray  # (N, H, W, 3) in [0, 1]
    dense_depth: np.ndarray  # (N, H, W) meters
    valid_mask: np.ndarray  # (N, H, W) bool
    cameras: list
    bounds: np.ndarray  # (2, 3)

    @property
    def n_views(self):
        return self.rgb.shape[0]


def _look_at(eye, target):
    """Camera-to-world pose for a camera at `eye` looking at `target`.

    Camera axes: x right, y down, z forward; world up is +z.
    """
    eye = np.asarray(eye, dtype=np.float64)
    forward = target - eye
    norm = np.linalg.norm(forward)
    if norm < 1e-12:
        raise ValueError("camera eye coincides with target")
    z_c = forward / norm
    up = np.array([0.0, 0.0, 1.0])
    x_c = np.cross(z_c, up)
    x_norm = np.linalg.norm(x_c)
    if x_norm < 1e-8:
        raise ValueError("camera looks along the vertical axis")
    x_c /= x_norm
    y_c = np.cross(z_c, x_c)
    T = np.eye(4)
    T[:3, :3] = np.stack([x_c, y_c, z_c], axis=1)  # camera axes as columns
    T[:3, 3] = eye
    return T


def _ring_cameras(bounds, n_views, image_size):
    center = bounds.mean(axis=0)
    half = (bounds[1] - bounds[0]) / 2.0
    half_diag = float(np.linalg.norm(half))
    radius = 2.2 * half_diag
    width, height = image_size
    # Focal length chosen so the bounds diagonal spans ~90% of the image at
    # the nearest approach distance.
    fx = 0.45 * min(width, height) * (radius - half_diag) / half_diag
    K = np.array(
        [
            [fx, 0.0, (width - 1) / 2.0],
            [0.0, fx, (height - 1) / 2.0],
            [0.0, 0.0, 1.0],
        ]
    )
    cameras = []
    for k in range(n_views):
        theta = 2.0 * np.pi * k / n_views
        eye = center + np.array(
            [radius * np.cos(theta), radius * np.sin(theta), 0.35 * radius]
        )
        cameras.append(
            Camera(intrinsics=K.copy(), extrinsics=_look_at(eye, center), image_size=image_size)
        )
    return cameras


def _sample_sphere_surface(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _sample_box_surface(rng, n):
    """Uniform points on the surface of the [-1, 1]^3 cube."""
    points = rng.uniform(-1.0, 1.0, size=(n, 3))
    axis = rng.integers(0, 3, size=n)
    sign = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
    points[np.arange(n), axis] = sign
    return points


def generate_scene(spec, seed):
    """Build a deterministic random Scene from a spec dict.

    Required keys: n_objects, bounds (2x3 or flat 6), n_views, image_size.
    Optional: points_per_object (default 40).
    """
    required = {"n_objects", "bounds", "n_views", "image_size"}
    missing = required - set(spec)
    if missing:
        raise ValueError(f"scene spec missing keys: {sorted(missing)}")
    n_objects = int(spec["n_objects"])
    n_views = int(spec["n_views"])
    points_per_object = int(spec.get("points_per_object", 40))
    if n_objects < 1:
        raise ValueError(f"n_objects must be >= 1, got {n_objects}")
    if n_views < 1:
        raise ValueError(f"n_views must be >= 1, got {n_views}")
    if points_per_object < 1:
        raise ValueError(f"points_per_object must be >= 1, got {points_per_object}")
    bounds = np.asarray(spec["bounds"], dtype=np.float64).reshape(2, 3)
    if not np.all(bounds[1] > bounds[0]):
        raise ValueError(f"degenerate bounds: {bounds.tolist()}")
    image_size = (int(spec["image_size"][0]), int(spec["image_size"][1]))

    rng = np.random.default_rng(seed)
    extent = bounds[1] - bounds[0]
    min_extent = float(extent.min())

    gaussians = np.recarray(n_objects * points_per_object, dtype=GAUSSIAN_DTYPE)
    for i in range(n_objects):
        g = gaussians[i * points_per_object : (i + 1) * points_per_object]
        is_sphere = rng.uniform() < 0.5
        radius = rng.uniform(0.08, 0.18) * min_extent
        # Keep the whole object strictly inside the bounds.
        lo = bounds[0] + radius * 1.001
        hi = bounds[1] - radius * 1.001
        center = rng.uniform(lo, hi)
        if is_sphere:
            unit = _sample_sphere_surface(rng, points_per_object)
        else:
            unit = _sample_box_surface(rng, points_per_object)
        g.mu = center + radius * unit
        q = rng.normal(size=(points_per_object, 4))
        g.quat = q / np.linalg.norm(q, axis=1, keepdims=True)
        g.scale = rng.uniform(0.25, 0.6, size=(points_per_object, 3)) * radius
        g.opacity = rng.uniform(0.6, 1.0, size=points_per_object)
        base_color = rng.uniform(size=3)
        jitter = rng.uniform(-0.08, 0.08, size=(points_per_object, 3))
        g.color = np.clip(base_color + jitter, 0.0, 1.0)

    return Scene(
        gaussians=gaussians,
        cameras=_ring_cameras(bounds, n_views, image_size),
        bounds=bounds,
        seed=int(seed),
    )


def bake_ground_truth(scene):
    """Render every view with the footprint-pair renderer into a SceneSample.

    The valid mask (alpha_acc > 0.5) is bit-identical to what
    renderer.render_reference gives; RGB and depth agree with it to rounding
    (about 1e-14), since the two paths sum in different orders."""
    arrays = scene.arrays()
    rgbs, depths, masks = [], [], []
    for cam in scene.cameras:
        out = renderer.render(arrays, cam)
        rgbs.append(out.rgb)
        depths.append(out.depth)
        masks.append(out.alpha_acc > 0.5)
    return SceneSample(
        rgb=np.stack(rgbs),
        dense_depth=np.stack(depths),
        valid_mask=np.stack(masks),
        cameras=list(scene.cameras),
        bounds=scene.bounds.copy(),
    )


def sparsify_depth(sample, keep_rate, seed):
    """Thin the validity mask: each valid pixel survives with prob keep_rate."""
    if not 0.0 < keep_rate <= 1.0:
        raise ValueError(f"keep_rate must be in (0, 1], got {keep_rate}")
    rng = np.random.default_rng(seed)
    keep = rng.uniform(size=sample.valid_mask.shape) < keep_rate
    return SceneSample(
        rgb=sample.rgb.copy(),
        dense_depth=sample.dense_depth.copy(),
        valid_mask=sample.valid_mask & keep,
        cameras=list(sample.cameras),
        bounds=sample.bounds.copy(),
    )


def save_scene(path, scene):
    """Write a Scene to the SQSSCN1 container format."""
    with open(path, "wb") as f:
        f.write(SCENE_MAGIC)
        f.write(bytes([SCENE_VERSION]))
        f.write(np.uint32(len(scene.gaussians)).tobytes())
        f.write(np.uint32(len(scene.cameras)).tobytes())
        f.write(scene.bounds.astype("<f8").tobytes())
        f.write(np.uint64(scene.seed).tobytes())
        f.write(scene.gaussians.tobytes())
        for cam in scene.cameras:
            f.write(np.asarray(cam.intrinsics, dtype="<f8").tobytes())
            f.write(np.asarray(cam.extrinsics, dtype="<f8").tobytes())
            f.write(np.asarray(cam.image_size, dtype="<u4").tobytes())


def load_scene(path):
    """Read a Scene from the SQSSCN1 container format."""
    with open(path, "rb") as f:
        def read(n, what):
            return _read_exact(f, n, what, SceneFormatError)

        magic = read(len(SCENE_MAGIC), "magic")
        if magic != SCENE_MAGIC:
            raise SceneFormatError(f"not a scene file: magic {magic!r}")
        version = read(1, "version byte")[0]
        if version != SCENE_VERSION:
            raise SceneFormatError(
                f"unsupported scene version {version} (want {SCENE_VERSION})"
            )
        K = int(np.frombuffer(read(4, "gaussian count"), "<u4")[0])
        n_views = int(np.frombuffer(read(4, "camera count"), "<u4")[0])
        bounds = np.frombuffer(read(48, "bounds"), "<f8").reshape(2, 3)
        seed = int(np.frombuffer(read(8, "seed"), "<u8")[0])
        gaussians = np.frombuffer(
            read(K * GAUSSIAN_DTYPE.itemsize, "gaussian records"), GAUSSIAN_DTYPE, count=K
        ).copy()
        cameras = []
        for k in range(n_views):
            intr = np.frombuffer(read(72, f"camera {k} intrinsics"), "<f8").reshape(3, 3)
            extr = np.frombuffer(read(128, f"camera {k} extrinsics"), "<f8").reshape(4, 4)
            size = np.frombuffer(read(8, f"camera {k} image size"), "<u4")
            cameras.append((intr.copy(), extr.copy(), (int(size[0]), int(size[1]))))
        trailing = f.read(1)
        if trailing:
            raise SceneFormatError("trailing bytes after last camera record")
    try:
        return Scene(
            gaussians=gaussians,
            cameras=[Camera(*cam) for cam in cameras],
            bounds=bounds.copy(),
            seed=seed,
        )
    except ValueError as e:
        raise SceneFormatError(f"invalid scene in {path}: {e}") from e
