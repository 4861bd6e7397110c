"""Shared test utilities: seeded random geometry generators."""

import numpy as np

from spinenav import meshes
from spinenav.geom import RigidTransform
from spinenav.registration import SurfaceModel


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation matrix via normalized quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def random_rigid(rng: np.random.Generator, translation_scale: float = 50.0) -> RigidTransform:
    return RigidTransform(random_rotation(rng),
                          rng.uniform(-translation_scale, translation_scale, size=3))


def random_noncollinear_points(rng: np.random.Generator, n: int,
                               extent: float = 100.0) -> np.ndarray:
    """Random points rejected until clearly non-collinear."""
    while True:
        pts = rng.uniform(-extent / 2, extent / 2, size=(n, 3))
        sv = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
        if sv[1] / sv[0] > 1e-2:
            return pts


def look_at(source, target, up=(0, 0, 1)) -> RigidTransform:
    """World -> camera transform for a camera at source looking at target
    (camera z along the viewing direction)."""
    z = np.asarray(target, float) - np.asarray(source, float)
    z /= np.linalg.norm(z)
    up = np.asarray(up, float)
    x = np.cross(up, z)
    if np.linalg.norm(x) < 1e-6:
        x = np.cross((0.0, 1.0, 0.0), z)
    x /= np.linalg.norm(x)
    y = np.cross(z, x)
    r = np.vstack([x, y, z])
    return RigidTransform(r, -r @ np.asarray(source, float))


def icosphere(subdivisions: int = 2, radius: float = 1.0) -> SurfaceModel:
    """Unit icosahedron subdivided and projected onto a sphere, scaled to
    radius, in the Patient frame: a surface with no preferred rotation."""
    v, t = meshes._unit_icosphere(subdivisions)
    return SurfaceModel("Patient", v * radius, t)
