"""Synthetic mesh construction for phantoms and surface-registration tests."""

from __future__ import annotations

import functools

import numpy as np

from .registration import SurfaceModel


@functools.cache
def _unit_icosphere(subdivisions: int) -> tuple:
    """Read-only unit icosphere vertices (V, 3) and triangles (T, 3), built
    on first use for each subdivision count and kept: the midpoint loop
    takes most of a phantom's construction time, and its vertex order is
    what every mesh built from it depends on."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
        [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
        [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
    ], dtype=float)
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = [tuple(v) for v in verts]
    index = {v: i for i, v in enumerate(verts)}

    def midpoint(i, j):
        m = tuple((np.asarray(verts[i]) + np.asarray(verts[j])) / 2.0)
        m = tuple(np.asarray(m) / np.linalg.norm(m))
        if m not in index:
            index[m] = len(verts)
            verts.append(m)
        return index[m]

    for _ in range(subdivisions):
        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces

    v = np.asarray(verts, dtype=float)
    t = np.asarray(faces, dtype=np.int64)
    v.setflags(write=False)
    t.setflags(write=False)
    return v, t


def bumpy_ellipsoid(rng: np.random.Generator, subdivisions: int = 3,
                    center=(0.0, 0.0, 0.0)) -> SurfaceModel:
    """Patient-frame ellipsoid of semi-axes 30, 25 and 20 mm with six smooth
    seeded radial bumps, each 4.5-15% of the radius high; deliberately
    asymmetric so rigid poses against it are fully observable."""
    dirs, triangles = _unit_icosphere(subdivisions)
    bump_dirs = rng.normal(size=(6, 3))
    bump_dirs /= np.linalg.norm(bump_dirs, axis=1, keepdims=True)
    amps = rng.uniform(0.3, 1.0, size=6) * 0.15
    widths = rng.uniform(2.0, 6.0, size=6)
    scale = np.ones(len(dirs))
    for d, a, w in zip(bump_dirs, amps, widths):
        scale += a * np.exp(-w * (1.0 - dirs @ d))
    v = dirs * scale[:, None] * np.array([30.0, 25.0, 20.0])
    return SurfaceModel("Patient", v + np.asarray(center, dtype=float), triangles)


def sample_surface_points(surface: SurfaceModel, n: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Uniform-by-area random points on the mesh surface."""
    a, ab, ac, cross = surface._facets
    areas = 0.5 * np.linalg.norm(cross, axis=1)
    idx = rng.choice(len(a), size=n, p=areas / areas.sum())
    u1 = rng.uniform(size=n)
    u2 = rng.uniform(size=n)
    flip = u1 + u2 > 1.0
    u1[flip] = 1.0 - u1[flip]
    u2[flip] = 1.0 - u2[flip]
    return a[idx] + u1[:, None] * ab[idx] + u2[:, None] * ac[idx]
