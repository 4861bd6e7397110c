"""Reference forms of the mesh math that SurfaceModel's triangle table
replaced.

Before each surface computed its triangle corners, edges and face cross
products once, every reader gathered the corners and formed the edges
itself, and the ICP normals re-solved each closest point's barycentric
weights from the point with a 2 x 2 system. Those per-site formulas are kept
here, so the oracle tests can require the table's readers to give the same
bits, and the kernel's weights the same normals to rounding.
"""

import numpy as np


def areas(surface) -> np.ndarray:
    v, t = surface.vertices, surface.triangles
    a, b, c = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)


def vertex_normals(surface) -> np.ndarray:
    v, t = surface.vertices, surface.triangles
    fn = np.cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]])
    vn = np.zeros_like(v)
    for k in range(3):
        np.add.at(vn, t[:, k], fn)
    return vn / np.linalg.norm(vn, axis=1, keepdims=True)


def to_stl(surface) -> str:
    v, t = surface.vertices, surface.triangles
    lines = ["solid surface"]
    for tri in t:
        a, b, c = v[tri[0]], v[tri[1]], v[tri[2]]
        n = np.cross(b - a, c - a)
        n = n / np.linalg.norm(n)
        lines.append(f"  facet normal {n[0]:.17g} {n[1]:.17g} {n[2]:.17g}")
        lines.append("    outer loop")
        for p in (a, b, c):
            lines.append(f"      vertex {p[0]:.17g} {p[1]:.17g} {p[2]:.17g}")
        lines.append("    endloop")
        lines.append("  endfacet")
    lines.append("endsolid surface")
    return "\n".join(lines) + "\n"


def sample_surface_points(surface, n: int, rng: np.random.Generator) -> np.ndarray:
    v, t = surface.vertices, surface.triangles
    a, b, c = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    weights = areas(surface)
    idx = rng.choice(len(t), size=n, p=weights / weights.sum())
    u1 = rng.uniform(size=n)
    u2 = rng.uniform(size=n)
    flip = u1 + u2 > 1.0
    u1[flip] = 1.0 - u1[flip]
    u2[flip] = 1.0 - u2[flip]
    return a[idx] + u1[:, None] * (b[idx] - a[idx]) + u2[:, None] * (c[idx] - a[idx])


def smooth_normals_at(surface, closest: np.ndarray, tri_idx: np.ndarray) -> np.ndarray:
    """Vertex normals interpolated with weights re-solved from the closest
    points, clipped to the triangle."""
    v, t = surface.vertices, surface.triangles
    vn = vertex_normals(surface)
    tris = t[tri_idx]
    a = v[tris[:, 0]]
    v0 = v[tris[:, 1]] - a
    v1 = v[tris[:, 2]] - a
    v2 = closest - a
    d00 = np.sum(v0 * v0, axis=1)
    d01 = np.sum(v0 * v1, axis=1)
    d11 = np.sum(v1 * v1, axis=1)
    d20 = np.sum(v2 * v0, axis=1)
    d21 = np.sum(v2 * v1, axis=1)
    den = d00 * d11 - d01 * d01
    w1 = np.clip((d11 * d20 - d01 * d21) / den, 0.0, 1.0)
    w2 = np.clip((d00 * d21 - d01 * d20) / den, 0.0, 1.0)
    w0 = np.clip(1.0 - w1 - w2, 0.0, 1.0)
    n = (w0[:, None] * vn[tris[:, 0]] + w1[:, None] * vn[tris[:, 1]]
         + w2[:, None] * vn[tris[:, 2]])
    return n / np.linalg.norm(n, axis=1, keepdims=True)
