"""Patient-image registration: rigid point fits, surface ICP, and the
FLE/FRE/TRE statistics used to verify them.

register_points solves the closed-form least-squares rigid fit (centroid
removal, cross-covariance SVD, reflection correction). predict_tre evaluates
the expected target registration error

    E[TRE^2(r)] = (FLE^2 / N) * (1 + (1/3) * sum_k d_k^2 / f_k^2)

where f_k is the RMS distance of the fiducials from principal axis k of the
fiducial configuration and d_k is the distance of the target from that axis.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import BadInput, DegenerateGeometry, LabelMismatch, TooFewPoints, raised_where
from .geom import (ArrayValue, RigidTransform, all_finite, booleans, compose,
                   finite_scalars, frozen_array, row_dot, snap_rotation,
                   transform_from_dict, transform_to_dict)

_COLLINEAR_SV_RATIO = 1e-6
_PRUNE_SLACK = 1e-9
# surface ICP: iteration cap and the residual fall below which it stops
ICP_MAX_ITER = 100
ICP_TOL_MM = 1e-4
# queries per closest_points_on_mesh pass
CLOSEST_POINT_CHUNK = 128


def check_fiducial_points(points: np.ndarray) -> None:
    """FiducialSet's value guard on one point set (N, 3), or once on a stack
    (T, N, 3): raises BadInput unless every position is finite."""
    if not all_finite(points):
        raise BadInput("fiducial positions must be finite")


@dataclass(frozen=True, eq=False)
class FiducialSet(ArrayValue):
    """Labeled 3D points (mm) expressed in a named frame."""

    frame: str
    labels: tuple
    points: np.ndarray  # (N, 3)

    def __post_init__(self):
        if not isinstance(self.frame, str) or not self.frame:
            raise BadInput("fiducial set frame must be a non-empty string")
        labels = tuple(str(x) for x in self.labels)
        pts = frozen_array(self, "points", self.points, (len(labels), 3), check=False)
        if len(labels) == 0:
            raise BadInput("fiducial set needs at least one point")
        if len(set(labels)) != len(labels):
            raise BadInput("fiducial labels must be unique")
        check_fiducial_points(pts)
        object.__setattr__(self, "labels", labels)

    @staticmethod
    def from_pairs(frame: str, pairs) -> "FiducialSet":
        """Build from an iterable of (label, xyz_mm)."""
        labels = [p[0] for p in pairs]
        points = [p[1] for p in pairs]
        return FiducialSet(frame, tuple(labels), np.asarray(points, dtype=float))

    def __len__(self) -> int:
        return len(self.labels)

    def position(self, label: str) -> np.ndarray:
        return self.points[self.labels.index(label)]

    def subset(self, labels) -> "FiducialSet":
        idx = [self.labels.index(l) for l in labels]
        return FiducialSet(self.frame, tuple(self.labels[i] for i in idx), self.points[idx])

    def transformed(self, t: RigidTransform, frame: str | None = None) -> "FiducialSet":
        return FiducialSet(frame if frame is not None else self.frame,
                           self.labels, t.apply(self.points))

    def to_dict(self) -> dict:
        return {"frame": self.frame,
                "points": [{"label": l, "xyz_mm": p.tolist()}
                           for l, p in zip(self.labels, self.points)]}

    @staticmethod
    def from_dict(d: dict) -> "FiducialSet":
        return FiducialSet.from_pairs(d["frame"],
                                      [(p["label"], p["xyz_mm"]) for p in d["points"]])


@dataclass(frozen=True)
class RegistrationResult:
    """Outcome of a rigid registration: moving -> fixed transform plus
    residual statistics. converged must be a bool."""

    transform: RigidTransform
    fre_rms: float
    per_point_residuals: tuple
    n_points: int
    converged: bool = True

    def __post_init__(self):
        booleans(self, "converged")
        finite_scalars(self, "fre_rms")
        res = tuple(float(r) for r in self.per_point_residuals)
        object.__setattr__(self, "per_point_residuals", res)
        expected = float(np.sqrt(np.mean(np.square(res)))) if res else 0.0
        # written as not (x <= tol), so a NaN residual fails the gate
        if not abs(self.fre_rms - expected) <= 1e-12 * max(1.0, expected):
            raise BadInput("fre_rms inconsistent with per-point residuals")

    def to_dict(self) -> dict:
        return {"transform": transform_to_dict(self.transform),
                "fre_rms_mm": self.fre_rms,
                "per_point_residuals_mm": list(self.per_point_residuals),
                "n_points": self.n_points,
                "converged": self.converged}

    @staticmethod
    def from_dict(d: dict) -> "RegistrationResult":
        """Inverse of to_dict; a missing "converged" reads as True."""
        return RegistrationResult(transform_from_dict(d["transform"]), float(d["fre_rms_mm"]),
                                  d["per_point_residuals_mm"], int(d["n_points"]),
                                  d.get("converged", True))


@dataclass(frozen=True, eq=False)
class TrePrediction(ArrayValue):
    """Expected TRE at a target point for a given fiducial configuration."""

    target: np.ndarray
    expected_tre_rms: float
    fle_rms: float
    principal_axis_spans: np.ndarray  # f_k, RMS fiducial distance from axis k
    target_offsets: np.ndarray        # d_k, target distance from axis k

    def __post_init__(self):
        for name in ("target", "principal_axis_spans", "target_offsets"):
            frozen_array(self, name, getattr(self, name), 3)
        finite_scalars(self, "expected_tre_rms", "fle_rms")


@dataclass(frozen=True, eq=False)
class SurfaceModel(ArrayValue):
    """Triangle mesh in mm: vertices (V, 3) and triangle index triples (T, 3).
    Read-only. Each triangle's first corner a, edges ab and ac and face cross
    product ab x ac (twice its area along its normal) are computed once, on
    construction, and every piece of mesh math reads them; the query
    structures are built on first use and kept."""

    frame: str
    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        if not isinstance(self.frame, str) or not self.frame:
            raise BadInput("surface frame must be a non-empty string")
        v = frozen_array(self, "vertices", self.vertices, (-1, 3))
        t = frozen_array(self, "triangles", self.triangles, (-1, 3), np.int64)
        if t.min(initial=0) < 0 or (t.size and t.max() >= len(v)):
            raise BadInput("triangle indices out of range")
        a = v[t[:, 0]]
        ab, ac = v[t[:, 1]] - a, v[t[:, 2]] - a
        facets = (a, ab, ac, np.cross(ab, ac))
        for arr in facets:
            arr.setflags(write=False)
        if t.size and np.any(0.5 * np.linalg.norm(facets[3], axis=1) < 1e-12):
            raise BadInput("mesh contains degenerate (zero-area) triangles")
        object.__setattr__(self, "_facets", facets)

    @functools.cached_property
    def _query_index(self) -> tuple:
        """(centroids, radii, cKDTree over the centroids, largest radius,
        largest vertex norm) for closest_points_on_mesh: the sphere about
        each triangle's centroid that holds it."""
        from scipy.spatial import cKDTree

        corners = self.vertices[self.triangles]  # (T, 3, 3)
        centroids = (corners[:, 0] + corners[:, 1] + corners[:, 2]) / 3.0
        radii = np.sqrt(np.max(np.sum((corners - centroids[:, None, :]) ** 2, axis=2), axis=1))
        for arr in (centroids, radii):
            arr.setflags(write=False)
        return (centroids, radii, cKDTree(centroids), radii.max(),
                np.linalg.norm(self.vertices, axis=1).max())

    @functools.cached_property
    def _vertex_normals(self) -> np.ndarray:
        """Area-weighted vertex normals (smooth shading)."""
        v, t = self.vertices, self.triangles
        vn = np.zeros_like(v)
        for k in range(3):
            np.add.at(vn, t[:, k], self._facets[3])
        vn /= np.linalg.norm(vn, axis=1, keepdims=True)
        vn.setflags(write=False)
        return vn

    def to_dict(self) -> dict:
        return {"frame": self.frame, "vertices_mm": self.vertices.tolist(),
                "triangles": self.triangles.tolist()}

    @staticmethod
    def from_dict(d: dict) -> "SurfaceModel":
        return SurfaceModel(d["frame"], d["vertices_mm"], d["triangles"])

    def to_stl(self) -> str:
        """ASCII STL (solid "surface"); triangle normals recomputed from
        vertex winding. 17 significant digits: from_stl reads it back exactly."""
        cross = self._facets[3]
        normals = cross / np.sqrt(row_dot(cross, cross))[:, None]
        lines = ["solid surface"]
        for tri, n in zip(self.triangles, normals):
            lines.append(f"  facet normal {n[0]:.17g} {n[1]:.17g} {n[2]:.17g}")
            lines.append("    outer loop")
            for p in self.vertices[tri]:
                lines.append(f"      vertex {p[0]:.17g} {p[1]:.17g} {p[2]:.17g}")
            lines.append("    endloop")
            lines.append("  endfacet")
        lines.append("endsolid surface")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_stl(text: str) -> "SurfaceModel":
        """Parse ASCII STL into a Patient-frame surface; duplicate vertices
        are merged exactly. A vertex line needs 3 numbers and a facet loop 3
        vertices (BadInput)."""
        verts: list = []
        index: dict = {}
        tris: list = []
        current: list = []
        for line in text.splitlines():
            parts = line.split()
            if parts[:1] == ["vertex"]:
                if len(parts) != 4:
                    raise BadInput(f"STL vertex line needs 3 numbers: {line.strip()!r}")
                p = tuple(float(x) for x in parts[1:])
                if p not in index:
                    index[p] = len(verts)
                    verts.append(p)
                current.append(index[p])
            elif parts[:1] == ["endloop"]:
                tris.append(tuple(current))
                current = []
        if current or any(len(tri) != 3 for tri in tris):
            raise BadInput("every STL facet loop must hold exactly 3 vertices")
        if not tris:
            raise BadInput("no facets found in STL input")
        return SurfaceModel("Patient", np.asarray(verts, dtype=float),
                            np.asarray(tris, dtype=np.int64))


@dataclass(frozen=True)
class VerificationDecision:
    """Accept/reject outcome of a registration accuracy check."""

    accepted: bool
    fre_rms: float
    threshold_mm: float
    reason: str | None = None


# -- core rigid fit ----------------------------------------------------------

def _collinear_batch(points: np.ndarray, what: str) -> dict:
    """{stack row: DegenerateGeometry} for each point set of a stack
    (T, N, 3), N >= 2, whose spread is collinear: its second singular value
    about the centroid is below 1e-6 of the first, or the first is 0."""
    sv = np.linalg.svd(points - points.mean(axis=1)[:, None, :], compute_uv=False)
    flat = sv[:, 0] <= 0.0
    # the ratio of a flat set is never read; 1.0 stands in for its zero
    ratio = sv[:, 1] / np.where(flat, 1.0, sv[:, 0])
    return raised_where(flat | (ratio < _COLLINEAR_SV_RATIO), DegenerateGeometry,
                        f"{what} points are collinear")


def _check_not_collinear(points: np.ndarray, what: str) -> None:
    failed = _collinear_batch(points[None], what)
    if failed:
        raise failed[0]


def fit_rigid(fixed: np.ndarray, moving: np.ndarray) -> RigidTransform:
    """Least-squares rigid transform mapping moving points (N, 3) onto fixed
    points: the one-stack case of fit_rigid_batch."""
    r, t = fit_rigid_batch([fixed], [moving])
    return RigidTransform(r[0], t[0])


def fit_rigid_batch(fixed: np.ndarray, moving: np.ndarray):
    """Least-squares rigid transforms mapping moving points onto fixed
    points, stack by stack: (T, N, 3) -> rotations (T, 3, 3), translations
    (T, 3). Closed form (Arun, Huang & Blostein 1987): centroid removal,
    cross-covariance SVD, determinant correction against reflections. Each
    rotation goes through snap_rotation before its translation is taken."""
    fixed = np.asarray(fixed, dtype=float)
    moving = np.asarray(moving, dtype=float)
    fc = fixed.mean(axis=1)
    mc = moving.mean(axis=1)
    h = (moving - mc[:, None, :]).transpose(0, 2, 1) @ (fixed - fc[:, None, :])
    u, _, vt = np.linalg.svd(h)
    v, ut = vt.transpose(0, 2, 1), u.transpose(0, 2, 1)
    corr = np.repeat(np.eye(3)[None, :, :], len(h), axis=0)
    corr[:, 2, 2] = np.sign(np.linalg.det(v @ ut))
    r = snap_rotation(v @ corr @ ut)
    return r, fc - (r @ mc[:, :, None])[:, :, 0]


def register_points_batch(fixed: np.ndarray, moving: np.ndarray):
    """register_points' checks and fit, stack by stack, on row-matched point
    sets fixed and moving (T, N, 3): the rigid transforms moving -> fixed as
    rotations (T, 3, 3) and translations (T, 3), plus {stack row: error} for
    the rows that fail, whose transforms are left NaN. A row fails with the
    first of TooFewPoints (N < 3, every row), DegenerateGeometry for
    collinear fixed points, then for collinear moving points. The transforms
    have not been through the RigidTransform guard: callers run it
    (check_rigid) once on the rows they use."""
    count = len(fixed)
    if fixed.shape[1] < 3:
        return (np.full((count, 3, 3), np.nan), np.full((count, 3), np.nan),
                raised_where(np.ones(count, dtype=bool), TooFewPoints,
                             "point registration needs at least 3 correspondences"))
    # a row with both sets collinear keeps the fixed set's error
    failed = {**_collinear_batch(moving, "moving"), **_collinear_batch(fixed, "fixed")}
    if not failed:
        return (*fit_rigid_batch(fixed, moving), failed)
    ok = np.ones(count, dtype=bool)
    ok[list(failed)] = False
    r, t = fit_rigid_batch(fixed[ok], moving[ok])
    rotations, translations = np.full((count, 3, 3), np.nan), np.full((count, 3), np.nan)
    rotations[ok], translations[ok] = r, t
    return rotations, translations, failed


def register_points(fixed: FiducialSet, moving: FiducialSet) -> RegistrationResult:
    """Rigid registration of label-matched fiducial sets (moving -> fixed):
    the one-stack case of register_points_batch.

    Raises TooFewPoints (< 3 correspondences), LabelMismatch, or
    DegenerateGeometry (collinear configuration).
    """
    if set(fixed.labels) != set(moving.labels):
        raise LabelMismatch("fixed and moving sets carry different labels")
    moving_matched = moving.subset(fixed.labels)
    r, t, failed = register_points_batch(fixed.points[None], moving_matched.points[None])
    if failed:
        raise failed[0]
    t = RigidTransform(r[0], t[0])
    residuals = np.linalg.norm(fixed.points - t.apply(moving_matched.points), axis=1)
    return RegistrationResult(t, float(np.sqrt(np.mean(residuals ** 2))),
                              tuple(residuals), len(fixed))


def predict_tre(fiducials: FiducialSet, fle_rms: float, target) -> TrePrediction:
    """Expected RMS target registration error at a point, for isotropic FLE.

    The first term FLE^2/N is the error floor at the fiducial centroid; the
    second grows with the target's distance from each principal axis of the
    fiducial configuration relative to the fiducial spread about that axis.
    """
    if len(fiducials) < 3:
        raise TooFewPoints("TRE prediction needs at least 3 fiducials")
    if not fle_rms > 0.0:
        raise BadInput("fle_rms must be positive")
    pts = fiducials.points
    _check_not_collinear(pts, "fiducial")
    centroid = pts.mean(axis=0)
    demeaned = pts - centroid
    cov = demeaned.T @ demeaned / len(pts)
    eigvals, eigvecs = np.linalg.eigh(cov)  # ascending; columns are axes
    # f_k^2 = mean squared distance from axis k = sum of the other eigenvalues
    f_sq = eigvals.sum() - eigvals
    u = np.asarray(target, dtype=float) - centroid
    comps = eigvecs.T @ u
    d_sq = np.sum(comps ** 2) - comps ** 2  # squared distance from axis k
    tre_sq = (fle_rms ** 2 / len(pts)) * (1.0 + np.sum(d_sq / f_sq) / 3.0)
    return TrePrediction(np.asarray(target, dtype=float), float(np.sqrt(tre_sq)),
                         float(fle_rms), np.sqrt(f_sq), np.sqrt(d_sq))


def verify_registration(result: RegistrationResult,
                        threshold_mm: float = 2.0) -> VerificationDecision:
    """Accept iff the fit converged and fre_rms <= threshold (closed bound:
    equality accepts)."""
    if not result.converged:
        return VerificationDecision(False, result.fre_rms, threshold_mm,
                                    "registration did not converge")
    if result.fre_rms <= threshold_mm:
        return VerificationDecision(True, result.fre_rms, threshold_mm)
    return VerificationDecision(False, result.fre_rms, threshold_mm,
                                f"fre_rms {result.fre_rms:.3f} mm exceeds "
                                f"threshold {threshold_mm:.3f} mm")


# -- surface registration ----------------------------------------------------

def closest_points_on_mesh(points: np.ndarray, surface: SurfaceModel):
    """Closest point on the mesh for each query point (exact branch and bound).

    Every triangle lies inside the sphere about its centroid c_t of radius
    r_t, so no point of it is closer to p than |p - c_t| - r_t. The exact
    distance to the triangle with the nearest centroid bounds the answer
    from above; only triangles whose lower bound does not exceed it (plus a
    rounding slack) reach the Voronoi-region kernel. The result equals a
    scan of every triangle bit for bit, ties going to the lowest triangle
    index. Queries run in chunks of CLOSEST_POINT_CHUNK, so at most that
    many x T pairs are live: queries that keep every triangle (the centre
    of a sphere) peak below an all-pairs scan of 256 queries.

    Returns (closest (N, 3), distance (N,), triangle index (N,), weights
    (N, 2)): each closest point is a + v ab + w ac on its triangle, bit for
    bit, with (v, w) its row of weights. Raises BadInput for non-finite
    query points. The tree over the centroids is built once per surface
    (SurfaceModel._query_index).
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if not all_finite(pts):
        raise BadInput("query points must be finite")
    a, ab, ac, _ = surface._facets
    centroids, radii, tree, r_max, extent = surface._query_index
    out_pts = np.empty_like(pts)
    out_dist = np.empty(len(pts))
    out_tri = np.empty(len(pts), dtype=np.int64)
    out_vw = np.empty((len(pts), 2))
    chunk = CLOSEST_POINT_CHUNK
    for start in range(0, len(pts), chunk):
        p = pts[start:start + chunk]
        _, nearest = tree.query(p)
        upper = np.sqrt(_closest_point_triangles(p, a[nearest], ab[nearest],
                                                 ac[nearest])[1])
        # slack far above the rounding of the bounds, far below any real gap
        upper += _PRUNE_SLACK * (upper + np.linalg.norm(p, axis=1) + extent)
        balls = tree.query_ball_point(p, upper + r_max, return_sorted=True)
        counts = np.fromiter(map(len, balls), dtype=np.int64, count=len(p))
        q = np.repeat(np.arange(len(p)), counts)
        t = np.fromiter(itertools.chain.from_iterable(balls), dtype=np.int64,
                        count=counts.sum())
        keep = np.linalg.norm(p[q] - centroids[t], axis=1) - radii[t] <= upper[q]
        q, t = q[keep], t[keep]
        cp, d2, v, w = _closest_point_triangles(p[q], a[t], ab[t], ac[t])
        # per query, the smallest d2 and among equals the lowest index (rows
        # are sorted by query, then triangle, and lexsort is stable)
        order = np.lexsort((d2, q))
        best = order[np.searchsorted(q[order], np.arange(len(p)))]
        out_pts[start:start + chunk] = cp[best]
        out_dist[start:start + chunk] = np.sqrt(d2[best])
        out_tri[start:start + chunk] = t[best]
        out_vw[start:start + chunk, 0] = v[best]
        out_vw[start:start + chunk, 1] = w[best]
    return out_pts, out_dist, out_tri, out_vw


def _closest_point_triangles(p: np.ndarray, a: np.ndarray, ab: np.ndarray,
                             ac: np.ndarray):
    """Closest point on triangle (a, a+ab, a+ac) to p, row by row: all
    arguments (K, 3). Returns (closest (K, 3), squared distance (K,), v (K,),
    w (K,)), the closest point being a + v ab + w ac.

    Vectorized Voronoi-region case analysis; masks are applied in reverse of
    the sequential precedence so vertex regions win over edges over interior
    (ties on region boundaries produce identical points either way)."""
    ap = p - a
    d1 = np.einsum("kj,kj->k", ab, ap)
    d2 = np.einsum("kj,kj->k", ac, ap)
    bp = ap - ab
    d3 = np.einsum("kj,kj->k", ab, bp)
    d4 = np.einsum("kj,kj->k", ac, bp)
    cp_ = ap - ac
    d5 = np.einsum("kj,kj->k", ab, cp_)
    d6 = np.einsum("kj,kj->k", ac, cp_)

    va = d3 * d6 - d5 * d4
    vb = d5 * d2 - d1 * d6
    vc = d1 * d4 - d3 * d2

    with np.errstate(divide="ignore", invalid="ignore"):
        v_edge_ab = np.clip(np.where(d1 != d3, d1 / (d1 - d3), 0.0), 0.0, 1.0)
        w_edge_ac = np.clip(np.where(d2 != d6, d2 / (d2 - d6), 0.0), 0.0, 1.0)
        bc_denom = (d4 - d3) + (d5 - d6)
        w_edge_bc = np.clip(np.where(bc_denom != 0.0, (d4 - d3) / bc_denom, 0.0),
                            0.0, 1.0)
        denom = va + vb + vc
        v_in = np.where(denom != 0.0, vb / denom, 0.0)
        w_in = np.where(denom != 0.0, vc / denom, 0.0)

    # default: interior
    v_res = v_in
    w_res = w_in
    # edge BC: b + w*(c - b)  ->  (v, w) = (1 - w, w)
    mask = (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0)
    v_res = np.where(mask, 1.0 - w_edge_bc, v_res)
    w_res = np.where(mask, w_edge_bc, w_res)
    # edge AC
    mask = (vb <= 0) & (d2 >= 0) & (d6 <= 0)
    v_res = np.where(mask, 0.0, v_res)
    w_res = np.where(mask, w_edge_ac, w_res)
    # edge AB
    mask = (vc <= 0) & (d1 >= 0) & (d3 <= 0)
    v_res = np.where(mask, v_edge_ab, v_res)
    w_res = np.where(mask, 0.0, w_res)
    # vertices override edges
    mask = (d6 >= 0) & (d5 <= d6)  # vertex C
    v_res = np.where(mask, 0.0, v_res)
    w_res = np.where(mask, 1.0, w_res)
    mask = (d3 >= 0) & (d4 <= d3)  # vertex B
    v_res = np.where(mask, 1.0, v_res)
    w_res = np.where(mask, 0.0, w_res)
    mask = (d1 <= 0) & (d2 <= 0)  # vertex A
    v_res = np.where(mask, 0.0, v_res)
    w_res = np.where(mask, 0.0, w_res)

    closest = a + v_res[:, None] * ab + w_res[:, None] * ac
    return closest, np.sum((closest - p) ** 2, axis=1), v_res, w_res


def _smooth_normals_at(surface: SurfaceModel, tri_idx: np.ndarray,
                       weights: np.ndarray) -> np.ndarray:
    """Vertex normals interpolated at closest points with the weights (v, w)
    closest_points_on_mesh returns: (1 - v - w) n0 + v n1 + w n2, normalised."""
    n0, n1, n2 = surface._vertex_normals[surface.triangles[tri_idx]].transpose(1, 0, 2)
    v, w = weights[:, :1], weights[:, 1:]
    n = (1.0 - v - w) * n0 + v * n1 + w * n2
    return n / np.linalg.norm(n, axis=1, keepdims=True)


def _point_to_plane_step(moved: np.ndarray, closest: np.ndarray, normals: np.ndarray):
    """One Gauss-Newton point-to-plane step (Chen & Medioni 1992; Low 2004)
    at the current correspondences, and the singular values of its matrix.

    Rows [n | r x n] linearize (moved - closest) . n in a translation and a
    rotation about the closest points' centroid, r being those points centred
    and scaled to unit RMS radius. Smooth normals n let a flat pose direction
    of the shape (rotations of a sphere) show despite mesh faceting. The
    rotation is applied exactly. Raises DegenerateGeometry when all closest
    points coincide.
    """
    centroid = closest.mean(axis=0)
    r = closest - centroid
    scale = np.sqrt(np.mean(np.sum(r * r, axis=1)))
    if scale <= 0.0:
        raise DegenerateGeometry("surface sampling leaves the pose ambiguous")
    j = np.hstack([normals, np.cross(r / scale, normals)])  # (N, 6)
    e = np.sum((moved - closest) * normals, axis=1)
    x, _, _, sv = np.linalg.lstsq(j, -e, rcond=None)
    omega = x[3:] / scale
    angle = float(np.linalg.norm(omega))
    rot = (RigidTransform.from_axis_angle(omega, angle).rotation if angle > 0.0
           else np.eye(3))
    return RigidTransform(rot, centroid + x[:3] - rot @ centroid), sv


def icp_register(probed, surface: SurfaceModel,
                 init: RigidTransform | None = None,
                 residual_history: list | None = None) -> RegistrationResult:
    """Point-to-plane iterative closest point: alternate point-to-triangle
    correspondence with one Gauss-Newton step towards the tangent planes at
    the closest points until the RMS residual falls by less than ICP_TOL_MM,
    in at most ICP_MAX_ITER steps (else the last transform is returned
    flagged converged=False). Both limits are module constants, read at
    each call.

    Residual contract: on noise-free data the RMS residual never increases.
    A rise (probe noise, near the optimum) stops the solve as converged at
    the lowest-residual iterate. residual_history, if given, receives one
    entry per closest-point query. Raises BadInput for a non-finite probed
    point, and DegenerateGeometry when the pose is unobservable (rotationally
    symmetric surface sampling): the step matrix at the returned
    correspondences has a singular value ratio below 2e-2.
    """
    probed = np.asarray(probed, dtype=float).reshape(-1, 3)
    if not all_finite(probed):
        raise BadInput("probed points must be finite")
    if len(probed) < 10:
        raise TooFewPoints("surface registration needs at least 10 probed points")
    t = init if init is not None else RigidTransform.identity()

    prev_rms, prev = np.inf, None
    converged = False
    for k in range(ICP_MAX_ITER + 1):
        moved = t.apply(probed)
        closest, dist, tri_idx, weights = closest_points_on_mesh(moved, surface)
        rms = float(np.sqrt(np.mean(dist ** 2)))
        if residual_history is not None:
            residual_history.append(rms)
        step, sv = _point_to_plane_step(moved, closest,
                                        _smooth_normals_at(surface, tri_idx, weights))
        if prev_rms - rms < ICP_TOL_MM:
            converged = True
            if rms > prev_rms:
                rms, (t, dist, sv) = prev_rms, prev
            break
        if k == ICP_MAX_ITER:
            break
        prev_rms, prev = rms, (t, dist, sv)
        t = compose(step, t)

    if sv[-1] / sv[0] < 2e-2:
        raise DegenerateGeometry("surface sampling leaves the pose ambiguous")
    return RegistrationResult(t, rms, tuple(dist), len(probed), converged=converged)
