"""Instrument and imaging-chain calibration.

Covers pivot calibration of tracked tools, ideal-pinhole C-arm calibration by
direct linear transform, fiducial blob detection in synthetic projection
rasters, two-view midpoint triangulation, and the automatic fiducial-based 2D
patient registration chain that ties them together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadInput,
    CoplanarPoints,
    DegenerateGeometry,
    InsufficientRotation,
    LabelMismatch,
    ParallelRays,
    PatternAmbiguous,
    PointAtInfinity,
    TooFewBlobs,
    TooFewCommonLabels,
    TooFewPoints,
    TooFewPoses,
    raised_where,
)
from .geom import (ArrayValue, RigidTransform, all_finite, cross3, finite_scalars,
                   frozen_array, rigid_apply, row_dot)
from .registration import FiducialSet, RegistrationResult, register_points

VIEW_LABELS = ("AP", "LP")


@dataclass(frozen=True, eq=False)
class PivotResult(ArrayValue):
    """Output of a pivot calibration."""

    tip_offset: np.ndarray
    pivot_point: np.ndarray
    residual_rms: float

    def __post_init__(self):
        for name in ("tip_offset", "pivot_point"):
            frozen_array(self, name, getattr(self, name), 3)
        finite_scalars(self, "residual_rms")


def pivot_calibrate(poses) -> PivotResult:
    """Recover a tool tip offset by pivoting about a fixed point.

    Solves the stacked linear system [R_i | -I] [tip; pivot] = -t_i in the
    least-squares sense. Raises TooFewPoses below 10 poses, or
    InsufficientRotation when the poses share a rotation axis and the system
    goes rank deficient.
    """
    poses = list(poses)
    if len(poses) < 10:
        raise TooFewPoses("pivot calibration needs >= 10 poses")
    n = len(poses)
    a = np.zeros((3 * n, 6))
    b = np.zeros(3 * n)
    for i, p in enumerate(poses):
        a[3 * i:3 * i + 3, :3] = p.rotation
        a[3 * i:3 * i + 3, 3:] = -np.eye(3)
        b[3 * i:3 * i + 3] = -p.translation
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[-1] <= 1e-6:
        raise InsufficientRotation("poses lack rotational diversity")
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    tip, pivot = x[:3], x[3:]
    res = (a @ x - b).reshape(n, 3)
    residual_rms = float(np.sqrt(np.mean(np.sum(res ** 2, axis=1))))
    return PivotResult(tip, pivot, residual_rms)


# -- projective model ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ProjectionModel(ArrayValue):
    """3x4 projective map from CArm-frame mm to detector mm.

    Normalized so the third row's rotational part has unit norm; rank 3.
    """

    matrix: np.ndarray
    view_label: str

    def __post_init__(self):
        m = frozen_array(self, "matrix", self.matrix, (3, 4), check=False)
        if self.view_label not in VIEW_LABELS:
            raise BadInput(f"view_label must be one of {VIEW_LABELS}")
        check_projections(m)

    @staticmethod
    def from_matrix(matrix, view_label: str) -> "ProjectionModel":
        """Normalize an arbitrary-scale 3x4 matrix (sign: positive depths
        are the caller's responsibility; see dlt_calibrate)."""
        m = np.array(matrix, dtype=float).reshape(3, 4)
        return ProjectionModel(scale_normalized(m), view_label)

    def to_dict(self) -> dict:
        return {"view": self.view_label, "P": self.matrix.ravel().tolist()}

    @staticmethod
    def from_dict(d: dict) -> "ProjectionModel":
        return ProjectionModel.from_matrix(d["P"], d["view"])


def scale_normalized(m: np.ndarray) -> np.ndarray:
    """A 3x4 matrix (3, 4), or each of a stack (T, 3, 4), divided by the norm
    of its third row's rotational part."""
    return m / np.sqrt(row_dot(m[..., 2, :3], m[..., 2, :3]))[..., None, None]


def check_projections(m: np.ndarray) -> None:
    """ProjectionModel's matrix guard on one matrix (3, 4), or once on a
    stack (T, 3, 4). Raises BadInput unless every matrix is finite, of
    rank 3, with a non-singular left 3x3 block and a unit-norm third
    rotational row."""
    if not all_finite(m):
        raise BadInput("projection matrix must be finite")
    sv = np.linalg.svd(m, compute_uv=False)
    if np.any(sv[..., 2] / sv[..., 0] < 1e-12):
        raise BadInput("projection matrix must have rank 3")
    # Hadamard: |det| of the left 3x3 block is at most the product of its
    # row norms; a vanishing ratio puts the camera centre at infinity. The
    # sums run left to right, as in a * (e i - f h) - b * (d i - f g) + ...
    block = m[..., :3]
    sq = block * block
    norms = sq[..., 0] + sq[..., 1] + sq[..., 2]
    rows = norms[..., 0] * norms[..., 1] * norms[..., 2]
    terms = block[..., 0, :] * cross3(block[..., 1, :].T, block[..., 2, :].T).T
    det = terms[..., 0] + terms[..., 1] + terms[..., 2]
    if not np.all(np.abs(det) > 1e-12 * np.sqrt(rows)):
        raise BadInput("projection matrix's left 3x3 block is singular: "
                       "its camera centre is at infinity")
    if np.any(np.abs(np.sqrt(row_dot(m[..., 2, :3], m[..., 2, :3])) - 1.0) > 1e-9):
        raise BadInput("projection matrix must be scale-normalized")


def check_detections(uv: np.ndarray) -> None:
    """Detection2D's value guard on one view's detections (N, 2), or once on
    a stack (T, N, 2)."""
    if not all_finite(uv):
        raise BadInput("detections must be finite")


@dataclass(frozen=True, eq=False)
class Detection2D(ArrayValue):
    """Labeled 2D fiducial detections (detector mm) for one view. Every
    detection carries the same weight: the DLT and the triangulation use
    positions only."""

    view_label: str
    labels: tuple
    uv: np.ndarray          # (N, 2)

    def __post_init__(self):
        labels = tuple(str(x) for x in self.labels)
        uv = frozen_array(self, "uv", self.uv, (len(labels), 2), check=False)
        if len(set(labels)) != len(labels):
            raise BadInput("detection labels must be unique per view")
        check_detections(uv)
        object.__setattr__(self, "labels", labels)

    @staticmethod
    def from_pairs(view_label, pairs) -> "Detection2D":
        labels = tuple(p[0] for p in pairs)
        uv = np.asarray([p[1] for p in pairs], dtype=float).reshape(len(labels), 2)
        return Detection2D(view_label, labels, uv)

    def position(self, label: str) -> np.ndarray:
        return self.uv[self.labels.index(label)]


def project_batch(matrices: np.ndarray, points: np.ndarray):
    """Perspective projection of point stacks through projection matrices,
    stack by stack: matrices (T, 3, 4), points (T, N, 3) -> detector mm
    (T, N, 2), plus {stack row: PointAtInfinity} for each stack with a
    point on its camera plane (that stack's uv is not meaningful)."""
    h = rigid_apply(matrices[:, :, :3], matrices[:, :, 3], points)
    w = h[..., 2]
    failed = raised_where(np.any(np.abs(w) <= 1e-9, axis=1), PointAtInfinity,
                          "point lies on the camera plane")
    with np.errstate(divide="ignore", invalid="ignore"):  # only failed rows divide by 0
        return h[..., :2] / w[..., None], failed


def project(model: ProjectionModel, p):
    """Perspective projection of one point (3,) or a stack (N, 3) to detector
    mm: the one-stack case of project_batch."""
    pts = np.asarray(p, dtype=float)
    single = pts.ndim == 1
    uv, failed = project_batch(model.matrix[None], np.atleast_2d(pts)[None])
    if failed:
        raise failed[0]
    return uv[0, 0] if single else uv[0]


def _hartley_normalization(pts: np.ndarray) -> np.ndarray:
    """Homogeneous similarity (k+1, k+1) moving points (N, k) to centroid 0
    and mean distance sqrt(k) from it (Hartley 1997); (T, k+1, k+1) for a
    stack of point sets (T, N, k)."""
    k = pts.shape[-1]
    c = pts.mean(axis=-2)
    s = np.sqrt(k) / np.mean(np.linalg.norm(pts - c[..., None, :], axis=-1), axis=-1)
    t = np.zeros(pts.shape[:-2] + (k + 1, k + 1))
    diag = np.arange(k)
    t[..., diag, diag] = s[..., None]
    t[..., k, k] = 1.0
    t[..., :k, k] = -s[..., None] * c
    return t


def dlt_calibrate_batch(world: np.ndarray, image: np.ndarray):
    """Direct linear transform, stack by stack: 3D points world (T, N, 3)
    and their detections image (T, N, 2) -> projection matrices (T, 3, 4),
    oriented for positive depths but not scale-normalized, plus
    {stack row: CoplanarPoints} for each stack whose points do not span a
    volume and {stack row: DegenerateGeometry} for each other stack whose
    detections all coincide (a failed stack's matrix is left NaN)."""
    sv = np.linalg.svd(world - world.mean(axis=1)[:, None, :], compute_uv=False)
    coplanar = sv[:, 2] / sv[:, 0] < 1e-6
    coincident = np.all(image == image[:, :1], axis=(1, 2))
    ok = ~(coplanar | coincident)
    x, uv = world[ok], image[ok]
    n = x.shape[1]
    t3 = _hartley_normalization(x)
    t2 = _hartley_normalization(uv)
    x1 = np.concatenate([x, np.ones(x.shape[:2] + (1,))], axis=2)
    xh = x1 @ t3.transpose(0, 2, 1)
    uvh = np.concatenate([uv, np.ones(uv.shape[:2] + (1,))], axis=2) @ t2.transpose(0, 2, 1)

    a = np.zeros((len(x), 2 * n, 12))
    a[:, 0::2, 0:4] = xh
    a[:, 0::2, 8:12] = -uvh[..., :1] * xh
    a[:, 1::2, 4:8] = xh
    a[:, 1::2, 8:12] = -uvh[..., 1:2] * xh
    # the reduced SVD's V^T equals the full one's bit for bit (tested against
    # the full-SVD reference) without building a 2N x 2N U per stack
    _, _, vt = np.linalg.svd(a, full_matrices=False)
    p_norm = vt[:, -1].reshape(len(x), 3, 4)
    p = np.linalg.inv(t2) @ p_norm @ t3

    # orient so the calibration points have positive projective depth
    depths = (x1 @ p[:, 2, :, None])[..., 0]
    flip = np.sum(depths > 0, axis=1) < n / 2
    out = np.full((len(world), 3, 4), np.nan)
    out[ok] = np.where(flip[:, None, None], -p, p)
    return out, {**raised_where(coincident, DegenerateGeometry, "calibration detections coincide"),
                 **raised_where(coplanar, CoplanarPoints, "calibration points are coplanar")}


def dlt_calibrate(world, image: Detection2D) -> ProjectionModel:
    """Estimate a 3x4 projection from labeled 3D-2D correspondences: the
    one-stack case of dlt_calibrate_batch.

    11-parameter direct linear transform with Hartley normalization on both
    sides, minimizing algebraic error. Raises BadInput for a non-finite 3D
    point, TooFewPoints (< 6), CoplanarPoints when the 3D points do not span
    a volume, or DegenerateGeometry when the detections all coincide.
    """
    world = list(world)
    labels = [w[0] for w in world]
    if set(labels) & set(image.labels) != set(labels) or set(labels) != set(image.labels):
        raise LabelMismatch("world and image correspondences carry different labels")
    if len(world) < 6:
        raise TooFewPoints("DLT needs at least 6 correspondences")
    x = np.asarray([w[1] for w in world], dtype=float)
    if not all_finite(x):
        raise BadInput("calibration points must be finite")
    uv = np.asarray([image.position(l) for l in labels], dtype=float)
    p, failed = dlt_calibrate_batch(x[None], uv[None])
    if failed:
        raise failed[0]
    return ProjectionModel.from_matrix(p[0], image.view_label)


def reprojection_rms(model: ProjectionModel, world, image: Detection2D) -> float:
    """RMS detector-plane distance between projections and detections."""
    labels = [w[0] for w in world]
    pts = np.asarray([w[1] for w in world], dtype=float)
    uv = np.asarray([image.position(l) for l in labels], dtype=float)
    d = project(model, pts) - uv
    return float(np.sqrt(np.mean(np.sum(d * d, axis=1))))


def triangulate_batch(view_a, view_b):
    """Midpoint triangulation, stack by stack: view_a / view_b are
    (matrices (T, 3, 4), uv (T, N, 2)) pairs with matching rows in both
    views. Returns (points (T, N, 3) mm, ray gaps (T, N) mm, {stack row:
    ParallelRays} for each stack with a point whose rays are within 5
    degrees of parallel; that stack's points are not meaningful). Raises
    BadInput for non-finite uv or unequal point counts."""
    centers, rays = [], []
    for m, uv in (view_a, view_b):
        if not np.all(np.isfinite(uv)):
            raise BadInput("detector coordinates must be finite")
        m3 = m[:, :, :3]
        uvh = np.concatenate([uv, np.ones(uv.shape[:2] + (1,))], axis=2)
        d = np.linalg.solve(np.broadcast_to(m3[:, None], uv.shape[:2] + (3, 3)),
                            uvh[..., None])[..., 0]
        centers.append(-np.linalg.solve(m3, m[:, :, 3:])[:, None, :, 0])
        rays.append(d / np.sqrt(row_dot(d, d))[..., None])
    (c1, c2), (d1, d2) = centers, rays
    if d1.shape != d2.shape:
        raise BadInput("both views must carry the same number of points")
    cos12 = row_dot(d1, d2)
    failed = raised_where(np.any(np.abs(cos12) >= np.cos(np.deg2rad(5.0)), axis=1),
                          ParallelRays, "view rays are within 5 degrees of parallel")
    r = c2 - c1
    a12 = -cos12
    b1 = row_dot(r, d1)
    b2 = -row_dot(r, d2)
    det = 1.0 - a12 * a12
    l1 = (b1 - a12 * b2) / det
    l2 = (b2 - a12 * b1) / det
    p1 = c1 + l1[..., None] * d1
    p2 = c2 + l2[..., None] * d2
    diff = p1 - p2
    return (p1 + p2) / 2.0, np.sqrt(row_dot(diff, diff)), failed


def triangulate(view_a, view_b):
    """Midpoint triangulation of labeled points seen in two views: the
    one-stack case of triangulate_batch.

    view_a / view_b are (ProjectionModel, uv) pairs, uv one detector point
    (2,) or a stack (N, 2) with matching rows in both views. Each view's
    camera centre is computed once and its rays in one stacked solve.
    Returns (point mm, ray_gap mm) for one point and (points (N, 3) mm,
    ray gaps (N,) mm) for a stack, the gap being the length of the common
    perpendicular. Raises BadInput for non-finite uv, and ParallelRays
    when any point's rays are within 5 degrees of parallel.
    """
    (model_a, uv_a), (model_b, uv_b) = view_a, view_b
    single = np.ndim(uv_a) == 1 and np.ndim(uv_b) == 1
    points, gaps, failed = triangulate_batch(
        *((model.matrix[None], np.asarray(uv, dtype=float).reshape(1, -1, 2))
          for model, uv in ((model_a, uv_a), (model_b, uv_b))))
    if failed:
        raise failed[0]
    return (points[0, 0], float(gaps[0, 0])) if single else (points[0], gaps[0])


def common_label_failures(common: int, rows: int) -> dict:
    """register_patient_2d's label check for a stack of rows whose views
    share `common` jig labels: every row fails below 4."""
    return raised_where(np.full(rows, common < 4), TooFewCommonLabels,
                        f"need >= 4 fiducials in both views, got {common}")


def register_patient_2d(jig: FiducialSet, views) -> RegistrationResult:
    """Automatic 2D patient registration from two calibrated views.

    Triangulates every jig fiducial labeled in both views into the CArm
    frame in one stacked call, then rigidly registers the jig's known
    patient-frame coordinates to the triangulated points (result maps
    patient -> CArm). Raises TooFewCommonLabels below 4 shared fiducials.
    """
    (model_a, det_a), (model_b, det_b) = views
    common = [l for l in jig.labels if l in det_a.labels and l in det_b.labels]
    failed = common_label_failures(len(common), 1)
    if failed:
        raise failed[0]
    tri_pts, _ = triangulate(
        (model_a, [det_a.position(l) for l in common]),
        (model_b, [det_b.position(l) for l in common]))
    fixed = FiducialSet("CArm", tuple(common), tri_pts)
    return register_points(fixed, jig.subset(common))


def pinhole_projection(camera_pose: RigidTransform, focal_mm: float,
                       view_label: str) -> ProjectionModel:
    """Ideal pinhole with principal point (0, 0): P = diag(f, f, 1) [R | t].

    camera_pose maps CArm coordinates into camera coordinates (x right,
    y down on the detector, z along the beam toward the detector).
    """
    m = pinhole_matrices(camera_pose.rotation[None], camera_pose.translation[None], focal_mm)
    return ProjectionModel(m[0], view_label)


def pinhole_matrices(rotations: np.ndarray, translations: np.ndarray,
                     focal_mm: float) -> np.ndarray:
    """pinhole_projection's scale-normalized matrices (T, 3, 4) for camera
    poses given as rotations (T, 3, 3) and translations (T, 3); callers run
    the ProjectionModel guard (check_projections) on them."""
    k = np.diag([focal_mm, focal_mm, 1.0])
    return scale_normalized(k @ np.concatenate([rotations, translations[:, :, None]], axis=2))


# -- synthetic projection rasters ------------------------------------------------


# the rasters' detector geometry: 0.5 mm pixels, pixel (0, 0) at (-128, -128) mm
RASTER_MM_PER_PIXEL = 0.5
RASTER_ORIGIN_MM = (-128.0, -128.0)


@dataclass(frozen=True, eq=False)
class SyntheticProjectionImage(ArrayValue):
    """16-bit raster of fiducial blobs. Pixel (row, col) maps to detector mm
    RASTER_ORIGIN_MM + RASTER_MM_PER_PIXEL * (col, row)."""

    view_label: str
    pixels: np.ndarray      # (H, W) uint16

    def __post_init__(self):
        frozen_array(self, "pixels", self.pixels, np.shape(self.pixels), np.uint16)

    def pixel_to_mm(self, rows, cols):
        return np.stack([RASTER_ORIGIN_MM[0] + np.asarray(cols) * RASTER_MM_PER_PIXEL,
                         RASTER_ORIGIN_MM[1] + np.asarray(rows) * RASTER_MM_PER_PIXEL],
                        axis=-1)


def render_fiducial_raster(uv_points, view_label: str) -> SyntheticProjectionImage:
    """Render Gaussian fiducial blobs (sigma 1.2 mm, peak 60000) at
    detector-mm positions into a 512 x 512 16-bit raster of
    RASTER_MM_PER_PIXEL pixels centred on the detector origin. Points outside
    the field of view are clipped away naturally."""
    # detector mm of each column and row
    grid = np.arange(512) * RASTER_MM_PER_PIXEL + RASTER_ORIGIN_MM[0]
    img = np.zeros((512, 512))
    for u, v in np.atleast_2d(np.asarray(uv_points, dtype=float)):
        img += 60000 * np.outer(np.exp(-(grid - v) ** 2 / (2 * 1.2 ** 2)),
                                np.exp(-(grid - u) ** 2 / (2 * 1.2 ** 2)))
    return SyntheticProjectionImage(view_label, np.clip(img, 0, 65535).astype(np.uint16))


def detect_fiducials(image: SyntheticProjectionImage, pattern) -> Detection2D:
    """Extract blob centroids from a synthetic raster and label them against
    an expected projected pattern by pairwise-distance signature.

    pattern maps label -> expected detector-mm position (the jig fiducials
    projected through the nominal view model). Unmatched blobs are dropped;
    fiducials outside the field of view are simply absent from the result.
    Raises TooFewBlobs (< 4 blobs) or PatternAmbiguous when more than one
    assignment's pairwise distances agree within 0.5 mm.
    """
    from scipy import ndimage  # imported here: no CLI command detects blobs

    labels = list(pattern.keys())
    expected = np.asarray([pattern[l] for l in labels], dtype=float)

    px = image.pixels.astype(float)
    background = np.median(px)
    peak = px.max()
    if peak <= background:
        raise TooFewBlobs("raster contains no blobs")
    mask = px > background + 0.05 * (peak - background)
    labeled, n_blobs = ndimage.label(mask)
    if n_blobs < 4:
        raise TooFewBlobs(f"found only {n_blobs} blobs")
    centroids_rc = ndimage.center_of_mass(px - background, labeled,
                                          index=range(1, n_blobs + 1))
    rows = np.array([c[0] for c in centroids_rc])
    cols = np.array([c[1] for c in centroids_rc])
    blobs = image.pixel_to_mm(rows, cols)

    assignments = _match_signatures(blobs, expected)
    if not assignments:
        raise PatternAmbiguous("no label assignment fits the detected blobs")
    if len(assignments) > 1:
        raise PatternAmbiguous(
            f"{len(assignments)} label assignments fit within tolerance")
    assign = assignments[0]
    pairs = [(labels[j], blobs[i]) for i, j in sorted(assign.items(), key=lambda kv: kv[1])]
    return Detection2D.from_pairs(image.view_label, pairs)


_MAX_SOLUTIONS = 2  # one assignment is a detection, a second an ambiguity


def _match_signatures(blobs: np.ndarray, expected: np.ndarray) -> list:
    """Up to _MAX_SOLUTIONS maximum-cardinality injective blob->pattern
    assignments whose pairwise distances agree within 0.5 mm. Branch and bound
    over blobs; a blob may also be skipped (dropped as spurious/unmatchable)."""
    nb, ne = len(blobs), len(expected)
    d_blob = np.linalg.norm(blobs[:, None, :] - blobs[None, :, :], axis=2)
    d_exp = np.linalg.norm(expected[:, None, :] - expected[None, :, :], axis=2)
    best: dict = {"size": 0, "solutions": []}

    def recurse(i: int, assign: dict):
        if len(assign) + (nb - i) < best["size"]:
            return  # cannot even tie the current best
        if i == nb:
            if len(assign) > best["size"]:
                best["size"] = len(assign)
                best["solutions"] = [dict(assign)]
            elif (len(assign) == best["size"] and len(assign) > 0
                  and len(best["solutions"]) < _MAX_SOLUTIONS
                  and dict(assign) not in best["solutions"]):
                best["solutions"].append(dict(assign))
            return
        used = set(assign.values())
        for j in range(ne):
            if j in used:
                continue
            ok = all(abs(d_blob[i, k] - d_exp[j, jj]) <= 0.5
                     for k, jj in assign.items())
            if ok:
                assign[i] = j
                recurse(i + 1, assign)
                del assign[i]
        recurse(i + 1, assign)  # drop blob i as spurious

    recurse(0, {})
    return best["solutions"]
