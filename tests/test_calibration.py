import numpy as np
import pytest

from spinenav.calibration import (
    Detection2D,
    ProjectionModel,
    detect_fiducials,
    dlt_calibrate,
    pinhole_projection,
    pivot_calibrate,
    project,
    register_patient_2d,
    render_fiducial_raster,
    reprojection_rms,
    triangulate,
)
from spinenav.calibration import _hartley_normalization
from spinenav.errors import (
    CoplanarPoints,
    InsufficientRotation,
    LabelMismatch,
    ParallelRays,
    PatternAmbiguous,
    PointAtInfinity,
    TooFewBlobs,
    TooFewCommonLabels,
    TooFewPoints,
    TooFewPoses,
)
from spinenav.geom import RigidTransform, compose
from spinenav.registration import FiducialSet, register_points

from _helpers import look_at, random_rigid, random_rotation

# -- pivot calibration ---------------------------------------------------------


def _pivot_poses(rng, n, tip, pivot, trans_noise=0.0):
    """Tracker->body poses of a tool whose tip stays at a fixed pivot."""
    poses = []
    for _ in range(n):
        r = random_rotation(rng)
        t = np.asarray(pivot, float) - r @ np.asarray(tip, float)
        if trans_noise > 0.0:
            t = t + rng.normal(scale=trans_noise, size=3)
        poses.append(RigidTransform(r, t))
    return poses


def test_pivot_exact_recovery():
    rng = np.random.default_rng(10)
    res = pivot_calibrate(_pivot_poses(rng, 20, (0, 0, 100.0), (0, 0, 0)))
    assert np.allclose(res.tip_offset, [0, 0, 100.0], atol=1e-9)
    assert np.allclose(res.pivot_point, [0, 0, 0], atol=1e-9)
    assert res.residual_rms < 1e-9


def test_pivot_identical_rotations_rejected():
    r = random_rotation(np.random.default_rng(11))
    poses = [RigidTransform(r, [float(i), 0, 0]) for i in range(20)]
    with pytest.raises(InsufficientRotation):
        pivot_calibrate(poses)


def test_pivot_too_few_poses():
    rng = np.random.default_rng(12)
    with pytest.raises(TooFewPoses):
        pivot_calibrate(_pivot_poses(rng, 5, (0, 0, 100.0), (0, 0, 0)))


def test_pivot_noise_monte_carlo():
    # 0.1 mm translation noise: residual tracks the noise scale and the tip
    # lands within 0.2 mm of truth (bound verified over 1000 seeds)
    tip = np.array([5.0, -3.0, 120.0])
    pivot = np.array([10.0, 20.0, -5.0])
    worst = 0.0
    residuals = []
    for seed in range(1000):
        rng = np.random.default_rng(20_000 + seed)
        res = pivot_calibrate(_pivot_poses(rng, 20, tip, pivot, trans_noise=0.1))
        worst = max(worst, float(np.linalg.norm(res.tip_offset - tip)))
        residuals.append(res.residual_rms)
    assert worst < 0.2
    assert 0.05 < np.mean(residuals) < 0.3


def test_pivot_residual_invariant_under_world_change():
    rng = np.random.default_rng(13)
    poses = _pivot_poses(rng, 25, (0, 0, 80.0), (4.0, 5.0, 6.0), trans_noise=0.2)
    world = random_rigid(rng)
    moved = [compose(world, p) for p in poses]
    a = pivot_calibrate(poses)
    b = pivot_calibrate(moved)
    assert abs(a.residual_rms - b.residual_rms) < 1e-10
    assert np.allclose(a.tip_offset, b.tip_offset, atol=1e-9)


# -- projection / DLT ------------------------------------------------------------


def _camera(source=(0, -700, 0), target=(0, 0, 0), focal=1000.0, view="AP"):
    return pinhole_projection(look_at(source, target), focal, view)


def _world_image_pairs(model, pts, noise=0.0, rng=None):
    labels = [f"C{i}" for i in range(len(pts))]
    uv = project(model, pts)
    if noise > 0.0:
        uv = uv + rng.normal(scale=noise, size=uv.shape)
    det = Detection2D(model.view_label, tuple(labels), uv)
    return [(l, p) for l, p in zip(labels, pts)], det


def test_dlt_exact_on_noise_free_points():
    rng = np.random.default_rng(30)
    pts = rng.uniform(-60, 60, size=(8, 3))
    model = _camera()
    world, det = _world_image_pairs(model, pts)
    est = dlt_calibrate(world, det)
    assert reprojection_rms(est, world, det) < 1e-8
    # estimated matrix matches the true one up to sign after normalization
    assert (np.allclose(est.matrix, model.matrix, atol=1e-8)
            or np.allclose(est.matrix, -model.matrix, atol=1e-8))


def test_dlt_coplanar_rejected():
    pts = np.zeros((8, 3))
    pts[:, 0] = np.arange(8.0) * 10
    pts[:, 1] = (np.arange(8.0) % 3) * 15
    model = _camera()
    world, det = _world_image_pairs(model, pts)
    with pytest.raises(CoplanarPoints):
        dlt_calibrate(world, det)


def test_dlt_too_few_points():
    rng = np.random.default_rng(31)
    pts = rng.uniform(-50, 50, size=(5, 3))
    model = _camera()
    world, det = _world_image_pairs(model, pts)
    with pytest.raises(TooFewPoints):
        dlt_calibrate(world, det)


@pytest.mark.parametrize("extra", ["world", "image"])
def test_dlt_label_mismatch(extra):
    # one label only one side carries, on either side, is refused
    rng = np.random.default_rng(32)
    pts = rng.uniform(-60, 60, size=(8, 3))
    world, det = _world_image_pairs(_camera(), pts)
    if extra == "world":
        world = world + [("X", np.zeros(3))]
    else:
        world = world[:-1]
    with pytest.raises(LabelMismatch, match="different labels"):
        dlt_calibrate(world, det)


def test_dlt_noise_band_1000_seeds():
    # band [0.1, 0.4] mm established by a Monte Carlo oracle run up front
    rng_pts = np.random.default_rng(0)
    pts = rng_pts.uniform(-60, 60, size=(12, 3))
    model = _camera()
    vals = []
    for seed in range(1000):
        rng = np.random.default_rng(1000 + seed)
        world, det = _world_image_pairs(model, pts, noise=0.2, rng=rng)
        est = dlt_calibrate(world, det)
        vals.append(reprojection_rms(est, world, det))
    vals = np.asarray(vals)
    assert vals.min() >= 0.1 and vals.max() <= 0.4


def _dlt_loop_reference(world, image):
    """dlt_calibrate with its design matrix built row pair by row pair, the
    form the stacked assignment replaced."""
    labels = [w[0] for w in world]
    x = np.asarray([w[1] for w in world], dtype=float)
    uv = np.asarray([image.position(l) for l in labels], dtype=float)
    t3 = _hartley_normalization(x)
    t2 = _hartley_normalization(uv)
    xh = np.hstack([x, np.ones((len(x), 1))]) @ t3.T
    uvh = np.hstack([uv, np.ones((len(uv), 1))]) @ t2.T
    a = np.zeros((2 * len(x), 12))
    for i, (xi, ui) in enumerate(zip(xh, uvh)):
        a[2 * i, 0:4] = xi
        a[2 * i, 8:12] = -ui[0] * xi
        a[2 * i + 1, 4:8] = xi
        a[2 * i + 1, 8:12] = -ui[1] * xi
    _, _, vt = np.linalg.svd(a)
    p = np.linalg.inv(t2) @ vt[-1].reshape(3, 4) @ t3
    depths = np.hstack([x, np.ones((len(x), 1))]) @ p[2]
    if np.sum(depths > 0) < len(x) / 2:
        p = -p
    return ProjectionModel.from_matrix(p, image.view_label)


def test_dlt_matches_loop_reference_bit_for_bit():
    rng = np.random.default_rng(32)
    for _ in range(300):
        src = rng.uniform(-200, 200, size=3) + [0.0, -700.0, 0.0]
        model = pinhole_projection(look_at(src, rng.uniform(-20, 20, size=3)),
                                   1000.0, "AP")
        pts = rng.uniform(-70, 70, size=(int(rng.integers(6, 20)), 3))
        world, det = _world_image_pairs(model, pts, noise=1.75, rng=rng)
        assert np.array_equal(dlt_calibrate(world, det).matrix,
                              _dlt_loop_reference(world, det).matrix)


@pytest.mark.parametrize("uv", [
    [[0.0, float("nan")]],
    [[float("inf"), 0.0]],
], ids=["nan_uv", "inf_uv"])
def test_detection2d_rejects_non_finite(uv):
    with pytest.raises(ValueError, match="finite"):
        Detection2D("AP", ("J0",), uv)


# rank 3 and scale-normalised, but the left 3x3 block has two equal rows
SINGULAR_BLOCK = [[1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0]]


def test_projection_with_singular_left_block_rejected():
    assert np.linalg.matrix_rank(np.array(SINGULAR_BLOCK)) == 3
    with pytest.raises(ValueError, match="camera centre is at infinity"):
        ProjectionModel(SINGULAR_BLOCK, "AP")
    # a well-conditioned camera still passes, at any scale of its block
    for scale in (1e-6, 1.0, 1e6):
        m = AP.matrix.copy()
        m[:2] *= scale
        ProjectionModel(m, "AP")


@pytest.mark.parametrize("index, value", [((0, 0), np.nan), ((1, 3), np.inf)],
                         ids=["block-nan", "translation-inf"])
def test_projection_rejects_non_finite(index, value):
    m = AP.matrix.copy()
    m[index] = value
    with pytest.raises(ValueError, match="finite"):
        ProjectionModel(m, "AP")


def test_project_principal_axis():
    model = pinhole_projection(RigidTransform.identity(), 1000.0, "AP")
    assert np.allclose(project(model, [0.0, 0.0, 500.0]), [0.0, 0.0], atol=1e-12)


def test_project_similar_triangles():
    model = pinhole_projection(RigidTransform.identity(), 1000.0, "AP")
    uv = project(model, [10.0, 0.0, 500.0])
    assert uv[0] == pytest.approx(20.0, abs=1e-9)


def test_project_scale_invariance():
    model = _camera()
    scaled = ProjectionModel.from_matrix(5.0 * model.matrix, "AP")
    pts = np.random.default_rng(2).uniform(-50, 50, size=(10, 3))
    assert np.allclose(project(model, pts), project(scaled, pts), atol=1e-9)


def test_project_point_at_infinity():
    model = pinhole_projection(RigidTransform.identity(), 1000.0, "AP")
    with pytest.raises(PointAtInfinity):
        project(model, [10.0, 0.0, 0.0])


# -- triangulation ----------------------------------------------------------------


AP = _camera((0, -500, 0), view="AP")
LP = _camera((-500, 0, 0), view="LP")


def test_triangulate_exact():
    p = np.array([10.0, 20.0, 30.0])
    rec, gap = triangulate((AP, project(AP, p)), (LP, project(LP, p)))
    assert np.allclose(rec, p, atol=1e-9)
    assert gap < 1e-9


def test_triangulate_exact_1000_random():
    rng = np.random.default_rng(40)
    for _ in range(1000):
        p = rng.uniform(-80, 80, size=3)
        src_a = rng.uniform(-100, 100, size=3) + [0, -600, 0]
        src_b = rng.uniform(-100, 100, size=3) + [-600, 0, 0]
        ma = pinhole_projection(look_at(src_a, (0, 0, 0)), 1000.0, "AP")
        mb = pinhole_projection(look_at(src_b, (0, 0, 0)), 1000.0, "LP")
        rec, gap = triangulate((ma, project(ma, p)), (mb, project(mb, p)))
        assert np.linalg.norm(rec - p) < 1e-9


def test_triangulate_noise_error_rate():
    rng = np.random.default_rng(41)
    ok = 0
    for _ in range(1000):
        p = rng.uniform(-50, 50, size=3)
        ua = project(AP, p) + rng.normal(scale=0.2, size=2)
        ub = project(LP, p) + rng.normal(scale=0.2, size=2)
        rec, _ = triangulate((AP, ua), (LP, ub))
        ok += np.linalg.norm(rec - p) < 1.0
    assert ok >= 950


def _triangulate_scalar_reference(view_a, view_b):
    """One-point midpoint triangulation with per-point centres and rays, the
    form the stacked triangulate replaced."""
    (model_a, uv_a), (model_b, uv_b) = view_a, view_b

    def center_and_ray(model, uv):
        m = model.matrix
        d = np.linalg.solve(m[:, :3], np.array([uv[0], uv[1], 1.0]))
        return -np.linalg.solve(m[:, :3], m[:, 3]), d / np.linalg.norm(d)

    c1, d1 = center_and_ray(model_a, uv_a)
    c2, d2 = center_and_ray(model_b, uv_b)
    if abs(float(np.dot(d1, d2))) >= np.cos(np.deg2rad(5.0)):
        raise ParallelRays("view rays are within 5 degrees of parallel")
    r = c2 - c1
    a12 = -float(np.dot(d1, d2))
    b1 = float(np.dot(r, d1))
    b2 = -float(np.dot(r, d2))
    det = 1.0 * 1.0 - a12 * a12
    l1 = (b1 * 1.0 - a12 * b2) / det
    l2 = (1.0 * b2 - a12 * b1) / det
    p1 = c1 + l1 * d1
    p2 = c2 + l2 * d2
    return (p1 + p2) / 2.0, float(np.linalg.norm(p1 - p2))


def test_stacked_triangulate_matches_scalar_reference_bit_for_bit():
    # 1000 random view pairs, each with a stack of noisy detections: every
    # point and gap equals the one-point-at-a-time form exactly
    rng = np.random.default_rng(42)
    for _ in range(1000):
        ma = pinhole_projection(look_at(rng.uniform(-150, 150, size=3) + [0, -700, 0],
                                        rng.uniform(-20, 20, size=3)), 1000.0, "AP")
        mb = pinhole_projection(look_at(rng.uniform(-150, 150, size=3) + [-700, 0, 0],
                                        rng.uniform(-20, 20, size=3)), 1000.0, "LP")
        p = rng.uniform(-80, 80, size=(int(rng.integers(1, 10)), 3))
        ua = project(ma, p) + rng.normal(scale=1.75, size=(len(p), 2))
        ub = project(mb, p) + rng.normal(scale=1.75, size=(len(p), 2))
        points, gaps = triangulate((ma, ua), (mb, ub))
        for i in range(len(p)):
            ref_point, ref_gap = _triangulate_scalar_reference((ma, ua[i]), (mb, ub[i]))
            assert np.array_equal(points[i], ref_point) and gaps[i] == ref_gap
            point, gap = triangulate((ma, ua[i]), (mb, ub[i]))
            assert np.array_equal(point, ref_point) and gap == ref_gap


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_triangulate_rejects_non_finite_uv(bad):
    p = np.array([10.0, 20.0, 30.0])
    with pytest.raises(ValueError, match="finite"):
        triangulate((AP, [bad, 0.0]), (LP, project(LP, p)))
    ua = project(AP, np.array([p, p + 5.0]))
    ub = project(LP, np.array([p, p + 5.0]))
    ub[1, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        triangulate((AP, ua), (LP, ub))


def test_triangulate_identical_views_rejected():
    p = np.array([10.0, 20.0, 30.0])
    with pytest.raises(ParallelRays):
        triangulate((AP, project(AP, p)), (AP, project(AP, p) + 0.1))


# -- fiducial detection ------------------------------------------------------------


JIG = FiducialSet.from_pairs("Patient", [
    ("J0", (-40.0, -25.0, -10.0)),
    ("J1", (38.0, -30.0, 5.0)),
    ("J2", (-32.0, 28.0, 12.0)),
    ("J3", (25.0, 35.0, -18.0)),
    ("J4", (2.0, -8.0, 30.0)),
    ("J5", (12.0, 10.0, -32.0)),
])


def test_detect_fiducials_noise_free():
    uv_true = project(AP, JIG.points)
    image = render_fiducial_raster(uv_true, "AP")
    pattern = {l: uv for l, uv in zip(JIG.labels, uv_true)}
    det = detect_fiducials(image, pattern)
    assert set(det.labels) == set(JIG.labels)
    for l in JIG.labels:
        truth = pattern[l]
        assert np.linalg.norm(det.position(l) - truth) < 0.05


def test_detect_fiducials_one_outside_fov():
    uv_true = project(AP, JIG.points)
    shifted = uv_true.copy()
    shifted[2] = [500.0, 500.0]  # push J2 far outside the raster
    image = render_fiducial_raster(shifted, "AP")
    pattern = {l: uv for l, uv in zip(JIG.labels, uv_true)}
    det = detect_fiducials(image, pattern)
    assert len(det.labels) == 5
    missing = set(JIG.labels) - set(det.labels)
    assert missing == {"J2"}


def test_detect_fiducials_symmetric_square_ambiguous():
    square = np.array([[-20.0, -20.0], [20.0, -20.0], [20.0, 20.0], [-20.0, 20.0]])
    image = render_fiducial_raster(square, "AP")
    pattern = {f"S{i}": square[i] for i in range(4)}
    with pytest.raises(PatternAmbiguous):
        detect_fiducials(image, pattern)


def test_detect_fiducials_too_few_blobs():
    image = render_fiducial_raster(np.array([[0.0, 0.0], [10.0, 0.0]]), "AP")
    pattern = {f"S{i}": [float(i * 10), 0.0] for i in range(4)}
    with pytest.raises(TooFewBlobs):
        detect_fiducials(image, pattern)


# -- automatic 2D patient registration ------------------------------------------------


def _detections(model, fidset, noise=0.0, rng=None):
    uv = project(model, fidset.points)
    if noise > 0.0:
        uv = uv + rng.normal(scale=noise, size=uv.shape)
    return Detection2D(model.view_label, fidset.labels, uv)


def test_register_patient_2d_noise_free_exact():
    t_gt = random_rigid(np.random.default_rng(50), translation_scale=30.0)
    jig_world = JIG.transformed(t_gt, frame="CArm")
    det_a = _detections(AP, jig_world)
    det_b = _detections(LP, jig_world)
    res = register_patient_2d(JIG, [(AP, det_a), (LP, det_b)])
    assert res.fre_rms < 1e-6
    assert np.max(np.abs(res.transform.rotation - t_gt.rotation)) < 1e-6
    assert np.max(np.abs(res.transform.translation - t_gt.translation)) < 1e-6


def test_register_patient_2d_equals_chain_decomposition():
    rng = np.random.default_rng(51)
    t_gt = random_rigid(rng, translation_scale=30.0)
    jig_world = JIG.transformed(t_gt, frame="CArm")
    det_a = _detections(AP, jig_world, noise=0.2, rng=rng)
    det_b = _detections(LP, jig_world, noise=0.2, rng=rng)
    res = register_patient_2d(JIG, [(AP, det_a), (LP, det_b)])

    tri = np.array([triangulate((AP, det_a.position(l)), (LP, det_b.position(l)))[0]
                    for l in JIG.labels])
    manual = register_points(FiducialSet("CArm", JIG.labels, tri), JIG)
    assert res.fre_rms == pytest.approx(manual.fre_rms, abs=1e-12)
    assert np.array_equal(res.transform.rotation, manual.transform.rotation)


def test_register_patient_2d_too_few_common():
    t_gt = random_rigid(np.random.default_rng(52), translation_scale=30.0)
    jig_world = JIG.transformed(t_gt, frame="CArm")
    det_a = _detections(AP, jig_world)
    det_b = _detections(LP, jig_world)
    small = Detection2D("LP", det_b.labels[:3], det_b.uv[:3])
    with pytest.raises(TooFewCommonLabels):
        register_patient_2d(JIG, [(AP, det_a), (LP, small)])


def test_register_patient_2d_noisier_than_direct_3d():
    # paired comparison with common random numbers: the full automatic chain
    # (per-trial DLT calibration + detections, both at 0.2 mm detector noise)
    # has a larger mean FRE than direct 3D probing with 0.2 mm per-axis
    # noise. Near-unit magnification (source-ROI 950 of SDD 1000) so detector
    # demagnification cannot mask the chain's extra calibration error.
    ap_true = _camera((0, -950, 0), view="AP")
    lp_true = _camera((-950, 0, 0), view="LP")
    cal_pts = np.random.default_rng(99).uniform(-70, 70, size=(12, 3))
    cal_world = [(f"C{k}", cal_pts[k]) for k in range(12)]
    trials = 400
    fre_2d = np.zeros(trials)
    fre_3d = np.zeros(trials)
    for i in range(trials):
        rng = np.random.default_rng(70_000 + i)
        models = []
        for m_true in (ap_true, lp_true):
            uv = project(m_true, cal_pts) + rng.normal(scale=0.2, size=(12, 2))
            det = Detection2D(m_true.view_label, tuple(f"C{k}" for k in range(12)), uv)
            models.append(dlt_calibrate(cal_world, det))
        t_gt = random_rigid(rng, translation_scale=20.0)
        jig_world = JIG.transformed(t_gt, frame="CArm")
        views = []
        for m_true, m_est in zip((ap_true, lp_true), models):
            views.append((m_est, _detections(m_true, jig_world, noise=0.2, rng=rng)))
        fre_2d[i] = register_patient_2d(JIG, views).fre_rms
        noisy = FiducialSet("Patient", JIG.labels,
                            JIG.points + rng.normal(scale=0.2, size=JIG.points.shape))
        fre_3d[i] = register_points(jig_world, noisy).fre_rms
    assert fre_2d.mean() > fre_3d.mean()
