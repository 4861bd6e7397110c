"""Per-trial reference forms of the accuracy study's registration chains
and of the placement study's per-screw loop.

These are the one-trial-at-a-time implementations that the stacked passes
(calibration.*_batch, registration.register_points_batch, the simharness
draw and math passes) replaced, kept verbatim in their arithmetic so the
oracle tests can require bit-identical results from the stacked code.
"""

import math
from dataclasses import replace

import numpy as np

from spinenav.errors import (
    BadInput,
    CoplanarPoints,
    DegenerateGeometry,
    DegenerateSpec,
    GuardFailed,
    ParallelRays,
    PointAtInfinity,
    SpineNavError,
    TooFewCommonLabels,
    TooFewPoints,
)
from spinenav.registration import RegistrationResult, fit_rigid
from spinenav.simharness import (
    _CALIBRATOR_OFFSETS,
    SOURCE_DETECTOR_DISTANCE_MM,
    ArmResult,
    PlacementStudyResult,
    TrialResult,
    _angle_multiplier,
    _apply_error_to_plan,
    _centered_plan,
    _checked_trajectory,
    _trial_rng,
)
from spinenav.geom import RigidTransform, axis_basis, cross3
from spinenav.planning import breach_depth, grade_gertzbein, grade_percent, validate_plan
from spinenav.workflow import (Event, EventKind, Modality, Mode, advance, new_session,
                               radiation_report)


# -- guards -------------------------------------------------------------------------


def rigid_guard(r, t):
    """RigidTransform.__post_init__'s checks on one (3, 3), (3,) pair."""
    if not np.abs(r.T @ r - np.eye(3)).max() <= 1e-9:
        raise BadInput("rotation is not orthonormal within 1e-9")
    if not abs(np.linalg.det(r) - 1.0) <= 1e-9:
        raise BadInput("rotation determinant is not +1 within 1e-9")
    if not np.isfinite(t).all():
        raise BadInput("translation must be finite")


def projection_guard(m):
    """ProjectionModel.__post_init__'s matrix checks on one (3, 4) matrix."""
    if not np.isfinite(m).all():
        raise BadInput("projection matrix must be finite")
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[2] / sv[0] < 1e-12:
        raise BadInput("projection matrix must have rank 3")
    (a, b, c, _), (d, e, f, _), (g, h, i, _) = m.tolist()
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    rows = (a * a + b * b + c * c) * (d * d + e * e + f * f) * (g * g + h * h + i * i)
    if not abs(det) > 1e-12 * math.sqrt(rows):
        raise BadInput("projection matrix's left 3x3 block is singular: "
                       "its camera centre is at infinity")
    if abs(np.linalg.norm(m[2, :3]) - 1.0) > 1e-9:
        raise BadInput("projection matrix must be scale-normalized")


def fiducial_guard(points):
    """FiducialSet.__post_init__'s value check on one (N, 3) set."""
    if not np.all(np.isfinite(points)):
        raise BadInput("fiducial positions must be finite")


def detection_guard(uv):
    """Detection2D.__post_init__'s value check on one view's (N, 2) uv."""
    if not np.all(np.isfinite(uv)):
        raise BadInput("detections and confidences must be finite")


# -- kernels ------------------------------------------------------------------------


def quaternion_rotation(q):
    """RigidTransform.from_quaternion's rotation."""
    w, x, y, z = np.asarray(q, dtype=float) / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def random_rigid(rng, translation_scale=40.0):
    """One ground-truth pose (rotation, translation) as the study draws it:
    a normal quaternion, then a uniform translation."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    r = quaternion_rotation(q)
    t = rng.uniform(-translation_scale, translation_scale, size=3)
    rigid_guard(r, t)
    return r, t


def apply(r, t, points):
    return np.asarray(points, dtype=float) @ r.T + t


def normalized(m):
    """ProjectionModel.from_matrix's scaling."""
    m = np.array(m, dtype=float).reshape(3, 4)
    m = m / np.linalg.norm(m[2, :3])
    projection_guard(m)
    return m


def pinhole(r, t, focal_mm):
    k = np.diag([focal_mm, focal_mm, 1.0])
    return normalized(k @ np.hstack([r, t[:, None]]))


def project(m, pts):
    """calibration.project on a point stack (N, 3)."""
    h = pts @ m[:, :3].T + m[:, 3]
    w = h[:, 2]
    if np.any(np.abs(w) <= 1e-9):
        raise PointAtInfinity("point lies on the camera plane")
    return h[:, :2] / w[:, None]


def hartley(pts):
    k = pts.shape[1]
    c = pts.mean(axis=0)
    s = np.sqrt(k) / np.mean(np.linalg.norm(pts - c, axis=1))
    t = np.diag([s] * k + [1.0])
    t[:k, k] = -s * c
    return t


def dlt(x, uv):
    """dlt_calibrate's math on one (N, 3), (N, 2) correspondence set:
    the oriented matrix before scale normalization."""
    sv = np.linalg.svd(x - x.mean(axis=0), compute_uv=False)
    if sv[2] / sv[0] < 1e-6:
        raise CoplanarPoints("calibration points are coplanar")
    t3 = hartley(x)
    t2 = hartley(uv)
    x1 = np.hstack([x, np.ones((len(x), 1))])
    xh = x1 @ t3.T
    uvh = np.hstack([uv, np.ones((len(uv), 1))]) @ t2.T
    a = np.zeros((2 * len(x), 12))
    a[0::2, 0:4] = xh
    a[0::2, 8:12] = -uvh[:, :1] * xh
    a[1::2, 4:8] = xh
    a[1::2, 8:12] = -uvh[:, 1:2] * xh
    _, _, vt = np.linalg.svd(a)
    p = np.linalg.inv(t2) @ vt[-1].reshape(3, 4) @ t3
    depths = x1 @ p[2]
    if np.sum(depths > 0) < len(x) / 2:
        p = -p
    return p


def _row_dot(a, b):
    return (a[..., None, :] @ b[:, :, None])[:, 0, 0]


def triangulate(ma, uva, mb, uvb):
    """calibration.triangulate on one stack of matching rows (N, 2)."""
    centers, rays = [], []
    for m, uv in ((ma, uva), (mb, uvb)):
        uv = np.asarray(uv, dtype=float).reshape(-1, 2)
        if not np.all(np.isfinite(uv)):
            raise BadInput("detector coordinates must be finite")
        uvh = np.hstack([uv, np.ones((len(uv), 1))])
        d = np.linalg.solve(np.broadcast_to(m[:, :3], (len(uv), 3, 3)),
                            uvh[:, :, None])[:, :, 0]
        centers.append(-np.linalg.solve(m[:, :3], m[:, 3]))
        rays.append(d / np.sqrt(_row_dot(d, d))[:, None])
    (c1, c2), (d1, d2) = centers, rays
    cos12 = _row_dot(d1, d2)
    if np.any(np.abs(cos12) >= np.cos(np.deg2rad(5.0))):
        raise ParallelRays("view rays are within 5 degrees of parallel")
    r = c2 - c1
    a12 = -cos12
    b1 = _row_dot(r, d1)
    b2 = -_row_dot(r, d2)
    det = 1.0 - a12 * a12
    l1 = (b1 - a12 * b2) / det
    l2 = (b2 - a12 * b1) / det
    p1 = c1 + l1[:, None] * d1
    p2 = c2 + l2[:, None] * d2
    diff = p1 - p2
    return (p1 + p2) / 2.0, np.sqrt(_row_dot(diff, diff))


def check_not_collinear(points, what):
    sv = np.linalg.svd(points - points.mean(axis=0), compute_uv=False)
    if sv[0] <= 0.0 or sv[1] / sv[0] < 1e-6:
        raise DegenerateGeometry(f"{what} points are collinear")


def register(fixed, moving):
    """register_points' transform on row-matched (N, 3) sets."""
    if len(fixed) < 3:
        raise TooFewPoints("point registration needs at least 3 correspondences")
    check_not_collinear(fixed, "fixed")
    check_not_collinear(moving, "moving")
    t = fit_rigid(fixed, moving)
    return t.rotation, t.translation


# -- chains -------------------------------------------------------------------------


def carm_pair(center, detector_distance_mm, jitter_deg, rng):
    source_to_roi = SOURCE_DETECTOR_DISTANCE_MM - detector_distance_mm
    models = []
    for azimuth in (-np.pi / 2, np.pi):
        azimuth = azimuth + np.deg2rad(rng.uniform(-jitter_deg, jitter_deg))
        src = center + source_to_roi * np.array([np.cos(azimuth), np.sin(azimuth), 0.0])
        z = center - src
        z /= np.linalg.norm(z)
        x = cross3((0.0, 0.0, 1.0), z)
        x /= np.linalg.norm(x)
        y = cross3(z, x)
        r = np.vstack([x, y, z])
        t = -r @ src
        rigid_guard(r, t)
        models.append(pinhole(r, t, SOURCE_DETECTOR_DISTANCE_MM))
    return models


def registration_transform(phantom, modality, factors, noise, rng, jitter_deg):
    """One registration chain, trial by trial: ((r_est, t_est), (r_gt, t_gt))."""
    r_gt, t_gt = random_rigid(rng)
    tracker_pos = np.array([0.0, -factors["tracker_distance_mm"], 400.0])
    roi = phantom.fiducials.points.mean(axis=0)
    view_axis = roi - tracker_pos
    multiplier = factors["user_group"] * _angle_multiplier(factors["tool_angle_deg"])
    fid = phantom.fiducials.points
    world = apply(r_gt, t_gt, fid)
    fiducial_guard(world)

    if modality is Modality.PREOP_CT_POINT_BASED:
        u, v, axis = axis_basis(view_axis)
        sigma = noise.tracker_sigma_at(factors["tracker_distance_mm"]) * multiplier
        g = rng.normal(size=(len(fid), 3))
        noisy = fid + sigma * (g[:, :1] * u + g[:, 1:2] * v
                               + noise.depth_anisotropy * g[:, 2:3] * axis)
        fiducial_guard(noisy)
        est = register(world, noisy)
    else:
        roi_world = world.mean(axis=0)
        true_models = carm_pair(roi_world, factors["detector_distance_mm"], jitter_deg, rng)
        cal_pts = roi_world[None, :] + _CALIBRATOR_OFFSETS
        views = []
        for m in true_models:
            uv_cal = project(m, cal_pts)
            uv_cal = uv_cal + rng.normal(scale=noise.detector_sigma, size=uv_cal.shape)
            detection_guard(uv_cal)
            est_m = normalized(dlt(cal_pts, uv_cal))
            uv_jig = project(m, world)
            uv_jig = uv_jig + rng.normal(scale=noise.detector_sigma, size=uv_jig.shape)
            detection_guard(uv_jig)
            views.append((est_m, uv_jig))
        if len(fid) < 4:
            raise TooFewCommonLabels(f"need >= 4 fiducials in both views, got {len(fid)}")
        (ma, uva), (mb, uvb) = views
        tri, _ = triangulate(ma, uva, mb, uvb)
        fiducial_guard(tri)
        est = register(tri, fid)
    rigid_guard(*est)
    return est, (r_gt, t_gt)


def run_trial(phantom, method, factors, config, rng):
    """simharness.run_trial, trial by trial."""
    try:
        (r_est, t_est), (r_gt, t_gt) = registration_transform(
            phantom, method.modality, factors, config.noise, rng, config.view_jitter_deg)
    except SpineNavError as e:
        return TrialResult(method.label, method.modality, method.robot_assisted,
                           factors, None, ok=False, error=f"{type(e).__name__}: {e}")
    mapped = apply(r_est, t_est, phantom.targets.points)
    truth = apply(r_gt, t_gt, phantom.targets.points)
    if method.robot_assisted:
        mapped = mapped + rng.normal(scale=config.noise.kinematic_sigma, size=mapped.shape)
    err = np.linalg.norm(mapped - truth, axis=1)
    return TrialResult(method.label, method.modality, method.robot_assisted, factors,
                       float(np.sqrt(np.mean(err ** 2))))


# -- placement study ----------------------------------------------------------------


def _placement_transforms(phantom, modality, factors, noise, rng, jitter_deg):
    """registration_transform as the RigidTransforms (t_est, t_gt)."""
    (r_est, t_est), (r_gt, t_gt) = registration_transform(phantom, modality, factors,
                                                          noise, rng, jitter_deg)
    return RigidTransform(r_est, t_est), RigidTransform(r_gt, t_gt)


def run_placement_study(config, phantom, screws_per_arm, noise_multiplier=1.0):
    """simharness.run_placement_study, screw by screw: one chain per screw
    placement, run when the session reaches that screw."""
    if screws_per_arm < 1:
        raise BadInput("screws_per_arm must be >= 1")
    if screws_per_arm > len(phantom.pedicles):
        raise BadInput(f"phantom has only {len(phantom.pedicles)} pedicles")
    noise = replace(config.noise,
                    tracker_sigma0=config.noise.tracker_sigma0 * noise_multiplier,
                    detector_sigma=config.noise.detector_sigma * noise_multiplier,
                    kinematic_sigma=config.noise.kinematic_sigma * noise_multiplier)
    scaled = replace(config, noise=noise)
    arms = []
    for arm_idx, (arm_name, mode, robot) in enumerate(
            (("navigation", Mode.NAVIGATION_ONLY, False),
             ("robot", Mode.ROBOT_ASSISTED, True))):
        pedicles = phantom.pedicles[:screws_per_arm]
        levels = sorted({p.level.rsplit("-", 1)[0] for p in pedicles})
        session = new_session(mode, scaled.modality)
        session = advance(session, Event(EventKind.ACQUIRE_PREOP_CT))
        session = advance(session, Event(EventKind.SUBMIT_PATIENT_DATA))
        plans = {}
        for pedicle in pedicles:
            plan = _centered_plan(pedicle)
            validation = validate_plan(plan, pedicle, safety_margin_mm=0.5)
            session = advance(session, Event(EventKind.APPROVE_PLAN, plan=plan,
                                             validation=validation))
            plans[pedicle.level] = plan
        session = advance(session, Event(EventKind.FINISH_PLANNING))
        session = advance(session, Event(EventKind.PREPARE_OT))
        session = advance(session, Event(EventKind.CALIBRATE_INSTRUMENTS))
        session = advance(session, Event(EventKind.ATTACH_DRB))
        if robot:
            session = advance(session, Event(EventKind.POSITION_ROBOT_CART))
        session = advance(session, Event(EventKind.MOUNT_CARM))
        for lv in levels:
            session = advance(session, Event(
                EventKind.ACQUIRE_REGISTRATION_IMAGES, scope=lv, views=("AP", "LP")))
        session = advance(session, Event(EventKind.BEGIN_REGISTRATION))

        cells = scaled.cells(scaled.modality)
        grades = []
        registered = False
        for s_idx, pedicle in enumerate(pedicles):
            rng = _trial_rng(scaled.noise.seed + 7919 * (arm_idx + 1), 0, s_idx)
            factors = cells[s_idx % len(cells)]
            t_est, t_gt = _placement_transforms(
                phantom, scaled.modality, factors, scaled.noise, rng, scaled.view_jitter_deg)
            if not registered:
                for _ in range(50):
                    mapped = t_est.apply(phantom.fiducials.points)
                    truth = t_gt.apply(phantom.fiducials.points)
                    res = np.linalg.norm(mapped - truth, axis=1)
                    reg = RegistrationResult(t_est, float(np.sqrt(np.mean(res ** 2))),
                                             tuple(res), len(res))
                    session = advance(session, Event(EventKind.SUBMIT_REGISTRATION,
                                                     registration=reg))
                    try:
                        session = advance(session, Event(EventKind.BEGIN_NAVIGATION))
                        break
                    except GuardFailed:
                        session = advance(session, Event(EventKind.RE_REGISTER))
                        t_est, t_gt = _placement_transforms(
                            phantom, scaled.modality, factors, scaled.noise, rng,
                            scaled.view_jitter_deg)
                else:
                    raise DegenerateSpec(
                        "registration never passed verification at this noise level")
                registered = True
            else:
                session = advance(session, Event(EventKind.NEXT_SCREW))
            if robot:
                session = advance(session, Event(EventKind.POSITION_ROBOT,
                                                 trajectory=_checked_trajectory()))
            plan = plans[pedicle.level]
            achieved = _apply_error_to_plan(
                plan, t_est, t_gt,
                scaled.noise.kinematic_sigma if robot else 0.0, rng)
            session = advance(session, Event(EventKind.BEGIN_PLACEMENT,
                                             level=pedicle.level))
            screw_id = f"{pedicle.level}#{s_idx + 1}"
            session = advance(session, Event(EventKind.CONFIRM_PLACEMENT,
                                             level=pedicle.level, scope=screw_id,
                                             achieved=achieved))
            session = advance(session, Event(EventKind.ACQUIRE_VERIFICATION_IMAGES,
                                             scope=screw_id, views=("AP", "LP")))
            breach = breach_depth(achieved, pedicle)
            grades.append((pedicle.level, breach, grade_gertzbein(breach).value))
        session = advance(session, Event(EventKind.COMPLETE_SESSION))

        report = radiation_report(session.acquisition_log, session.placed_screws)
        percent = grade_percent(g for _, _, g in grades)
        arms.append(ArmResult(arm_name, mode, tuple(grades), percent,
                              report.mean_per_screw, report.to_csv()))
    return PlacementStudyResult(tuple(arms), screws_per_arm)
