import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from spinenav import kinematics
from spinenav.errors import LimitViolation, NoSafePath, Unreachable
from spinenav.geom import RigidTransform
from spinenav.kinematics import (
    Capsule,
    CollisionScene,
    JointVector,
    RobotModel,
    Trajectory,
    _axis_frame,
    _clearance_table,
    _jacobian,
    _rotation_log,
    _segment_distances,
    capsule_distance,
    check_collision,
    default_robot,
    densify,
    fk,
    fk_frames,
    ik,
    jacobian,
    min_clearance,
    plan_safe,
    plan_trajectory,
    robot_from_json,
    robot_to_json,
    segment_segment_distance,
    sphere,
)

MODEL = default_robot()
HOME = JointVector([0.0, -0.6, 0.6, 0.0, 0.7, 0.0])


def _random_q(rng, margin=0.15):
    lo = MODEL.joint_limits[:, 0] * (1 - margin)
    hi = MODEL.joint_limits[:, 1] * (1 - margin)
    return rng.uniform(lo, hi)


# -- forward kinematics --------------------------------------------------------


def test_fk_zero_pose_matches_hand_multiplication():
    # product of the six DH matrices at q = 0, multiplied out by hand:
    # R = Rx(-90)*Rx(-90)*Rx(90)*Rx(-90) = diag(1, -1, -1)
    # t = (a2, d2, d1 - d4 - d6) = (420, 150, 450 - 400 - 90)
    pose = fk(MODEL, np.zeros(6))
    assert np.allclose(pose.rotation, np.diag([1.0, -1.0, -1.0]), atol=1e-12)
    assert np.allclose(pose.translation, [420.0, 150.0, -40.0], atol=1e-9)


def test_fk_joint1_rotation_preserves_base_distance():
    rng = np.random.default_rng(1)
    q = _random_q(rng)
    d0 = np.linalg.norm(fk(MODEL, q).translation)
    q2 = q.copy()
    q2[0] += np.pi
    assert np.linalg.norm(fk(MODEL, q2).translation) == pytest.approx(d0, abs=1e-9)


def test_fk_periodic_in_each_joint():
    rng = np.random.default_rng(2)
    q = _random_q(rng)
    base = fk(MODEL, q)
    for i in range(6):
        q2 = q.copy()
        q2[i] += 2.0 * np.pi
        p = fk(MODEL, q2)
        assert np.max(np.abs(p.rotation - base.rotation)) < 1e-12
        assert np.max(np.abs(p.translation - base.translation)) < 1e-9


# -- jacobian ------------------------------------------------------------------


def _numeric_pose_delta(q, dq):
    """Finite-difference twist: linear mm, angular rad (central differences)."""
    h = 1e-6
    f_plus = fk(MODEL, q + h * dq)
    f_minus = fk(MODEL, q - h * dq)
    dlin = (f_plus.translation - f_minus.translation) / (2 * h)
    dr = f_plus.rotation @ f_minus.rotation.T
    dang = Rotation.from_matrix(dr).as_rotvec() / (2 * h)
    return np.concatenate([dlin, dang])


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        q = _random_q(rng)
        dq = rng.normal(size=6)
        dq /= np.linalg.norm(dq)
        j = jacobian(MODEL, q)
        analytic = j @ dq
        numeric = _numeric_pose_delta(q, dq)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1.0)
        worst = max(worst, rel)
    assert worst <= 1e-5


def test_jacobian_is_frames_jacobian_and_matches_column_loop():
    rng = np.random.default_rng(4)
    for _ in range(50):
        q = _random_q(rng)
        frames = fk_frames(MODEL, q)
        loop = np.zeros((6, 6))  # one column per joint, crossed one at a time
        for i in range(6):
            z, p = frames[i][:3, 2], frames[i][:3, 3]
            loop[:3, i] = np.cross(z, frames[-1][:3, 3] - p)
            loop[3:, i] = z
        assert np.array_equal(jacobian(MODEL, q), _jacobian(frames))
        assert np.array_equal(_jacobian(frames), loop)


_ANGLES = st.one_of(
    st.floats(0.0, np.pi),
    st.floats(0.0, 1e-6),                        # near 0
    st.floats(np.pi - 1e-6, np.pi),              # near pi
    st.just(np.pi),
    st.floats(2.0 * np.pi / 3.0 - 1e-9, 2.0 * np.pi / 3.0 + 1e-9),  # branch switch
)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
           lambda v: np.linalg.norm(v) > 1e-3), _ANGLES)
def test_rotation_log_matches_scipy(axis, angle):
    axis = np.asarray(axis) / np.linalg.norm(axis)
    r = Rotation.from_rotvec(angle * axis).as_matrix()
    ref = Rotation.from_matrix(r).as_rotvec()
    got = _rotation_log(r)
    err = np.max(np.abs(got - ref))
    if angle == np.pi:  # axis and -axis name the same half-turn
        err = min(err, np.max(np.abs(got + ref)))
    assert err <= 1e-12


def test_jacobian_singular_at_wrist_singularity():
    # q5 = 0 aligns joint axes 4 and 6 on one line
    q = np.array([0.3, -0.5, 0.4, 0.2, 0.0, -0.7])
    sv = np.linalg.svd(jacobian(MODEL, q), compute_uv=False)
    assert sv[-1] < 1e-6


def test_jacobian_column1_geometry_at_zero():
    # joint 1 spins about base z: linear column is z x p_end, so it is
    # horizontal and perpendicular to the radius vector
    j = jacobian(MODEL, np.zeros(6))
    p_end = fk(MODEL, np.zeros(6)).translation
    col = j[:3, 0]
    assert col[2] == pytest.approx(0.0, abs=1e-12)
    assert np.dot(col, p_end - [0, 0, p_end[2]]) == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(j[3:, 0], [0, 0, 1], atol=1e-12)


# -- inverse kinematics -----------------------------------------------------------


def test_ik_fixed_point_at_seed():
    rng = np.random.default_rng(4)
    q0 = _random_q(rng)
    target = fk(MODEL, q0)
    out = ik(MODEL, target, JointVector(q0))
    assert np.allclose(out.q, q0, atol=1e-6)


def test_ik_round_trip_1000_reachable_targets():
    rng = np.random.default_rng(5)
    failures = 0
    for _ in range(1000):
        q_true = _random_q(rng)
        target = fk(MODEL, q_true)
        try:
            sol = ik(MODEL, target, HOME)
        except (Unreachable, LimitViolation):
            failures += 1
            continue
        err = np.linalg.norm(fk(MODEL, sol.q).translation - target.translation)
        if err >= 0.01:
            failures += 1
    assert failures <= 10  # >= 99% success


def test_ik_far_target_unreachable():
    target = RigidTransform(np.eye(3), [10_000.0, 0.0, 0.0])
    with pytest.raises(Unreachable):
        ik(MODEL, target, HOME)


def test_ik_limit_violation_distinguished():
    # shrink every joint range so the target pose survives only outside them
    tight = RobotModel(MODEL.dh_rows, np.tile([-0.3, 0.3], (6, 1)),
                       MODEL.link_capsules)
    q_out = np.array([1.2, -0.9, 0.8, 0.5, 1.0, 0.4])
    target = fk(tight, q_out)
    with pytest.raises(LimitViolation):
        ik(tight, target, JointVector(np.zeros(6)))


# -- trajectory planning -----------------------------------------------------------


ENTRY = np.array([450.0, 100.0, 150.0])
DIRECTION = np.array([0.3, 0.1, -1.0]) / np.linalg.norm([0.3, 0.1, -1.0])


def test_plan_trajectory_reaches_axis():
    traj = plan_trajectory(MODEL, HOME, (ENTRY, DIRECTION), standoff_mm=30.0)
    pose = fk(MODEL, traj.final_joints())
    tool_axis = pose.rotation[:, 2]
    angle = np.degrees(np.arccos(np.clip(np.dot(tool_axis, DIRECTION), -1, 1)))
    assert angle < 0.1
    assert np.linalg.norm(pose.translation - ENTRY) < 0.1
    assert traj.max_step_rad() <= 0.05 + 1e-12
    assert np.all(np.diff(traj.times) > 0)


def test_plan_trajectory_random_reachable_plans():
    # every successfully planned trajectory ends aligned within 0.1 deg and
    # 0.1 mm; targets whose approach pose is outside the workspace at the
    # fixed roll are skipped (plan_safe owns roll retries)
    rng = np.random.default_rng(6)
    n_ok = 0
    n_tried = 0
    while n_ok < 100 and n_tried < 220:
        n_tried += 1
        q = _random_q(rng)
        pose = fk(MODEL, q)
        entry = pose.translation
        direction = pose.rotation[:, 2]
        try:
            traj = plan_trajectory(MODEL, HOME, (entry, direction), 25.0)
        except (Unreachable, LimitViolation):
            continue
        n_ok += 1
        final = fk(MODEL, traj.final_joints())
        angle = np.degrees(np.arccos(np.clip(
            np.dot(final.rotation[:, 2], direction), -1, 1)))
        assert angle < 0.1
        assert np.linalg.norm(final.translation - entry) < 0.1
        for qrow in traj.joints:
            assert MODEL.within_limits(qrow)
    assert n_ok == 100


def test_plan_trajectory_from_approach_pose_is_descent_only():
    # start exactly at the approach pose: phase 1 has zero net displacement
    traj_full = plan_trajectory(MODEL, HOME, (ENTRY, DIRECTION), 30.0)
    # recover the approach configuration: the sample whose tip sits at the
    # standoff distance above the entry point
    tips = np.array([fk(MODEL, qr).translation for qr in traj_full.joints])
    d_to_entry = np.linalg.norm(tips - ENTRY, axis=1)
    idx = int(np.argmin(np.abs(d_to_entry - 30.0)))
    q_approach = JointVector(traj_full.joints[idx])
    traj = plan_trajectory(MODEL, q_approach, (ENTRY, DIRECTION), 30.0)
    # phase 1 collapses: the quintic segment has ~zero net displacement
    assert np.linalg.norm(traj.joints[0] - q_approach.q) < 1e-9
    final = fk(MODEL, traj.final_joints())
    assert np.linalg.norm(final.translation - ENTRY) < 0.1


def test_plan_trajectory_zero_standoff_single_phase():
    traj = plan_trajectory(MODEL, HOME, (ENTRY, DIRECTION), standoff_mm=0.0)
    assert traj.planning_mode == "descent_only"
    pose = fk(MODEL, traj.final_joints())
    assert np.linalg.norm(pose.translation - ENTRY) < 0.1


def test_trajectory_csv_round_trip():
    traj = plan_trajectory(MODEL, HOME, (ENTRY, DIRECTION), 20.0)
    back = Trajectory.from_csv(traj.to_csv())
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.joints, traj.joints)


def test_densify_bounds_steps():
    coarse = Trajectory([0.0, 1.0], [np.zeros(6), np.full(6, 0.8)], "test")
    dense = densify(coarse)
    assert dense.max_step_rad() <= 0.05 + 1e-12
    assert np.array_equal(dense.joints[0], coarse.joints[0])
    assert np.array_equal(dense.joints[-1], coarse.joints[-1])


def _loop_densify(traj, max_step_rad=0.05):
    """The one-sub-step-at-a-time subdivision densify replaced, kept as the
    reference for its bits."""
    times = [float(traj.times[0])]
    joints = [traj.joints[0]]
    for i in range(1, len(traj)):
        t0, t1 = traj.times[i - 1], traj.times[i]
        q0, q1 = traj.joints[i - 1], traj.joints[i]
        n_sub = max(int(np.ceil(np.max(np.abs(q1 - q0)) / max_step_rad)), 1)
        for k in range(1, n_sub + 1):
            f = k / n_sub
            times.append(float(t0 + f * (t1 - t0)))
            joints.append(q0 + f * (q1 - q0))
    return np.asarray(times), np.asarray(joints)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 39), st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1.5))
def test_densify_matches_loop_reference(n_rows, seed, spread):
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(0.01, 2.0, n_rows)) - 1.0
    joints = rng.uniform(-spread, spread, (n_rows, 6))
    joints[rng.random(n_rows) < 0.2] = 0.0  # some repeated rows: one sub-step
    traj = Trajectory(times, joints, "test", collision_checked=True)
    dense = densify(traj)
    ref_times, ref_joints = _loop_densify(traj)
    assert np.array_equal(dense.times, ref_times)
    assert np.array_equal(dense.joints, ref_joints)
    assert (dense.planning_mode, dense.collision_checked) == ("test", True)


# -- collision ---------------------------------------------------------------------


def test_segment_segment_distance_cases():
    # parallel unit-offset segments
    assert segment_segment_distance([0, 0, 0], [1, 0, 0],
                                    [0, 1, 0], [1, 1, 0]) == pytest.approx(1.0)
    # crossing perpendicular segments offset in z
    assert segment_segment_distance([-1, 0, 1], [1, 0, 1],
                                    [0, -1, 0], [0, 1, 0]) == pytest.approx(1.0)
    # endpoint to endpoint
    assert segment_segment_distance([0, 0, 0], [1, 0, 0],
                                    [3, 0, 0], [4, 0, 0]) == pytest.approx(2.0)
    # degenerate: point vs point
    assert segment_segment_distance([0, 0, 0], [0, 0, 0],
                                    [0, 3, 4], [0, 3, 4]) == pytest.approx(5.0)


def _scalar_segment_distance(p0, p1, q0, q1) -> float:
    """Reference: the branchy one-pair form of the segment-to-segment
    distance (Ericson, 2004, 5.1.9) that the vectorized kernel replaced."""
    p0, p1, q0, q1 = (np.asarray(v, float) for v in (p0, p1, q0, q1))
    d1 = p1 - p0
    d2 = q1 - q0
    r = p0 - q0
    a = float(d1 @ d1)
    e = float(d2 @ d2)
    f = float(d2 @ r)
    if a <= 1e-12 and e <= 1e-12:
        return float(np.linalg.norm(r))
    if a <= 1e-12:
        s, t = 0.0, np.clip(f / e, 0.0, 1.0)
    else:
        c = float(d1 @ r)
        if e <= 1e-12:
            t, s = 0.0, np.clip(-c / a, 0.0, 1.0)
        else:
            b = float(d1 @ d2)
            denom = a * e - b * b
            s = np.clip((b * f - c * e) / denom, 0.0, 1.0) if denom > 1e-12 else 0.0
            t = (b * s + f) / e
            if t < 0.0:
                t, s = 0.0, np.clip(-c / a, 0.0, 1.0)
            elif t > 1.0:
                t, s = 1.0, np.clip((b - c) / a, 0.0, 1.0)
    return float(np.linalg.norm((p0 + s * d1) - (q0 + t * d2)))


_COORD = st.floats(-200.0, 200.0)
_POINT = st.tuples(_COORD, _COORD, _COORD).map(np.array)
_SEGMENT_KINDS = ("general", "point_point", "point_segment", "segment_point",
                  "short_segment", "segment_short", "parallel", "crossing",
                  "collinear_overlap")
_TINY = st.tuples(*[st.floats(-5e-7, 5e-7)] * 3).map(np.array)  # length^2 < 1e-12


@st.composite
def _segment_pair(draw):
    """Two segments of one of _SEGMENT_KINDS, with capsule radii."""
    kind = draw(st.sampled_from(_SEGMENT_KINDS))
    p0, p1, q0, q1 = (draw(_POINT) for _ in range(4))
    lam, mu = draw(st.floats(-1.5, 1.5)), draw(st.floats(-0.5, 1.5))
    if kind == "point_point":
        p1, q1 = p0, q0
    elif kind == "point_segment":
        p1 = p0
    elif kind == "segment_point":
        q1 = q0
    elif kind == "short_segment":  # a point to the kernel, not exactly one
        p1 = p0 + draw(_TINY)
    elif kind == "segment_short":
        q1 = q0 + draw(_TINY)
    elif kind == "parallel":
        q1 = q0 + lam * (p1 - p0)
    elif kind == "crossing":  # through the same point, then lifted apart
        half, mid = 0.5 * (q1 - q0), p0 + (0.5 + 0.5 * mu) * (p1 - p0)
        normal = np.cross(p1 - p0, half)
        lift = lam * normal / max(np.linalg.norm(normal), 1.0)
        q0, q1 = mid - half + lift, mid + half + lift
    elif kind == "collinear_overlap":
        q0, q1 = p0 + lam * (p1 - p0), p0 + mu * (p1 - p0)
    radii = draw(st.floats(0.5, 60.0)), draw(st.floats(0.5, 60.0))
    return p0, p1, q0, q1, radii


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(_segment_pair(), min_size=1, max_size=8), st.floats(0.0, 20.0))
def test_segment_distances_match_scalar_reference(pairs, margin):
    # one vectorized call over a batch mixing every branch
    p0, p1, q0, q1 = (np.array([pair[k] for pair in pairs]) for k in range(4))
    radii = np.array([pair[4] for pair in pairs])
    got = _segment_distances(p0, p1, q0, q1)
    ref = np.array([_scalar_segment_distance(*pair[:4]) for pair in pairs])
    # the same operations in the same order as the reference: equal, not close
    # (the degenerate branches move only the last bits of near-points)
    assert np.array_equal(got, ref)
    clear_got = got - radii[:, 0] - radii[:, 1]
    clear_ref = ref - radii[:, 0] - radii[:, 1]
    assert np.array_equal(~(clear_got >= margin), clear_ref < margin)


def test_fk_frames_of_a_stack_is_the_rows_stacked():
    rows = np.array([_random_q(np.random.default_rng(k)) for k in range(40)])
    stacked = np.stack([fk_frames(MODEL, q) for q in rows])
    assert fk_frames(MODEL, rows).shape == (40, 7, 4, 4)
    assert np.array_equal(fk_frames(MODEL, rows), stacked)


def test_clearance_table_rows_are_check_collision_and_min_clearance():
    scene = CollisionScene((("ball", sphere([210.0, 75.0, 300.0], 50.0)),
                            ("rod", Capsule([300.0, -100.0, 200.0],
                                            [450.0, 200.0, 350.0], 20.0))),
                           safety_margin=45.0)
    rows = np.array([_random_q(np.random.default_rng(k)) for k in range(20)])
    link, table = _clearance_table(MODEL, scene, rows)
    assert table.shape == (20, 7, 2)
    for q, row in zip(rows, table):
        assert min_clearance(MODEL, scene, q) == np.min(row)
        expected = [(link[k], scene.obstacles[m][0], row[k, m])
                    for k in range(7) for m in range(2) if row[k, m] < 45.0]
        assert check_collision(MODEL, scene, q) == expected


def test_nan_joints_collide_everywhere():
    scene = CollisionScene((("ball", sphere([210.0, 75.0, 300.0], 50.0)),),
                           safety_margin=2.0)
    hits = check_collision(MODEL, scene, np.full(6, np.nan))
    assert len(hits) == 7 and all(np.isnan(d) for _, _, d in hits)
    assert np.isnan(min_clearance(MODEL, scene, np.full(6, np.nan)))


def _robot_with(dh=None, limits=None):
    return RobotModel(MODEL.dh_rows if dh is None else dh,
                      MODEL.joint_limits if limits is None else limits,
                      MODEL.link_capsules)


def _with_entry(array, index, value):
    out = np.array(array, dtype=float)
    out[index] = value
    return out


@pytest.mark.parametrize("build", [
    lambda: Capsule([0, 0, 0], [1, 0, 0], np.nan),
    lambda: Capsule([0, 0, 0], [1, 0, 0], np.inf),
    lambda: Capsule([np.nan, 0, 0], [1, 0, 0], 5.0),
    lambda: Capsule([0, 0, 0], [1, -np.inf, 0], 5.0),
    lambda: _robot_with(dh=_with_entry(MODEL.dh_rows, (1, 0), np.nan)),
    lambda: _robot_with(dh=_with_entry(MODEL.dh_rows, (3, 1), np.inf)),
    lambda: _robot_with(limits=_with_entry(MODEL.joint_limits, (0, 0), -np.inf)),
    lambda: _robot_with(limits=_with_entry(MODEL.joint_limits, (5, 1), np.inf)),
    lambda: CollisionScene((), safety_margin=np.nan),
    lambda: CollisionScene((), safety_margin=np.inf),
    lambda: Trajectory([0.0, np.nan], np.zeros((2, 6))),
    lambda: Trajectory([0.0, 1.0], _with_entry(np.zeros((2, 6)), (1, 2), np.nan)),
    lambda: Trajectory([0.0, 1.0], _with_entry(np.zeros((2, 6)), (0, 5), np.inf)),
    lambda: JointVector([np.nan] * 6),
    lambda: JointVector([0.0, 0.0, -np.inf, 0.0, 0.0, 0.0]),
], ids=["capsule-radius-nan", "capsule-radius-inf", "capsule-p0-nan",
        "capsule-p1-inf", "dh-nan", "dh-inf", "limit-minus-inf", "limit-inf",
        "margin-nan", "margin-inf", "times-nan", "joints-nan", "joints-inf",
        "joint-vector-nan", "joint-vector-inf"])
def test_kinematics_constructors_reject_non_finite(build):
    with pytest.raises(ValueError, match="finite"):
        build()


@pytest.mark.parametrize("text, problem", [
    ("time_s,q1,q2,q3,q4,q5,q6\n", "no sample rows"),
    ("", "no sample rows"),
    ("time_s,q1,q2,q3,q4,q5,q6\n0,0,0,0,0,0,0\n1,0,0,0,0,0\n", "row 2 .*7 fields"),
    ("time_s,q1,q2,q3,q4,q5,q6\n0,0,0,0,0,0,0,0\n", "row 1 .*7 fields"),
])
def test_trajectory_from_csv_names_the_problem(text, problem):
    with pytest.raises(ValueError, match=problem):
        Trajectory.from_csv(text)


def test_check_collision_empty_scene():
    scene = CollisionScene((), safety_margin=10.0)
    assert check_collision(MODEL, scene, np.zeros(6)) == []


def test_collision_scene_resolves_obstacle_frames():
    from spinenav.geom import FrameGraph
    graph = FrameGraph().with_edge(
        "Patient", "RobotBase", RigidTransform(np.eye(3), [210.0, 75.0, 300.0]))
    # the sphere sits at the patient origin, which the graph maps to the
    # same world point as the hand-computed base-frame test below
    scene = CollisionScene((("ball", sphere([0.0, 0.0, 0.0], 50.0), "Patient"),),
                           safety_margin=45.0, frame_graph=graph)
    hits = check_collision(MODEL, scene, np.zeros(6))
    pairs = {(link, label): d for link, label, d in hits}
    assert pairs[(1, "ball")] == pytest.approx(40.0, abs=1e-9)
    with pytest.raises(ValueError):
        CollisionScene((("ball", sphere([0, 0, 0], 5.0), "Patient"),))


def test_check_collision_hand_computed_sphere():
    # at q = 0 the upper-arm capsule spans (0,0,450)->(420,150,450), r=60;
    # a sphere 150 mm below its midpoint at r=50 leaves 150-60-50 = 40 mm
    scene = CollisionScene((("ball", sphere([210.0, 75.0, 300.0], 50.0)),),
                           safety_margin=45.0)
    hits = check_collision(MODEL, scene, np.zeros(6))
    pairs = {(link, label): d for link, label, d in hits}
    assert (1, "ball") in pairs
    assert pairs[(1, "ball")] == pytest.approx(40.0, abs=1e-9)


def test_capsule_distance_against_axis_sampling_oracle():
    # capsule surface = axis segment dilated by the radius, so densely
    # sampling the axis and using the exact point-to-segment distance is a
    # surface-sampling oracle that converges from above
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = Capsule(rng.uniform(-200, 200, 3), rng.uniform(-200, 200, 3),
                    rng.uniform(10, 60))
        b = Capsule(rng.uniform(-200, 200, 3), rng.uniform(-200, 200, 3),
                    rng.uniform(10, 60))
        analytic = capsule_distance(a, b)
        ts = np.linspace(0.0, 1.0, 1000)
        pts = a.p0[None, :] + ts[:, None] * (a.p1 - a.p0)[None, :]
        d2 = b.p1 - b.p0
        ee = float(d2 @ d2)
        if ee <= 1e-12:
            dist = np.linalg.norm(pts - b.p0, axis=1)
        else:
            tt = np.clip((pts - b.p0) @ d2 / ee, 0.0, 1.0)
            dist = np.linalg.norm(pts - (b.p0 + tt[:, None] * d2), axis=1)
        sampled = float(np.min(dist)) - a.radius - b.radius
        assert sampled >= analytic - 1e-9
        assert sampled - analytic <= 0.5


def test_plan_safe_empty_scene_matches_plain_plan():
    scene = CollisionScene((), safety_margin=5.0)
    safe = plan_safe(MODEL, scene, HOME, (ENTRY, DIRECTION), 30.0)
    plain = plan_trajectory(MODEL, HOME, (ENTRY, DIRECTION), 30.0)
    assert safe.collision_checked
    assert np.array_equal(safe.joints, plain.joints)


def test_plan_safe_reroutes_around_blocking_obstacle():
    # obstacle placed on the wrist bracket of the roll=0 plan: rolling the
    # approach about the free tool axis swings the bracket clear
    base = plan_trajectory(MODEL, HOME, (ENTRY, DIRECTION), 30.0, roll=0.0)
    flange = fk_frames(MODEL, base.joints[-1])[6]
    bracket_tip = flange[:3, :3] @ [70.0, 0.0, -40.0] + flange[:3, 3]
    scene = CollisionScene((("block", sphere(bracket_tip, 30.0)),),
                           safety_margin=2.0)
    assert check_collision(MODEL, scene, base.joints[-1])  # roll 0 collides
    safe = plan_safe(MODEL, scene, HOME, (ENTRY, DIRECTION), 30.0)
    assert safe.collision_checked
    for qrow in safe.joints:
        assert min_clearance(MODEL, scene, qrow) >= scene.safety_margin


def test_plan_safe_enclosed_entry_has_no_path():
    scene = CollisionScene((("wall", sphere(ENTRY, 80.0)),), safety_margin=2.0)
    with pytest.raises(NoSafePath):
        plan_safe(MODEL, scene, HOME, (ENTRY, DIRECTION), 30.0)


def test_robot_model_json_round_trip():
    back = robot_from_json(robot_to_json(MODEL))
    assert np.array_equal(back.dh_rows, MODEL.dh_rows)
    assert np.array_equal(back.joint_limits, MODEL.joint_limits)
    for la, lb in zip(back.link_capsules, MODEL.link_capsules):
        for ca, cb in zip(la, lb):
            assert np.array_equal(ca.p0, cb.p0)
            assert ca.radius == cb.radius


# -- plan_safe: the approach is checked before the descent runs -------------------


def _old_jacobian(frames):
    """The stacked np.cross form _jacobian replaced (test reference)."""
    z, p = frames[:6, :3, 2], frames[:6, :3, 3]
    return np.vstack([np.cross(z, frames[-1][:3, 3] - p).T, z.T])


def _old_rotation_log(r):
    """The np.linalg.norm / np.sinc form _rotation_log replaced (test
    reference)."""
    s = 0.5 * np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    cos = 0.5 * (np.trace(r) - 1.0)
    angle = np.arctan2(np.linalg.norm(s), cos)
    if cos > -0.5:
        return s / np.sinc(angle / np.pi)
    b = 0.5 * (r + r.T) - cos * np.eye(3)
    k = int(np.argmax(np.diag(b)))
    axis = b[:, k] / np.linalg.norm(b[:, k])
    return angle * axis if s[k] >= 0.0 else -angle * axis


def _whole_plan_trajectory(model, start, tool_axis_target, standoff_mm, roll=0.0,
                           ik_restart_seed=0):
    """plan_trajectory as one list of knots densified at once, with every
    descent ik run (test reference)."""
    entry, direction = tool_axis_target
    entry = np.asarray(entry, dtype=float)
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    r_tool = _axis_frame(direction, roll)
    approach_tip = entry - standoff_mm * direction
    q_approach = ik(model, RigidTransform(r_tool, approach_tip), start,
                    restart_seed=ik_restart_seed).q
    dq = q_approach - start.q
    t1 = max(float(np.max(np.abs(dq))) / 0.5, 0.5)
    tau = np.linspace(0.0, 1.0, 25)
    times = list(t1 * tau)
    joints = [start.q + s * dq for s in 10.0 * tau ** 3 - 15.0 * tau ** 4 + 6.0 * tau ** 5]
    mode = "descent_only"
    if standoff_mm > 0.0:
        n_steps = max(int(np.ceil(standoff_mm / 1.0)), 2)
        q_prev = JointVector(q_approach)
        t_now = times[-1]
        for k in range(1, n_steps + 1):
            tip = approach_tip + (k / n_steps) * standoff_mm * direction
            q_prev = ik(model, RigidTransform(r_tool, tip), q_prev,
                        restart_seed=ik_restart_seed)
            t_now = t_now + (standoff_mm / n_steps) / 5.0
            times.append(t_now)
            joints.append(q_prev.q)
        mode = "two_phase"
    return densify(Trajectory(np.asarray(times), np.asarray(joints), mode, False))


def _whole_roll_plan_safe(model, scene, start, tool_axis_target, standoff_mm,
                          ik_restart_seed=0):
    """plan_safe planning each roll whole, then checking all of its rows in
    one clearance table (test reference)."""
    any_planned = False
    for roll in np.arange(8) * (2.0 * np.pi / 8.0):
        try:
            traj = _whole_plan_trajectory(model, start, tool_axis_target, standoff_mm,
                                          roll=roll, ik_restart_seed=ik_restart_seed)
        except (Unreachable, LimitViolation):
            continue
        any_planned = True
        if np.all(_clearance_table(model, scene, traj.joints)[1] >= scene.safety_margin):
            return traj.with_collision_checked()
    if any_planned:
        raise NoSafePath("all candidate approach orientations collide")
    raise Unreachable("no approach orientation is reachable")


def _outcome(plan, *args):
    try:
        return plan(*args)
    except (NoSafePath, Unreachable, LimitViolation) as e:
        return type(e)


def _same_outcome(a, b):
    if isinstance(a, Trajectory) and isinstance(b, Trajectory):
        return (np.array_equal(a.times, b.times) and np.array_equal(a.joints, b.joints)
                and (a.planning_mode, a.collision_checked)
                == (b.planning_mode, b.collision_checked))
    return a is b


_BASE = np.array([0.0, 0.0, 450.0])  # joint 2's origin at q = 0


def _planning_scene(i, edge=False):
    """Scene i: 1 + i % 4 spheres of radius 20-40 mm about 160 mm from an
    entry near ENTRY (criterion 6's family). An edge scene moves the entry
    to the edge of the workspace, 915-935 mm out from joint 2, so some
    descents are unreachable."""
    rng = np.random.default_rng(7000 + i)
    direction = rng.normal(size=3)
    direction[2] = -abs(direction[2]) - 0.5
    direction /= np.linalg.norm(direction)
    entry = ENTRY + rng.uniform(-40.0, 40.0, size=3)
    if edge:
        u = entry - _BASE
        direction = u / np.linalg.norm(u)
        entry = _BASE + rng.uniform(915.0, 935.0) * direction
    obstacles = []
    for k in range(1 + i % 4):
        offset = rng.normal(size=3)
        offset /= np.linalg.norm(offset)
        center = entry + 160.0 * offset + rng.uniform(-20.0, 20.0, size=3)
        obstacles.append((f"obs{k}", sphere(center, rng.uniform(20.0, 40.0))))
    return CollisionScene(tuple(obstacles), safety_margin=2.0), entry, direction


def test_plan_safe_matches_whole_roll_reference():
    kinds = set()
    for i, edge in [(i, False) for i in range(100)] + [(i, True) for i in range(6)]:
        scene, entry, direction = _planning_scene(i, edge)
        args = (MODEL, scene, HOME, (entry, direction), 25.0)
        got = _outcome(plan_safe, *args)
        assert _same_outcome(got, _outcome(_whole_roll_plan_safe, *args)), i
        kinds.add(type(got).__name__ if isinstance(got, Trajectory) else got.__name__)
    assert kinds >= {"Trajectory", "NoSafePath", "Unreachable"}


@pytest.mark.parametrize("standoff", [0.0, 0.5, 30.0])
def test_plan_trajectory_matches_whole_reference(standoff):
    for roll in (0.0, 1.0):
        assert _same_outcome(
            plan_trajectory(MODEL, HOME, (ENTRY, DIRECTION), standoff, roll=roll),
            _whole_plan_trajectory(MODEL, HOME, (ENTRY, DIRECTION), standoff, roll=roll))


def test_jacobian_matches_old_form_in_value_and_damped_product_bits():
    rng = np.random.default_rng(11)
    for _ in range(200):
        frames = fk_frames(MODEL, _random_q(rng, margin=0.0))
        new, old = _jacobian(frames), _old_jacobian(frames)
        assert np.array_equal(new, old)
        new[3:, :] *= 100.0  # scaled as in the damped step
        old[3:, :] *= 100.0
        assert (new @ new.T).tobytes() == (old @ old.T).tobytes()


def test_rotation_log_matches_old_form_bit_for_bit():
    rng = np.random.default_rng(12)
    axes = rng.normal(size=(600, 3))
    angles = np.concatenate([rng.uniform(0.0, np.pi, 300), rng.uniform(0.0, 1e-6, 100),
                             np.pi - rng.uniform(0.0, 1e-6, 100),
                             2.0 * np.pi / 3.0 + rng.uniform(-1e-9, 1e-9, 100)])
    rotations = [np.eye(3)] + [
        Rotation.from_rotvec(a * ax / np.linalg.norm(ax)).as_matrix()
        for ax, a in zip(axes, angles)]
    for r in rotations:
        assert _rotation_log(r).tobytes() == _old_rotation_log(r).tobytes()
    assert np.array_equal(_rotation_log(np.eye(3)), np.zeros(3))


def _counting_ik(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1].translation)
        return ik(*args, **kwargs)
    monkeypatch.setattr(kinematics, "ik", counted)
    return calls


def test_roll_whose_approach_collides_costs_one_ik_call(monkeypatch):
    # an obstacle on the wrist bracket at the roll-0 approach pose: the
    # approach rows of the rolls before the first clear one collide there,
    # so their 30 descent steps never run
    rolls = np.arange(8) * (2.0 * np.pi / 8.0)
    knots = kinematics._approach(MODEL, HOME, ENTRY, DIRECTION, 30.0, 0.0, 0).knots
    flange = fk_frames(MODEL, knots.joints[-1])[6]
    bracket_tip = flange[:3, :3] @ [70.0, 0.0, -40.0] + flange[:3, 3]
    scene = CollisionScene((("block", sphere(bracket_tip, 20.0)),), safety_margin=2.0)
    assert check_collision(MODEL, scene, knots.joints[-1])
    first_clear = next(k for k, roll in enumerate(rolls) if min(
        min_clearance(MODEL, scene, q) for q in plan_trajectory(
            MODEL, HOME, (ENTRY, DIRECTION), 30.0, roll=roll).joints) >= 2.0)
    assert first_clear >= 2
    calls = _counting_ik(monkeypatch)
    safe = plan_safe(MODEL, scene, HOME, (ENTRY, DIRECTION), 30.0)
    # one call for each colliding approach, 1 + 30 for the roll that plans
    assert len(calls) == first_clear + 31
    assert _same_outcome(safe, _whole_roll_plan_safe(MODEL, scene, HOME,
                                                     (ENTRY, DIRECTION), 30.0))


def _home_blocker():
    """A sphere on the arm's elbow at HOME: every approach starts in it."""
    elbow = fk_frames(MODEL, HOME.q)[3, :3, 3]
    return CollisionScene((("elbow", sphere(elbow, 30.0)),), safety_margin=2.0)


def test_every_approach_colliding_is_no_safe_path_after_one_descent(monkeypatch):
    scene = _home_blocker()
    calls = _counting_ik(monkeypatch)
    with pytest.raises(NoSafePath):
        plan_safe(MODEL, scene, HOME, (ENTRY, DIRECTION), 30.0)
    assert len(calls) == 8 + 30  # eight approaches, then one descent completes
    assert _outcome(_whole_roll_plan_safe, MODEL, scene, HOME, (ENTRY, DIRECTION),
                    30.0) is NoSafePath


def test_every_approach_colliding_and_descent_unreachable_is_unreachable():
    # approach tips 905 mm out from joint 2 are reachable, entries 930 mm out
    # are not: no roll plans, so the answer stays Unreachable
    u = ENTRY - _BASE
    u /= np.linalg.norm(u)
    target = (_BASE + 930.0 * u, u)
    for scene in (_home_blocker(), CollisionScene((), safety_margin=2.0)):
        assert _outcome(plan_safe, MODEL, scene, HOME, target, 25.0) is Unreachable
        assert _outcome(_whole_roll_plan_safe, MODEL, scene, HOME, target,
                        25.0) is Unreachable


def test_every_roll_unreachable_is_unreachable(monkeypatch):
    calls = _counting_ik(monkeypatch)
    with pytest.raises(Unreachable):
        plan_safe(MODEL, _home_blocker(), HOME, (np.array([2000.0, 0.0, 0.0]),
                                                 DIRECTION), 25.0)
    assert len(calls) == 8  # no approach is reachable: no descent runs


@pytest.mark.parametrize("entry, direction, standoff", [
    ([np.nan, 100.0, 150.0], DIRECTION, 25.0),
    ([450.0, np.inf, 150.0], DIRECTION, 25.0),
    (ENTRY, [0.0, 0.0, 0.0], 25.0),
    (ENTRY, [np.nan, 0.0, -1.0], 25.0),
    (ENTRY, [0.0, np.inf, -1.0], 25.0),
    (ENTRY, DIRECTION, -5.0),
    (ENTRY, DIRECTION, np.nan),
    (ENTRY, DIRECTION, np.inf),
], ids=["entry-nan", "entry-inf", "direction-zero", "direction-nan", "direction-inf",
        "standoff-negative", "standoff-nan", "standoff-inf"])
def test_invalid_axis_target_or_standoff_raises_before_any_ik(monkeypatch, entry,
                                                               direction, standoff):
    calls = _counting_ik(monkeypatch)
    scene = CollisionScene((), safety_margin=2.0)
    with pytest.raises(ValueError, match="entry|direction|standoff"):
        plan_trajectory(MODEL, HOME, (entry, direction), standoff)
    with pytest.raises(ValueError, match="entry|direction|standoff"):
        plan_safe(MODEL, scene, HOME, (entry, direction), standoff)
    assert calls == []
