"""Six-axis serial-arm kinematics, screw-axis trajectory planning, and
capsule-based collision checking.

The robot is described by standard Denavit-Hartenberg rows; forward
kinematics is the product of the six link transforms, for one joint row or a
stack of rows. The arm is PUMA-type with a spherical wrist, so inverse
kinematics is exact and in closed form: up to 8 branches from one stacked
pass, of which ik returns the in-limit branch nearest its seed, so ik depends
only on (target, seed) and every plan is reproducible. Tool-axis targets are
5-DOF tasks (roll about the tool axis is free), and the planner exploits that
free roll to steer around obstacles. Collision checking fills one clearance
table (rows x link capsules x obstacles) per planning phase; one-configuration
queries are one-row views of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadInput, LimitViolation, NoSafePath, Unreachable
from .geom import (ArrayValue, RigidTransform, axis_basis, booleans, cross3, frozen_array,
                   row_dot, snap_rotation)

MAX_JOINT_STEP_RAD = 0.05


@dataclass(frozen=True, eq=False)
class Capsule(ArrayValue):
    """Segment p0-p1 swept by a sphere of the given radius (p0 == p1 is a
    sphere)."""

    p0: np.ndarray
    p1: np.ndarray
    radius: float

    def __post_init__(self):
        if not (np.isfinite(self.radius) and self.radius > 0.0):
            raise BadInput("capsule radius must be positive and finite")
        for name in ("p0", "p1"):
            frozen_array(self, name, getattr(self, name), 3)


def sphere(center, radius: float) -> Capsule:
    return Capsule(center, center, radius)


@dataclass(frozen=True, eq=False)
class RobotModel(ArrayValue):
    """DH table (a mm, alpha rad, d mm, theta_offset rad), joint limits, and
    per-link collision capsules expressed in each link's frame.

    The table must be of the PUMA-type family that ik solves in closed form:
    alpha (-pi/2, 0, -pi/2, pi/2, -pi/2, 0); a1 = a3 = a4 = a5 = a6 = 0 and
    d3 = d5 = 0 (a spherical wrist), each to 1e-12 mm; a2 and d4 non-zero.
    d1, d2, d6 and the theta offsets are free. Any other table raises
    BadInput."""

    dh_rows: np.ndarray      # (6, 4)
    joint_limits: np.ndarray  # (6, 2)
    link_capsules: tuple     # 6 entries, each a tuple of Capsule

    def __post_init__(self):
        dh = frozen_array(self, "dh_rows", self.dh_rows, (6, 4))
        lim = frozen_array(self, "joint_limits", self.joint_limits, (6, 2))
        if np.any(lim[:, 0] >= lim[:, 1]):
            raise BadInput("joint limits must satisfy min < max")
        # a1, a3-a6, d3 and d5 are zero (to 1e-12 mm); a2 and d4 are not
        lengths = np.abs(dh[[0, 2, 3, 4, 5, 2, 4, 1, 3], [0, 0, 0, 0, 0, 2, 2, 0, 2]]) > 1e-12
        if not (np.array_equal(dh[:, 1], np.array([-1, 0, -1, 1, -1, 0]) * (np.pi / 2))
                and np.array_equal(lengths, [False] * 7 + [True] * 2)):
            raise BadInput("the DH table is not of the PUMA-type spherical-wrist family "
                           "that inverse kinematics solves")
        caps = tuple(tuple(c for c in link) for link in self.link_capsules)
        if len(caps) != 6:
            raise BadInput("link_capsules must have one entry per joint")
        # rows 2 and 3 of each DH link transform, (0, sin a, cos a, d) and
        # (0, 0, 0, 1), do not depend on q: built once here
        links = np.zeros((6, 4, 4))
        links[:, 2, 1], links[:, 2, 2] = np.sin(dh[:, 1]), np.cos(dh[:, 1])
        links[:, 2, 3], links[:, 3, 3] = dh[:, 2], 1.0
        links.setflags(write=False)
        object.__setattr__(self, "link_capsules", caps)
        object.__setattr__(self, "_dh_links", links)


@dataclass(frozen=True, eq=False)
class JointVector(ArrayValue):
    """Six joint positions in rad."""

    q: np.ndarray

    def __post_init__(self):
        frozen_array(self, "q", self.q, 6)


@dataclass(frozen=True, eq=False)
class Trajectory(ArrayValue):
    """Timed joint-space path. Times strictly increase; after densification
    consecutive joint steps never exceed MAX_JOINT_STEP_RAD. collision_checked
    must be a bool."""

    times: np.ndarray        # (S,)
    joints: np.ndarray       # (S, 6)
    collision_checked: bool = False

    def __post_init__(self):
        t = frozen_array(self, "times", self.times, -1)
        frozen_array(self, "joints", self.joints, (len(t), 6))
        if len(t) < 1:
            raise BadInput("trajectory needs at least one sample")
        if np.any(np.diff(t) <= 0.0):
            raise BadInput("trajectory times must strictly increase")
        booleans(self, "collision_checked")

    def __len__(self):
        return len(self.times)

    def max_step_rad(self) -> float:
        if len(self.times) < 2:
            return 0.0
        return float(np.max(np.abs(np.diff(self.joints, axis=0))))

    def with_collision_checked(self) -> "Trajectory":
        return Trajectory(self.times, self.joints, True)

    def to_dict(self) -> dict:
        return {"times": self.times.tolist(), "joints": self.joints.tolist(),
                "collision_checked": self.collision_checked}

    @staticmethod
    def from_dict(d: dict) -> "Trajectory":
        return Trajectory(d["times"], d["joints"], d["collision_checked"])


@dataclass(frozen=True)
class CollisionScene:
    """Labeled capsule/sphere obstacles in robot-base coordinates: each
    entry is a (label, Capsule) pair. An obstacle known in another frame is
    mapped into the base frame before it enters the scene (geom.resolve
    gives the transform)."""

    obstacles: tuple
    safety_margin: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.safety_margin) and self.safety_margin >= 0.0):
            raise BadInput("safety margin must be finite and non-negative")
        obstacles = tuple(self.obstacles)
        for entry in obstacles:
            if len(entry) != 2 or not isinstance(entry[1], Capsule):
                raise BadInput(f"an obstacle is a (label, Capsule) pair in base "
                               f"coordinates, got {entry!r}")
        object.__setattr__(self, "obstacles", obstacles)


# -- forward kinematics ---------------------------------------------------------


_EYE4 = np.eye(4)


def fk_frames(model: RobotModel, q) -> np.ndarray:
    """Homogeneous base->link_i transforms for i = 0..6 (0 is the base):
    (7, 4, 4) for one joint row q (6,), (N, 7, 4, 4) for rows q (N, 6)."""
    q = np.asarray(q, dtype=float)
    rows = q.reshape(-1, 6)
    theta = rows + model.dh_rows[:, 3]
    ct, st = np.cos(theta), np.sin(theta)
    sa, ca = model._dh_links[:, 2, 1], model._dh_links[:, 2, 2]
    a = model.dh_rows[:, 0]
    links = np.empty((len(rows), 6, 4, 4))
    links[..., 2:, :] = model._dh_links[:, 2:]
    links[..., 0, 0], links[..., 1, 0] = ct, st
    links[..., 0, 1], links[..., 1, 1] = -st * ca, ct * ca
    links[..., 0, 2], links[..., 1, 2] = st * sa, -ct * sa
    links[..., 0, 3], links[..., 1, 3] = a * ct, a * st
    frames = np.empty((len(rows), 7, 4, 4))
    frames[:, 0] = _EYE4
    for i in range(6):
        np.matmul(frames[:, i], links[:, i], out=frames[:, i + 1])
    return frames.reshape(q.shape[:-1] + (7, 4, 4))


def fk(model: RobotModel, q) -> RigidTransform:
    """Base->flange pose: the product of the six DH link transforms."""
    m = fk_frames(model, q)[-1]
    # six chained float multiplies can drift past the constructor's 1e-9 gate
    return RigidTransform(snap_rotation(m[:3, :3]), m[:3, 3])


def jacobian(model: RobotModel, q) -> np.ndarray:
    """Geometric Jacobian at q: rows 0-2 linear (mm/rad), 3-5 angular."""
    frames = fk_frames(model, q)
    z, p = frames[:6, :3, 2], frames[:6, :3, 3]
    return np.vstack([cross3(z.T, (frames[-1][:3, 3] - p).T), z.T])


def _ik_branches(model: RobotModel, target: RigidTransform, seed: np.ndarray) -> np.ndarray:
    """The 8 closed-form joint rows (8, 6) that reach target, before any
    whole-turn shift, decoupled at the wrist centre w = p - d6 z (Pieper
    1968; Craig, Introduction to Robotics, ch. 4).

    In one stacked pass: q1 takes 2 shoulder branches from the offset d2,
    q3 2 elbow branches from the law of cosines on a2 and d4, and q2 the
    planar two-link solution; one fk_frames call gives R03 of the 4 arm
    branches, and R36 = R03^T R = Rz(q4) Ry(-q5) Rz(q6) gives q4 in 2 wrist
    flips, then q5 and q6 from Rz(q4)^T R36, which holds for any q4.

    At the wrist singularity (|sin q5| at most 1e-12) q4 and q6 turn about
    one line; of that family the member nearest the seed's q4 and q6 is
    taken, each moved by half the roll between them. A pose within rounding
    (1e-13, relative) of a boundary, the wrist centre on the shoulder
    cylinder of radius d2 or the elbow straight or folded, is solved on it;
    one beyond raises Unreachable."""
    dh, off = model.dh_rows, model.dh_rows[:, 3]
    d1, a2, d2, d4, d6 = dh[0, 2], dh[1, 0], dh[1, 2], dh[3, 2], dh[5, 2]
    r = target.rotation
    w = target.translation - d6 * r[:, 2]
    u2 = w[0] ** 2 + w[1] ** 2 - d2 ** 2  # squared radial reach in the arm plane
    v = d1 - w[2]
    s3 = (a2 ** 2 + d4 ** 2 - u2 - v ** 2) / (2.0 * a2 * d4)
    if u2 < -1e-13 * d2 ** 2 or abs(s3) > 1.0 + 1e-13:
        raise Unreachable("the wrist centre lies outside the arm's workspace")
    # within rounding of a boundary is on it: there the position fixes q1
    # or q3 only to about 1e-8 rad, which would unsettle a singular wrist
    u2 = u2 if u2 > 1e-13 * d2 ** 2 else 0.0
    s3 = s3 if abs(s3) < 1.0 - 1e-13 else np.sign(s3)
    u = np.array([1.0, 1.0, -1.0, -1.0]) * np.sqrt(u2)
    c3 = np.array([1.0, -1.0, 1.0, -1.0]) * np.sqrt(1.0 - s3 * s3)
    theta = np.zeros((4, 6))
    theta[:, 0] = np.arctan2(w[1], w[0]) - np.arctan2(d2, u)
    theta[:, 1] = np.arctan2(v, u) - np.arctan2(d4 * c3, a2 - d4 * s3)
    theta[:, 2] = np.arctan2(s3, c3)
    r36 = np.swapaxes(fk_frames(model, theta - off)[:, 3, :3, :3], 1, 2) @ r
    singular = np.hypot(r36[:, 0, 2], r36[:, 1, 2]) <= 1e-12
    t4 = np.where(singular, seed[3] + off[3], np.arctan2(-r36[:, 1, 2], -r36[:, 0, 2]))
    t4, r36, theta = np.concatenate([t4, t4 + np.pi]), np.tile(r36, (2, 1, 1)), np.tile(theta, (2, 1))
    c4, s4 = np.cos(t4)[:, None], np.sin(t4)[:, None]
    row0 = c4 * r36[:, 0] + s4 * r36[:, 1]  # rows 0 and 1 of Ry(-q5) Rz(q6)
    row1 = c4 * r36[:, 1] - s4 * r36[:, 0]
    t6 = np.arctan2(row1[:, 0], row1[:, 1])
    # a singular wrist turns by q4 + q6 (q5 = 0) or q6 - q4 (q5 = pi)
    half = np.where(np.tile(singular, 2),
                    0.5 * (np.mod(t6 - seed[5] - off[5] + np.pi, 2.0 * np.pi) - np.pi), 0.0)
    theta[:, 3] = t4 + np.sign(r36[:, 2, 2]) * half
    theta[:, 4] = np.arctan2(-row0[:, 2], r36[:, 2, 2])
    theta[:, 5] = t6 - half
    return theta - off


def ik(model: RobotModel, target: RigidTransform, seed: JointVector) -> JointVector:
    """Exact inverse kinematics: of the closed form's 8 branches
    (_ik_branches), the one nearest the seed within the joint limits.

    Each joint of each branch is moved by whole turns to its value nearest
    the seed within its limits (1e-9 rad slack). The result depends only on
    (target, seed). Raises Unreachable when no branch exists, LimitViolation
    when branches exist but none lies within the joint limits.
    """
    q = _ik_branches(model, target, seed.q)
    # per joint: the lowest whole-turn shift at or above the lower limit,
    # then as many further turns as bring it nearest the seed within limits
    lo, hi = model.joint_limits[:, 0] - 1e-9, model.joint_limits[:, 1] + 1e-9
    low = lo + np.mod(q - lo, 2.0 * np.pi)
    turns = np.clip(np.round((seed.q - low) / (2.0 * np.pi)), 0.0,
                    np.floor((hi - low) / (2.0 * np.pi)))
    q = low + 2.0 * np.pi * turns
    in_limits = np.all(low <= hi, axis=1)
    if not in_limits.any():
        raise LimitViolation("target reachable only outside joint limits")
    dist = np.where(in_limits, np.linalg.norm(q - seed.q, axis=1), np.inf)
    return JointVector(q[np.argmin(dist)])


# -- trajectory planning ----------------------------------------------------------


def _quintic_s(tau: np.ndarray) -> np.ndarray:
    return 10.0 * tau ** 3 - 15.0 * tau ** 4 + 6.0 * tau ** 5


def _axis_frame(direction: np.ndarray, roll: float) -> np.ndarray:
    """Rotation with z along direction; roll spins about that free axis."""
    x, y, z = axis_basis(direction)
    xr = np.cos(roll) * x + np.sin(roll) * y
    return np.column_stack([xr, np.cross(z, xr), z])


JOINT_SPEED_RAD_S = 0.5
DESCENT_SPEED_MM_S = 5.0


def _axis_target(tool_axis_target, standoff_mm: float):
    """Entry point and unit tool axis of a screw-axis target; raises
    BadInput for a non-finite entry, a zero or non-finite direction, or a
    negative or non-finite standoff."""
    entry, direction = tool_axis_target
    entry = np.asarray(entry, dtype=float)
    direction = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(direction)
    if not np.isfinite(entry).all():
        raise BadInput("tool-axis entry point must be finite")
    if not (np.isfinite(norm) and norm > 0.0):
        raise BadInput("tool-axis direction must be finite and non-zero")
    if not (np.isfinite(standoff_mm) and standoff_mm >= 0.0):
        raise BadInput("standoff must be finite and non-negative")
    return entry, direction / norm


@dataclass(frozen=True)
class _Approach:
    """Phase 1 of a plan: the tool orientation, the ik solution at the
    approach pose, and the joint-space quintic to it as 25 knots."""

    r_tool: np.ndarray
    q: np.ndarray
    knots: Trajectory


def _approach(model: RobotModel, start: JointVector, entry, direction,
              standoff_mm: float, roll) -> _Approach:
    """Phase 1 of a plan at one roll: one ik call, then the quintic knots."""
    r_tool = _axis_frame(direction, roll)
    q_approach = ik(model, RigidTransform(r_tool, entry - standoff_mm * direction),
                    start).q
    dq = q_approach - start.q
    t1 = max(float(np.max(np.abs(dq))) / JOINT_SPEED_RAD_S, 0.5)
    tau = np.linspace(0.0, 1.0, 25)
    knots = Trajectory(t1 * tau, start.q + _quintic_s(tau)[:, None] * dq)
    return _Approach(r_tool, q_approach, knots)


def _descent(model: RobotModel, approach: _Approach, entry, direction,
             standoff_mm: float) -> Trajectory:
    """Phase 2 of a plan: the straight-line descent along the axis onto the
    entry point, one ik per step of at most 1 mm (at least two steps; none
    for a zero standoff), densified. Its first row is the approach's last
    knot."""
    n_steps = max(int(np.ceil(standoff_mm / 1.0)), 2) if standoff_mm > 0.0 else 0
    approach_tip = entry - standoff_mm * direction
    times, joints = [approach.knots.times[-1]], [approach.knots.joints[-1]]
    q_prev = JointVector(approach.q)
    for k in range(1, n_steps + 1):
        tip = approach_tip + (k / n_steps) * standoff_mm * direction
        q_prev = ik(model, RigidTransform(approach.r_tool, tip), q_prev)
        times.append(times[-1] + (standoff_mm / n_steps) / DESCENT_SPEED_MM_S)
        joints.append(q_prev.q)
    return densify(Trajectory(times, joints))


def _joined(approach_rows: Trajectory, descent_rows: Trajectory) -> Trajectory:
    """The densified approach followed by the descent rows it does not hold;
    densify cuts each segment on its own, so this is the densified plan."""
    return Trajectory(np.concatenate([approach_rows.times, descent_rows.times[1:]]),
                      np.concatenate([approach_rows.joints, descent_rows.joints[1:]]))


def plan_trajectory(model: RobotModel, start: JointVector, tool_axis_target,
                    standoff_mm: float, roll: float = 0.0) -> Trajectory:
    """Two-phase plan to a screw axis: joint-space quintic to an approach
    pose (tool axis aligned, tip standoff_mm short of the entry), then a
    straight-line task-space descent along the axis onto the entry point.

    The flange z axis is the tool axis and the flange origin the tool tip.
    A zero standoff collapses to the single approach phase ending on the
    entry point. Raises BadInput for an invalid target or standoff (see
    _axis_target), Unreachable / LimitViolation from ik.
    """
    entry, direction = _axis_target(tool_axis_target, standoff_mm)
    approach = _approach(model, start, entry, direction, standoff_mm, roll)
    return _joined(densify(approach.knots),
                   _descent(model, approach, entry, direction, standoff_mm))


def densify(traj: Trajectory) -> Trajectory:
    """Linear joint-space subdivision until no step exceeds
    MAX_JOINT_STEP_RAD: segment i is cut into n_sub[i] equal steps, sample
    k of it at the fraction k / n_sub[i], k = 1 .. n_sub[i]."""
    t, q = traj.times, traj.joints
    n_sub = np.maximum(np.ceil(np.max(np.abs(np.diff(q, axis=0)), axis=1)
                               / MAX_JOINT_STEP_RAD).astype(int), 1)
    seg = np.repeat(np.arange(len(n_sub)), n_sub)
    k = np.arange(1, len(seg) + 1) - np.repeat(np.cumsum(n_sub) - n_sub, n_sub)
    f = k / n_sub[seg]
    t0, t1, q0, q1 = t[seg], t[seg + 1], q[seg], q[seg + 1]
    return Trajectory(np.concatenate([t[:1], t0 + f * (t1 - t0)]),
                      np.concatenate([q[:1], q0 + f[:, None] * (q1 - q0)]),
                      traj.collision_checked)


# -- collision ---------------------------------------------------------------------


def _segment_distances(p0, p1, q0, q1) -> np.ndarray:
    """Minimum distances between segments [p0, p1] and [q0, q1], endpoint
    arrays (..., 3) broadcast against each other (Ericson, Real-Time
    Collision Detection, 2004, 5.1.9). Either segment may be a point (squared
    length at most 1e-12 mm^2)."""
    d1, d2, r = p1 - p0, q1 - q0, p0 - q0
    a, e, b = row_dot(d1, d1), row_dot(d2, d2), row_dot(d1, d2)
    c, f = row_dot(d1, r), row_dot(d2, r)
    point_p, point_q = a <= 1e-12, e <= 1e-12
    a, e = np.where(point_p, 1.0, a), np.where(point_q, 1.0, e)
    denom = a * e - b * b
    skew = denom > 1e-12  # parallel segments start from s = 0
    s = np.where(skew, np.clip((b * f - c * e) / np.where(skew, denom, 1.0),
                               0.0, 1.0), 0.0)
    t = (b * s + f) / e
    # t off the second segment: clamp it and take s closest to that end
    s = np.where(t < 0.0, np.clip(-c / a, 0.0, 1.0),
                 np.where(t > 1.0, np.clip((b - c) / a, 0.0, 1.0), s))
    t = np.clip(t, 0.0, 1.0)
    s = np.where(point_p, 0.0, np.where(point_q, np.clip(-c / a, 0.0, 1.0), s))
    t = np.where(point_q, 0.0, np.where(point_p, np.clip(f / e, 0.0, 1.0), t))
    gap = (p0 + s[..., None] * d1) - (q0 + t[..., None] * d2)
    return np.sqrt(row_dot(gap, gap))


def _capsule_arrays(capsules):
    """Endpoints p0 (K, 3), p1 (K, 3) and radii (K,) of K capsules."""
    return (np.array([c.p0 for c in capsules]).reshape(-1, 3),
            np.array([c.p1 for c in capsules]).reshape(-1, 3),
            np.array([c.radius for c in capsules], dtype=float))


def _world_axes(model: RobotModel, q):
    """Link index (K,), world axis endpoints p0 and p1 (N, K, 3) and radii
    (K,) of the model's K link capsules, in link order, at joint rows q."""
    link = [i for i, cs in enumerate(model.link_capsules) for _ in cs]
    p0, p1, radii = _capsule_arrays([c for cs in model.link_capsules for c in cs])
    frames = fk_frames(model, np.reshape(q, (-1, 6)))
    m = frames[:, np.array(link, dtype=int) + 1]              # (N, K, 4, 4)
    rot, origin = m[..., :3, :3], m[..., :3, 3]
    return (link, (rot @ p0[..., None])[..., 0] + origin,
            (rot @ p1[..., None])[..., 0] + origin, radii)


def _clearance_table(model: RobotModel, scene: CollisionScene, q):
    """Clearance (mm) of each link capsule to each obstacle at joint rows q
    (N, 6), or one row q: link index (K,) and the table (N, K, M)."""
    q = q.q if isinstance(q, JointVector) else q
    link, p0, p1, radii = _world_axes(model, q)
    o0, o1, o_radii = _capsule_arrays([obs for _, obs in scene.obstacles])
    dist = _segment_distances(p0[:, :, None], p1[:, :, None], o0, o1)
    return link, dist - radii[:, None] - o_radii


def check_collision(model: RobotModel, scene: CollisionScene, q) -> list:
    """All (link_index, obstacle_label, clearance_mm) pairs whose clearance
    is not at least the scene's safety margin (a NaN clearance collides)."""
    link, table = _clearance_table(model, scene, q)
    return [(link[k], scene.obstacles[m][0], float(table[0, k, m]))
            for k, m in zip(*np.nonzero(~(table[0] >= scene.safety_margin)))]


def min_clearance(model: RobotModel, scene: CollisionScene, q) -> float:
    """Smallest clearance over all link/obstacle pairs (inf when empty)."""
    table = _clearance_table(model, scene, q)[1]
    return float(np.min(table)) if table.size else np.inf


def _clear(model: RobotModel, scene: CollisionScene, q) -> bool:
    """Whether every clearance of joint rows q is at least the safety margin."""
    return bool(np.all(_clearance_table(model, scene, q)[1] >= scene.safety_margin))


def plan_safe(model: RobotModel, scene: CollisionScene, start: JointVector,
              tool_axis_target, standoff_mm: float) -> Trajectory:
    """plan_trajectory, densified, with every row's clearance at least the
    safety margin, tried at up to 8 rolls about the free tool axis.

    Each roll checks its densified approach rows first, in one clearance
    table, and runs the descent's ik steps only when they are clear; then
    one table checks the rows the descent added. The densified approach is
    a prefix of the densified plan, so the first clear roll is the one a
    check of whole plans finds.

    Raises BadInput for an invalid target or standoff, NoSafePath when
    every orientation collides (or is unreachable after at least one
    orientation planned), Unreachable when none plans."""
    entry, direction = _axis_target(tool_axis_target, standoff_mm)

    def descent(approach: _Approach):
        """The approach's densified descent, or None where ik fails."""
        try:
            return _descent(model, approach, entry, direction, standoff_mm)
        except (Unreachable, LimitViolation):
            return None

    any_planned, skipped = False, []
    for roll in np.arange(8) * (2.0 * np.pi / 8.0):
        try:
            approach = _approach(model, start, entry, direction, standoff_mm, roll)
        except (Unreachable, LimitViolation):
            continue
        rows = densify(approach.knots)
        if not _clear(model, scene, rows.joints):
            skipped.append(approach)
            continue
        descent_rows = descent(approach)
        if descent_rows is None:
            continue
        any_planned = True
        if _clear(model, scene, descent_rows.joints[1:]):
            return _joined(rows, descent_rows).with_collision_checked()
    # a roll skipped at its approach counts as planned when its descent
    # completes: the first such descent decides between the two errors
    if any_planned or any(descent(a) is not None for a in skipped):
        raise NoSafePath("all candidate approach orientations collide")
    raise Unreachable("no approach orientation is reachable")


# -- default model -----------------------------------------------------------------


def _default_link_capsules(dh_rows) -> tuple:
    """One capsule per link spanning the previous joint origin to the link
    origin, expressed in the link frame (q-independent endpoints). The
    flange additionally carries an off-axis bracket capsule: with a
    spherical wrist the joint-origin capsules are invariant under roll about
    the tool axis, so only an asymmetric wrist body makes roll matter for
    collision avoidance (as it does on a real arm)."""
    radii = (60.0, 60.0, 50.0, 45.0, 40.0, 35.0)
    caps = []
    for (a, alpha, d, _), radius in zip(dh_rows, radii):
        p_prev = np.array([-a, -d * np.sin(alpha), -d * np.cos(alpha)])
        caps.append((Capsule(p_prev, np.zeros(3), radius),))
    bracket = Capsule(np.array([0.0, 0.0, -40.0]), np.array([70.0, 0.0, -40.0]), 25.0)
    caps[5] = (caps[5][0], bracket)
    return tuple(caps)


def default_robot() -> RobotModel:
    """Generic PUMA-type 6R arm: shoulder offset, 420/400 mm links,
    spherical wrist. A stand-in geometry of the DH family RobotModel
    accepts; reach is roughly 900 mm, suiting a desk-scale operating field.
    """
    dh = np.array([
        #   a (mm)  alpha (rad)   d (mm)  theta_offset
        [0.0, -np.pi / 2, 450.0, 0.0],
        [420.0, 0.0, 150.0, 0.0],
        [0.0, -np.pi / 2, 0.0, 0.0],
        [0.0, np.pi / 2, 400.0, 0.0],
        [0.0, -np.pi / 2, 0.0, 0.0],
        [0.0, 0.0, 90.0, 0.0],
    ])
    limits = np.array([
        [-2.967, 2.967],
        [-2.094, 2.094],
        [-2.617, 2.617],
        [-3.054, 3.054],
        [-2.094, 2.094],
        [-3.054, 3.054],
    ])
    return RobotModel(dh, limits, _default_link_capsules(dh))

