"""Six-axis serial-arm kinematics, screw-axis trajectory planning, and
capsule-based collision checking.

The robot is described by standard Denavit-Hartenberg rows; forward
kinematics is the product of the six link transforms, for one joint row or a
stack of rows, and inverse kinematics is damped least squares with adaptive
damping and seeded restarts. Tool-axis targets are 5-DOF tasks (roll about
the tool axis is free), and the planner exploits that free roll to steer
around obstacles. Collision checking fills one clearance table (rows x link
capsules x obstacles) per planning phase; one-configuration queries are
one-row views of it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadInput, LimitViolation, NoSafePath, Unreachable
from .geom import ArrayValue, RigidTransform, axis_basis, cross3, frozen_array, snap_rotation

MAX_JOINT_STEP_RAD = 0.05
# inverse kinematics: convergence tolerances, iteration cap, damping floor
# and the number of random restarts after the seeded attempt
IK_TOL_MM = 0.01
IK_TOL_RAD = 1e-4
IK_MAX_ITER = 200
IK_DAMPING = 0.01
IK_RESTARTS = 8


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

    reach_mm bounds the flange's distance from the base origin for any joint
    values: each link moves its frame origin by (a cos, a sin, d), so by the
    triangle inequality no flange lies farther out than the sum of the
    sqrt(a^2 + d^2) (about 1,386 mm for default_robot)."""

    dh_rows: np.ndarray      # (6, 4)
    joint_limits: np.ndarray  # (6, 2)
    link_capsules: tuple     # 6 entries, each a tuple of Capsule

    def __post_init__(self):
        dh = frozen_array(self, "dh_rows", self.dh_rows, (6, 4))
        lim = frozen_array(self, "joint_limits", self.joint_limits, (6, 2))
        if np.any(lim[:, 0] >= lim[:, 1]):
            raise BadInput("joint limits must satisfy min < max")
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
        object.__setattr__(self, "reach_mm", float(np.sum(np.hypot(dh[:, 0], dh[:, 2]))))

    def clamp(self, q: np.ndarray) -> np.ndarray:
        return np.clip(q, self.joint_limits[:, 0], self.joint_limits[:, 1])

    def within_limits(self, q, tol: float = 1e-9) -> bool:
        q = np.asarray(q, dtype=float)
        return bool(np.all(q >= self.joint_limits[:, 0] - tol)
                    and np.all(q <= self.joint_limits[:, 1] + tol))

    def to_dict(self) -> dict:
        return {
            "dh_rows": [[float(v) for v in row] for row in self.dh_rows],
            "joint_limits": [[float(v) for v in row] for row in self.joint_limits],
            "link_capsules": [
                [{"p0": [float(v) for v in c.p0], "p1": [float(v) for v in c.p1],
                  "radius": c.radius} for c in link]
                for link in self.link_capsules],
        }

    @staticmethod
    def from_dict(d: dict) -> "RobotModel":
        caps = tuple(tuple(Capsule(np.asarray(c["p0"]), np.asarray(c["p1"]),
                                   float(c["radius"])) for c in link)
                     for link in d["link_capsules"])
        return RobotModel(np.asarray(d["dh_rows"], float),
                          np.asarray(d["joint_limits"], float), caps)


@dataclass(frozen=True, eq=False)
class JointVector(ArrayValue):
    """Six joint positions in rad."""

    q: np.ndarray

    def __post_init__(self):
        frozen_array(self, "q", self.q, 6)


@dataclass(frozen=True, eq=False)
class Trajectory(ArrayValue):
    """Timed joint-space path. Times strictly increase; after densification
    consecutive joint steps never exceed MAX_JOINT_STEP_RAD."""

    times: np.ndarray        # (S,)
    joints: np.ndarray       # (S, 6)
    planning_mode: str = "two_phase"
    collision_checked: bool = False

    def __post_init__(self):
        t = frozen_array(self, "times", self.times, -1)
        frozen_array(self, "joints", self.joints, (len(t), 6))
        if len(t) < 1:
            raise BadInput("trajectory needs at least one sample")
        if np.any(np.diff(t) <= 0.0):
            raise BadInput("trajectory times must strictly increase")

    def __len__(self):
        return len(self.times)

    def max_step_rad(self) -> float:
        if len(self.times) < 2:
            return 0.0
        return float(np.max(np.abs(np.diff(self.joints, axis=0))))

    def final_joints(self) -> np.ndarray:
        return self.joints[-1]

    def with_collision_checked(self) -> "Trajectory":
        return Trajectory(self.times, self.joints, self.planning_mode, True)

    def to_csv(self) -> str:
        lines = ["time_s,q1,q2,q3,q4,q5,q6"]
        for t, q in zip(self.times, self.joints):
            lines.append(",".join([repr(float(t))] + [repr(float(v)) for v in q]))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_csv(text: str, planning_mode: str = "loaded",
                 collision_checked: bool = False) -> "Trajectory":
        rows = [r.split(",") for r in text.strip().splitlines()[1:] if r]
        if not rows:
            raise BadInput("trajectory CSV has no sample rows")
        short = [k for k, fields in enumerate(rows, start=1) if len(fields) != 7]
        if short:
            raise BadInput(f"trajectory CSV sample row {short[0]} does not have "
                           "7 fields (time_s, q1-q6)")
        vals = np.array([[float(v) for v in fields] for fields in rows])
        return Trajectory(vals[:, 0], vals[:, 1:7], planning_mode, collision_checked)


@dataclass(frozen=True)
class CollisionScene:
    """Labeled capsule/sphere obstacles, each expressed in a named frame.

    Obstacle entries are (label, Capsule) for robot-base coordinates or
    (label, Capsule, frame). Frames other than the base need a frame_graph
    that resolves them into base_frame; resolution happens once here, so
    collision queries never re-walk the graph.
    """

    obstacles: tuple
    safety_margin: float = 0.0
    frame_graph: object = None
    base_frame: str = "RobotBase"

    def __post_init__(self):
        if not (np.isfinite(self.safety_margin) and self.safety_margin >= 0.0):
            raise BadInput("safety margin must be finite and non-negative")
        resolved = []
        for entry in self.obstacles:
            label, capsule = entry[0], entry[1]
            frame = entry[2] if len(entry) > 2 else self.base_frame
            if frame != self.base_frame:
                if self.frame_graph is None:
                    raise BadInput(
                        f"obstacle {label!r} in frame {frame!r} needs a frame_graph")
                t = self.frame_graph.resolve(frame, self.base_frame)
                capsule = Capsule(t.apply(capsule.p0), t.apply(capsule.p1),
                                  capsule.radius)
            resolved.append((label, capsule))
        object.__setattr__(self, "obstacles", tuple(resolved))


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


def _jacobian(frames: np.ndarray) -> np.ndarray:
    """Geometric Jacobian from the fk_frames of a configuration, built in
    Fortran order: the damped step's j @ j.T rounds differently for a
    C-order array, and every plan's joints would change in the last bits."""
    z, p = frames[:6, :3, 2], frames[:6, :3, 3]
    j = np.empty((6, 6), order="F")
    j[:3] = cross3(z.T, (frames[-1][:3, 3] - p).T)
    j[3:] = z.T
    return j


def jacobian(model: RobotModel, q) -> np.ndarray:
    """Geometric Jacobian at q: rows 0-2 linear (mm/rad), 3-5 angular."""
    return _jacobian(fk_frames(model, q))


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D array, rounded as np.linalg.norm rounds it."""
    return math.sqrt(v @ v)


def _rotation_log(r: np.ndarray) -> np.ndarray:
    """Rotation vector (axis times angle in [0, pi], rad) of rotation r."""
    s = 0.5 * np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    cos = 0.5 * (np.trace(r) - 1.0)
    angle = np.arctan2(_norm(s), cos)
    if cos > -0.5:  # below 120 deg, s = sin(angle) * axis is well conditioned
        x = angle / np.pi  # s / sinc(x), with np.sinc's own y = pi * x
        y = np.pi * (x if x != 0.0 else 1e-20)
        return s / (np.sin(y) / y)
    # near pi s vanishes: the symmetric part is (1 - cos) axis axis^T
    b = 0.5 * (r + r.T) - cos * np.eye(3)
    k = int(np.argmax(np.diag(b)))
    axis = b[:, k] / _norm(b[:, k])
    return angle * axis if s[k] >= 0.0 else -angle * axis


_ROT_SCALE_MM = 100.0  # characteristic length making rad comparable to mm
_EYE6 = np.eye(6)


def _dls_solve(model: RobotModel, target: RigidTransform, q0: np.ndarray):
    """Damped-least-squares iteration (unconstrained); returns (q, converged)."""
    q = np.asarray(q0, dtype=float).copy()
    lam = IK_DAMPING

    def error(qv):
        """Stacked error, position error (mm), rotation vector (rad), frames."""
        frames = fk_frames(model, qv)
        pos_err = target.translation - frames[-1][:3, 3]
        rot_vec = _rotation_log(target.rotation @ frames[-1][:3, :3].T)
        return (np.concatenate([pos_err, rot_vec * _ROT_SCALE_MM]), pos_err,
                rot_vec, frames)

    e, pos_err, rot_vec, frames = error(q)
    for _ in range(IK_MAX_ITER):
        if _norm(pos_err) < IK_TOL_MM and _norm(rot_vec) < IK_TOL_RAD:
            return q, True
        j = _jacobian(frames)
        j[3:, :] *= _ROT_SCALE_MM
        jt = j.T
        e_norm = _norm(e)
        for _ in range(40):  # adaptive damping: double until the step helps
            step = jt @ np.linalg.solve(j @ jt + lam ** 2 * _EYE6, e)
            step = np.clip(step, -0.4, 0.4)
            trial = error(q + step)
            if _norm(trial[0]) < e_norm:
                q, (e, pos_err, rot_vec, frames) = q + step, trial
                lam = max(IK_DAMPING, lam / 1.5)
                break
            lam *= 2.0
            if lam > 1e6:
                return q, False
        else:
            return q, False
    return q, bool(_norm(pos_err) < IK_TOL_MM and _norm(rot_vec) < IK_TOL_RAD)


def _wrap_into_limits(model: RobotModel, q: np.ndarray) -> np.ndarray:
    """Shift revolute joints by multiples of 2 pi into their limit ranges
    where possible (fk is invariant); out-of-range values pass through."""
    out = q.copy()
    for i in range(6):
        lo, hi = model.joint_limits[i]
        if lo <= out[i] <= hi:
            continue
        for k in (-2, -1, 1, 2):
            cand = out[i] + 2.0 * np.pi * k
            if lo <= cand <= hi:
                out[i] = cand
                break
    return out


def ik(model: RobotModel, target: RigidTransform, seed: JointVector,
       restart_seed: int = 0) -> JointVector:
    """Inverse kinematics by damped least squares with seeded restarts.

    Each attempt converges unconstrained, then revolute joints are wrapped
    by 2 pi into their ranges; a wrapped in-limit solution is returned, so
    the fk round trip of every success is below tolerance by construction.
    Raises Unreachable if no attempt converges, at once when the target lies
    beyond model.reach_mm plus the position tolerance (no attempt could
    converge there), or LimitViolation when solutions exist only outside
    the joint limits.
    """
    if _norm(target.translation) > model.reach_mm + IK_TOL_MM:
        raise Unreachable(f"target lies beyond the arm's {model.reach_mm:.1f} mm reach")
    converged_any = False
    for attempt in range(IK_RESTARTS + 1):
        if attempt == 1:  # most calls converge from the seed: no generator
            rng = np.random.default_rng(restart_seed)
        q0 = (seed.q if attempt == 0 else
              rng.uniform(model.joint_limits[:, 0], model.joint_limits[:, 1]))
        q, ok = _dls_solve(model, target, q0)
        if ok:
            converged_any = True
            q = _wrap_into_limits(model, q)
            if model.within_limits(q):
                return JointVector(q)
    if converged_any:
        raise LimitViolation("target reachable only outside joint limits")
    raise Unreachable("inverse kinematics failed from seed and restarts")


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
              standoff_mm: float, roll, ik_restart_seed: int) -> _Approach:
    """Phase 1 of a plan at one roll: one ik call, then the quintic knots."""
    r_tool = _axis_frame(direction, roll)
    q_approach = ik(model, RigidTransform(r_tool, entry - standoff_mm * direction),
                    start, restart_seed=ik_restart_seed).q
    dq = q_approach - start.q
    t1 = max(float(np.max(np.abs(dq))) / JOINT_SPEED_RAD_S, 0.5)
    tau = np.linspace(0.0, 1.0, 25)
    knots = Trajectory(t1 * tau, start.q + _quintic_s(tau)[:, None] * dq)
    return _Approach(r_tool, q_approach, knots)


def _descent(model: RobotModel, approach: _Approach, entry, direction,
             standoff_mm: float, ik_restart_seed: int) -> Trajectory:
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
        q_prev = ik(model, RigidTransform(approach.r_tool, tip), q_prev,
                    restart_seed=ik_restart_seed)
        times.append(times[-1] + (standoff_mm / n_steps) / DESCENT_SPEED_MM_S)
        joints.append(q_prev.q)
    return densify(Trajectory(times, joints))


def _joined(approach_rows: Trajectory, descent_rows: Trajectory) -> Trajectory:
    """The densified approach followed by the descent rows it does not hold;
    densify cuts each segment on its own, so this is the densified plan."""
    return Trajectory(np.concatenate([approach_rows.times, descent_rows.times[1:]]),
                      np.concatenate([approach_rows.joints, descent_rows.joints[1:]]),
                      "two_phase" if len(descent_rows) > 1 else "descent_only")


def plan_trajectory(model: RobotModel, start: JointVector, tool_axis_target,
                    standoff_mm: float, roll: float = 0.0,
                    ik_restart_seed: int = 0) -> Trajectory:
    """Two-phase plan to a screw axis: joint-space quintic to an approach
    pose (tool axis aligned, tip standoff_mm short of the entry), then a
    straight-line task-space descent along the axis onto the entry point.

    The flange z axis is the tool axis and the flange origin the tool tip.
    A zero standoff collapses to the single approach phase ending on the
    entry point. Raises BadInput for an invalid target or standoff (see
    _axis_target), Unreachable / LimitViolation from ik.
    """
    entry, direction = _axis_target(tool_axis_target, standoff_mm)
    approach = _approach(model, start, entry, direction, standoff_mm, roll,
                         ik_restart_seed)
    return _joined(densify(approach.knots),
                   _descent(model, approach, entry, direction, standoff_mm,
                            ik_restart_seed))


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
                      traj.planning_mode, traj.collision_checked)


# -- collision ---------------------------------------------------------------------


def _segment_distances(p0, p1, q0, q1) -> np.ndarray:
    """Minimum distances between segments [p0, p1] and [q0, q1], endpoint
    arrays (..., 3) broadcast against each other (Ericson, Real-Time
    Collision Detection, 2004, 5.1.9). Either segment may be a point (squared
    length at most 1e-12 mm^2)."""
    def dot(u, v):  # stacked (1, 3) @ (3, 1): rounds as u @ v does for one pair
        return (u[..., None, :] @ v[..., :, None])[..., 0, 0]

    d1, d2, r = p1 - p0, q1 - q0, p0 - q0
    a, e, b, c, f = dot(d1, d1), dot(d2, d2), dot(d1, d2), dot(d1, r), dot(d2, r)
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
    return np.sqrt(dot(gap, gap))


def segment_segment_distance(p0, p1, q0, q1) -> float:
    """Minimum distance between segments [p0, p1] and [q0, q1]."""
    return float(_segment_distances(*(np.asarray(v, dtype=float)
                                      for v in (p0, p1, q0, q1))))


def capsule_distance(a: Capsule, b: Capsule) -> float:
    """Surface clearance between two capsules (negative when penetrating)."""
    return segment_segment_distance(a.p0, a.p1, b.p0, b.p1) - a.radius - b.radius


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


def _world_capsules(model: RobotModel, q):
    """Link capsules mapped through the fk chain; yields (link_index, Capsule)."""
    link, p0, p1, radii = _world_axes(model, q)
    for k, i in enumerate(link):
        yield i, Capsule(p0[0, k], p1[0, k], radii[k])


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
              tool_axis_target, standoff_mm: float,
              ik_restart_seed: int = 0) -> Trajectory:
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
            return _descent(model, approach, entry, direction, standoff_mm,
                            ik_restart_seed)
        except (Unreachable, LimitViolation):
            return None

    any_planned, skipped = False, []
    for roll in np.arange(8) * (2.0 * np.pi / 8.0):
        try:
            approach = _approach(model, start, entry, direction, standoff_mm, roll,
                                 ik_restart_seed)
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
    """Generic 6R arm: shoulder offset, 420/400 mm links, spherical wrist.

    A stand-in geometry; any arm with the same interface works. Reach is
    roughly 900 mm, suiting a desk-scale operating field.
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


def robot_to_json(model: RobotModel) -> str:
    return json.dumps(model.to_dict())


def robot_from_json(s: str) -> RobotModel:
    return RobotModel.from_dict(json.loads(s))
