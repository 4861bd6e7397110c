"""Six-axis serial-arm kinematics, screw-axis trajectory planning, and
capsule-based collision checking.

The robot is described by standard Denavit-Hartenberg rows; forward
kinematics is the product of the six link transforms, inverse kinematics is
damped least squares with adaptive damping and seeded restarts. Tool-axis
targets are 5-DOF tasks (roll about the tool axis is free), and the planner
exploits that free roll to steer around obstacles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import LimitViolation, NoSafePath, Unreachable
from .geom import RigidTransform, axis_basis, snap_rotation

MAX_JOINT_STEP_RAD = 0.05


@dataclass(frozen=True)
class Capsule:
    """Segment p0-p1 swept by a sphere of the given radius (p0 == p1 is a
    sphere)."""

    p0: np.ndarray
    p1: np.ndarray
    radius: float

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ValueError("capsule radius must be positive")
        for name in ("p0", "p1"):
            v = np.array(getattr(self, name), dtype=float).reshape(3)
            v.setflags(write=False)
            object.__setattr__(self, name, v)


def sphere(center, radius: float) -> Capsule:
    return Capsule(center, center, radius)


@dataclass(frozen=True)
class RobotModel:
    """DH table (a mm, alpha rad, d mm, theta_offset rad), joint limits, and
    per-link collision capsules expressed in each link's frame."""

    dh_rows: np.ndarray      # (6, 4)
    joint_limits: np.ndarray  # (6, 2)
    link_capsules: tuple     # 6 entries, each a tuple of Capsule

    def __post_init__(self):
        dh = np.array(self.dh_rows, dtype=float).reshape(6, 4)
        lim = np.array(self.joint_limits, dtype=float).reshape(6, 2)
        if np.any(lim[:, 0] >= lim[:, 1]):
            raise ValueError("joint limits must satisfy min < max")
        caps = tuple(tuple(c for c in link) for link in self.link_capsules)
        if len(caps) != 6:
            raise ValueError("link_capsules must have one entry per joint")
        dh.setflags(write=False)
        lim.setflags(write=False)
        object.__setattr__(self, "dh_rows", dh)
        object.__setattr__(self, "joint_limits", lim)
        object.__setattr__(self, "link_capsules", caps)

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


@dataclass(frozen=True)
class JointVector:
    """Six joint positions in rad."""

    q: np.ndarray

    def __post_init__(self):
        q = np.array(self.q, dtype=float).reshape(6)
        q.setflags(write=False)
        object.__setattr__(self, "q", q)

    def __eq__(self, other):
        if not isinstance(other, JointVector):
            return NotImplemented
        return np.array_equal(self.q, other.q)

    def __hash__(self):
        return hash(self.q.tobytes())


@dataclass(frozen=True)
class Trajectory:
    """Timed joint-space path. Times strictly increase; after densification
    consecutive joint steps never exceed MAX_JOINT_STEP_RAD."""

    times: np.ndarray        # (S,)
    joints: np.ndarray       # (S, 6)
    planning_mode: str = "two_phase"
    collision_checked: bool = False

    def __post_init__(self):
        t = np.array(self.times, dtype=float).reshape(-1)
        q = np.array(self.joints, dtype=float).reshape(len(t), 6)
        if len(t) < 1:
            raise ValueError("trajectory needs at least one sample")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("trajectory times must strictly increase")
        t.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "joints", q)

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
        rows = [r for r in text.strip().splitlines()[1:] if r]
        vals = np.array([[float(v) for v in r.split(",")] for r in rows])
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
        if self.safety_margin < 0.0:
            raise ValueError("safety margin cannot be negative")
        resolved = []
        for entry in self.obstacles:
            label, capsule = entry[0], entry[1]
            frame = entry[2] if len(entry) > 2 else self.base_frame
            if frame != self.base_frame:
                if self.frame_graph is None:
                    raise ValueError(
                        f"obstacle {label!r} in frame {frame!r} needs a frame_graph")
                t = self.frame_graph.resolve(frame, self.base_frame)
                capsule = Capsule(t.apply(capsule.p0), t.apply(capsule.p1),
                                  capsule.radius)
            resolved.append((label, capsule))
        object.__setattr__(self, "obstacles", tuple(resolved))


# -- forward kinematics ---------------------------------------------------------


def dh_transform(a: float, alpha: float, d: float, theta: float) -> np.ndarray:
    ct, st = np.cos(theta), np.sin(theta)
    ca, sa = np.cos(alpha), np.sin(alpha)
    return np.array([
        [ct, -st * ca, st * sa, a * ct],
        [st, ct * ca, -ct * sa, a * st],
        [0.0, sa, ca, d],
        [0.0, 0.0, 0.0, 1.0],
    ])


def fk_frames(model: RobotModel, q) -> list:
    """Homogeneous base->link_i transforms for i = 0..6 (0 is the base)."""
    q = np.asarray(q, dtype=float)
    frames = [np.eye(4)]
    for i in range(6):
        a, alpha, d, off = model.dh_rows[i]
        frames.append(frames[-1] @ dh_transform(a, alpha, d, q[i] + off))
    return frames


def fk(model: RobotModel, q) -> RigidTransform:
    """Base->flange pose: the product of the six DH link transforms."""
    m = fk_frames(model, q)[-1]
    # six chained float multiplies can drift past the constructor's 1e-9 gate
    return RigidTransform(snap_rotation(m[:3, :3]), m[:3, 3])


def _jacobian(frames: list) -> np.ndarray:
    """Geometric Jacobian from the fk_frames of a configuration."""
    joints = np.array(frames[:6])
    z, p = joints[:, :3, 2], joints[:, :3, 3]
    return np.vstack([np.cross(z, frames[-1][:3, 3] - p).T, z.T])


def jacobian(model: RobotModel, q) -> np.ndarray:
    """Geometric Jacobian at q: rows 0-2 linear (mm/rad), 3-5 angular."""
    return _jacobian(fk_frames(model, q))


def _rotation_log(r: np.ndarray) -> np.ndarray:
    """Rotation vector (axis times angle in [0, pi], rad) of rotation r."""
    s = 0.5 * np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    cos = 0.5 * (np.trace(r) - 1.0)
    angle = np.arctan2(np.linalg.norm(s), cos)
    if cos > -0.5:  # below 120 deg, s = sin(angle) * axis is well conditioned
        return s / np.sinc(angle / np.pi)
    # near pi s vanishes: the symmetric part is (1 - cos) axis axis^T
    b = 0.5 * (r + r.T) - cos * np.eye(3)
    k = int(np.argmax(np.diag(b)))
    axis = b[:, k] / np.linalg.norm(b[:, k])
    return angle * axis if s[k] >= 0.0 else -angle * axis


_ROT_SCALE_MM = 100.0  # characteristic length making rad comparable to mm


def _dls_solve(model: RobotModel, target: RigidTransform, q0: np.ndarray,
               tol_mm: float, tol_rad: float, max_iter: int, damping: float):
    """Damped-least-squares iteration (unconstrained); returns (q, converged)."""
    q = np.asarray(q0, dtype=float).copy()
    lam = damping

    def error(qv):
        """Stacked error, position error (mm), rotation vector (rad), frames."""
        frames = fk_frames(model, qv)
        pos_err = target.translation - frames[-1][:3, 3]
        rot_vec = _rotation_log(target.rotation @ frames[-1][:3, :3].T)
        return (np.concatenate([pos_err, rot_vec * _ROT_SCALE_MM]), pos_err,
                rot_vec, frames)

    e, pos_err, rot_vec, frames = error(q)
    for _ in range(max_iter):
        if np.linalg.norm(pos_err) < tol_mm and np.linalg.norm(rot_vec) < tol_rad:
            return q, True
        j = _jacobian(frames)
        j[3:, :] *= _ROT_SCALE_MM
        jt = j.T
        for _ in range(40):  # adaptive damping: double until the step helps
            step = jt @ np.linalg.solve(j @ jt + lam ** 2 * np.eye(6), e)
            step = np.clip(step, -0.4, 0.4)
            trial = error(q + step)
            if np.linalg.norm(trial[0]) < np.linalg.norm(e):
                q, (e, pos_err, rot_vec, frames) = q + step, trial
                lam = max(damping, lam / 1.5)
                break
            lam *= 2.0
            if lam > 1e6:
                return q, False
        else:
            return q, False
    converged = np.linalg.norm(pos_err) < tol_mm and np.linalg.norm(rot_vec) < tol_rad
    return q, converged


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
       tol_mm: float = 0.01, tol_rad: float = 1e-4, max_iter: int = 200,
       damping: float = 0.01, restarts: int = 8,
       restart_seed: int = 0) -> JointVector:
    """Inverse kinematics by damped least squares with seeded restarts.

    Each attempt converges unconstrained, then revolute joints are wrapped
    by 2 pi into their ranges; a wrapped in-limit solution is returned, so
    the fk round trip of every success is below tolerance by construction.
    Raises Unreachable if no attempt converges, or LimitViolation when
    solutions exist only outside the joint limits.
    """
    converged_any = False
    rng = np.random.default_rng(restart_seed)
    for attempt in range(restarts + 1):
        q0 = (seed.q if attempt == 0 else
              rng.uniform(model.joint_limits[:, 0], model.joint_limits[:, 1]))
        q, ok = _dls_solve(model, target, q0, tol_mm, tol_rad, max_iter, damping)
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


def plan_trajectory(model: RobotModel, start: JointVector, tool_axis_target,
                    standoff_mm: float, roll: float = 0.0,
                    ik_restart_seed: int = 0) -> Trajectory:
    """Two-phase plan to a screw axis: joint-space quintic to an approach
    pose (tool axis aligned, tip standoff_mm short of the entry), then a
    straight-line task-space descent along the axis onto the entry point.

    The flange z axis is the tool axis and the flange origin the tool tip.
    A zero standoff collapses to the single approach phase ending on the
    entry point. Raises Unreachable / LimitViolation from ik.
    """
    entry, direction = tool_axis_target
    entry = np.asarray(entry, dtype=float)
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    r_tool = _axis_frame(direction, roll)

    approach_tip = entry - standoff_mm * direction
    q_approach = ik(model, RigidTransform(r_tool, approach_tip), start,
                    restart_seed=ik_restart_seed).q

    # phase 1: quintic between joint configurations
    dq = q_approach - start.q
    t1 = max(float(np.max(np.abs(dq))) / JOINT_SPEED_RAD_S, 0.5)
    tau = np.linspace(0.0, 1.0, 25)
    times = list(t1 * tau)
    joints = [start.q + s * dq for s in _quintic_s(tau)]

    # phase 2: straight-line descent along the axis
    if standoff_mm > 0.0:
        n_steps = max(int(np.ceil(standoff_mm / 1.0)), 2)
        q_prev = JointVector(q_approach)
        t_now = times[-1]
        for k in range(1, n_steps + 1):
            frac = k / n_steps
            tip = approach_tip + frac * standoff_mm * direction
            q_k = ik(model, RigidTransform(r_tool, tip), q_prev,
                     restart_seed=ik_restart_seed)
            t_now = t_now + (standoff_mm / n_steps) / DESCENT_SPEED_MM_S
            times.append(t_now)
            joints.append(q_k.q)
            q_prev = q_k
        mode = "two_phase"
    else:
        mode = "descent_only"

    traj = Trajectory(np.asarray(times), np.asarray(joints), mode, False)
    return densify(traj)


def densify(traj: Trajectory,
            max_step_rad: float = MAX_JOINT_STEP_RAD) -> Trajectory:
    """Linear joint-space subdivision until no step exceeds max_step_rad."""
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
    return Trajectory(np.asarray(times), np.asarray(joints),
                      traj.planning_mode, traj.collision_checked)


# -- collision ---------------------------------------------------------------------


def segment_segment_distance(p0, p1, q0, q1) -> float:
    """Minimum distance between segments [p0, p1] and [q0, q1]."""
    p0 = np.asarray(p0, float)
    p1 = np.asarray(p1, float)
    q0 = np.asarray(q0, float)
    q1 = np.asarray(q1, float)
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
    closest_p = p0 + s * d1
    closest_q = q0 + t * d2
    return float(np.linalg.norm(closest_p - closest_q))


def capsule_distance(a: Capsule, b: Capsule) -> float:
    """Surface clearance between two capsules (negative when penetrating)."""
    return segment_segment_distance(a.p0, a.p1, b.p0, b.p1) - a.radius - b.radius


def _world_capsules(model: RobotModel, q):
    """Link capsules mapped through the fk chain; yields (link_index, Capsule)."""
    frames = fk_frames(model, q)
    for i, link in enumerate(model.link_capsules):
        m = frames[i + 1]
        for c in link:
            yield i, Capsule(m[:3, :3] @ c.p0 + m[:3, 3],
                             m[:3, :3] @ c.p1 + m[:3, 3], c.radius)


def _clearances(model: RobotModel, scene: CollisionScene, q):
    """Yields (link_index, obstacle_label, clearance_mm) for every pair."""
    q = q.q if isinstance(q, JointVector) else np.asarray(q, dtype=float)
    for link_idx, cap in _world_capsules(model, q):
        for label, obs in scene.obstacles:
            yield link_idx, label, capsule_distance(cap, obs)


def check_collision(model: RobotModel, scene: CollisionScene, q) -> list:
    """All (link_index, obstacle_label, clearance_mm) pairs whose clearance
    falls below the scene's safety margin."""
    return [hit for hit in _clearances(model, scene, q)
            if hit[2] < scene.safety_margin]


def min_clearance(model: RobotModel, scene: CollisionScene, q) -> float:
    """Smallest clearance over all link/obstacle pairs (inf when empty)."""
    return float(min((d for _, _, d in _clearances(model, scene, q)),
                     default=np.inf))


def plan_safe(model: RobotModel, scene: CollisionScene, start: JointVector,
              tool_axis_target, standoff_mm: float,
              ik_restart_seed: int = 0) -> Trajectory:
    """plan_trajectory, densified and checked sample-wise; on collision the
    approach is retried with up to 8 rolls about the free tool axis.

    Raises NoSafePath when every orientation collides (or is unreachable
    after at least one orientation planned)."""
    rolls = np.arange(8) * (2.0 * np.pi / 8.0)
    any_planned = False
    for roll in rolls:
        try:
            traj = plan_trajectory(model, start, tool_axis_target, standoff_mm,
                                   roll=roll, ik_restart_seed=ik_restart_seed)
        except (Unreachable, LimitViolation):
            continue
        any_planned = True
        collides = any(check_collision(model, scene, qrow)
                       for qrow in traj.joints)
        if not collides:
            return traj.with_collision_checked()
    if any_planned:
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
