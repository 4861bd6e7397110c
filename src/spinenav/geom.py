"""Rigid-body transforms, named frames, and the frame graph.

All positions are millimetres. Rotations are stored as 3x3 orthonormal
matrices; quaternions are accepted at I/O boundaries and converted. The frame
graph chains tracker -> reference base -> patient -> image spaces and is
restricted to a forest: one tracking sensor means one spanning reference
chain, so cycles are rejected outright.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import CycleDetected, NoPath

# Frames are plain string identifiers. These are the canonical names used by
# the workflow; the graph accepts any identifier (e.g. an extra tracked guard
# body) with no special semantics.
CANONICAL_FRAMES = (
    "Tracker",
    "DRB",
    "Patient",
    "PreOpImage",
    "IntraOpImage",
    "CArm",
    "ToolBody",
    "ToolTip",
    "RobotBase",
    "RobotFlange",
)

_ORTHO_TOL = 1e-9
_REORTHO_TRIGGER = 1e-12


def _orthonormality_residual(r: np.ndarray):
    """max |R^T R - I| of a 3x3 matrix, or of each matrix in a (..., 3, 3)
    stack."""
    return np.abs(r.swapaxes(-1, -2) @ r - np.eye(3)).max(axis=(-2, -1))


def _polar_orthonormalize(r: np.ndarray) -> np.ndarray:
    """Nearest rotation (polar factor with det +1) to each 3x3 matrix."""
    u, _, vt = np.linalg.svd(r)
    out = u @ vt
    flip = np.linalg.det(out) < 0.0
    out[flip] = u[flip] @ np.diag([1.0, 1.0, -1.0]) @ vt[flip]
    return out


def snap_rotation(r: np.ndarray) -> np.ndarray:
    """r with round-off drift removed: a rotation, or each rotation of a
    (..., 3, 3) stack, whose orthonormality residual exceeds 1e-12 is
    replaced by its polar orthonormalization; the others pass unchanged."""
    drift = _orthonormality_residual(r) > _REORTHO_TRIGGER
    if drift.any():
        r = np.where(drift[..., None, None], _polar_orthonormalize(r), r)
    return r


def cross3(a, b) -> np.ndarray:
    """Cross product of two 3-vectors, or of two stacks given as their
    component rows (3, N), in np.cross's own term order, so it is
    bit-identical to np.cross without that function's per-call set-up."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0],
                    dtype=float)


def axis_basis(direction) -> tuple:
    """Right-handed orthonormal basis (x, y, z) with z along direction.

    x is perpendicular to a helper axis: world x, or world y when direction
    lies within about 26 degrees of world x.
    """
    z = np.asarray(direction, dtype=float)
    z = z / np.linalg.norm(z)
    up = np.array([1.0, 0.0, 0.0]) if abs(z[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    x = cross3(up, z)
    x /= np.linalg.norm(x)
    return x, cross3(z, x), z


@dataclass(frozen=True)
class RigidTransform:
    """Rotation (orthonormal, det +1) plus translation in mm."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.array(self.rotation, dtype=float).reshape(3, 3)
        t = np.array(self.translation, dtype=float).reshape(3)
        # written as not (x <= tol), so a NaN residual fails the gate
        if not _orthonormality_residual(r) <= _ORTHO_TOL:
            raise ValueError("rotation is not orthonormal within 1e-9")
        if not abs(np.linalg.det(r) - 1.0) <= _ORTHO_TOL:
            raise ValueError("rotation determinant is not +1 within 1e-9")
        if not np.isfinite(t).all():
            raise ValueError("translation must be finite")
        r.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    @staticmethod
    def from_quaternion(q, translation=(0.0, 0.0, 0.0)) -> "RigidTransform":
        """Build from a (w, x, y, z) quaternion; normalized before use."""
        w, x, y, z = np.asarray(q, dtype=float) / np.linalg.norm(q)
        r = np.array([
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ])
        return RigidTransform(r, translation)

    @staticmethod
    def from_axis_angle(axis, angle_rad: float, translation=(0.0, 0.0, 0.0)) -> "RigidTransform":
        axis = np.asarray(axis, dtype=float)
        axis = axis / np.linalg.norm(axis)
        k = np.array([
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ])
        r = np.eye(3) + np.sin(angle_rad) * k + (1.0 - np.cos(angle_rad)) * (k @ k)
        return RigidTransform(_polar_orthonormalize(r), translation)

    # -- operations ----------------------------------------------------------

    def apply(self, points):
        """Map one point (3,) or a stack (N, 3) through the transform."""
        p = np.asarray(points, dtype=float)
        return p @ self.rotation.T + self.translation

    def matrix(self) -> np.ndarray:
        """Homogeneous 4x4 form."""
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def __matmul__(self, other: "RigidTransform") -> "RigidTransform":
        return compose(self, other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RigidTransform):
            return NotImplemented
        return (np.array_equal(self.rotation, other.rotation)
                and np.array_equal(self.translation, other.translation))

    def __hash__(self):
        return hash((self.rotation.tobytes(), self.translation.tobytes()))


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """Transform mapping p -> a(b(p)).

    Long compose chains accumulate floating drift, so the rotation goes
    through snap_rotation.
    """
    return RigidTransform(snap_rotation(a.rotation @ b.rotation),
                          a.rotation @ b.translation + a.translation)


def invert(t: RigidTransform) -> RigidTransform:
    """Inverse transform: compose(t, invert(t)) is the identity."""
    r = t.rotation.T
    return RigidTransform(r, -(r @ t.translation))


def transform_point(t: RigidTransform, p):
    """Apply t to a point or point stack (isometry; preserves distances)."""
    return t.apply(p)


# -- JSON wire format --------------------------------------------------------

def transform_to_dict(t: RigidTransform) -> dict:
    """{"r": [9 row-major], "t": [3 mm]}; json keeps >= 15 significant digits."""
    return {"r": [float(v) for v in t.rotation.ravel()],
            "t": [float(v) for v in t.translation]}


def transform_from_dict(d: dict) -> RigidTransform:
    return RigidTransform(np.asarray(d["r"], dtype=float).reshape(3, 3),
                          np.asarray(d["t"], dtype=float))


def transform_to_json(t: RigidTransform) -> str:
    return json.dumps(transform_to_dict(t))


def transform_from_json(s: str) -> RigidTransform:
    return transform_from_dict(json.loads(s))


# -- frame graph -------------------------------------------------------------

@dataclass(frozen=True)
class FrameEdge:
    """Directed edge: transform maps src-frame coordinates to dst-frame."""

    src: str
    dst: str
    transform: RigidTransform
    timestamp: float = 0.0


@dataclass(frozen=True)
class FrameGraph:
    """Immutable forest of frames; updates return new graphs.

    Adding an edge between two already-connected frames raises CycleDetected
    at construction, so every instance is a valid forest by construction and
    path resolution is deterministic.
    """

    edges: tuple = field(default_factory=tuple)

    def __post_init__(self):
        edges = tuple(self.edges)
        object.__setattr__(self, "edges", edges)
        # union-find over frame names rejects cycles
        parent: dict[str, str] = {}

        def find(x: str) -> str:
            while parent.setdefault(x, x) != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e in edges:
            if e.src == e.dst:
                raise CycleDetected(f"self-edge on frame {e.src!r}")
            ra, rb = find(e.src), find(e.dst)
            if ra == rb:
                raise CycleDetected(f"edge {e.src!r}->{e.dst!r} closes a cycle")
            parent[ra] = rb

    def with_edge(self, src: str, dst: str, transform: RigidTransform,
                  timestamp: float = 0.0) -> "FrameGraph":
        return FrameGraph(self.edges + (FrameEdge(src, dst, transform, timestamp),))

    def frames(self) -> set:
        out = set()
        for e in self.edges:
            out.add(e.src)
            out.add(e.dst)
        return out

    def resolve(self, src: str, dst: str) -> RigidTransform:
        return resolve(self, src, dst)


def resolve(graph: FrameGraph, src: str, dst: str) -> RigidTransform:
    """Transform mapping src-frame coordinates into dst-frame coordinates.

    Composes edge transforms along the unique path, inverting edges traversed
    against their direction. Raises NoPath if the frames are disconnected.
    """
    if src == dst:
        return RigidTransform.identity()
    adjacency: dict[str, list] = {}
    for e in graph.edges:
        adjacency.setdefault(e.src, []).append((e.dst, e.transform, True))
        adjacency.setdefault(e.dst, []).append((e.src, e.transform, False))
    if src not in adjacency or dst not in adjacency:
        raise NoPath(f"no path from {src!r} to {dst!r}")

    # BFS on a forest finds the unique path
    prev: dict[str, tuple] = {src: None}
    queue = [src]
    while queue:
        node = queue.pop(0)
        if node == dst:
            break
        for nxt, t, forward in adjacency.get(node, ()):
            if nxt not in prev:
                prev[nxt] = (node, t, forward)
                queue.append(nxt)
    if dst not in prev:
        raise NoPath(f"no path from {src!r} to {dst!r}")

    # walk back dst -> src, composing src->dst
    steps = []
    node = dst
    while node != src:
        parent, t, forward = prev[node]
        steps.append(t if forward else invert(t))
        node = parent
    out = RigidTransform.identity()
    for t in steps:  # steps are ordered dst-side first; compose right-to-left
        out = compose(out, t)
    return out
