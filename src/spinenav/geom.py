"""Rigid-body transforms, named frames, and the frame graph.

All positions are millimetres. Rotations are stored as 3x3 orthonormal
matrices; quaternions are accepted at I/O boundaries and converted. The frame
graph chains tracker -> reference base -> patient -> image spaces and is
restricted to a forest: one tracking sensor means one spanning reference
chain, so cycles are rejected outright.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadInput, CycleDetected, NoPath

_ORTHO_TOL = 1e-9
_REORTHO_TRIGGER = 1e-12


_EYE3 = np.eye(3)


def _orthonormality_residual(r: np.ndarray, axis=(-2, -1)):
    """max |R^T R - I| of a 3x3 matrix, or of each matrix in a (..., 3, 3)
    stack (axis=None: the largest over the whole stack, 0 for an empty one)."""
    return np.abs(r.swapaxes(-1, -2) @ r - _EYE3).max(axis=axis, initial=0.0)


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


def row_dot(a, b) -> np.ndarray:
    """Dot products over the last axis of a and b, broadcast over the
    leading axes, as a stacked matmul: bit-identical to np.dot (and to the
    1-D np.linalg.norm's squared norm) on each pair of rows, which
    norm(axis=...) and einsum are not."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def all_finite(a) -> bool:
    """np.isfinite(a).all(), counted: count_nonzero costs less than all()
    on the small arrays of the value types."""
    return np.count_nonzero(np.isfinite(a)) == a.size


def frozen_array(obj, name: str, value, shape, dtype=float, check: bool = True) -> np.ndarray:
    """Set obj's field name to value as a read-only array copy of the
    declared shape and dtype, and return it. Raises BadInput when value does
    not convert to that shape and dtype, and ("... must be finite") on a NaN
    or infinite entry; check=False leaves that to a type whose own stacked
    guard already rejects non-finite values."""
    try:
        a = np.array(value, dtype=dtype).reshape(shape)
    except (TypeError, ValueError) as err:
        raise BadInput(f"{type(obj).__name__} {name}: {err}") from err
    if check and not all_finite(a):
        raise BadInput(f"{type(obj).__name__} {name} must be finite")
    a.setflags(write=False)
    object.__setattr__(obj, name, a)
    return a


def finite_scalars(obj, *names: str) -> None:
    """Raise BadInput ("... must be finite") unless each named field is."""
    for name in names:
        if not math.isfinite(getattr(obj, name)):
            raise BadInput(f"{type(obj).__name__} {name} must be finite")


class ArrayValue:
    """Equality for frozen dataclasses with array fields (declare them
    eq=False, so dataclass does not shadow these): array fields compare
    with np.array_equal and hash by their bytes (after + 0.0, which folds
    -0.0 into 0.0, so equal values hash alike); other fields use == and
    hash."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__dataclass_fields__)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
                   for a, b in zip(self._values(), other._values()))

    def __hash__(self):
        return hash(tuple((v + 0.0).tobytes() if isinstance(v, np.ndarray) else v
                          for v in self._values()))


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


@dataclass(frozen=True, eq=False)
class RigidTransform(ArrayValue):
    """Rotation (orthonormal, det +1) plus translation in mm."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = frozen_array(self, "rotation", self.rotation, (3, 3))
        t = frozen_array(self, "translation", self.translation, 3, check=False)
        check_rigid(r, t)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    @staticmethod
    def from_quaternion(q) -> "RigidTransform":
        """The rotation of a (w, x, y, z) quaternion, normalized before use."""
        return RigidTransform(quaternion_rotations(q), np.zeros(3))

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
        return rigid_apply(self.rotation, self.translation, points)

    def matrix(self) -> np.ndarray:
        """Homogeneous 4x4 form."""
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def __matmul__(self, other: "RigidTransform") -> "RigidTransform":
        return compose(self, other)


def check_rigid(r: np.ndarray, t: np.ndarray) -> None:
    """RigidTransform's guard on one rotation (3, 3) and translation (3,),
    or once on stacks (T, 3, 3) and (T, 3). Raises BadInput unless every
    rotation is orthonormal with determinant +1 within 1e-9 and every
    translation is finite."""
    # written as not (x <= tol), so a NaN residual fails the gate
    if not _orthonormality_residual(r, axis=None) <= _ORTHO_TOL:
        raise BadInput("rotation is not orthonormal within 1e-9")
    if not np.abs(np.linalg.det(r) - 1.0).max(initial=0.0) <= _ORTHO_TOL:
        raise BadInput("rotation determinant is not +1 within 1e-9")
    if not all_finite(t):
        raise BadInput("translation must be finite")


# Rotation of a unit quaternion (w, x, y, z), row by row: entry k is
# 1 - 2 s_k on the diagonal and 2 s_k off it, with s_k = q_a q_b + sign q_c q_d
# for the columns (a, b, c, d, sign) of _QUATERNION_TERMS (index 0 is w).
# Written out: 1 - 2 (yy + zz), 2 (xy - wz), 2 (xz + wy),
#              2 (xy + wz), 1 - 2 (xx + zz), 2 (yz - wx),
#              2 (xz - wy), 2 (yz + wx), 1 - 2 (xx + yy).
_QUATERNION_TERMS = tuple(np.array(column) for column in zip(
    (2, 2, 3, 3, 1.0), (1, 2, 0, 3, -1.0), (1, 3, 0, 2, 1.0),
    (1, 2, 0, 3, 1.0), (1, 1, 3, 3, 1.0), (2, 3, 0, 1, -1.0),
    (1, 3, 0, 2, -1.0), (2, 3, 0, 1, 1.0), (1, 1, 2, 2, 1.0)))
_DIAGONAL = np.eye(3, dtype=bool).ravel()


def quaternion_rotations(q) -> np.ndarray:
    """Rotation matrix of a (w, x, y, z) quaternion (4,), or of each row of
    a stack (T, 4): (3, 3) or (T, 3, 3). Each quaternion is normalized
    before use."""
    q = np.asarray(q, dtype=float)
    q = q / np.sqrt(row_dot(q, q))[..., None]
    qq = q[..., :, None] * q[..., None, :]
    a, b, c, d, sign = _QUATERNION_TERMS
    s = 2 * (qq[..., a, b] + sign * qq[..., c, d])
    return np.where(_DIAGONAL, 1 - s, s).reshape(q.shape[:-1] + (3, 3))


def rigid_apply(r: np.ndarray, t: np.ndarray, points) -> np.ndarray:
    """points @ r.T + t for one transform, r (3, 3) and t (3,), or for each
    of a stack (..., 3, 3) and (..., 3), on one point (3,), a point set
    (N, 3) or a set per transform (..., N, 3). Bits depend on r's memory
    layout, not on stacking."""
    p = np.asarray(points, dtype=float)
    return p @ r.swapaxes(-1, -2) + (t[..., None, :] if p.ndim > 1 else t)


def rigid_invert(r: np.ndarray, t: np.ndarray) -> tuple:
    """Inverse (r.T, a view, and -(r.T t)) of one transform, r (3, 3) and
    t (3,), or of each of a stack (..., 3, 3) and (..., 3)."""
    rt = r.swapaxes(-1, -2)
    return rt, -(rt @ t[..., None])[..., 0]


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """Transform mapping p -> a(b(p)).

    Long compose chains accumulate floating drift, so the rotation goes
    through snap_rotation.
    """
    return RigidTransform(snap_rotation(a.rotation @ b.rotation),
                          a.rotation @ b.translation + a.translation)


def invert(t: RigidTransform) -> RigidTransform:
    """Inverse transform: compose(t, invert(t)) is the identity."""
    return RigidTransform(*rigid_invert(t.rotation, t.translation))


# -- JSON wire format --------------------------------------------------------

def transform_to_dict(t: RigidTransform) -> dict:
    """{"r": [9 row-major], "t": [3 mm]}; json keeps >= 15 significant digits."""
    return {"r": [float(v) for v in t.rotation.ravel()],
            "t": [float(v) for v in t.translation]}


def transform_from_dict(d: dict) -> RigidTransform:
    return RigidTransform(np.asarray(d["r"], dtype=float).reshape(3, 3),
                          np.asarray(d["t"], dtype=float))


# -- frame graph -------------------------------------------------------------

@dataclass(frozen=True)
class FrameEdge:
    """Directed edge: transform maps src-frame coordinates to dst-frame."""

    src: str
    dst: str
    transform: RigidTransform


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

    def with_edge(self, src: str, dst: str, transform: RigidTransform) -> "FrameGraph":
        return FrameGraph(self.edges + (FrameEdge(src, dst, transform),))


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
