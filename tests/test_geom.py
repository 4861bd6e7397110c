import numpy as np
import pytest

from spinenav.errors import CycleDetected, NoPath
from spinenav.geom import (
    FrameGraph,
    RigidTransform,
    axis_basis,
    compose,
    cross3,
    invert,
    quaternion_rotations,
    resolve,
    rigid_apply,
    rigid_invert,
    snap_rotation,
)

from _helpers import random_rigid, random_rotation

RZ90 = RigidTransform.from_axis_angle((0, 0, 1), np.pi / 2)


def test_compose_identity_left():
    t = random_rigid(np.random.default_rng(1))
    out = compose(RigidTransform.identity(), t)
    assert np.allclose(out.rotation, t.rotation, atol=1e-15)
    assert np.allclose(out.translation, t.translation, atol=1e-15)


def test_compose_with_inverse_is_identity():
    t = random_rigid(np.random.default_rng(2))
    out = compose(t, invert(t))
    assert np.allclose(out.rotation, np.eye(3), atol=1e-12)
    assert np.allclose(out.translation, 0.0, atol=1e-12)


def test_compose_two_quarter_turns():
    out = compose(RZ90, RZ90)
    assert np.allclose(out.apply([1.0, 0.0, 0.0]), [-1.0, 0.0, 0.0], atol=1e-12)


def test_invert_identity():
    out = invert(RigidTransform.identity())
    assert np.allclose(out.matrix(), np.eye(4), atol=1e-15)


def test_invert_pure_translation():
    t = RigidTransform(np.eye(3), [5.0, 0.0, 0.0])
    assert np.allclose(invert(t).translation, [-5.0, 0.0, 0.0], atol=1e-15)


def test_invert_round_trip_1000_random():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        t = random_rigid(rng)
        rt = compose(t, invert(t))
        assert np.max(np.abs(rt.rotation - np.eye(3))) < 1e-12
        assert np.max(np.abs(rt.translation)) < 1e-12


def test_transform_point_identity():
    assert np.allclose(RigidTransform.identity().apply([1, 2, 3]), [1, 2, 3])


def test_transform_point_translation():
    t = RigidTransform(np.eye(3), [0, 0, 10])
    assert np.allclose(t.apply([0, 0, 0]), [0, 0, 10])


def test_transform_point_rotation():
    assert np.allclose(RZ90.apply([1, 0, 0]), [0, 1, 0], atol=1e-12)


def test_transform_point_preserves_pairwise_distances():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-100, 100, size=(10, 3))
    t = random_rigid(rng)
    mapped = t.apply(pts)
    d0 = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    d1 = np.linalg.norm(mapped[:, None, :] - mapped[None, :, :], axis=2)
    assert np.max(np.abs(d0 - d1)) < 1e-9


# The formulas the kernels replaced: RigidTransform.apply and geom.invert
# one transform at a time, then the hand-written stacked forms of the study
# chains (points @ R^T + t), the C-arm views ((-R) @ src) and the capsule
# endpoints (the column form over (N, K) frames).
def _apply_one(r, t, points):
    return np.asarray(points, dtype=float) @ r.T + t


def _invert_one(r, t):
    return r.T, -(r.T @ t)


def _rotations(layout, rng, count):
    """count random rotations in one memory layout a kernel caller passes:
    quaternion_rotations' own strided stack, its C-contiguous copy (what
    RigidTransform stores) or a transposed view (the C-arm views)."""
    native = quaternion_rotations(rng.normal(size=(count, 4)))
    assert not native.flags.c_contiguous
    c_stack = np.ascontiguousarray(native)
    return {"quaternion": native, "c_contiguous": c_stack,
            "swapaxes": c_stack.swapaxes(1, 2)}[layout]


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(
        np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("layout", ["quaternion", "c_contiguous", "swapaxes"])
def test_rigid_kernels_match_the_replaced_formulas_bit_for_bit(layout):
    # a product's bits depend on the matrices' memory layout, so each layout
    # a caller passes is checked on its own
    count, n = 5000, 4
    rng = np.random.default_rng(2100)
    r = _rotations(layout, rng, count)
    t = rng.uniform(-300.0, 300.0, size=(count, 3))
    shared = rng.uniform(-200.0, 200.0, size=(n, 3))
    own = rng.uniform(-200.0, 200.0, size=(count, n, 3))
    one = rng.uniform(-200.0, 200.0, size=(count, 3))
    stacked_point = rigid_apply(r, t, shared[0])
    stacked_shared = rigid_apply(r, t, shared)
    stacked_own = rigid_apply(r, t, own)
    stacked_inverse = rigid_invert(r, t)
    for k in range(count):
        assert _same_bits(rigid_apply(r[k], t[k], one[k]), _apply_one(r[k], t[k], one[k]))
        assert _same_bits(rigid_apply(r[k], t[k], own[k]), _apply_one(r[k], t[k], own[k]))
        assert _same_bits(stacked_point[k], _apply_one(r[k], t[k], shared[0]))
        assert _same_bits(stacked_shared[k], _apply_one(r[k], t[k], shared))
        assert _same_bits(stacked_own[k], _apply_one(r[k], t[k], own[k]))
        inverse = _invert_one(r[k], t[k])
        for got in (rigid_invert(r[k], t[k]), (stacked_inverse[0][k], stacked_inverse[1][k])):
            assert got[0].strides == inverse[0].strides
            assert _same_bits(got[0], inverse[0]) and _same_bits(got[1], inverse[1])
    assert _same_bits(stacked_shared, shared @ r.transpose(0, 2, 1) + t[:, None, :])
    assert _same_bits(rigid_invert(r.swapaxes(1, 2), t)[1], ((-r) @ t[:, :, None])[:, :, 0])


def test_rotation_stays_orthonormal_over_long_chains():
    rng = np.random.default_rng(11)
    t = RigidTransform.identity()
    step = random_rigid(rng)
    for _ in range(2000):
        t = compose(t, step)
    assert np.max(np.abs(t.rotation.T @ t.rotation - np.eye(3))) < 1e-9
    assert abs(np.linalg.det(t.rotation) - 1.0) < 1e-9


def test_snap_rotation_snaps_each_drifted_matrix_alone():
    rng = np.random.default_rng(11)
    rots = np.array([random_rotation(rng) for _ in range(4)])
    rotation = rots[0]
    assert snap_rotation(rotation) is rotation
    drifted = rots.copy()
    drifted[1] *= 1.0 + 1e-7
    drifted[3] *= -(1.0 + 1e-7)  # a drifted reflection snaps to a rotation
    out = snap_rotation(drifted)
    assert np.array_equal(out[[0, 2]], rots[[0, 2]])
    for i in (1, 3):
        assert np.array_equal(out[i], snap_rotation(drifted[i]))
        assert np.max(np.abs(out[i].T @ out[i] - np.eye(3))) < 1e-12
        assert np.linalg.det(out[i]) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(out[1], rots[1], atol=1e-12)


def test_axis_basis_is_right_handed_along_direction():
    rng = np.random.default_rng(12)
    directions = np.vstack([rng.normal(size=(200, 3)), np.eye(3), -np.eye(3),
                            [[0.9, 0.1, 0.0], [0.95, 0.0, 0.1]]])
    for d in directions:
        x, y, z = axis_basis(d)
        r = np.column_stack([x, y, z])
        assert np.allclose(z, d / np.linalg.norm(d), atol=1e-15)
        assert np.allclose(r.T @ r, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


def test_cross3_is_np_cross_bit_for_bit():
    rng = np.random.default_rng(13)
    special = [0.0, -0.0, 1.0, -1.0, 1e-300, 1e300]
    vectors = np.vstack([rng.normal(size=(500, 3)) * 10.0 ** rng.integers(-8, 8, size=(500, 1)),
                         rng.choice(special, size=(100, 3))])
    for a, b in zip(vectors, vectors[::-1]):
        c = cross3(a, b)
        assert c.dtype == np.float64
        # tobytes also tells -0.0 from 0.0
        assert c.tobytes() == np.cross(a, b).tobytes()
    assert cross3((0.0, 0.0, 1.0), (1.0, 0.0, 0.0)).tolist() == [0.0, 1.0, 0.0]


def test_invalid_rotation_rejected():
    with pytest.raises(ValueError):
        RigidTransform(np.eye(3) * 2.0, np.zeros(3))
    with pytest.raises(ValueError):
        RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))  # reflection


@pytest.mark.parametrize("rotation, translation", [
    (np.full((3, 3), np.nan), np.zeros(3)),
    (np.diag([1.0, 1.0, np.inf]), np.zeros(3)),
    (np.eye(3), [np.nan, 0.0, 0.0]),
    (np.eye(3), [0.0, -np.inf, 0.0]),
], ids=["rotation-nan", "rotation-inf", "translation-nan", "translation-inf"])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0
def test_non_finite_transform_rejected(rotation, translation):
    with pytest.raises(ValueError):
        RigidTransform(rotation, translation)


def test_quaternion_boundary_conversion():
    t = RigidTransform.from_quaternion([np.cos(np.pi / 4), 0, 0, np.sin(np.pi / 4)])
    assert np.allclose(t.apply([1, 0, 0]), [0, 1, 0], atol=1e-12)


# -- frame graph --------------------------------------------------------------


def _chain_graph():
    g = FrameGraph()
    g = g.with_edge("A", "B", RigidTransform(np.eye(3), [1, 0, 0]))
    g = g.with_edge("B", "C", RigidTransform(np.eye(3), [1, 0, 0]))
    return g


def test_resolve_self_is_identity():
    assert np.allclose(resolve(_chain_graph(), "A", "A").matrix(), np.eye(4))


def test_resolve_chain_translations():
    t = resolve(_chain_graph(), "A", "C")
    assert np.allclose(t.translation, [2, 0, 0], atol=1e-15)


def test_resolve_reverse_is_inverse():
    rng = np.random.default_rng(3)
    for _ in range(200):
        g, nodes = _random_tree(rng, 8)
        a, c = rng.choice(nodes, size=2, replace=False)
        fwd = resolve(g, a, c)
        back = resolve(g, c, a)
        rt = compose(fwd, back)
        assert np.max(np.abs(rt.rotation - np.eye(3))) < 1e-10
        assert np.max(np.abs(rt.translation)) < 1e-10


def _random_tree(rng, n_nodes):
    nodes = ["F0"]
    g = FrameGraph()
    for i in range(1, n_nodes):
        parent = nodes[rng.integers(0, len(nodes))]
        child = f"F{i}"
        t = random_rigid(rng)
        if rng.uniform() < 0.5:
            g = g.with_edge(parent, child, t)
        else:
            g = g.with_edge(child, parent, t)
        nodes.append(child)
    return g, nodes


def test_resolve_chain_identity_1000_random_trees():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        g, nodes = _random_tree(rng, 6)
        a, b, c = rng.choice(nodes, size=3, replace=False)
        direct = resolve(g, a, c)
        chained = compose(resolve(g, b, c), resolve(g, a, b))
        assert np.max(np.abs(direct.rotation - chained.rotation)) < 1e-10
        assert np.max(np.abs(direct.translation - chained.translation)) < 1e-10


def test_no_path_between_disconnected_frames():
    g = FrameGraph().with_edge("A", "B", RigidTransform.identity())
    g = g.with_edge("C", "D", RigidTransform.identity())
    with pytest.raises(NoPath):
        resolve(g, "A", "C")
    with pytest.raises(NoPath):
        resolve(g, "A", "Unknown")


def test_cycle_rejected():
    g = _chain_graph()
    with pytest.raises(CycleDetected):
        g.with_edge("C", "A", RigidTransform.identity())
    with pytest.raises(CycleDetected):
        g.with_edge("A", "A", RigidTransform.identity())
