import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinenav.errors import BadInput, DegenerateGeometry, LabelMismatch, TooFewPoints
from spinenav.geom import RigidTransform, compose, invert
from spinenav import meshes
from spinenav.meshes import bumpy_ellipsoid, icosphere, sample_surface_points
from spinenav.registration import (
    FiducialSet,
    RegistrationResult,
    SurfaceModel,
    _closest_point_triangles,
    closest_points_on_mesh,
    fit_rigid,
    fit_rigid_batch,
    icp_register,
    predict_tre,
    register_points,
    rmse_paired,
    verify_registration,
)

from _helpers import random_noncollinear_points, random_rigid

RZ90 = RigidTransform.from_axis_angle((0, 0, 1), np.pi / 2, (10.0, 0.0, 0.0))


def _fidset(points, frame="Patient", prefix="F"):
    points = np.asarray(points, dtype=float)
    return FiducialSet(frame, tuple(f"{prefix}{i}" for i in range(len(points))), points)


TETRA = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0],
                  [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])


# -- register_points ----------------------------------------------------------


def test_register_identity_case():
    s = _fidset(TETRA * 20.0)
    res = register_points(s, s)
    assert res.fre_rms == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(res.transform.matrix(), np.eye(4), atol=1e-12)


def test_register_recovers_known_transform_exactly():
    moving = _fidset(TETRA * 25.0)
    fixed = FiducialSet("PreOpImage", moving.labels, RZ90.apply(moving.points))
    res = register_points(fixed, moving)
    assert res.fre_rms < 1e-9
    assert np.max(np.abs(res.transform.rotation - RZ90.rotation)) < 1e-9
    assert np.max(np.abs(res.transform.translation - RZ90.translation)) < 1e-9


def test_register_matches_by_label_not_order():
    moving = _fidset(TETRA * 25.0)
    perm = [2, 0, 3, 1]
    fixed = FiducialSet("PreOpImage", tuple(moving.labels[i] for i in perm),
                        RZ90.apply(moving.points[perm]))
    res = register_points(fixed, moving)
    assert res.fre_rms < 1e-9


def test_register_noise_free_exactness_1000_cases():
    rng = np.random.default_rng(100)
    for _ in range(1000):
        n = int(rng.integers(3, 11))
        pts = random_noncollinear_points(rng, n)
        t = random_rigid(rng)
        moving = _fidset(pts)
        fixed = FiducialSet("PreOpImage", moving.labels, t.apply(pts))
        res = register_points(fixed, moving)
        assert res.fre_rms < 1e-9


def test_register_result_is_local_optimum():
    rng = np.random.default_rng(200)
    pts = random_noncollinear_points(rng, 6)
    moving = _fidset(pts + rng.normal(scale=0.3, size=pts.shape))
    fixed = _fidset(pts)
    res = register_points(fixed, moving)

    def fre(t):
        return np.sqrt(np.mean(np.sum(
            (fixed.points - t.apply(moving.points)) ** 2, axis=1)))

    base = fre(res.transform)
    for _ in range(100):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        wiggle = RigidTransform.from_axis_angle(
            axis, rng.uniform(-1, 1) * np.pi / 180.0, rng.uniform(-0.5, 0.5, size=3))
        assert fre(compose(wiggle, res.transform)) >= base - 1e-12


def test_register_errors():
    s3 = _fidset(TETRA[:3] * 10.0)
    with pytest.raises(TooFewPoints):
        register_points(_fidset(TETRA[:2]), _fidset(TETRA[:2]))
    with pytest.raises(LabelMismatch):
        register_points(_fidset(TETRA), _fidset(TETRA, prefix="G"))
    line = np.outer(np.arange(5.0), [1.0, 0.0, 0.0])
    with pytest.raises(DegenerateGeometry):
        register_points(_fidset(line), _fidset(line))
    # 3 points are fine when non-collinear
    assert register_points(s3, s3).n_points == 3


@pytest.mark.parametrize("frame", [None, float("nan"), "", 3])
def test_frames_must_be_non_empty_strings(frame):
    with pytest.raises(BadInput, match="fiducial set frame must be a non-empty string"):
        _fidset(TETRA, frame=frame)
    surf = icosphere()
    with pytest.raises(BadInput, match="surface frame must be a non-empty string"):
        SurfaceModel(frame, surf.vertices, surf.triangles)


def test_fit_rigid_batch_matches_single():
    rng = np.random.default_rng(77)
    fixed = rng.uniform(-50, 50, size=(64, 6, 3))
    moving = rng.uniform(-50, 50, size=(64, 6, 3))
    r, t = fit_rigid_batch(fixed, moving)
    for i in range(64):
        single = fit_rigid(fixed[i], moving[i])
        assert np.array_equal(r[i], single.rotation)
        assert np.array_equal(t[i], single.translation)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(3, 12), st.integers(0, 2 ** 32 - 1))
def test_fit_rigid_recovers_a_random_rigid_transform(n, seed):
    rng = np.random.default_rng(seed)
    moving = random_noncollinear_points(rng, n)
    truth = random_rigid(rng)
    got = fit_rigid(truth.apply(moving), moving)
    assert np.allclose(got.rotation, truth.rotation, atol=1e-9)
    assert np.allclose(got.translation, truth.translation, atol=1e-9)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(3, 12), st.integers(0, 2 ** 32 - 1))
def test_fit_rigid_is_equivariant_under_a_change_of_fixed_frame(n, seed):
    # fixed points that are no exact rigid image: fit(g(fixed)) == g o fit(fixed)
    rng = np.random.default_rng(seed)
    moving = random_noncollinear_points(rng, n)
    fixed = random_rigid(rng).apply(moving) + rng.normal(scale=0.5, size=moving.shape)
    g = random_rigid(rng)
    want = compose(g, fit_rigid(fixed, moving))
    got = fit_rigid(g.apply(fixed), moving)
    assert np.allclose(got.rotation, want.rotation, atol=1e-9)
    assert np.allclose(got.translation, want.translation, atol=1e-9)


@pytest.mark.parametrize("n", [4, 6, 10])
def test_mean_fre_squared_matches_closed_form(n):
    # mean FRE^2 -> (1 - 2/N) * 3 sigma^2 for isotropic per-axis noise
    rng = np.random.default_rng(300 + n)
    sigma = 0.3
    trials = 100_000
    base = random_noncollinear_points(np.random.default_rng(17), n, extent=120.0)
    fixed = np.broadcast_to(base, (trials, n, 3))
    moving = base[None, :, :] + rng.normal(scale=sigma, size=(trials, n, 3))
    r, t = fit_rigid_batch(fixed, moving)
    mapped = np.einsum("tij,tnj->tni", r, moving) + t[:, None, :]
    fre_sq = np.mean(np.sum((fixed - mapped) ** 2, axis=2), axis=1)
    expected = (1.0 - 2.0 / n) * 3.0 * sigma ** 2
    assert np.mean(fre_sq) == pytest.approx(expected, rel=0.03)


# -- rmse_paired --------------------------------------------------------------


def test_rmse_paired_identical_sets():
    s = _fidset(TETRA)
    assert rmse_paired(s, s) == 0.0


def test_rmse_paired_single_offset():
    a = FiducialSet("Patient", ("F0",), [[0.0, 0.0, 0.0]])
    b = FiducialSet("Patient", ("F0",), [[1.0, 0.0, 0.0]])
    assert rmse_paired(a, b) == pytest.approx(1.0)


def test_rmse_paired_two_points():
    a = FiducialSet("Patient", ("F0", "F1"), [[0, 0, 0], [0, 0, 0]])
    b = FiducialSet("Patient", ("F0", "F1"), [[1, 0, 0], [0, 0, 0]])
    assert rmse_paired(a, b) == pytest.approx(np.sqrt(0.5))


def test_rmse_paired_label_mismatch():
    with pytest.raises(LabelMismatch):
        rmse_paired(_fidset(TETRA), _fidset(TETRA, prefix="X"))


# -- predict_tre --------------------------------------------------------------


def _monte_carlo_tre_rms(fiducials: np.ndarray, fle_rms: float, target,
                         trials: int, seed: int) -> float:
    """Brute-force TRE oracle: perturb fiducials, fit, map the target, and
    take the RMS error. Independent of the closed-form prediction."""
    rng = np.random.default_rng(seed)
    n = len(fiducials)
    sigma = fle_rms / np.sqrt(3.0)
    fixed = np.broadcast_to(fiducials, (trials, n, 3))
    moving = fiducials[None, :, :] + rng.normal(scale=sigma, size=(trials, n, 3))
    r, t = fit_rigid_batch(fixed, moving)
    mapped = np.einsum("tij,j->ti", r, np.asarray(target, float)) + t
    err = mapped - np.asarray(target, float)
    return float(np.sqrt(np.mean(np.sum(err ** 2, axis=1))))


def test_predict_tre_at_centroid_first_term_only():
    pts = random_noncollinear_points(np.random.default_rng(5), 6, extent=120.0)
    fle = np.sqrt(0.27)
    pred = predict_tre(_fidset(pts), fle, pts.mean(axis=0))
    assert pred.expected_tre_rms == pytest.approx(np.sqrt(0.27 / 6.0), abs=1e-12)
    assert pred.expected_tre_rms == pytest.approx(0.2121, abs=5e-4)
    assert np.allclose(pred.target_offsets, 0.0, atol=1e-9)


def test_predict_tre_linear_in_fle():
    pts = random_noncollinear_points(np.random.default_rng(6), 5, extent=80.0)
    target = pts.mean(axis=0) + [15.0, -4.0, 8.0]
    p1 = predict_tre(_fidset(pts), 0.5, target)
    p2 = predict_tre(_fidset(pts), 1.0, target)
    assert p2.expected_tre_rms == pytest.approx(2.0 * p1.expected_tre_rms, rel=1e-12)


def test_predict_tre_matches_monte_carlo_tetrahedron():
    pts = TETRA * 10.0  # unit-shape tetrahedron scaled to phantom size
    fs = _fidset(pts)
    centroid = pts.mean(axis=0)
    cov = (pts - centroid).T @ (pts - centroid) / len(pts)
    _, vecs = np.linalg.eigh(cov)
    target = centroid + 10.0 * vecs[:, -1]
    pred = predict_tre(fs, 0.5, target)
    mc = _monte_carlo_tre_rms(pts, 0.5, target, trials=100_000, seed=9)
    assert pred.expected_tre_rms == pytest.approx(mc, rel=0.05)


@pytest.mark.parametrize("n", [4, 6, 10])
def test_predict_tre_matches_monte_carlo_random_configs(n):
    rng = np.random.default_rng(400 + n)
    pts = random_noncollinear_points(rng, n, extent=100.0)
    fs = _fidset(pts)
    centroid = pts.mean(axis=0)
    for target in (centroid, centroid + [20.0, 0.0, 0.0], centroid + [0, -35.0, 12.0]):
        pred = predict_tre(fs, 0.4, target)
        mc = _monte_carlo_tre_rms(pts, 0.4, target, trials=60_000, seed=n)
        assert pred.expected_tre_rms == pytest.approx(mc, rel=0.05)


def test_predict_tre_degenerate_and_bad_inputs():
    line = np.outer(np.arange(4.0), [0.0, 1.0, 0.0])
    with pytest.raises(DegenerateGeometry):
        predict_tre(_fidset(line), 0.5, [0, 0, 0])
    with pytest.raises(ValueError):
        predict_tre(_fidset(TETRA), 0.0, [0, 0, 0])
    with pytest.raises(TooFewPoints):
        predict_tre(_fidset(TETRA[:2]), 0.5, [0, 0, 0])


# -- icp ----------------------------------------------------------------------


def _test_surface(seed=21):
    return bumpy_ellipsoid(np.random.default_rng(seed))


def test_icp_exact_points_at_true_pose():
    surf = _test_surface()
    rng = np.random.default_rng(1)
    probed = sample_surface_points(surf, 80, rng)
    res = icp_register(probed, surf, init=RigidTransform.identity())
    assert res.fre_rms < 1e-9
    assert np.allclose(res.transform.matrix(), np.eye(4), atol=1e-9)
    assert res.converged


def test_icp_recovers_translation():
    surf = _test_surface()
    rng = np.random.default_rng(2)
    probed = sample_surface_points(surf, 150, rng) - np.array([2.0, 1.0, 0.0])
    history = []
    res = icp_register(probed, surf, residual_history=history)
    assert res.transform.translation == pytest.approx([2.0, 1.0, 0.0], abs=0.01)
    # residual sequence never increases
    assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))


@pytest.mark.parametrize("angle", [0.05, 0.15])
def test_icp_from_rotated_start_never_increases_residual(angle):
    surf = _test_surface()
    rng = np.random.default_rng(5)
    direction = rng.normal(size=3)
    truth = RigidTransform.from_axis_angle(rng.normal(size=3), angle,
                                           3.0 * direction / np.linalg.norm(direction))
    probed = truth.apply(sample_surface_points(surf, 200, rng))
    history = []
    res = icp_register(probed, surf, residual_history=history)
    assert len(history) >= 2
    assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))
    assert res.fre_rms <= history[-1] + 1e-12
    assert res.fre_rms < 0.5 * history[0]


def test_icp_sphere_is_ambiguous():
    sphere = icosphere(3, 25.0)
    rng = np.random.default_rng(3)
    probed = sample_surface_points(sphere, 100, rng)
    with pytest.raises(DegenerateGeometry):
        icp_register(probed, sphere)


def _pose_error(estimate, truth, points):
    """RMS over the points of |estimate(p) - truth(p)| (mm)."""
    return np.sqrt(np.mean(np.sum((estimate.apply(points) - truth.apply(points)) ** 2,
                                  axis=1)))


@pytest.mark.parametrize("angle", [0.15, 0.3, 0.5])
def test_icp_recovers_rotated_starts_exactly(angle):
    for seed in range(10):
        rng = np.random.default_rng(700 + seed)
        surf = bumpy_ellipsoid(rng)
        direction = rng.normal(size=3)
        offset = RigidTransform.from_axis_angle(rng.normal(size=3), angle,
                                                3.0 * direction / np.linalg.norm(direction))
        probed = offset.apply(sample_surface_points(surf, 200, rng))
        history = []
        res = icp_register(probed, surf, tol_mm=1e-8, residual_history=history)
        assert res.converged
        assert len(history) <= 10  # one entry per closest-point query
        assert _pose_error(res.transform, invert(offset), probed) <= 1e-6


def test_icp_with_probe_noise_returns_the_lowest_residual_iterate():
    # with noise the last step can raise the residual; the solve then stops
    # at the iterate before it
    rises = 0
    for seed in range(12):
        rng = np.random.default_rng(800 + seed)
        surf = bumpy_ellipsoid(rng)
        offset = RigidTransform.from_axis_angle(rng.normal(size=3), 0.15, [3.0, 0.0, 0.0])
        probed = offset.apply(sample_surface_points(surf, 200, rng)
                              + rng.normal(scale=0.3, size=(200, 3)))
        history = []
        res = icp_register(probed, surf, residual_history=history)
        assert res.converged
        assert res.fre_rms == min(history)
        assert res.fre_rms == float(np.sqrt(np.mean(np.square(res.per_point_residuals))))
        rises += history[-1] > history[-2]
    assert rises > 0  # the rule was exercised


@pytest.mark.parametrize("subdivisions", [2, 3])
def test_icp_icosphere_from_offset_start_is_ambiguous(subdivisions):
    sphere = icosphere(subdivisions, 25.0)
    rng = np.random.default_rng(9)
    offset = RigidTransform.from_axis_angle(rng.normal(size=3), 0.2, [2.0, 1.0, 0.0])
    probed = offset.apply(sample_surface_points(sphere, 100, rng))
    with pytest.raises(DegenerateGeometry):
        icp_register(probed, sphere)


def test_icp_unconverged_when_max_iter_runs_out():
    surf = _test_surface()
    rng = np.random.default_rng(10)
    offset = RigidTransform.from_axis_angle(rng.normal(size=3), 0.15, [3.0, 0.0, 0.0])
    probed = offset.apply(sample_surface_points(surf, 200, rng))
    history = []
    res = icp_register(probed, surf, max_iter=1, residual_history=history)
    assert not res.converged
    assert len(history) == 2
    assert res.fre_rms == history[-1] < history[0]


def test_icp_too_few_points():
    with pytest.raises(TooFewPoints):
        icp_register(np.zeros((5, 3)), _test_surface())


def test_closest_points_on_mesh_against_dense_vertex_oracle():
    surf = _test_surface(33)
    rng = np.random.default_rng(4)
    queries = rng.uniform(-40, 40, size=(50, 3))
    _, dist, _ = closest_points_on_mesh(queries, surf)
    # brute-force oracle: dense point samples on the surface bound the
    # true distance from above
    samples = sample_surface_points(surf, 60_000, rng)
    for q, d in zip(queries, dist):
        oracle = np.min(np.linalg.norm(samples - q, axis=1))
        assert d <= oracle + 1e-9
        assert d >= oracle - 0.5  # dense sampling gap


def _all_pairs_closest(queries, surf, block=32):
    """Every query against every triangle through the same kernel, then
    argmin (ties to the lowest triangle index); blocks bound the memory."""
    v, t = surf.vertices, surf.triangles
    a, ab, ac = v[t[:, 0]], v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]]
    out = []
    for start in range(0, len(queries), block):
        p = queries[start:start + block]
        cp, d2 = _closest_point_triangles(np.repeat(p, len(t), axis=0), np.tile(a, (len(p), 1)),
                                          np.tile(ab, (len(p), 1)), np.tile(ac, (len(p), 1)))
        cp = cp.reshape(len(p), len(t), 3)
        d2 = d2.reshape(len(p), len(t))
        best = np.argmin(d2, axis=1)
        rows = np.arange(len(p))
        out.append((cp[rows, best], np.sqrt(d2[rows, best]), best))
    return tuple(np.concatenate(parts) for parts in zip(*out))


@pytest.mark.parametrize("surf", [bumpy_ellipsoid(np.random.default_rng(8)),
                                  icosphere(2, 25.0)], ids=["bumpy", "icosphere"])
def test_closest_points_on_mesh_pruning_is_exact(surf):
    rng = np.random.default_rng(6)
    v, t = surf.vertices, surf.triangles
    on_surface = sample_surface_points(surf, 60, rng)
    queries = np.vstack([
        on_surface,
        v,                                    # shared vertices: ties
        0.5 * (v[t[:, 0]] + v[t[:, 1]])[:80],  # edge midpoints: ties
        40.0 * on_surface,                    # far away: most triangles kept
        np.zeros((1, 3)),
    ])
    got = closest_points_on_mesh(queries, surf, chunk=50)
    want = _all_pairs_closest(queries, surf)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_closest_points_on_mesh_repeat_query_is_identical():
    # the second query reuses the surface's index, built by the first
    surf = _test_surface(34)
    rng = np.random.default_rng(11)
    queries = rng.uniform(-40, 40, size=(300, 3))
    first = closest_points_on_mesh(queries, surf)
    second = closest_points_on_mesh(queries, surf)
    fresh = closest_points_on_mesh(queries, SurfaceModel(surf.frame, surf.vertices,
                                                         surf.triangles))
    for a, b, c in zip(first, second, fresh):
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)


def test_surface_model_rejects_non_finite_vertices():
    surf = icosphere(1, 10.0)
    for bad in (np.nan, np.inf):
        v = np.array(surf.vertices)
        v[3, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            SurfaceModel(surf.frame, v, surf.triangles)


# -- verify_registration -------------------------------------------------------


def _result_with_fre(fre):
    res = np.full(4, fre)
    return RegistrationResult(RigidTransform.identity(), fre, tuple(res), 4)


def test_verify_accepts_below_threshold():
    assert verify_registration(_result_with_fre(0.0), 2.0).accepted


def test_verify_rejects_above_threshold():
    decision = verify_registration(_result_with_fre(2.5), 2.0)
    assert not decision.accepted
    assert "2.5" in decision.reason


def test_verify_boundary_accepts():
    assert verify_registration(_result_with_fre(2.0), 2.0).accepted


def test_verify_rejects_unconverged_fit():
    res = np.full(4, 0.1)
    unconverged = RegistrationResult(RigidTransform.identity(), 0.1, tuple(res), 4,
                                     converged=False)
    decision = verify_registration(unconverged, 2.0)
    assert not decision.accepted
    assert "converge" in decision.reason


# -- serialization ------------------------------------------------------------


def test_fiducialset_json_round_trip():
    s = _fidset(TETRA * 12.5, frame="DRB")
    back = FiducialSet.from_json(s.to_json())
    assert back == s


def test_surface_stl_round_trip():
    surf = icosphere(1, 10.0)
    back = SurfaceModel.from_stl(surf.to_stl(), frame=surf.frame)
    assert len(back.triangles) == len(surf.triangles)
    # vertex sets coincide (order may differ after dedup)
    a = {tuple(np.round(v, 6)) for v in surf.vertices}
    b = {tuple(np.round(v, 6)) for v in back.vertices}
    assert a == b


def test_registration_result_from_dict_takes_only_boolean_converged():
    d = _result_with_fre(0.1).to_dict()
    assert RegistrationResult.from_dict(d).converged is True
    d["converged"] = False
    assert RegistrationResult.from_dict(d).converged is False
    del d["converged"]
    assert RegistrationResult.from_dict(d).converged is True
    for bad in ("false", "true", 0, 1, None):
        d["converged"] = bad
        with pytest.raises(ValueError, match="converged"):
            RegistrationResult.from_dict(d)


def test_registration_result_invariant_checked():
    with pytest.raises(ValueError):
        RegistrationResult(RigidTransform.identity(), 5.0, (1.0, 1.0), 2)


@pytest.mark.parametrize("subdivisions", [0, 1, 3])
def test_cached_unit_icosphere_equals_a_fresh_build(subdivisions):
    # built once per subdivision count, read-only, bit for bit a fresh build
    v, t = meshes._unit_icosphere(subdivisions)
    fresh_v, fresh_t = meshes._unit_icosphere.__wrapped__(subdivisions)
    assert np.array_equal(v, fresh_v) and np.array_equal(t, fresh_t)
    assert meshes._unit_icosphere(subdivisions)[0] is v
    assert not v.flags.writeable and not t.flags.writeable
    sphere = icosphere(subdivisions, 25.0)
    assert np.array_equal(sphere.vertices, fresh_v * 25.0)
    assert np.array_equal(sphere.triangles, fresh_t)
