"""Oracle tests: each stacked kernel of the accuracy study's passes equals
its per-trial reference (tests/_study_reference.py) bit for bit, on one
stack and on fifty, failing rows included."""

import numpy as np
import pytest

import _study_reference as reference
from _helpers import look_at
from spinenav import calibration as cal
from spinenav import simharness
from spinenav.errors import (
    BadInput,
    CoplanarPoints,
    ParallelRays,
    PointAtInfinity,
    SpineNavError,
    TooFewPoints,
)
from spinenav.geom import check_rigid
from spinenav.registration import check_fiducial_points, register_points_batch
from spinenav.workflow import Modality

STACKS = [1, 50]


def _models(rng, count):
    """count random AP-side pinhole matrices (count, 3, 4)."""
    return np.array([cal.pinhole_projection(
        look_at(rng.uniform(-150, 150, size=3) + [0, -700, 0], rng.uniform(-20, 20, size=3)),
        1000.0, "AP").matrix for _ in range(count)])


def _outcome(f, *args):
    """f's result, or (type, message) of the SpineNavError or ValueError it raises."""
    try:
        return f(*args)
    except (ValueError, SpineNavError) as e:
        return type(e), str(e)


@pytest.mark.parametrize("count", STACKS)
def test_pose_rotations_equal_reference(count):
    rngs = [np.random.default_rng(k) for k in range(count)]
    r = simharness._pose_rotations(np.array([g.normal(size=4) for g in rngs]))
    for k in range(count):
        assert np.array_equal(r[k], reference.random_rigid(np.random.default_rng(k))[0])


@pytest.mark.parametrize("count", STACKS)
def test_project_batch_equals_reference(count):
    rng = np.random.default_rng(count)
    m = _models(rng, count)
    pts = rng.uniform(-80, 80, size=(count, 12, 3))
    pts[-1, 3] = -m[-1, 2, 3] * m[-1, 2, :3]  # on the last model's camera plane
    uv, failed = cal.project_batch(m, pts)
    assert list(failed) == [count - 1] and isinstance(failed[count - 1], PointAtInfinity)
    for k in range(count - 1):
        assert np.array_equal(uv[k], reference.project(m[k], pts[k]))
    with pytest.raises(PointAtInfinity, match="camera plane"):
        reference.project(m[-1], pts[-1])


@pytest.mark.parametrize("count", STACKS)
def test_dlt_calibrate_batch_equals_reference(count):
    rng = np.random.default_rng(100 + count)
    m = _models(rng, count)
    x = rng.uniform(-70, 70, size=(count, 16, 3))
    x[-1, :, 2] = 5.0  # coplanar
    uv = np.array([reference.project(mk, xk) for mk, xk in zip(m, x)])
    uv += rng.normal(scale=1.75, size=uv.shape)
    p, failed = cal.dlt_calibrate_batch(x, uv)
    assert list(failed) == [count - 1] and isinstance(failed[count - 1], CoplanarPoints)
    assert np.isnan(p[-1]).all()
    for k in range(count - 1):
        assert np.array_equal(p[k], reference.dlt(x[k], uv[k]))
        assert np.array_equal(cal.scale_normalized(p[k]), reference.normalized(p[k]))
    assert _outcome(reference.dlt, x[-1], uv[-1]) == (CoplanarPoints,
                                                       "calibration points are coplanar")


def test_hartley_normalization_stack_equals_reference():
    pts = np.random.default_rng(3).uniform(-50, 50, size=(50, 16, 3))
    stacked = cal._hartley_normalization(pts)
    for k in range(50):
        assert np.array_equal(stacked[k], reference.hartley(pts[k]))
        assert np.array_equal(cal._hartley_normalization(pts[k]), reference.hartley(pts[k]))


@pytest.mark.parametrize("count", STACKS)
def test_triangulate_batch_equals_reference(count):
    rng = np.random.default_rng(200 + count)
    ma = _models(rng, count)
    mb = np.array([cal.pinhole_projection(
        look_at(rng.uniform(-150, 150, size=3) + [-700, 0, 0], rng.uniform(-20, 20, size=3)),
        1000.0, "LP").matrix for _ in range(count)])
    mb[-1] = ma[-1]  # identical views: parallel rays
    p = rng.uniform(-80, 80, size=(count, 6, 3))
    ua = np.array([reference.project(m, x) for m, x in zip(ma, p)])
    ub = np.array([reference.project(m, x) for m, x in zip(mb, p)])
    ua += rng.normal(scale=1.75, size=ua.shape)
    ub += rng.normal(scale=1.75, size=ub.shape)
    points, gaps, failed = cal.triangulate_batch((ma, ua), (mb, ub))
    assert list(failed) == [count - 1] and isinstance(failed[count - 1], ParallelRays)
    for k in range(count - 1):
        ref_points, ref_gaps = reference.triangulate(ma[k], ua[k], mb[k], ub[k])
        assert np.array_equal(points[k], ref_points) and np.array_equal(gaps[k], ref_gaps)
    assert _outcome(reference.triangulate, ma[-1], ua[-1], mb[-1], ub[-1])[0] is ParallelRays


@pytest.mark.parametrize("count", STACKS)
def test_register_points_batch_equals_reference(count):
    rng = np.random.default_rng(300 + count)
    fixed = rng.uniform(-60, 60, size=(count, 6, 3))
    moving = fixed + rng.normal(scale=2.0, size=fixed.shape)
    fixed[-1] = np.outer(np.arange(6.0), [1.0, 2.0, 3.0])       # collinear fixed
    if count > 1:
        moving[0] = np.outer(np.arange(6.0), [3.0, -1.0, 0.5])  # collinear moving
    r, t, failed = register_points_batch(fixed, moving)
    for k in range(count):
        ref = _outcome(reference.register, fixed[k], moving[k])
        if k in failed:
            assert (type(failed[k]), str(failed[k])) == ref
            assert np.isnan(r[k]).all() and np.isnan(t[k]).all()
        else:
            assert np.array_equal(r[k], ref[0]) and np.array_equal(t[k], ref[1])
    assert sorted(failed) == sorted({0, count - 1})
    assert str(failed[count - 1]) == "fixed points are collinear"
    few = register_points_batch(fixed[:, :2], moving[:, :2])[2]
    assert sorted(few) == list(range(count))
    assert all(isinstance(e, TooFewPoints) for e in few.values())


@pytest.mark.parametrize("count", STACKS)
def test_carm_pairs_equal_reference(count):
    rng = np.random.default_rng(400 + count)
    center = rng.uniform(-50, 50, size=(count, 3))
    distance = rng.choice([300.0, 450.0], size=count)
    jitter = rng.uniform(-60.0, 60.0, size=(count, 2))
    models = simharness._carm_pairs(center, distance, jitter)
    for k in range(count):
        draws = iter(jitter[k])

        class Draws:  # replays the jitter draws the reference takes
            @staticmethod
            def uniform(low, high):
                return next(draws)

        ref = reference.carm_pair(center[k], distance[k], 60.0, Draws)
        assert np.array_equal(models[0, k], ref[0]) and np.array_equal(models[1, k], ref[1])


def _bad_row(stack, row, value):
    out = stack.copy()
    out[row] = value
    return out


@pytest.mark.parametrize("count", STACKS)
def test_stacked_guards_equal_reference(count):
    rng = np.random.default_rng(500 + count)
    q = rng.normal(size=(count, 4))
    r, t = simharness._pose_rotations(q), rng.uniform(-40, 40, size=(count, 3))
    m = _models(rng, count)
    pts = rng.uniform(-50, 50, size=(count, 6, 3))
    singular = m[-1].copy()  # a camera centre at infinity, rank 3
    singular[:, :3] = [[1, 0, 0], [1, 0, 0], [0, 0, 1]]
    singular[1, 3] = 1.0
    cases = [
        (check_rigid, reference.rigid_guard, (r, t),
         [(0, 1.0 + 1e-6), (1, np.nan)]),
        (cal.check_projections, reference.projection_guard, (m,),
         [(0, np.inf), (0, 2.0 * m[-1]), (0, singular)]),
        (check_fiducial_points, reference.fiducial_guard, (pts,), [(0, np.nan)]),
        (cal.check_detections, reference.detection_guard, (pts[..., :2],), [(0, np.inf)]),
    ]
    for stacked, ref, args, bad in cases:
        assert stacked(*args) is None
        for k in range(count):
            assert ref(*(a[k] for a in args)) is None
        for arg, value in bad:
            broken = list(args)
            broken[arg] = _bad_row(args[arg], -1, value)
            want = _outcome(ref, *(a[-1] for a in broken))
            assert want[0] is BadInput
            assert _outcome(stacked, *broken) == want
            assert _outcome(stacked, *(a[-1:] for a in broken)) == want


def test_chain_failures_stop_at_their_own_step():
    # a failed trial drops out of the later steps: its generator is left
    # where the draw pass left it, its estimate is NaN, its error its own
    cfg = simharness.StudyConfig(view_jitter_deg=60.0)
    phantom = simharness.generate_phantom(simharness.PhantomSpec(), seed=42)
    rngs = [simharness._trial_rng(5, 9, t) for t in range(60)]
    modality = Modality.INTRAOP_2D_AUTO_FIDUCIAL
    cells = cfg.cells(modality)
    factors = [cells[t % len(cells)] for t in range(60)]
    chains = simharness._registration_chains(phantom, modality, factors, cfg.noise, rngs, 60.0)
    failed = [k for k, e in enumerate(chains.errors) if e is not None]
    assert failed and all(isinstance(chains.errors[k], ParallelRays) for k in failed)
    assert np.isnan(chains.rotations[failed]).all()
    ok = [k for k in range(60) if k not in failed]
    assert np.isfinite(chains.rotations[ok]).all()
    for k in failed:
        ref_rng = simharness._trial_rng(5, 9, k)
        assert _outcome(reference.registration_transform, phantom, modality,
                        factors[k], cfg.noise, ref_rng, 60.0)[0] is ParallelRays
        assert rngs[k].bit_generator.state == ref_rng.bit_generator.state
