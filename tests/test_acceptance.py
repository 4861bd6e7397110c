"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria (tolerances pinned here, nothing deferred):
  1. zero-noise end-to-end exactness, both registration modalities
  2. closed-form FRE and TRE statistics vs brute-force Monte Carlo
  3. calibrated study reproduction: pooled means ordered, CIs under 2 mm
  4. radiation accounting: exactly 3.0 images per screw
  5. grading bins, breach oracle agreement, zero-noise placement grades
  6. kinematics round trips, Jacobian, collision-free planning
  7. workflow guard safety by exhaustive reachability
  8. byte-identical simulation outputs across runs and thread counts
"""

import time
import numpy as np
import pytest

from spinenav.cli import main as cli_main
from spinenav.kinematics import (
    CollisionScene,
    JointVector,
    default_robot,
    fk,
    ik,
    jacobian,
    plan_safe,
    sphere,
)
from spinenav.errors import LimitViolation, NoSafePath, Unreachable
from spinenav.planning import grade_gertzbein
from spinenav.registration import fit_rigid_batch, predict_tre, FiducialSet
from spinenav.simharness import (
    DEFAULT_METHODS,
    NoiseModel,
    PhantomSpec,
    StudyConfig,
    _trial_rng,
    calibrate_tracker_sigma0,
    generate_phantom,
    run_placement_study,
    run_study,
    run_trial,
)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


# -- criterion 1 -----------------------------------------------------------------


def test_criterion_1_zero_noise_end_to_end_exactness():
    t0 = time.perf_counter()
    zero = StudyConfig(noise=NoiseModel(tracker_sigma0=0.0, detector_sigma=0.0,
                                        kinematic_sigma=0.0))
    worst = 0.0
    for seed in range(100):
        phantom = generate_phantom(PhantomSpec(), seed=seed)
        for method in (DEFAULT_METHODS[0], DEFAULT_METHODS[1]):
            cell = zero.cells(method.modality)[seed % len(zero.cells(method.modality))]
            trial = run_trial(phantom, method, cell, zero, _trial_rng(seed, 0, 0))
            assert trial.ok, trial.error
            worst = max(worst, trial.rmse_mm)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 10.0
    _report(1, ok, f"worst zero-noise target RMSE {worst:.3e} mm over 100 "
                   f"phantoms x 2 modalities in {elapsed:.1f} s")
    assert worst < 1e-6
    assert elapsed < 10.0


# -- criterion 2 -----------------------------------------------------------------


def _batch_map(r, t, points):
    return np.einsum("tij,nj->tni", r, points) + t[:, None, :]


@pytest.mark.parametrize("n", [4, 6, 10])
def test_criterion_2_statistical_oracles(n):
    t0 = time.perf_counter()
    trials = 100_000
    rng = np.random.default_rng(1000 + n)
    pts = rng.uniform(-60, 60, size=(n, 3))
    while np.linalg.svd(pts - pts.mean(0), compute_uv=False)[1] < 10.0:
        pts = rng.uniform(-60, 60, size=(n, 3))
    sigma = 0.3
    fle_sq = 3.0 * sigma ** 2

    noisy = pts[None, :, :] + rng.normal(scale=sigma, size=(trials, n, 3))
    r, t = fit_rigid_batch(np.broadcast_to(pts, (trials, n, 3)), noisy)
    mapped = _batch_map(r, t, pts)  # note: moving=noisy fitted onto fixed=pts
    mapped_noisy = np.einsum("tij,tnj->tni", r, noisy) + t[:, None, :]
    fre_sq = np.mean(np.sum((mapped_noisy - pts[None, :, :]) ** 2, axis=2), axis=1)
    fre_expected = (1.0 - 2.0 / n) * fle_sq
    fre_rel = abs(np.mean(fre_sq) - fre_expected) / fre_expected

    centroid = pts.mean(axis=0)
    offsets = [np.zeros(3), np.array([30.0, 0.0, 0.0]),
               np.array([0.0, -25.0, 10.0]), np.array([15.0, 20.0, -20.0])]
    fs = FiducialSet("Patient", tuple(f"F{i}" for i in range(n)), pts)
    tre_rel_worst = 0.0
    for off in offsets:
        target = centroid + off
        mc_mapped = np.einsum("tij,j->ti", r, target) + t
        mc_tre = float(np.sqrt(np.mean(np.sum((mc_mapped - target) ** 2, axis=1))))
        pred = predict_tre(fs, np.sqrt(fle_sq), target).expected_tre_rms
        tre_rel_worst = max(tre_rel_worst, abs(pred - mc_tre) / mc_tre)

    elapsed = time.perf_counter() - t0
    ok = fre_rel <= 0.03 and tre_rel_worst <= 0.05 and elapsed < 120.0
    _report(2, ok, f"N={n}: FRE^2 off by {fre_rel:.2%} (<=3%), worst TRE off by "
                   f"{tre_rel_worst:.2%} (<=5%), {trials} trials in {elapsed:.1f} s")
    assert fre_rel <= 0.03
    assert tre_rel_worst <= 0.05
    assert elapsed < 120.0


# -- criterion 3 -----------------------------------------------------------------


def test_criterion_3_calibrated_table_reproduction():
    t0 = time.perf_counter()
    phantom = generate_phantom(PhantomSpec(), seed=42)
    config = calibrate_tracker_sigma0(phantom, StudyConfig(), target_mean_mm=0.99)
    result = run_study(config, phantom)
    pooled = {m.method.label: m.pooled for m in result.methods}
    point_ct = pooled["point_based_preop_ct_navigation"]
    auto_2d = pooled["automatic_intraop_2d_navigation"]
    robot = pooled["point_based_preop_ct_robot"]

    calibrated_ok = abs(point_ct.mean - 0.99) <= 0.05
    ordered = point_ct.mean <= auto_2d.mean <= robot.mean
    ci_ok = all(p.ci95 <= 2.0 for p in (point_ct, auto_2d, robot))
    n_ok = all(p.n == 150 for p in (point_ct, auto_2d, robot))
    elapsed = time.perf_counter() - t0
    ok = calibrated_ok and ordered and ci_ok and n_ok and elapsed < 60.0
    _report(3, ok, f"means {point_ct.mean:.3f} <= {auto_2d.mean:.3f} <= "
                   f"{robot.mean:.3f}, max mu+1.96sd "
                   f"{max(p.ci95 for p in (point_ct, auto_2d, robot)):.3f} <= 2.0, "
                   f"150 samples/method in {elapsed:.1f} s")
    assert calibrated_ok, f"point CT pooled mean {point_ct.mean:.4f} not 0.99 +/- 0.05"
    assert ordered
    assert ci_ok
    assert n_ok
    assert elapsed < 60.0


# -- criterion 4 -----------------------------------------------------------------


def test_criterion_4_radiation_accounting():
    t0 = time.perf_counter()
    config = StudyConfig()
    means = []
    for screws in (2, 6, 10):
        phantom = generate_phantom(PhantomSpec(levels=(screws + 1) // 2), seed=42)
        result = run_placement_study(config, phantom, screws)
        for arm in result.arms:
            means.append((screws, arm.arm, arm.radiation_mean))
    elapsed = time.perf_counter() - t0
    exact = all(m == 3.0 for _, _, m in means)
    ok = exact and elapsed < 5.0
    _report(4, ok, f"mean C-arm images/screw exactly 3.0 for 2-, 6-, 10-screw "
                   f"sessions (both arms) in {elapsed:.1f} s")
    assert exact, means
    assert elapsed < 5.0


# -- criterion 5 -----------------------------------------------------------------


def test_criterion_5_grading():
    t0 = time.perf_counter()
    # bin partition + monotonicity on a 0..10 mm grid at 0.01 mm steps
    grid = np.round(np.arange(0.0, 10.0 + 1e-9, 0.01), 10)
    prev_rank = -1
    for b in grid:
        g = grade_gertzbein(float(b))
        assert g.rank() >= prev_rank
        prev_rank = g.rank()
    assert grade_gertzbein(0.0).value == "A"
    assert grade_gertzbein(2.0).value == "C"
    assert grade_gertzbein(4.0).value == "D"
    assert grade_gertzbein(6.0).value == "E"

    # breach_depth vs the dense cylinder-sampling oracle on 200 random cases
    from test_planning import _cylinder_sampling_oracle
    from spinenav.planning import PedicleModel, ScrewPlan, breach_depth
    rng = np.random.default_rng(55)
    worst_gap = 0.0
    for _ in range(200):
        axis_dir = rng.normal(size=3)
        axis_dir /= np.linalg.norm(axis_dir)
        waist = rng.uniform(2.0, 4.5)
        ends = waist + rng.uniform(0.3, 2.0)
        p0 = rng.uniform(-20, 20, size=3)
        length = rng.uniform(30.0, 50.0)
        pedicle = PedicleModel("L", p0, p0 + length * axis_dir,
                               ((0.0, ends), (rng.uniform(0.35, 0.65), waist),
                                (1.0, ends)))
        tilt = rng.uniform(0.0, 0.14)
        perp = np.cross(axis_dir, rng.normal(size=3))
        perp /= np.linalg.norm(perp)
        d = axis_dir * np.cos(tilt) + perp * np.sin(tilt)
        screw = ScrewPlan("L", p0 + rng.uniform(0.0, 3.0) * perp - 2.0 * d, d,
                          rng.uniform(4.0, 7.0), np.clip(length + 4.0, 20, 100))
        gap = abs(breach_depth(screw, pedicle) - _cylinder_sampling_oracle(screw, pedicle))
        worst_gap = max(worst_gap, gap)

    # zero-noise placement: 100% grade A and a report shaped with rows A-E
    phantom = generate_phantom(PhantomSpec(levels=5), seed=42)
    zero = StudyConfig(noise=NoiseModel(tracker_sigma0=0.0, detector_sigma=0.0,
                                        kinematic_sigma=0.0))
    placement = run_placement_study(zero, phantom, 10)
    all_a = all(arm.grade_percent["A"] == 100.0 for arm in placement.arms)
    shaped = all(list(arm.grade_percent.keys()) == ["A", "B", "C", "D", "E"]
                 for arm in placement.arms)

    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 0.05 and all_a and shaped and elapsed < 60.0
    _report(5, ok, f"grade bins exhaustive on 1001-step grid, breach vs oracle "
                   f"worst gap {worst_gap:.3f} mm (<=0.05), zero-noise placement "
                   f"100% A with rows A-E, in {elapsed:.1f} s")
    assert worst_gap <= 0.05
    assert all_a
    assert shaped
    assert elapsed < 60.0


# -- criterion 6 -----------------------------------------------------------------


def _axis_sampled_clearance(model, scene, q, n_axis=1000):
    """Oracle: dense samples along each link-capsule axis with exact radius
    offsets (the capsule surface is the axis dilated by the radius)."""
    from spinenav.kinematics import _world_axes
    worst = np.inf
    ts = np.linspace(0.0, 1.0, n_axis)
    _, p0, p1, radii = _world_axes(model, q)
    for a0, a1, radius in zip(p0[0], p1[0], radii):
        pts = a0[None, :] + ts[:, None] * (a1 - a0)[None, :]
        for _, obs in scene.obstacles:
            d2 = obs.p1 - obs.p0
            ee = float(d2 @ d2)
            if ee <= 1e-12:
                dist = np.linalg.norm(pts - obs.p0, axis=1)
            else:
                tt = np.clip((pts - obs.p0) @ d2 / ee, 0.0, 1.0)
                dist = np.linalg.norm(pts - (obs.p0 + tt[:, None] * d2), axis=1)
            worst = min(worst, float(np.min(dist)) - radius - obs.radius)
    return worst


def test_criterion_6_kinematics():
    t0 = time.perf_counter()
    model = default_robot()
    home = JointVector([0.0, -0.6, 0.6, 0.0, 0.7, 0.0])
    rng = np.random.default_rng(6)
    lo = model.joint_limits[:, 0] * 0.85
    hi = model.joint_limits[:, 1] * 0.85

    failures = 0
    for _ in range(1000):
        target = fk(model, rng.uniform(lo, hi))
        try:
            sol = ik(model, target, home)
        except (Unreachable, LimitViolation):
            failures += 1
            continue
        if np.linalg.norm(fk(model, sol.q).translation - target.translation) > 1e-9:
            failures += 1
    ik_ok = failures == 0

    worst_jac = 0.0
    from scipy.spatial.transform import Rotation
    for _ in range(100):
        q = rng.uniform(lo, hi)
        dq = rng.normal(size=6)
        dq /= np.linalg.norm(dq)
        h = 1e-6
        fp = fk(model, q + h * dq)
        fm = fk(model, q - h * dq)
        numeric = np.concatenate([
            (fp.translation - fm.translation) / (2 * h),
            Rotation.from_matrix(fp.rotation @ fm.rotation.T).as_rotvec() / (2 * h)])
        analytic = jacobian(model, q) @ dq
        worst_jac = max(worst_jac, np.linalg.norm(analytic - numeric)
                        / max(np.linalg.norm(numeric), 1.0))
    jac_ok = worst_jac <= 1e-5

    margin = 2.0  # > 1 mm
    planned = 0
    oracle_violations = 0
    scene_idx = 0
    while planned < 100 and scene_idx < 250:
        srng = np.random.default_rng(900 + scene_idx)
        scene_idx += 1
        entry = np.array([450.0, 100.0, 150.0]) + srng.uniform(-40, 40, size=3)
        direction = srng.normal(size=3)
        direction[2] = -abs(direction[2]) - 0.5
        direction /= np.linalg.norm(direction)
        obstacles = []
        for k in range(srng.integers(1, 3)):
            offset = srng.normal(size=3)
            offset /= np.linalg.norm(offset)
            center = entry + 160.0 * offset + srng.uniform(-20, 20, size=3)
            obstacles.append((f"obs{k}", sphere(center, srng.uniform(20.0, 40.0))))
        scene = CollisionScene(tuple(obstacles), safety_margin=margin)
        try:
            traj = plan_safe(model, scene, home, (entry, direction), 25.0)
        except (NoSafePath, Unreachable, LimitViolation):
            continue  # target outside the workspace at every roll: not a plan
        planned += 1
        assert traj.collision_checked
        for qrow in traj.joints:
            if _axis_sampled_clearance(model, scene, qrow) < margin - 1e-6:
                oracle_violations += 1
    plan_ok = planned == 100 and oracle_violations == 0

    elapsed = time.perf_counter() - t0
    ok = ik_ok and jac_ok and plan_ok and elapsed < 60.0
    _report(6, ok, f"ik success {1000 - failures}/1000 (err <= 1e-9 mm), worst "
                   f"Jacobian rel err {worst_jac:.2e} (<=1e-5), {planned} safe "
                   f"plans re-verified with 0 oracle violations at margin "
                   f"{margin} mm, in {elapsed:.1f} s")
    assert ik_ok, f"{failures} ik failures"
    assert jac_ok
    assert plan_ok, f"planned={planned}, oracle violations={oracle_violations}"
    assert elapsed < 60.0


# -- criterion 7 -----------------------------------------------------------------


def test_criterion_7_workflow_safety():
    t0 = time.perf_counter()
    from test_workflow import ALPHABET, ROBOT_PHASES, _abstract
    from spinenav.errors import GuardFailed, IllegalTransition
    from spinenav.workflow import Modality, Mode, Phase, advance, new_session

    checked_transitions = 0
    for mode in (Mode.NAVIGATION_ONLY, Mode.ROBOT_ASSISTED):
        init = new_session(mode, Modality.INTRAOP_2D_AUTO_FIDUCIAL)
        frontier = [init]
        seen = {_abstract(init)}
        while frontier:
            state = frontier.pop()
            for ev in ALPHABET:
                try:
                    new = advance(state, ev)
                except (GuardFailed, IllegalTransition):
                    continue
                checked_transitions += 1
                if mode is Mode.NAVIGATION_ONLY:
                    assert new.phase not in ROBOT_PHASES
                if new.phase is Phase.NAVIGATION:
                    assert new.registration_accepted
                if new.phase is Phase.SCREW_PLACEMENT:
                    assert ev.level in state.validated_levels()
                if new.phase is Phase.ROBOT_POSITIONING:
                    assert ev.trajectory.collision_checked
                key = _abstract(new)
                if key not in seen:
                    seen.add(key)
                    frontier.append(new)
    elapsed = time.perf_counter() - t0
    ok = checked_transitions > 0 and elapsed < 60.0
    _report(7, ok, f"exhaustive reachability: {checked_transitions} transitions "
                   f"checked, no guarded phase entered with a failed guard, "
                   f"in {elapsed:.1f} s")
    assert checked_transitions > 0
    assert elapsed < 60.0


# -- criterion 8 -----------------------------------------------------------------


def test_criterion_8_reproducibility(tmp_path):
    t0 = time.perf_counter()

    def run(subdir, threads):
        out = tmp_path / subdir
        code = cli_main(["simulate", "study", "--seed", "21", "--out", str(out),
                         "--threads", str(threads)])
        assert code == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    first = run("run1", 1)
    second = run("run2", 1)
    threaded = run("run4", 4)
    identical = first == second == threaded
    elapsed = time.perf_counter() - t0
    ok = identical and elapsed < 60.0
    _report(8, ok, f"simulate study outputs byte-identical across two runs and "
                   f"thread counts 1/4 ({sorted(first)}) in {elapsed:.1f} s")
    assert identical
    assert elapsed < 60.0
