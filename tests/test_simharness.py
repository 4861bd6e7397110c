import numpy as np
import pytest

import _study_reference as reference
from spinenav import simharness
from spinenav.errors import (BadInput, DegenerateGeometry, DegenerateSpec, ParallelRays,
                             SpineNavError)
from spinenav.geom import axis_basis
from spinenav.simharness import (
    DEFAULT_METHODS,
    Method,
    NoiseModel,
    PhantomSpec,
    StudyConfig,
    _anisotropic,
    _trial_rng,
    calibrate_tracker_sigma0,
    generate_phantom,
    run_placement_study,
    run_study,
    run_trial,
    study_csv,
    study_report,
    summarize,
)
from spinenav.workflow import EventKind, Modality

PHANTOM = generate_phantom(PhantomSpec(), seed=42)
ZERO_NOISE = NoiseModel(tracker_sigma0=0.0, detector_sigma=0.0, kinematic_sigma=0.0)


# -- phantom -----------------------------------------------------------------------


def test_phantom_deterministic_for_seed():
    a = generate_phantom(PhantomSpec(), seed=7)
    b = generate_phantom(PhantomSpec(), seed=7)
    assert np.array_equal(a.fiducials.points, b.fiducials.points)
    assert a.pedicles == b.pedicles
    assert np.array_equal(a.targets.points, b.targets.points)


def test_phantom_rejects_degenerate_spec():
    with pytest.raises(DegenerateSpec):
        generate_phantom(PhantomSpec(fiducial_count=3), seed=1)
    with pytest.raises(DegenerateSpec):
        generate_phantom(PhantomSpec(levels=0), seed=1)


@pytest.mark.parametrize("extent", [float("nan"), float("inf"), float("-inf")])
def test_phantom_spec_rejects_non_finite_extent(extent):
    with pytest.raises(ValueError, match="extent_mm"):
        PhantomSpec(extent_mm=extent)


def test_phantom_default_extent_and_radii_over_100_seeds():
    for seed in range(100):
        ph = generate_phantom(PhantomSpec(), seed=seed)
        extent = np.max(np.ptp(ph.fiducials.points, axis=0))
        assert extent >= 100.0
        for pedicle in ph.pedicles:
            waist = min(r for _, r in pedicle.radius_profile)
            assert 2.0 <= waist <= 4.5
        assert not set(ph.fiducials.labels) & set(ph.targets.labels)


def test_study_config_round_trip():
    cfg = StudyConfig(samples_per_method=17,
                      noise=NoiseModel(tracker_sigma0=0.4, seed=5))
    back = StudyConfig.from_dict(cfg.to_dict())
    assert back == cfg


def test_study_config_stores_its_modality_and_factor_lists():
    # the constructor converts, so a partial document is a key map
    cfg = StudyConfig(modality="IntraOp2D_AutoFiducial", user_groups=[1.0, 2.0])
    assert cfg.modality is Modality.INTRAOP_2D_AUTO_FIDUCIAL
    assert cfg.user_groups == (1.0, 2.0)
    assert StudyConfig.from_dict({"modality": "IntraOp2D_AutoFiducial",
                                  "user_groups": [1.0, 2.0]}) == cfg
    with pytest.raises(BadInput, match="modality"):
        StudyConfig(modality="nope")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_study_config_rejects_non_finite_jitter(value):
    with pytest.raises(ValueError, match="view_jitter_deg"):
        StudyConfig(view_jitter_deg=value)


@pytest.mark.parametrize("name", ["user_groups", "tool_angles_deg",
                                  "tracker_distances_mm", "detector_distances_mm"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_study_config_rejects_non_finite_factor(name, value):
    values = (*getattr(StudyConfig(), name), value)
    with pytest.raises(ValueError, match=name):
        StudyConfig(**{name: values})


@pytest.mark.parametrize("name", ["user_groups", "tool_angles_deg",
                                  "tracker_distances_mm", "detector_distances_mm"])
@pytest.mark.parametrize("value", ["1.0", None, True], ids=["str", "none", "bool"])
def test_study_config_rejects_non_number_factor(name, value):
    with pytest.raises(BadInput, match=f"{name} entries must be numbers"):
        StudyConfig(**{name: (*getattr(StudyConfig(), name), value)})


# -- noise model --------------------------------------------------------------------


def _noise_draws(noise, tracker_distance, view_axis, rng, shape):
    """Anisotropic tracker noise at sigma(tracker_distance) about view_axis,
    drawn as one block of standard normals of the given shape."""
    return _anisotropic(noise, noise.tracker_sigma_at(tracker_distance),
                        axis_basis(view_axis), rng.normal(size=shape))


def test_zero_sigma_returns_exact_point():
    p = np.array([1.0, 2.0, 3.0]) + _noise_draws(
        ZERO_NOISE, 1800.0, [0, 0, 1], np.random.default_rng(ZERO_NOISE.seed), 3)
    assert np.array_equal(p, [1.0, 2.0, 3.0])


def test_noise_variance_matches_model_within_1pct():
    noise = NoiseModel(tracker_sigma0=0.4, depth_anisotropy=3.0,
                       distance_growth=2e-4)
    rng = np.random.default_rng(5)
    d = 2200.0
    axis = np.array([0.0, 0.0, 1.0])
    draws = _noise_draws(noise, d, axis, rng, (1_000_000, 3))
    sigma = noise.tracker_sigma_at(d)
    # perpendicular components at sigma(d), axial at anisotropy * sigma(d)
    assert np.var(draws[:, 0]) == pytest.approx(sigma ** 2, rel=0.01)
    assert np.var(draws[:, 1]) == pytest.approx(sigma ** 2, rel=0.01)
    assert np.var(draws[:, 2]) == pytest.approx((3.0 * sigma) ** 2, rel=0.01)


def test_noise_streams_reproducible_by_seed():
    noise = NoiseModel(seed=99)
    a = _noise_draws(noise, 1800.0, [0, 0, 1], np.random.default_rng(noise.seed), 3)
    b = _noise_draws(noise, 1800.0, [0, 0, 1], np.random.default_rng(noise.seed), 3)
    assert np.array_equal(a, b)


def test_distance_growth_increases_sigma():
    base = NoiseModel(tracker_sigma0=0.4, distance_growth=1e-4)
    double = NoiseModel(tracker_sigma0=0.4, distance_growth=2e-4)
    d = 2400.0
    assert double.tracker_sigma_at(d) > base.tracker_sigma_at(d)
    # paired empirical check: same draws scaled by the larger sigma
    rng_a = np.random.default_rng(3)
    rng_b = np.random.default_rng(3)
    a = _noise_draws(base, d, [0, 0, 1], rng_a, (20_000, 3))
    b = _noise_draws(double, d, [0, 0, 1], rng_b, (20_000, 3))
    assert np.std(b[:, 0]) > np.std(a[:, 0])


# -- trials -------------------------------------------------------------------------


@pytest.mark.parametrize("method", DEFAULT_METHODS)
def test_zero_noise_trial_is_exact(method):
    cfg = StudyConfig(noise=ZERO_NOISE)
    cell = cfg.cells(method.modality)[0]
    trial = run_trial(PHANTOM, method, cell, cfg, _trial_rng(1, 0, 0))
    assert trial.ok
    assert trial.rmse_mm < 1e-6


def test_trial_deterministic_for_seed():
    cfg = StudyConfig()
    method = DEFAULT_METHODS[0]
    cell = cfg.cells(method.modality)[0]
    a = run_trial(PHANTOM, method, cell, cfg, _trial_rng(9, 4, 2))
    b = run_trial(PHANTOM, method, cell, cfg, _trial_rng(9, 4, 2))
    assert a.rmse_mm == b.rmse_mm


def test_robot_rmse_dominates_navigation_with_common_random_numbers():
    cfg = StudyConfig()
    nav = DEFAULT_METHODS[0]
    robot = DEFAULT_METHODS[2]
    cell = cfg.cells(nav.modality)[0]
    wins = 0
    for t in range(1000):
        rng_a = _trial_rng(cfg.noise.seed, nav.stream_key(), t)
        rng_b = _trial_rng(cfg.noise.seed, robot.stream_key(), t)
        a = run_trial(PHANTOM, nav, cell, cfg, rng_a)
        b = run_trial(PHANTOM, robot, cell, cfg, rng_b)
        wins += b.rmse_mm >= a.rmse_mm
    assert wins >= 950


def test_additional_detector_noise_never_helps_paired():
    quiet = StudyConfig(noise=NoiseModel(detector_sigma=0.0))
    loud = StudyConfig(noise=NoiseModel(detector_sigma=1.0))
    method = DEFAULT_METHODS[1]
    cell = quiet.cells(method.modality)[0]
    worse = 0
    for t in range(200):
        a = run_trial(PHANTOM, method, cell, quiet, _trial_rng(11, 0, t))
        b = run_trial(PHANTOM, method, cell, loud, _trial_rng(11, 0, t))
        worse += b.rmse_mm >= a.rmse_mm
    assert worse == 200  # detector noise is the 2D chain's only error source


# -- study --------------------------------------------------------------------------


def test_study_has_table_shape_and_exact_counts():
    cfg = StudyConfig(samples_per_method=36)
    res = run_study(cfg, PHANTOM)
    labels = [m.method.label for m in res.methods]
    assert labels == ["point_based_preop_ct_navigation",
                      "automatic_intraop_2d_navigation",
                      "point_based_preop_ct_robot"]
    for m in res.methods:
        assert len(m.trials) == 36
        assert m.pooled.n + m.n_failed == 36
        assert m.n_failed == 0
        # balanced assignment over cells
        cells = cfg.cells(m.method.modality)
        per_cell = [sum(1 for t in m.trials if t.factors == c) for c in cells]
        assert max(per_cell) - min(per_cell) <= 1


def test_zero_noise_study_all_means_zero():
    cfg = StudyConfig(noise=ZERO_NOISE, samples_per_method=12)
    res = run_study(cfg, PHANTOM)
    for m in res.methods:
        assert m.pooled.mean < 1e-6


def test_study_deterministic_across_runs():
    cfg = StudyConfig(samples_per_method=24)
    r1 = run_study(cfg, PHANTOM)
    r2 = run_study(cfg, PHANTOM)
    for ma, mb in zip(r1.methods, r2.methods):
        va = [t.rmse_mm for t in ma.trials]
        vb = [t.rmse_mm for t in mb.trials]
        assert va == vb


ROBOT_2D = Method("automatic_intraop_2d_robot", Modality.INTRAOP_2D_AUTO_FIDUCIAL, True)


def _assert_study_equals_direct_trials(cfg, methods, direct=run_trial):
    """Every run_study trial equals direct (run_trial, or the per-trial
    reference) on its own generator."""
    res = run_study(cfg, PHANTOM, methods)
    assert [m.method for m in res.methods] == list(methods)
    for m in res.methods:
        cells = cfg.cells(m.method.modality)
        for t, trial in enumerate(m.trials):
            one = direct(PHANTOM, m.method, cells[t % len(cells)], cfg,
                         _trial_rng(cfg.noise.seed, m.method.stream_key(), t))
            assert trial == one  # rmse_mm and error compared with ==
    return res


@pytest.mark.parametrize("methods", [DEFAULT_METHODS, DEFAULT_METHODS[::-1],
                                     DEFAULT_METHODS[2:], DEFAULT_METHODS + (ROBOT_2D,)],
                         ids=["default", "reversed", "robot_only", "robot_2d"])
def test_study_trials_equal_direct_trials(methods):
    # methods sharing a stream key share one stacked chain pass; each trial
    # must still be the one run_trial gives, and a robot method's kinematic
    # draw follows its chain's draws on either modality
    res = _assert_study_equals_direct_trials(StudyConfig(samples_per_method=36), methods)
    assert all(m.n_failed == 0 for m in res.methods)


@pytest.mark.parametrize("jitter", [5.0, 60.0])
def test_study_trials_equal_per_trial_reference(jitter):
    # the stacked passes against the per-trial chain they replaced, bit for
    # bit, failed 2D trials (ParallelRays at 60 degrees) included
    cfg = StudyConfig(samples_per_method=50, view_jitter_deg=jitter)
    res = _assert_study_equals_direct_trials(cfg, DEFAULT_METHODS + (ROBOT_2D,),
                                             direct=reference.run_trial)
    assert (res.method("automatic_intraop_2d_navigation").n_failed > 0) == (jitter == 60.0)
    assert res.method(ROBOT_2D.label).n_failed == \
        res.method("automatic_intraop_2d_navigation").n_failed


@pytest.mark.parametrize("method", DEFAULT_METHODS + (ROBOT_2D,), ids=lambda m: m.label)
def test_run_trial_equals_per_trial_reference(method):
    cfg = StudyConfig(view_jitter_deg=60.0)
    cells = cfg.cells(method.modality)
    for t in range(40):
        rngs = [_trial_rng(3, 17, t) for _ in range(2)]
        assert (run_trial(PHANTOM, method, cells[t % len(cells)], cfg, rngs[0])
                == reference.run_trial(PHANTOM, method, cells[t % len(cells)], cfg, rngs[1]))
        # a succeeded trial leaves its generator where the per-trial chain did
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


def test_registration_transform_is_the_one_stack_chain():
    # the placement study's re-registration, the one-stack chain: same
    # transforms as the reference, the generator left where the chain leaves
    # it, and a failed chain raises its own error
    cfg = StudyConfig(view_jitter_deg=60.0)

    def one_stack(method, factors, rng):
        return simharness._registration_chains(PHANTOM, method.modality, [factors],
                                               cfg.noise, [rng], 60.0).transforms(0)

    failures = 0
    for method in (DEFAULT_METHODS[0], DEFAULT_METHODS[1]):
        for t in range(40):
            factors = cfg.cells(method.modality)[t % 4]
            rng, ref_rng = _trial_rng(5, 0, t), _trial_rng(5, 0, t)
            try:
                (r_est, t_est), (r_gt, t_gt) = reference.registration_transform(
                    PHANTOM, method.modality, factors, cfg.noise, ref_rng, 60.0)
            except SpineNavError as e:
                with pytest.raises(type(e), match=str(e)):
                    one_stack(method, factors, rng)
                failures += 1
                continue
            est, gt = one_stack(method, factors, rng)
            assert np.array_equal(est.rotation, r_est) and np.array_equal(est.translation, t_est)
            assert np.array_equal(gt.rotation, r_gt) and np.array_equal(gt.translation, t_gt)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert failures > 0


@pytest.mark.parametrize("methods", [DEFAULT_METHODS, DEFAULT_METHODS[::-1]],
                         ids=["default", "reversed"])
def test_study_failed_2d_trials_equal_direct_trials(methods):
    # at 60 degrees of view jitter some AP/LP pairs come within 5 degrees
    # of parallel and the 2D chain fails
    res = _assert_study_equals_direct_trials(
        StudyConfig(samples_per_method=60, view_jitter_deg=60.0), methods)
    failed = [t for t in res.method("automatic_intraop_2d_navigation").trials if not t.ok]
    assert failed and all(t.error.startswith("ParallelRays: ") for t in failed)


@pytest.mark.parametrize("methods", [DEFAULT_METHODS, DEFAULT_METHODS[::-1],
                                     DEFAULT_METHODS[2:]],
                         ids=["default", "reversed", "robot_only"])
def test_study_failed_shared_chains_equal_direct_trials(monkeypatch, methods):
    # the pre-op chain fails on odd trials (found by the chain's first draw,
    # its ground-truth pose), with the trial number in the error; navigation
    # and robot trials must each report the failure of their own trial
    cfg = StudyConfig(samples_per_method=24)
    key = DEFAULT_METHODS[0].stream_key()
    odd = {reference.random_rigid(_trial_rng(cfg.noise.seed, key, t))[1].tobytes(): t
           for t in range(1, cfg.samples_per_method, 2)}
    chains = simharness._registration_chains

    def failing_on_odd_trials(phantom, modality, factors, noise, rngs, jitter_deg):
        out = chains(phantom, modality, factors, noise, rngs, jitter_deg)
        errors = list(out.errors)
        for k, t_gt in enumerate(out.gt_translations):
            t = odd.get(t_gt.tobytes())
            if modality is DEFAULT_METHODS[0].modality and t is not None:
                errors[k] = DegenerateGeometry(f"injected at trial {t}")
        return out._replace(errors=errors)

    monkeypatch.setattr(simharness, "_registration_chains", failing_on_odd_trials)
    res = _assert_study_equals_direct_trials(cfg, methods)
    for m in res.methods:
        if m.method.modality is DEFAULT_METHODS[0].modality:
            assert [t.error for t in m.trials[1::2]] == [
                f"DegenerateGeometry: injected at trial {t}"
                for t in range(1, cfg.samples_per_method, 2)]
            assert all(t.ok for t in m.trials[0::2])


@pytest.mark.parametrize("methods, chains", [(DEFAULT_METHODS, 2), (DEFAULT_METHODS[::-1], 2),
                                             (DEFAULT_METHODS[:1] + DEFAULT_METHODS[2:], 1)],
                         ids=["default", "reversed", "preop_pair"])
def test_study_runs_one_chain_per_stream_key_and_trial(monkeypatch, methods, chains):
    # one stacked chain pass per stream key, covering each trial once
    calls = []
    chain = simharness._registration_chains

    def counted(*args):
        calls.append((args[1], len(args[4])))
        return chain(*args)

    monkeypatch.setattr(simharness, "_registration_chains", counted)
    run_study(StudyConfig(samples_per_method=12), PHANTOM, methods)
    assert len(calls) == chains
    assert sorted(calls, key=str) == sorted({(m.modality, 12) for m in methods}, key=str)
    # a direct run_trial still runs its own chain
    run_trial(PHANTOM, methods[0], StudyConfig().cells(methods[0].modality)[0],
              StudyConfig(), _trial_rng(1, methods[0].stream_key(), 0))
    assert calls[-1] == (methods[0].modality, 1) and len(calls) == chains + 1


def test_calibration_hits_target_mean():
    cfg = calibrate_tracker_sigma0(PHANTOM, StudyConfig())
    res = run_study(cfg, PHANTOM, methods=DEFAULT_METHODS[:1])
    assert res.methods[0].pooled.mean == pytest.approx(0.99, abs=0.05)


def test_study_stats_invariants():
    cfg = StudyConfig(samples_per_method=24)
    res = run_study(cfg, PHANTOM)
    for m in res.methods:
        assert m.pooled.sd >= 0.0
        assert m.pooled.ci95 >= m.pooled.mean
        assert m.pooled.ci95 == pytest.approx(m.pooled.mean + 1.96 * m.pooled.sd)


# -- placement study -----------------------------------------------------------------


PH5 = generate_phantom(PhantomSpec(levels=5), seed=42)


@pytest.mark.parametrize("screws", [2, 6, 10])
def test_zero_noise_placement_all_grade_a_radiation_3(screws):
    cfg = StudyConfig(noise=ZERO_NOISE)
    res = run_placement_study(cfg, PH5, screws)
    for arm in res.arms:
        assert arm.grade_percent["A"] == 100.0
        assert arm.radiation_mean == pytest.approx(3.0)
        assert list(arm.grade_percent.keys()) == ["A", "B", "C", "D", "E"]
        assert sum(arm.grade_percent.values()) == pytest.approx(100.0, abs=0.1)


def test_placement_degrades_monotonically_with_noise_scale():
    cfg = StudyConfig()
    prev = {"navigation": 101.0, "robot": 101.0}
    for mult in (1.0, 2.0, 4.0):
        res = run_placement_study(cfg, PH5, 10, noise_multiplier=mult)
        for arm in res.arms:
            assert arm.grade_percent["A"] <= prev[arm.arm] + 1e-9
            prev[arm.arm] = arm.grade_percent["A"]


def _placement_outcome(run, config, multiplier):
    try:
        return run(config, PH5, 10, noise_multiplier=multiplier)
    except SpineNavError as e:
        return type(e), str(e)


@pytest.mark.parametrize("modality", list(Modality), ids=lambda m: m.name)
@pytest.mark.parametrize("jitter", [5.0, 60.0])
def test_placement_study_equals_per_screw_reference(modality, jitter):
    # the stacked chain pass per arm against the screw-by-screw loop, on
    # the reference chains: equal grades, percentages and radiation, or the
    # same error at the same point
    failures = set()
    for multiplier in (1, 3, 6, 12):
        for seed in (1, 2, 3):
            cfg = StudyConfig(modality=modality, view_jitter_deg=jitter,
                              noise=NoiseModel(seed=seed))
            got = _placement_outcome(run_placement_study, cfg, multiplier)
            assert got == _placement_outcome(reference.run_placement_study, cfg, multiplier)
            if isinstance(got, tuple):
                failures.add(got[0])
    parallel = modality is Modality.INTRAOP_2D_AUTO_FIDUCIAL and jitter == 60.0
    assert failures == {ParallelRays if parallel else DegenerateSpec}


def test_placement_runs_one_chain_pass_per_arm(monkeypatch):
    # one stacked pass over each arm's 10 screws, then one one-stack chain
    # per re-registration of screw 0
    calls = []
    chain, step = simharness._registration_chains, simharness.advance

    def counted(*args):
        calls.append(len(args[4]))
        return chain(*args)

    def logged(session, event):
        if event.kind is EventKind.RE_REGISTER:
            calls.append("re-register")
        return step(session, event)

    monkeypatch.setattr(simharness, "_registration_chains", counted)
    monkeypatch.setattr(simharness, "advance", logged)
    run_placement_study(StudyConfig(noise=NoiseModel(seed=3)), PH5, 10, noise_multiplier=3)
    second = calls.index(10, 1)
    navigation, robot = calls[1:second], calls[second + 1:]
    assert calls[0] == 10 and navigation and robot
    for arm in (navigation, robot):
        assert arm == ["re-register", 1] * (len(arm) // 2)


def test_placement_rejects_bad_screw_counts():
    cfg = StudyConfig(noise=ZERO_NOISE)
    with pytest.raises(ValueError):
        run_placement_study(cfg, PH5, 0)
    with pytest.raises(ValueError):
        run_placement_study(cfg, PH5, 99)


@pytest.mark.parametrize("screws", [2.5, 2.0, True, "2", None])
def test_placement_refuses_a_screw_count_that_is_not_an_int(screws):
    with pytest.raises(BadInput, match="screws_per_arm must be an integer"):
        run_placement_study(StudyConfig(noise=ZERO_NOISE), PH5, screws)


@pytest.mark.parametrize("multiplier", [-1.0, float("nan"), float("inf"), True, "2", None])
def test_placement_refuses_a_bad_noise_multiplier_by_name(multiplier):
    with pytest.raises(BadInput, match="noise_multiplier must be a finite number >= 0"):
        run_placement_study(StudyConfig(), PH5, 2, noise_multiplier=multiplier)


@pytest.mark.parametrize("field", ["tracker_sigma0", "depth_anisotropy", "distance_ref",
                                   "distance_growth", "detector_sigma", "kinematic_sigma"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_noise_model_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match="finite"):
        NoiseModel(**{field: value})


@pytest.mark.parametrize("field", ["tracker_sigma0", "depth_anisotropy", "detector_sigma",
                                   "kinematic_sigma"])
def test_noise_model_rejects_negative_magnitudes(field):
    with pytest.raises(ValueError, match=">= 0"):
        NoiseModel(**{field: -0.1})


@pytest.mark.parametrize("seed", ["1", 1.5, True, None])
def test_noise_model_seed_is_an_integer(seed):
    with pytest.raises(BadInput, match="seed must be an integer"):
        NoiseModel(seed=seed)


# -- reports ------------------------------------------------------------------------


def test_summarize_empty_rejected(tmp_path):
    cfg = StudyConfig(samples_per_method=4)
    res = run_study(cfg, PHANTOM)
    empty = type(res)((), res.config)
    with pytest.raises(ValueError):
        summarize(empty, tmp_path)
    assert not list(tmp_path.iterdir())  # no partial files


def test_summarize_byte_identical_reruns(tmp_path):
    cfg = StudyConfig(samples_per_method=12)
    res = run_study(cfg, PHANTOM)
    paths = summarize(res, tmp_path)
    first = {k: p.read_bytes() for k, p in paths.items()}
    paths = summarize(res, tmp_path)
    second = {k: p.read_bytes() for k, p in paths.items()}
    assert first == second


def test_csv_schema_fixed():
    cfg = StudyConfig(samples_per_method=6)
    res = run_study(cfg, PHANTOM)
    lines = [l for l in study_csv(study_report(res)).splitlines() if not l.startswith("#")]
    assert lines[0] == "method,modality,n,mean_mm,sd_mm,ci95_mm"
    assert len(lines) == 4


def test_json_carries_both_ci_columns():
    cfg = StudyConfig(samples_per_method=6)
    res = run_study(cfg, PHANTOM)
    payload = study_report(res)
    pooled = payload["methods"][0]["pooled"]
    assert "ci_mu_plus_1sigma_mm" in pooled
    assert "ci95_mu_plus_1p96sigma_mm" in pooled
    assert payload["provenance"]["tool"] == "spinenav"


def test_json_reports_pooled_navigation_row():
    cfg = StudyConfig(samples_per_method=6)
    res = run_study(cfg, PHANTOM)
    payload = study_report(res)
    pooled = payload["navigation_pooled"]
    assert pooled["n"] == 12  # both navigation methods, no value asserted
