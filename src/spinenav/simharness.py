"""Phantom generation, measurement-noise models, and the Monte Carlo studies
that verify the full measurement chains.

The accuracy study runs three registration methods (point-based pre-op CT
under navigation, automatic intra-op 2D under navigation, point-based pre-op
CT with robot assistance) over balanced factor cells and reports mean/SD/CI
statistics per method. The placement study drives complete workflow sessions
per screw and grades the simulated outcomes, tallying C-arm exposures.

Every operation is a pure function of (inputs, seed): trials draw from
independent generators spawned per (method, trial) so results are identical
across repeat runs.
"""

from __future__ import annotations

import hashlib
import math
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import calibration as cal
from .errors import DegenerateSpec, GuardFailed, SpineNavError
from .fileio import atomic_write, csv_with_provenance, provenance, write_json
from .geom import RigidTransform, axis_basis, compose, cross3, invert
from .kinematics import Trajectory
from .meshes import bumpy_ellipsoid
from .planning import (
    PedicleModel,
    ScrewPlan,
    breach_depth,
    grade_gertzbein,
    grade_percent,
    validate_plan,
)
from .registration import (
    FiducialSet,
    RegistrationResult,
    SurfaceModel,
    register_points,
)
from .workflow import (
    Event,
    EventKind,
    Modality,
    Mode,
    radiation_report,
    advance,
    new_session,
)

SOURCE_DETECTOR_DISTANCE_MM = 1000.0

# Calibrated defaults: tracker_sigma0 is scaled so the default study's
# point-based pre-op CT pooled mean lands at 0.99 mm; detector and kinematic
# sigmas then put the other methods near 1.05 and 1.11 with the method
# ordering preserved and every mean + 1.96 sd under 2.0.
DEFAULT_TRACKER_SIGMA0 = 0.5072585406
DEFAULT_DETECTOR_SIGMA = 1.75
DEFAULT_KINEMATIC_SIGMA = 0.27
DEFAULT_SEED = 21
DEFAULT_PHANTOM_SEED = 42

TOOL_ANGLE_GAIN = 0.25  # extra tracker noise fraction at 60 deg tool tilt


@dataclass(frozen=True)
class NoiseModel:
    """Measurement-noise configuration; all magnitudes in mm.

    Tracker noise grows linearly with distance from distance_ref and is
    anisotropic along the viewing axis. Streams are reproducible: the same
    seed yields identical draws.
    """

    tracker_sigma0: float = DEFAULT_TRACKER_SIGMA0
    depth_anisotropy: float = 3.0
    distance_ref: float = 1800.0
    distance_growth: float = 1.5e-4  # per mm beyond distance_ref
    detector_sigma: float = DEFAULT_DETECTOR_SIGMA
    kinematic_sigma: float = DEFAULT_KINEMATIC_SIGMA
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        for name in ("tracker_sigma0", "depth_anisotropy", "distance_ref",
                     "distance_growth", "detector_sigma", "kinematic_sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("tracker_sigma0", "depth_anisotropy", "detector_sigma",
                     "kinematic_sigma"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")

    def tracker_sigma_at(self, distance_mm: float) -> float:
        return self.tracker_sigma0 * (
            1.0 + self.distance_growth * (distance_mm - self.distance_ref))

    def to_dict(self) -> dict:
        return {"tracker_sigma0": self.tracker_sigma0,
                "depth_anisotropy": self.depth_anisotropy,
                "distance_ref": self.distance_ref,
                "distance_growth": self.distance_growth,
                "detector_sigma": self.detector_sigma,
                "kinematic_sigma": self.kinematic_sigma,
                "seed": self.seed}

    @staticmethod
    def from_dict(d: dict) -> "NoiseModel":
        return NoiseModel(**d)


def _tracker_noise(noise: NoiseModel, n: int, distance: float, view_axis,
                   rng: np.random.Generator, multiplier: float = 1.0) -> np.ndarray:
    """(n, 3) anisotropic tracker noise: per-axis sigma(d), scaled by
    depth_anisotropy along the viewing axis."""
    u, v, axis = axis_basis(view_axis)
    sigma = noise.tracker_sigma_at(distance) * multiplier
    g = rng.normal(size=(n, 3))
    return sigma * (g[:, :1] * u + g[:, 1:2] * v
                    + noise.depth_anisotropy * g[:, 2:3] * axis)


def sample_noisy_measurement(noise: NoiseModel, true_point, tracker_distance: float,
                             view_axis, rng: np.random.Generator | None = None):
    """One noisy 3D measurement of true_point. Pass an explicit generator to
    draw a stream; without one, a fresh generator from noise.seed is used
    (so repeated calls return the same draw)."""
    if rng is None:
        rng = np.random.default_rng(noise.seed)
    p = np.asarray(true_point, dtype=float)
    return p + _tracker_noise(noise, 1, tracker_distance, view_axis, rng)[0]


# -- phantom ----------------------------------------------------------------------


@dataclass(frozen=True)
class PhantomSpec:
    levels: int = 3
    fiducial_count: int = 6
    extent_mm: float = 160.0

    def __post_init__(self):
        if not math.isfinite(self.extent_mm):
            raise ValueError("extent_mm must be finite")


@dataclass(frozen=True)
class Phantom:
    """Synthetic spine phantom: registration fiducials, a probeable surface,
    pedicle corridors, and held-out verification targets."""

    fiducials: FiducialSet
    surface: SurfaceModel
    pedicles: tuple  # PedicleModel, ordered L1-left, L1-right, L2-left, ...
    targets: FiducialSet

    def __post_init__(self):
        if set(self.fiducials.labels) & set(self.targets.labels):
            raise ValueError("registration fiducials and verification targets "
                             "must use disjoint labels")
        object.__setattr__(self, "pedicles", tuple(self.pedicles))


def phantom_to_dict(phantom: Phantom) -> dict:
    """Phantom in the shared wire formats (fiducial sets, surface, pedicles)."""
    return {"fiducials": phantom.fiducials.to_dict(),
            "surface": phantom.surface.to_dict(),
            "pedicles": [p.to_dict() for p in phantom.pedicles],
            "targets": phantom.targets.to_dict()}


def phantom_from_dict(d: dict) -> Phantom:
    return Phantom(FiducialSet.from_dict(d["fiducials"]),
                   SurfaceModel.from_dict(d["surface"]),
                   tuple(PedicleModel.from_dict(p) for p in d["pedicles"]),
                   FiducialSet.from_dict(d["targets"]))


LEVEL_SPACING_MM = 35.0
PEDICLE_LENGTH_MM = 40.0


def generate_phantom(spec: PhantomSpec, seed: int) -> Phantom:
    """Deterministic phantom for a given (spec, seed).

    Fiducials are rejected until clearly non-coplanar; pedicle pairs get
    waist radii in [2.0, 4.5] mm with wider ends; verification targets sit
    near the pedicle entries, label-disjoint from the fiducials.
    """
    if spec.fiducial_count < 4:
        raise DegenerateSpec("need at least 4 registration fiducials")
    if spec.levels < 1:
        raise DegenerateSpec("need at least one vertebral level")
    if spec.extent_mm <= 0:
        raise DegenerateSpec("extent must be positive")
    rng = np.random.default_rng(seed)
    spine_length = spec.levels * LEVEL_SPACING_MM

    for _ in range(200):
        pts = np.column_stack([
            rng.uniform(-spec.extent_mm / 2, spec.extent_mm / 2, spec.fiducial_count),
            rng.uniform(-spec.extent_mm / 3, spec.extent_mm / 3, spec.fiducial_count),
            rng.uniform(0.0, spine_length, spec.fiducial_count),
        ])
        sv = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
        spread_ok = np.max(np.ptp(pts, axis=0)) >= 0.65 * spec.extent_mm
        if sv[2] / sv[0] > 5e-2 and spread_ok:
            break
    else:
        raise DegenerateSpec("could not draw a usable fiducial set")
    fiducials = FiducialSet("Patient", tuple(f"F{i + 1}" for i in range(len(pts))), pts)

    pedicles = []
    for lv in range(spec.levels):
        z = (lv + 0.5) * LEVEL_SPACING_MM
        for side, sign in (("left", 1.0), ("right", -1.0)):
            waist = rng.uniform(2.0, 4.5)
            ends = waist + rng.uniform(0.5, 1.5)
            knot = rng.uniform(0.4, 0.6)
            p0 = np.array([sign * 14.0, -5.0, z]) + rng.normal(scale=0.5, size=3)
            direction = np.array([-sign * 0.25, 1.0, 0.0]) + rng.normal(scale=0.03, size=3)
            direction /= np.linalg.norm(direction)
            pedicles.append(PedicleModel(
                f"L{lv + 1}-{side}", p0, p0 + PEDICLE_LENGTH_MM * direction,
                ((0.0, ends), (knot, waist), (1.0, ends))))

    n_targets = 10
    entries = np.array([p.p0 for p in pedicles])
    idx = rng.integers(0, len(entries), size=n_targets)
    tpts = entries[idx] + rng.normal(scale=4.0, size=(n_targets, 3))
    targets = FiducialSet("Patient", tuple(f"T{i + 1}" for i in range(n_targets)), tpts)

    surface = bumpy_ellipsoid(rng, semi_axes=(30.0, 25.0, 20.0),
                              center=(0.0, 10.0, spine_length / 2.0))
    return Phantom(fiducials, surface, tuple(pedicles), targets)


# -- study configuration ------------------------------------------------------------


@dataclass(frozen=True)
class Method:
    label: str
    modality: Modality
    robot_assisted: bool

    def stream_key(self) -> int:
        """Per-modality RNG key: methods sharing a modality share streams,
        so robot assistance pairs with its navigation baseline by common
        random numbers (the paired-design the studies assert against).
        Because the streams are shared, so is each trial's registration
        chain: run_study runs it once per stream key and trial and gives the
        outcome to every method that shares it."""
        digest = hashlib.sha256(self.modality.value.encode("utf-8")).digest()
        return int.from_bytes(digest[:4], "big")


DEFAULT_METHODS = (
    Method("point_based_preop_ct_navigation", Modality.PREOP_CT_POINT_BASED, False),
    Method("automatic_intraop_2d_navigation", Modality.INTRAOP_2D_AUTO_FIDUCIAL, False),
    Method("point_based_preop_ct_robot", Modality.PREOP_CT_POINT_BASED, True),
)


@dataclass(frozen=True)
class StudyConfig:
    """One accuracy study: factors, sample count, and noise magnitudes.

    modality/robot_assisted name the method used when a single trial is run
    directly; run_study sweeps the three standard methods.
    """

    modality: Modality = Modality.PREOP_CT_POINT_BASED
    robot_assisted: bool = False
    user_groups: tuple = (1.0, 1.25, 1.5)        # probing-noise multipliers
    tool_angles_deg: tuple = (0.0, 30.0, 60.0)
    tracker_distances_mm: tuple = (1500.0, 2100.0)
    detector_distances_mm: tuple = (300.0, 450.0)
    samples_per_method: int = 150
    noise: NoiseModel = field(default_factory=NoiseModel)
    view_jitter_deg: float = 5.0
    threads: int = 1  # accepted but unused: trials run serially

    def __post_init__(self):
        n = self.samples_per_method
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError(f"samples_per_method must be an integer, got {n!r}")
        if n < 1:
            raise ValueError("samples_per_method must be >= 1")
        if not math.isfinite(self.view_jitter_deg):
            raise ValueError("view_jitter_deg must be finite")
        for name in ("user_groups", "tool_angles_deg", "tracker_distances_mm",
                     "detector_distances_mm"):
            values = tuple(getattr(self, name))
            if not values:
                raise ValueError(f"{name} must be non-empty")
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"{name} entries must be finite")

    def cells(self, modality: Modality) -> list:
        """Balanced factor grid; detector distance applies to 2D imaging only."""
        det = (self.detector_distances_mm
               if modality is Modality.INTRAOP_2D_AUTO_FIDUCIAL
               else (self.detector_distances_mm[0],))
        return [{"user_group": g, "tool_angle_deg": a, "tracker_distance_mm": td,
                 "detector_distance_mm": dd}
                for g in self.user_groups for a in self.tool_angles_deg
                for td in self.tracker_distances_mm for dd in det]

    def to_dict(self) -> dict:
        # threads is not experiment identity, so it stays out of serialized
        # configs (and out of the provenance hash)
        return {"modality": self.modality.value,
                "robot_assisted": self.robot_assisted,
                "user_groups": list(self.user_groups),
                "tool_angles_deg": list(self.tool_angles_deg),
                "tracker_distances_mm": list(self.tracker_distances_mm),
                "detector_distances_mm": list(self.detector_distances_mm),
                "samples_per_method": self.samples_per_method,
                "noise": self.noise.to_dict(),
                "view_jitter_deg": self.view_jitter_deg}

    @staticmethod
    def from_dict(d: dict) -> "StudyConfig":
        d = dict(d)
        if "modality" in d:
            d["modality"] = Modality(d["modality"])
        if "noise" in d:
            d["noise"] = NoiseModel.from_dict(d["noise"])
        for key in ("user_groups", "tool_angles_deg", "tracker_distances_mm",
                    "detector_distances_mm"):
            if key in d:
                d[key] = tuple(d[key])
        return StudyConfig(**d)


@dataclass(frozen=True)
class TrialResult:
    method: str
    modality: Modality
    robot_assisted: bool
    factors: dict
    rmse_mm: float | None
    ok: bool = True
    error: str | None = None


@dataclass(frozen=True)
class StudyStats:
    mean: float
    sd: float
    ci95: float  # mean + 1.96 sd
    n: int

    @staticmethod
    def from_values(values) -> "StudyStats":
        v = np.asarray(list(values), dtype=float)
        mean = float(np.mean(v))
        sd = float(np.std(v, ddof=1)) if len(v) > 1 else 0.0
        return StudyStats(mean, sd, mean + 1.96 * sd, len(v))

    def ci_mu_plus_1sigma(self) -> float:
        return self.mean + self.sd


# -- measurement chains ---------------------------------------------------------------


def _random_rigid(rng: np.random.Generator, translation_scale: float = 40.0) -> RigidTransform:
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    return RigidTransform.from_quaternion(
        q, rng.uniform(-translation_scale, translation_scale, size=3))


def _angle_multiplier(tool_angle_deg: float) -> float:
    return 1.0 + TOOL_ANGLE_GAIN * (1.0 - np.cos(np.deg2rad(tool_angle_deg)))


def _carm_pair(center, detector_distance_mm: float, jitter_deg: float,
               rng: np.random.Generator):
    """Ground-truth AP/LP pinhole views about a region-of-interest center,
    nominally 90 degrees apart with seeded jitter."""
    source_to_roi = SOURCE_DETECTOR_DISTANCE_MM - detector_distance_mm
    center = np.asarray(center, dtype=float)
    models = []
    for view, azimuth in (("AP", -np.pi / 2), ("LP", np.pi)):
        azimuth = azimuth + np.deg2rad(rng.uniform(-jitter_deg, jitter_deg))
        src = center + source_to_roi * np.array([np.cos(azimuth), np.sin(azimuth), 0.0])
        z = center - src
        z /= np.linalg.norm(z)
        x = cross3((0.0, 0.0, 1.0), z)
        x /= np.linalg.norm(x)
        y = cross3(z, x)
        r = np.vstack([x, y, z])
        pose = RigidTransform(r, -r @ src)
        models.append(cal.pinhole_projection(pose, SOURCE_DETECTOR_DISTANCE_MM, view))
    return models


def _make_calibrator_offsets(n: int = 16, extent: float = 140.0) -> np.ndarray:
    """Fixed C-arm calibrator geometry: one physical device, so the offsets
    are a constant non-coplanar cloud (deterministic across runs)."""
    rng = np.random.default_rng(20240915)
    while True:
        pts = rng.uniform(-extent / 2, extent / 2, size=(n, 3))
        sv = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
        if sv[2] / sv[0] > 0.2:
            return pts - pts.mean(axis=0)


_CALIBRATOR_OFFSETS = _make_calibrator_offsets()


def _registration_transform(phantom: Phantom, method: Method, factors: dict,
                            noise: NoiseModel, rng: np.random.Generator,
                            jitter_deg: float):
    """Run one registration chain; returns (t_est, t_gt) mapping patient ->
    image/CArm coordinates."""
    t_gt = _random_rigid(rng)
    tracker_pos = np.array([0.0, -factors["tracker_distance_mm"], 400.0])
    roi = phantom.fiducials.points.mean(axis=0)
    view_axis = roi - tracker_pos
    multiplier = factors["user_group"] * _angle_multiplier(factors["tool_angle_deg"])

    if method.modality is Modality.PREOP_CT_POINT_BASED:
        fixed = phantom.fiducials.transformed(t_gt, frame="PreOpImage")
        noisy = phantom.fiducials.points + _tracker_noise(
            noise, len(phantom.fiducials), factors["tracker_distance_mm"],
            view_axis, rng, multiplier)
        moving = FiducialSet("Patient", phantom.fiducials.labels, noisy)
        return register_points(fixed, moving).transform, t_gt

    # automatic intra-op 2D: per-view DLT calibration from the fixed C-arm
    # calibrator, jig detections with detector noise, then triangulation and
    # rigid registration inside register_patient_2d
    jig_world = phantom.fiducials.transformed(t_gt, frame="CArm")
    roi_world = jig_world.points.mean(axis=0)
    true_models = _carm_pair(roi_world, factors["detector_distance_mm"],
                             jitter_deg, rng)
    views = []
    cal_pts = roi_world[None, :] + _CALIBRATOR_OFFSETS
    cal_labels = tuple(f"C{i + 1}" for i in range(len(cal_pts)))
    for true_model in true_models:
        uv_cal = cal.project(true_model, cal_pts)
        uv_cal = uv_cal + rng.normal(scale=noise.detector_sigma, size=uv_cal.shape)
        det_cal = cal.Detection2D(true_model.view_label, cal_labels, uv_cal,
                                  np.ones(len(cal_pts)))
        est_model = cal.dlt_calibrate(list(zip(cal_labels, cal_pts)), det_cal)
        uv_jig = cal.project(true_model, jig_world.points)
        uv_jig = uv_jig + rng.normal(scale=noise.detector_sigma, size=uv_jig.shape)
        det_jig = cal.Detection2D(true_model.view_label, jig_world.labels, uv_jig,
                                  np.ones(len(jig_world)))
        views.append((est_model, det_jig))
    return cal.register_patient_2d(phantom.fiducials, views).transform, t_gt


# Within one run_study trial index: stream key -> (chain outcome, generator
# state the chain left). None outside run_study, where every run_trial runs
# its own chain.
_STUDY_CHAINS: ContextVar = ContextVar("spinenav_study_chains", default=None)


def run_trial(phantom: Phantom, method: Method, factors: dict,
              config: StudyConfig, trial_rng: np.random.Generator) -> TrialResult:
    """One full registration chain evaluated as RMSE at the held-out
    verification targets (a TRE-like statistic, not the fit residual).
    Chain errors are recorded as failed trials, never silently dropped.

    Inside run_study, a trial whose stream key's chain has already run for
    the same trial index takes that chain's outcome (the transforms, or the
    failure) and continues from the generator state it left; see run_study.
    """
    chains, key = _STUDY_CHAINS.get(), method.stream_key()
    shared = None if chains is None else chains.get(key)
    if shared is None:
        try:
            outcome = _registration_transform(phantom, method, factors, config.noise,
                                              trial_rng, config.view_jitter_deg)
        except SpineNavError as e:
            outcome = f"{type(e).__name__}: {e}"
        if chains is not None:
            chains[key] = outcome, trial_rng.bit_generator.state
    else:
        outcome, trial_rng.bit_generator.state = shared
    if isinstance(outcome, str):
        return TrialResult(method.label, method.modality, method.robot_assisted,
                           factors, None, ok=False, error=outcome)
    t_est, t_gt = outcome
    mapped = t_est.apply(phantom.targets.points)
    truth = t_gt.apply(phantom.targets.points)
    if method.robot_assisted:
        mapped = mapped + trial_rng.normal(scale=config.noise.kinematic_sigma,
                                           size=mapped.shape)
    err = np.linalg.norm(mapped - truth, axis=1)
    rmse = float(np.sqrt(np.mean(err ** 2)))
    return TrialResult(method.label, method.modality, method.robot_assisted,
                       factors, rmse)


@dataclass(frozen=True)
class MethodResult:
    method: Method
    pooled: StudyStats
    cells: tuple       # of (factors dict, StudyStats)
    trials: tuple      # of TrialResult in trial order
    n_failed: int


@dataclass(frozen=True)
class StudyResult:
    methods: tuple
    config: StudyConfig

    def method(self, label: str) -> MethodResult:
        for m in self.methods:
            if m.method.label == label:
                return m
        raise KeyError(label)

    def failure_fraction(self) -> float:
        total = sum(len(m.trials) for m in self.methods)
        failed = sum(m.n_failed for m in self.methods)
        return failed / total if total else 0.0


def _trial_rng(study_seed: int, method_key: int, trial_idx: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(study_seed, spawn_key=(method_key, trial_idx)))


def run_study(config: StudyConfig, phantom: Phantom,
              methods=DEFAULT_METHODS) -> StudyResult:
    """Exactly samples_per_method trials per method, balanced round-robin
    over the factor cells, run serially (config.threads is ignored: a thread
    pool only slowed the study); deterministic for a given config.noise.seed.

    Methods with the same stream_key draw the same chain for trial t, so
    the trials run trial by trial and each such chain runs once per stream
    key: run_trial keeps its outcome for that trial index, and a robot
    trial continues from the generator state it left to draw its kinematic
    noise. Every trial equals run_trial on its own _trial_rng, for any
    methods tuple in any order.
    """
    cells = [config.cells(m.modality) for m in methods]
    trials = [[] for _ in methods]
    chains = {}
    token = _STUDY_CHAINS.set(chains)
    try:
        for t in range(config.samples_per_method):
            chains.clear()
            for method, method_cells, method_trials in zip(methods, cells, trials):
                method_trials.append(run_trial(
                    phantom, method, method_cells[t % len(method_cells)], config,
                    _trial_rng(config.noise.seed, method.stream_key(), t)))
    finally:
        _STUDY_CHAINS.reset(token)
    out = []
    for method, method_cells, method_trials in zip(methods, cells, trials):
        ok = [t for t in method_trials if t.ok]
        cell_stats = []
        for cell in method_cells:
            vals = [t.rmse_mm for t in ok if t.factors == cell]
            if vals:
                cell_stats.append((cell, StudyStats.from_values(vals)))
        pooled = StudyStats.from_values([t.rmse_mm for t in ok]) if ok \
            else StudyStats(float("nan"), float("nan"), float("nan"), 0)
        out.append(MethodResult(method, pooled, tuple(cell_stats),
                                tuple(method_trials), len(method_trials) - len(ok)))
    return StudyResult(tuple(out), config)


def calibrate_tracker_sigma0(phantom: Phantom, config: StudyConfig,
                             target_mean_mm: float = 0.99) -> StudyConfig:
    """Scale tracker_sigma0 (single scalar) so the point-based pre-op CT
    pooled mean RMSE hits target_mean_mm; the chain is linear in sigma0 to
    first order, so one pilot study suffices."""
    pilot_noise = replace(config.noise, tracker_sigma0=1.0)
    pilot = replace(config, noise=pilot_noise)
    result = run_study(pilot, phantom, methods=DEFAULT_METHODS[:1])
    measured = result.methods[0].pooled.mean
    scaled = replace(config.noise, tracker_sigma0=target_mean_mm / measured)
    return replace(config, noise=scaled)


# -- placement study -------------------------------------------------------------------


@dataclass(frozen=True)
class ArmResult:
    arm: str
    mode: Mode
    grades: tuple              # per screw: (level, breach_mm, grade letter)
    grade_percent: dict        # all five letters, summing to 100
    radiation_mean: float
    radiation_csv: str


@dataclass(frozen=True)
class PlacementStudyResult:
    arms: tuple
    screws_per_arm: int

    def arm(self, name: str) -> ArmResult:
        for a in self.arms:
            if a.arm == name:
                return a
        raise KeyError(name)


def _centered_plan(pedicle: PedicleModel) -> ScrewPlan:
    """Screw along the corridor axis sized to clear the waist by >= 0.7 mm."""
    waist = min(r for _, r in pedicle.radius_profile)
    diameter = float(np.clip(2.0 * (waist - 0.7), 2.0, 8.0))
    direction = (pedicle.p1 - pedicle.p0) / pedicle.axis_length()
    length = float(np.clip(pedicle.axis_length(), 20.0, 100.0))
    return ScrewPlan(pedicle.level, pedicle.p0, direction, diameter, length)


def _apply_error_to_plan(plan: ScrewPlan, t_est: RigidTransform,
                         t_gt: RigidTransform, kinematic_sigma: float,
                         rng: np.random.Generator) -> ScrewPlan:
    """Achieved axis: navigation drives the tool to the planned pose in
    image coordinates believing t_est, so the patient-frame outcome is
    (t_est^-1 . t_gt) of the plan, plus robot positioning noise if any."""
    err = compose(invert(t_est), t_gt)
    entry = err.apply(plan.entry)
    tip = err.apply(plan.tip())
    if kinematic_sigma > 0.0:
        entry = entry + rng.normal(scale=kinematic_sigma, size=3)
        tip = tip + rng.normal(scale=kinematic_sigma, size=3)
    direction = tip - entry
    direction /= np.linalg.norm(direction)
    return ScrewPlan(plan.level, entry, direction, plan.diameter, plan.length)


def _checked_trajectory() -> Trajectory:
    return Trajectory([0.0, 1.0], np.zeros((2, 6)) + [[0.0] * 6, [0.04] * 6],
                      "two_phase", collision_checked=True)


def run_placement_study(config: StudyConfig, phantom: Phantom,
                        screws_per_arm: int, noise_multiplier: float = 1.0) -> PlacementStudyResult:
    """Grade simulated screw placements for a navigation arm and a robot arm.

    Each arm drives a full workflow session (so the acquisition log is
    genuine): registration images once per level, verification images per
    screw, one registration chain per screw placement. Outputs Table-shaped
    grade percentages (always rows A-E) and the radiation tally.
    """
    if screws_per_arm < 1:
        raise ValueError("screws_per_arm must be >= 1")
    if screws_per_arm > len(phantom.pedicles):
        raise ValueError(f"phantom has only {len(phantom.pedicles)} pedicles")
    noise = replace(config.noise,
                    tracker_sigma0=config.noise.tracker_sigma0 * noise_multiplier,
                    detector_sigma=config.noise.detector_sigma * noise_multiplier,
                    kinematic_sigma=config.noise.kinematic_sigma * noise_multiplier)
    scaled = replace(config, noise=noise)
    arms = []
    for arm_idx, (arm_name, mode, robot) in enumerate(
            (("navigation", Mode.NAVIGATION_ONLY, False),
             ("robot", Mode.ROBOT_ASSISTED, True))):
        method = Method(f"{arm_name}_placement", scaled.modality, robot)
        pedicles = phantom.pedicles[:screws_per_arm]
        levels = sorted({p.level.rsplit("-", 1)[0] for p in pedicles})
        session = new_session(mode, scaled.modality)
        session = advance(session, Event(EventKind.ACQUIRE_PREOP_CT))
        session = advance(session, Event(EventKind.SUBMIT_PATIENT_DATA))
        plans = {}
        for pedicle in pedicles:
            plan = _centered_plan(pedicle)
            validation = validate_plan(plan, pedicle, safety_margin_mm=0.5)
            session = advance(session, Event(EventKind.APPROVE_PLAN, plan=plan,
                                             validation=validation))
            plans[pedicle.level] = plan
        session = advance(session, Event(EventKind.FINISH_PLANNING))
        session = advance(session, Event(EventKind.PREPARE_OT))
        session = advance(session, Event(EventKind.CALIBRATE_INSTRUMENTS))
        session = advance(session, Event(EventKind.ATTACH_DRB))
        if robot:
            session = advance(session, Event(EventKind.POSITION_ROBOT_CART))
        session = advance(session, Event(EventKind.MOUNT_CARM))
        for lv in levels:
            session = advance(session, Event(
                EventKind.ACQUIRE_REGISTRATION_IMAGES, scope=lv, views=("AP", "LP")))
        session = advance(session, Event(EventKind.BEGIN_REGISTRATION))

        cells = scaled.cells(scaled.modality)
        grades = []
        registered = False
        for s_idx, pedicle in enumerate(pedicles):
            rng = _trial_rng(scaled.noise.seed + 7919 * (arm_idx + 1), 0, s_idx)
            factors = cells[s_idx % len(cells)]
            t_est, t_gt = _registration_transform(
                phantom, method, factors, scaled.noise, rng, scaled.view_jitter_deg)
            if not registered:
                # submit for verification; a rejected registration loops back
                # and is re-acquired, exactly as the workflow enforces
                for _ in range(50):
                    mapped = t_est.apply(phantom.fiducials.points)
                    truth = t_gt.apply(phantom.fiducials.points)
                    res = np.linalg.norm(mapped - truth, axis=1)
                    reg = RegistrationResult(t_est, float(np.sqrt(np.mean(res ** 2))),
                                             tuple(res), len(res))
                    session = advance(session, Event(EventKind.SUBMIT_REGISTRATION,
                                                     registration=reg))
                    try:
                        session = advance(session, Event(EventKind.BEGIN_NAVIGATION))
                        break
                    except GuardFailed:
                        session = advance(session, Event(EventKind.RE_REGISTER))
                        t_est, t_gt = _registration_transform(
                            phantom, method, factors, scaled.noise, rng,
                            scaled.view_jitter_deg)
                else:
                    raise DegenerateSpec(
                        "registration never passed verification at this noise level")
                registered = True
            else:
                session = advance(session, Event(EventKind.NEXT_SCREW))
            if robot:
                session = advance(session, Event(EventKind.POSITION_ROBOT,
                                                 trajectory=_checked_trajectory()))
            plan = plans[pedicle.level]
            achieved = _apply_error_to_plan(
                plan, t_est, t_gt,
                scaled.noise.kinematic_sigma if robot else 0.0, rng)
            session = advance(session, Event(EventKind.BEGIN_PLACEMENT,
                                             level=pedicle.level))
            screw_id = f"{pedicle.level}#{s_idx + 1}"
            session = advance(session, Event(EventKind.CONFIRM_PLACEMENT,
                                             level=pedicle.level, scope=screw_id,
                                             achieved=achieved))
            session = advance(session, Event(EventKind.ACQUIRE_VERIFICATION_IMAGES,
                                             scope=screw_id, views=("AP", "LP")))
            breach = breach_depth(achieved, pedicle)
            grades.append((pedicle.level, breach, grade_gertzbein(breach).value))
        session = advance(session, Event(EventKind.COMPLETE_SESSION))

        report = radiation_report(session.acquisition_log, session.placed_screws)
        percent = grade_percent(g for _, _, g in grades)
        arms.append(ArmResult(arm_name, mode, tuple(grades), percent,
                              report.mean_per_screw, report.to_csv()))
    return PlacementStudyResult(tuple(arms), screws_per_arm)


# -- reports ---------------------------------------------------------------------------


def study_report(result: StudyResult) -> dict:
    """The study_results.json document: provenance, config, and per method
    the pooled and per-cell statistics, trial RMSEs and failures."""
    def stats_dict(s: StudyStats) -> dict:
        return {"mean_mm": s.mean, "sd_mm": s.sd, "n": s.n,
                "ci_mu_plus_1sigma_mm": s.ci_mu_plus_1sigma(),
                "ci95_mu_plus_1p96sigma_mm": s.ci95}

    config = result.config.to_dict()
    report = {
        "provenance": provenance(result.config.noise.seed, config),
        "config": config,
        "methods": [{
            "label": m.method.label,
            "modality": m.method.modality.value,
            "robot_assisted": m.method.robot_assisted,
            "pooled": stats_dict(m.pooled),
            "n_failed": m.n_failed,
            "cells": [{"factors": cell, **stats_dict(stats)}
                      for cell, stats in m.cells],
            "rmse_mm": [t.rmse_mm for t in m.trials if t.ok],
            "failures": [t.error for t in m.trials if not t.ok],
        } for m in result.methods],
    }
    # equal-weight pool of the navigation methods, reported but never
    # asserted: the right pooling weights are not well defined
    nav_values = [t.rmse_mm for m in result.methods if not m.method.robot_assisted
                  for t in m.trials if t.ok]
    if nav_values:
        report["navigation_pooled"] = stats_dict(StudyStats.from_values(nav_values))
    return report


def study_csv(report: dict) -> str:
    """study_results.csv from a study_report document (or the parsed JSON
    file): a fixed column set, floats via repr so identical runs are
    identical bytes, provenance in leading comment lines."""
    lines = ["method,modality,n,mean_mm,sd_mm,ci95_mm"]
    for m in report["methods"]:
        pooled = m["pooled"]
        lines.append(",".join([m["label"], m["modality"], str(pooled["n"]),
                               repr(pooled["mean_mm"]), repr(pooled["sd_mm"]),
                               repr(pooled["ci95_mu_plus_1p96sigma_mm"])]))
    return csv_with_provenance(report["provenance"], "\n".join(lines) + "\n")


def summarize(result: StudyResult, out_dir) -> dict:
    """Write study_results.csv and study_results.json; byte-identical when
    re-run on the same results. Raises on empty results, writes atomically."""
    if not result.methods or all(m.pooled.n == 0 for m in result.methods):
        raise ValueError("refusing to summarize empty results")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {"csv": out_dir / "study_results.csv",
             "json": out_dir / "study_results.json"}
    report = study_report(result)
    atomic_write(paths["csv"], study_csv(report))
    write_json(paths["json"], report)
    return paths
