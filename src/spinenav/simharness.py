"""Phantom generation, measurement-noise models, and the Monte Carlo studies
that verify the full measurement chains.

A phantom holds registration fiducials, pedicle corridors and held-out
verification targets. The accuracy study runs three registration methods
(point-based pre-op CT under navigation, automatic intra-op 2D under
navigation, point-based pre-op CT with robot assistance) over balanced
factor cells, trial k in cell k mod C of the C cells, and reports
mean/SD/CI statistics per method. The placement study drives complete
workflow sessions per screw and grades the simulated outcomes, tallying
C-arm exposures.

Every operation is a pure function of (inputs, seed): trials draw from
independent generators spawned per (stream key, trial) so results are
identical across repeat runs.

The accuracy study runs as stacked passes over its trials, one per stream
key: a draw pass takes each trial's draws from its own generator in the
per-trial order, then a math pass runs each step of the registration chain
once over the stack of trials (calibration.*_batch,
registration.register_points_batch). A trial whose step fails keeps that
step's SpineNavError and drops out of the later steps. Each placement arm
runs as one such pass; run_trial and re-registrations are one-trial passes.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import asdict, dataclass, field, replace
from itertools import cycle
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import calibration as cal
from .errors import BadInput, DegenerateSpec, GuardFailed
from .fileio import atomic_write, csv_with_provenance, provenance, write_json
from .geom import (RigidTransform, axis_basis, booleans, check_rigid, compose, cross3,
                   finite_scalars, invert, quaternion_rotations, rigid_apply,
                   rigid_invert, row_dot)
from .kinematics import Trajectory
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
    check_fiducial_points,
    register_points_batch,
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
        finite_scalars(self, "tracker_sigma0", "depth_anisotropy", "distance_ref",
                       "distance_growth", "detector_sigma", "kinematic_sigma")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise BadInput(f"NoiseModel seed must be an integer, got {self.seed!r}")
        for name in ("tracker_sigma0", "depth_anisotropy", "detector_sigma",
                     "kinematic_sigma", "seed"):
            if getattr(self, name) < 0.0:
                raise BadInput(f"{name} must be >= 0")

    def tracker_sigma_at(self, distance_mm: float) -> float:
        return self.tracker_sigma0 * (
            1.0 + self.distance_growth * (distance_mm - self.distance_ref))


def _anisotropic(noise: NoiseModel, sigma, basis, g: np.ndarray) -> np.ndarray:
    """sigma * (g_u u + g_v v + depth_anisotropy g_w axis) from standard
    normal draws g (..., n, 3); sigma and the basis vectors (u, v, axis)
    broadcast against g."""
    u, v, axis = basis
    return sigma * (g[..., :1] * u + g[..., 1:2] * v
                    + noise.depth_anisotropy * g[..., 2:3] * axis)


# -- phantom ----------------------------------------------------------------------


@dataclass(frozen=True)
class PhantomSpec:
    levels: int = 3
    fiducial_count: int = 6
    extent_mm: float = 160.0

    def __post_init__(self):
        finite_scalars(self, "extent_mm")


@dataclass(frozen=True)
class Phantom:
    """Synthetic spine phantom: registration fiducials, pedicle corridors,
    and held-out verification targets."""

    fiducials: FiducialSet
    pedicles: tuple  # PedicleModel, ordered L1-left, L1-right, L2-left, ...
    targets: FiducialSet

    def __post_init__(self):
        if set(self.fiducials.labels) & set(self.targets.labels):
            raise BadInput("registration fiducials and verification targets "
                           "must use disjoint labels")
        object.__setattr__(self, "pedicles", tuple(self.pedicles))


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
    if seed < 0:
        raise BadInput(f"phantom seed must be >= 0, got {seed}")
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
    return Phantom(fiducials, tuple(pedicles), targets)


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
        Because the streams are shared, so are the registration chains:
        run_study runs one stacked pass per stream key over all trials and
        gives each trial's outcome to every method that shares the key."""
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

    run_study sweeps the three standard methods and run_trial takes its
    Method; modality is the imaging modality of run_placement_study's
    sessions. No computation reads robot_assisted: it is kept only because
    every report's config and config hash carry it, so it must be a bool.
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

    def __post_init__(self):
        try:
            object.__setattr__(self, "modality", Modality(self.modality))
        except ValueError as err:
            raise BadInput(f"StudyConfig modality: {err}") from err
        booleans(self, "robot_assisted")
        n = self.samples_per_method
        if isinstance(n, bool) or not isinstance(n, int):
            raise BadInput(f"samples_per_method must be an integer, got {n!r}")
        if n < 1:
            raise BadInput("samples_per_method must be >= 1")
        finite_scalars(self, "view_jitter_deg")
        for name in ("user_groups", "tool_angles_deg", "tracker_distances_mm",
                     "detector_distances_mm"):
            values = tuple(getattr(self, name))
            if not values:
                raise BadInput(f"{name} must be non-empty")
            if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in values):
                raise BadInput(f"{name} entries must be numbers, got {values!r}")
            if not all(math.isfinite(v) for v in values):
                raise BadInput(f"{name} entries must be finite")
            object.__setattr__(self, name, values)

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
        return {**asdict(self), "modality": self.modality.value}

    @staticmethod
    def from_dict(d: dict) -> "StudyConfig":
        """Inverse of to_dict; a missing key takes its default."""
        d = dict(d)
        if "noise" in d:
            d["noise"] = NoiseModel(**d["noise"])
        return StudyConfig(**d)


@dataclass(frozen=True)
class TrialResult:
    factors: dict
    rmse_mm: float | None
    error: str | None = None  # "ErrorClass: message" of a failed trial

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class StudyStats:
    mean: float
    sd: float
    ci95: float  # mean + 1.96 sd
    n: int

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 0:
            raise BadInput(f"StudyStats n must be a non-negative integer, got {self.n!r}")
        check = math.isfinite if self.n else math.isnan  # no values: NaN statistics
        if not all(check(v) for v in (self.mean, self.sd, self.ci95)):
            raise BadInput("StudyStats mean, sd and ci95 must be finite (NaN when n is 0)")

    @staticmethod
    def from_values(values) -> "StudyStats":
        v = np.asarray(list(values), dtype=float)
        mean = float(np.mean(v))
        sd = float(np.std(v, ddof=1)) if len(v) > 1 else 0.0
        return StudyStats(mean, sd, mean + 1.96 * sd, len(v))

    def ci_mu_plus_1sigma(self) -> float:
        return self.mean + self.sd


# -- measurement chains ---------------------------------------------------------------


def _pose_rotations(q: np.ndarray) -> np.ndarray:
    """Ground-truth pose rotations (T, 3, 3) from normal draws q (T, 4):
    normalized here, then again inside quaternion_rotations, as
    RigidTransform.from_quaternion of a normalized quaternion does."""
    return quaternion_rotations(q / np.sqrt(row_dot(q, q))[:, None])


def _angle_multiplier(tool_angle_deg: float) -> float:
    return 1.0 + TOOL_ANGLE_GAIN * (1.0 - np.cos(np.deg2rad(tool_angle_deg)))


def _carm_pairs(center: np.ndarray, detector_distance_mm: np.ndarray,
                jitter_deg: np.ndarray) -> np.ndarray:
    """Ground-truth AP/LP pinhole views about each region-of-interest center
    (T, 3), nominally 90 degrees apart with drawn jitters (T, 2):
    projection matrices (2, T, 3, 4), AP first."""
    source_to_roi = SOURCE_DETECTOR_DISTANCE_MM - detector_distance_mm
    models = []
    for k, azimuth in enumerate((-np.pi / 2, np.pi)):  # AP, LP
        azimuth = azimuth + np.deg2rad(jitter_deg[:, k])
        offset = np.stack([np.cos(azimuth), np.sin(azimuth), np.zeros(len(azimuth))], axis=1)
        src = center + source_to_roi[:, None] * offset
        z = center - src
        z = z / np.sqrt(row_dot(z, z))[:, None]
        x = np.ascontiguousarray(cross3((0.0, 0.0, 1.0), z.T).T)
        x = x / np.sqrt(row_dot(x, x))[:, None]
        # the view's extrinsic inverts the camera pose: axes as columns, source as origin
        axes = np.stack([x, cross3(z.T, x.T).T, z], axis=1)
        r, t = rigid_invert(axes.swapaxes(1, 2), src)
        check_rigid(r, t)
        models.append(cal.pinhole_matrices(r, t, SOURCE_DETECTOR_DISTANCE_MM))
        cal.check_projections(models[-1])
    return np.stack(models)


def _make_calibrator_offsets() -> np.ndarray:
    """Fixed C-arm calibrator geometry: one physical device, so the offsets
    are a constant non-coplanar cloud of 16 points in a 140 mm cube
    (deterministic across runs)."""
    rng = np.random.default_rng(20240915)
    while True:
        pts = rng.uniform(-70.0, 70.0, size=(16, 3))
        sv = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
        if sv[2] / sv[0] > 0.2:
            return pts - pts.mean(axis=0)


_CALIBRATOR_OFFSETS = _make_calibrator_offsets()


class _Chains(NamedTuple):
    """Registration chains of one stream key, one per trial, mapping patient
    -> image/CArm coordinates: ground-truth and estimated rotations
    (T, 3, 3) and translations (T, 3), and per trial None or the
    SpineNavError of its first failing step (its estimate is then NaN). The
    transforms have not been through the RigidTransform guard yet: their
    users run it once, on the stack or as RigidTransforms."""

    gt_rotations: np.ndarray
    gt_translations: np.ndarray
    rotations: np.ndarray
    translations: np.ndarray
    errors: list

    def transforms(self, k: int):
        """Trial k's (t_est, t_gt), or its SpineNavError raised."""
        if self.errors[k] is not None:
            raise self.errors[k]
        return (RigidTransform(self.rotations[k], self.translations[k]),
                RigidTransform(self.gt_rotations[k], self.gt_translations[k]))


class _Running:
    """The trials of a stacked chain still running, and each stopped
    trial's first error."""

    def __init__(self, count: int):
        self.index = np.arange(count)
        self.errors = [None] * count

    @property
    def rows(self):
        """The running trials' rows in the full stack: a slice (a view)
        until a trial stops."""
        return self.index if len(self.index) < len(self.errors) else slice(None)

    def drop(self, failed: dict):
        """Stop the trials a step failed ({index among the running rows:
        error}); returns the index that keeps the step's other results."""
        if not failed:
            return slice(None)
        for i, e in failed.items():
            self.errors[self.index[i]] = e
        keep = np.ones(len(self.index), dtype=bool)
        keep[list(failed)] = False
        self.index = self.index[keep]
        return keep


def _registration_chains(phantom: Phantom, modality: Modality, cells: list,
                         noise: NoiseModel, rngs: list, jitter_deg: float) -> _Chains:
    """Run the registration chains of trials (cells[k mod C], rngs[k]) of
    one modality as stacked passes, C = len(cells): trials cycle through the
    factor cells.

    The draw pass takes every draw of each trial's chain from its own
    generator, in the chain's order, and leaves the generator where the
    chain leaves it: the pose's 4-normal and 3-uniform, then the tracker
    noise (point-based), or the AP and LP jitters and, per view, the
    calibrator and then the jig detector noise (2D). No draw depends on a
    computed value, so drawing first is exact. The math pass then runs each
    step once over the stack of trials still running: a trial whose step
    fails with a SpineNavError keeps that error and drops out of the later
    steps. A failed guard (BadInput) aborts the whole pass.
    """
    count, fid = len(rngs), phantom.fiducials
    point_based = modality is Modality.PREOP_CT_POINT_BASED
    q, shift = np.empty((count, 4)), np.empty((count, 3))
    if point_based:
        g = np.empty((count, len(fid), 3))
    else:
        jitter = np.empty((count, 2))
        # AP calibrator, AP jig, LP calibrator, LP jig
        detector = [np.empty((count, n, 2)) for _ in range(2)
                    for n in (len(_CALIBRATOR_OFFSETS), len(fid))]
    for k, rng in enumerate(rngs):
        q[k] = rng.normal(size=4)
        shift[k] = rng.uniform(-40.0, 40.0, size=3)
        if point_based:
            g[k] = rng.normal(size=(len(fid), 3))
            continue
        jitter[k] = (rng.uniform(-jitter_deg, jitter_deg),
                     rng.uniform(-jitter_deg, jitter_deg))
        for d in detector:
            d[k] = rng.normal(scale=noise.detector_sigma, size=d.shape[1:])

    gt_r, gt_t = _pose_rotations(q), shift
    world = rigid_apply(gt_r, gt_t, fid.points)
    check_fiducial_points(world)
    running = _Running(count)
    if point_based:
        fixed = world
        moving = fid.points + _tracker_noise_stack(phantom, cells, noise, g)
        check_fiducial_points(moving)
    else:
        fixed = _triangulated_jigs(world, cells, jitter, detector, running)
        moving = np.repeat(fid.points[None], count, axis=0)
    rows = running.rows
    r, t, failed = register_points_batch(fixed[rows], moving[rows])
    running.drop(failed)
    rotations = np.full((count, 3, 3), np.nan)
    translations = np.full((count, 3), np.nan)
    rotations[rows], translations[rows] = r, t
    return _Chains(gt_r, gt_t, rotations, translations, running.errors)


def _tracker_noise_stack(phantom: Phantom, cells: list, noise: NoiseModel,
                         g: np.ndarray) -> np.ndarray:
    """The point-based chain's tracker noise from standard normal draws g
    (T, N, 3): sigma and viewing basis come from trial k's factor cell
    cells[k mod C], computed once for each cell the T trials reach."""
    roi = phantom.fiducials.points.mean(axis=0)
    per_cell = []
    for f in cells[:len(g)]:
        view_axis = roi - np.array([0.0, -f["tracker_distance_mm"], 400.0])
        multiplier = f["user_group"] * _angle_multiplier(f["tool_angle_deg"])
        sigma = noise.tracker_sigma_at(f["tracker_distance_mm"]) * multiplier
        per_cell.append(np.concatenate([[sigma], *axis_basis(view_axis)]))
    # per trial: sigma, then the basis vectors u, v and axis
    trials = np.array(per_cell)[np.arange(len(g)) % len(per_cell), None]
    return _anisotropic(noise, trials[..., :1], (trials[..., 1:4], trials[..., 4:7],
                                                 trials[..., 7:]), g)


def _triangulated_jigs(world: np.ndarray, cells: list, jitter: np.ndarray,
                       detector: list, running: _Running) -> np.ndarray:
    """The 2D chain up to its jig triangulation, over the running trials:
    per view, the calibrator projection, its detection, the DLT
    calibration, then the jig projection and detection; then the
    triangulation of the jig (world, T x N x 3, CArm frame) from the
    estimated views. Returns the triangulated jigs, NaN for stopped trials."""
    count, n = world.shape[:2]
    roi = world.mean(axis=1)
    distances = [cells[k % len(cells)]["detector_distance_mm"] for k in range(count)]
    true = _carm_pairs(roi, np.array(distances, dtype=float), jitter)
    cal_pts = roi[:, None, :] + _CALIBRATOR_OFFSETS
    estimated = np.full((2, count, 3, 4), np.nan)
    detected = np.full((2, count, n, 2), np.nan)
    for v in range(2):
        cal_noise, jig_noise = detector[2 * v], detector[2 * v + 1]
        uv, failed = cal.project_batch(true[v, running.rows], cal_pts[running.rows])
        uv = uv[running.drop(failed)] + cal_noise[running.rows]
        cal.check_detections(uv)
        p, failed = cal.dlt_calibrate_batch(cal_pts[running.rows], uv)
        p = cal.scale_normalized(p[running.drop(failed)])
        cal.check_projections(p)
        estimated[v, running.rows] = p
        uv, failed = cal.project_batch(true[v, running.rows], world[running.rows])
        uv = uv[running.drop(failed)] + jig_noise[running.rows]
        cal.check_detections(uv)
        detected[v, running.rows] = uv
    running.drop(cal.common_label_failures(n, len(running.index)))
    rows = running.rows
    points, _, failed = cal.triangulate_batch((estimated[0, rows], detected[0, rows]),
                                              (estimated[1, rows], detected[1, rows]))
    points = points[running.drop(failed)]
    check_fiducial_points(points)
    jigs = np.full(world.shape, np.nan)
    jigs[running.rows] = points
    return jigs


def _run_trials(phantom: Phantom, methods: list, cells: list, config: StudyConfig,
                rngs: list) -> list:
    """Trials (cells[k mod C], rngs[k]) of methods that share one stream
    key, one list of TrialResults per method: one stacked pass of the chains
    they share, then each method's RMSE at the held-out targets over the
    stack. A robot method adds kinematic noise, drawn from the trial's
    generator after its chain's draws, to trials whose chain succeeded."""
    chains = _registration_chains(phantom, methods[0].modality, cells, config.noise,
                                  rngs, config.view_jitter_deg)
    ok = np.array([e is None for e in chains.errors], dtype=bool)
    est = chains.rotations[ok], chains.translations[ok]
    gt = chains.gt_rotations[ok], chains.gt_translations[ok]
    check_rigid(*gt)
    check_rigid(*est)
    targets = phantom.targets.points
    mapped = rigid_apply(*est, targets)
    truth = rigid_apply(*gt, targets)
    if any(m.robot_assisted for m in methods):
        kinematic = np.array([
            rng.normal(scale=config.noise.kinematic_sigma, size=targets.shape)
            for rng, good in zip(rngs, ok) if good]).reshape(mapped.shape)
    results = []
    for method in methods:
        moved = mapped + kinematic if method.robot_assisted else mapped
        err = np.linalg.norm(moved - truth, axis=2)
        rmse = iter(np.sqrt(np.mean(err ** 2, axis=1)).tolist())
        results.append([
            TrialResult(f, next(rmse)) if e is None
            else TrialResult(f, None, f"{type(e).__name__}: {e}")
            for f, e in zip(cycle(cells), chains.errors)])
    return results


def run_trial(phantom: Phantom, method: Method, factors: dict,
              config: StudyConfig, trial_rng: np.random.Generator) -> TrialResult:
    """One full registration chain evaluated as RMSE at the held-out
    verification targets (a TRE-like statistic, not the fit residual): the
    one-trial case of run_study's stacked passes. A chain error is recorded
    as a failed trial ("ErrorClass: message"), never silently dropped."""
    return _run_trials(phantom, [method], [factors], config, [trial_rng])[0][0]


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
    over the factor cells; deterministic for a given config.noise.seed.

    The trials run as stacked passes, one per stream key: one draw pass
    over the trials' generators and one math pass over their chains, which
    every method with that key shares. Every trial equals run_trial on its
    own _trial_rng, for any methods tuple in any order.
    """
    keys = [m.stream_key() for m in methods]
    cells = [config.cells(m.modality) for m in methods]
    trials = [None] * len(methods)
    n = config.samples_per_method
    for key in dict.fromkeys(keys):
        group = [i for i, k in enumerate(keys) if k == key]
        results = _run_trials(phantom, [methods[i] for i in group], cells[group[0]], config,
                              [_trial_rng(config.noise.seed, key, t) for t in range(n)])
        for i, method_trials in zip(group, results):
            trials[i] = method_trials
    out = []
    for method, method_cells, method_trials in zip(methods, cells, trials):
        ok = [t for t in method_trials if t.ok]
        cell_stats = []
        for c, cell in enumerate(method_cells):
            vals = [t.rmse_mm for t in method_trials[c::len(method_cells)] if t.ok]
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


# the robot arm's path to each screw, collision-checked for POSITION_ROBOT's guard
_CHECKED_TRAJECTORY = Trajectory([0.0, 1.0], [[0.0] * 6, [0.04] * 6], collision_checked=True)


def run_placement_study(config: StudyConfig, phantom: Phantom,
                        screws_per_arm: int, noise_multiplier: float = 1.0) -> PlacementStudyResult:
    """Grade simulated screw placements for a navigation arm and a robot arm.

    Each arm drives a full workflow session (so the acquisition log is
    genuine): registration images once per level, verification images per
    screw, one registration chain per screw placement. Outputs Table-shaped
    grade percentages (always rows A-E) and the radiation tally.

    Each arm runs its screws' chains as one stacked pass, raising screw k's
    error on reaching it; screw 0's re-registrations run one stack at a time.
    """
    if isinstance(screws_per_arm, bool) or not isinstance(screws_per_arm, int):
        raise BadInput(f"screws_per_arm must be an integer, got {screws_per_arm!r}")
    if screws_per_arm < 1:
        raise BadInput("screws_per_arm must be >= 1")
    if screws_per_arm > len(phantom.pedicles):
        raise BadInput(f"phantom has only {len(phantom.pedicles)} pedicles")
    if (isinstance(noise_multiplier, bool) or not isinstance(noise_multiplier, numbers.Real)
            or not (math.isfinite(noise_multiplier) and noise_multiplier >= 0.0)):
        raise BadInput(f"noise_multiplier must be a finite number >= 0, got {noise_multiplier!r}")
    noise = replace(config.noise,
                    tracker_sigma0=config.noise.tracker_sigma0 * noise_multiplier,
                    detector_sigma=config.noise.detector_sigma * noise_multiplier,
                    kinematic_sigma=config.noise.kinematic_sigma * noise_multiplier)
    scaled = replace(config, noise=noise)
    pedicles = phantom.pedicles[:screws_per_arm]
    levels = sorted({p.level.rsplit("-", 1)[0] for p in pedicles})
    approvals = []
    for pedicle in pedicles:
        plan = _centered_plan(pedicle)
        validation = validate_plan(plan, pedicle, safety_margin_mm=0.5)
        approvals.append(Event(EventKind.APPROVE_PLAN, plan=plan, validation=validation))
    cells = scaled.cells(scaled.modality)
    arms = []
    for arm_idx, (arm_name, mode, robot) in enumerate(
            (("navigation", Mode.NAVIGATION_ONLY, False),
             ("robot", Mode.ROBOT_ASSISTED, True))):
        session = new_session(mode, scaled.modality)
        session = advance(session, Event(EventKind.ACQUIRE_PREOP_CT))
        session = advance(session, Event(EventKind.SUBMIT_PATIENT_DATA))
        for event in approvals:
            session = advance(session, event)
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

        rngs = [_trial_rng(scaled.noise.seed + 7919 * (arm_idx + 1), 0, k)
                for k in range(screws_per_arm)]
        chains = _registration_chains(phantom, scaled.modality, cells, scaled.noise, rngs,
                                      scaled.view_jitter_deg)
        for s_idx, (pedicle, approval, rng) in enumerate(zip(pedicles, approvals, rngs)):
            t_est, t_gt = chains.transforms(s_idx)
            if s_idx == 0:
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
                        t_est, t_gt = _registration_chains(
                            phantom, scaled.modality, cells, scaled.noise, [rng],
                            scaled.view_jitter_deg).transforms(0)
                else:
                    raise DegenerateSpec(
                        "registration never passed verification at this noise level")
            else:
                session = advance(session, Event(EventKind.NEXT_SCREW))
            if robot:
                session = advance(session, Event(EventKind.POSITION_ROBOT,
                                                 trajectory=_CHECKED_TRAJECTORY))
            achieved = _apply_error_to_plan(
                approval.plan, t_est, t_gt,
                scaled.noise.kinematic_sigma if robot else 0.0, rng)
            session = advance(session, Event(EventKind.BEGIN_PLACEMENT,
                                             level=pedicle.level))
            screw_id = f"{pedicle.level}#{s_idx + 1}"
            session = advance(session, Event(EventKind.CONFIRM_PLACEMENT,
                                             level=pedicle.level, scope=screw_id,
                                             achieved=achieved))
            session = advance(session, Event(EventKind.ACQUIRE_VERIFICATION_IMAGES,
                                             scope=screw_id, views=("AP", "LP")))
        session = advance(session, Event(EventKind.COMPLETE_SESSION))

        placed = session.placed_screws
        breaches = [breach_depth(s.achieved, p) for s, p in zip(placed, pedicles)]
        grades = [(p.level, b, grade_gertzbein(b).value) for p, b in zip(pedicles, breaches)]
        report = radiation_report(session.acquisition_log, placed)
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
    identical bytes, provenance in leading comment lines. Raises BadInput
    for a malformed provenance, modality or pooled row."""
    prov = report["provenance"]
    if {k: type(v) for k, v in dict(prov).items()} != {
            k: type(v) for k, v in provenance(0).items()}:
        raise BadInput(f"malformed provenance {prov!r}")
    lines = ["method,modality,n,mean_mm,sd_mm,ci95_mm"]
    for m in report["methods"]:
        pooled = m["pooled"]
        s = StudyStats(pooled["mean_mm"], pooled["sd_mm"],
                       pooled["ci95_mu_plus_1p96sigma_mm"], pooled["n"])
        lines.append(",".join([m["label"], Modality(m["modality"]).value, str(s.n),
                               repr(s.mean), repr(s.sd), repr(s.ci95)]))
    return csv_with_provenance(prov, "\n".join(lines) + "\n")


def summarize(result: StudyResult, out_dir) -> dict:
    """Write study_results.csv and study_results.json; byte-identical when
    re-run on the same results. Raises on empty results, writes atomically
    (creating out_dir if it is missing)."""
    if not result.methods or all(m.pooled.n == 0 for m in result.methods):
        raise BadInput("refusing to summarize empty results")
    out_dir = Path(out_dir)
    paths = {"csv": out_dir / "study_results.csv",
             "json": out_dir / "study_results.json"}
    report = study_report(result)
    atomic_write(paths["csv"], study_csv(report), parents=True)
    write_json(paths["json"], report, parents=True)
    return paths
