"""Batch command-line surface: calibrate, register, plan, simulate, grade,
report.

Every command is deterministic given its inputs and --seed; the seed and a
config hash are echoed into a provenance header in every output file. Files
are written to a temp path and atomically renamed, so failures never leave
partial outputs. Exit codes: 0 success, 2 bad input, 3 numerical failure,
4 study with more than 10% failed trials (reports still written).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from . import errors as err
from .calibration import (
    Detection2D,
    ProjectionModel,
    dlt_calibrate,
    pivot_calibrate,
    register_patient_2d,
    reprojection_rms,
)
from .fileio import atomic_write, csv_with_provenance, provenance, write_json
from .geom import RigidTransform, transform_from_dict, transform_to_dict
from .planning import (
    breach_depth,
    grade_gertzbein,
    grade_report_csv,
    pedicles_from_json,
    plans_from_json,
    validate_plan,
)
from .registration import (
    FiducialSet,
    SurfaceModel,
    icp_register,
    register_points,
    verify_registration,
)
from .simharness import (
    DEFAULT_SEED,
    PhantomSpec,
    StudyConfig,
    generate_phantom,
    run_placement_study,
    run_study,
    study_csv,
    summarize,
)

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_TOO_MANY_FAILURES = 4

# degeneracy / convergence failures vs malformed inputs
_NUMERICAL_ERRORS = (
    err.InsufficientRotation,
    err.DegenerateGeometry,
    err.CoplanarPoints,
    err.ParallelRays,
    err.PatternAmbiguous,
    err.PointAtInfinity,
    err.Unreachable,
    err.LimitViolation,
    err.NoSafePath,
    err.DegenerateSpec,
)
_INPUT_ERRORS = (
    err.TooFewPoints,
    err.TooFewPoses,
    err.TooFewBlobs,
    err.TooFewCommonLabels,
    err.LabelMismatch,
    err.SchemaVersionMismatch,
    err.IOFailure,
    FileNotFoundError,
    json.JSONDecodeError,
    KeyError,
    TypeError,
    ValueError,
)


def _fail(kind: str, message: str, code: int) -> int:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")
    return code


def _write_json(path: Path, payload: dict, seed: int,
                config: dict | None = None) -> None:
    write_json(path, {"provenance": provenance(seed, config), **payload})


def _write_csv(path: Path, body: str, seed: int, config: dict | None = None) -> None:
    atomic_write(path, csv_with_provenance(provenance(seed, config), body))


def _load_json(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _apply_overrides(config: dict, overrides) -> dict:
    """--set dotted.key=value updates; values parsed as JSON when possible."""
    out = json.loads(json.dumps(config))
    for item in overrides or ():
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ValueError(f"config key {key!r} indexes into a scalar")
        node[parts[-1]] = value
    return out


# -- command implementations -----------------------------------------------------


def cmd_calibrate(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = _load_json(args.input)
    if args.target == "pivot":
        poses = [transform_from_dict(d) for d in
                 (data["poses"] if isinstance(data, dict) else data)]
        result = pivot_calibrate(poses, min_poses=args.min_poses)
        _write_json(out_dir / "pivot_report.json", {
            "tip_offset_mm": [float(v) for v in result.tip_offset],
            "pivot_point_mm": [float(v) for v in result.pivot_point],
            "residual_rms_mm": result.residual_rms,
            "n_poses": len(poses),
        }, args.seed)
    else:  # carm
        world = [(p["label"], np.asarray(p["xyz_mm"], float)) for p in data["world"]]
        det = Detection2D.from_pairs(data["view"],
                                     [(p["label"], p["uv_mm"]) for p in data["image"]])
        model = dlt_calibrate(world, det)
        _write_json(out_dir / "carm_report.json", {
            "view": model.view_label,
            "P": [float(v) for v in model.matrix.ravel()],
            "reprojection_rms_mm": reprojection_rms(model, world, det),
            "n_points": len(world),
        }, args.seed)
    return EXIT_OK


def cmd_register(args) -> int:
    if not np.isfinite(args.threshold):
        raise ValueError(f"--threshold must be finite, got {args.threshold!r}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.method == "points":
        fixed = FiducialSet.from_dict(_load_json(args.fixed))
        moving = FiducialSet.from_dict(_load_json(args.moving))
        result = register_points(fixed, moving)
    elif args.method == "icp":
        probed = np.asarray(_load_json(args.probed)["points_mm"], float)
        surface_path = Path(args.surface)
        if surface_path.suffix.lower() == ".stl":
            surface = SurfaceModel.from_stl(surface_path.read_text(encoding="utf-8"))
        else:
            surface = SurfaceModel.from_dict(_load_json(surface_path))
        init = (transform_from_dict(_load_json(args.init)) if args.init
                else RigidTransform.identity())
        result = icp_register(probed, surface, init)
    else:  # auto2d
        jig = FiducialSet.from_dict(_load_json(args.jig))
        views = []
        for v in _load_json(args.views):
            model = ProjectionModel.from_dict(v)
            det = Detection2D.from_pairs(v["view"],
                                         [(p["label"], p["uv_mm"])
                                          for p in v["detections"]])
            views.append((model, det))
        result = register_patient_2d(jig, views)
    decision = verify_registration(result, args.threshold)
    _write_json(out_dir / "registration_report.json", {
        "method": args.method,
        "transform": transform_to_dict(result.transform),
        "fre_rms_mm": result.fre_rms,
        "per_point_residuals_mm": list(result.per_point_residuals),
        "n_points": result.n_points,
        "converged": result.converged,
        "accepted": decision.accepted,
        "threshold_mm": args.threshold,
    }, args.seed)
    return EXIT_OK


def cmd_plan_validate(args) -> int:
    if not np.isfinite(args.margin):
        raise ValueError(f"--margin must be finite, got {args.margin!r}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    plans = plans_from_json(Path(args.plans).read_text(encoding="utf-8"))
    pedicles = pedicles_from_json(Path(args.pedicles).read_text(encoding="utf-8"))
    rows = []
    for plan in plans:
        if plan.level not in pedicles:
            raise ValueError(f"no pedicle model for level {plan.level!r}")
        v = validate_plan(plan, pedicles[plan.level], args.margin)
        rows.append({"level": plan.level, "accepted": v.accepted,
                     "breach_mm": v.breach_mm,
                     "min_clearance_mm": v.min_clearance_mm})
    body = "level,accepted,breach_mm,min_clearance_mm\n" + "".join(
        f"{r['level']},{str(r['accepted']).lower()},{repr(r['breach_mm'])},"
        f"{repr(r['min_clearance_mm'])}\n" for r in rows)
    _write_csv(out_dir / "plan_validation.csv", body, args.seed)
    _write_json(out_dir / "plan_validation.json",
                {"plans": rows, "safety_margin_mm": args.margin}, args.seed)
    return EXIT_OK


def _study_config(raw: dict, args) -> StudyConfig:
    """StudyConfig from a config dict, with --seed applied."""
    config = StudyConfig.from_dict(raw)
    return replace(config, noise=replace(config.noise, seed=args.seed))


def cmd_simulate(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    raw = _apply_overrides(_load_json(args.config) if args.config else {}, args.set)
    if args.what == "study":
        config = _study_config(raw, args)
        phantom = generate_phantom(PhantomSpec(), seed=args.phantom_seed)
        result = run_study(config, phantom)
        summarize(result, out_dir)
        if result.failure_fraction() > 0.10:
            return _fail("TooManyFailedTrials",
                         f"{result.failure_fraction():.1%} of trials failed "
                         "(reports written)", EXIT_TOO_MANY_FAILURES)
        return EXIT_OK

    # session: placement study with radiation accounting
    allowed = {"screws", "noise_multiplier", "study"}
    unknown = set(raw) - allowed
    if unknown:
        raise ValueError(f"unknown session config keys {sorted(unknown)}")
    screws = raw.get("screws", 2)
    if isinstance(screws, bool) or not isinstance(screws, int):
        raise ValueError(f"screws must be an integer, got {screws!r}")
    multiplier = float(raw.get("noise_multiplier", 1.0))
    config = _study_config(raw.get("study", {}), args)
    levels = max((screws + 1) // 2, 1)
    phantom = generate_phantom(PhantomSpec(levels=levels), seed=args.phantom_seed)
    result = run_placement_study(config, phantom, screws, multiplier)
    config_dict = config.to_dict()
    seed = config.noise.seed
    payload = {"screws_per_arm": result.screws_per_arm, "arms": []}
    grade_lines = ["arm,level,breach_mm,grade"]
    for arm in result.arms:
        payload["arms"].append({
            "arm": arm.arm,
            "mode": arm.mode.value,
            "grade_percent": arm.grade_percent,
            "radiation_mean_per_screw": arm.radiation_mean,
            "screws": [{"level": lv, "breach_mm": b, "grade": g}
                       for lv, b, g in arm.grades],
        })
        for lv, b, g in arm.grades:
            grade_lines.append(f"{arm.arm},{lv},{repr(b)},{g}")
        _write_csv(out_dir / f"radiation_{arm.arm}.csv", arm.radiation_csv,
                   seed, config_dict)
    _write_json(out_dir / "session_report.json", payload, seed, config_dict)
    _write_csv(out_dir / "session_grades.csv", "\n".join(grade_lines) + "\n",
               seed, config_dict)
    return EXIT_OK


def cmd_grade(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    screws = plans_from_json(Path(args.screws).read_text(encoding="utf-8"))
    if not screws:
        raise ValueError("empty screw list")
    pedicles = pedicles_from_json(Path(args.pedicles).read_text(encoding="utf-8"))
    rows = []
    for screw in screws:
        if screw.level not in pedicles:
            raise ValueError(f"no pedicle model for level {screw.level!r}")
        breach = breach_depth(screw, pedicles[screw.level])
        rows.append((screw.level, breach, grade_gertzbein(breach).value))
    _write_csv(out_dir / "grades.csv", grade_report_csv(rows), args.seed)
    return EXIT_OK


def cmd_report(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write(out_dir / "study_results.csv", study_csv(_load_json(args.results)))
    return EXIT_OK


# -- parser -----------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: parse_args keeps no state
    in it between calls (each returns a fresh namespace)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"random seed (default {DEFAULT_SEED})")
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--config", default=None, help="JSON config path")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config key (dotted paths allowed)")

    parser = argparse.ArgumentParser(
        prog="spinenav",
        description="Batch toolkit for image-guided spine-surgery math: "
                    "calibration, registration, planning, simulation, grading.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="pivot or C-arm calibration")
    ps = p.add_subparsers(dest="target", required=True)
    for target, help_text in (("pivot", "tool tip from pivoting poses"),
                              ("carm", "projection matrix from 3D-2D pairs")):
        pp = ps.add_parser(target, parents=[common], help=help_text)
        pp.add_argument("--input", required=True)
        if target == "pivot":
            pp.add_argument("--min-poses", type=int, default=10)
        pp.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("register", help="rigid registration")
    ps = p.add_subparsers(dest="method", required=True)
    pp = ps.add_parser("points", parents=[common])
    pp.add_argument("--fixed", required=True)
    pp.add_argument("--moving", required=True)
    pp = ps.add_parser("icp", parents=[common])
    pp.add_argument("--probed", required=True)
    pp.add_argument("--surface", required=True)
    pp.add_argument("--init", default=None)
    pp = ps.add_parser("auto2d", parents=[common])
    pp.add_argument("--jig", required=True)
    pp.add_argument("--views", required=True)
    for name in ("points", "icp", "auto2d"):
        ps.choices[name].add_argument("--threshold", type=float, default=2.0)
        ps.choices[name].set_defaults(func=cmd_register)

    p = sub.add_parser("plan", help="screw plan checks")
    ps = p.add_subparsers(dest="action", required=True)
    pp = ps.add_parser("validate", parents=[common])
    pp.add_argument("--plans", required=True)
    pp.add_argument("--pedicles", required=True)
    pp.add_argument("--margin", type=float, default=0.5)
    pp.set_defaults(func=cmd_plan_validate)

    p = sub.add_parser("simulate", help="Monte Carlo studies")
    ps = p.add_subparsers(dest="what", required=True)
    for what in ("study", "session"):
        pp = ps.add_parser(what, parents=[common])
        pp.add_argument("--threads", type=int, default=0,
                        help="accepted for compatibility; no longer changes "
                             "execution (trials run serially)")
        pp.add_argument("--phantom-seed", type=int, default=42)
        pp.set_defaults(func=cmd_simulate)

    pp = sub.add_parser("grade", parents=[common],
                        help="grade achieved screws against pedicle models")
    pp.add_argument("--screws", required=True)
    pp.add_argument("--pedicles", required=True)
    pp.set_defaults(func=cmd_grade)

    pp = sub.add_parser("report", parents=[common],
                        help="re-emit reports from saved study results")
    pp.add_argument("--results", required=True)
    pp.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _NUMERICAL_ERRORS as e:
        return _fail(type(e).__name__, str(e), EXIT_NUMERICAL)
    except _INPUT_ERRORS as e:
        return _fail(type(e).__name__, str(e), EXIT_BAD_INPUT)


if __name__ == "__main__":
    sys.exit(main())
