"""Batch command-line surface: calibrate, register, plan, simulate, grade,
report.

Every command is deterministic given its inputs and --seed; the seed and a
config hash are echoed into a provenance header in every output file. Files
are written to a temp path and atomically renamed, so failures never leave
partial outputs. Exit codes: 0 success, 2 for a SpineNavError and 3 for a
NumericalFailure (the error class's exit_code), 4 study with more than 10%
failed trials (reports still written); any other exception is a bug and
propagates (exit 1, with a traceback).
"""

from __future__ import annotations

import argparse
import contextlib
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
from .geom import RigidTransform, transform_from_dict
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
    DEFAULT_PHANTOM_SEED,
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
EXIT_TOO_MANY_FAILURES = 4


def _fail(kind: str, message: str, code: int) -> int:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")
    return code


def _write_json(path: Path, payload: dict, seed: int,
                config: dict | None = None) -> None:
    write_json(path, {"provenance": provenance(seed, config), **payload}, parents=True)


def _write_csv(path: Path, body: str, seed: int, config: dict | None = None) -> None:
    atomic_write(path, csv_with_provenance(provenance(seed, config), body), parents=True)


@contextlib.contextmanager
def _parsing(source):
    """The block turns an input document from source into values: its
    KeyError, IndexError, TypeError or ValueError (a malformed document, JSON
    decode errors included) is raised as BadInput naming source."""
    try:
        yield
    except (LookupError, TypeError, ValueError) as e:
        detail = f"missing key {e}" if isinstance(e, KeyError) else e
        raise err.BadInput(f"{source}: {detail}") from e


def _read(path, convert=lambda doc: doc, parse=json.loads):
    """convert(parse(text)) of the input file at path: IOFailure when the
    file cannot be read, BadInput when its document is malformed."""
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise err.IOFailure(str(e)) from e
    with _parsing(path):
        return convert(parse(raw.decode("utf-8")))


def _apply_overrides(config: dict, overrides) -> dict:
    """--set dotted.key=value updates; values parsed as JSON when possible."""
    if not isinstance(config, dict):
        raise err.BadInput(f"a config must be a JSON object, got {type(config).__name__}")
    out = json.loads(json.dumps(config))
    for item in overrides or ():
        if "=" not in item:
            raise err.BadInput(f"--set expects key=value, got {item!r}")
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
                raise err.BadInput(f"config key {key!r} indexes into a scalar")
        node[parts[-1]] = value
    return out


# -- command implementations -----------------------------------------------------


def cmd_calibrate(args) -> int:
    out_dir = Path(args.out)
    data = _read(args.input)
    if args.target == "pivot":
        with _parsing(args.input):
            poses = [transform_from_dict(d) for d in data["poses"]]
        result = pivot_calibrate(poses)
        _write_json(out_dir / "pivot_report.json", {
            "tip_offset_mm": [float(v) for v in result.tip_offset],
            "pivot_point_mm": [float(v) for v in result.pivot_point],
            "residual_rms_mm": result.residual_rms,
            "n_poses": len(poses),
        }, args.seed)
    else:  # carm
        with _parsing(args.input):
            world = [(p["label"], np.asarray(p["xyz_mm"], float).reshape(3))
                     for p in data["world"]]
            det = Detection2D.from_pairs(data["view"],
                                         [(p["label"], p["uv_mm"]) for p in data["image"]])
        model = dlt_calibrate(world, det)
        _write_json(out_dir / "carm_report.json", {
            **model.to_dict(),
            "reprojection_rms_mm": reprojection_rms(model, world, det),
            "n_points": len(world),
        }, args.seed)
    return EXIT_OK


def cmd_register(args) -> int:
    if not np.isfinite(args.threshold):
        raise err.BadInput(f"--threshold must be finite, got {args.threshold!r}")
    out_dir = Path(args.out)
    if args.method == "points":
        fixed = _read(args.fixed, FiducialSet.from_dict)
        moving = _read(args.moving, FiducialSet.from_dict)
        result = register_points(fixed, moving)
    elif args.method == "icp":
        probed = _read(args.probed, lambda d: np.asarray(d["points_mm"], float).reshape(-1, 3))
        if Path(args.surface).suffix.lower() == ".stl":
            surface = _read(args.surface, SurfaceModel.from_stl, parse=str)
        else:
            surface = _read(args.surface, SurfaceModel.from_dict)
        init = (_read(args.init, transform_from_dict) if args.init
                else RigidTransform.identity())
        result = icp_register(probed, surface, init)
    else:  # auto2d
        jig = _read(args.jig, FiducialSet.from_dict)
        data = _read(args.views)
        with _parsing(args.views):
            views = [(ProjectionModel.from_dict(v),
                      Detection2D.from_pairs(v["view"], [(p["label"], p["uv_mm"])
                                                         for p in v["detections"]]))
                     for v in data]
            if len(views) != 2:
                raise err.BadInput(f"expected exactly two views, got {len(views)}")
        result = register_patient_2d(jig, views)
    decision = verify_registration(result, args.threshold)
    _write_json(out_dir / "registration_report.json", {
        "method": args.method,
        **result.to_dict(),
        "accepted": decision.accepted,
        "threshold_mm": args.threshold,
    }, args.seed)
    return EXIT_OK


def cmd_plan_validate(args) -> int:
    if not np.isfinite(args.margin):
        raise err.BadInput(f"--margin must be finite, got {args.margin!r}")
    out_dir = Path(args.out)
    plans = _read(args.plans, plans_from_json, parse=str)
    pedicles = _read(args.pedicles, pedicles_from_json, parse=str)
    rows = []
    for plan in plans:
        if plan.level not in pedicles:
            raise err.BadInput(f"no pedicle model for level {plan.level!r}")
        v = validate_plan(plan, pedicles[plan.level], args.margin)
        rows.append({"level": plan.level, **v.to_dict()})
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
    raw = _apply_overrides(_read(args.config) if args.config else {}, args.set)
    if args.what == "study":
        with _parsing("study config"):
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
    with _parsing("session config"):
        allowed = {"screws", "noise_multiplier", "study"}
        unknown = set(raw) - allowed
        if unknown:
            raise err.BadInput(f"unknown session config keys {sorted(unknown)}")
        screws = raw.get("screws", 2)
        if isinstance(screws, bool) or not isinstance(screws, int):
            raise err.BadInput(f"screws must be an integer, got {screws!r}")
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
    screws = _read(args.screws, plans_from_json, parse=str)
    if not screws:
        raise err.BadInput("empty screw list")
    pedicles = _read(args.pedicles, pedicles_from_json, parse=str)
    rows = []
    for screw in screws:
        if screw.level not in pedicles:
            raise err.BadInput(f"no pedicle model for level {screw.level!r}")
        breach = breach_depth(screw, pedicles[screw.level])
        rows.append((screw.level, breach, grade_gertzbein(breach).value))
    _write_csv(out_dir / "grades.csv", grade_report_csv(rows), args.seed)
    return EXIT_OK


def cmd_report(args) -> int:
    atomic_write(Path(args.out) / "study_results.csv", _read(args.results, study_csv),
                 parents=True)
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
        pp.add_argument("--config", default=None, help="JSON config path")
        pp.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config key (dotted paths allowed)")
        pp.add_argument("--threads", type=int, default=0,
                        help="accepted for compatibility; no longer changes "
                             "execution (trials run serially)")
        pp.add_argument("--phantom-seed", type=int, default=DEFAULT_PHANTOM_SEED)
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
    except err.SpineNavError as e:
        return _fail(type(e).__name__, str(e), e.exit_code)


if __name__ == "__main__":
    sys.exit(main())
