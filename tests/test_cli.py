import copy
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spinenav import cli, errors
from spinenav.calibration import pinhole_projection, project
from spinenav.cli import main
from spinenav.geom import RigidTransform, transform_to_dict
from spinenav.registration import FiducialSet, icp_register

from _helpers import look_at

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "demos" / "data"


def _read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def test_cli_import_loads_neither_scipy_spatial_nor_ndimage():
    # every command pays for the CLI's imports on a cold start
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    code = ("import sys, spinenav.cli; print([m for m in "
            "('scipy.spatial', 'scipy.ndimage') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_main_builds_its_parser_once_and_shares_no_parsed_state(tmp_path):
    assert cli._build_parser() is cli._build_parser()
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["simulate", "session", "--seed", "3", "--set", "screws=1",
                 "--set", "noise_multiplier=2", "--out", str(first)]) == 0
    assert main(["simulate", "session", "--out", str(second)]) == 0
    a = _read_json(first / "session_report.json")
    b = _read_json(second / "session_report.json")
    assert (a["screws_per_arm"], a["provenance"]["seed"]) == (1, 3)
    assert (b["screws_per_arm"], b["provenance"]["seed"]) == (2, cli.DEFAULT_SEED)
    assert a["provenance"]["config_hash"] != b["provenance"]["config_hash"]


# -- calibrate ---------------------------------------------------------------------


def test_calibrate_pivot_golden_input(tmp_path):
    code = main(["calibrate", "pivot", "--input", str(DATA / "pivot_poses.json"),
                 "--out", str(tmp_path)])
    assert code == 0
    report = _read_json(tmp_path / "pivot_report.json")
    assert report["residual_rms_mm"] < 1e-9
    assert report["tip_offset_mm"] == pytest.approx([3.0, -2.0, 140.0], abs=1e-6)
    assert report["provenance"]["tool"] == "spinenav"
    assert "seed" in report["provenance"]


def test_calibrate_pivot_missing_file(tmp_path, capsys):
    code = main(["calibrate", "pivot", "--input", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "IOFailure"


def test_calibrate_pivot_insufficient_rotation(tmp_path, capsys):
    r = np.eye(3)
    poses = [transform_to_dict(RigidTransform(r, [float(i), 0.0, 0.0]))
             for i in range(15)]
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({"poses": poses}), encoding="utf-8")
    code = main(["calibrate", "pivot", "--input", str(path), "--out", str(tmp_path)])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InsufficientRotation"


def test_calibrate_carm_golden_input(tmp_path):
    code = main(["calibrate", "carm", "--input", str(DATA / "carm_calibration.json"),
                 "--out", str(tmp_path)])
    assert code == 0
    report = _read_json(tmp_path / "carm_report.json")
    assert report["reprojection_rms_mm"] < 1e-8
    assert len(report["P"]) == 12


# -- register ----------------------------------------------------------------------


def test_register_points_files(tmp_path):
    code = main(["register", "points", "--fixed", str(DATA / "fiducials_fixed.json"),
                 "--moving", str(DATA / "fiducials_moving.json"),
                 "--out", str(tmp_path)])
    assert code == 0
    report = _read_json(tmp_path / "registration_report.json")
    assert report["fre_rms_mm"] < 1e-9
    assert report["accepted"] is True


def test_register_icp_files(tmp_path):
    from spinenav.meshes import bumpy_ellipsoid, sample_surface_points
    rng = np.random.default_rng(8)
    surface = bumpy_ellipsoid(rng)
    probed = sample_surface_points(surface, 120, rng) - np.array([1.5, 0.5, 0.0])
    (tmp_path / "surface.json").write_text(json.dumps(surface.to_dict()),
                                           encoding="utf-8")
    (tmp_path / "surface.stl").write_text(surface.to_stl(), encoding="utf-8")
    (tmp_path / "probed.json").write_text(
        json.dumps({"points_mm": probed.tolist()}), encoding="utf-8")
    for surf_file in ("surface.json", "surface.stl"):
        out = tmp_path / f"out_{surf_file.split('.')[1]}"
        code = main(["register", "icp", "--probed", str(tmp_path / "probed.json"),
                     "--surface", str(tmp_path / surf_file), "--out", str(out)])
        assert code == 0
        report = _read_json(out / "registration_report.json")
        assert report["transform"]["t"] == pytest.approx([1.5, 0.5, 0.0], abs=0.05)
        assert report["converged"] is True


def test_register_icp_unconverged_is_not_accepted(tmp_path, monkeypatch):
    from spinenav.meshes import bumpy_ellipsoid, sample_surface_points
    # this start converges in a few steps; one allowed step forces the
    # unconverged path, which must be reported and rejected
    monkeypatch.setattr(cli, "icp_register", functools.partial(icp_register, max_iter=1))
    rng = np.random.default_rng(1)
    surface = bumpy_ellipsoid(rng)
    offset = RigidTransform.from_axis_angle(rng.normal(size=3), 0.15, [3.0, 0.0, 0.0])
    probed = offset.apply(sample_surface_points(surface, 200, rng))
    (tmp_path / "surface.json").write_text(json.dumps(surface.to_dict()),
                                           encoding="utf-8")
    (tmp_path / "probed.json").write_text(
        json.dumps({"points_mm": probed.tolist()}), encoding="utf-8")
    code = main(["register", "icp", "--probed", str(tmp_path / "probed.json"),
                 "--surface", str(tmp_path / "surface.json"), "--out", str(tmp_path)])
    assert code == 0
    report = _read_json(tmp_path / "registration_report.json")
    assert report["fre_rms_mm"] <= report["threshold_mm"]
    assert report["converged"] is False
    assert report["accepted"] is False


def test_register_label_mismatch_is_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad_moving.json"
    moving = _read_json(DATA / "fiducials_moving.json")
    for p in moving["points"]:
        p["label"] = "X" + p["label"]
    bad.write_text(json.dumps(moving), encoding="utf-8")
    code = main(["register", "points", "--fixed", str(DATA / "fiducials_fixed.json"),
                 "--moving", str(bad), "--out", str(tmp_path)])
    assert code == 2


def test_register_auto2d_singular_camera_is_bad_input(tmp_path, capsys):
    # a camera centre at infinity: a typed bad-input error, not LinAlgError
    views = tmp_path / "views.json"
    views.write_text(json.dumps([{
        "view": "AP", "detections": [],
        "P": [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0]}]),
        encoding="utf-8")
    code = main(["register", "auto2d", "--jig", str(DATA / "fiducials_fixed.json"),
                 "--views", str(views), "--out", str(tmp_path / "out")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "BadInput"
    assert "camera centre is at infinity" in err["message"]


_REGISTER_POINTS = ["register", "points", "--fixed", str(DATA / "fiducials_fixed.json"),
                    "--moving", str(DATA / "fiducials_moving.json")]
_PLAN_VALIDATE = ["plan", "validate", "--plans", str(DATA / "achieved_screws.json"),
                  "--pedicles", str(DATA / "pedicles.json")]


@pytest.mark.parametrize("argv, flag, value", [
    (_REGISTER_POINTS, "--threshold", "nan"),
    (_REGISTER_POINTS, "--threshold", "inf"),
    (_PLAN_VALIDATE, "--margin", "nan"),
    (_PLAN_VALIDATE, "--margin", "-inf"),
])
def test_non_finite_threshold_or_margin_is_bad_input(tmp_path, capsys, argv, flag,
                                                     value):
    out = tmp_path / "out"
    code = main([*argv, f"{flag}={value}", "--out", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "BadInput"
    assert flag in err["message"]
    assert not out.exists()


# -- plan validate / grade -----------------------------------------------------------


def test_plan_validate_files(tmp_path):
    code = main(["plan", "validate", "--plans", str(DATA / "achieved_screws.json"),
                 "--pedicles", str(DATA / "pedicles.json"), "--out", str(tmp_path)])
    assert code == 0
    report = _read_json(tmp_path / "plan_validation.json")
    by_level = {r["level"]: r for r in report["plans"]}
    assert by_level["L3-left"]["accepted"] is True
    assert by_level["L3-right"]["accepted"] is False


def test_grade_shipped_example(tmp_path):
    code = main(["grade", "--screws", str(DATA / "achieved_screws.json"),
                 "--pedicles", str(DATA / "pedicles.json"), "--out", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "grades.csv").read_text(encoding="utf-8")
    rows = [l for l in text.splitlines() if l.startswith("L3")]
    grades = {r.split(",")[0]: r.split(",")[2] for r in rows}
    assert grades == {"L3-left": "A", "L3-right": "B"}
    pct_rows = [l for l in text.splitlines()
                if l and l[0] in "ABCDE" and "," in l and len(l.split(",")) == 2]
    total = sum(float(l.split(",")[1]) for l in pct_rows)
    assert total == pytest.approx(100.0, abs=0.1)


def test_grade_empty_screws_rejected(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("[]", encoding="utf-8")
    code = main(["grade", "--screws", str(empty),
                 "--pedicles", str(DATA / "pedicles.json"), "--out", str(tmp_path)])
    assert code == 2


# -- simulate -----------------------------------------------------------------------


def _run_study(tmp_path, subdir, extra=()):
    out = tmp_path / subdir
    code = main(["simulate", "study", "--out", str(out),
                 "--set", "samples_per_method=30", *extra])
    assert code == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_simulate_study_byte_identical_across_runs(tmp_path):
    a = _run_study(tmp_path, "a")
    b = _run_study(tmp_path, "b")
    assert a == b


def test_simulate_study_byte_identical_across_thread_counts(tmp_path):
    a = _run_study(tmp_path, "t1", ("--threads", "1"))
    b = _run_study(tmp_path, "t4", ("--threads", "4"))
    assert a == b


def test_simulate_study_zero_noise_override(tmp_path):
    out = tmp_path / "zero"
    code = main(["simulate", "study", "--out", str(out),
                 "--set", "samples_per_method=10",
                 "--set", "noise.tracker_sigma0=0",
                 "--set", "noise.detector_sigma=0",
                 "--set", "noise.kinematic_sigma=0"])
    assert code == 0
    lines = [l for l in (out / "study_results.csv").read_text().splitlines()
             if not l.startswith("#")]
    for row in lines[1:]:
        assert float(row.split(",")[3]) < 1e-6


def test_simulate_study_with_config_file(tmp_path):
    cfg = json.loads((DATA / "study_config.json").read_text(encoding="utf-8"))
    cfg["samples_per_method"] = 9
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    code = main(["simulate", "study", "--config", str(path), "--out", str(out)])
    assert code == 0
    payload = _read_json(out / "study_results.json")
    assert all(m["pooled"]["n"] == 9 for m in payload["methods"])


def test_simulate_study_unknown_key_rejected(tmp_path, capsys):
    code = main(["simulate", "study", "--out", str(tmp_path),
                 "--set", "not_a_real_knob=1"])
    assert code == 2


@pytest.mark.parametrize("override", ["view_jitter_deg=NaN", "view_jitter_deg=Infinity",
                                      "user_groups=[NaN]", "tool_angles_deg=[0, NaN]",
                                      "tracker_distances_mm=[-Infinity]",
                                      "detector_distances_mm=[300, NaN]",
                                      "samples_per_method=2.5",
                                      "samples_per_method=Infinity"])
def test_simulate_study_non_finite_config_is_bad_input(tmp_path, capsys, override):
    code = main(["simulate", "study", "--out", str(tmp_path), "--set", override])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "BadInput"
    assert override.split("=")[0] in err["message"]


def test_simulate_session_radiation_mean_three(tmp_path):
    code = main(["simulate", "session", "--out", str(tmp_path)])
    assert code == 0
    report = _read_json(tmp_path / "session_report.json")
    for arm in report["arms"]:
        assert arm["radiation_mean_per_screw"] == pytest.approx(3.0)
    assert (tmp_path / "radiation_navigation.csv").exists()
    assert (tmp_path / "session_grades.csv").exists()


@pytest.mark.parametrize("value", ["Infinity", "2.7"])
def test_simulate_session_non_integer_screws_is_bad_input(tmp_path, capsys, value):
    code = main(["simulate", "session", "--out", str(tmp_path),
                 "--set", f"screws={value}"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "BadInput"
    assert "screws" in err["message"]
    assert not (tmp_path / "session_report.json").exists()


def test_simulate_seed_echoed_in_outputs(tmp_path):
    code = main(["simulate", "study", "--out", str(tmp_path), "--seed", "777",
                 "--set", "samples_per_method=6"])
    assert code == 0
    csv_text = (tmp_path / "study_results.csv").read_text(encoding="utf-8")
    assert "# seed=777" in csv_text
    payload = _read_json(tmp_path / "study_results.json")
    assert payload["provenance"]["seed"] == 777


# -- report -------------------------------------------------------------------------


def test_report_reemits_identical_csv(tmp_path):
    out = tmp_path / "study"
    code = main(["simulate", "study", "--out", str(out),
                 "--set", "samples_per_method=12"])
    assert code == 0
    re_out = tmp_path / "re"
    code = main(["report", "--results", str(out / "study_results.json"),
                 "--out", str(re_out)])
    assert code == 0
    assert (re_out / "study_results.csv").read_bytes() == \
        (out / "study_results.csv").read_bytes()


# -- typed failures and exit codes ---------------------------------------------------


def _error_classes(cls=errors.SpineNavError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _error_classes(sub)


ERROR_CLASSES = sorted(set(_error_classes()), key=lambda c: c.__name__)
NUMERICAL = {"CoplanarPoints", "DegenerateGeometry", "DegenerateSpec", "InsufficientRotation",
             "LimitViolation", "NoSafePath", "ParallelRays", "PatternAmbiguous",
             "PointAtInfinity", "Unreachable"}
_GRADE = ["grade", "--screws", str(DATA / "achieved_screws.json"),
          "--pedicles", str(DATA / "pedicles.json")]


def _instance(cls):
    return cls("AP", "x") if cls is errors.IllegalTransition else cls("raised on purpose")


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_every_error_class_maps_to_its_exit_code(tmp_path, capsys, monkeypatch, cls):
    def fail(rows):
        raise _instance(cls)

    monkeypatch.setattr(cli, "grade_report_csv", fail)
    code = main([*_GRADE, "--out", str(tmp_path)])
    assert code == (3 if cls.__name__ in NUMERICAL | {"NumericalFailure"} else 2)
    assert json.loads(capsys.readouterr().err)["error"] == cls.__name__


def test_numerical_failures_are_exactly_the_ten_exit_3_classes():
    assert {c.__name__ for c in ERROR_CLASSES if issubclass(c, errors.NumericalFailure)
            and c is not errors.NumericalFailure} == NUMERICAL
    assert issubclass(errors.BadInput, ValueError)


@pytest.mark.parametrize("builtin", [KeyError, TypeError, ValueError, np.linalg.LinAlgError])
def test_builtin_error_after_parsing_propagates(tmp_path, monkeypatch, builtin):
    # a builtin exception from a library call is a bug: exit 1, traceback
    def fail(rows):
        raise builtin("raised on purpose")

    monkeypatch.setattr(cli, "grade_report_csv", fail)
    with pytest.raises(builtin, match="raised on purpose"):
        main([*_GRADE, "--out", str(tmp_path)])


@pytest.mark.parametrize("sub", [(), ("sub",)], ids=["file", "below-a-file"])
def test_out_naming_a_file_is_io_failure(tmp_path, capsys, sub):
    afile = tmp_path / "afile"
    afile.write_text("keep", encoding="utf-8")
    code = main([*_GRADE, "--out", str(afile.joinpath(*sub))])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "IOFailure"
    assert afile.read_text(encoding="utf-8") == "keep"


@pytest.mark.parametrize("what", ["study", "session"])
@pytest.mark.parametrize("overrides", [(), ("--set", "screws=1")], ids=["plain", "set"])
def test_config_that_is_not_an_object_is_bad_input(tmp_path, capsys, what, overrides):
    path = tmp_path / "config.json"
    path.write_text("[]", encoding="utf-8")
    code = main(["simulate", what, "--config", str(path), *overrides,
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "BadInput"


@pytest.mark.parametrize("argv, fragment", [
    (["simulate", "study", "--seed", "-1"], "seed must be >= 0"),
    (["simulate", "session", "--phantom-seed", "-1"], "phantom seed must be >= 0"),
])
def test_negative_seed_is_bad_input(tmp_path, capsys, argv, fragment):
    code = main([*argv, "--out", str(tmp_path / "out")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], fragment in err["message"]) == ("BadInput", True), err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_calibrate_carm_coincident_detections_is_numerical_failure(tmp_path, capsys):
    doc = _read_json(DATA / "carm_calibration.json")
    for p in doc["image"]:
        p["uv_mm"] = [1.0, 2.0]
    path = tmp_path / "coincident.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["calibrate", "carm", "--input", str(path), "--out", str(tmp_path / "out")])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DegenerateGeometry"
    assert "coincide" in err["message"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_grade_zero_length_pedicle_axis_is_bad_input(tmp_path, capsys):
    pedicles = _read_json(DATA / "pedicles.json")
    pedicles[0]["axis_mm"][1] = pedicles[0]["axis_mm"][0]
    path = tmp_path / "pedicles.json"
    path.write_text(json.dumps(pedicles), encoding="utf-8")
    code = main(["grade", "--screws", str(DATA / "achieved_screws.json"),
                 "--pedicles", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["message"]) == (
        "BadInput", f"{path}: pedicle axis must have positive length")


# -- malformed input documents ---------------------------------------------------------


def _views_doc(jig: FiducialSet) -> list:
    """Two calibrated views of the jig with exact detections."""
    target = jig.points.mean(axis=0)
    views = []
    for label, source in (("AP", target + [0.0, -700.0, 0.0]),
                          ("LP", target + [700.0, 0.0, 0.0])):
        model = pinhole_projection(look_at(source, target), 1000.0, label)
        uv = project(model, jig.points)
        views.append({**model.to_dict(), "detections": [
            {"label": l, "uv_mm": [float(u), float(v)]} for l, (u, v) in zip(jig.labels, uv)]})
    return views


@functools.cache
def _documents(tmp: Path) -> dict:
    """command -> (argv with {name} placeholders, {name: valid document})."""
    from spinenav.meshes import bumpy_ellipsoid, sample_surface_points
    rng = np.random.default_rng(8)
    surface = bumpy_ellipsoid(rng, subdivisions=2)
    probed = sample_surface_points(surface, 30, rng) - np.array([1.0, 0.5, 0.0])
    jig = FiducialSet.from_dict(_read_json(DATA / "fiducials_fixed.json"))
    study_out = tmp / "study"
    assert main(["simulate", "study", "--set", "samples_per_method=6",
                 "--out", str(study_out)]) == 0
    study = _read_json(study_out / "study_results.json")
    # the keys report reads: the provenance and each method's pooled row
    results = {"provenance": study["provenance"], "methods": [
        {"label": m["label"], "modality": m["modality"],
         "pooled": {k: m["pooled"][k] for k in ("n", "mean_mm", "sd_mm",
                                                "ci95_mu_plus_1p96sigma_mm")}}
        for m in study["methods"]]}
    pedicles = _read_json(DATA / "pedicles.json")
    screws = _read_json(DATA / "achieved_screws.json")
    return {
        "calibrate pivot": ("calibrate pivot --input {input}",
                            {"input": _read_json(DATA / "pivot_poses.json")}),
        "calibrate carm": ("calibrate carm --input {input}",
                           {"input": _read_json(DATA / "carm_calibration.json")}),
        "register points": ("register points --fixed {fixed} --moving {moving}",
                            {"fixed": _read_json(DATA / "fiducials_fixed.json"),
                             "moving": _read_json(DATA / "fiducials_moving.json")}),
        "register icp": ("register icp --probed {probed} --surface {surface} --init {init}",
                         {"probed": {"points_mm": probed.tolist()},
                          "surface": surface.to_dict(),
                          "init": transform_to_dict(RigidTransform.identity())}),
        "register auto2d": ("register auto2d --jig {jig} --views {views}",
                            {"jig": jig.to_dict(), "views": _views_doc(jig)}),
        "plan validate": ("plan validate --plans {plans} --pedicles {pedicles}",
                          {"plans": screws, "pedicles": pedicles}),
        "grade": ("grade --screws {screws} --pedicles {pedicles}",
                  {"screws": screws, "pedicles": pedicles}),
        "report": ("report --results {results}", {"results": results}),
    }


def _run(tmp_path, argv, docs) -> int:
    """main on argv with each {name} replaced by a file holding docs[name]."""
    files = {}
    for name, doc in docs.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(doc), encoding="utf-8")
    return main([*argv.format(**files).split(), "--out", str(tmp_path / "out")])


def _positions(doc, path=()):
    """(path, value) of doc itself and of everything in it; a list is
    entered through its first entry."""
    yield path, doc
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _positions(value, path + (key,))
    elif isinstance(doc, list) and doc:
        yield from _positions(doc[0], path + (0,))


_BAD = {"null": None, "x": "x", "nan": float("nan")}


def _corrupted(doc, path, kind):
    """A copy of doc whose value at path is set to null, "x" or NaN, dropped,
    or made one entry short."""
    if not path:
        return _BAD[kind]
    out = copy.deepcopy(doc)
    node = functools.reduce(lambda node, key: node[key], path[:-1], out)
    if kind == "drop":
        del node[path[-1]]
    elif kind == "short":
        node[path[-1]] = node[path[-1]][:-1]
    else:
        node[path[-1]] = _BAD[kind]
    return out


def _corruptions(doc):
    """(path, kind, corrupted copy of doc): each position set to null, "x"
    or NaN, each key dropped, each list of numbers made one entry short."""
    for path, value in _positions(doc):
        kinds = list(_BAD)
        if path and isinstance(path[-1], str):
            kinds.append("drop")
        if isinstance(value, list) and value and all(
                isinstance(v, (int, float)) for v in value):
            kinds.append("short")
        for kind in kinds:
            yield path, kind, _corrupted(doc, path, kind)


# the corruptions a command accepts (exit 0), all of a name it only
# carries along: the pivot file's comment, a frame name that is some other
# string, labels that need no partner (auto2d leaves out a jig fiducial or a
# detection without one and registers the other five), and the free text of
# a study report
ACCEPTED = {
    *(("calibrate pivot", "input", ("comment",), kind) for kind in (*_BAD, "drop")),
    *((command, name, ("frame",), "x")
      for command, name in (("register points", "fixed"), ("register points", "moving"),
                            ("register icp", "surface"), ("register auto2d", "jig"))),
    *(("register auto2d", name, path, kind) for kind in _BAD
      for name, path in (("jig", ("points", 0, "label")),
                         ("views", (0, "detections", 0, "label")))),
    *(("report", "results", path, "x") for path in (
        ("provenance", "tool"), ("provenance", "version"), ("provenance", "config_hash"),
        ("methods", 0, "label"))),
}


@pytest.mark.parametrize("command", ["calibrate pivot", "calibrate carm", "register points",
                                     "register icp", "register auto2d", "plan validate",
                                     "grade", "report"])
def test_corrupted_input_documents_fail_typed(tmp_path_factory, tmp_path, capsys, command):
    argv, docs = _documents(tmp_path_factory.getbasetemp() / "documents")[command]
    wrong = []
    for name, doc in docs.items():
        for path, kind, bad in _corruptions(doc):
            try:
                code = _run(tmp_path, argv, {**docs, name: bad})
            except Exception as e:  # a bug: listed with the wrong exit codes
                code = repr(e)
            capsys.readouterr()
            if code not in ((0,) if (command, name, path, kind) in ACCEPTED else (2, 3)):
                wrong.append((name, path, kind, code))
    assert wrong == []


@pytest.mark.parametrize("command, name, mutate, fragment", [
    ("register points", "fixed", lambda d: d.pop("frame"), "missing key 'frame'"),
    ("calibrate pivot", "input", lambda d: d["poses"][0].pop("t"), "missing key 't'"),
    ("grade", "screws", lambda d: d[0].pop("entry_mm"), "missing key 'entry_mm'"),
    ("register auto2d", "views", lambda d: d.pop(), "exactly two views"),
    ("register icp", "probed", lambda d: d["points_mm"][0].__setitem__(0, float("nan")),
     "probed points must be finite"),
])
def test_malformed_input_routes(tmp_path_factory, tmp_path, capsys, command, name, mutate,
                                fragment):
    # each reached exit 2 only through a builtin exception before
    argv, docs = _documents(tmp_path_factory.getbasetemp() / "documents")[command]
    docs = copy.deepcopy(docs)
    mutate(docs[name])
    assert _run(tmp_path, argv, docs) == 2
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], fragment in err["message"]) == ("BadInput", True), err
