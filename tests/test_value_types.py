"""The value-type idiom shared by every array-carrying dataclass: each array
field is a read-only copy that rejects non-finite entries, and == and hash
compare array fields by value. Float scalar fields of the value types reject
non-finite values, bools and strings too, and the guarded flags take only
bools. The constructors own these rules, so each from_dict is a key map, and
the value-type files in demos/data read back and write the same document."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from spinenav.calibration import (
    Detection2D,
    PivotResult,
    ProjectionModel,
    SyntheticProjectionImage,
)
from spinenav.errors import BadInput, NegativeBreach
from spinenav.geom import ArrayValue, RigidTransform, transform_from_dict, transform_to_dict
from spinenav.kinematics import Capsule, JointVector, RobotModel, Trajectory, default_robot
from spinenav.planning import (Grade, PedicleModel, PlanDeviation, PlanValidation, ScrewPlan,
                               grade_gertzbein)
from spinenav.registration import FiducialSet, RegistrationResult, SurfaceModel, TrePrediction
from spinenav.simharness import StudyConfig
from spinenav.workflow import Event, EventKind, Modality, Mode, SessionState

_ROBOT = default_robot()

# one valid set of constructor arguments per value type
VALID = {
    RigidTransform: dict(rotation=np.eye(3), translation=[0.0, 5.0, -2.0]),
    FiducialSet: dict(frame="Patient", labels=("a", "b", "c"),
                      points=[[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [0.0, 10.0, 0.0]]),
    TrePrediction: dict(target=[0.0, 0.0, 50.0], expected_tre_rms=0.4, fle_rms=0.3,
                        principal_axis_spans=[10.0, 12.0, 14.0],
                        target_offsets=[50.0, 50.0, 0.0]),
    SurfaceModel: dict(frame="PreOpImage",
                       vertices=[[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [0.0, 10.0, 0.0],
                                 [0.0, 0.0, 10.0]],
                       triangles=[[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]]),
    PivotResult: dict(tip_offset=[0.0, 0.0, 150.0], pivot_point=[10.0, 0.0, -5.0],
                      residual_rms=0.2),
    ProjectionModel: dict(matrix=[[1000.0, 0.0, 0.0, 0.0], [0.0, 1000.0, 0.0, 0.0],
                                  [0.0, 0.0, 1.0, 500.0]], view_label="AP"),
    Detection2D: dict(view_label="AP", labels=("a", "b"), uv=[[0.0, 1.0], [2.0, 3.0]]),
    SyntheticProjectionImage: dict(view_label="AP", pixels=np.arange(20).reshape(4, 5)),
    Capsule: dict(p0=[0.0, 0.0, 0.0], p1=[0.0, 0.0, 100.0], radius=20.0),
    RobotModel: dict(dh_rows=_ROBOT.dh_rows, joint_limits=_ROBOT.joint_limits,
                     link_capsules=_ROBOT.link_capsules),
    JointVector: dict(q=[0.0, 0.5, -0.5, 0.0, 1.0, 0.0]),
    Trajectory: dict(times=[0.0, 0.5, 1.0], joints=np.zeros((3, 6))),
    ScrewPlan: dict(level="L3", entry=[0.0, 0.0, 0.0], direction=[0.0, 0.0, 1.0],
                    diameter=6.5, length=45.0),
    PedicleModel: dict(level="L3", p0=[0.0, 0.0, 0.0], p1=[0.0, 0.0, 30.0],
                       radius_profile=((0.0, 4.0), (1.0, 3.0))),
}


def _arrays(value, kind="fiu"):
    """Names of value's array fields whose dtype kind is in kind."""
    return [f.name for f in dataclasses.fields(value)
            if isinstance(getattr(value, f.name), np.ndarray)
            and getattr(value, f.name).dtype.kind in kind]


def _with_entry(cls, name, fill):
    """cls built from VALID with field name's first entry replaced by
    fill(entry)."""
    v = np.array(VALID[cls][name], dtype=float)
    v.flat[0] = fill(v.flat[0])
    return cls(**{**VALID[cls], name: v})


FLOAT_FIELDS = [(cls, name) for cls in VALID for name in _arrays(cls(**VALID[cls]), "f")]
# the value types with a float array field: a raster's one array is its uint16 pixels
FLOAT_TYPES = [cls for cls in VALID if cls is not SyntheticProjectionImage]


def test_every_value_type_is_covered():
    assert set(VALID) == set(ArrayValue.__subclasses__())
    assert {cls for cls, _ in FLOAT_FIELDS} == set(FLOAT_TYPES)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("cls, name", FLOAT_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in FLOAT_FIELDS])
def test_float_array_fields_reject_non_finite(cls, name, bad):
    with pytest.raises(ValueError, match="finite"):
        _with_entry(cls, name, lambda _: bad)


@pytest.mark.parametrize("cls", list(VALID), ids=lambda cls: cls.__name__)
def test_array_fields_are_read_only_copies(cls):
    args = {k: np.array(v) if isinstance(v, (list, np.ndarray)) else v
            for k, v in VALID[cls].items()}
    value = cls(**args)
    for name in _arrays(value):
        assert not getattr(value, name).flags.writeable
        assert not np.shares_memory(getattr(value, name), args[name])


@pytest.mark.parametrize("cls", list(VALID), ids=lambda cls: cls.__name__)
def test_copy_is_equal_and_hashes_alike(cls):
    a, b = cls(**VALID[cls]), cls(**VALID[cls])
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != "not a value"


@pytest.mark.parametrize("cls, name", FLOAT_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in FLOAT_FIELDS])
def test_one_changed_element_is_unequal(cls, name):
    a = cls(**VALID[cls])
    b = _with_entry(cls, name, lambda x: np.nextafter(x, -np.inf))
    assert a != b and not a == b


@pytest.mark.parametrize("cls", FLOAT_TYPES, ids=lambda cls: cls.__name__)
def test_negative_zero_equals_zero_and_hashes_alike(cls):
    a = cls(**VALID[cls])
    flipped = {name: np.where(getattr(a, name) == 0.0, -0.0, getattr(a, name))
               for name in _arrays(a, "f")}
    assert any(np.signbit(v).any() for v in flipped.values())
    b = cls(**{**VALID[cls], **flipped})
    assert a == b
    assert hash(a) == hash(b)


def test_rigid_transform_negative_zero_translation_hashes_alike():
    a = RigidTransform(np.eye(3), [-0.0, 0.0, 0.0])
    b = RigidTransform(np.eye(3), [0.0, 0.0, 0.0])
    assert a == b and hash(a) == hash(b)


def test_grade_rejects_nan_breach():
    with pytest.raises(NegativeBreach):
        grade_gertzbein(np.nan)


# one valid set of constructor arguments per type with float scalar fields
SCALAR_VALID = {
    RegistrationResult: dict(transform=RigidTransform.identity(), fre_rms=0.5,
                             per_point_residuals=(0.5,), n_points=1),
    TrePrediction: VALID[TrePrediction],
    PivotResult: VALID[PivotResult],
    Grade: dict(value="B", breach_mm=1.0),
    PlanValidation: dict(accepted=True, breach_mm=0.0, min_clearance_mm=1.0),
    PlanDeviation: dict(entry_offset_mm=0.5, angle_deg=2.0, tip_offset_mm=1.0),
    SessionState: dict(mode=Mode.NAVIGATION_ONLY, modality=Modality.PREOP_CT_POINT_BASED,
                       registration_threshold_mm=2.0),
}

SCALAR_FIELDS = [
    (RegistrationResult, "fre_rms"),
    (TrePrediction, "expected_tre_rms"), (TrePrediction, "fle_rms"),
    (PivotResult, "residual_rms"),
    (Grade, "breach_mm"),
    (PlanValidation, "breach_mm"), (PlanValidation, "min_clearance_mm"),
    (PlanDeviation, "entry_offset_mm"), (PlanDeviation, "angle_deg"),
    (PlanDeviation, "tip_offset_mm"),
    (SessionState, "registration_threshold_mm"),
]


@pytest.mark.parametrize("bad, message", [
    (np.nan, "must be finite"), (np.inf, "must be finite"), (-np.inf, "must be finite"),
    # a bool is not taken as 0 or 1 mm, nor a string as its number
    (True, "must be a number"), ("2.0", "must be a number"),
], ids=["nan", "inf", "-inf", "bool", "str"])
@pytest.mark.parametrize("cls, name", SCALAR_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in SCALAR_FIELDS])
def test_float_scalar_fields_reject_non_finite(cls, name, bad, message):
    cls(**SCALAR_VALID[cls])
    args = {**SCALAR_VALID[cls], name: bad}
    if cls is RegistrationResult:
        # residuals that match the FRE: only the scalar check can fail
        args["per_point_residuals"] = (bad,)
    with pytest.raises(BadInput, match=f"{name} {message}"):
        cls(**args)


# the flags the workflow guards read (a truthy string must not pass a guard),
# and the flag every study report's config carries
FLAG_FIELDS = [(Trajectory, "collision_checked"), (PlanValidation, "accepted"),
               (RegistrationResult, "converged"), (StudyConfig, "robot_assisted")]


@pytest.mark.parametrize("cls, name", FLAG_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in FLAG_FIELDS])
def test_flag_fields_take_only_bools(cls, name):
    valid = {**VALID, **SCALAR_VALID}.get(cls, {})
    for bad in ("false", "true", 0, 1, None):
        with pytest.raises(BadInput, match=f"{name} must be a bool"):
            cls(**{**valid, name: bad})
    flag = getattr(cls(**{**valid, name: np.True_}), name)
    assert flag is True


def test_shape_mismatch_is_bad_input():
    with pytest.raises(BadInput, match="translation"):
        RigidTransform(np.eye(3), [1.0, 2.0])


@pytest.mark.parametrize("views", [{"AP", "LP"}, {"AP": 1, "LP": 2}], ids=["set", "dict"])
def test_event_views_are_a_list_or_tuple(views):
    # a set would log its views in hash-seed order, a dict would log its keys
    with pytest.raises(BadInput, match="views"):
        Event(EventKind.ACQUIRE_REGISTRATION_IMAGES, scope="L1", views=views)


# -- the value-type files in demos/data ----------------------------------------------

DATA = Path(__file__).resolve().parents[1] / "demos" / "data"


@pytest.mark.parametrize("name", ["fiducials_fixed.json", "fiducials_moving.json"])
def test_fiducial_files_round_trip_to_their_bytes(name):
    text = (DATA / name).read_text(encoding="utf-8")
    assert json.dumps(FiducialSet.from_dict(json.loads(text)).to_dict()) == text


@pytest.mark.parametrize("name, cls", [("pedicles.json", PedicleModel),
                                       ("achieved_screws.json", ScrewPlan)])
def test_value_list_files_round_trip_to_their_bytes(name, cls):
    text = (DATA / name).read_text(encoding="utf-8")
    values = [cls.from_dict(d) for d in json.loads(text)]
    assert json.dumps([v.to_dict() for v in values], indent=1) == text


def test_pivot_poses_round_trip_to_their_bytes():
    text = (DATA / "pivot_poses.json").read_text(encoding="utf-8")
    doc = json.loads(text)
    poses = [transform_from_dict(d) for d in doc["poses"]]
    assert json.dumps({**doc, "poses": [transform_to_dict(t) for t in poses]},
                      indent=1) == text


def test_study_config_file_round_trips():
    doc = json.loads((DATA / "study_config.json").read_text(encoding="utf-8"))
    config = StudyConfig.from_dict(doc)
    assert config.modality is Modality.PREOP_CT_POINT_BASED
    assert isinstance(config.user_groups, tuple)
    assert json.loads(json.dumps(config.to_dict())) == doc
