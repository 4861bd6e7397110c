"""Session workflow: the enforced surgical state machine with transition
guards, C-arm acquisition accounting, a typed publish/subscribe module
registry, and session persistence.

The workflow runs two major stages (pre-op, intra-op) across 16 phases; the
two robot phases exist only in robot-assisted mode. Guards are hard errors:
navigation cannot start without an accepted registration, screw placement
without a validated plan, robot positioning without a collision-checked
trajectory. A rejected registration loops back to re-register.

A session has one persisted form, its event log: a header line, then one
JSON event per line. Loading replays the events through advance, so every
guard runs again; the derived state is never read from a file.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import (
    BadInput,
    DuplicateName,
    GuardFailed,
    IllegalTransition,
    IOFailure,
    LayerViolation,
    SchemaVersionMismatch,
)
from .fileio import atomic_write
from .geom import finite_scalars
from .kinematics import Trajectory
from .planning import PlanValidation, ScrewPlan
from .registration import RegistrationResult, verify_registration

SCHEMA_VERSION = 1


class Phase(Enum):
    PRE_OP_IMAGING = "PreOpImaging"
    PATIENT_INPUT = "PatientInput"
    PLANNING = "Planning"
    OT_PREPARATION = "OTPreparation"
    INSTRUMENT_CALIBRATION = "InstrumentCalibration"
    DRB_ATTACHMENT = "DRBAttachment"
    ROBOT_CART_POSITIONING = "RobotCartPositioning"
    CARM_MOUNTING = "CArmMounting"
    INTRA_OP_IMAGING = "IntraOpImaging"
    PATIENT_REGISTRATION = "PatientRegistration"
    REGISTRATION_VERIFICATION = "RegistrationVerification"
    NAVIGATION = "Navigation"
    ROBOT_POSITIONING = "RobotPositioning"
    SCREW_PLACEMENT = "ScrewPlacement"
    VERIFICATION_IMAGING = "VerificationImaging"
    COMPLETE = "Complete"


class Mode(Enum):
    NAVIGATION_ONLY = "NavigationOnly"
    ROBOT_ASSISTED = "RobotAssisted"


class Modality(Enum):
    PREOP_CT_POINT_BASED = "PreOpCT_PointBased"
    INTRAOP_2D_AUTO_FIDUCIAL = "IntraOp2D_AutoFiducial"


class Purpose(Enum):
    REGISTRATION = "Registration"
    NAVIGATION = "Navigation"
    VERIFICATION = "Verification"


class EventKind(Enum):
    ACQUIRE_PREOP_CT = "acquire_preop_ct"
    SUBMIT_PATIENT_DATA = "submit_patient_data"
    APPROVE_PLAN = "approve_plan"
    FINISH_PLANNING = "finish_planning"
    PREPARE_OT = "prepare_ot"
    CALIBRATE_INSTRUMENTS = "calibrate_instruments"
    ATTACH_DRB = "attach_drb"
    POSITION_ROBOT_CART = "position_robot_cart"
    MOUNT_CARM = "mount_carm"
    ACQUIRE_REGISTRATION_IMAGES = "acquire_registration_images"
    BEGIN_REGISTRATION = "begin_registration"
    SUBMIT_REGISTRATION = "submit_registration"
    BEGIN_NAVIGATION = "begin_navigation"
    RE_REGISTER = "re_register"
    POSITION_ROBOT = "position_robot"
    BEGIN_PLACEMENT = "begin_placement"
    CONFIRM_PLACEMENT = "confirm_placement"
    ACQUIRE_VERIFICATION_IMAGES = "acquire_verification_images"
    NEXT_SCREW = "next_screw"
    COMPLETE_SESSION = "complete_session"


@dataclass(frozen=True)
class Event:
    """Workflow event; payload fields are used per kind."""

    kind: EventKind
    scope: str | None = None          # acquisition scope: level id or "session"
    views: tuple = ()                 # acquisition views, e.g. ("AP", "LP")
    level: str | None = None          # screw level for placement events
    plan: ScrewPlan | None = None
    validation: PlanValidation | None = None
    registration: RegistrationResult | None = None
    trajectory: Trajectory | None = None
    achieved: ScrewPlan | None = None
    residual_rms: float | None = None
    timestamp: float = 0.0

    def __post_init__(self):
        finite_scalars(self, "timestamp")


@dataclass(frozen=True)
class AcquisitionEntry:
    """One C-arm exposure: scope is a screw id, a level id, or "session"."""

    scope: str
    purpose: Purpose
    view: str
    timestamp: float = 0.0

    def __post_init__(self):
        finite_scalars(self, "timestamp")


@dataclass(frozen=True)
class AcquisitionLog:
    entries: tuple = ()

    def count(self) -> int:
        return len(self.entries)


def record_acquisition(log: AcquisitionLog, entry: AcquisitionEntry) -> AcquisitionLog:
    """Append-only update; returns a new log."""
    return AcquisitionLog(log.entries + (entry,))


@dataclass(frozen=True)
class ScrewRecord:
    level: str
    screw_id: str
    achieved: ScrewPlan | None = None


@dataclass(frozen=True)
class SessionState:
    """Immutable workflow session; advance() maps (state, event) -> state."""

    mode: Mode
    modality: Modality
    phase: Phase = Phase.PRE_OP_IMAGING
    registration_threshold_mm: float = 2.0
    validated_plans: tuple = ()        # ScrewPlan, guard-checked at approval
    last_registration: RegistrationResult | None = None
    registration_accepted: bool = False
    placed_screws: tuple = ()          # ScrewRecord
    acquisition_log: AcquisitionLog = field(default_factory=AcquisitionLog)
    events: tuple = ()                 # applied event history

    def validated_levels(self) -> set:
        return {p.level for p in self.validated_plans}

    def __eq__(self, other):
        if not isinstance(other, SessionState):
            return NotImplemented
        return session_to_dict(self) == session_to_dict(other)

    def __hash__(self):
        return hash(json.dumps(session_to_dict(self), sort_keys=True))


def new_session(mode: Mode, modality: Modality,
                registration_threshold_mm: float = 2.0) -> SessionState:
    return SessionState(mode=mode, modality=modality,
                        registration_threshold_mm=registration_threshold_mm)


# -- transition machinery ------------------------------------------------------


def _advance_phase(session: SessionState, event: Event, phase: Phase,
                   **changes) -> SessionState:
    return replace(session, phase=phase, events=session.events + (event,),
                   **changes)


def advance(session: SessionState, event: Event) -> SessionState:
    """Apply one event. Raises IllegalTransition when the event has no edge
    from the current phase (in the session's mode) and GuardFailed when the
    edge exists but its guard rejects the payload."""
    kind = event.kind
    phase = session.phase
    robot = session.mode is Mode.ROBOT_ASSISTED

    if phase is Phase.PRE_OP_IMAGING and kind is EventKind.ACQUIRE_PREOP_CT:
        return _advance_phase(session, event, Phase.PATIENT_INPUT)

    if phase is Phase.PATIENT_INPUT and kind is EventKind.SUBMIT_PATIENT_DATA:
        return _advance_phase(session, event, Phase.PLANNING)

    if phase is Phase.PLANNING and kind is EventKind.APPROVE_PLAN:
        if event.plan is None or event.validation is None:
            raise GuardFailed("plan approval needs the plan and its validation")
        if not event.validation.accepted:
            raise GuardFailed(
                f"plan for {event.plan.level} failed validation "
                f"(breach {event.validation.breach_mm:.2f} mm)")
        return _advance_phase(session, event, Phase.PLANNING,
                              validated_plans=session.validated_plans + (event.plan,))

    if phase is Phase.PLANNING and kind is EventKind.FINISH_PLANNING:
        if not session.validated_plans:
            raise GuardFailed("at least one validated plan is required")
        return _advance_phase(session, event, Phase.OT_PREPARATION)

    if phase is Phase.OT_PREPARATION and kind is EventKind.PREPARE_OT:
        return _advance_phase(session, event, Phase.INSTRUMENT_CALIBRATION)

    if phase is Phase.INSTRUMENT_CALIBRATION and kind is EventKind.CALIBRATE_INSTRUMENTS:
        return _advance_phase(session, event, Phase.DRB_ATTACHMENT)

    if phase is Phase.DRB_ATTACHMENT and kind is EventKind.ATTACH_DRB:
        nxt = Phase.ROBOT_CART_POSITIONING if robot else Phase.CARM_MOUNTING
        return _advance_phase(session, event, nxt)

    if phase is Phase.ROBOT_CART_POSITIONING and kind is EventKind.POSITION_ROBOT_CART:
        return _advance_phase(session, event, Phase.CARM_MOUNTING)

    if phase is Phase.CARM_MOUNTING and kind is EventKind.MOUNT_CARM:
        return _advance_phase(session, event, Phase.INTRA_OP_IMAGING)

    if phase is Phase.INTRA_OP_IMAGING and kind is EventKind.ACQUIRE_REGISTRATION_IMAGES:
        log = session.acquisition_log
        for view in event.views:
            log = record_acquisition(log, AcquisitionEntry(
                event.scope or "session", Purpose.REGISTRATION, view,
                event.timestamp))
        return _advance_phase(session, event, Phase.INTRA_OP_IMAGING,
                              acquisition_log=log)

    if phase is Phase.INTRA_OP_IMAGING and kind is EventKind.BEGIN_REGISTRATION:
        return _advance_phase(session, event, Phase.PATIENT_REGISTRATION)

    if phase is Phase.PATIENT_REGISTRATION and kind is EventKind.SUBMIT_REGISTRATION:
        if event.registration is None:
            raise GuardFailed("registration result payload required")
        return _advance_phase(session, event, Phase.REGISTRATION_VERIFICATION,
                              last_registration=event.registration,
                              registration_accepted=False)

    if phase is Phase.REGISTRATION_VERIFICATION and kind is EventKind.BEGIN_NAVIGATION:
        if session.last_registration is None:
            raise GuardFailed("no registration submitted")
        decision = verify_registration(session.last_registration,
                                       session.registration_threshold_mm)
        if not decision.accepted:
            raise GuardFailed(decision.reason)
        return _advance_phase(session, event, Phase.NAVIGATION,
                              registration_accepted=True)

    if phase is Phase.REGISTRATION_VERIFICATION and kind is EventKind.RE_REGISTER:
        return _advance_phase(session, event, Phase.PATIENT_REGISTRATION,
                              last_registration=None,
                              registration_accepted=False)

    if phase is Phase.NAVIGATION and kind is EventKind.POSITION_ROBOT:
        if not robot:
            raise IllegalTransition(phase.value, kind.value)
        if event.trajectory is None or not event.trajectory.collision_checked:
            raise GuardFailed("robot positioning needs a collision-checked trajectory")
        return _advance_phase(session, event, Phase.ROBOT_POSITIONING)

    placement_source = Phase.ROBOT_POSITIONING if robot else Phase.NAVIGATION
    if phase is placement_source and kind is EventKind.BEGIN_PLACEMENT:
        if event.level is None or event.level not in session.validated_levels():
            raise GuardFailed(f"no validated plan for level {event.level!r}")
        return _advance_phase(session, event, Phase.SCREW_PLACEMENT)

    if phase is Phase.SCREW_PLACEMENT and kind is EventKind.CONFIRM_PLACEMENT:
        if event.level is None:
            raise GuardFailed("confirm_placement needs the screw level")
        screw_id = event.scope or f"{event.level}#{len(session.placed_screws) + 1}"
        rec = ScrewRecord(event.level, screw_id, event.achieved)
        return _advance_phase(session, event, Phase.VERIFICATION_IMAGING,
                              placed_screws=session.placed_screws + (rec,))

    if phase is Phase.VERIFICATION_IMAGING and kind is EventKind.ACQUIRE_VERIFICATION_IMAGES:
        log = session.acquisition_log
        for view in event.views:
            log = record_acquisition(log, AcquisitionEntry(
                event.scope or "session", Purpose.VERIFICATION, view,
                event.timestamp))
        return _advance_phase(session, event, Phase.VERIFICATION_IMAGING,
                              acquisition_log=log)

    if phase is Phase.VERIFICATION_IMAGING and kind is EventKind.NEXT_SCREW:
        return _advance_phase(session, event, Phase.NAVIGATION)

    if phase is Phase.VERIFICATION_IMAGING and kind is EventKind.COMPLETE_SESSION:
        return _advance_phase(session, event, Phase.COMPLETE)

    raise IllegalTransition(phase.value, kind.value)


# -- radiation accounting --------------------------------------------------------


@dataclass(frozen=True)
class RadiationRow:
    level: str
    screw_id: str
    registration_images: float
    verification_images: float

    @property
    def total(self) -> float:
        return self.registration_images + self.verification_images


@dataclass(frozen=True)
class RadiationReport:
    rows: tuple
    mean_per_screw: float | None  # None for an empty screw list

    def to_csv(self) -> str:
        lines = ["level,screw,registration_images,verification_images,total"]
        for r in self.rows:
            lines.append(f"{r.level},{r.screw_id},{repr(r.registration_images)},"
                         f"{repr(r.verification_images)},{repr(r.total)}")
        if self.mean_per_screw is not None:
            lines.append(f"mean,,,,{repr(self.mean_per_screw)}")
        return "\n".join(lines) + "\n"


def radiation_report(log: AcquisitionLog, screws) -> RadiationReport:
    """Per-screw image counts and their mean.

    Attribution, most specific match first: an entry scoped to a screw id
    counts for that screw; scoped to a level it is split equally across that
    level's screws (a scope "L3" also covers pedicle-side levels "L3-left"/
    "L3-right"); anything else is session-wide, split across all screws.
    """
    screws = list(screws)
    if not screws:
        return RadiationReport((), None)
    by_level: dict = {}
    for rec in screws:
        by_level.setdefault(rec.level, []).append(rec.screw_id)
        side_split = rec.level.rsplit("-", 1)
        if len(side_split) == 2:
            by_level.setdefault(side_split[0], []).append(rec.screw_id)
    reg = {rec.screw_id: 0.0 for rec in screws}
    ver = {rec.screw_id: 0.0 for rec in screws}
    for e in log.entries:
        bucket = ver if e.purpose is Purpose.VERIFICATION else reg
        if e.scope in reg:
            bucket[e.scope] += 1.0
        elif e.scope in by_level:
            share = 1.0 / len(by_level[e.scope])
            for sid in by_level[e.scope]:
                bucket[sid] += share
        else:  # session-wide
            share = 1.0 / len(screws)
            for rec in screws:
                bucket[rec.screw_id] += share
    rows = tuple(RadiationRow(rec.level, rec.screw_id, reg[rec.screw_id],
                              ver[rec.screw_id]) for rec in screws)
    mean = sum(r.total for r in rows) / len(rows)
    return RadiationReport(rows, mean)


# -- module registry / bus ----------------------------------------------------------

LAYERS = ("Human", "Hardware", "Firmware", "Software")


@dataclass(frozen=True)
class BusMessage:
    topic: str
    payload: object
    sequence: int
    source_module: str


class ModuleHandle:
    """Subscription handle; delivered messages accumulate in order."""

    def __init__(self, name: str, layer: str, topics):
        self.name = name
        self.layer = layer
        self.topics = frozenset(topics)
        self.inbox: list = []


class ModuleRegistry:
    """Named modules on a sequenced bus; layers gate publish rights.

    Delivery is serialized under one lock, so sequence numbers strictly
    increase and per-topic ordering is preserved regardless of the
    publishing thread.
    """

    def __init__(self):
        self._modules: dict[str, ModuleHandle] = {}
        self._topic_layers: dict[str, frozenset] = {}
        self._sequence = 0
        self._lock = threading.Lock()

    def register_module(self, name: str, layer: str, topics_subscribed=()) -> ModuleHandle:
        if layer not in LAYERS:
            raise BadInput(f"layer must be one of {LAYERS}")
        with self._lock:
            if name in self._modules:
                raise DuplicateName(f"module {name!r} already registered")
            handle = ModuleHandle(name, layer, topics_subscribed)
            self._modules[name] = handle
            return handle

    def declare_topic(self, topic: str, publish_layers) -> None:
        """Restrict publishing on a topic to the named layers."""
        with self._lock:
            self._topic_layers[topic] = frozenset(publish_layers)

    def publish(self, source_module: str, topic: str, payload) -> BusMessage:
        with self._lock:
            src = self._modules.get(source_module)
            if src is None:
                raise BadInput(f"unknown source module {source_module!r}")
            allowed = self._topic_layers.get(topic)
            if allowed is not None and src.layer not in allowed:
                raise LayerViolation(
                    f"{src.layer}-layer module {source_module!r} may not "
                    f"publish on {topic!r}")
            self._sequence += 1
            msg = BusMessage(topic, payload, self._sequence, source_module)
            for handle in self._modules.values():
                if topic in handle.topics:
                    handle.inbox.append(msg)
            return msg


# -- persistence ---------------------------------------------------------------------


def _event_to_dict(e: Event) -> dict:
    d: dict = {"kind": e.kind.value, "timestamp": e.timestamp}
    if e.scope is not None:
        d["scope"] = e.scope
    if e.views:
        d["views"] = list(e.views)
    if e.level is not None:
        d["level"] = e.level
    if e.plan is not None:
        d["plan"] = e.plan.to_dict()
    if e.validation is not None:
        d["validation"] = {"accepted": e.validation.accepted,
                           "breach_mm": e.validation.breach_mm,
                           "min_clearance_mm": e.validation.min_clearance_mm}
    if e.registration is not None:
        d["registration"] = e.registration.to_dict()
    if e.trajectory is not None:
        d["trajectory"] = {"times": [float(t) for t in e.trajectory.times],
                           "joints": [[float(v) for v in q]
                                      for q in e.trajectory.joints],
                           "planning_mode": e.trajectory.planning_mode,
                           "collision_checked": e.trajectory.collision_checked}
    if e.achieved is not None:
        d["achieved"] = e.achieved.to_dict()
    if e.residual_rms is not None:
        d["residual_rms"] = e.residual_rms
    return d


def _json_bool(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise BadInput(f"{what} must be a JSON boolean, got {value!r}")
    return value


def _event_from_dict(d: dict) -> Event:
    """Inverse of _event_to_dict. Raises BadInput, KeyError, TypeError or
    ValueError for a malformed event: a flag that is not a JSON boolean,
    views that are not a list of strings, or a timestamp that is not a
    finite number."""
    if not isinstance(d, dict):
        raise BadInput(f"an event must be a JSON object, got {d!r}")
    traj = None
    if "trajectory" in d:
        td = d["trajectory"]
        traj = Trajectory(np.asarray(td["times"], float),
                          np.asarray(td["joints"], float), td["planning_mode"],
                          _json_bool(td["collision_checked"], "collision_checked"))
    val = None
    if "validation" in d:
        vd = d["validation"]
        val = PlanValidation(_json_bool(vd["accepted"], "accepted"), vd["breach_mm"],
                             vd["min_clearance_mm"])
    views = d.get("views", [])
    if not (isinstance(views, list) and all(isinstance(v, str) for v in views)):
        raise BadInput(f"views must be a list of strings, got {views!r}")
    timestamp = d.get("timestamp", 0.0)
    if isinstance(timestamp, bool) or not isinstance(timestamp, (int, float)):
        raise BadInput(f"timestamp must be a finite number, got {timestamp!r}")
    return Event(
        kind=EventKind(d["kind"]),
        scope=d.get("scope"),
        views=tuple(views),
        level=d.get("level"),
        plan=ScrewPlan.from_dict(d["plan"]) if "plan" in d else None,
        validation=val,
        registration=(RegistrationResult.from_dict(d["registration"])
                      if "registration" in d else None),
        trajectory=traj,
        achieved=ScrewPlan.from_dict(d["achieved"]) if "achieved" in d else None,
        residual_rms=d.get("residual_rms"),
        timestamp=timestamp,
    )


def session_to_dict(s: SessionState) -> dict:
    """The persisted form: the header and the events, no derived state."""
    return {"mode": s.mode.value, "modality": s.modality.value,
            "registration_threshold_mm": s.registration_threshold_mm,
            "schema_version": SCHEMA_VERSION,
            "events": [_event_to_dict(e) for e in s.events]}


def session_from_dict(d: dict) -> SessionState:
    """Replay the event log from new_session through advance. Raises
    SchemaVersionMismatch for an unknown schema, a header with a missing,
    extra or malformed key, or a malformed event; errors from advance (an
    illegal or guarded transition) propagate unchanged."""
    if d.get("schema_version") != SCHEMA_VERSION:
        raise SchemaVersionMismatch(
            f"expected schema {SCHEMA_VERSION}, found {d.get('schema_version')!r}")
    if set(d) != {"mode", "modality", "registration_threshold_mm",
                  "schema_version", "events"}:
        raise SchemaVersionMismatch(f"malformed session header: keys {sorted(d)}")
    threshold = d["registration_threshold_mm"]
    if (isinstance(threshold, bool) or not isinstance(threshold, (int, float))
            or not isinstance(d["events"], list)):
        raise SchemaVersionMismatch("malformed session header: threshold or events")
    try:
        session = new_session(Mode(d["mode"]), Modality(d["modality"]), threshold)
    except (TypeError, ValueError) as err:
        raise SchemaVersionMismatch(f"malformed session header: {err!r}") from err
    for i, record in enumerate(d["events"]):
        try:
            event = _event_from_dict(record)
        except (KeyError, TypeError, ValueError) as err:
            raise SchemaVersionMismatch(
                f"malformed event {i + 1} (line {i + 2} of a saved session): "
                f"{err!r}") from err
        session = advance(session, event)
    return session


def save_session(session: SessionState, path) -> None:
    """Header line (session_to_dict key order), then one event per line."""
    d = session_to_dict(session)
    events = d.pop("events")
    lines = [json.dumps(d)] + [json.dumps(e, sort_keys=True) for e in events]
    atomic_write(path, "\n".join(lines) + "\n")


def load_session(path) -> SessionState:
    """Read a save_session file and replay it with session_from_dict. Raises
    IOFailure if the file cannot be read, SchemaVersionMismatch if it is
    empty, holds a non-JSON line or does not start with a header line."""
    try:
        lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    except OSError as err:
        raise IOFailure(str(err)) from err
    if not lines:
        raise SchemaVersionMismatch("empty session file")
    try:
        header, *events = [json.loads(line) for line in lines]
    except json.JSONDecodeError as err:
        raise SchemaVersionMismatch(f"unreadable session file: {err}") from err
    if not isinstance(header, dict) or "events" in header:
        raise SchemaVersionMismatch("malformed session header: not a header line")
    return session_from_dict({**header, "events": events})


def save_event_trace(session: SessionState, path) -> None:
    """The same file as save_session."""
    save_session(session, path)


replay_events = load_session
