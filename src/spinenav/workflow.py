"""Session workflow: the enforced surgical state machine with transition
guards, C-arm acquisition accounting, a typed publish/subscribe module
registry, and session persistence.

The workflow runs two major stages (pre-op, intra-op) across 16 phases; the
two robot phases exist only in robot-assisted mode. TRANSITIONS holds each
mode's edges; advance looks the event up there, then runs the edge's guard.
Guards are hard errors: navigation cannot start without an accepted
registration, screw placement without a validated plan, robot positioning
without a collision-checked trajectory. A rejected registration loops back.

A session stores its phase and its event log, nothing else: the validated
plans, the registration, the placed screws and the acquisition log are read
from the events. The log is also its one persisted form: a header line, then
one JSON event per line. Loading replays the events through advance, so every
guard runs again; derived state is never stored, in memory or in a file.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

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


_IMAGING_PURPOSE = {EventKind.ACQUIRE_REGISTRATION_IMAGES: Purpose.REGISTRATION,
                    EventKind.ACQUIRE_VERIFICATION_IMAGES: Purpose.VERIFICATION}


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

    def __post_init__(self):
        if isinstance(self.views, str):
            raise BadInput(f"views must be a collection of view names, "
                           f"not the string {self.views!r}")
        views = tuple(self.views)
        if not all(isinstance(v, str) for v in views):
            raise BadInput(f"views must be view names (strings), got {views!r}")
        for name in ("scope", "level"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise BadInput(f"{name} must be a string or None, got {value!r}")
        object.__setattr__(self, "views", views)


@dataclass(frozen=True)
class AcquisitionEntry:
    """One C-arm exposure: scope is a screw id, a level id, or "session"."""

    scope: str
    purpose: Purpose
    view: str


@dataclass(frozen=True)
class ScrewRecord:
    level: str
    screw_id: str
    achieved: ScrewPlan | None = None


@dataclass(frozen=True)
class SessionState:
    """Immutable workflow session; advance() maps (state, event) -> state.
    Everything else a session knows is read from its events."""

    mode: Mode
    modality: Modality
    phase: Phase = Phase.PRE_OP_IMAGING
    registration_threshold_mm: float = 2.0
    events: tuple = ()                 # applied event history

    def __post_init__(self):
        finite_scalars(self, "registration_threshold_mm")
        if self.registration_threshold_mm < 0:
            raise BadInput("SessionState registration_threshold_mm must be >= 0")

    def _latest(self, *kinds: EventKind) -> Event | None:
        return next((e for e in reversed(self.events) if e.kind in kinds), None)

    @property
    def validated_plans(self) -> tuple:
        """The approved plans (ScrewPlan), guard-checked at approval."""
        return tuple(e.plan for e in self.events if e.kind is EventKind.APPROVE_PLAN)

    def validated_levels(self) -> set:
        return {p.level for p in self.validated_plans}

    @property
    def last_registration(self) -> RegistrationResult | None:
        """The latest submitted registration; None after a re-registration."""
        e = self._latest(EventKind.SUBMIT_REGISTRATION, EventKind.RE_REGISTER)
        return None if e is None or e.kind is EventKind.RE_REGISTER else e.registration

    @property
    def registration_accepted(self) -> bool:
        """Navigation began after the latest registration was submitted."""
        e = self._latest(EventKind.SUBMIT_REGISTRATION, EventKind.RE_REGISTER,
                         EventKind.BEGIN_NAVIGATION)
        return e is not None and e.kind is EventKind.BEGIN_NAVIGATION

    @property
    def placed_screws(self) -> tuple:
        """One ScrewRecord per confirmed placement; a placement without a
        scope gets the screw id "<level>#<n>", n counting placements from 1."""
        placements = (e for e in self.events if e.kind is EventKind.CONFIRM_PLACEMENT)
        return tuple(ScrewRecord(e.level, e.scope or f"{e.level}#{n}", e.achieved)
                     for n, e in enumerate(placements, 1))

    @property
    def acquisition_log(self) -> tuple:
        """One AcquisitionEntry per view of each imaging event."""
        return tuple(AcquisitionEntry(e.scope or "session", _IMAGING_PURPOSE[e.kind], view)
                     for e in self.events if e.kind in _IMAGING_PURPOSE
                     for view in e.views)


def new_session(mode: Mode, modality: Modality,
                registration_threshold_mm: float = 2.0) -> SessionState:
    return SessionState(mode=mode, modality=modality,
                        registration_threshold_mm=registration_threshold_mm)


# -- transition machinery ------------------------------------------------------

_SHARED_EDGES = {
    (Phase.PRE_OP_IMAGING, EventKind.ACQUIRE_PREOP_CT): Phase.PATIENT_INPUT,
    (Phase.PATIENT_INPUT, EventKind.SUBMIT_PATIENT_DATA): Phase.PLANNING,
    (Phase.PLANNING, EventKind.APPROVE_PLAN): Phase.PLANNING,
    (Phase.PLANNING, EventKind.FINISH_PLANNING): Phase.OT_PREPARATION,
    (Phase.OT_PREPARATION, EventKind.PREPARE_OT): Phase.INSTRUMENT_CALIBRATION,
    (Phase.INSTRUMENT_CALIBRATION, EventKind.CALIBRATE_INSTRUMENTS): Phase.DRB_ATTACHMENT,
    (Phase.CARM_MOUNTING, EventKind.MOUNT_CARM): Phase.INTRA_OP_IMAGING,
    (Phase.INTRA_OP_IMAGING, EventKind.ACQUIRE_REGISTRATION_IMAGES): Phase.INTRA_OP_IMAGING,
    (Phase.INTRA_OP_IMAGING, EventKind.BEGIN_REGISTRATION): Phase.PATIENT_REGISTRATION,
    (Phase.PATIENT_REGISTRATION, EventKind.SUBMIT_REGISTRATION):
        Phase.REGISTRATION_VERIFICATION,
    (Phase.REGISTRATION_VERIFICATION, EventKind.BEGIN_NAVIGATION): Phase.NAVIGATION,
    (Phase.REGISTRATION_VERIFICATION, EventKind.RE_REGISTER): Phase.PATIENT_REGISTRATION,
    (Phase.SCREW_PLACEMENT, EventKind.CONFIRM_PLACEMENT): Phase.VERIFICATION_IMAGING,
    (Phase.VERIFICATION_IMAGING, EventKind.ACQUIRE_VERIFICATION_IMAGES):
        Phase.VERIFICATION_IMAGING,
    (Phase.VERIFICATION_IMAGING, EventKind.NEXT_SCREW): Phase.NAVIGATION,
    (Phase.VERIFICATION_IMAGING, EventKind.COMPLETE_SESSION): Phase.COMPLETE,
}

# Every edge of the workflow, per mode: (phase, event kind) -> next phase.
# Each kind labels one edge per mode, so its guard can key on the kind alone.
TRANSITIONS = {
    Mode.NAVIGATION_ONLY: {
        **_SHARED_EDGES,
        (Phase.DRB_ATTACHMENT, EventKind.ATTACH_DRB): Phase.CARM_MOUNTING,
        (Phase.NAVIGATION, EventKind.BEGIN_PLACEMENT): Phase.SCREW_PLACEMENT,
    },
    Mode.ROBOT_ASSISTED: {
        **_SHARED_EDGES,
        (Phase.DRB_ATTACHMENT, EventKind.ATTACH_DRB): Phase.ROBOT_CART_POSITIONING,
        (Phase.ROBOT_CART_POSITIONING, EventKind.POSITION_ROBOT_CART): Phase.CARM_MOUNTING,
        (Phase.NAVIGATION, EventKind.POSITION_ROBOT): Phase.ROBOT_POSITIONING,
        (Phase.ROBOT_POSITIONING, EventKind.BEGIN_PLACEMENT): Phase.SCREW_PLACEMENT,
    },
}


def _guard(session: SessionState, event: Event) -> None:
    """Raise GuardFailed if the event's edge has a guard that rejects it."""
    kind = event.kind
    if kind is EventKind.APPROVE_PLAN:
        if event.plan is None or event.validation is None:
            raise GuardFailed("plan approval needs the plan and its validation")
        if not event.validation.accepted:
            raise GuardFailed(
                f"plan for {event.plan.level} failed validation "
                f"(breach {event.validation.breach_mm:.2f} mm)")
    if kind is EventKind.FINISH_PLANNING and not session.validated_plans:
        raise GuardFailed("at least one validated plan is required")
    if kind is EventKind.SUBMIT_REGISTRATION and event.registration is None:
        raise GuardFailed("registration result payload required")
    if kind is EventKind.BEGIN_NAVIGATION:
        if session.last_registration is None:
            raise GuardFailed("no registration submitted")
        decision = verify_registration(session.last_registration,
                                       session.registration_threshold_mm)
        if not decision.accepted:
            raise GuardFailed(decision.reason)
    if kind is EventKind.POSITION_ROBOT and (
            event.trajectory is None or not event.trajectory.collision_checked):
        raise GuardFailed("robot positioning needs a collision-checked trajectory")
    if kind is EventKind.BEGIN_PLACEMENT and (
            event.level is None or event.level not in session.validated_levels()):
        raise GuardFailed(f"no validated plan for level {event.level!r}")
    if kind is EventKind.CONFIRM_PLACEMENT and event.level is None:
        raise GuardFailed("confirm_placement needs the screw level")


def advance(session: SessionState, event: Event) -> SessionState:
    """Apply one event. Raises IllegalTransition when TRANSITIONS has no edge
    for it from the current phase (in the session's mode) and GuardFailed
    when the edge exists but its guard rejects the payload."""
    phase = TRANSITIONS[session.mode].get((session.phase, event.kind))
    if phase is None:
        raise IllegalTransition(session.phase.value, event.kind.value)
    _guard(session, event)
    return SessionState(session.mode, session.modality, phase,
                        session.registration_threshold_mm, session.events + (event,))


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


def radiation_report(log, screws) -> RadiationReport:
    """Per-screw image counts and their mean, from a log of AcquisitionEntry
    (a session's acquisition_log).

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
    for e in log:
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


def _names(names, what: str) -> frozenset:
    """A collection of names; a bare string would read as its characters."""
    if isinstance(names, str):
        raise BadInput(f"{what} must be a collection of names, not the string {names!r}")
    return frozenset(names)


class ModuleHandle:
    """Subscription handle; delivered messages accumulate in order."""

    def __init__(self, name: str, layer: str, topics):
        self.name = name
        self.layer = layer
        self.topics = _names(topics, "topics_subscribed")
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
        layers = _names(publish_layers, "publish_layers")
        if not layers <= set(LAYERS):
            raise BadInput(f"publish_layers must be among {LAYERS}, got {sorted(layers)}")
        with self._lock:
            self._topic_layers[topic] = layers

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


# Each payload field of an Event and the type that reads and writes its wire form.
_PAYLOADS = {"plan": ScrewPlan, "validation": PlanValidation,
             "registration": RegistrationResult, "trajectory": Trajectory,
             "achieved": ScrewPlan}


def _event_to_dict(e: Event) -> dict:
    d = {"kind": e.kind.value, "scope": e.scope, "views": list(e.views) or None,
         "level": e.level,
         **{name: value.to_dict() for name in _PAYLOADS
            if (value := getattr(e, name)) is not None}}
    return {key: value for key, value in d.items() if value is not None}


def _event_from_dict(d: dict) -> Event:
    """Inverse of _event_to_dict; keys it does not write are ignored. Raises
    BadInput, KeyError, TypeError or ValueError for a malformed event: a flag
    that is not a JSON boolean, views that are not a list of strings, or a
    scope or level that is not a string."""
    if not isinstance(d, dict):
        raise BadInput(f"an event must be a JSON object, got {d!r}")
    views = d.get("views", [])
    if not isinstance(views, list):  # Event checks each view is a string
        raise BadInput(f"views must be a list of strings, got {views!r}")
    return Event(EventKind(d["kind"]), d.get("scope"), tuple(views), d.get("level"),
                 **{name: cls.from_dict(d[name]) for name, cls in _PAYLOADS.items()
                    if name in d})


def save_session(session: SessionState, path) -> None:
    """The header line (keys mode, modality, registration_threshold_mm,
    schema_version, in that order), then one event per line with its keys
    sorted: the event log is the persisted form, no derived state."""
    header = {"mode": session.mode.value, "modality": session.modality.value,
              "registration_threshold_mm": session.registration_threshold_mm,
              "schema_version": SCHEMA_VERSION}
    lines = [json.dumps(header)] + [json.dumps(_event_to_dict(e), sort_keys=True)
                                    for e in session.events]
    atomic_write(path, "\n".join(lines) + "\n")


def load_session(path) -> SessionState:
    """Read a save_session file and replay its event log from new_session
    through advance. Raises IOFailure if the file cannot be read, and
    SchemaVersionMismatch if it is empty, holds a non-JSON line, has an
    unknown schema or a header with a missing, extra or malformed key, or
    holds a malformed event; errors from advance (an illegal or guarded
    transition) propagate unchanged."""
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
    if not isinstance(header, dict):
        raise SchemaVersionMismatch("malformed session header: not a header line")
    if header.get("schema_version") != SCHEMA_VERSION:
        raise SchemaVersionMismatch(
            f"expected schema {SCHEMA_VERSION}, found {header.get('schema_version')!r}")
    if set(header) != {"mode", "modality", "registration_threshold_mm", "schema_version"}:
        raise SchemaVersionMismatch(f"malformed session header: keys {sorted(header)}")
    threshold = header["registration_threshold_mm"]
    if isinstance(threshold, bool) or not isinstance(threshold, (int, float)):
        raise SchemaVersionMismatch("malformed session header: threshold")
    try:
        session = new_session(Mode(header["mode"]), Modality(header["modality"]), threshold)
    except (TypeError, ValueError) as err:
        raise SchemaVersionMismatch(f"malformed session header: {err!r}") from err
    for i, record in enumerate(events):
        try:
            event = _event_from_dict(record)
        except (KeyError, TypeError, ValueError) as err:
            raise SchemaVersionMismatch(
                f"malformed event {i + 1} (line {i + 2} of a saved session): "
                f"{err!r}") from err
        session = advance(session, event)
    return session
