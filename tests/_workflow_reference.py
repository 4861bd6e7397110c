"""Reference form of workflow.advance that stores every session fact.

Before the facts were read from the event log, a session stored them as
fields beside it, and advance updated each field from the event that sets
it. That field-updating advance is kept here, with its guards, so the oracle
tests can require the derived properties of spinenav.workflow.SessionState
to equal the stored fields after every step.
"""

from dataclasses import dataclass, replace

from spinenav.errors import GuardFailed, IllegalTransition
from spinenav.registration import RegistrationResult, verify_registration
from spinenav.workflow import (
    TRANSITIONS,
    AcquisitionEntry,
    Event,
    EventKind,
    Modality,
    Mode,
    Phase,
    Purpose,
    ScrewRecord,
)


@dataclass(frozen=True)
class StoredState:
    mode: Mode
    modality: Modality
    phase: Phase = Phase.PRE_OP_IMAGING
    registration_threshold_mm: float = 2.0
    validated_plans: tuple = ()
    last_registration: RegistrationResult | None = None
    registration_accepted: bool = False
    placed_screws: tuple = ()
    acquisition_log: tuple = ()
    events: tuple = ()

    def validated_levels(self) -> set:
        return {p.level for p in self.validated_plans}


_IMAGING_PURPOSE = {EventKind.ACQUIRE_REGISTRATION_IMAGES: Purpose.REGISTRATION,
                    EventKind.ACQUIRE_VERIFICATION_IMAGES: Purpose.VERIFICATION}


def _guarded_changes(session: StoredState, event: Event) -> dict:
    """Run the guard of the event's edge, if it has one, and return the
    session fields the event sets besides phase and events."""
    kind = event.kind
    if kind is EventKind.APPROVE_PLAN:
        if event.plan is None or event.validation is None:
            raise GuardFailed("plan approval needs the plan and its validation")
        if not event.validation.accepted:
            raise GuardFailed(
                f"plan for {event.plan.level} failed validation "
                f"(breach {event.validation.breach_mm:.2f} mm)")
        return {"validated_plans": session.validated_plans + (event.plan,)}
    if kind is EventKind.FINISH_PLANNING and not session.validated_plans:
        raise GuardFailed("at least one validated plan is required")
    if kind in _IMAGING_PURPOSE:
        return {"acquisition_log": session.acquisition_log + tuple(
            AcquisitionEntry(event.scope or "session", _IMAGING_PURPOSE[kind], view)
            for view in event.views)}
    if kind is EventKind.SUBMIT_REGISTRATION:
        if event.registration is None:
            raise GuardFailed("registration result payload required")
        return {"last_registration": event.registration, "registration_accepted": False}
    if kind is EventKind.BEGIN_NAVIGATION:
        if session.last_registration is None:
            raise GuardFailed("no registration submitted")
        decision = verify_registration(session.last_registration,
                                       session.registration_threshold_mm)
        if not decision.accepted:
            raise GuardFailed(decision.reason)
        return {"registration_accepted": True}
    if kind is EventKind.RE_REGISTER:
        return {"last_registration": None, "registration_accepted": False}
    if kind is EventKind.POSITION_ROBOT and (
            event.trajectory is None or not event.trajectory.collision_checked):
        raise GuardFailed("robot positioning needs a collision-checked trajectory")
    if kind is EventKind.BEGIN_PLACEMENT and (
            event.level is None or event.level not in session.validated_levels()):
        raise GuardFailed(f"no validated plan for level {event.level!r}")
    if kind is EventKind.CONFIRM_PLACEMENT:
        if event.level is None:
            raise GuardFailed("confirm_placement needs the screw level")
        screw_id = event.scope or f"{event.level}#{len(session.placed_screws) + 1}"
        return {"placed_screws": session.placed_screws
                + (ScrewRecord(event.level, screw_id, event.achieved),)}
    return {}


def reference_advance(session: StoredState, event: Event) -> StoredState:
    phase = TRANSITIONS[session.mode].get((session.phase, event.kind))
    if phase is None:
        raise IllegalTransition(session.phase.value, event.kind.value)
    return replace(session, phase=phase, events=session.events + (event,),
                   **_guarded_changes(session, event))
