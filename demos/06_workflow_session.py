"""Driving a guarded surgical workflow session.

The session state machine enforces the clinical ordering: navigation is
unreachable until a registration passes verification, screw placement needs
a validated plan, and robot positioning needs a collision-checked
trajectory. C-arm exposures are tallied as the session runs.
"""

import numpy as np

from spinenav import Event, EventKind as K, Modality, Mode, RigidTransform, ScrewPlan, advance, new_session, radiation_report
from spinenav.errors import GuardFailed
from spinenav.planning import PlanValidation
from spinenav.registration import RegistrationResult

session = new_session(Mode.NAVIGATION_ONLY, Modality.INTRAOP_2D_AUTO_FIDUCIAL)
plan = ScrewPlan("L3-left", (0.0, 0.0, 0.0), (0.0, 0.0, 1.0), 5.0, 40.0)

session = advance(session, Event(K.ACQUIRE_PREOP_CT))
session = advance(session, Event(K.SUBMIT_PATIENT_DATA))
session = advance(session, Event(K.APPROVE_PLAN, plan=plan,
                                 validation=PlanValidation(True, 0.0, 1.0)))
session = advance(session, Event(K.FINISH_PLANNING))
session = advance(session, Event(K.PREPARE_OT))
session = advance(session, Event(K.CALIBRATE_INSTRUMENTS))
session = advance(session, Event(K.ATTACH_DRB))
session = advance(session, Event(K.MOUNT_CARM))
session = advance(session, Event(K.ACQUIRE_REGISTRATION_IMAGES, scope="L3",
                                 views=("AP", "LP")))
session = advance(session, Event(K.BEGIN_REGISTRATION))

# first registration comes back poor: the guard refuses navigation and the
# team loops back to re-register
bad = RegistrationResult(RigidTransform.identity(), 2.6, (2.6,) * 4, 4)
session = advance(session, Event(K.SUBMIT_REGISTRATION, registration=bad))
try:
    advance(session, Event(K.BEGIN_NAVIGATION))
except GuardFailed as e:
    print("guard refused navigation:", e)
session = advance(session, Event(K.RE_REGISTER))

good = RegistrationResult(RigidTransform.identity(), 0.8, (0.8,) * 4, 4)
session = advance(session, Event(K.SUBMIT_REGISTRATION, registration=good))
session = advance(session, Event(K.BEGIN_NAVIGATION))
print("phase after accepted registration:", session.phase.value)

for side in ("left", "right"):
    if session.phase.value == "VerificationImaging":
        session = advance(session, Event(K.NEXT_SCREW))
    screw_id = f"L3-{side}"
    session = advance(session, Event(K.BEGIN_PLACEMENT, level="L3-left"))
    session = advance(session, Event(K.CONFIRM_PLACEMENT, level="L3-left",
                                     scope=screw_id))
    session = advance(session, Event(K.ACQUIRE_VERIFICATION_IMAGES,
                                     scope=screw_id, views=("AP", "LP")))
session = advance(session, Event(K.COMPLETE_SESSION))
print("final phase:", session.phase.value)

report = radiation_report(session.acquisition_log, session.placed_screws)
print(f"\nC-arm exposures: {len(session.acquisition_log)} total, "
      f"{report.mean_per_screw:.1f} per screw")
print(report.to_csv())
