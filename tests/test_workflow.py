import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _workflow_reference import StoredState, reference_advance
from spinenav.errors import (
    BadInput,
    DuplicateName,
    GuardFailed,
    IllegalTransition,
    IOFailure,
    LayerViolation,
    SchemaVersionMismatch,
)
from spinenav.geom import RigidTransform
from spinenav.kinematics import Trajectory
from spinenav.planning import PlanValidation, ScrewPlan
from spinenav.registration import RegistrationResult
from spinenav.workflow import (
    AcquisitionEntry,
    Event,
    EventKind as K,
    Modality,
    Mode,
    ModuleRegistry,
    Phase,
    Purpose,
    SessionState,
    TRANSITIONS,
    advance,
    load_session,
    new_session,
    radiation_report,
    save_session,
)


def _reg_result(fre):
    return RegistrationResult(RigidTransform.identity(), fre,
                              (fre, fre, fre, fre), 4)


def _plan(level="L1"):
    return ScrewPlan(level, [0.0, 0.0, 0.0], [0.0, 0.0, 1.0], 5.0, 40.0)


GOOD_VALIDATION = PlanValidation(True, 0.0, 1.0)
BAD_VALIDATION = PlanValidation(False, 1.2, -1.2)
GOOD_REG = _reg_result(0.5)
BAD_REG = _reg_result(2.5)
CHECKED_TRAJ = Trajectory([0.0, 1.0], [np.zeros(6), np.full(6, 0.04)],
                          collision_checked=True)
UNCHECKED_TRAJ = Trajectory([0.0, 1.0], [np.zeros(6), np.full(6, 0.04)],
                            collision_checked=False)


def _drive_to_verification_imaging(mode=Mode.NAVIGATION_ONLY, levels=("L1",),
                                   screws_per_level=2):
    """Happy path through one screw placement; returns the session just
    after the first verification images."""
    s = new_session(mode, Modality.INTRAOP_2D_AUTO_FIDUCIAL)
    s = advance(s, Event(K.ACQUIRE_PREOP_CT))
    s = advance(s, Event(K.SUBMIT_PATIENT_DATA))
    for lv in levels:
        for side in range(screws_per_level):
            s = advance(s, Event(K.APPROVE_PLAN, plan=_plan(lv),
                                 validation=GOOD_VALIDATION))
    s = advance(s, Event(K.FINISH_PLANNING))
    s = advance(s, Event(K.PREPARE_OT))
    s = advance(s, Event(K.CALIBRATE_INSTRUMENTS))
    s = advance(s, Event(K.ATTACH_DRB))
    if mode is Mode.ROBOT_ASSISTED:
        s = advance(s, Event(K.POSITION_ROBOT_CART))
    s = advance(s, Event(K.MOUNT_CARM))
    for lv in levels:
        s = advance(s, Event(K.ACQUIRE_REGISTRATION_IMAGES, scope=lv,
                             views=("AP", "LP")))
    s = advance(s, Event(K.BEGIN_REGISTRATION))
    s = advance(s, Event(K.SUBMIT_REGISTRATION, registration=GOOD_REG))
    s = advance(s, Event(K.BEGIN_NAVIGATION))
    if mode is Mode.ROBOT_ASSISTED:
        s = advance(s, Event(K.POSITION_ROBOT, trajectory=CHECKED_TRAJ))
    s = advance(s, Event(K.BEGIN_PLACEMENT, level=levels[0]))
    s = advance(s, Event(K.CONFIRM_PLACEMENT, level=levels[0],
                         scope=f"{levels[0]}-1"))
    s = advance(s, Event(K.ACQUIRE_VERIFICATION_IMAGES, scope=f"{levels[0]}-1",
                         views=("AP", "LP")))
    return s


def _run_full_session(mode, levels, screws_per_level=2):
    s = _drive_to_verification_imaging(mode, levels, screws_per_level)
    placed = 1
    total = len(levels) * screws_per_level
    order = [(lv, i) for lv in levels for i in range(screws_per_level)][1:]
    for lv, i in order:
        s = advance(s, Event(K.NEXT_SCREW))
        if mode is Mode.ROBOT_ASSISTED:
            s = advance(s, Event(K.POSITION_ROBOT, trajectory=CHECKED_TRAJ))
        s = advance(s, Event(K.BEGIN_PLACEMENT, level=lv))
        s = advance(s, Event(K.CONFIRM_PLACEMENT, level=lv, scope=f"{lv}-{i + 1}"))
        s = advance(s, Event(K.ACQUIRE_VERIFICATION_IMAGES, scope=f"{lv}-{i + 1}",
                             views=("AP", "LP")))
        placed += 1
    assert placed == total
    return advance(s, Event(K.COMPLETE_SESSION))


# -- happy paths and guards ------------------------------------------------------


def test_full_happy_path_navigation_only():
    s = _run_full_session(Mode.NAVIGATION_ONLY, ("L1",))
    assert s.phase is Phase.COMPLETE
    assert len(s.placed_screws) == 2
    assert s.registration_accepted


def test_full_happy_path_robot_assisted():
    s = _run_full_session(Mode.ROBOT_ASSISTED, ("L1", "L2"))
    assert s.phase is Phase.COMPLETE
    assert len(s.placed_screws) == 4


def test_navigation_blocked_without_accepted_registration():
    s = new_session(Mode.NAVIGATION_ONLY, Modality.PREOP_CT_POINT_BASED)
    s = advance(s, Event(K.ACQUIRE_PREOP_CT))
    s = advance(s, Event(K.SUBMIT_PATIENT_DATA))
    s = advance(s, Event(K.APPROVE_PLAN, plan=_plan(), validation=GOOD_VALIDATION))
    s = advance(s, Event(K.FINISH_PLANNING))
    s = advance(s, Event(K.PREPARE_OT))
    s = advance(s, Event(K.CALIBRATE_INSTRUMENTS))
    s = advance(s, Event(K.ATTACH_DRB))
    s = advance(s, Event(K.MOUNT_CARM))
    s = advance(s, Event(K.BEGIN_REGISTRATION))
    s = advance(s, Event(K.SUBMIT_REGISTRATION, registration=BAD_REG))
    with pytest.raises(GuardFailed):
        advance(s, Event(K.BEGIN_NAVIGATION))


def test_navigation_blocked_by_unconverged_registration():
    unconverged = RegistrationResult(RigidTransform.identity(), 0.5,
                                     (0.5, 0.5, 0.5, 0.5), 4, converged=False)
    s = new_session(Mode.NAVIGATION_ONLY, Modality.PREOP_CT_POINT_BASED)
    for ev in [Event(K.ACQUIRE_PREOP_CT), Event(K.SUBMIT_PATIENT_DATA),
               Event(K.APPROVE_PLAN, plan=_plan(), validation=GOOD_VALIDATION),
               Event(K.FINISH_PLANNING), Event(K.PREPARE_OT),
               Event(K.CALIBRATE_INSTRUMENTS), Event(K.ATTACH_DRB),
               Event(K.MOUNT_CARM), Event(K.BEGIN_REGISTRATION),
               Event(K.SUBMIT_REGISTRATION, registration=unconverged)]:
        s = advance(s, ev)
    with pytest.raises(GuardFailed, match="converge"):
        advance(s, Event(K.BEGIN_NAVIGATION))


def test_rejected_registration_loops_back():
    s = new_session(Mode.NAVIGATION_ONLY, Modality.INTRAOP_2D_AUTO_FIDUCIAL)
    for ev in [Event(K.ACQUIRE_PREOP_CT), Event(K.SUBMIT_PATIENT_DATA),
               Event(K.APPROVE_PLAN, plan=_plan(), validation=GOOD_VALIDATION),
               Event(K.FINISH_PLANNING), Event(K.PREPARE_OT),
               Event(K.CALIBRATE_INSTRUMENTS), Event(K.ATTACH_DRB),
               Event(K.MOUNT_CARM), Event(K.BEGIN_REGISTRATION),
               Event(K.SUBMIT_REGISTRATION, registration=BAD_REG)]:
        s = advance(s, ev)
    assert s.phase is Phase.REGISTRATION_VERIFICATION
    s = advance(s, Event(K.RE_REGISTER))
    assert s.phase is Phase.PATIENT_REGISTRATION
    assert s.last_registration is None
    # second attempt with a good registration proceeds
    s = advance(s, Event(K.SUBMIT_REGISTRATION, registration=GOOD_REG))
    s = advance(s, Event(K.BEGIN_NAVIGATION))
    assert s.phase is Phase.NAVIGATION


def test_plan_approval_guard():
    s = new_session(Mode.NAVIGATION_ONLY, Modality.PREOP_CT_POINT_BASED)
    s = advance(s, Event(K.ACQUIRE_PREOP_CT))
    s = advance(s, Event(K.SUBMIT_PATIENT_DATA))
    with pytest.raises(GuardFailed):
        advance(s, Event(K.APPROVE_PLAN, plan=_plan(), validation=BAD_VALIDATION))
    with pytest.raises(GuardFailed):
        advance(s, Event(K.FINISH_PLANNING))  # nothing validated yet


def test_placement_requires_validated_level():
    s = _drive_to_verification_imaging()
    s = advance(s, Event(K.NEXT_SCREW))
    with pytest.raises(GuardFailed):
        advance(s, Event(K.BEGIN_PLACEMENT, level="L9"))


def test_robot_positioning_requires_checked_trajectory():
    s = _drive_to_verification_imaging(Mode.ROBOT_ASSISTED)
    s = advance(s, Event(K.NEXT_SCREW))
    with pytest.raises(GuardFailed):
        advance(s, Event(K.POSITION_ROBOT, trajectory=UNCHECKED_TRAJ))


def test_robot_events_illegal_in_navigation_mode():
    s = new_session(Mode.NAVIGATION_ONLY, Modality.PREOP_CT_POINT_BASED)
    s = advance(s, Event(K.ACQUIRE_PREOP_CT))
    with pytest.raises(IllegalTransition):
        advance(s, Event(K.POSITION_ROBOT_CART))


def test_illegal_event_reports_phase_and_kind():
    s = new_session(Mode.NAVIGATION_ONLY, Modality.PREOP_CT_POINT_BASED)
    with pytest.raises(IllegalTransition) as err:
        advance(s, Event(K.COMPLETE_SESSION))
    assert err.value.phase == "PreOpImaging"


# -- exhaustive reachability model check ---------------------------------------------


ALPHABET = [
    Event(K.ACQUIRE_PREOP_CT),
    Event(K.SUBMIT_PATIENT_DATA),
    Event(K.APPROVE_PLAN, plan=_plan("L1"), validation=GOOD_VALIDATION),
    Event(K.APPROVE_PLAN, plan=_plan("L1"), validation=BAD_VALIDATION),
    Event(K.FINISH_PLANNING),
    Event(K.PREPARE_OT),
    Event(K.CALIBRATE_INSTRUMENTS),
    Event(K.ATTACH_DRB),
    Event(K.POSITION_ROBOT_CART),
    Event(K.MOUNT_CARM),
    Event(K.ACQUIRE_REGISTRATION_IMAGES, scope="L1", views=("AP", "LP")),
    Event(K.BEGIN_REGISTRATION),
    Event(K.SUBMIT_REGISTRATION, registration=GOOD_REG),
    Event(K.SUBMIT_REGISTRATION, registration=BAD_REG),
    Event(K.BEGIN_NAVIGATION),
    Event(K.RE_REGISTER),
    Event(K.POSITION_ROBOT, trajectory=CHECKED_TRAJ),
    Event(K.POSITION_ROBOT, trajectory=UNCHECKED_TRAJ),
    Event(K.BEGIN_PLACEMENT, level="L1"),
    Event(K.BEGIN_PLACEMENT, level="L9"),
    Event(K.CONFIRM_PLACEMENT, level="L1"),
    Event(K.ACQUIRE_VERIFICATION_IMAGES, scope="L1-1", views=("AP", "LP")),
    Event(K.NEXT_SCREW),
    Event(K.COMPLETE_SESSION),
]

ROBOT_PHASES = {Phase.ROBOT_CART_POSITIONING, Phase.ROBOT_POSITIONING}
GUARDED = {Phase.NAVIGATION, Phase.SCREW_PLACEMENT, Phase.ROBOT_POSITIONING}


def _abstract(s: SessionState):
    """Transition legality depends only on these features, so states sharing
    a key behave identically (sound quotient for reachability)."""
    reg = "none"
    if s.last_registration is not None:
        reg = "good" if s.last_registration.fre_rms <= s.registration_threshold_mm \
            else "bad"
    return (s.phase, bool(s.validated_plans), "L1" in s.validated_levels(),
            reg, s.registration_accepted)


@pytest.mark.parametrize("mode", [Mode.NAVIGATION_ONLY, Mode.ROBOT_ASSISTED])
def test_model_check_guards_hold_on_all_reachable_paths(mode):
    # breadth-first closure over the abstract quotient covers every event
    # string (of any length, hence all of length <= 25); every transition
    # into a guarded phase is checked for its guard
    init = new_session(mode, Modality.INTRAOP_2D_AUTO_FIDUCIAL)
    frontier = [init]
    seen = {_abstract(init)}
    transitions = 0
    edges = set()
    while frontier:
        state = frontier.pop()
        for ev in ALPHABET:
            try:
                new = advance(state, ev)
            except (GuardFailed, IllegalTransition):
                continue
            transitions += 1
            edges.add((state.phase, ev.kind))
            if new.phase in ROBOT_PHASES:
                assert mode is Mode.ROBOT_ASSISTED
            if new.phase is Phase.NAVIGATION and state.phase is not Phase.NAVIGATION:
                if state.phase is Phase.REGISTRATION_VERIFICATION:
                    assert new.registration_accepted
                    assert new.last_registration.fre_rms <= new.registration_threshold_mm
                else:  # returning from verification imaging keeps acceptance
                    assert new.registration_accepted
            if new.phase is Phase.SCREW_PLACEMENT:
                assert ev.level in state.validated_levels()
            if new.phase is Phase.ROBOT_POSITIONING and ev.kind is K.POSITION_ROBOT:
                assert ev.trajectory.collision_checked
            key = _abstract(new)
            if key not in seen:
                seen.add(key)
                frontier.append(new)
    assert transitions > 0
    if mode is Mode.NAVIGATION_ONLY:
        assert not any(k[0] in ROBOT_PHASES for k in seen)
    # every edge of the table is taken on some reachable path: none is dead
    assert edges == set(TRANSITIONS[mode])


@pytest.mark.parametrize("mode", [Mode.NAVIGATION_ONLY, Mode.ROBOT_ASSISTED])
def test_every_pair_outside_the_table_is_illegal(mode):
    # the edge is looked up before any guard runs, so a missing edge is an
    # IllegalTransition naming the pair even for an event without a payload
    off_table = [(phase, kind) for phase in Phase for kind in K
                 if (phase, kind) not in TRANSITIONS[mode]]
    for phase, kind in off_table:
        s = SessionState(mode=mode, modality=Modality.PREOP_CT_POINT_BASED, phase=phase)
        with pytest.raises(IllegalTransition) as err:
            advance(s, Event(kind))
        assert (err.value.phase, err.value.event_kind) == (phase.value, kind.value)


# -- radiation accounting --------------------------------------------------------


def test_default_policy_two_screws_one_level():
    s = _run_full_session(Mode.NAVIGATION_ONLY, ("L1",))
    report = radiation_report(s.acquisition_log, s.placed_screws)
    assert report.mean_per_screw == pytest.approx(3.0)
    for row in report.rows:
        assert row.registration_images == pytest.approx(1.0)
        assert row.verification_images == pytest.approx(2.0)
        assert row.total == pytest.approx(3.0)


@pytest.mark.parametrize("n_levels", [1, 3, 5])
def test_default_policy_mean_is_three_for_any_level_count(n_levels):
    levels = tuple(f"L{i + 1}" for i in range(n_levels))
    s = _run_full_session(Mode.NAVIGATION_ONLY, levels)
    report = radiation_report(s.acquisition_log, s.placed_screws)
    assert len(report.rows) == 2 * n_levels
    assert report.mean_per_screw == pytest.approx(3.0)


def test_radiation_empty_screw_list():
    report = radiation_report((), [])
    assert report.rows == ()
    assert report.mean_per_screw is None


def test_radiation_session_scope_split():
    log = ()
    for view in ("AP", "LP"):
        log = log + (AcquisitionEntry("session", Purpose.REGISTRATION, view),)
    from spinenav.workflow import ScrewRecord
    screws = [ScrewRecord("L1", "L1-1"), ScrewRecord("L1", "L1-2"),
              ScrewRecord("L2", "L2-1"), ScrewRecord("L2", "L2-2")]
    report = radiation_report(log, screws)
    for row in report.rows:
        assert row.registration_images == pytest.approx(0.5)


@st.composite
def _screws_and_log(draw):
    """Screws on plain and pedicle-side levels, and a log whose scopes are
    screw ids, levels (a plain level also covers its side levels), the
    session, or names that match nothing (counted session-wide)."""
    from spinenav.workflow import ScrewRecord
    levels = draw(st.lists(st.sampled_from(
        ["L1", "L1-left", "L1-right", "L2", "L2-left", "L3-right"]),
        min_size=1, max_size=8))
    screws = [ScrewRecord(lv, f"{lv}#{i + 1}") for i, lv in enumerate(levels)]
    scopes = ([s.screw_id for s in screws] + sorted(set(levels))
              + ["L1", "L2", "L3", "session", "elsewhere"])
    entries = draw(st.lists(st.builds(
        AcquisitionEntry, st.sampled_from(scopes), st.sampled_from(list(Purpose)),
        st.sampled_from(["AP", "LP"])), max_size=40))
    return screws, tuple(entries)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_screws_and_log())
def test_radiation_shares_sum_to_the_log(screws_and_log):
    # every entry is split in equal shares over the screws it covers, so
    # the per-screw counts sum to the entry counts and the mean is their
    # total over the screw count
    screws, log = screws_and_log
    report = radiation_report(log, screws)
    n_ver = sum(e.purpose is Purpose.VERIFICATION for e in log)
    n_reg = len(log) - n_ver
    assert [r.screw_id for r in report.rows] == [s.screw_id for s in screws]
    assert sum(r.registration_images for r in report.rows) == pytest.approx(n_reg)
    assert sum(r.verification_images for r in report.rows) == pytest.approx(n_ver)
    assert report.mean_per_screw == pytest.approx(len(log) / len(screws))


def test_acquisition_counts_replayable_from_trace(tmp_path):
    s = _run_full_session(Mode.NAVIGATION_ONLY, ("L1", "L2"))
    trace = tmp_path / "events.jsonl"
    save_session(s, trace)
    replayed = load_session(trace)
    assert replayed.acquisition_log == s.acquisition_log
    assert radiation_report(replayed.acquisition_log, replayed.placed_screws) \
        == radiation_report(s.acquisition_log, s.placed_screws)


# -- bus -----------------------------------------------------------------------


def test_bus_shared_topic_same_sequence():
    reg = ModuleRegistry()
    a = reg.register_module("nav", "Software", topics_subscribed=("pose",))
    b = reg.register_module("ui", "Human", topics_subscribed=("pose",))
    msg = reg.publish("nav", "pose", {"x": 1})
    assert a.inbox == [msg] and b.inbox == [msg]
    assert msg.sequence == 1


def test_bus_duplicate_name():
    reg = ModuleRegistry()
    reg.register_module("nav", "Software")
    with pytest.raises(DuplicateName):
        reg.register_module("nav", "Software")


def test_bus_unsubscribed_receives_nothing():
    reg = ModuleRegistry()
    a = reg.register_module("nav", "Software", topics_subscribed=("pose",))
    b = reg.register_module("log", "Software", topics_subscribed=("other",))
    reg.publish("nav", "pose", None)
    assert b.inbox == []


def test_bus_sequence_strictly_increases_per_topic_order():
    reg = ModuleRegistry()
    a = reg.register_module("nav", "Software", topics_subscribed=("pose", "cmd"))
    for i in range(10):
        reg.publish("nav", "pose" if i % 2 else "cmd", i)
    seqs = [m.sequence for m in a.inbox]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)


def test_bus_publishes_safely_from_many_threads():
    import threading
    reg = ModuleRegistry()
    sub = reg.register_module("sink", "Software", topics_subscribed=("t",))
    for i in range(8):
        reg.register_module(f"src{i}", "Software")

    def worker(name):
        for _ in range(50):
            reg.publish(name, "t", None)

    threads = [threading.Thread(target=worker, args=(f"src{i}",)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    seqs = [m.sequence for m in sub.inbox]
    assert sorted(seqs) == list(range(1, 401))  # every number exactly once
    assert seqs == sorted(seqs)  # delivered in sequence order


def test_bus_rejects_a_string_of_topics():
    # a bare string would subscribe to its characters
    reg = ModuleRegistry()
    with pytest.raises(BadInput, match="topics_subscribed"):
        reg.register_module("a", "Software", "pose")
    assert reg.register_module("a", "Software", ("pose",)).topics == {"pose"}


@pytest.mark.parametrize("layers", ["Hardware", ("Hardware", "Cloud")],
                         ids=["string", "unknown_layer"])
def test_bus_declare_topic_rejects_bad_layers(layers):
    # a bare string would allow only its characters, refusing every publisher
    with pytest.raises(BadInput, match="publish_layers"):
        ModuleRegistry().declare_topic("motor_current", layers)


def test_bus_layer_restriction():
    reg = ModuleRegistry()
    reg.register_module("driver", "Software")
    reg.declare_topic("motor_current", publish_layers=("Hardware", "Firmware"))
    with pytest.raises(LayerViolation):
        reg.publish("driver", "motor_current", 1.0)


# -- persistence ----------------------------------------------------------------


def test_session_round_trip_mid_session(tmp_path):
    s = _drive_to_verification_imaging(Mode.ROBOT_ASSISTED, ("L1", "L2"))
    path = tmp_path / "session.json"
    save_session(s, path)
    back = load_session(path)
    assert back == s
    assert back.phase is s.phase
    assert back.placed_screws == s.placed_screws


def test_session_round_trip_empty(tmp_path):
    s = new_session(Mode.NAVIGATION_ONLY, Modality.PREOP_CT_POINT_BASED)
    path = tmp_path / "empty.json"
    save_session(s, path)
    assert load_session(path) == s


def test_corrupted_session_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(SchemaVersionMismatch):
        load_session(path)
    path.write_text(json.dumps({"schema_version": 99}), encoding="utf-8")
    with pytest.raises(SchemaVersionMismatch):
        load_session(path)


def test_replay_empty_trace_rejected(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text("\n", encoding="utf-8")
    with pytest.raises(SchemaVersionMismatch):
        load_session(path)


def test_replay_malformed_line_rejected(tmp_path):
    s = _run_full_session(Mode.NAVIGATION_ONLY, ("L1",))
    path = tmp_path / "events.jsonl"
    save_session(s, path)
    path.write_text(path.read_text(encoding="utf-8") + "{not json\n", encoding="utf-8")
    with pytest.raises(SchemaVersionMismatch):
        load_session(path)


@pytest.mark.parametrize("line", [
    "{}",
    "[]",
    '{"kind": "nope"}',
    '{"kind": "approve_plan", "plan": {"level": "L1"}}',
    '{"kind": "submit_registration", "registration": {"fre_rms_mm": 1.0}}',
])
def test_replay_malformed_event_rejected(tmp_path, line):
    s = _run_full_session(Mode.NAVIGATION_ONLY, ("L1",))
    path = tmp_path / "events.jsonl"
    save_session(s, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines.insert(2, line)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(SchemaVersionMismatch, match="line 3"):
        load_session(path)


@pytest.mark.parametrize("key, sub, value", [
    ("validation", "accepted", "false"),
    ("trajectory", "collision_checked", "false"),
    ("registration", "converged", "false"),
    ("views", None, "APLP"),
    ("scope", None, ["L1"]),
    ("level", None, 7),
])
def test_load_rejects_a_mistyped_event_field(tmp_path, key, sub, value):
    # a string flag would read as truthy, a string of views would split into
    # one exposure per character: each must fail on load, not pass a guard
    s = _run_full_session(Mode.ROBOT_ASSISTED, ("L1",))
    path = tmp_path / "events.jsonl"
    save_session(s, path)
    assert load_session(path) == s
    header, *events = path.read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in events]
    i = next(k for k, r in enumerate(records) if key in r)
    if sub is None:
        records[i][key] = value
    else:
        records[i][key][sub] = value
    events[i] = json.dumps(records[i], sort_keys=True)
    path.write_text("\n".join([header, *events]) + "\n", encoding="utf-8")
    with pytest.raises(SchemaVersionMismatch, match=f"line {i + 2}"):
        load_session(path)


def test_event_rejects_a_string_of_views():
    # a bare string would log one exposure per character
    with pytest.raises(BadInput, match="views"):
        Event(K.ACQUIRE_REGISTRATION_IMAGES, scope="L1", views="APLP")
    assert Event(K.ACQUIRE_REGISTRATION_IMAGES, scope="L1", views=["AP"]).views == ("AP",)


@pytest.mark.parametrize("kind, name, value", [
    (K.ACQUIRE_REGISTRATION_IMAGES, "scope", ["L1"]),
    (K.BEGIN_PLACEMENT, "level", 7),
], ids=["scope-list", "level-int"])
def test_event_rejects_a_scope_or_level_that_is_not_a_string(kind, name, value):
    # a list scope loaded and replayed, then crashed the radiation report
    with pytest.raises(BadInput, match=name):
        Event(kind, views=("AP",), **{name: value})


@pytest.mark.parametrize("views", [(None, 7), ["AP", 7]], ids=["none-int", "str-int"])
def test_event_rejects_views_that_are_not_strings(views):
    # the load path refuses such views, so a session that logged them could
    # be saved but never loaded again
    with pytest.raises(BadInput, match="views"):
        Event(K.ACQUIRE_REGISTRATION_IMAGES, scope="L1", views=views)


@pytest.mark.parametrize("header", [{"schema_version": 1},
                                    {"schema_version": 1, "mode": "nope"}])
def test_replay_malformed_header_rejected(tmp_path, header):
    path = tmp_path / "events.jsonl"
    path.write_text(json.dumps(header) + "\n", encoding="utf-8")
    with pytest.raises(SchemaVersionMismatch, match="header"):
        load_session(path)


@pytest.mark.parametrize("event, error", [
    ({"kind": "complete_session"}, IllegalTransition),
    ({"kind": "finish_planning"}, GuardFailed),
])
def test_replay_propagates_advance_errors(tmp_path, event, error):
    s = _run_full_session(Mode.NAVIGATION_ONLY, ("L1",))
    path = tmp_path / "events.jsonl"
    save_session(s, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines.insert(3, json.dumps(event))  # after acquire_preop_ct, submit_patient_data
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(error):
        load_session(path)


def test_replay_unreadable_file_is_io_failure(tmp_path):
    with pytest.raises(IOFailure):
        load_session(tmp_path / "missing.jsonl")
    with pytest.raises(IOFailure):
        load_session(tmp_path)  # a directory


def test_failed_save_keeps_old_file_and_leaves_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "out.json"
    path.write_text("old contents", encoding="utf-8")
    s = _run_full_session(Mode.NAVIGATION_ONLY, ("L1",))

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("os.replace", fail)
    with pytest.raises(IOFailure):
        save_session(s, path)
    assert path.read_text(encoding="utf-8") == "old contents"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_saved_session_has_plain_file_permissions(tmp_path):
    plain = tmp_path / "plain.json"
    plain.write_text("{}", encoding="utf-8")
    path = tmp_path / "session.json"
    save_session(new_session(Mode.NAVIGATION_ONLY, Modality.PREOP_CT_POINT_BASED), path)
    assert path.stat().st_mode == plain.stat().st_mode


def test_save_into_missing_directory_is_io_failure(tmp_path):
    s = new_session(Mode.NAVIGATION_ONLY, Modality.PREOP_CT_POINT_BASED)
    with pytest.raises(IOFailure):
        save_session(s, tmp_path / "missing" / "session.json")
    assert not list(tmp_path.iterdir())


def test_new_session_rejects_a_negative_threshold():
    # non-finite thresholds are covered with the other float fields
    with pytest.raises(BadInput, match="registration_threshold_mm"):
        new_session(Mode.NAVIGATION_ONLY, Modality.PREOP_CT_POINT_BASED, -1.0)
    assert new_session(Mode.NAVIGATION_ONLY, Modality.PREOP_CT_POINT_BASED,
                       0.0).registration_threshold_mm == 0.0


def test_load_rejects_an_infinite_threshold(tmp_path):
    # json writes inf as Infinity and reads it back: such a header would
    # accept every registration on replay
    s = _run_full_session(Mode.NAVIGATION_ONLY, ("L1",))
    path = tmp_path / "session.jsonl"
    save_session(s, path)
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace('"registration_threshold_mm": 2.0',
                                 '"registration_threshold_mm": Infinity', 1),
                    encoding="utf-8")
    with pytest.raises(SchemaVersionMismatch, match="header"):
        load_session(path)


def test_schema_version_checked_in_file(tmp_path):
    path = tmp_path / "session.jsonl"
    path.write_text(json.dumps({"schema_version": 0}) + "\n", encoding="utf-8")
    with pytest.raises(SchemaVersionMismatch):
        load_session(path)


# -- the event log is the one persisted form -----------------------------------------


def _old_snapshot(session, path, **edits):
    """The one-line JSON snapshot earlier versions wrote with save_session:
    the header and the events beside the derived state, which was trusted
    on load. The events are those save_session writes to path."""
    save_session(session, path)
    _, *events = path.read_text(encoding="utf-8").splitlines()
    d = {"schema_version": 1, "mode": session.mode.value,
         "modality": session.modality.value, "phase": session.phase.value,
         "registration_threshold_mm": session.registration_threshold_mm,
         "validated_plans": [p.to_dict() for p in session.validated_plans],
         "last_registration": (session.last_registration.to_dict()
                               if session.last_registration else None),
         "registration_accepted": session.registration_accepted,
         "placed_screws": [{"level": r.level, "screw_id": r.screw_id,
                            "achieved": None} for r in session.placed_screws],
         "acquisition_log": [{"scope": e.scope, "purpose": e.purpose.value,
                              "view": e.view, "timestamp": 0.0}
                             for e in session.acquisition_log],
         "events": [json.loads(line) for line in events]}
    d.update(edits)
    return json.dumps(d, sort_keys=True)


def test_load_rejects_header_without_mode_modality_and_threshold(tmp_path):
    path = tmp_path / "session.json"
    path.write_text(json.dumps({"schema_version": 1}), encoding="utf-8")
    with pytest.raises(SchemaVersionMismatch, match="header"):
        load_session(path)


def test_load_replays_guards_instead_of_trusting_a_stored_phase(tmp_path):
    empty = new_session(Mode.NAVIGATION_ONLY, Modality.PREOP_CT_POINT_BASED)
    path = tmp_path / "session.json"
    path.write_text(_old_snapshot(empty, path, phase="Navigation",
                                  registration_accepted=True), encoding="utf-8")
    with pytest.raises(SchemaVersionMismatch):
        load_session(path)
    # the same claim in the event log: BEGIN_NAVIGATION without a
    # registration is refused by the transition table on load
    save_session(empty, path)
    path.write_text(path.read_text(encoding="utf-8")
                    + json.dumps({"kind": "begin_navigation"}) + "\n", encoding="utf-8")
    with pytest.raises(IllegalTransition):
        load_session(path)


def test_replay_rejects_an_old_snapshot_file(tmp_path):
    s = _run_full_session(Mode.ROBOT_ASSISTED, ("L1",))
    path = tmp_path / "session.json"
    path.write_text(_old_snapshot(s, path), encoding="utf-8")
    with pytest.raises(SchemaVersionMismatch, match="header"):
        load_session(path)


def test_load_session_reads_an_event_trace_and_types_a_bad_mode(tmp_path):
    s = _run_full_session(Mode.NAVIGATION_ONLY, ("L1", "L2"))
    trace = tmp_path / "events.jsonl"
    save_session(s, trace)
    back = load_session(trace)
    assert back == s
    assert back.phase is Phase.COMPLETE
    assert back.acquisition_log == s.acquisition_log
    assert back.placed_screws == s.placed_screws
    snapshot = tmp_path / "session.json"
    snapshot.write_text(_old_snapshot(s, snapshot, mode="nope"), encoding="utf-8")
    with pytest.raises(SchemaVersionMismatch):
        load_session(snapshot)
    trace.write_text(trace.read_text(encoding="utf-8").replace(
        '"mode": "NavigationOnly"', '"mode": "nope"', 1), encoding="utf-8")
    with pytest.raises(SchemaVersionMismatch, match="header"):
        load_session(trace)


@pytest.mark.parametrize("header", [
    {"mode": "NavigationOnly", "modality": "PreOpCT_PointBased",
     "registration_threshold_mm": "2.0", "schema_version": 1},
    {"mode": "NavigationOnly", "modality": "PreOpCT_PointBased",
     "registration_threshold_mm": 2.0, "schema_version": 1, "phase": "Complete"},
    {"mode": "NavigationOnly", "modality": "PreOpCT_PointBased",
     "registration_threshold_mm": 2.0, "schema_version": 1, "events": []},
    ["NavigationOnly"],
])
def test_load_rejects_a_malformed_header(tmp_path, header):
    path = tmp_path / "session.jsonl"
    path.write_text(json.dumps(header) + "\n", encoding="utf-8")
    with pytest.raises(SchemaVersionMismatch, match="header"):
        load_session(path)


def test_saved_session_is_the_header_and_the_events(tmp_path):
    s = _drive_to_verification_imaging(Mode.ROBOT_ASSISTED)
    save_session(s, tmp_path / "session.jsonl")
    lines = (tmp_path / "session.jsonl").read_text(encoding="utf-8").splitlines()
    assert list(json.loads(lines[0])) == ["mode", "modality", "registration_threshold_mm",
                                          "schema_version"]
    assert len(lines) - 1 == len(s.events)
    assert load_session(tmp_path / "session.jsonl") == s
    # the file format of existing traces: header keys unsorted, events sorted
    header, first, *_ = lines
    assert header == ('{"mode": "RobotAssisted", "modality": "IntraOp2D_AutoFiducial", '
                      '"registration_threshold_mm": 2.0, "schema_version": 1}')
    assert first == '{"kind": "acquire_preop_ct"}'


def test_a_session_saved_with_the_dropped_keys_loads_equal(tmp_path):
    # earlier versions wrote "timestamp": 0.0 in every event and a trajectory's
    # "planning_mode"; the reader ignores keys it does not use
    s = _run_full_session(Mode.ROBOT_ASSISTED, ("L1", "L2"))
    path = tmp_path / "session.jsonl"
    save_session(s, path)
    header, *events = path.read_text(encoding="utf-8").splitlines()
    records = [{**json.loads(line), "timestamp": 0.0} for line in events]
    trajectories = [r["trajectory"] for r in records if "trajectory" in r]
    assert trajectories
    for t in trajectories:
        t["planning_mode"] = "two_phase"
    path.write_text("\n".join([header] + [json.dumps(r, sort_keys=True) for r in records])
                    + "\n", encoding="utf-8")
    assert load_session(path) == s


_PERSISTED_ALPHABET = ALPHABET + [
    Event(K.SUBMIT_REGISTRATION, registration=RegistrationResult(
        RigidTransform.from_axis_angle((1.0, 2.0, 3.0), 0.3, (10.0, -5.0, 2.5)),
        0.7, (0.7, 0.7, 0.7), 3)),
    Event(K.APPROVE_PLAN, plan=_plan("L2"), validation=GOOD_VALIDATION),
    Event(K.BEGIN_PLACEMENT, level="L2"),
    Event(K.CONFIRM_PLACEMENT, level="L2", achieved=_plan("L2")),
    Event(K.ACQUIRE_VERIFICATION_IMAGES, views=("AP",)),
]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.sampled_from([Mode.NAVIGATION_ONLY, Mode.ROBOT_ASSISTED]),
       st.integers(0, 60), st.data())
def test_saved_session_loads_equal_and_saves_identical_bytes(mode, n_events, data):
    # a legal session cut after n_events: each step draws one of the events
    # that advance accepts from the current state
    s = new_session(mode, Modality.INTRAOP_2D_AUTO_FIDUCIAL, 1.5)
    for _ in range(n_events):
        legal = []
        for ev in _PERSISTED_ALPHABET:
            try:
                legal.append(advance(s, ev))
            except (GuardFailed, IllegalTransition):
                pass
        if not legal:
            break
        s = data.draw(st.sampled_from(legal))
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.jsonl"), Path(tmp, "second.jsonl")
        save_session(s, first)
        back = load_session(first)
        save_session(back, second)
        assert back == s and hash(back) == hash(s)
        assert (back.phase, back.validated_plans, back.last_registration,
                back.registration_accepted, back.placed_screws,
                back.acquisition_log) == (
            s.phase, s.validated_plans, s.last_registration,
            s.registration_accepted, s.placed_screws, s.acquisition_log)
        assert second.read_bytes() == first.read_bytes()


# -- the derived facts against the stored-field reference ---------------------------


def _facts(s):
    return (s.phase, s.events, s.validated_plans, s.validated_levels(),
            s.last_registration, s.registration_accepted, s.placed_screws,
            s.acquisition_log)


def _step(session, stored, event):
    """Apply the event to the session and to the stored-field reference; both
    must refuse it with the same error or take it to the same facts. Returns
    the next pair, or None if the event was refused."""
    outcomes = []
    for apply, state in ((advance, session), (reference_advance, stored)):
        try:
            outcomes.append(apply(state, event))
        except (GuardFailed, IllegalTransition) as err:
            outcomes.append((type(err), str(err)))
    new, new_stored = outcomes
    if isinstance(new, tuple) or isinstance(new_stored, tuple):
        assert new == new_stored
        return None
    assert _facts(new) == _facts(new_stored)
    return new, new_stored


# a registration payload on these kinds is not read: only a submitted one counts
_STRAY_REGISTRATIONS = [Event(K.RE_REGISTER, registration=GOOD_REG),
                        Event(K.BEGIN_NAVIGATION, registration=BAD_REG),
                        Event(K.BEGIN_NAVIGATION, registration=GOOD_REG)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from([Mode.NAVIGATION_ONLY, Mode.ROBOT_ASSISTED]),
       st.integers(0, 60), st.data())
def test_derived_facts_equal_the_stored_fields_of_the_reference(mode, n_events, data):
    # a legal event string drawn step by step; every event of the alphabet is
    # tried at every step, so refusals are compared as well
    pair = (new_session(mode, Modality.INTRAOP_2D_AUTO_FIDUCIAL, 1.5),
            StoredState(mode, Modality.INTRAOP_2D_AUTO_FIDUCIAL,
                        registration_threshold_mm=1.5))
    for _ in range(n_events):
        legal = [nxt for ev in _PERSISTED_ALPHABET + _STRAY_REGISTRATIONS
                 if (nxt := _step(*pair, ev)) is not None]
        if not legal:
            break
        pair = data.draw(st.sampled_from(legal))


def test_stray_registration_payloads_are_ignored():
    pair = (new_session(Mode.NAVIGATION_ONLY, Modality.PREOP_CT_POINT_BASED),
            StoredState(Mode.NAVIGATION_ONLY, Modality.PREOP_CT_POINT_BASED))
    for ev in [Event(K.ACQUIRE_PREOP_CT), Event(K.SUBMIT_PATIENT_DATA),
               Event(K.APPROVE_PLAN, plan=_plan(), validation=GOOD_VALIDATION),
               Event(K.FINISH_PLANNING), Event(K.PREPARE_OT),
               Event(K.CALIBRATE_INSTRUMENTS), Event(K.ATTACH_DRB),
               Event(K.MOUNT_CARM), Event(K.BEGIN_REGISTRATION),
               Event(K.SUBMIT_REGISTRATION, registration=GOOD_REG),
               Event(K.RE_REGISTER, registration=GOOD_REG),
               Event(K.SUBMIT_REGISTRATION, registration=BAD_REG)]:
        pair = _step(*pair, ev)
    assert pair[0].last_registration == BAD_REG
    # a good registration riding on begin_navigation does not pass the guard
    assert _step(*pair, Event(K.BEGIN_NAVIGATION, registration=GOOD_REG)) is None
    pair = _step(*pair, Event(K.RE_REGISTER, registration=GOOD_REG))
    assert pair[0].last_registration is None
    pair = _step(*pair, Event(K.SUBMIT_REGISTRATION, registration=GOOD_REG))
    pair = _step(*pair, Event(K.BEGIN_NAVIGATION, registration=BAD_REG))
    assert pair[0].last_registration == GOOD_REG and pair[0].registration_accepted
